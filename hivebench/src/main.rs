//! `hivebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs and prints one JSON result line
//! last on stdout: end-to-end metrics with `--trace 0`, the per-layer
//! breakdown with `--trace 1`. Exits 1 when any output check failed and 2
//! on bad arguments. Generated files live under `.bench_work/` in the
//! current directory and are removed at exit; traced runs leave their
//! spans in `.bench_trace/`.

use hivebench::{run, Params, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("hivebench: {msg}");
    eprintln!(
        "usage: hivebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }

    let work_root = PathBuf::from(".bench_work");
    let params = Params {
        seed,
        seconds,
        trace,
        size: Size::full(),
        work_dir: work_root.join(format!("{workload}-{}", std::process::id())),
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let result = run(&workload, &params);
    let _ = std::fs::remove_dir_all(&params.work_dir);
    let _ = std::fs::remove_dir(&work_root);
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("{workload}: {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => usage(&e),
    }
}
