//! Tiny-size runs of every workload under two seeds, untraced and traced:
//! every output check must pass and each mode must report exactly the
//! metrics `BENCHMARK.json` declares for it.

use hivebench::{run, Params, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn smoke(workload: &str, seed: u64, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{seed}-{}", u8::from(trace)));
    let params = Params {
        seed,
        seconds: 0.01,
        trace,
        size: Size::tiny(),
        work_dir: dir.join("work"),
        trace_dir: dir.join("trace"),
    };
    let out = run(workload, &params).expect("known workload");
    let _ = std::fs::remove_dir_all(&dir);
    let label = format!("{workload} seed {seed} trace {trace}");
    assert!(out.attempted > 0, "{label}: nothing attempted");
    assert_eq!(out.failed, 0, "{label}: output checks failed");
    assert!(out.to_json().starts_with("{\"correct\": true,"));
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
    }
    if !trace {
        assert_eq!(out.metric("success_ratio"), Some(1.0), "{label}");
    }
    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, want, "{label}: reported metrics");
    if !trace {
        for m in &out.metrics {
            assert!(m.value > 0.0, "{label}: end-to-end {} reads 0", m.name);
        }
    }
}

#[test]
fn ldbc_stream_smoke() {
    for seed in [1, 2] {
        smoke("ldbc-stream", seed, false);
        smoke("ldbc-stream", seed, true);
    }
}

#[test]
fn steady_cache_smoke() {
    for seed in [1, 2] {
        smoke("steady-cache", seed, false);
        smoke("steady-cache", seed, true);
    }
}

#[test]
fn serve_mixed_smoke() {
    for seed in [1, 2] {
        smoke("serve-mixed", seed, false);
        smoke("serve-mixed", seed, true);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let params = Params {
        seed: 1,
        seconds: 0.01,
        trace: false,
        size: Size::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-unknown"),
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-unknown"),
    };
    assert!(run("no-such-workload", &params).is_err());
}

/// `BENCHMARK.json` declares exactly the workloads and, in order, the
/// metrics with their units that the command reports.
#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end].to_string()
    };
    // `(name, unit)` pairs in the order a section lists them.
    let pairs = |key: &str| {
        let text = section(key);
        text.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_string();
                let unit = entry
                    .split_once("\"unit\": \"")
                    .map(|(_, rest)| rest[..rest.find('"').expect("unit closes")].to_string());
                (name, unit)
            })
            .collect::<Vec<_>>()
    };
    let declared = |table: &[(&str, &str)]| {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect::<Vec<_>>()
    };
    assert_eq!(pairs("end_to_end"), declared(&END_TO_END));
    assert_eq!(pairs("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
