//! End-to-end tests of the `pg-hive` binary via `CARGO_BIN_EXE`.

use std::io::Write;
use std::process::Command;

const DEMO: &str = "\
N a Person name=Ann,age=30
N b Person name=Bob,age=40
N c - name=Cid,age=50
N o Org url=x.com
E a o WORKS_AT from=2001
E b o WORKS_AT from=2002
";

fn write_temp(content: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "pg-hive-e2e-{}-{}.pgt",
        std::process::id(),
        content.len()
    ));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_pg-hive"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn discover_summary() {
    let path = write_temp(DEMO);
    let (stdout, _, code) = run(&["discover", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("2 node types"), "{stdout}");
    assert!(
        stdout.contains("node {Person} x3"),
        "unlabeled Cid merged: {stdout}"
    );
    assert!(stdout.contains("edge {WORKS_AT} x2"));
}

#[test]
fn discover_strict_schema() {
    let path = write_temp(DEMO);
    let (stdout, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--format",
        "strict",
        "--method",
        "minhash",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("STRICT"));
    assert!(stdout.contains("age INT"), "{stdout}");
}

#[test]
fn discover_xsd() {
    let path = write_temp(DEMO);
    let (stdout, _, code) = run(&["discover", path.to_str().unwrap(), "--format", "xsd"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("<?xml"));
    assert!(stdout.contains("xs:complexType"));
}

#[test]
fn validate_self_passes_and_mismatch_fails() {
    // `validate <schema> <input>`: here the schema argument is a reference
    // input, discovered on the fly. Streaming validation types elements by
    // label set, so the reference must be fully labeled (the unlabeled
    // node in DEMO merges into Person at discovery time but cannot be
    // strictly matched as raw data).
    let labeled = DEMO.replace("N c - ", "N c Person ");
    let path = write_temp(&labeled);
    let (stdout, _, code) = run(&["validate", path.to_str().unwrap(), path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("valid"), "{stdout}");

    // A foreign record fails with exit-code symmetry to `diff`.
    let mut mutated = labeled.clone();
    mutated.push_str("N z Alien tentacles=7\n");
    let bad = write_temp(&mutated);
    let (stdout, _, code) = run(&["validate", path.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("violation"), "{stdout}");
    assert!(stdout.contains("unknown-node-labels"), "{stdout}");
}

#[test]
fn validate_snapshot_schema_report_and_max_violations() {
    // Schema from a saved snapshot instead of re-discovering the reference.
    let labeled = DEMO.replace("N c - ", "N c Person ");
    let data = write_temp_named("validate-snap-data", &labeled);
    let snap = write_temp_named("validate-snap", "placeholder");
    let (_, stderr, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--save-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    let (stdout, stderr, code) = run(&["validate", snap.to_str().unwrap(), data.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stderr.contains("schema from snapshot"), "{stderr}");
    assert!(stdout.contains("valid"), "{stdout}");

    // Two injected defects, capped at one: early exit, and the jsonl
    // report carries exactly the reported violation as a structured event.
    let mut mutated = labeled.clone();
    mutated.push_str("N z Alien tentacles=7\nN y Alien tentacles=9\n");
    let bad = write_temp_named("validate-snap-bad", &mutated);
    let report = std::env::temp_dir().join(format!(
        "pg-hive-e2e-{}-validate-report.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&report);
    let (stdout, stderr, code) = run(&[
        "validate",
        snap.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--max-violations",
        "1",
        "--report",
        &format!("jsonl:{}", report.display()),
    ]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("stopped early"), "{stderr}");
    let events = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "one capped violation -> one event: {events}"
    );
    assert!(
        lines[0].contains("\"event\":\"schema-violation\""),
        "{events}"
    );
    assert!(
        lines[0].contains("\"category\":\"unknown-node-labels\""),
        "{events}"
    );
}

#[test]
fn validate_accepts_directory_trees_with_cross_file_edges() {
    // Nodes and edges land in different shards of the tree: endpoint
    // checks must resolve across files via the deferred-edge buffer.
    let dir = write_temp_dir(
        "validate-tree",
        &[
            (
                "nodes.pgt",
                "N a Person name=Ann,age=30\nN o Org url=x.com\n",
            ),
            ("edges.pgt", "E a o WORKS_AT from=2001\n"),
        ],
    );
    let (stdout, stderr, code) = run(&["validate", dir.to_str().unwrap(), dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("valid"), "{stdout}");

    // A ghost endpoint inside the tree is a dangling-endpoint violation.
    let broken = write_temp_dir(
        "validate-tree-broken",
        &[
            (
                "nodes.pgt",
                "N a Person name=Ann,age=30\nN o Org url=x.com\n",
            ),
            ("edges.pgt", "E a ghost WORKS_AT from=2001\n"),
        ],
    );
    let (stdout, _, code) = run(&["validate", dir.to_str().unwrap(), broken.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("dangling-endpoint"), "{stdout}");
}

#[test]
fn stats_counts() {
    let path = write_temp(DEMO);
    let (stdout, _, code) = run(&["stats", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("nodes:          4"));
    assert!(stdout.contains("edges:          2"));
}

fn write_temp_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("pg-hive-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, content) in files {
        std::fs::write(dir.join(file), content).unwrap();
    }
    dir
}

const NODES_CSV: &str = "\
id,labels,name,age,url
a,Person,Ann,30,
b,Person,Bob,40,
c,,Cid,50,
o,Org,,,x.com
";

const EDGES_CSV: &str = "\
src,tgt,labels,from
a,o,WORKS_AT,2001
b,o,WORKS_AT,2002
";

#[test]
fn discover_csv_matches_pgt_inventory() {
    let dir = write_temp_dir("csv", &[("nodes.csv", NODES_CSV), ("edges.csv", EDGES_CSV)]);
    let (stdout, _, code) = run(&["discover", dir.to_str().unwrap(), "--input-format", "csv"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("node {Person} x3"), "{stdout}");
    assert!(stdout.contains("node {Org} x1"), "{stdout}");
    assert!(stdout.contains("edge {WORKS_AT} x2"), "{stdout}");
}

#[test]
fn discover_stream_reports_chunks_and_same_inventory() {
    let dir = write_temp_dir(
        "csv-stream",
        &[("nodes.csv", NODES_CSV), ("edges.csv", EDGES_CSV)],
    );
    let (stdout, stderr, code) = run(&[
        "discover",
        dir.to_str().unwrap(),
        "--input-format",
        "csv",
        "--stream",
        "--chunk-size",
        "3",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("chunk 1:"), "{stderr}");
    assert!(stdout.contains("peak resident"), "{stdout}");
    // Same labeled-type inventory as the non-streaming run.
    assert!(stdout.contains("node {Person}"), "{stdout}");
    assert!(stdout.contains("node {Org}"), "{stdout}");
    assert!(stdout.contains("edge {WORKS_AT} x2"), "{stdout}");
}

#[test]
fn discover_jsonl_input() {
    let jsonl = "\
{\"type\":\"node\",\"id\":\"a\",\"labels\":[\"Person\"],\"props\":{\"name\":\"Ann\",\"age\":30}}
{\"type\":\"node\",\"id\":\"o\",\"labels\":[\"Org\"],\"props\":{\"url\":\"x.com\"}}
{\"type\":\"edge\",\"src\":\"a\",\"tgt\":\"o\",\"labels\":[\"WORKS_AT\"],\"props\":{\"from\":2001}}
";
    let mut path = std::env::temp_dir();
    path.push(format!("pg-hive-e2e-{}.jsonl", std::process::id()));
    std::fs::write(&path, jsonl).unwrap();
    let (stdout, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--input-format",
        "jsonl",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("node {Person} x1"), "{stdout}");
    assert!(stdout.contains("edge {WORKS_AT} x1"), "{stdout}");
}

#[test]
fn stats_stream_matches_resident() {
    let csv = write_temp_dir(
        "csv-stats",
        &[("nodes.csv", NODES_CSV), ("edges.csv", EDGES_CSV)],
    );
    let pgt = write_temp_named("stats-demo", DEMO);
    let jsonl = write_temp_named(
        "stats-jsonl",
        "\
{\"type\":\"node\",\"id\":\"a\",\"labels\":[\"Person\"],\"props\":{\"name\":\"Ann\",\"age\":30}}
{\"type\":\"node\",\"id\":\"b\",\"labels\":[\"Person\",\"Employee\"],\"props\":{\"name\":\"Bob\"}}
{\"type\":\"node\",\"id\":\"o\",\"labels\":[\"Org\"],\"props\":{\"url\":\"x.com\"}}
{\"type\":\"edge\",\"src\":\"a\",\"tgt\":\"o\",\"labels\":[\"WORKS_AT\"],\"props\":{\"from\":2001}}
{\"type\":\"edge\",\"src\":\"b\",\"tgt\":\"o\",\"labels\":[\"WORKS_AT\"]}
",
    );
    // Edges that reference nodes declared later, and one label set spelled
    // in two orders.
    let forward = write_temp_named(
        "stats-forward",
        "\
E a o WORKS_AT from=2001
N a Person;Employee name=Ann
E b a KNOWS -
N o Org url=x.com
N b Employee;Person name=Bob
E b o WORKS_AT -
",
    );
    for (input, format) in [
        (&csv, "csv"),
        (&pgt, "pgt"),
        (&jsonl, "jsonl"),
        (&forward, "pgt"),
    ] {
        let input = input.to_str().unwrap();
        let (resident, _, code) = run(&["stats", input, "--input-format", format]);
        assert_eq!(code, Some(0), "{input}");
        let (streamed, stderr, code) = run(&["stats", input, "--input-format", format, "--stream"]);
        assert_eq!(code, Some(0), "{input}: {stderr}");
        assert_eq!(resident, streamed, "{input}: streaming stats must agree");
        assert!(!stderr.contains("warning"), "{input}: {stderr}");
    }
    let (streamed, _, _) = run(&["stats", forward.to_str().unwrap(), "--stream"]);
    assert!(streamed.contains("nodes:          3"), "{streamed}");
    assert!(streamed.contains("edges:          3"), "{streamed}");
    assert!(streamed.contains("node label sets:2"), "{streamed}");
    assert!(streamed.contains("edge patterns:  3"), "{streamed}");
}

#[test]
fn stream_pgt_with_forward_edge_references() {
    // Regression companion to the loader fix: edges before nodes work in
    // both the resident and the streaming path.
    let reordered = "\
E a o WORKS_AT from=2001
N a Person name=Ann,age=30
N o Org url=x.com
";
    let path = write_temp(reordered);
    let (stdout, _, code) = run(&["discover", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("edge {WORKS_AT} x1"), "{stdout}");
    let (stdout, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--chunk-size",
        "2",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("edge {WORKS_AT} x1"), "{stdout}");
}

#[test]
fn discover_stream_parallel_matches_serial_output() {
    // The pipeline-parallel engine must print the same schema for any
    // --threads / --read-ahead combination.
    let mut big = String::new();
    for i in 0..60 {
        big.push_str(&format!("N p{i} Person name=p{i},age={}\n", 20 + i));
    }
    for i in 0..6 {
        big.push_str(&format!("N o{i} Org url=o{i}.com\n"));
    }
    for i in 0..60 {
        big.push_str(&format!("E p{i} o{} WORKS_AT from=200{}\n", i % 6, i % 10));
    }
    let path = write_temp(&big);
    let serial = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--chunk-size",
        "10",
        "--threads",
        "1",
        "--format",
        "strict",
    ]);
    assert_eq!(serial.2, Some(0), "{}", serial.1);
    for (threads, read_ahead) in [("2", "1"), ("4", "3")] {
        let par = run(&[
            "discover",
            path.to_str().unwrap(),
            "--stream",
            "--chunk-size",
            "10",
            "--threads",
            threads,
            "--read-ahead",
            read_ahead,
            "--format",
            "strict",
        ]);
        assert_eq!(par.2, Some(0), "{}", par.1);
        assert_eq!(par.0, serial.0, "threads={threads} diverged from serial");
    }
}

#[test]
fn diff_reports_changes_and_exit_codes() {
    let old = write_temp(DEMO);
    let (stdout, _, code) = run(&["diff", old.to_str().unwrap(), old.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("no schema changes"), "{stdout}");

    let evolved = format!("{DEMO}N p Place name=GR\nE o p LOCATED_IN -\n");
    let new = write_temp(&evolved);
    let (stdout, _, code) = run(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("+ node type Place"), "{stdout}");
    assert!(stdout.contains("+ edge type LOCATED_IN"), "{stdout}");
    assert!(stdout.contains("monotone"), "{stdout}");

    // Streaming diff agrees.
    let (streamed, stderr, code) = run(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--stream",
        "--chunk-size",
        "4",
        "--threads",
        "2",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(streamed.contains("+ node type Place"), "{streamed}");
}

/// A uniquely named temp file — for tests that must own their file
/// exclusively (the watch tests keep it open across >1 s while other
/// tests recreate the shared `write_temp(DEMO)` path concurrently).
fn write_temp_named(name: &str, content: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pg-hive-e2e-{}-{name}.pgt", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn watch_once_without_changes_matches_discover_stream_schema() {
    let path = write_temp_named("watch-stable", DEMO);
    let (discover_out, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--chunk-size",
        "3",
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0));
    let (watch_out, watch_err, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--chunk-size",
        "3",
    ]);
    assert_eq!(code, Some(0), "no drift on an unchanged file: {watch_err}");
    assert!(watch_out.contains("no schema drift"), "{watch_out}");
    // The final schema watch emits is byte-identical to the streaming
    // discover path — both finalize the same canonical SchemaState.
    let schema_part = &watch_out[watch_out.find("CREATE GRAPH TYPE").expect("schema emitted")..];
    assert_eq!(schema_part, discover_out, "watch diverged from discover");
}

#[test]
fn watch_once_detects_appended_drift_with_exit_1() {
    use std::io::Read;
    let path = write_temp_named("watch-drift", DEMO);
    // Spawn watch with captured pipes and append only after its stderr
    // shows the baseline pass finished — no fixed-sleep race against
    // process startup on a loaded machine.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pg-hive"))
        .args([
            "watch",
            path.to_str().unwrap(),
            "--once",
            "--interval",
            "1",
            "--chunk-size",
            "4",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut child_err = child.stderr.take().unwrap();
    let mut stderr = String::new();
    let mut byte = [0u8; 1];
    while !stderr.contains("baseline") {
        assert_ne!(
            child_err.read(&mut byte).expect("stderr readable"),
            0,
            "watch exited before printing a baseline: {stderr}"
        );
        stderr.push(byte[0] as char);
    }
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"N p Place name=GR\nE o p LOCATED_IN since=2020\n")
        .unwrap();
    drop(f);
    let out = child.wait_with_output().expect("watch terminates");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut rest = String::new();
    child_err.read_to_string(&mut rest).unwrap();
    stderr.push_str(&rest);
    assert_eq!(
        out.status.code(),
        Some(1),
        "drift must exit 1: {stderr}\n{stdout}"
    );
    assert!(stdout.contains("schema drift detected"), "{stdout}");
    assert!(stdout.contains("monotone"), "{stdout}");
    assert!(stdout.contains("+ node type Place"), "{stdout}");
    assert!(stdout.contains("+ edge type LOCATED_IN"), "{stdout}");
    // The appended edge references node `o` from the baseline pass: the
    // carried registry resolves it instead of dropping it.
    assert!(
        stderr.contains("cross-chunk edge"),
        "cross-pass edge resolved through the registry: {stderr}"
    );
}

#[test]
fn watch_and_diff_reject_empty_or_header_only_input() {
    // Regression: an empty / CSV header-only input used to discover a
    // legitimate-looking empty schema; it must be a *named* error.
    let empty = write_temp("# nothing but a comment\n");
    let (_, stderr, code) = run(&[
        "watch",
        empty.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("empty input:"), "{stderr}");

    let full = write_temp(DEMO);
    for order in [
        [empty.to_str().unwrap(), full.to_str().unwrap()],
        [full.to_str().unwrap(), empty.to_str().unwrap()],
    ] {
        let (_, stderr, code) = run(&["diff", order[0], order[1]]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("empty input:"), "{stderr}");
        // Streaming diff raises the same named error.
        let (_, stderr, code) = run(&["diff", order[0], order[1], "--stream"]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("empty input:"), "{stderr}");
    }

    let header_only = write_temp_dir("csv-header-only", &[("nodes.csv", "id,labels,name\n")]);
    let (_, stderr, code) = run(&[
        "watch",
        header_only.to_str().unwrap(),
        "--input-format",
        "csv",
        "--once",
        "--interval",
        "1",
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("empty input:"), "{stderr}");
}

#[test]
fn zero_thread_flags_rejected_with_usage() {
    for flags in [
        &["discover", "g.pgt", "--threads", "0"][..],
        &["discover", "g.pgt", "--read-ahead", "0"],
        &["discover", "g.pgt", "--chunk-size", "0"],
        &["stats", "g.pgt", "--threads", "0"],
        &["diff", "a.pgt", "b.pgt", "--read-ahead", "0"],
    ] {
        let (_, stderr, code) = run(flags);
        assert_eq!(code, Some(2), "{flags:?}");
        assert!(stderr.contains("must be >= 1"), "{flags:?}: {stderr}");
    }
}

#[test]
fn stream_and_batches_conflict() {
    let (_, stderr, code) = run(&["discover", "g.pgt", "--stream", "--batches", "3"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("incompatible"), "{stderr}");
}

#[test]
fn bad_usage_exits_2() {
    let (_, stderr, code) = run(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_file_is_an_error() {
    let (_, stderr, code) = run(&["discover", "/nonexistent/x.pgt"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot read"));
}

#[test]
fn help_prints_usage() {
    let (stdout, _, code) = run(&["help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("USAGE"));
}

// ---------------------------------------------------------------------------
// Snapshot persistence: discover --save-state/--load-state, durable watch
// (--state-dir), drift sinks, and the named snapshot: error guarantees.
// ---------------------------------------------------------------------------

/// A uniquely named temp directory for state-dir tests.
fn temp_dir_named(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("pg-hive-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn discover_save_then_load_state_reproduces_the_exact_schema() {
    let data = write_temp_named("save-load-data", DEMO);
    let empty = write_temp_named("save-load-empty", "");
    let snap = write_temp_named("save-load", "placeholder");
    // Save the state of a streamed discovery...
    let (saved_out, stderr, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
        "--save-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("state saved to"), "{stderr}");
    // ...then resume it over an *empty* input: the loaded state alone must
    // finalize byte-identically to the run that saved it.
    let (resumed_out, stderr, code) = run(&[
        "discover",
        empty.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
        "--load-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert_eq!(
        resumed_out, saved_out,
        "save -> load round trip is lossless"
    );
}

#[test]
fn load_state_resolves_cross_run_edges_through_the_saved_registry() {
    // Part 1 declares the nodes; part 2 holds only edges referencing them.
    // Without the persisted id -> label-set registry those edges would be
    // dropped as dangling; with it they resolve as stub-endpoint edges.
    let part1 = write_temp_named("state-part1", "N a Person name=Ann\nN o Org url=x.com\n");
    let part2 = write_temp_named("state-part2", "E a o WORKS_AT from=2001\n");
    let snap = write_temp_named("state-parts", "placeholder");
    let (_, stderr, code) = run(&[
        "discover",
        part1.to_str().unwrap(),
        "--stream",
        "--save-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let (stdout, stderr, code) = run(&[
        "discover",
        part2.to_str().unwrap(),
        "--stream",
        "--format",
        "summary",
        "--load-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("edge {WORKS_AT} x1"), "{stdout}");
    assert!(stderr.contains("cross-chunk edge"), "{stderr}");
}

#[test]
fn corrupt_truncated_and_future_version_snapshots_are_named_errors() {
    let data = write_temp_named("snap-errors-data", DEMO);
    let snap = write_temp_named("snap-errors", "placeholder");
    let (_, _, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--save-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let pristine = std::fs::read_to_string(&snap).unwrap();
    let load = |path: &std::path::Path| {
        run(&[
            "discover",
            data.to_str().unwrap(),
            "--stream",
            "--load-state",
            path.to_str().unwrap(),
        ])
    };

    // Corrupt: flip one payload byte.
    std::fs::write(&snap, pristine.replacen("theta", "thetb", 1)).unwrap();
    let (_, stderr, code) = load(&snap);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("snapshot:"), "{stderr}");
    assert!(stderr.contains("checksum"), "{stderr}");

    // Truncated: cut the file short.
    std::fs::write(&snap, &pristine[..pristine.len() / 2]).unwrap();
    let (_, stderr, code) = load(&snap);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("snapshot:"), "{stderr}");

    // Future format version: refuse, do not misparse.
    std::fs::write(
        &snap,
        pristine.replacen("pg-hive-snapshot 1", "pg-hive-snapshot 999", 1),
    )
    .unwrap();
    let (_, stderr, code) = load(&snap);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("version 999"), "{stderr}");

    // Not a snapshot at all.
    std::fs::write(&snap, "N a Person -\n").unwrap();
    let (_, stderr, code) = load(&snap);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("not a pg-hive snapshot"), "{stderr}");
}

#[test]
fn incompatible_snapshot_config_is_refused_with_the_field_named() {
    let data = write_temp_named("snap-config-data", DEMO);
    let snap = write_temp_named("snap-config", "placeholder");
    let (_, _, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--save-state",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    for (extra, field) in [
        (&["--seed", "7"][..], "seed"),
        (&["--theta", "0.5"], "theta"),
        (&["--method", "minhash"], "method"),
        (&["--chunk-size", "17"], "chunk-size"),
    ] {
        let mut args = vec![
            "discover",
            data.to_str().unwrap(),
            "--stream",
            "--load-state",
            snap.to_str().unwrap(),
        ];
        args.extend(extra);
        let (_, stderr, code) = run(&args);
        assert_eq!(code, Some(1), "{field}: {stderr}");
        assert!(
            stderr.contains("snapshot: incompatible configuration"),
            "{field}: {stderr}"
        );
        assert!(stderr.contains(&format!("{field}=")), "{field}: {stderr}");
    }
}

#[test]
fn save_and_load_state_require_stream_mode() {
    let (_, stderr, code) = run(&["discover", "g.pgt", "--save-state", "s.snap"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("require --stream"), "{stderr}");
}

#[test]
fn durable_watch_resumes_without_spurious_drift_and_alerts_once() {
    let path = write_temp_named("watch-durable", DEMO);
    let dir = temp_dir_named("watch-durable-state");
    let events = dir.join("events.jsonl");
    let watch = |p: &std::path::Path| {
        run(&[
            "watch",
            p.to_str().unwrap(),
            "--once",
            "--interval",
            "1",
            "--chunk-size",
            "3",
            "--state-dir",
            dir.to_str().unwrap(),
            "--on-drift",
            &format!("jsonl:{}", events.display()),
        ])
    };

    // Run 1: fresh baseline + one re-check, checkpoint written, no drift.
    let (out1, err1, code) = watch(&path);
    assert_eq!(code, Some(0), "{err1}");
    assert!(err1.contains("baseline"), "{err1}");
    assert!(dir.join("watch.snapshot").exists());

    // Run 2: no-op restart — resumes from the checkpoint and must NOT fire
    // a spurious drift event (the resumed state finalizes byte-identically
    // to what the killed process last saw).
    let (out2, err2, code) = watch(&path);
    assert_eq!(
        code,
        Some(0),
        "spurious drift on no-op restart: {out2}{err2}"
    );
    assert!(err2.contains("resumed from checkpoint"), "{err2}");
    assert!(!out2.contains("drift detected"), "{out2}");
    assert!(!events.exists(), "no drift -> no events");
    // The resumed final schema matches the fresh run's byte for byte.
    let schema1 = &out1[out1.find("CREATE GRAPH TYPE").unwrap()..];
    let schema2 = &out2[out2.find("CREATE GRAPH TYPE").unwrap()..];
    assert_eq!(schema1, schema2);

    // Append new records *between* runs, then restart: the resumed run
    // ingests only the appended bytes and reports drift exactly once.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"N p Place name=GR\nE o p LOCATED_IN since=2020\n")
        .unwrap();
    drop(f);
    let (out3, err3, code) = watch(&path);
    assert_eq!(code, Some(1), "drift must exit 1: {out3}{err3}");
    assert_eq!(out3.matches("schema drift detected").count(), 1, "{out3}");
    assert!(out3.contains("+ node type Place"), "{out3}");
    // The structured event reached the jsonl sink.
    let event_log = std::fs::read_to_string(&events).unwrap();
    assert_eq!(event_log.lines().count(), 1, "{event_log}");
    assert!(
        event_log.contains("\"event\":\"schema-drift\""),
        "{event_log}"
    );
    assert!(event_log.contains("\"monotone\":true"), "{event_log}");
    assert!(event_log.contains("+ node type Place"), "{event_log}");

    // Run 4: another no-op restart after the drift was absorbed — quiet
    // again, and still exactly one recorded event.
    let (out4, _, code) = watch(&path);
    assert_eq!(code, Some(0), "{out4}");
    assert_eq!(std::fs::read_to_string(&events).unwrap().lines().count(), 1);
}

#[test]
fn corrupt_watch_checkpoint_is_a_named_error_not_a_silent_reingest() {
    let path = write_temp_named("watch-corrupt", DEMO);
    let dir = temp_dir_named("watch-corrupt-state");
    let (_, _, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let snap = dir.join("watch.snapshot");
    let pristine = std::fs::read_to_string(&snap).unwrap();
    std::fs::write(&snap, pristine.replacen("node", "ncde", 1)).unwrap();
    let (_, stderr, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("snapshot:"), "{stderr}");
    assert!(stderr.contains("checksum"), "{stderr}");

    // A checkpoint for a *different* input is refused too.
    std::fs::write(&snap, &pristine).unwrap();
    let other = write_temp_named("watch-corrupt-other", DEMO);
    let (_, stderr, code) = run(&[
        "watch",
        other.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("snapshot:"), "{stderr}");
    assert!(stderr.contains("saved for input"), "{stderr}");
}

#[test]
fn snapshot_kinds_do_not_cross_load() {
    // A watch checkpoint into discover --load-state would silently ignore
    // the per-file offsets and double-ingest already-checkpointed input;
    // both cross-load directions are named refusals instead.
    let path = write_temp_named("cross-load", DEMO);
    let dir = temp_dir_named("cross-load-state");
    let (_, _, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let watch_snap = dir.join("watch.snapshot");
    let (_, stderr, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--load-state",
        watch_snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("snapshot:"), "{stderr}");
    assert!(stderr.contains("watch --state-dir` checkpoint"), "{stderr}");

    // And the converse: a discover save-state has no watch progress.
    let save = write_temp_named("cross-load-save", "placeholder");
    let (_, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--save-state",
        save.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let dir2 = temp_dir_named("cross-load-state2");
    std::fs::copy(&save, dir2.join("watch.snapshot")).unwrap();
    let (_, stderr, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir2.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no watch progress"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Sharded multi-source discovery, merge-state, and the snapshot lifecycle.
// ---------------------------------------------------------------------------

/// A directory tree of mixed-format inputs with cross-input edges: the CSV
/// and JSONL edges reference nodes declared only in `people.pgt`.
fn mixed_tree(name: &str) -> std::path::PathBuf {
    let dir = temp_dir_named(name);
    std::fs::write(
        dir.join("people.pgt"),
        "N a Person name=Ann,age=30\nN b Person name=Bob,age=40\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("sites.jsonl"),
        "{\"type\":\"node\",\"id\":\"p\",\"labels\":[\"Place\"],\"props\":{\"name\":\"GR\"}}\n\
         {\"type\":\"edge\",\"src\":\"a\",\"tgt\":\"p\",\"labels\":[\"LIVES_IN\"],\"props\":{\"since\":2020}}\n",
    )
    .unwrap();
    let orgs = dir.join("orgs");
    std::fs::create_dir_all(&orgs).unwrap();
    std::fs::write(orgs.join("nodes.csv"), "id,labels,url\no,Org,x.com\n").unwrap();
    std::fs::write(
        orgs.join("edges.csv"),
        "src,tgt,labels,from\na,o,WORKS_AT,2001\nb,o,WORKS_AT,2002\n",
    )
    .unwrap();
    dir
}

#[test]
fn watch_interval_zero_or_garbage_is_a_named_usage_error() {
    // Regression: --interval 0 must be a parse-level refusal naming the
    // flag, not an accepted busy-loop (or a panic on overflow).
    let (_, stderr, code) = run(&["watch", "g.pgt", "--interval", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--interval must be >= 1"), "{stderr}");
    for bad in ["-5", "abc"] {
        let (_, stderr, code) = run(&["watch", "g.pgt", "--interval", bad]);
        assert_eq!(code, Some(2), "--interval {bad}: {stderr}");
        assert!(stderr.contains("--interval"), "--interval {bad}: {stderr}");
    }
}

#[test]
fn sharded_discover_over_a_mixed_tree_is_byte_identical_to_serial() {
    let dir = mixed_tree("shard-tree");
    let discover = |shards: &str| {
        run(&[
            "discover",
            dir.to_str().unwrap(),
            "--stream",
            "--chunk-size",
            "2",
            "--format",
            "strict",
            "--shards",
            shards,
        ])
    };
    let (serial, err, code) = discover("1");
    assert_eq!(code, Some(0), "{err}");
    // Cross-input edges resolved against the merged registry, not dropped.
    assert!(serial.contains("LIVES_IN"), "{serial}");
    assert!(serial.contains("WORKS_AT"), "{serial}");
    for shards in ["2", "3", "5"] {
        let (sharded, err, code) = discover(shards);
        assert_eq!(code, Some(0), "{err}");
        assert_eq!(sharded, serial, "--shards {shards} diverged from serial");
    }
}

#[test]
fn directory_input_without_stream_is_a_named_error() {
    let dir = mixed_tree("tree-no-stream");
    let (_, stderr, code) = run(&["discover", dir.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("requires --stream"), "{stderr}");
    // --shards without --stream is refused at parse time.
    let (_, stderr, code) = run(&["discover", dir.to_str().unwrap(), "--shards", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--shards requires --stream"), "{stderr}");
}

#[test]
fn watch_over_a_directory_tree_matches_sharded_discover() {
    let dir = mixed_tree("watch-tree");
    let (discover_out, err, code) = run(&[
        "discover",
        dir.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0), "{err}");
    let (watch_out, watch_err, code) =
        run(&["watch", dir.to_str().unwrap(), "--once", "--interval", "1"]);
    assert_eq!(code, Some(0), "{watch_err}");
    assert!(watch_out.contains("no schema drift"), "{watch_out}");
    let schema_part = &watch_out[watch_out.find("CREATE GRAPH TYPE").expect("schema emitted")..];
    assert_eq!(
        schema_part, discover_out,
        "watch over a tree diverged from sharded discover"
    );
}

#[test]
fn merge_state_folds_split_runs_into_the_one_shot_schema() {
    let full = mixed_tree("merge-full");
    let (one_shot, err, code) = run(&[
        "discover",
        full.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0), "{err}");

    // Split the same tree across two independent discover runs...
    let a = temp_dir_named("merge-a");
    std::fs::copy(full.join("people.pgt"), a.join("people.pgt")).unwrap();
    let b = temp_dir_named("merge-b");
    std::fs::copy(full.join("sites.jsonl"), b.join("sites.jsonl")).unwrap();
    let orgs = b.join("orgs");
    std::fs::create_dir_all(&orgs).unwrap();
    std::fs::copy(full.join("orgs").join("nodes.csv"), orgs.join("nodes.csv")).unwrap();
    std::fs::copy(full.join("orgs").join("edges.csv"), orgs.join("edges.csv")).unwrap();
    let snap_a = write_temp_named("merge-snap-a", "placeholder");
    let snap_b = write_temp_named("merge-snap-b", "placeholder");
    for (input, snap) in [(&a, &snap_a), (&b, &snap_b)] {
        let (_, err, code) = run(&[
            "discover",
            input.to_str().unwrap(),
            "--stream",
            "--save-state",
            snap.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(0), "{err}");
    }

    // ...then fold the saved states. All three of b's edges reference
    // people from a's run: they are carried as pending and resolve against
    // the merged registry, and the result is byte-identical to the one-shot
    // run over the whole tree — in either merge order.
    for (name, order) in [
        ("merge-out-ab", [&snap_a, &snap_b]),
        ("merge-out-ba", [&snap_b, &snap_a]),
    ] {
        let out = write_temp_named(name, "placeholder");
        let (merged, err, code) = run(&[
            "merge-state",
            out.to_str().unwrap(),
            order[0].to_str().unwrap(),
            order[1].to_str().unwrap(),
            "--format",
            "strict",
        ]);
        assert_eq!(code, Some(0), "{err}");
        assert!(err.contains("3 carried edge(s) resolved"), "{err}");
        assert_eq!(
            merged, one_shot,
            "merge order {name} diverged from one-shot"
        );
        assert!(out.exists(), "merged snapshot written");
    }
}

#[test]
fn merge_state_refuses_mismatched_configs_and_missing_inputs() {
    let data = write_temp_named("merge-guard-data", DEMO);
    let s1 = write_temp_named("merge-guard-s1", "placeholder");
    let s2 = write_temp_named("merge-guard-s2", "placeholder");
    let (_, _, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--save-state",
        s1.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let (_, _, code) = run(&[
        "discover",
        data.to_str().unwrap(),
        "--stream",
        "--seed",
        "7",
        "--save-state",
        s2.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    // Snapshots written under different configurations name the field.
    let out = write_temp_named("merge-guard-out", "placeholder");
    let (_, stderr, code) = run(&[
        "merge-state",
        out.to_str().unwrap(),
        s1.to_str().unwrap(),
        s2.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("snapshot: incompatible configuration"),
        "{stderr}"
    );
    assert!(stderr.contains("seed="), "{stderr}");

    // No inputs at all is a *named* usage error (regression: this used to
    // surface as a bare run error), so scripts can tell flag misuse from
    // snapshot problems by the exit code and the usage: prefix alike.
    let (_, stderr, code) = run(&["merge-state", out.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: merge-state"), "{stderr}");
    assert!(stderr.contains("at least one input snapshot"), "{stderr}");
}

#[test]
fn watch_keep_rotates_checkpoints_into_a_bounded_chain() {
    let path = write_temp_named("watch-keep", DEMO);
    let dir = temp_dir_named("watch-keep-state");
    let watch = || {
        run(&[
            "watch",
            path.to_str().unwrap(),
            "--once",
            "--interval",
            "1",
            "--state-dir",
            dir.to_str().unwrap(),
            "--keep",
            "2",
        ])
    };
    // Run 1 checkpoints twice (baseline + one pass): the live snapshot
    // plus one rotated slot.
    let (_, err, code) = watch();
    assert_eq!(code, Some(0), "{err}");
    assert!(dir.join("watch.snapshot").exists());
    assert!(dir.join("watch.snapshot.1").exists());
    assert!(!dir.join("watch.snapshot.2").exists());
    // Runs 2 and 3 resume (one more pass each): the chain fills to K=2 and
    // never grows past it.
    let (_, err, code) = watch();
    assert_eq!(code, Some(0), "{err}");
    assert!(dir.join("watch.snapshot.2").exists());
    let (_, err, code) = watch();
    assert_eq!(code, Some(0), "{err}");
    assert!(dir.join("watch.snapshot.1").exists());
    assert!(dir.join("watch.snapshot.2").exists());
    assert!(
        !dir.join("watch.snapshot.3").exists(),
        "--keep 2 must prune the chain"
    );
    // A rotated slot is a loadable snapshot: merge-state accepts it.
    let out = write_temp_named("watch-keep-merged", "placeholder");
    let (_, stderr, code) = run(&[
        "merge-state",
        out.to_str().unwrap(),
        dir.join("watch.snapshot.1").to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn failed_watch_checkpoint_keeps_the_previous_one_live() {
    let path = write_temp_named("watch-keep-fail", DEMO);
    let dir = temp_dir_named("watch-keep-fail-state");
    let watch = || {
        run(&[
            "watch",
            path.to_str().unwrap(),
            "--once",
            "--interval",
            "1",
            "--state-dir",
            dir.to_str().unwrap(),
            "--keep",
            "2",
        ])
    };
    let (out1, err, code) = watch();
    assert_eq!(code, Some(0), "{err}");
    let live = dir.join("watch.snapshot");
    let saved = std::fs::read(&live).unwrap();
    // A directory squatting on the temp path makes the next checkpoint
    // write fail after rotation has run.
    let tmp = dir.join("watch.snapshot.tmp");
    std::fs::create_dir(&tmp).unwrap();
    let (_, err, code) = watch();
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("error:"), "{err}");
    assert_eq!(
        std::fs::read(&live).unwrap(),
        saved,
        "previous checkpoint stays live"
    );
    std::fs::remove_dir(&tmp).unwrap();
    // The next run resumes from it to the same schema, byte for byte.
    let (out3, err, code) = watch();
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("resumed from checkpoint"), "{err}");
    let schema1 = &out1[out1.find("CREATE GRAPH TYPE").unwrap()..];
    let schema3 = &out3[out3.find("CREATE GRAPH TYPE").unwrap()..];
    assert_eq!(schema1, schema3);
}

#[test]
fn watch_partition_rolls_are_ordinary_mergeable_states() {
    let path = write_temp_named("watch-partition", DEMO);
    let dir = temp_dir_named("watch-partition-state");
    let (stdout, stderr, code) = run(&[
        "watch",
        path.to_str().unwrap(),
        "--once",
        "--interval",
        "1",
        "--state-dir",
        dir.to_str().unwrap(),
        "--keep",
        "2",
        "--partition",
        "passes:1",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    // passes:1 rolls after every pass: the baseline partition (all of DEMO)
    // has rotated into slot .2, pass 2's (empty) partition into .1.
    assert!(dir.join("watch.snapshot.1").exists());
    assert!(dir.join("watch.snapshot.2").exists());
    // No drift: the merged window still covers everything ingested.
    assert!(stdout.contains("no schema drift"), "{stdout}");
    // Folding the retained partitions offline reproduces the schema of a
    // plain streamed discover over the same data.
    let (discover_out, _, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0));
    let out = write_temp_named("watch-partition-merged", "placeholder");
    let (merged, stderr, code) = run(&[
        "merge-state",
        out.to_str().unwrap(),
        dir.join("watch.snapshot.1").to_str().unwrap(),
        dir.join("watch.snapshot.2").to_str().unwrap(),
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        merged, discover_out,
        "merged retained partitions diverged from one-shot discover"
    );
    // The guard flags are validated: --partition without --keep is a usage
    // error, as is --keep without --state-dir.
    let (_, stderr, code) = run(&["watch", path.to_str().unwrap(), "--partition", "passes:2"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--partition requires"), "{stderr}");
    let (_, stderr, code) = run(&["watch", path.to_str().unwrap(), "--keep", "2"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--keep requires --state-dir"), "{stderr}");
}

// --------------------------------------------------------------------------
// `pg-hive serve` end-to-end: spawn the real binary, speak HTTP over raw
// sockets, compare against the offline pipeline, and regress multi-tenant
// snapshot rotation (chains must never cross-contaminate).
// --------------------------------------------------------------------------

/// Kills the spawned server on drop so a failing assertion can't leak a
/// listening process into the test host.
struct ServeGuard(std::process::Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `pg-hive serve --addr 127.0.0.1:0 <extra>` and return the guard
/// plus the resolved `host:port` parsed from the startup line on stdout.
fn spawn_serve(extra: &[&str]) -> (ServeGuard, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_pg-hive"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();
    (ServeGuard(child), addr)
}

/// One HTTP request on a fresh connection; returns (status, body).
fn http(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    use std::io::{BufRead, BufReader, Read};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut len = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().unwrap();
            }
        }
    }
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf).unwrap();
    (status, String::from_utf8(buf).unwrap())
}

#[test]
fn serve_e2e_schema_matches_offline_discover() {
    let (guard, addr) = spawn_serve(&[]);
    let (status, body) = http(&addr, "POST", "/v1/main/ingest", DEMO);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"pass\":1"), "{body}");
    let (status, served) = http(&addr, "GET", "/v1/main/schema", "");
    assert_eq!(status, 200, "{served}");

    // The served schema must be byte-identical to the offline streaming
    // pipeline over the same single batch.
    let path = write_temp_named("serve-e2e-offline", DEMO);
    let (offline, stderr, code) = run(&[
        "discover",
        path.to_str().unwrap(),
        "--stream",
        "--format",
        "strict",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        served, offline,
        "served schema diverged from offline discover"
    );
    drop(guard);
}

#[test]
fn serve_e2e_multi_tenant_rotation_chains_never_cross_contaminate() {
    let dir = std::env::temp_dir().join(format!("pg-hive-e2e-serve-rot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Label vocabularies are disjoint so any cross-tenant bleed is
    // grep-visible in both snapshots and served schemas.
    let alpha1 = "N z1 Zephyr name=a\nN z2 Zephyr name=b\nE z1 z2 GUSTS w=1\n";
    let alpha2 = "N z3 Zephyr name=c\nE z1 z3 GUSTS w=2\n";
    let beta1 = "N b1 Beacon url=x\nN b2 Beacon url=y\nE b1 b2 SIGNALS w=1\n";
    let beta2 = "N b3 Beacon url=z\nE b1 b3 SIGNALS w=2\n";

    let (guard, addr) = spawn_serve(&["--state-dir", dir.to_str().unwrap(), "--keep", "2"]);
    for (tenant, batch) in [
        ("alpha", alpha1),
        ("beta", beta1),
        ("alpha", alpha2),
        ("beta", beta2),
    ] {
        let (status, body) = http(&addr, "POST", &format!("/v1/{tenant}/ingest"), batch);
        assert_eq!(status, 200, "{body}");
        let (status, body) = http(&addr, "POST", &format!("/v1/{tenant}/checkpoint"), "");
        assert_eq!(status, 200, "{body}");
    }
    let (_, alpha_before) = http(&addr, "GET", "/v1/alpha/schema", "");
    let (_, beta_before) = http(&addr, "GET", "/v1/beta/schema", "");
    drop(guard);

    // Each tenant owns exactly its own chain: live snapshot + one rotated
    // slot, every file stamped with its own tenant and vocabulary only.
    for tenant in ["alpha", "beta"] {
        let other_label = if tenant == "alpha" {
            "Beacon"
        } else {
            "Zephyr"
        };
        let own_input = format!("input {tenant}");
        for name in [format!("{tenant}.snapshot"), format!("{tenant}.snapshot.1")] {
            let text = std::fs::read_to_string(dir.join(&name))
                .unwrap_or_else(|e| panic!("{name} missing: {e}"));
            assert!(text.contains(&own_input), "{name} lost its tenant stamp");
            assert!(
                !text.contains(other_label),
                "{name} is contaminated with {other_label}"
            );
        }
        assert!(
            !dir.join(format!("{tenant}.snapshot.2")).exists(),
            "--keep 2 retains at most live + 1 rotated before the chain fills"
        );
    }

    // Warm restart from the same state dir: both tenants resume
    // byte-identical and a replayed batch causes no spurious drift.
    let (guard, addr) = spawn_serve(&["--state-dir", dir.to_str().unwrap(), "--keep", "2"]);
    let (status, alpha_after) = http(&addr, "GET", "/v1/alpha/schema", "");
    assert_eq!(status, 200, "{alpha_after}");
    let (_, beta_after) = http(&addr, "GET", "/v1/beta/schema", "");
    assert_eq!(alpha_before, alpha_after, "alpha changed across restart");
    assert_eq!(beta_before, beta_after, "beta changed across restart");
    assert!(alpha_after.contains("Zephyr") && !alpha_after.contains("Beacon"));
    assert!(beta_after.contains("Beacon") && !beta_after.contains("Zephyr"));
    let (status, body) = http(&addr, "POST", "/v1/alpha/ingest", alpha2);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"drift\":false"), "spurious drift: {body}");
    drop(guard);
    std::fs::remove_dir_all(&dir).unwrap();
}
