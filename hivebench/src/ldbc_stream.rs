//! `ldbc-stream`: the one-shot cold `discover --stream` path over the
//! paper's LDBC dataset written once to a `.pgt` file.
//!
//! Leans on parse (`pgraph::stream`), `extract` and `state`
//! postprocess/merge/finalize. LDBC collapses to a few dozen distinct
//! signatures, so LSH is nearly idle; the cache and the server are
//! bypassed.

use crate::engine::{self, StreamPass};
use crate::replay::{Counts, Replay};
use crate::trace::{layer_totals, stage_sum_over_wall, Tracer};
use crate::{f1_scores, gen, keep_going, stats, write_trace, Outcome, Params, SetupTimer};
use pg_hive_core::{SchemaGraph, SchemaState};
use pg_hive_datasets::DatasetId;
use pg_hive_graph::loader::save_text;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

type Inventory = (BTreeSet<Vec<String>>, BTreeSet<Vec<String>>);

/// The labeled node and edge types the generator's ground truth holds.
fn truth_inventory() -> Inventory {
    let spec = DatasetId::Ldbc.spec();
    let nodes = spec
        .nodes
        .iter()
        .map(|n| {
            let set: BTreeSet<String> = n.labels.iter().cloned().collect();
            set.into_iter().collect()
        })
        .collect();
    let edges = spec.edges.iter().map(|e| vec![e.label.clone()]).collect();
    (nodes, edges)
}

fn inventory(s: &SchemaGraph) -> Inventory {
    let nodes = s
        .node_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect();
    let edges = s
        .edge_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect();
    (nodes, edges)
}

pub fn run(p: &Params) -> Outcome {
    let path = p.work_dir.join("ldbc.pgt");
    // Every repetition writes the same bytes to the file the passes read.
    let mut make = || {
        let d = gen::ldbc(p.size.ldbc_scale, p.seed);
        std::fs::write(&path, save_text(&d.graph)).expect("write the generated .pgt");
        d
    };
    let (data, mut setup) = SetupTimer::start(&p.size, &mut make);
    let d = engine::discoverer();
    let truth = truth_inventory();
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(p.seconds);
    let mut reference: Option<String> = None;
    let mut check_pass = |out: &mut Outcome, pass: &StreamPass| {
        let first = reference.get_or_insert_with(|| pass.text.clone());
        let same = *first == pass.text;
        let inv = inventory(&pass.schema) == truth;
        out.check(same && inv, || {
            format!("ldbc-stream pass: text identical {same}, inventory matches truth {inv}")
        });
    };

    if p.trace {
        traced(p, &d, &path, &mut out, &mut check_pass, budget);
        return out;
    }

    // The pass throughput moves with the host by more than its bound from
    // one set of runs to another, so it is a per-layer metric of the traced
    // run. Here the passes run the output checks for the whole budget, and
    // the set-up repetitions between them sample the whole run.
    let started = Instant::now();
    let mut passes = 0;
    while keep_going(passes, p.size.min_passes, started, budget) {
        let pass = engine::stream_pass(&d, &path);
        check_pass(&mut out, &pass);
        passes += 1;
        setup.between_passes(&mut make);
    }

    out.push("setup_s", setup.median(), "s");
    let truth = &data.truth;
    out.push_f1(&[f1_scores(
        &d,
        &data.graph,
        &truth.node_types,
        &truth.edge_types,
    )]);
    out.push_success_ratio();
    out
}

type PgtReader = pg_hive_graph::ChunkedTextReader<
    pg_hive_graph::stream::pgt::PgtSource<std::io::BufReader<std::fs::File>>,
>;

/// One traced replay of a stream pass: `(schema text, reader, seconds)`.
fn replay_pass(
    replay: &Replay,
    d: &pg_hive_core::Discoverer,
    path: &std::path::Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (String, PgtReader, f64) {
    let t = Instant::now();
    let root = tr.begin("pass");
    let mut reader = engine::pgt_reader(path, engine::CHUNK_SIZE);
    let mut state = SchemaState::new(d.config().theta);
    while let Some(chunk) = tr.span("stream.read", || {
        reader.next_chunk().expect("parse generated .pgt")
    }) {
        replay.chunk(&chunk, &mut state, None, tr, counts);
    }
    let schema = tr.span("state.finalize", || state.finalize());
    let text = tr.span("serialize", || engine::strict(&schema));
    tr.end(root);
    (text, reader, t.elapsed().as_secs_f64())
}

/// Alternate untraced engine passes with traced replays of the same pass;
/// each replay must produce the engine's exact schema text.
fn traced(
    p: &Params,
    d: &pg_hive_core::Discoverer,
    path: &std::path::Path,
    out: &mut Outcome,
    check_pass: &mut impl FnMut(&mut Outcome, &StreamPass),
    budget: Duration,
) {
    let replay = Replay::new(d.config());
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut elements = 0;
    let mut peak = 0;
    let mut last = None;
    let started = Instant::now();
    while keep_going(traced.len(), p.size.min_passes, started, budget) {
        // Alternate which of the pair runs first, so neither is favoured.
        let i = traced.len();
        tr.set_op(i as u64);
        let mut replayed = None;
        if i % 2 == 1 {
            replayed = Some(replay_pass(&replay, d, path, &mut tr, &mut counts));
        }
        let t = Instant::now();
        let pass = engine::stream_pass(d, path);
        plain.push(t.elapsed().as_secs_f64());
        elements = pass.elements;
        peak = peak.max(pass.max_resident);
        check_pass(out, &pass);
        let (text, reader, secs) =
            replayed.unwrap_or_else(|| replay_pass(&replay, d, path, &mut tr, &mut counts));
        traced.push(secs);
        out.check(text == pass.text, || {
            "ldbc-stream: traced replay differs from the engine's schema".into()
        });
        last = Some(reader);
    }
    let reader = last.expect("at least one traced pass");
    write_trace(p, "ldbc-stream", &tr);

    let passes = traced.len() as f64;
    let median = |v: &[f64]| stats::median(v).expect("at least one pass");
    out.push(
        "stream_elements_per_s",
        elements as f64 / median(&plain),
        "1/s",
    );
    let totals = layer_totals(tr.spans());
    let own = |name: &str| totals.get(name).map_or(0, |t| t.2) as f64;
    let n = counts;
    out.push(
        "stream.read_ns_per_element",
        own("stream.read") / n.elements as f64,
        "ns",
    );
    out.push("peak_resident_elements", peak as f64, "count");
    out.push("stream.chunks", reader.chunks_emitted() as f64, "count");
    out.push(
        "stream.cross_chunk_edges",
        reader.warnings().cross_chunk_edges as f64,
        "count",
    );
    out.push(
        "preprocess.repr_ns_per_element",
        own("preprocess.repr") / n.repr_elements as f64,
        "ns",
    );
    out.push(
        "preprocess.dedup_ratio",
        n.repr_elements as f64 / n.signatures as f64,
        "ratio",
    );
    out.push(
        "cluster.ns_per_signature",
        own("cluster") / n.signatures as f64,
        "ns",
    );
    out.push("cluster.clusters", n.clusters as f64 / passes, "count");
    out.push(
        "extract.ns_per_element",
        own("extract") / n.elements as f64,
        "ns",
    );
    out.push(
        "state.postprocess_ns_per_element",
        own("state.postprocess") / n.elements as f64,
        "ns",
    );
    out.push(
        "state.merge_us_per_chunk",
        own("state.merge") / n.chunks as f64 / 1e3,
        "us",
    );
    out.push(
        "state.finalize_ms",
        own("state.finalize") / passes / 1e6,
        "ms",
    );
    out.push(
        "trace.stage_sum_over_wall",
        stage_sum_over_wall(tr.spans()),
        "ratio",
    );
    out.push(
        "trace.overhead_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
}
