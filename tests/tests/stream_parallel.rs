//! The determinism contract of the pipeline-parallel streaming engine:
//! `Discoverer::discover_stream` with a worker pool must be
//! **byte-identical** to its serial run — same serialized schema, same element totals,
//! same chunk count, same ingestion warnings — for every thread count and
//! every wire format. This is the CI gate behind `BENCH_stream.json`'s
//! parallel run.

use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv, CsvSource};
use pg_hive_graph::stream::jsonl::{save_jsonl, JsonlSource};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{
    ChunkedTextReader, GraphBuilder, PropertyGraph, RawGraphSource, ReadAheadChunks,
    StreamWarnings, Value,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Random small graphs mixing labeled/unlabeled nodes, several node and
/// edge types, optional properties — enough variety to produce multi-chunk
/// streams with cross-chunk edges in every format.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..4,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 3),
    );
    (
        proptest::collection::vec(node, 1..30),
        proptest::collection::vec((0u8..30, 0u8..30, 0u8..3), 0..25),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if *labeled { vec![&label] } else { vec![] };
                let keys = ["alpha", "beta", "gamma"];
                let values = [
                    Value::Int(7),
                    Value::from("s, \"q\"=x %"),
                    Value::Float(0.5),
                ];
                let props: Vec<(&str, Value)> = keys
                    .iter()
                    .zip(key_mask)
                    .enumerate()
                    .filter(|(_, (_, &m))| m)
                    .map(|(i, (k, _))| (*k, values[i].clone()))
                    .collect();
                ids.push(b.add_node(&labels, &props));
            }
            for (s, t, e) in &edges {
                let si = *s as usize % ids.len();
                let ti = *t as usize % ids.len();
                let label = format!("E{e}");
                b.add_edge(ids[si], ids[ti], &[&label], &[("w", Value::Int(*e as i64))]);
            }
            b.finish()
        })
}

/// Everything the streaming engine is accountable for, reduced to bytes:
/// the strict PG-Schema text (types, properties, constraints, datatypes,
/// cardinalities), the element total, and the chunk count.
fn run_digest(result: &pg_hive_core::StreamResult) -> (String, u64, usize) {
    (
        pg_hive_core::serialize::pg_schema_strict(&result.schema, "P"),
        result.elements,
        result.chunk_times.len(),
    )
}

/// Collect a chunk stream from a source, returning chunks + final warnings.
fn chunks_of<S: RawGraphSource>(
    source: S,
    chunk_size: usize,
) -> (Vec<PropertyGraph>, StreamWarnings) {
    let mut r = ChunkedTextReader::new(source, chunk_size);
    let mut out = Vec::new();
    while let Some(c) = r.next_chunk().expect("chunking generated text") {
        out.push(c);
    }
    (out, r.warnings())
}

/// Serial vs parallel digests for one format's chunk stream, across thread
/// counts 1–4. `make_chunks` is called fresh per run so each run consumes
/// its own stream.
fn assert_parallel_equals_serial(
    format: &str,
    make_chunks: &dyn Fn() -> (Vec<PropertyGraph>, StreamWarnings),
) -> Result<(), TestCaseError> {
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let (chunks, serial_warnings) = make_chunks();
    let serial = run_digest(&d.discover_stream(chunks, 1));
    for threads in 1..=4usize {
        let (chunks, warnings) = make_chunks();
        prop_assert_eq!(
            warnings,
            serial_warnings,
            "{} ingestion warnings must not depend on the run",
            format
        );
        let par = run_digest(&d.discover_stream(chunks, threads));
        prop_assert_eq!(
            &par,
            &serial,
            "{} with {} threads diverged from serial",
            format,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel streaming discovery == serial streaming discovery,
    /// byte-for-byte, across thread counts 1–4 and all three wire formats.
    #[test]
    fn parallel_equals_serial_across_threads_and_formats(g in arb_graph(), chunk in 3usize..12) {
        let pgt = save_text(&g);
        assert_parallel_equals_serial("pgt", &|| {
            chunks_of(PgtSource::new(pgt.as_bytes()), chunk)
        })?;

        let nodes_csv = save_nodes_csv(&g);
        let edges_csv = save_edges_csv(&g);
        assert_parallel_equals_serial("csv", &|| {
            chunks_of(
                CsvSource::new(nodes_csv.as_bytes(), Some(edges_csv.as_bytes())),
                chunk,
            )
        })?;

        let jsonl = save_jsonl(&g);
        assert_parallel_equals_serial("jsonl", &|| {
            chunks_of(JsonlSource::new(jsonl.as_bytes()), chunk)
        })?;
    }

    /// The full engine — read-ahead producer feeding the worker pool — is
    /// also byte-identical to the plain serial path, and the producer's
    /// summary matches direct chunking.
    #[test]
    fn read_ahead_plus_workers_equals_serial(g in arb_graph(), chunk in 3usize..12) {
        let pgt = save_text(&g);
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let (chunks, direct_warnings) = chunks_of(PgtSource::new(pgt.as_bytes()), chunk);
        let direct_count = chunks.len();
        let serial = run_digest(&d.discover_stream(chunks, 1));
        for (threads, depth) in [(2usize, 1usize), (3, 4)] {
            let source = PgtSource::new(std::io::Cursor::new(pgt.clone().into_bytes()));
            let mut ahead = ReadAheadChunks::spawn(source, chunk, depth);
            let mut err = None;
            let result = d.discover_stream(
                std::iter::from_fn(|| match ahead.next_chunk() {
                    Ok(c) => c,
                    Err(e) => { err = Some(e); None }
                }),
                threads,
            );
            prop_assert!(err.is_none(), "stream error: {:?}", err);
            let summary = *ahead.summary().expect("summary after exhaustion");
            prop_assert_eq!(summary.warnings, direct_warnings);
            prop_assert_eq!(summary.chunks, direct_count);
            prop_assert_eq!(&run_digest(&result), &serial);
        }
    }
}
