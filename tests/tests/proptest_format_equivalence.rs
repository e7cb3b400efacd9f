//! Property-based equivalence of the three wire formats: one randomized
//! graph exported as pgt, CSV and JSONL and streamed back through each
//! format's zero-copy `RawGraphSource` must be indistinguishable end to
//! end — byte-identical strict schema text and identical stream warnings —
//! at every chunk size.

use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv, CsvSource};
use pg_hive_graph::stream::jsonl::{save_jsonl, JsonlSource};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{
    ChunkedTextReader, GraphBuilder, PropertyGraph, RawGraphSource, StreamWarnings, Value,
};
use proptest::prelude::*;

/// Randomized graph with up to 5 label templates, optional unlabeled
/// nodes, a mixed-kind value per possible key, and random (possibly
/// dangling-free, possibly parallel) edges.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..5,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 4),
    );
    (
        proptest::collection::vec(node, 1..30),
        proptest::collection::vec((0u8..30, 0u8..30, 0u8..3), 0..30),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if *labeled { vec![&label] } else { vec![] };
                let keys = ["alpha", "beta", "gamma", "delta"];
                let values = [
                    Value::Int(41),
                    Value::from("plain text"),
                    Value::from("2024-05-01"),
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

/// Chunk `src` through the streaming pipeline and render the strict schema
/// text; also return the reader's accumulated warnings.
fn stream_strict<S: RawGraphSource>(src: S, chunk_size: usize) -> (String, StreamWarnings) {
    let d = Discoverer::new(PipelineConfig {
        seed: 7,
        ..PipelineConfig::default()
    });
    let mut reader = ChunkedTextReader::new(src, chunk_size);
    let result = d.discover_stream(std::iter::from_fn(|| reader.next_chunk().unwrap()), 1);
    (pg_schema_strict(&result.schema, "G"), reader.warnings())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every chunk size, streaming the pgt, CSV and JSONL exports of
    /// the same graph must yield the same strict schema text and the same
    /// warning counters. Small chunk sizes force cross-chunk edges and stub
    /// endpoints, so the registry and pending-edge machinery is exercised
    /// behind every parser.
    #[test]
    fn formats_stream_to_identical_schemas(g in arb_graph(), chunk_size in 1usize..24) {
        let pgt = save_text(&g);
        let via_pgt = stream_strict(PgtSource::new(pgt.as_bytes()), chunk_size);

        let nodes_csv = save_nodes_csv(&g);
        let edges_csv = save_edges_csv(&g);
        let via_csv = stream_strict(
            CsvSource::new(nodes_csv.as_bytes(), Some(edges_csv.as_bytes())),
            chunk_size,
        );
        prop_assert_eq!(&via_csv.0, &via_pgt.0, "csv schema text diverged from pgt");
        prop_assert_eq!(via_csv.1, via_pgt.1, "csv warnings diverged from pgt");

        let jsonl = save_jsonl(&g);
        let via_jsonl = stream_strict(JsonlSource::new(jsonl.as_bytes()), chunk_size);
        prop_assert_eq!(&via_jsonl.0, &via_pgt.0, "jsonl schema text diverged from pgt");
        prop_assert_eq!(via_jsonl.1, via_pgt.1, "jsonl warnings diverged from pgt");
    }
}
