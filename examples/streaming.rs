//! Streaming ingestion end to end: export a graph as CSV, read it back in
//! small chunks with O(chunk) resident memory, and merge the per-chunk
//! schemas (§4.6 — "process large datasets on machines with limited
//! memory").
//!
//! Run with: `cargo run --example streaming`

use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_datasets::{export_graph, DatasetId, ExportFormat};
use pg_hive_graph::stream::csv::CsvSource;
use pg_hive_graph::ChunkedTextReader;

fn main() {
    // A small POLE-shaped graph (persons, objects, locations, events).
    let dataset = DatasetId::Pole.generate(0.05, 42);
    let graph = &dataset.graph;
    println!(
        "generated {} nodes / {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Export it as nodes.csv + edges.csv, the flat shape most systems dump.
    let dir =
        std::env::temp_dir().join(format!("pg-hive-streaming-example-{}", std::process::id()));
    let csv_dir = export_graph(graph, &dir, "pole", ExportFormat::Csv).expect("write CSV dataset");
    println!("exported to {}", csv_dir.display());

    // Stream it back in ~50-element chunks. Each chunk is an independent
    // PropertyGraph (own interners, own ids) that is dropped right after
    // the pipeline processes it; edges crossing a chunk boundary keep
    // their endpoint label sets through the reader's id -> labels registry.
    let source = CsvSource::open_dir(&csv_dir).expect("open CSV dataset");
    let mut reader = ChunkedTextReader::new(source, 50);
    let discoverer = Discoverer::new(PipelineConfig::elsh_adaptive());
    let result = discoverer.discover_stream(
        std::iter::from_fn(|| reader.next_chunk().expect("read chunk")),
        1,
    );

    println!(
        "streamed {} elements in {} chunks, peak resident {} elements",
        result.elements,
        result.chunk_times.len(),
        reader.max_resident_elements()
    );
    let w = reader.warnings();
    if !w.is_empty() {
        println!(
            "ingestion warnings: {} cross-chunk edges (stub endpoints), {} dangling",
            w.cross_chunk_edges, w.unresolved_edges
        );
    }
    println!("merged schema:");
    for t in &result.schema.node_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!(
            "  node {{{}}} x{} ({} props)",
            labels.join(","),
            t.instance_count,
            t.props.len()
        );
    }
    for t in &result.schema.edge_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!("  edge {{{}}} x{}", labels.join(","), t.instance_count);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
