//! Tests of the true-streaming API: independent chunks with their own
//! interners, dropped after processing.

use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_datasets::DatasetId;
use pg_hive_graph::{GraphBuilder, PropertyGraph, Value, ValueKind};

fn person_chunk(offset: i64, with_email: bool) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let mut people = Vec::new();
    for i in 0..10 {
        let mut props = vec![("name", Value::from("p")), ("age", Value::Int(offset + i))];
        if with_email {
            props.push(("email", Value::from("e")));
        }
        people.push(b.add_node(&["Person"], &props));
    }
    let org = b.add_node(&["Org"], &[("url", Value::from("u"))]);
    for p in &people {
        b.add_edge(*p, org, &["WORKS_AT"], &[("from", Value::Int(2000))]);
    }
    b.finish()
}

#[test]
fn stream_merges_chunk_schemas() {
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let r = d.discover_stream([person_chunk(0, true), person_chunk(100, false)], 1);
    assert_eq!(r.chunk_times.len(), 2);
    assert_eq!(r.elements, 2 * (11 + 10));
    let person = r
        .schema
        .node_type_by_labels(&pg_hive_core::label_set(&["Person"]))
        .expect("Person type");
    let t = &r.schema.node_types[person];
    assert_eq!(t.instance_count, 20);
    // email appears only in chunk 1 → optional; name/age everywhere →
    // mandatory. Counts accumulated across chunks.
    assert!(t.props["name"].is_mandatory(t.instance_count));
    assert!(!t.props["email"].is_mandatory(t.instance_count));
    assert_eq!(t.props["email"].occurrences, 10);
    // Members are stripped (the chunks are gone).
    assert!(t.members.is_empty());
}

#[test]
fn stream_joins_datatypes_across_chunks() {
    // Chunk 1 has integer 'score', chunk 2 has float 'score' for the same
    // type: the merged kind must be the join (Float).
    let mut b = GraphBuilder::new();
    b.add_node(&["T"], &[("score", Value::Int(1))]);
    let c1 = b.finish();
    let mut b = GraphBuilder::new();
    b.add_node(&["T"], &[("score", Value::Float(1.5))]);
    let c2 = b.finish();
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let r = d.discover_stream([c1, c2], 1);
    let t = &r.schema.node_types[0];
    assert_eq!(t.props["score"].kind, Some(ValueKind::Float));
}

#[test]
fn stream_cardinality_takes_maxima() {
    // Chunk 1: one person per org (max_in 1); chunk 2: three per org.
    let mut b = GraphBuilder::new();
    let p = b.add_node(&["Person"], &[("name", Value::from("a"))]);
    let o = b.add_node(&["Org"], &[("url", Value::from("u"))]);
    b.add_edge(p, o, &["WORKS_AT"], &[]);
    let c1 = b.finish();
    let c2 = person_chunk(0, false); // 10 people → 1 org
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let r = d.discover_stream([c1, c2], 1);
    let works = r
        .schema
        .edge_type_by_labels(&pg_hive_core::label_set(&["WORKS_AT"]))
        .unwrap();
    let card = r.schema.edge_types[works].cardinality.unwrap();
    assert_eq!(card.max_in, 10, "maximum across chunks");
}

#[test]
fn stream_matches_resident_discovery_on_split_dataset() {
    // Split a generated dataset into two resident halves, re-build each as
    // an independent graph, and compare the streamed type inventory with
    // the single-graph run.
    let full = DatasetId::Pole.generate(0.05, 61);
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let resident = d.discover(&full.graph);

    // Rebuild two chunks through the text round trip (fresh interners).
    let text = pg_hive_graph::loader::save_text(&full.graph);
    let lines: Vec<&str> = text.lines().collect();
    let nodes: Vec<&str> = lines
        .iter()
        .filter(|l| l.starts_with('N'))
        .copied()
        .collect();
    let edges: Vec<&str> = lines
        .iter()
        .filter(|l| l.starts_with('E'))
        .copied()
        .collect();
    // All nodes in both chunks (edges need endpoints); split the edges.
    let half = edges.len() / 2;
    let chunk = |es: &[&str]| {
        let mut t = nodes.join("\n");
        t.push('\n');
        t.push_str(&es.join("\n"));
        pg_hive_graph::loader::load_text(&t).unwrap()
    };
    let c1 = chunk(&edges[..half]);
    let c2 = chunk(&edges[half..]);
    let streamed = d.discover_stream([c1, c2], 1);

    let mut a: Vec<_> = resident
        .schema
        .edge_types
        .iter()
        .map(|t| t.labels.clone())
        .collect();
    let mut b: Vec<_> = streamed
        .schema
        .edge_types
        .iter()
        .map(|t| t.labels.clone())
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "same edge-type inventory");
}

#[test]
fn empty_stream_gives_empty_schema() {
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let r = d.discover_stream(std::iter::empty::<PropertyGraph>(), 1);
    assert!(r.schema.node_types.is_empty());
    assert_eq!(r.elements, 0);
}
