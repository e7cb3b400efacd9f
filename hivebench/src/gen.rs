//! Seeded input generators. The benchmark's seed picks the inputs; the
//! program only ever sees the generated graphs and bodies.

use pg_hive_datasets::{Dataset, DatasetId};
use pg_hive_graph::{GraphBuilder, PropertyGraph, Symbol, Value};
use std::collections::HashMap;

/// SplitMix64: a tiny seeded stream for workload decisions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The paper's LDBC dataset at `scale` × (6.4k nodes, 25k edges).
pub fn ldbc(scale: f64, seed: u64) -> Dataset {
    DatasetId::Ldbc.generate(scale, seed)
}

/// Labels in the signature-diverse chunks.
pub const DIVERSE_LABELS: u64 = 50;
/// Optional property keys per node in the signature-diverse chunks.
pub const DIVERSE_KEYS: usize = 8;

/// One signature-diverse chunk: `nodes` nodes, each with one of
/// [`DIVERSE_LABELS`] labels and a random subset of [`DIVERSE_KEYS`]
/// optional keys, plus `nodes / 2` edges with one of half as many labels
/// between random endpoints. Every element is labeled.
///
/// With 2000 nodes a chunk holds about 1850 distinct node signatures and
/// 990 distinct edge signatures: thousands per chunk.
pub fn diverse_chunk(rng: &mut Rng, nodes: usize) -> PropertyGraph {
    let keys: Vec<String> = (0..DIVERSE_KEYS).map(|i| format!("k{i}")).collect();
    let mut b = GraphBuilder::new();
    let mut ids = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let label = format!("T{}", rng.below(DIVERSE_LABELS));
        let mask = rng.next_u64();
        let props: Vec<(&str, Value)> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, k)| (k.as_str(), Value::Int(rng.below(1000) as i64)))
            .collect();
        ids.push(b.add_node(&[label.as_str()], &props));
    }
    for i in 0..nodes / 2 {
        let src = ids[rng.below(ids.len() as u64) as usize];
        let tgt = ids[rng.below(ids.len() as u64) as usize];
        let label = format!("E{}", rng.below(DIVERSE_LABELS / 2));
        b.add_edge(src, tgt, &[label.as_str()], &[("w", Value::Int(i as i64))]);
    }
    b.finish()
}

/// The ground truth of a fully labeled graph: one type index per node and
/// per edge, the type being the element's label set. The signature-diverse
/// chunks are generated this way, one label per element.
pub fn label_truth(g: &PropertyGraph) -> (Vec<u32>, Vec<u32>) {
    fn index<'a>(types: &mut HashMap<&'a [Symbol], u32>, labels: &'a [Symbol]) -> u32 {
        let next = types.len() as u32;
        *types.entry(labels).or_insert(next)
    }
    let mut node_types = HashMap::new();
    let nodes = g
        .nodes()
        .map(|(_, n)| index(&mut node_types, &n.labels))
        .collect();
    let mut edge_types = HashMap::new();
    let edges = g
        .edges()
        .map(|(_, e)| index(&mut edge_types, &e.labels))
        .collect();
    (nodes, edges)
}
