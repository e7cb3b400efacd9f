//! The traced stream replay: one chunk's pipeline pass rebuilt from the
//! layers' public functions, with a span around each call. It must
//! finalize byte-identically to the untraced engine, which every traced
//! pass checks.

use crate::trace::Tracer;
use pg_hive_core::cluster::cluster_elements;
use pg_hive_core::extract::{candidate_edge_types, candidate_node_types};
use pg_hive_core::preprocess::{edge_representations, node_representations, signature_scan};
use pg_hive_core::{CachedChunk, EmbeddingStrategy, PipelineConfig, SchemaState, SignatureCache};
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::{GraphBatch, PropertyGraph};
use pg_hive_lsh::ElementClass;

/// Counts gathered at the same boundaries as the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub chunks: u64,
    pub elements: u64,
    /// Distinct signatures (nodes + edges) of chunks that ran the
    /// representation stage.
    pub signatures: u64,
    /// Elements of chunks that ran the representation stage.
    pub repr_elements: u64,
    /// Elements of chunks that ran the signature scan.
    pub scan_elements: u64,
    pub clusters: u64,
    pub lookups: u64,
    pub hits: u64,
}

/// The replay of the engine's per-chunk pass for one configuration.
pub struct Replay {
    config: PipelineConfig,
    embedder: HashEmbedder,
}

impl Replay {
    /// # Panics
    /// When the configuration does not use the batch-independent hash
    /// embedding the streaming engine shares across chunks.
    pub fn new(config: &PipelineConfig) -> Self {
        assert!(
            matches!(config.embedding, EmbeddingStrategy::Hash) && config.dedup,
            "the replay mirrors the hash-embedding, dedup streaming path"
        );
        Replay {
            config: config.clone(),
            embedder: HashEmbedder::new(config.embedding_dim, config.seed),
        }
    }

    /// Fold one chunk into `state`, as `absorb_stream[_cached]` does with
    /// one worker.
    pub fn chunk(
        &self,
        g: &PropertyGraph,
        state: &mut SchemaState,
        cache: Option<&SignatureCache>,
        tr: &mut Tracer,
        n: &mut Counts,
    ) {
        let chunk_span = tr.begin("chunk");
        // Stub endpoints only carry cross-chunk edges' endpoint labels; the
        // declaring chunk counts the real node.
        let batch = GraphBatch {
            nodes: g
                .nodes()
                .filter(|&(id, _)| !g.is_stub(id))
                .map(|(id, _)| id)
                .collect(),
            edges: g.edges().map(|(id, _)| id).collect(),
        };
        let elements = (g.node_count() + g.edge_count()) as u64;
        n.chunks += 1;
        n.elements += elements;

        let scan = cache.map(|_| {
            n.scan_elements += elements;
            tr.span("preprocess.scan", || signature_scan(g, &batch))
        });
        let hit = match (cache, scan.as_ref()) {
            (Some(cache), Some(scan)) => {
                n.lookups += 1;
                tr.span("sigcache.lookup", || {
                    cache.lookup(scan.fingerprint, scan.nodes.distinct, scan.edges.distinct)
                })
            }
            _ => None,
        };
        let (node_c, edge_c) = match (hit, scan.as_ref()) {
            (Some(hit), Some(scan)) => {
                n.hits += 1;
                tr.span("sigcache.broadcast", || {
                    (
                        hit.nodes.broadcast(&scan.nodes.rep_of),
                        hit.edges.broadcast(&scan.edges.rep_of),
                    )
                })
            }
            _ => {
                let w = self.config.label_weight;
                let (nodes, edges) = tr.span("preprocess.repr", || {
                    (
                        node_representations(g, &batch.nodes, &self.embedder, w),
                        edge_representations(g, &batch.edges, &self.embedder, w),
                    )
                });
                n.repr_elements += elements;
                n.signatures += (nodes.repr.distinct() + edges.repr.distinct()) as u64;
                let (node_out, edge_out) = tr.span("cluster", || {
                    (
                        cluster_elements(&nodes.repr, ElementClass::Nodes, &self.config),
                        cluster_elements(&edges.repr, ElementClass::Edges, &self.config),
                    )
                });
                if let (Some(cache), Some(scan)) = (cache, scan.as_ref()) {
                    if let (Some(nodes), Some(edges)) =
                        (node_out.distinct.clone(), edge_out.distinct.clone())
                    {
                        tr.span("sigcache.insert", || {
                            cache.insert(scan.fingerprint, CachedChunk { nodes, edges })
                        });
                    }
                }
                (node_out.clustering, edge_out.clustering)
            }
        };
        n.clusters += (node_c.num_clusters + edge_c.num_clusters) as u64;

        let mut chunk_state = SchemaState::new(self.config.theta);
        tr.span("extract", || {
            chunk_state.absorb_node_candidates(candidate_node_types(g, &batch.nodes, &node_c));
            chunk_state.absorb_edge_candidates(candidate_edge_types(g, &batch.edges, &edge_c));
        });
        tr.span("state.postprocess", || {
            chunk_state.postprocess(g, self.config.datatype_sampling.as_ref());
            chunk_state.clear_members();
        });
        tr.span("state.merge", || state.merge(chunk_state));
        tr.end(chunk_span);
    }
}
