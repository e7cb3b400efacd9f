//! The thin adapter: the few engine entry points the untraced workloads
//! drive. Every untraced call into the discovery engine and the server
//! goes through here, so an engine API change touches this file only.

use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::{
    Discoverer, PipelineConfig, RunningServer, SchemaGraph, SchemaState, ServeCore, ServeOptions,
    SignatureCache,
};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{ChunkedTextReader, PropertyGraph};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One worker thread for every engine call: the benchmark measures the
/// engine, not the host's scheduling of a pool on shared cores.
pub const THREADS: usize = 1;

/// Elements per streamed chunk: the CLI's and the server's default.
pub const CHUNK_SIZE: usize = pg_hive_core::serve::DEFAULT_CHUNK_SIZE;

/// The discoverer every workload runs: the paper's adaptive ELSH defaults,
/// as `pg-hive discover` runs without flags.
pub fn discoverer() -> Discoverer {
    Discoverer::new(PipelineConfig::default())
}

/// The strict PG-Schema text every output check compares.
pub fn strict(schema: &SchemaGraph) -> String {
    pg_schema_strict(schema, "Discovered")
}

/// Open a `.pgt` file as a chunked reader without a read-ahead thread.
pub fn pgt_reader(path: &Path, chunk_size: usize) -> ChunkedTextReader<PgtSource<BufReader<File>>> {
    let file = File::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    ChunkedTextReader::new(
        PgtSource::new(BufReader::with_capacity(1 << 20, file)),
        chunk_size,
    )
}

/// What one cold `discover --stream` pass produced.
pub struct StreamPass {
    pub schema: SchemaGraph,
    pub text: String,
    pub elements: u64,
    pub max_resident: usize,
}

/// One cold `discover --stream` pass over a `.pgt` file: fresh reader,
/// fresh state, absorb, finalize, strict serialization.
pub fn stream_pass(d: &Discoverer, path: &Path) -> StreamPass {
    let mut reader = pgt_reader(path, CHUNK_SIZE);
    let mut state = d.new_state();
    let report = d.absorb_stream(
        std::iter::from_fn(|| reader.next_chunk().expect("parse generated .pgt")),
        &mut state,
        THREADS,
    );
    let schema = state.finalize();
    let text = strict(&schema);
    StreamPass {
        schema,
        text,
        elements: report.elements,
        max_resident: reader.max_resident_elements(),
    }
}

/// Absorb in-memory chunks into `state`, through `cache` when given.
/// Returns the elements absorbed.
pub fn absorb(
    d: &Discoverer,
    chunks: Vec<PropertyGraph>,
    state: &mut SchemaState,
    cache: Option<&SignatureCache>,
) -> u64 {
    match cache {
        Some(c) => d.absorb_stream_cached(chunks, state, THREADS, c).elements,
        None => d.absorb_stream(chunks, state, THREADS).elements,
    }
}

/// A server core with its default options, checkpointing into `state_dir`
/// when given (and resuming every tenant found there).
pub fn serve_core(state_dir: Option<PathBuf>) -> Result<ServeCore, String> {
    ServeCore::new(
        discoverer(),
        ServeOptions {
            state_dir,
            ..ServeOptions::default()
        },
    )
}

/// Serve `core` on an ephemeral loopback port.
pub fn serve(core: ServeCore) -> RunningServer {
    pg_hive_core::serve::bind("127.0.0.1:0", Arc::new(core)).expect("bind loopback")
}

/// The resident incremental run over `batches` random batches, the run the
/// paper's F1* scores.
pub fn resident_batches(
    d: &Discoverer,
    g: &PropertyGraph,
    batches: usize,
) -> pg_hive_core::DiscoveryResult {
    d.discover_incremental(g, batches)
}
