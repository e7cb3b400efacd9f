//! `pg-hive` — command-line schema discovery for property graphs.
//!
//! ```text
//! pg-hive discover <input> [--method elsh|minhash] [--theta T]
//!                  [--batches N] [--format strict|loose|xsd|summary]
//!                  [--sample] [--seed S]
//!                  [--input-format pgt|csv|jsonl] [--stream]
//!                  [--chunk-size N] [--threads N] [--read-ahead N]
//!                  [--shards N]
//! pg-hive diff     <old> <new> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N] [--read-ahead N]
//! pg-hive watch    <input> [--interval SECS] [--once] [--method M]
//!                  [--theta T] [--seed S] [--input-format F]
//!                  [--chunk-size N] [--threads N] [--read-ahead N]
//!                  [--keep K] [--partition passes:N]
//! pg-hive merge-state <out> <in>... [--format strict|loose|xsd|summary]
//! pg-hive validate <schema> <input> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N] [--max-violations N]
//!                  [--report jsonl:<path>]
//! pg-hive stats    <input> [--input-format pgt|csv|jsonl] [--stream]
//!                  [--read-ahead N]
//! ```
//!
//! Inputs are read in one of three formats (see [`pg_hive_graph::stream`]):
//! the line-oriented `.pgt` text format of [`pg_hive_graph::loader`], CSV
//! (`<input>` is a directory with `nodes.csv` + optional `edges.csv`), or
//! JSON-Lines (one node/edge object per line).
//!
//! With `--stream`, `discover` runs the pipeline-parallel streaming engine:
//! a dedicated producer thread parses `--read-ahead` chunks ahead
//! ([`pg_hive_graph::stream::ReadAheadChunks`]), a pool of `--threads`
//! workers discovers chunks concurrently, and per-chunk schema states fold
//! into one order-insensitive state (`Discoverer::absorb_stream_cached`,
//! the engine under `Discoverer::discover_stream`) — so resident
//! memory stays O(chunk × in-flight), the output is byte-identical for
//! every thread count, and wall-clock tracks the slower of I/O and compute
//! instead of their sum. Per-chunk progress (with the in-flight bound) goes
//! to stderr; the report includes the peak-resident element count plus
//! counted ingestion warnings (cross-chunk edges, dangling refs).
//!
//! `diff` discovers the schema of two snapshots of a dataset and reports
//! added/removed/changed types — the operational counterpart of the
//! incremental monotone chain (§4.6). `watch` turns that into a
//! long-running drift monitor: a resident canonical
//! [`pg_hive_core::SchemaState`] absorbs only the records appended between
//! passes and each pass's finalized schema is diffed against the previous
//! one (see [`watch`]). With `--state-dir` the monitor is **durable**: the
//! full resumable context is checkpointed atomically after every pass and
//! auto-resumed on restart, and `--on-drift exec:<cmd>` /
//! `--on-drift jsonl:<path>` deliver structured drift events to external
//! sinks (see [`sink`]). `discover --stream` can persist and resume the
//! same engine state with `--save-state` / `--load-state`.
//!
//! With `--stream`, `discover` and `watch` also accept a **directory tree**
//! of mixed-format inputs (`*.pgt`, `*.jsonl`, sub-directories holding
//! `nodes.csv`), enumerated in stable sorted order
//! ([`pg_hive_graph::stream::multi::MultiSource`]). `discover --shards N`
//! partitions the enumerated inputs round-robin across N shard threads and
//! folds their states up a merge tree — byte-identical to the serial run
//! for every shard count (`Discoverer::discover_sharded`). `merge-state`
//! folds independently saved engine states (split `--save-state` runs,
//! rotated watch partitions) into one snapshot, resolving carried
//! cross-input edges against the merged registry. See `docs/CLI.md` for
//! the full flag reference and `docs/PERSISTENCE.md` for the snapshot
//! format, lifecycle, and operations runbook.

#![warn(missing_docs)]

use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::{pg_schema_loose, pg_schema_strict, to_xsd};
use pg_hive_core::sigcache::DEFAULT_CACHE_CAP;
use pg_hive_core::snapshot::{
    context_snapshot_cached, sigcache_from_snapshot, ResumeContext, Snapshot, SnapshotConfig,
};
use pg_hive_core::{
    diff_schemas, CompiledSchema, Discoverer, PipelineConfig, SamplingConfig, SignatureCache,
    StreamResult, Validator, DEFAULT_MAX_EXAMPLES,
};
use pg_hive_graph::loader::load_text;
use pg_hive_graph::stream::{csv::CsvSource, jsonl::JsonlSource, pgt::PgtSource};
use pg_hive_graph::{
    ChunkedTextReader, GraphStats, LabelSetRegistry, MultiSource, PropertyGraph, RawGraphSource,
    ReadAheadChunks, StreamSummary, StreamWarnings,
};
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::ExitCode;

mod args;
mod serve;
mod sink;
mod watch;
use args::{Args, Command, InputFormat, OutputFormat, StreamOpts};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };

    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Open a streaming record source for `path` in the given wire format. The
/// source is `Send` so it can be driven by a read-ahead producer thread.
fn open_source(path: &str, format: InputFormat) -> Result<Box<dyn RawGraphSource + Send>, String> {
    match format {
        InputFormat::Pgt => {
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // A large buffer keeps the line-at-a-time hot loop out of
            // syscalls; 1 MiB is noise next to the resident chunk graphs.
            Ok(Box::new(PgtSource::new(BufReader::with_capacity(
                1 << 20,
                f,
            ))))
        }
        InputFormat::Csv => CsvSource::open_dir(Path::new(path))
            .map(|s| Box::new(s) as Box<dyn RawGraphSource + Send>)
            .map_err(|e| format!("cannot open csv dataset {path}: {e}")),
        InputFormat::Jsonl => {
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(Box::new(JsonlSource::new(BufReader::with_capacity(
                1 << 20,
                f,
            ))))
        }
    }
}

/// Load a whole graph into memory (the non-streaming path).
fn load_graph(path: &str, format: InputFormat) -> Result<PropertyGraph, String> {
    match format {
        InputFormat::Pgt => {
            // Keep the strict loader here: it reports duplicate-id and
            // unknown-node errors with line numbers.
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            load_text(&text).map_err(|e| format!("parse {path}: {e}"))
        }
        _ => {
            let source = open_source(path, format)?;
            let (g, warnings) = pg_hive_graph::stream::read_all(source)
                .map_err(|e| format!("parse {path}: {e}"))?;
            report_warnings(&warnings);
            Ok(g)
        }
    }
}

fn report_warnings(w: &StreamWarnings) {
    if w.is_empty() {
        return;
    }
    eprintln!(
        "warning: {} cross-chunk edge(s) resolved through stubs, {} edge(s) dropped \
         (endpoint never declared; {} evicted from the pending buffer), {} edge(s) \
         arrived before an endpoint, {} duplicate node id(s)",
        w.cross_chunk_edges,
        w.unresolved_edges,
        w.evicted_edges,
        w.deferred_edges,
        w.duplicate_nodes
    );
}

fn print_type_lines(schema: &SchemaGraph) {
    for t in &schema.node_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!(
            "  node {{{}}} x{} ({} props)",
            labels.join(","),
            t.instance_count,
            t.props.len()
        );
    }
    for t in &schema.edge_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!(
            "  edge {{{}}} x{} ({} endpoint pairs)",
            labels.join(","),
            t.instance_count,
            t.endpoints.len()
        );
    }
}

/// The named error `diff` and `watch` raise instead of treating an empty
/// (or CSV header-only) input as a legitimate empty schema.
fn empty_input_error(path: &str) -> String {
    format!("empty input: {path} contains no graph elements (nodes or edges)")
}

/// Effective worker count: the `--threads` value, or every available core.
fn resolve_threads(opts: &StreamOpts) -> usize {
    opts.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn run(args: Args) -> Result<ExitCode, String> {
    match args.command {
        Command::Discover {
            path,
            method,
            theta,
            batches,
            format,
            sample,
            seed,
            stream,
            shards,
            save_state,
            load_state,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                datatype_sampling: sample.then(SamplingConfig::default),
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);

            if stream.stream {
                if shards > 1 || is_multi_input(&path, stream.input_format) {
                    return discover_multi(
                        &path,
                        &stream,
                        &discoverer,
                        format,
                        shards,
                        save_state.as_deref(),
                        load_state.as_deref(),
                    );
                }
                if save_state.is_some() || load_state.is_some() {
                    return discover_stream_stateful(
                        &path,
                        &stream,
                        &discoverer,
                        format,
                        save_state.as_deref(),
                        load_state.as_deref(),
                    );
                }
                return discover_stream(&path, &stream, &discoverer, format);
            }
            if is_multi_input(&path, stream.input_format) {
                return Err(format!(
                    "{path} is a directory of inputs — multi-source discovery requires \
                     --stream (add --shards N to parallelize across inputs)"
                ));
            }

            let graph = load_graph(&path, stream.input_format)?;
            let result = if batches > 1 {
                discoverer.discover_incremental(&graph, batches)
            } else {
                discoverer.discover(&graph)
            };
            match format {
                OutputFormat::Strict => {
                    print!("{}", pg_schema_strict(&result.schema, "Discovered"))
                }
                OutputFormat::Loose => print!("{}", pg_schema_loose(&result.schema, "Discovered")),
                OutputFormat::Xsd => print!("{}", to_xsd(&result.schema)),
                OutputFormat::Summary => {
                    println!(
                        "{} nodes, {} edges -> {} node types, {} edge types \
                         ({} abstract), discovery {:.3}s",
                        graph.node_count(),
                        graph.edge_count(),
                        result.schema.node_types.len(),
                        result.schema.edge_types.len(),
                        result
                            .schema
                            .node_types
                            .iter()
                            .filter(|t| t.is_abstract())
                            .count(),
                        result.stats.timings.discovery().as_secs_f64()
                    );
                    print_type_lines(&result.schema);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Diff {
            old_path,
            new_path,
            method,
            theta,
            seed,
            stream,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let schema_of = |p: &str| -> Result<SchemaGraph, String> {
                if stream.stream {
                    let (result, summary) = stream_discover(p, &stream, &discoverer, false)?;
                    // Streamed ingestion tolerates conditions the strict
                    // loader rejects (dangling refs become stubs) — the
                    // diff is only trustworthy if the user sees them.
                    if !summary.warnings.is_empty() {
                        eprintln!("warning: while streaming {p}:");
                        report_warnings(&summary.warnings);
                    }
                    if result.elements == 0 {
                        return Err(empty_input_error(p));
                    }
                    Ok(result.schema)
                } else {
                    let g = load_graph(p, stream.input_format)?;
                    if g.node_count() + g.edge_count() == 0 {
                        return Err(empty_input_error(p));
                    }
                    Ok(discoverer.discover(&g).schema)
                }
            };
            let old = schema_of(&old_path)?;
            let new = schema_of(&new_path)?;
            let diff = diff_schemas(&old, &new);
            if diff.is_empty() {
                println!(
                    "no schema changes: {} node type(s), {} edge type(s)",
                    new.node_types.len(),
                    new.edge_types.len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                print!("{diff}");
                println!(
                    "schema changed ({}): {} -> {} node type(s), {} -> {} edge type(s)",
                    if diff.is_monotone() {
                        "monotone: additions/relaxations only"
                    } else {
                        "NON-monotone: contains removals or tightenings"
                    },
                    old.node_types.len(),
                    new.node_types.len(),
                    old.edge_types.len(),
                    new.edge_types.len()
                );
                Ok(ExitCode::FAILURE)
            }
        }
        Command::Watch {
            path,
            method,
            theta,
            seed,
            interval_secs,
            once,
            stream,
            state_dir,
            keep,
            partition_passes,
            on_drift,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let sinks: Vec<sink::DriftSink> =
                on_drift.iter().map(sink::DriftSink::from_spec).collect();
            watch::run_watch(
                &path,
                &stream,
                &discoverer,
                std::time::Duration::from_secs(interval_secs),
                once,
                state_dir.as_deref(),
                keep,
                partition_passes,
                &sinks,
            )
        }
        Command::MergeState {
            out,
            inputs,
            format,
        } => merge_state(&out, &inputs, format),
        Command::Validate {
            schema_path,
            input_path,
            method,
            theta,
            seed,
            stream,
            max_violations,
            report,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let schema = load_validation_schema(&schema_path, &stream, &discoverer)?;
            let compiled = CompiledSchema::compile(&schema);
            eprintln!(
                "validating {input_path} against {} node type(s) / {} edge type(s)",
                compiled.node_type_count(),
                compiled.edge_type_count()
            );
            run_validation(
                &compiled,
                &input_path,
                &stream,
                max_violations,
                report.as_deref(),
            )
        }
        Command::Stats { path, stream } => {
            let s = if stream.stream {
                // Fold records directly on this thread — no resident graph
                // and no producer thread, so --chunk-size, --threads and
                // --read-ahead are accepted for flag symmetry but unused.
                if stream.threads.is_some_and(|t| t > 1) {
                    eprintln!(
                        "note: stats folds a single record stream; --threads and \
                         --read-ahead have no effect"
                    );
                }
                let source = open_source(&path, stream.input_format)?;
                let (s, dangling) = pg_hive_graph::stats::stream_stats(source)
                    .map_err(|e| format!("parse {path}: {e}"))?;
                if dangling > 0 {
                    eprintln!(
                        "warning: {dangling} edge(s) reference node ids never declared; \
                         their patterns count unlabeled endpoints"
                    );
                }
                s
            } else {
                GraphStats::compute(&load_graph(&path, stream.input_format)?)
            };
            println!("nodes:          {}", s.nodes);
            println!("edges:          {}", s.edges);
            println!("node labels:    {}", s.node_labels);
            println!("edge labels:    {}", s.edge_labels);
            println!("node label sets:{}", s.node_label_sets);
            println!("node patterns:  {}", s.node_patterns);
            println!("edge patterns:  {}", s.edge_patterns);
            Ok(ExitCode::SUCCESS)
        }
        Command::Serve {
            addr,
            method,
            theta,
            seed,
            chunk_size,
            workers,
            read_timeout_secs,
            max_body_mb,
            state_dir,
            keep,
            on_drift,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            serve::run_serve(
                Discoverer::new(config),
                serve::ServeParams {
                    addr,
                    chunk_size,
                    workers,
                    read_timeout_secs,
                    max_body_mb,
                    state_dir,
                    keep,
                    on_drift,
                },
            )
        }
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Run the pipeline-parallel streaming engine over `path`: read-ahead
/// producer → `--threads` discovery workers → in-order merge. Returns the
/// merged result and the producer's final accounting.
fn stream_discover(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    progress: bool,
) -> Result<(StreamResult, StreamSummary), String> {
    let source = open_source(path, opts.input_format)?;
    let threads = resolve_threads(opts);
    // Upper bound on simultaneously resident chunks: the producer's buffer,
    // one chunk per worker (being processed), one per dispatch-channel slot,
    // plus the one being parsed.
    let in_flight_cap = opts.read_ahead + 2 * threads + 1;
    if progress {
        eprintln!(
            "streaming {path}: {} worker thread(s), read-ahead {} \
             (<= {in_flight_cap} chunks in flight)",
            threads, opts.read_ahead
        );
    }
    let mut reader = ReadAheadChunks::spawn(source, opts.chunk_size, opts.read_ahead);
    let mut stream_err: Option<String> = None;
    let mut chunk_no = 0usize;
    // Run-local signature cache: structurally repeated chunks (steady-shape
    // logs) skip embedding + LSH and broadcast the memoized clustering —
    // byte-identical to the uncached run (proptested in
    // `tests/tests/incremental_equivalence.rs`).
    let cache = SignatureCache::default();
    let mut state = discoverer.new_state();
    let report = discoverer.absorb_stream_cached(
        std::iter::from_fn(|| match reader.next_chunk() {
            Ok(Some(g)) => {
                chunk_no += 1;
                if progress {
                    eprintln!(
                        "chunk {chunk_no}: {} nodes, {} edges dispatched",
                        g.node_count(),
                        g.edge_count()
                    );
                    let _ = std::io::stderr().flush();
                }
                Some(g)
            }
            Ok(None) => None,
            Err(e) => {
                stream_err = Some(e.to_string());
                None
            }
        }),
        &mut state,
        threads,
        &cache,
    );
    if let Some(e) = stream_err {
        return Err(format!("parse {path}: {e}"));
    }
    if progress {
        let stats = cache.stats();
        if stats.hits > 0 {
            eprintln!(
                "signature cache: {} of {} chunk(s) re-used a memoized clustering",
                stats.hits,
                stats.hits + stats.misses
            );
        }
    }
    let result = StreamResult {
        schema: state.finalize(),
        chunk_times: report.chunk_times,
        elements: report.elements,
    };
    let summary = *reader
        .summary()
        .expect("stream exhausted without error: summary available");
    Ok((result, summary))
}

/// Whether `path` names a *tree* of inputs for [`MultiSource`] enumeration
/// rather than one input: any directory, except a CSV dataset directory
/// explicitly requested with `--input-format csv` (that directory IS the
/// single input).
fn is_multi_input(path: &str, format: InputFormat) -> bool {
    let p = Path::new(path);
    p.is_dir() && !(format == InputFormat::Csv && p.join("nodes.csv").is_file())
}

/// Does the file start with the snapshot magic line? Cheap sniff that
/// lets `validate <schema>` accept either a saved snapshot or a reference
/// graph in the same positional argument.
fn file_is_snapshot(p: &Path) -> bool {
    use std::io::BufRead;
    let Ok(f) = std::fs::File::open(p) else {
        return false;
    };
    let mut line = String::new();
    let _ = BufReader::new(f).read_line(&mut line);
    line.starts_with(pg_hive_core::snapshot::MAGIC)
}

/// Obtain the schema `validate` checks against: a saved snapshot
/// (`discover --save-state` or a `watch --state-dir` checkpoint — unlike
/// resuming, validation only needs the accumulated schema, so both kinds
/// are accepted), or any reference input to discover one from
/// (schema-by-example).
fn load_validation_schema(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
) -> Result<SchemaGraph, String> {
    let p = Path::new(path);
    if p.is_file() && file_is_snapshot(p) {
        let ctx = ResumeContext::load(p).map_err(|e| format!("{e} (while loading {path})"))?;
        eprintln!(
            "schema from snapshot {path}: {} pooled type(s){}",
            ctx.state.pooled_types(),
            if ctx.watch.is_some() {
                " (watch checkpoint)"
            } else {
                ""
            }
        );
        return Ok(ctx.state.finalize());
    }
    if is_multi_input(path, opts.input_format) {
        let source =
            MultiSource::enumerate(p).map_err(|e| format!("cannot enumerate {path}: {e}"))?;
        if source.is_empty() {
            return Err(format!(
                "no recognized inputs under {path}: expected *.pgt / *.jsonl files or \
                 directories holding nodes.csv"
            ));
        }
        let threads = resolve_threads(opts);
        let result = discoverer
            .discover_sharded(&source, 1, opts.chunk_size, threads)
            .map_err(|e| format!("parse {path}: {e}"))?;
        report_warnings(&result.warnings);
        return Ok(result.state.finalize());
    }
    let g = load_graph(path, opts.input_format)?;
    if g.node_count() + g.edge_count() == 0 {
        return Err(empty_input_error(path));
    }
    Ok(discoverer.discover(&g).schema)
}

/// A fresh shard validator: unbounded examples when a jsonl report needs
/// every violation, and the early-exit cap when one was requested.
fn fresh_validator<'a>(
    compiled: &'a CompiledSchema,
    keep_all: bool,
    max_violations: Option<u64>,
) -> Validator<'a> {
    let mut v = Validator::new(compiled);
    if keep_all {
        v = v.with_max_examples(usize::MAX);
    }
    if let Some(m) = max_violations {
        v = v.with_max_violations(m);
    }
    v
}

/// Drive the streaming validator over `input_path` — a single file, a CSV
/// dataset directory, or a directory tree of mixed inputs (validated
/// shard-parallel across `--threads`, then merged like sharded discovery).
/// Exit-code symmetry with `diff`: 0 clean, 1 violations.
fn run_validation(
    compiled: &CompiledSchema,
    input_path: &str,
    opts: &StreamOpts,
    max_violations: Option<u64>,
    report_path: Option<&str>,
) -> Result<ExitCode, String> {
    let keep_all = report_path.is_some();
    let report = if is_multi_input(input_path, opts.input_format) {
        let source = MultiSource::enumerate(Path::new(input_path))
            .map_err(|e| format!("cannot enumerate {input_path}: {e}"))?;
        if source.is_empty() {
            return Err(format!(
                "no recognized inputs under {input_path}: expected *.pgt / *.jsonl files or \
                 directories holding nodes.csv"
            ));
        }
        let shards = resolve_threads(opts).min(source.len()).max(1);
        eprintln!(
            "validating {} input(s) under {input_path} across {} shard(s)",
            source.len(),
            shards
        );
        let parts = source.partition(shards);
        let shard_results: Vec<Result<Validator<'_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    scope.spawn(move || -> Result<Validator<'_>, String> {
                        let mut v = fresh_validator(compiled, keep_all, max_violations);
                        for entry in part {
                            let mut src = entry.open().map_err(|e| {
                                format!("cannot open {}: {e}", entry.path.display())
                            })?;
                            let completed = v
                                .validate_source(&mut *src, opts.chunk_size, |_, _| {})
                                .map_err(|e| format!("parse {}: {e}", entry.path.display()))?;
                            if !completed {
                                break; // per-shard early exit on the cap
                            }
                        }
                        Ok(v)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("validator shard thread panicked"))
                .collect()
        });
        let mut merged: Option<Validator<'_>> = None;
        for r in shard_results {
            let v = r?;
            match &mut merged {
                None => merged = Some(v),
                Some(m) => m.merge(v),
            }
        }
        merged.expect("at least one shard").finish()
    } else {
        let progress = opts.stream;
        let mut v = fresh_validator(compiled, keep_all, max_violations);
        let mut src = open_source(input_path, opts.input_format)?;
        let completed = v
            .validate_source(&mut *src, opts.chunk_size, |chunk, elems| {
                if progress {
                    eprintln!("chunk {chunk}: {elems} element(s) validated");
                }
            })
            .map_err(|e| format!("parse {input_path}: {e}"))?;
        if !completed {
            eprintln!("stopped early: --max-violations reached");
        }
        v.finish()
    };

    if let Some(path) = report_path {
        let path = Path::new(path);
        for v in &report.examples {
            sink::append_jsonl(path, &sink::violation_event_json(v))
                .map_err(|e| format!("--report {e}"))?;
        }
        eprintln!(
            "{} violation event(s) appended to {}",
            report.examples.len(),
            path.display()
        );
    }

    if report.is_valid() {
        println!(
            "valid: {} node(s) / {} edge(s) conform",
            report.nodes_checked, report.edges_checked
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "{} violation(s) across {} node(s) / {} edge(s){}:",
            report.total(),
            report.nodes_checked,
            report.edges_checked,
            if report.stopped_early {
                " (stopped early: --max-violations)"
            } else {
                ""
            }
        );
        for (kind, n) in report.by_category() {
            println!("  {n} x {kind}");
        }
        let shown = report.examples.len().min(DEFAULT_MAX_EXAMPLES);
        for v in report.examples.iter().take(DEFAULT_MAX_EXAMPLES) {
            println!("  {v}");
        }
        if report.total() > shown as u64 {
            println!("  ... and {} more", report.total() - shown as u64);
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Load a `discover --save-state` snapshot for resuming, with the config
/// guard and the named refusal of watch checkpoints. Also rebuilds the
/// snapshot's persisted [`SignatureCache`] (cold when the optional
/// `[sigcache]` section is absent) so a resumed stream starts warm.
fn load_discover_state(
    p: &str,
    config: &SnapshotConfig,
) -> Result<(ResumeContext, SignatureCache), String> {
    let load_err = |e: pg_hive_core::snapshot::SnapshotError| format!("{e} (while loading {p})");
    let snap = Snapshot::read(Path::new(p)).map_err(load_err)?;
    let ctx = ResumeContext::from_snapshot(&snap).map_err(load_err)?;
    let cache = sigcache_from_snapshot(&snap, DEFAULT_CACHE_CAP).map_err(load_err)?;
    ctx.config
        .ensure_matches(config)
        .map_err(|e| e.to_string())?;
    // Symmetric to watch refusing discover save-states: a watch
    // checkpoint carries per-file read positions that discover
    // would silently ignore, re-ingesting input the state already
    // contains and double-counting every instance.
    if ctx.watch.is_some() {
        return Err(format!(
            "snapshot: {p} is a `watch --state-dir` checkpoint — its per-file \
             offsets only make sense to `watch`; resume it with `pg-hive watch \
             --state-dir`, or create a discover state with --save-state"
        ));
    }
    eprintln!(
        "resuming from {p}: {} pooled type(s), {} registered id(s), {} carried edge(s)",
        ctx.state.pooled_types(),
        ctx.registry.len(),
        ctx.pending.len()
    );
    Ok((ctx, cache))
}

/// The `discover --stream` path with `--save-state`/`--load-state`: run
/// the streaming engine over a registry-carrying serial reader (the same
/// shape `watch` uses, so the id → label-set registry can be persisted and
/// resumed), optionally seeding from a snapshot and optionally writing one
/// afterwards. Chained invocations — part 1 with `--save-state`, part 2
/// with `--load-state` — finalize byte-identically to a single
/// uninterrupted run over the concatenated input (proptested in
/// `tests/tests/snapshot_resume.rs`). With `--save-state`, edges whose
/// endpoints this input never declared are carried into the snapshot's
/// `[pending]` section instead of being dropped, so a later `--load-state`
/// run or `merge-state` can resolve them against inputs that do.
fn discover_stream_stateful(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    format: OutputFormat,
    save_state: Option<&str>,
    load_state: Option<&str>,
) -> Result<ExitCode, String> {
    let threads = resolve_threads(opts);
    let config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
    let (mut state, registry, mut pending, cache) = match load_state {
        Some(p) => {
            let (ctx, cache) = load_discover_state(p, &config)?;
            (ctx.state, ctx.registry, ctx.pending, cache)
        }
        None => (
            discoverer.new_state(),
            LabelSetRegistry::default(),
            Vec::new(),
            SignatureCache::default(),
        ),
    };
    let source = open_source(path, opts.input_format)?;
    let mut reader = ChunkedTextReader::with_registry(source, opts.chunk_size, registry);
    // When a snapshot will be written, end-of-stream unresolved edges are
    // carried into it (rather than dropped and counted), so split inputs
    // merged later equal the one-shot run.
    reader.set_carry_unresolved(save_state.is_some());
    let mut stream_err: Option<String> = None;
    let report = discoverer.absorb_stream_cached(
        std::iter::from_fn(|| match reader.next_chunk() {
            Ok(c) => c,
            Err(e) => {
                stream_err = Some(e.to_string());
                None
            }
        }),
        &mut state,
        threads,
        &cache,
    );
    if let Some(e) = stream_err {
        return Err(format!("parse {path}: {e}"));
    }
    // Extract carried edges before reading the warning counters, so they
    // are not double-counted as unresolved.
    pending.extend(reader.take_pending());
    let mut warnings = reader.warnings();
    let max_resident = reader.max_resident_elements();
    let registry = reader.into_registry();
    // Edges carried in from the loaded snapshot may resolve against node
    // ids this input declared.
    let (pending, resolved) = discoverer.resolve_pending(&mut state, &registry, pending);
    if save_state.is_none() {
        warnings.unresolved_edges += pending.len() as u64;
    }
    report_warnings(&warnings);
    let result = StreamResult {
        schema: state.finalize(),
        chunk_times: report.chunk_times,
        elements: report.elements + resolved,
    };
    if let Some(p) = save_state {
        let carried = pending.len();
        // Persist the signature cache alongside the engine state (the
        // optional `[sigcache]` section) so a chained `--load-state` run
        // over same-shaped input resumes warm.
        context_snapshot_cached(&config, &state, &registry, None, &pending, Some(&cache))
            .write_atomic(Path::new(p))
            .map_err(|e| e.to_string())?;
        if carried > 0 {
            eprintln!("state saved to {p} ({carried} cross-input edge(s) carried)");
        } else {
            eprintln!("state saved to {p}");
        }
    }

    print_stream_schema(&result, max_resident, threads, format);
    Ok(ExitCode::SUCCESS)
}

/// `discover` over a directory tree of mixed-format inputs: enumerate,
/// partition across `--shards`, fold the per-file states up the merge tree
/// (`Discoverer::discover_sharded`) — byte-identical to the serial
/// single-shard run for every shard count — and optionally persist the
/// merged engine state.
fn discover_multi(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    format: OutputFormat,
    shards: usize,
    save_state: Option<&str>,
    load_state: Option<&str>,
) -> Result<ExitCode, String> {
    let source = MultiSource::enumerate(Path::new(path))
        .map_err(|e| format!("cannot enumerate {path}: {e}"))?;
    if source.is_empty() {
        return Err(format!(
            "no recognized inputs under {path}: expected *.pgt / *.jsonl files or \
             directories holding nodes.csv"
        ));
    }
    let threads = resolve_threads(opts);
    let config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
    let shards = shards.max(1);
    eprintln!(
        "discovering {} input(s) under {path}: {} shard(s) x {} worker thread(s)",
        source.len(),
        shards,
        threads
    );
    let mut result = discoverer
        .discover_sharded(&source, shards, opts.chunk_size, threads)
        .map_err(|e| format!("parse {path}: {e}"))?;
    if let Some(p) = load_state {
        // The sharded path absorbs per-file states; a loaded cache has no
        // absorb site here, so only the context is used.
        let (ctx, _cache) = load_discover_state(p, &config)?;
        result.state.merge(ctx.state);
        result.warnings.duplicate_nodes += result.registry.merge(&ctx.registry);
        // Re-resolve: edges unresolvable on either side alone may resolve
        // against the union registry.
        let mut pending = std::mem::take(&mut result.pending);
        result.warnings.unresolved_edges -= pending.len() as u64;
        pending.extend(ctx.pending);
        let (left, resolved) =
            discoverer.resolve_pending(&mut result.state, &result.registry, pending);
        result.elements += resolved;
        result.warnings.unresolved_edges += left.len() as u64;
        result.pending = left;
    }
    report_warnings(&result.warnings);
    let schema = result.state.finalize();
    if let Some(p) = save_state {
        let carried = result.pending.len();
        let ctx = ResumeContext {
            config,
            state: result.state,
            registry: result.registry,
            watch: None,
            pending: result.pending,
        };
        ctx.save(Path::new(p)).map_err(|e| e.to_string())?;
        if carried > 0 {
            eprintln!("state saved to {p} ({carried} cross-input edge(s) carried)");
        } else {
            eprintln!("state saved to {p}");
        }
    }
    match format {
        OutputFormat::Strict => print!("{}", pg_schema_strict(&schema, "Discovered")),
        OutputFormat::Loose => print!("{}", pg_schema_loose(&schema, "Discovered")),
        OutputFormat::Xsd => print!("{}", to_xsd(&schema)),
        OutputFormat::Summary => {
            println!(
                "{} elements from {} input(s) across {} shard(s) -> {} node types, \
                 {} edge types ({} abstract)",
                result.elements,
                result.inputs,
                shards,
                schema.node_types.len(),
                schema.edge_types.len(),
                schema.node_types.iter().filter(|t| t.is_abstract()).count(),
            );
            print_type_lines(&schema);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `pg-hive merge-state <out> <in>...` — fold saved engine states into one
/// snapshot. Snapshots written under different method/theta/seed/chunk-size
/// are refused with a named `snapshot:` error; carried cross-input edges
/// resolve against the merged registry and the rest stay pending in the
/// output, ready for the next merge.
///
/// The fold is **streaming**: the first snapshot becomes the base and each
/// further one is loaded, merged, and dropped before the next is opened, so
/// peak residency is two contexts no matter how many snapshots are folded.
/// `SchemaState::merge` is associative and commutative, so this is
/// byte-identical to materializing every context and folding all at once
/// (asserted e2e in `tests/tests/cli_merge_state.rs`).
fn merge_state(out: &str, inputs: &[String], format: OutputFormat) -> Result<ExitCode, String> {
    let mut iter = inputs.iter();
    let first = iter
        .next()
        .ok_or_else(|| "snapshot: merge needs at least one snapshot file".to_string())?;
    let mut ctx = ResumeContext::load(Path::new(first))
        .map_err(|e| format!("{e} (while loading {first})"))?;
    // A merged state is no longer any single watch's checkpoint, even when
    // only one input was given.
    ctx.watch = None;
    let mut collisions = 0u64;
    for p in iter {
        let next =
            ResumeContext::load(Path::new(p)).map_err(|e| format!("{e} (while loading {p})"))?;
        collisions += ctx.merge(next).map_err(|e| e.to_string())?;
    }
    // Rebuild the discoverer the snapshots were produced under (the guard
    // above proved they all agree) so pending-edge resolution embeds with
    // the same clustering parameters.
    let discoverer = Discoverer::new(PipelineConfig {
        method: ctx.config.method,
        theta: ctx.config.theta,
        seed: ctx.config.seed,
        ..PipelineConfig::default()
    });
    let pending = std::mem::take(&mut ctx.pending);
    let (left, resolved) = discoverer.resolve_pending(&mut ctx.state, &ctx.registry, pending);
    ctx.pending = left;
    ctx.save(Path::new(out)).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} snapshot(s) into {out}: {} pooled type(s), {} registered id(s), \
         {} duplicate id(s) across inputs, {} carried edge(s) resolved, {} still pending",
        inputs.len(),
        ctx.state.pooled_types(),
        ctx.registry.len(),
        collisions,
        resolved,
        ctx.pending.len()
    );
    let schema = ctx.state.finalize();
    match format {
        OutputFormat::Strict => print!("{}", pg_schema_strict(&schema, "Discovered")),
        OutputFormat::Loose => print!("{}", pg_schema_loose(&schema, "Discovered")),
        OutputFormat::Xsd => print!("{}", to_xsd(&schema)),
        OutputFormat::Summary => {
            println!(
                "merged schema: {} node types, {} edge types ({} abstract)",
                schema.node_types.len(),
                schema.edge_types.len(),
                schema.node_types.iter().filter(|t| t.is_abstract()).count(),
            );
            print_type_lines(&schema);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Print a streamed discovery's schema in the requested output format —
/// shared by the plain and stateful `discover --stream` paths so their
/// output cannot drift apart.
fn print_stream_schema(
    result: &StreamResult,
    max_resident: usize,
    threads: usize,
    format: OutputFormat,
) {
    match format {
        OutputFormat::Strict => print!("{}", pg_schema_strict(&result.schema, "Discovered")),
        OutputFormat::Loose => print!("{}", pg_schema_loose(&result.schema, "Discovered")),
        OutputFormat::Xsd => print!("{}", to_xsd(&result.schema)),
        OutputFormat::Summary => {
            let total: f64 = result.chunk_times.iter().map(|t| t.as_secs_f64()).sum();
            println!(
                "{} elements in {} chunk(s) (peak resident {} elements) -> \
                 {} node types, {} edge types ({} abstract), {total:.3}s compute \
                 across {} thread(s)",
                result.elements,
                result.chunk_times.len(),
                max_resident,
                result.schema.node_types.len(),
                result.schema.edge_types.len(),
                result
                    .schema
                    .node_types
                    .iter()
                    .filter(|t| t.is_abstract())
                    .count(),
                threads,
            );
            print_type_lines(&result.schema);
        }
    }
}

/// The `discover --stream` path: report the merged schema plus streaming
/// accounting.
fn discover_stream(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    format: OutputFormat,
) -> Result<ExitCode, String> {
    let (result, summary) = stream_discover(path, opts, discoverer, true)?;
    report_warnings(&summary.warnings);
    print_stream_schema(
        &result,
        summary.max_resident_elements,
        resolve_threads(opts),
        format,
    );
    Ok(ExitCode::SUCCESS)
}
