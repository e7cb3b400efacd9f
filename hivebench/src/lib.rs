//! A layered benchmark for pg-hive. Three workloads drive the engine
//! through its public entry points (see [`engine`]) and check every
//! output; a traced mode replays the same work with a span around each
//! layer's public functions (see [`replay`] and [`trace`]). `README.md` in
//! this directory explains the workloads and the metric map.

pub mod engine;
pub mod gen;
pub mod http;
pub mod ldbc_stream;
pub mod replay;
pub mod serve_mixed;
pub mod stats;
pub mod steady_cache;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["ldbc-stream", "steady-cache", "serve-mixed"];

/// The end-to-end metrics `(name, unit)`: every workload reports each of
/// them with `--trace 0`, in this order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("node_f1", "ratio"),
    ("edge_f1", "ratio"),
];

/// The per-layer metrics `(name, unit)`: every workload reports each of
/// them with `--trace 1`, in this order. A layer or phase the workload
/// does not pass through reports 0 (see [`Outcome::complete`]).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("stream_elements_per_s", "1/s"),
    ("peak_resident_elements", "count"),
    ("cold_pass_elements_per_s", "1/s"),
    ("warm_pass_elements_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("checkpoint_p50_ms", "ms"),
    ("resume_s", "s"),
    ("stream.read_ns_per_element", "ns"),
    ("stream.chunks", "count"),
    ("stream.cross_chunk_edges", "count"),
    ("preprocess.repr_ns_per_element", "ns"),
    ("preprocess.scan_ns_per_element", "ns"),
    ("preprocess.dedup_ratio", "ratio"),
    ("sigcache.lookup_ns", "ns"),
    ("sigcache.hit_ratio", "ratio"),
    ("cluster.ns_per_signature", "ns"),
    ("cluster.clusters", "count"),
    ("extract.ns_per_element", "ns"),
    ("state.postprocess_ns_per_element", "ns"),
    ("state.merge_us_per_chunk", "us"),
    ("state.finalize_ms", "ms"),
    ("state.finalize_cached_ms", "ms"),
    ("state.pooled_types", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("serve.dispatch_ingest_ms", "ms"),
    ("serve.dispatch_read_ms", "ms"),
    ("serve.dispatch_checkpoint_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.contention_ms", "ms"),
    ("serve.ingest_requests", "count"),
    ("serve.read_requests", "count"),
    ("trace.stage_sum_over_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Input sizes. [`Size::full`] is what the command runs; [`Size::tiny`]
/// keeps the smoke tests quick.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// LDBC scale for `ldbc-stream` (1.0 = 6.4k nodes, 25k edges).
    pub ldbc_scale: f64,
    /// Chunks per `steady-cache` pass.
    pub steady_chunks: usize,
    /// Nodes per `steady-cache` chunk (half as many edges ride along).
    pub steady_chunk_nodes: usize,
    /// LDBC scale of one `serve-mixed` ingest body.
    pub body_scale: f64,
    /// Requests each `serve-mixed` client sends per round, rounded up to
    /// whole blocks of 20.
    pub ops_per_client: usize,
    /// Times the set-up is repeated before the timed phase (see
    /// [`SetupTimer`]).
    pub setup_reps: usize,
    /// Fewest timed passes or rounds per phase, whatever `--seconds` says.
    pub min_passes: usize,
    /// `ServeCore::new` resumes timed after each round.
    pub resume_reps: usize,
}

impl Size {
    pub fn full() -> Self {
        Size {
            ldbc_scale: 10.0,
            steady_chunks: 30,
            steady_chunk_nodes: 2000,
            body_scale: 0.1,
            ops_per_client: 60,
            setup_reps: 5,
            min_passes: 5,
            resume_reps: 10,
        }
    }

    pub fn tiny() -> Self {
        Size {
            ldbc_scale: 0.2,
            steady_chunks: 3,
            steady_chunk_nodes: 200,
            body_scale: 0.02,
            ops_per_client: 20,
            setup_reps: 1,
            min_passes: 2,
            resume_reps: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// How long the timed phases measure.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for generated files and snapshots.
    pub work_dir: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: its operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// `success_ratio`: operations that succeeded and passed their check
    /// over operations attempted.
    pub fn push_success_ratio(&mut self) {
        let ok = self.attempted - self.failed;
        self.push(
            "success_ratio",
            ok as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
    }

    /// `node_f1` and `edge_f1`: the means of per-graph F1\* scores from
    /// [`f1_scores`]. They are deterministic, so speed work cannot silently
    /// cost quality.
    pub fn push_f1(&mut self, scores: &[(f64, f64)]) {
        let in_range = |f: f64| f > 0.0 && f <= 1.0;
        for &(node_f1, edge_f1) in scores {
            self.check(in_range(node_f1) && in_range(edge_f1), || {
                format!("F1*: nodes {node_f1}, edges {edge_f1}")
            });
        }
        let n = scores.len().max(1) as f64;
        self.push(
            "node_f1",
            scores.iter().map(|s| s.0).sum::<f64>() / n,
            "ratio",
        );
        self.push(
            "edge_f1",
            scores.iter().map(|s| s.1).sum::<f64>() / n,
            "ratio",
        );
    }

    /// Put the metrics of the mode in the order of [`END_TO_END`] or
    /// [`PER_LAYER`]. A per-layer metric the workload did not report
    /// belongs to a layer or phase it does not pass through: it spent no
    /// time there and counted nothing, so it reads 0. A missing end-to-end
    /// metric, or any metric outside the mode's table, is an error.
    pub fn complete(mut self, trace: bool) -> Result<Outcome, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !table.contains(&(m.name, m.unit)))
        {
            return Err(format!("metric {} ({}) is not declared", m.name, m.unit));
        }
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => metrics.push(m.clone()),
                None if trace => metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                }),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            }
        }
        self.metrics = metrics;
        Ok(self)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Batches of the untimed resident run that F1* scores.
pub const F1_BATCHES: usize = 10;

/// F1\* (`pg_hive_eval::majority_f1`, macro) of nodes and edges for one
/// untimed resident `discover_incremental` over `g`, against a ground
/// truth given as one type index per node and per edge.
pub fn f1_scores(
    d: &pg_hive_core::Discoverer,
    g: &pg_hive_graph::PropertyGraph,
    node_truth: &[u32],
    edge_truth: &[u32],
) -> (f64, f64) {
    use pg_hive_eval::majority_f1;
    let r = engine::resident_batches(d, g, F1_BATCHES);
    (
        majority_f1(&r.node_cluster_assignment, node_truth).macro_f1,
        majority_f1(&r.edge_cluster_assignment, edge_truth).macro_f1,
    )
}

/// Share of a timed phase that set-up repetitions between its passes may
/// take.
pub const SETUP_SHARE: f64 = 0.15;

/// `setup_s`: the median of set-up repetitions spread over the whole run.
///
/// The host's speed drifts on the scale of tens of seconds, so set-ups
/// timed only before the first pass would see a few seconds of it while
/// the pass metrics see the whole run. The set-up therefore runs
/// `size.setup_reps` times up front and again between timed passes, while
/// those repetitions have taken under [`SETUP_SHARE`] of the phase.
pub struct SetupTimer {
    times: Vec<f64>,
    between: f64,
    phase: Instant,
}

impl SetupTimer {
    /// Run `setup` `size.setup_reps` times; returns the last result and the
    /// timer, whose phase starts now.
    pub fn start<T>(size: &Size, setup: &mut impl FnMut() -> T) -> (T, SetupTimer) {
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < size.setup_reps.max(1) {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        let timer = SetupTimer {
            times,
            between: 0.0,
            phase: Instant::now(),
        };
        (last.expect("at least one set-up"), timer)
    }

    /// Between two timed passes: repeat the set-up, discarding its result,
    /// if repetitions have so far taken under [`SETUP_SHARE`] of the phase.
    pub fn between_passes<T>(&mut self, setup: &mut impl FnMut() -> T) {
        if self.between < SETUP_SHARE * self.phase.elapsed().as_secs_f64() {
            let t = Instant::now();
            drop(setup());
            let secs = t.elapsed().as_secs_f64();
            self.times.push(secs);
            self.between += secs;
        }
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.times).expect("at least one set-up")
    }
}

/// Whether a timed phase should run another pass: always until `min`
/// passes, then while the phase is under its time budget.
pub fn keep_going(done: usize, min: usize, started: Instant, budget: Duration) -> bool {
    done < min || started.elapsed() < budget
}

/// Write a traced run's spans to `trace_dir`. A failed write is reported
/// but does not fail the run.
pub fn write_trace(p: &Params, workload: &str, tr: &trace::Tracer) {
    let path = p.trace_dir.join(format!("{workload}-seed{}.tsv", p.seed));
    let written = std::fs::create_dir_all(&p.trace_dir).and_then(|()| tr.write_tsv(&path));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Run one workload by name.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    std::fs::create_dir_all(&p.work_dir)
        .map_err(|e| format!("create {}: {e}", p.work_dir.display()))?;
    let out = match workload {
        "ldbc-stream" => ldbc_stream::run(p),
        "steady-cache" => steady_cache::run(p),
        "serve-mixed" => serve_mixed::run(p),
        other => {
            return Err(format!(
                "unknown workload '{other}' (want one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    out.complete(p.trace)
}
