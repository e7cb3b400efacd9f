//! `serve-mixed`: writes beside reads on shared tenant locks.
//!
//! An in-process `ServeCore` with a state dir listens on loopback. Two
//! closed-loop clients, each on one raw `TcpStream` and each waiting for
//! its reply before it sends again, run a fixed seeded mix over two
//! tenants: ingest of LDBC `.pgt` bodies, `schema`/`stats`/`diff` reads and
//! periodic `checkpoint`s. The mix repeats in rounds, each on a fresh
//! server, until the time budget is spent. After each round the server is
//! dropped and `ServeCore::new` resuming every tenant is timed.
//!
//! HTTP framing dominates the small reads, absorb dominates ingest, and
//! this is the only workload that exercises snapshot encode and decode.

use crate::http::Client;
use crate::trace::Tracer;
use crate::{engine, f1_scores, gen, keep_going, stats, write_trace, Outcome, Params, SetupTimer};
use pg_hive_core::serve::Request;
use pg_hive_core::sigcache::DEFAULT_CACHE_CAP;
use pg_hive_core::snapshot::{context_snapshot_cached, sigcache_from_snapshot};
use pg_hive_core::{ResumeContext, ServeCore, Snapshot};
use pg_hive_datasets::Dataset;
use pg_hive_graph::loader::save_text;
use pg_hive_graph::PropertyGraph;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["t0", "t1"];
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Each client sends its requests in blocks of this fixed composition,
/// shuffled by the seed: 7 ingests, 12 reads (5 schema, 4 stats, 3 diff)
/// and one checkpoint last. Each client writes (ingest, checkpoint) its
/// own tenant and reads both, so each tenant has one writer and two
/// readers, and half the reads wait on the other client's writes.
const BLOCK: [Op; 20] = [
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Ingest(0),
    Op::Schema,
    Op::Schema,
    Op::Schema,
    Op::Schema,
    Op::Schema,
    Op::Stats,
    Op::Stats,
    Op::Stats,
    Op::Stats,
    Op::Diff,
    Op::Diff,
    Op::Diff,
    Op::Checkpoint,
];
/// Snapshot codec repetitions in the traced run.
const CODEC_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest,
    Read,
    Checkpoint,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest(usize),
    Schema,
    Stats,
    Diff,
    Checkpoint,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    tenant: usize,
    op: Op,
}

impl Step {
    fn kind(&self) -> Kind {
        match self.op {
            Op::Ingest(_) => Kind::Ingest,
            Op::Checkpoint => Kind::Checkpoint,
            _ => Kind::Read,
        }
    }

    /// `(method, target)`; a diff asks for the changes since `since`.
    fn target(&self, since: u64) -> (&'static str, String) {
        let t = TENANTS[self.tenant];
        match self.op {
            Op::Ingest(_) => ("POST", format!("/v1/{t}/ingest")),
            Op::Schema => ("GET", format!("/v1/{t}/schema")),
            Op::Stats => ("GET", format!("/v1/{t}/stats")),
            Op::Diff => ("GET", format!("/v1/{t}/diff?since={since}")),
            Op::Checkpoint => ("POST", format!("/v1/{t}/checkpoint")),
        }
    }
}

/// The generated inputs: the body pool and each client's request plan.
struct Setup {
    bodies: Vec<Vec<u8>>,
    plans: Vec<Vec<Step>>,
    /// The dataset body 0 was written from, which F1* scores.
    first: Dataset,
}

impl Setup {
    fn new(p: &Params) -> Setup {
        let mut rng = gen::Rng::new(p.seed);
        let blocks = p.size.ops_per_client.div_ceil(BLOCK.len());
        let plans: Vec<Vec<Step>> = (0..CLIENTS)
            .map(|client| {
                let mut plan = Vec::new();
                for _ in 0..blocks {
                    let mut ops = BLOCK;
                    // The checkpoint stays last: checkpoints are periodic.
                    shuffle(&mut rng, &mut ops[..BLOCK.len() - 1]);
                    // Writes go to the client's own tenant; every other
                    // read goes to the other client's.
                    let mut reads = 0;
                    plan.extend(ops.iter().map(|&op| {
                        let shared = matches!(op, Op::Schema | Op::Stats | Op::Diff) && {
                            reads += 1;
                            reads % 2 == 0
                        };
                        let tenant = (client + usize::from(shared)) % TENANTS.len();
                        Step { tenant, op }
                    }));
                }
                plan
            })
            .collect();
        // Every ingest gets a body of its own, so each is new data to its
        // tenant, as a stream of fresh batches is. Bodies 0 and 1 prime
        // tenants 0 and 1.
        let mut next = TENANTS.len();
        let plans = plans
            .into_iter()
            .map(|plan| {
                plan.into_iter()
                    .map(|step| match step.op {
                        Op::Ingest(_) => {
                            next += 1;
                            Step {
                                op: Op::Ingest(next - 1),
                                ..step
                            }
                        }
                        _ => step,
                    })
                    .collect()
            })
            .collect();
        let mut first = None;
        let bodies = (0..next)
            .map(|k| {
                let data = gen::ldbc(p.size.body_scale, rng.next_u64());
                let text = body(&data.graph, k);
                first.get_or_insert(data);
                text
            })
            .collect();
        Setup {
            bodies,
            plans,
            first: first.expect("at least the priming bodies"),
        }
    }

    fn body(&self, step: &Step) -> &[u8] {
        match step.op {
            Op::Ingest(i) => &self.bodies[i],
            _ => &[],
        }
    }
}

/// Body `k` as `.pgt` text, its node ids prefixed `b<k>` so that every
/// body declares nodes of its own, as successive batches of a stream do.
fn body(g: &PropertyGraph, k: usize) -> Vec<u8> {
    let mut out = String::new();
    for line in save_text(g).lines() {
        let ids = if line.starts_with("E ") { 2 } else { 1 };
        for (i, field) in line.splitn(ids + 2, ' ').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if (1..=ids).contains(&i) {
                out.push_str(&format!("b{k}"));
            }
            out.push_str(field);
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Fisher–Yates with the workload's seeded stream.
fn shuffle<T>(rng: &mut gen::Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The `"pass":N` field of a JSON reply.
fn pass_of(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"pass\":")? + 7..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

struct Sample {
    kind: Kind,
    start: Instant,
    end: Instant,
    ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

struct ClientLog {
    samples: Vec<Sample>,
    /// Acknowledged ingest bodies, per tenant.
    acked: [Vec<usize>; 2],
}

/// One closed-loop client: send, wait for the reply, send the next.
fn run_client(addr: SocketAddr, s: &Setup, plan: &[Step]) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::with_capacity(plan.len()),
        acked: [Vec::new(), Vec::new()],
    };
    // Priming left every tenant at pass 1.
    let mut seen = [1u64; 2];
    let mut conn = Client::connect(addr).ok();
    for step in plan {
        let (method, target) = step.target(seen[step.tenant]);
        let start = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.request(method, &target, s.body(step)),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let end = Instant::now();
        let ok = matches!(&reply, Ok((200, _)));
        match reply {
            Ok((200, body)) => {
                if let Op::Ingest(i) = step.op {
                    log.acked[step.tenant].push(i);
                }
                if let Some(pass) = pass_of(&body) {
                    seen[step.tenant] = seen[step.tenant].max(pass);
                }
            }
            Ok((status, body)) => eprintln!(
                "{method} {target}: {status} {}",
                String::from_utf8_lossy(&body)
            ),
            Err(e) => {
                eprintln!("{method} {target}: {e}");
                conn = Client::connect(addr).ok();
            }
        }
        log.samples.push(Sample {
            kind: step.kind(),
            start,
            end,
            ok,
        });
    }
    log
}

fn dispatch(core: &ServeCore, method: &str, target: &str, body: Vec<u8>) -> (u16, Vec<u8>) {
    let (resp, _) = core.dispatch(&Request::new(method, target, body));
    (resp.status, resp.body)
}

/// Create both tenants with one ingest each, so every read has a tenant.
/// Returns the acknowledged bodies per tenant.
fn prime(addr: SocketAddr, s: &Setup, out: &mut Outcome) -> [Vec<usize>; 2] {
    let mut acked = [Vec::new(), Vec::new()];
    let mut admin = Client::connect(addr).expect("connect to the server");
    for (t, name) in TENANTS.iter().enumerate() {
        let reply = admin.request("POST", &format!("/v1/{name}/ingest"), &s.bodies[t]);
        let ok = matches!(reply, Ok((200, _)));
        out.check(ok, || format!("serve-mixed: priming {name} failed"));
        if ok {
            acked[t].push(t);
        }
    }
    acked
}

/// What one round of the loaded mix produced.
struct Round {
    samples: Vec<Sample>,
    /// Wall time of the loaded phase.
    wall: f64,
    /// `ServeCore::new` resume times.
    resumes: Vec<f64>,
}

impl Round {
    fn requests_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall
    }
}

/// A round whose served schemas passed the serial-replay oracle.
struct Verified {
    /// Acknowledged bodies per tenant, sorted.
    acked: [Vec<usize>; 2],
    served: Vec<Vec<u8>>,
}

/// One round: fresh server, primed tenants, both clients through their
/// plans, then the quiescent checks (serial replay oracle, resume).
fn round(
    p: &Params,
    s: &Setup,
    n: usize,
    verified: &mut Option<Verified>,
    out: &mut Outcome,
) -> Round {
    let dir = p.work_dir.join(format!("state-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let server = engine::serve(engine::serve_core(Some(dir.clone())).expect("server core"));
    let addr = server.addr();
    let mut acked = prime(addr, s, out);

    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .plans
            .iter()
            .map(|plan| scope.spawn(move || run_client(addr, s, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for log in logs {
        for (t, bodies) in log.acked.into_iter().enumerate() {
            acked[t].extend(bodies);
        }
        for sample in &log.samples {
            out.check(sample.ok, || {
                format!("serve-mixed: {:?} request failed", sample.kind)
            });
        }
        samples.extend(log.samples);
    }

    // Quiescence: checkpoint every tenant and read what it serves.
    let mut served = Vec::new();
    {
        let mut admin = Client::connect(addr).expect("connect to the server");
        for name in TENANTS {
            let ckpt = admin.request("POST", &format!("/v1/{name}/checkpoint"), &[]);
            out.check(matches!(ckpt, Ok((200, _))), || {
                format!("serve-mixed: final checkpoint of {name} failed")
            });
            let schema = match admin.request("GET", &format!("/v1/{name}/schema"), &[]) {
                Ok((200, body)) => body,
                _ => Vec::new(),
            };
            out.check(!schema.is_empty(), || {
                format!("serve-mixed: schema read of {name} failed")
            });
            served.push(schema);
        }
    }
    server.shutdown();

    // The served bytes must equal a serial in-process replay of the
    // tenant's acknowledged bodies. A round that acknowledged the same
    // bodies as an already replayed one must serve the same bytes.
    for bodies in &mut acked {
        bodies.sort_unstable();
    }
    match verified.as_ref().filter(|v| v.acked == acked) {
        Some(v) => {
            for (t, name) in TENANTS.iter().enumerate() {
                out.check(served[t] == v.served[t], || {
                    format!("serve-mixed: {name} serves other bytes than in the replayed round")
                });
            }
        }
        None => {
            let oracle = engine::serve_core(None).expect("oracle core");
            let mut all_match = true;
            for (t, name) in TENANTS.iter().enumerate() {
                let target = format!("/v1/{name}/ingest");
                let all_acked = acked[t]
                    .iter()
                    .all(|&i| dispatch(&oracle, "POST", &target, s.bodies[i].clone()).0 == 200);
                let schema = format!("/v1/{name}/schema");
                let matches =
                    all_acked && dispatch(&oracle, "GET", &schema, Vec::new()).1 == served[t];
                all_match &= matches;
                out.check(matches, || {
                    format!("serve-mixed: {name} serves other bytes than a serial replay of its acked bodies")
                });
            }
            if all_match {
                *verified = Some(Verified {
                    acked: acked.clone(),
                    served: served.clone(),
                });
            }
        }
    }

    // Resume every tenant from the state dir.
    let mut resumes = Vec::new();
    for _ in 0..p.size.resume_reps {
        let t = Instant::now();
        let core = engine::serve_core(Some(dir.clone()));
        resumes.push(t.elapsed().as_secs_f64());
        let same = core.as_ref().is_ok_and(|core| {
            core.tenant_names() == TENANTS
                && TENANTS.iter().zip(&served).all(|(name, before)| {
                    dispatch(core, "GET", &format!("/v1/{name}/schema"), Vec::new()).1 == *before
                })
        });
        out.check(same, || {
            "serve-mixed: a resumed tenant differs from its schema before shutdown".into()
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Round {
        samples,
        wall,
        resumes,
    }
}

fn latencies(samples: &[&Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.ms())
        .collect()
}

pub fn run(p: &Params) -> Outcome {
    let mut make = || Setup::new(p);
    let (s, mut setup) = SetupTimer::start(&p.size, &mut make);
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(p.seconds);
    if p.trace {
        traced(p, &s, &mut out, budget);
        return out;
    }

    let mut rounds = Vec::new();
    let mut verified = None;
    let started = Instant::now();
    while keep_going(rounds.len(), p.size.min_passes, started, budget) {
        rounds.push(round(p, &s, rounds.len(), &mut verified, &mut out));
        setup.between_passes(&mut make);
    }
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let resumes: Vec<f64> = rounds.iter().flat_map(|r| r.resumes.clone()).collect();
    let ingest = latencies(&samples, Kind::Ingest);
    let read = latencies(&samples, Kind::Read);
    let checkpoint = latencies(&samples, Kind::Checkpoint);
    eprintln!(
        "serve-mixed: {} rounds, {} ingests and {} reads ({} and {} beyond p90), \
         {} checkpoints, {} resumes",
        rounds.len(),
        ingest.len(),
        read.len(),
        stats::samples_beyond(ingest.len(), 90.0),
        stats::samples_beyond(read.len(), 90.0),
        checkpoint.len(),
        resumes.len()
    );
    out.push("setup_s", setup.median(), "s");
    let truth = &s.first.truth;
    out.push_f1(&[f1_scores(
        &engine::discoverer(),
        &s.first.graph,
        &truth.node_types,
        &truth.edge_types,
    )]);
    out.push_success_ratio();
    out
}

/// The span a request of this kind is dispatched in.
fn dispatch_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Ingest => "dispatch.ingest",
        Kind::Read => "dispatch.read",
        Kind::Checkpoint => "dispatch.checkpoint",
    }
}

/// Dispatch both clients' plans, one after the other, in-process through
/// `ServeCore::dispatch` on a fresh core with a state dir (no socket).
/// With a tracer, the plans run inside a `dispatch.replay` span and each
/// request inside a span named after its kind. Returns the core and the
/// wall seconds of the plans, priming excluded.
fn dispatch_replay(
    dir: &Path,
    s: &Setup,
    serial: &[Step],
    mut tr: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (ServeCore, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let core = engine::serve_core(Some(dir.to_path_buf())).expect("server core");
    for (t, name) in TENANTS.iter().enumerate() {
        let (status, _) = dispatch(
            &core,
            "POST",
            &format!("/v1/{name}/ingest"),
            s.bodies[t].clone(),
        );
        out.check(status == 200, || {
            format!("serve-mixed: dispatch priming of {name}: {status}")
        });
    }
    // Priming left every tenant at pass 1.
    let mut seen = [1u64; 2];
    let started = Instant::now();
    let root = tr.as_mut().map(|tr| tr.begin("dispatch.replay"));
    for (i, step) in serial.iter().enumerate() {
        let (method, target) = step.target(seen[step.tenant]);
        let req = Request::new(method, &target, s.body(step).to_vec());
        let (resp, _) = match tr.as_deref_mut() {
            Some(tr) => {
                tr.set_op(i as u64);
                tr.span(dispatch_span(step.kind()), || core.dispatch(&req))
            }
            None => core.dispatch(&req),
        };
        out.check(resp.status == 200, || {
            format!("serve-mixed: dispatch {method} {target}: {}", resp.status)
        });
        if let Some(pass) = pass_of(&resp.body) {
            seen[step.tenant] = seen[step.tenant].max(pass);
        }
    }
    if let (Some(tr), Some(root)) = (tr, root) {
        tr.end(root);
    }
    (core, started.elapsed().as_secs_f64())
}

/// The schema bytes each tenant of `core` serves.
fn served(core: &ServeCore) -> Vec<Vec<u8>> {
    TENANTS
        .iter()
        .map(|name| dispatch(core, "GET", &format!("/v1/{name}/schema"), Vec::new()).1)
        .collect()
}

/// The per-layer breakdown: loaded rounds, one client alone on a fresh
/// server, the same requests dispatched in-process without a socket
/// (traced and untraced in turn), and the snapshot codec on the resulting
/// tenant.
fn traced(p: &Params, s: &Setup, out: &mut Outcome, budget: Duration) {
    let mut tr = Tracer::new();
    let mut loaded: Vec<Sample> = Vec::new();
    let mut per_round = Vec::new();
    let mut resumes = Vec::new();
    let mut verified = None;
    let started = Instant::now();
    let mut n = 0;
    while keep_going(n, p.size.min_passes.min(3), started, budget / 2) {
        let r = round(p, s, n, &mut verified, out);
        per_round.push(r.requests_per_s());
        resumes.extend(&r.resumes);
        for (i, sample) in r.samples.iter().enumerate() {
            let name = match sample.kind {
                Kind::Ingest => "request.ingest",
                Kind::Read => "request.read",
                Kind::Checkpoint => "request.checkpoint",
            };
            tr.record(name, sample.start, sample.end, (n * 1000 + i) as u64);
        }
        loaded.extend(r.samples);
        n += 1;
    }

    // One client alone on a fresh server sends both clients' plans in
    // turn: the same requests without the concurrency.
    let serial: Vec<Step> = s.plans.concat();
    let dir = p.work_dir.join("solo");
    let _ = std::fs::remove_dir_all(&dir);
    let server = engine::serve(engine::serve_core(Some(dir.clone())).expect("server core"));
    prime(server.addr(), s, out);
    let solo = run_client(server.addr(), s, &serial);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    for sample in &solo.samples {
        out.check(sample.ok, || {
            format!("serve-mixed: solo {:?} request failed", sample.kind)
        });
    }

    // The same requests through `ServeCore::dispatch`, in pairs of a
    // traced and an untraced replay whose order alternates. Both must end
    // serving the same schemas.
    let dir = p.work_dir.join("dispatch");
    let mut dtr = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let replays = Instant::now();
    while keep_going(traced.len(), p.size.min_passes.min(3), replays, budget / 2) {
        let traced_first = traced.len() % 2 == 0;
        let mut schemas = Vec::new();
        for traced_now in [traced_first, !traced_first] {
            let (core, secs) = if traced_now {
                dispatch_replay(&dir, s, &serial, Some(&mut dtr), out)
            } else {
                dispatch_replay(&dir, s, &serial, None, out)
            };
            schemas.push(served(&core));
            if traced_now {
                traced.push(secs);
                last = Some(core);
            } else {
                plain.push(secs);
            }
        }
        out.check(schemas[0] == schemas[1], || {
            "serve-mixed: traced and untraced dispatch replays serve different schemas".into()
        });
    }
    // The codec runs on the state the last traced replay left.
    let core = last.expect("at least one traced replay");
    let (ckpt, _) = core.dispatch(&Request::new("POST", "/v1/t0/checkpoint", Vec::new()));
    out.check(ckpt.status == 200, || {
        "serve-mixed: checkpoint of t0 failed".into()
    });
    let codec = snapshot_codec(&dir.join("t0.snapshot"), &p.work_dir.join("codec.snapshot"));
    out.check(codec.is_some(), || {
        "serve-mixed: the snapshot does not re-encode to the bytes the server wrote".into()
    });
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    write_trace(p, "serve-mixed-loaded", &tr);
    write_trace(p, "serve-mixed-dispatch", &dtr);

    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let dispatch_ms = |kind: Kind| {
        let name = dispatch_span(kind);
        dtr.spans()
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.duration_ns() as f64 / 1e6)
            .collect::<Vec<_>>()
    };
    let loaded_refs: Vec<&Sample> = loaded.iter().collect();
    let solo_refs: Vec<&Sample> = solo.samples.iter().collect();
    let pct = |kind: Kind, q: f64| {
        stats::percentile(&latencies(&loaded_refs, kind), q).unwrap_or(f64::NAN)
    };
    let dispatch_read = med(&dispatch_ms(Kind::Read));
    out.push(
        "serve.dispatch_ingest_ms",
        med(&dispatch_ms(Kind::Ingest)),
        "ms",
    );
    out.push("serve.dispatch_read_ms", dispatch_read, "ms");
    out.push(
        "serve.dispatch_checkpoint_ms",
        med(&dispatch_ms(Kind::Checkpoint)),
        "ms",
    );
    out.push(
        "serve.http_overhead_ms",
        med(&latencies(&solo_refs, Kind::Read)) - dispatch_read,
        "ms",
    );
    out.push(
        "serve.contention_ms",
        pct(Kind::Ingest, 50.0) - med(&latencies(&solo_refs, Kind::Ingest)),
        "ms",
    );
    // Loaded figures whose medians moved by more than the bound from one
    // set of runs to another.
    out.push("requests_per_s", med(&per_round), "1/s");
    out.push("ingest_p50_ms", pct(Kind::Ingest, 50.0), "ms");
    out.push("ingest_p90_ms", pct(Kind::Ingest, 90.0), "ms");
    out.push("read_p50_ms", pct(Kind::Read, 50.0), "ms");
    out.push("read_p90_ms", pct(Kind::Read, 90.0), "ms");
    out.push("checkpoint_p50_ms", pct(Kind::Checkpoint, 50.0), "ms");
    out.push("resume_s", med(&resumes), "s");
    out.push(
        "serve.ingest_requests",
        latencies(&loaded_refs, Kind::Ingest).len() as f64,
        "count",
    );
    out.push(
        "serve.read_requests",
        latencies(&loaded_refs, Kind::Read).len() as f64,
        "count",
    );
    let codec = codec.unwrap_or_default();
    out.push("snapshot.bytes", codec.bytes, "bytes");
    out.push("snapshot.encode_ms", codec.encode_ms, "ms");
    out.push("snapshot.write_ms", codec.write_ms, "ms");
    out.push("snapshot.decode_ms", codec.decode_ms, "ms");
    // The share of the solo client's round trips that the in-process
    // dispatch of the same requests accounts for; the rest is HTTP framing
    // and the loopback socket.
    let dispatched: f64 = [Kind::Ingest, Kind::Read, Kind::Checkpoint]
        .into_iter()
        .flat_map(dispatch_ms)
        .sum::<f64>()
        / traced.len() as f64;
    let round_trips: f64 = solo.samples.iter().map(Sample::ms).sum();
    out.push(
        "trace.stage_sum_over_wall",
        dispatched / round_trips,
        "ratio",
    );
    out.push("trace.overhead_ratio", med(&traced) / med(&plain), "ratio");
}

#[derive(Debug, Default)]
struct Codec {
    bytes: f64,
    encode_ms: f64,
    write_ms: f64,
    decode_ms: f64,
}

/// Time the snapshot codec on a checkpoint the server wrote: decode
/// (`Snapshot::read` plus `ResumeContext::from_snapshot`), encode back to
/// text, and the atomic write. `None` when the re-encoded text is not
/// byte-identical to the file.
fn snapshot_codec(path: &Path, copy: &Path) -> Option<Codec> {
    let original = std::fs::read_to_string(path).ok()?;
    let (mut decode, mut encode, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..CODEC_REPS {
        let t = Instant::now();
        let snap = Snapshot::read(path).ok()?;
        let ctx = ResumeContext::from_snapshot(&snap).ok()?;
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        let cache = sigcache_from_snapshot(&snap, DEFAULT_CACHE_CAP).ok()?;

        let t = Instant::now();
        let again = context_snapshot_cached(
            &ctx.config,
            &ctx.state,
            &ctx.registry,
            ctx.watch.as_ref(),
            &ctx.pending,
            Some(&cache),
        );
        let text = again.to_text();
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        if text != original {
            return None;
        }
        bytes = text.len();

        let t = Instant::now();
        again.write_atomic(copy).ok()?;
        write.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    Some(Codec {
        bytes: bytes as f64,
        encode_ms: med(&encode),
        write_ms: med(&write),
        decode_ms: med(&decode),
    })
}
