//! The request side shared by `serve_hot`, `serve_miss` and `fed_fanout`:
//! in-process daemons, the planned-op table, and the closed-loop driver.
//!
//! Callers of the daemon are scripts that wait for each reply, so the loop
//! is closed: a client sends its next request only after the previous
//! reply arrived, on one persistent connection.

use crate::common::{self, Cfg, Fidelity, Outcome, Slice};
use crate::measure;
use crate::tracebuf::{self, TraceLog};
use sg_core::SchemeRegistry;
use sg_graph::CsrGraph;
use sg_serve::{Client, Json, ServeConfig, Server};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An in-process daemon on an ephemeral loopback port.
pub struct Daemon {
    pub addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn spawn(config: &ServeConfig) -> Daemon {
        let server = Server::bind(config).expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        Daemon { addr, thread: std::thread::spawn(move || server.run()) }
    }

    /// Sends `shutdown` over `client` (or a fresh connection) and waits
    /// for every daemon thread to end.
    pub fn stop(self, client: Option<&mut Client>) {
        let request = Client::request_for("shutdown");
        let reply = match client {
            Some(client) => client.request(&request),
            None => Client::connect(&self.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.request(&request)),
        };
        reply.expect("daemon acknowledges shutdown");
        self.thread.join().expect("daemon thread").expect("daemon exits cleanly");
    }
}

/// The daemon shape of the served workloads. A traced run also logs every
/// request to the slow-request ring (`slow_ms` 0) for its service time. The
/// ring keeps the newest 1 024: the program's JSON parser is quadratic in the
/// length of a reply that holds strings, so a longer `slowlog` reply would
/// take the harness seconds to read.
pub fn daemon_config(cfg: &Cfg, workers: usize, cache_bytes: usize) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        transcript: false,
        workers,
        queue_depth: 4,
        cache_bytes,
        slow_ms: if cfg.traced { 0 } else { defaults.slow_ms },
        slowlog_capacity: if cfg.traced { 1 << 10 } else { defaults.slowlog_capacity },
        ..defaults
    }
}

pub fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Sends `request` and requires an `ok` reply.
pub fn must(client: &mut Client, request: &Json) -> Json {
    let reply = client.request(request).expect("daemon replies");
    assert!(is_ok(&reply), "set-up request failed: {}", reply.render());
    reply
}

pub fn load_request(name: &str, path: &str) -> Json {
    Client::request_for("load").with("name", Json::str(name)).with("path", Json::str(path))
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Kind {
    Compress,
    Analyze,
    Stats,
    Ping,
}

impl Kind {
    pub fn op(self) -> &'static str {
        match self {
            Kind::Compress => "compress",
            Kind::Analyze => "analyze",
            Kind::Stats => "stats",
            Kind::Ping => "ping",
        }
    }
}

/// One distinct op of a request workload. Op `i` of a run is
/// `plan[i % plan.len()]`, so the set of distinct ops — and everything
/// summed over it — is fixed by the seed, however long the window runs.
pub struct PlannedOp {
    pub kind: Kind,
    pub spec: String,
    pub seed: u64,
    /// Digest of the cold library run of `(spec, seed)`; the reply's
    /// `checksum` must equal it.
    pub expect: Option<String>,
}

impl PlannedOp {
    pub fn run(kind: Kind, spec: &str, seed: u64) -> PlannedOp {
        PlannedOp { kind, spec: spec.to_string(), seed, expect: None }
    }

    pub fn probe(kind: Kind) -> PlannedOp {
        PlannedOp { kind, spec: String::new(), seed: 0, expect: None }
    }

    fn request_line(&self, id: &str) -> String {
        let mut request = Client::request_for(self.kind.op()).with("id", Json::str(id));
        if matches!(self.kind, Kind::Compress | Kind::Analyze) {
            request = request
                .with("graph", Json::str("g"))
                .with("spec", Json::str(self.spec.clone()))
                .with("seed", Json::u64(self.seed));
        }
        request.render()
    }

    /// Checks one reply against the plan.
    fn verify(&self, reply: &Json) -> Result<(), String> {
        if !is_ok(reply) {
            return Err(format!("{} refused or errored: {}", self.kind.op(), reply.render()));
        }
        match self.kind {
            Kind::Ping if reply.get("pong").and_then(Json::as_bool) != Some(true) => {
                Err("ping without pong".to_string())
            }
            Kind::Stats if reply.get("cache").is_none() => Err("stats without cache".to_string()),
            Kind::Compress | Kind::Analyze => {
                let got = reply.get("checksum").and_then(Json::as_str);
                if got == self.expect.as_deref() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} seed {}: daemon digest {got:?}, cold library run {:?}",
                        self.spec, self.seed, self.expect
                    ))
                }
            }
            _ => Ok(()),
        }
    }
}

/// One answered request.
pub struct Sample {
    pub index: usize,
    pub kind: Kind,
    /// Client wall time, first request byte to last reply byte.
    pub ms: f64,
    /// When the reply had arrived.
    pub done: Instant,
    pub error: Option<String>,
    pub stages_executed: u64,
    pub stages_cached: u64,
    /// `metrics.pagerank_kl` of an `analyze` reply.
    pub pagerank_kl: Option<f64>,
    /// `(scheme, ms)` of every stage the request executed.
    pub stage_ms: Vec<(String, f64)>,
    /// Per-shard `ms` of a federated reply.
    pub shard_ms: Vec<f64>,
    pub federated: bool,
}

impl Sample {
    /// `Err` with the reason when the reply was wrong, refused or errored.
    pub fn verdict(&self) -> Result<(), String> {
        self.error.clone().map_or(Ok(()), Err)
    }
}

/// A client connection plus what it saw.
pub struct Caller {
    pub client: Client,
    pub samples: Vec<Sample>,
    /// The first request and reply line of each kind, for the JSON replay.
    pub lines: BTreeMap<Kind, (String, String)>,
}

impl Caller {
    pub fn connect(addr: &str) -> Caller {
        let client = Client::connect(addr).expect("connect to the daemon");
        Caller { client, samples: Vec::new(), lines: BTreeMap::new() }
    }

    fn call(&mut self, label: &str, index: usize, op: &PlannedOp) {
        let id = format!("{label}-{index}");
        let line = op.request_line(&id);
        let scope = tracebuf::op_scope(&id);
        let start = Instant::now();
        let raw = self.client.request_line(&line);
        let done = Instant::now();
        drop(scope);
        let mut sample = Sample {
            index,
            kind: op.kind,
            ms: (done - start).as_secs_f64() * 1e3,
            done,
            error: None,
            stages_executed: 0,
            stages_cached: 0,
            pagerank_kl: None,
            stage_ms: Vec::new(),
            shard_ms: Vec::new(),
            federated: false,
        };
        match raw.and_then(|raw| Ok((Json::parse(&raw)?, raw))) {
            Err(e) => sample.error = Some(format!("{}: {e}", op.kind.op())),
            Ok((reply, raw)) => {
                sample.error = op.verify(&reply).err();
                let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
                sample.stages_executed = count("stages_executed");
                sample.stages_cached = count("stages_cached");
                sample.pagerank_kl =
                    reply.get("metrics").and_then(|m| m.get("pagerank_kl")).and_then(Json::as_f64);
                let stages = reply.get("stages").and_then(Json::as_arr).unwrap_or(&[]);
                sample.stage_ms = stages
                    .iter()
                    .filter(|s| s.get("cached").and_then(Json::as_bool) == Some(false))
                    .filter_map(|s| {
                        Some((s.get("name")?.as_str()?.to_string(), s.get("ms")?.as_f64()?))
                    })
                    .collect();
                if let Some(block) = reply.get("federation") {
                    sample.federated =
                        block.get("mode").and_then(Json::as_str) == Some("federated");
                    let workers = block.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
                    sample.shard_ms =
                        workers.iter().filter_map(|w| w.get("ms").and_then(Json::as_f64)).collect();
                }
                self.lines.entry(op.kind).or_insert((line, raw));
            }
        }
        self.samples.push(sample);
    }
}

/// When one phase of the loop ends, per client.
#[derive(Clone, Copy)]
pub enum Until {
    /// After exactly this many ops.
    Count(usize),
    /// At the deadline, or after this many ops if that comes first.
    Deadline(Instant, usize),
}

/// Runs one phase: client `c` of `C` sends ops `first + c`, `first + c + C`,
/// … each on its own thread. Returns the index the next phase starts at.
pub fn drive(
    callers: &mut [Caller],
    plan: &[PlannedOp],
    label: &str,
    first: usize,
    until: Until,
) -> usize {
    let stride = callers.len();
    let most = std::thread::scope(|scope| {
        let threads: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(c, caller)| {
                scope.spawn(move || {
                    let mut sent = 0;
                    loop {
                        let done = match until {
                            Until::Count(n) => sent >= n,
                            Until::Deadline(at, most) => sent >= most || Instant::now() >= at,
                        };
                        if done {
                            return sent;
                        }
                        let index = first + c + sent * stride;
                        caller.call(label, index, &plan[index % plan.len()]);
                        sent += 1;
                    }
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).max().unwrap_or(0)
    });
    first + most * stride
}

/// Ops a traced phase sends per client between two drains of the span
/// rings (a ring holds 16 384 events; an op leaves a handful per thread).
const DRAIN_EVERY: usize = 1500;

/// Slices of a request window, for [`Outcome::set_op_timings`].
const SLICES: usize = 10;

/// Fills in the digest every `compress`/`analyze` reply must carry: that of
/// the cold library run of the same `(spec, seed)`. Each distinct output is
/// also checked for the paper invariants and added to `fidelity` (with its
/// PageRank divergence where `with_kl` says so, given how many distinct
/// outputs came before). Returns the time `graph_digest` took on each.
pub fn expect_cold_runs(
    cfg: &Cfg,
    out: &mut Outcome,
    plan: &mut [PlannedOp],
    graph: &CsrGraph,
    fidelity: &mut Fidelity,
    with_kl: impl Fn(usize) -> bool,
) -> Vec<f64> {
    let registry = SchemeRegistry::with_defaults();
    let input_components = common::components(graph);
    let mut input_triangles = None;
    let mut digest_ms = Vec::new();
    let mut seen: BTreeMap<(String, u64), String> = BTreeMap::new();
    for op in plan.iter_mut().filter(|op| matches!(op.kind, Kind::Compress | Kind::Analyze)) {
        let key = (op.spec.clone(), op.seed);
        if let Some(digest) = seen.get(&key) {
            op.expect = Some(digest.clone());
            continue;
        }
        let output = common::cold_apply(&registry, &op.spec, graph, op.seed);
        let (digest, ms) = common::timed(|| common::digest_hex(&output));
        digest_ms.push(ms);
        fidelity.add(graph, &output, None);
        if with_kl(seen.len()) {
            fidelity.add_kl(&output);
        }
        let invariants = common::check_invariants(
            &op.spec,
            graph,
            &output,
            input_components,
            &mut input_triangles,
        );
        if let Err(e) = invariants {
            out.fail(e);
        }
        seen.insert(key, digest.clone());
        op.expect = Some(digest);
    }
    if cfg.corrupt_expected {
        let digest = plan.iter_mut().find_map(|op| op.expect.as_mut()).expect("a compress op");
        digest.replace_range(..1, if digest.starts_with('0') { "1" } else { "0" });
    }
    digest_ms
}

/// What [`measure`] leaves for the per-layer report.
pub struct Window {
    /// Ops with an index below this belong to the measured window.
    pub ops: usize,
    /// Traced run only: the spans of the window.
    pub trace: Option<TraceLog>,
}

/// The measured window of a request workload: every distinct op once, then
/// on until the time is up; reports the shared timing metrics and counts
/// every checked reply. A traced run spends 70% of `cfg.seconds` traced —
/// draining the span rings between phases, and calling `after_cycle` when
/// exactly the first cycle has been answered, so that counter deltas cover
/// a fixed set of requests — and the rest untraced, for the overhead.
pub fn measure(
    cfg: &Cfg,
    out: &mut Outcome,
    callers: &mut [Caller],
    plan: &[PlannedOp],
    label: &str,
    after_cycle: &mut dyn FnMut(&mut Caller),
) -> Window {
    let mut trace = cfg.traced.then(TraceLog::start);
    let seconds = cfg.seconds * if cfg.traced { 0.7 } else { 1.0 };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cycle = plan.len().div_ceil(callers.len());
    let mut ops = drive(callers, plan, label, 0, Until::Count(cycle));
    match trace.as_mut() {
        None => ops = drive(callers, plan, label, ops, Until::Deadline(deadline, usize::MAX)),
        Some(trace) => {
            trace.drain();
            after_cycle(&mut callers[0]);
            while Instant::now() < deadline {
                ops = drive(callers, plan, label, ops, Until::Deadline(deadline, DRAIN_EVERY));
                trace.drain();
            }
        }
    }
    // Ten equal stretches of the window (a traced one includes its drains).
    let length = start.elapsed().as_secs_f64() / SLICES as f64;
    let mut slices: Vec<Slice> =
        (0..SLICES).map(|_| Slice { op_ms: Vec::new(), seconds: length }).collect();
    for sample in callers.iter().flat_map(|c| &c.samples) {
        let at = ((sample.done - start).as_secs_f64() / length) as usize;
        slices[at.min(SLICES - 1)].op_ms.push(sample.ms);
    }
    out.set_op_timings(&slices);

    if let Some(trace) = trace.as_mut() {
        trace.stop();
        let until = Instant::now() + Duration::from_secs_f64(cfg.seconds - seconds);
        drive(callers, plan, label, ops, Until::Deadline(until, usize::MAX));
        let (traced, untraced): (Vec<&Sample>, Vec<&Sample>) =
            callers.iter().flat_map(|c| &c.samples).partition(|s| s.index < ops);
        let ms = |samples: &[&Sample]| samples.iter().map(|s| s.ms).collect::<Vec<f64>>();
        out.set_trace_overhead(&ms(&traced), &ms(&untraced));
    }
    callers.iter().flat_map(|c| &c.samples).for_each(|sample| out.check(sample.verdict()));
    Window { ops, trace }
}

/// The daemon's `metrics` op as flat counters: its registry counters plus
/// the stage cache's `cache.hits` / `cache.misses` / `cache.evictions`.
pub fn metrics_snapshot(client: &mut Client) -> BTreeMap<String, u64> {
    let reply = must(client, &Client::request_for("metrics"));
    let mut flat = BTreeMap::new();
    if let Some(Json::Obj(counters)) = reply.get("metrics").and_then(|m| m.get("counters")) {
        for (name, value) in counters {
            flat.insert(name.clone(), value.as_u64().unwrap_or(0));
        }
    }
    if let Some(Json::Obj(cache)) = reply.get("cache") {
        for (name, value) in cache {
            flat.insert(format!("cache.{name}"), value.as_u64().unwrap_or(0));
        }
    }
    flat
}

/// Per trace id, `(service_ms, queue_wait_ms)` from the daemon's slowlog.
pub fn slowlog(client: &mut Client) -> BTreeMap<String, (f64, f64)> {
    let reply = must(client, &Client::request_for("slowlog"));
    let records = reply.get("slowlog").and_then(Json::as_arr).unwrap_or(&[]);
    records
        .iter()
        .filter_map(|r| {
            let field = |key: &str| r.get(key).and_then(Json::as_f64);
            Some((
                r.get("trace")?.as_str()?.to_string(),
                (field("service_ms")?, field("queue_wait_ms")?),
            ))
        })
        .collect()
}

/// The layer table and the `sg-serve` shell metrics every request workload
/// reports from its traced window: per-kind client latency, the daemon's
/// own service and queue times, and what lies between the two. Returns the
/// daemon's lifetime counters for the caller's own metrics.
pub fn report_shell(
    out: &mut Outcome,
    label: &str,
    callers: &mut [Caller],
    ops: usize,
    trace: &TraceLog,
) -> BTreeMap<String, u64> {
    trace.report(out);
    let service = slowlog(&mut callers[0].client);
    let totals = metrics_snapshot(&mut callers[0].client);
    let samples: Vec<&Sample> =
        callers.iter().flat_map(|c| &c.samples).filter(|s| s.index < ops).collect();
    let by_kind = |kind: Kind| -> Vec<f64> {
        samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect()
    };
    out.set_median("sg-serve.ping_p50_ms", &by_kind(Kind::Ping));
    out.set_median("sg-serve.stats_p50_ms", &by_kind(Kind::Stats));
    let (mut service_ms, mut queue_ms, mut wire_ms) = (Vec::new(), Vec::new(), Vec::new());
    for sample in &samples {
        if let Some((service, queue)) = service.get(&format!("{label}-{}", sample.index)) {
            service_ms.push(*service);
            queue_ms.push(*queue);
            wire_ms.push(sample.ms - service);
        }
    }
    out.set_median("sg-serve.service_ms_p50", &service_ms);
    out.set_median("sg-serve.queue_wait_ms_p50", &queue_ms);
    out.set_median("sg-serve.wire_ms", &wire_ms);
    // `analyze` runs its kernels inside the request span, so the shell's
    // own time is read off `compress` requests only.
    let shell = trace.gap_ms("serve.request", "session.run", Some(("op", "compress")));
    out.set_median("sg-serve.shell_self_ms", &shell);
    let unattributed = trace.gap_ms(tracebuf::OP_SPAN, "serve.request", None);
    out.set_median("sg-serve.unattributed_ms", &unattributed);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    out.set("sg-serve.busy_rejected", total("serve.busy_rejected"), 1);
    out.set("sg-serve.errors", total("serve.errors"), 1);

    // Replay the recorded lines through the program's JSON codec: mean over
    // the op kinds of the median time to parse a request / render a reply.
    let lines: Vec<&(String, String)> = callers.iter().flat_map(|c| c.lines.values()).collect();
    let median_us = |f: &mut dyn FnMut()| {
        let reps: Vec<f64> = (0..50).map(|_| common::timed(&mut *f).1 * 1e3).collect();
        measure::median(&reps)
    };
    let (mut parse_us, mut render_us) = (0.0, 0.0);
    for (request, reply) in lines.iter().copied() {
        parse_us += median_us(&mut || {
            std::hint::black_box(Json::parse(request).expect("recorded request parses"));
        });
        let reply = Json::parse(reply).expect("recorded reply parses");
        render_us += median_us(&mut || {
            std::hint::black_box(reply.render());
        });
    }
    out.set("sg-serve.json_parse_us", parse_us / lines.len() as f64, lines.len());
    out.set("sg-serve.json_render_us", render_us / lines.len() as f64, lines.len());
    totals
}
