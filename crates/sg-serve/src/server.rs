//! The serve loop: a fixed acceptor, a bounded worker pool, and one
//! shared [`SgSession`] answering protocol requests.
//!
//! The acceptor hands connections to `workers` session threads through a
//! bounded [`ConnQueue`]; when the queue is full new clients get a stable
//! `busy` error (with `retry_after_ms`) on a half-closed socket instead
//! of a thread. Per-connection *frame* deadlines (time from a request's
//! first byte to its newline) kill slow-loris writers, a max-frame-size
//! cap kills oversized requests, and write timeouts kill clients that
//! stop draining responses — while a connection that is merely *idle*
//! between requests is never disconnected.
//!
//! A request takes one straight path, each step of which exists once:
//! [`parse_request`] → policy (trace id, auth) → `handle`, which returns
//! the response *body* or a [`ProtoError`] (a panic becomes code
//! `internal`, and the worker lives on) → `observe` (metrics, span,
//! slowlog, transcript — read from that outcome, never from rendered
//! JSON) → `write_response`, which envelopes and writes the line.
//!
//! All workers share the session (catalog + registry + stage cache), so
//! a graph loaded by one client serves every client, and chain prefixes
//! cached by one request accelerate the next — with bit-identical
//! results, because pipelines are pure functions of `(graph, spec,
//! seed)`. On top sit three protections for non-loopback deployments:
//! token auth (constant-time compare, refused-at-bind without a token),
//! per-peer byte quotas on catalog and cache footprint, and chunked
//! digest-verified graph upload with disconnect reaping.

use crate::fed::{self, FedConfig};
use crate::json::Json;
use crate::net::{Listener, Stream, UNIX_PREFIX};
use crate::pool::ConnQueue;
use crate::proto::{
    self, bad_request, parse_request, Envelope, ErrorCode, ProtoError, Request, UploadPhase,
    PROTOCOL_VERSION,
};
use crate::slowlog::{SlowLog, SlowRecord, DEFAULT_SLOWLOG_CAPACITY, DEFAULT_SLOW_MS};
use crate::upload::UploadRegistry;
use crate::{b64, quota::QuotaBook};
use sg_algos::cc;
use sg_core::{
    GraphCatalog, GraphFormat, GraphHandle, GraphId, PipelineSpec, SchemeRegistry, SessionRun,
    SgSession, StageCache, StageOutcome, StageReport,
};
use sg_graph::CsrGraph;
use sg_metrics::{AccuracyBaseline, Metric};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Socket-level read timeout: the granularity at which a blocked worker
/// re-checks the shutdown flag and the frame deadline. Distinct from —
/// and much smaller than — the configurable frame deadline
/// (`ServeConfig::read_timeout_ms`).
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// How long a response write may block before the client is declared
/// dead (it stopped draining its receive buffer).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address: `host:port` (`127.0.0.1:0` = ephemeral port) or
    /// `unix:/path/to.sock`.
    pub listen: String,
    /// Byte budget of the shared stage cache.
    pub cache_bytes: usize,
    /// Emit one JSON event line per request to stdout (the transcript CI
    /// archives).
    pub transcript: bool,
    /// Session worker threads; also the max concurrently served
    /// connections.
    pub workers: usize,
    /// Accepted-but-unserved connections admitted beyond the workers;
    /// when full, new connections are rejected with `busy`.
    pub queue_depth: usize,
    /// Frame deadline: max milliseconds from a request's first byte to
    /// its terminating newline (slow-loris cutoff). Idle connections
    /// (no partial frame buffered) are exempt.
    pub read_timeout_ms: u64,
    /// Max bytes of one request line; longer frames are rejected with
    /// `frame-too-large` and the connection is dropped.
    pub max_frame_bytes: usize,
    /// Shared secret required on every non-`ping` request when set.
    /// Mandatory for non-loopback TCP binds.
    pub token: Option<String>,
    /// Per-peer catalog byte budget (0 = unlimited).
    pub catalog_quota_bytes: u64,
    /// Per-peer cache byte budget (0 = unlimited).
    pub cache_quota_bytes: u64,
    /// How long a disconnected client's partial upload survives for
    /// resumption (0 = reaped with the connection).
    pub upload_grace_ms: u64,
    /// Backoff hint carried by `busy` rejections.
    pub retry_after_ms: u64,
    /// Service-time threshold (ms) above which a request lands in the
    /// slow-request log; `0` logs every request.
    pub slow_ms: u64,
    /// Slow-request records retained (newest kept when full).
    pub slowlog_capacity: usize,
    /// When set, this daemon is a federation *coordinator*: federable
    /// single-stage `compress`/`analyze` requests fan out to the
    /// configured worker daemons as `shard_run` sub-requests (see
    /// [`crate::fed`]). `None` — the default — makes a plain
    /// standalone/worker daemon.
    pub federation: Option<FedConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            cache_bytes: sg_core::cache::DEFAULT_CACHE_BYTES,
            transcript: true,
            workers: 4,
            queue_depth: 8,
            read_timeout_ms: 10_000,
            max_frame_bytes: 4 << 20,
            token: None,
            catalog_quota_bytes: 0,
            cache_quota_bytes: 0,
            upload_grace_ms: 60_000,
            retry_after_ms: 200,
            slow_ms: DEFAULT_SLOW_MS,
            slowlog_capacity: DEFAULT_SLOWLOG_CAPACITY,
            federation: None,
        }
    }
}

/// Content digest of a graph: FNV-1a over the vertex count, the canonical
/// edge list, and (when weighted) the raw weight bits. Two graphs digest
/// equally iff their serialized structure is byte-identical, so clients
/// can verify "the daemon computed exactly what a local run would" without
/// shipping the graph back.
pub fn graph_digest(g: &CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.num_vertices() as u64);
    for &(u, v) in g.edge_slice() {
        eat((u64::from(u)) << 32 | u64::from(v));
    }
    if let Some(weights) = g.weight_slice() {
        for &w in weights {
            eat(u64::from(w.to_bits()));
        }
    }
    h
}

/// Compares secrets without an early exit, so response timing does not
/// leak how long a matching prefix was.
fn token_eq(expected: &str, presented: &str) -> bool {
    let (a, b) = (expected.as_bytes(), presented.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Whether `listen` requires token auth: any TCP bind that is not
/// provably loopback (unix sockets are same-host by construction).
fn non_loopback(listen: &str) -> bool {
    if listen.starts_with(UNIX_PREFIX) {
        return false;
    }
    let host = listen.rsplit_once(':').map_or(listen, |(h, _)| h);
    let host = host.trim_start_matches('[').trim_end_matches(']');
    if host == "localhost" {
        return false;
    }
    match host.parse::<std::net::IpAddr>() {
        Ok(ip) => !ip.is_loopback(),
        Err(_) => true, // unresolvable hostname: assume reachable, require auth
    }
}

/// Per-daemon observability: a dedicated [`sg_obs::Registry`] (so
/// concurrent daemons in one process — the integration tests spawn
/// several — don't blend request metrics) plus pre-resolved handles for
/// every hot-path counter. The `stats` response reads its numbers from
/// here, and the `metrics` op exposes the whole registry (merged with
/// the process-global one carrying session/cache/pool-shim metrics).
struct ServeMetrics {
    registry: sg_obs::Registry,
    requests: Arc<sg_obs::Counter>,
    errors: Arc<sg_obs::Counter>,
    admitted: Arc<sg_obs::Counter>,
    busy_rejected: Arc<sg_obs::Counter>,
    timeouts: Arc<sg_obs::Counter>,
    frames_rejected: Arc<sg_obs::Counter>,
    auth_failures: Arc<sg_obs::Counter>,
    /// Requests whose service time met the slowlog threshold.
    slow_requests: Arc<sg_obs::Counter>,
    /// Registrations whose accuracy baseline / digest the facts ledger
    /// had to compute (each at most once per registration).
    baselines_computed: Arc<sg_obs::Counter>,
    digests_computed: Arc<sg_obs::Counter>,
    active: Arc<sg_obs::Gauge>,
    peak_active: Arc<sg_obs::Gauge>,
    /// Admission-to-worker-pickup wait per connection.
    queue_wait: Arc<sg_obs::Histogram>,
    /// Request parse+dispatch+render time, all ops pooled (per-op
    /// variants are registered on demand as `serve.service_ms.<op>`).
    service: Arc<sg_obs::Histogram>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = sg_obs::Registry::new();
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            admitted: registry.counter("serve.admitted"),
            busy_rejected: registry.counter("serve.busy_rejected"),
            timeouts: registry.counter("serve.timeouts"),
            frames_rejected: registry.counter("serve.frames_rejected"),
            auth_failures: registry.counter("serve.auth_failures"),
            slow_requests: registry.counter("serve.slow_requests"),
            baselines_computed: registry.counter("serve.facts.baseline_computed"),
            digests_computed: registry.counter("serve.facts.digest_computed"),
            active: registry.gauge("serve.active"),
            peak_active: registry.gauge("serve.peak_active"),
            queue_wait: registry.histogram("serve.queue_wait_ms"),
            service: registry.histogram("serve.service_ms"),
            registry,
        }
    }

    /// Records one served request in the pooled and per-op service-time
    /// histograms.
    fn observe_service(&self, op: &str, elapsed: Duration) {
        self.service.observe(elapsed);
        self.registry.histogram(&format!("serve.service_ms.{op}")).observe(elapsed);
    }
}

/// What the daemon derives from a *loaded* graph, once per registration: a
/// registration is an immutable graph under a [`GraphId`] that is never
/// recycled, so neither fact can go stale. Each is computed under its own
/// `OnceLock` — a second request needing it meanwhile waits instead of
/// recomputing.
#[derive(Default)]
struct GraphFacts {
    /// [`graph_digest`] of the registered graph.
    digest: OnceLock<u64>,
    /// The original's side of every `analyze` report (≤ 8 n bytes).
    baseline: OnceLock<AccuracyBaseline>,
}

/// Shared daemon state.
struct ServeState {
    session: SgSession,
    /// The facts ledger, one entry per registration some request needed a
    /// fact of. Locked only to find, add or drop an entry — never while a
    /// fact is computed.
    facts: Mutex<BTreeMap<GraphId, Arc<GraphFacts>>>,
    uploads: UploadRegistry,
    quotas: QuotaBook,
    started: Instant,
    next_conn: AtomicU64,
    /// Source of server-generated trace ids (requests whose envelope
    /// carried no client `"id"`).
    next_trace: AtomicU64,
    metrics: ServeMetrics,
    slowlog: SlowLog,
    shutdown: AtomicBool,
    addr: String,
    /// The daemon's configuration, with its floors applied (at least one
    /// worker, a 1 ms frame deadline, a 1 KiB frame cap).
    cfg: ServeConfig,
}

impl ServeState {
    fn ledger(&self) -> std::sync::MutexGuard<'_, BTreeMap<GraphId, Arc<GraphFacts>>> {
        // Every update is one map operation, so a poisoned ledger is intact.
        self.facts.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The facts of `handle`'s registration. A request can outlive its
    /// registration (evicted mid-flight); its facts then live for that
    /// request only, not in a ledger no eviction would clean.
    fn facts(&self, handle: &GraphHandle) -> Arc<GraphFacts> {
        let mut ledger = self.ledger();
        if let Some(facts) = ledger.get(&handle.id()) {
            return Arc::clone(facts);
        }
        let facts = Arc::new(GraphFacts::default());
        // Checked under the ledger lock: `unregister` removes the catalog
        // entry first and the ledger entry second, so a registration still
        // in the catalog is one whose eviction will yet find this entry.
        if self.session.catalog().get(handle.name()).is_some_and(|h| h.id() == handle.id()) {
            ledger.insert(handle.id(), Arc::clone(&facts));
        }
        facts
    }

    /// [`graph_digest`] of a catalog graph, as the 16 hex digits of the
    /// wire, computed once per registration.
    fn input_checksum(&self, handle: &GraphHandle) -> String {
        let digest = *self.facts(handle).digest.get_or_init(|| {
            self.metrics.digests_computed.inc();
            graph_digest(handle.graph())
        });
        format!("{digest:016x}")
    }

    /// Drops the registration `name` and everything derived from it: the
    /// catalog entry, its stage-cache entries, its facts. Returns the
    /// evicted handle and the number of cache entries dropped.
    fn unregister(&self, name: &str) -> Option<(GraphHandle, usize)> {
        let evicted = self.session.evict(name)?;
        self.ledger().remove(&evicted.0.id());
        Some(evicted)
    }

    /// Wakes the accept loop after the shutdown flag flips (a blocked
    /// `accept` only returns on a connection).
    fn wake_acceptor(&self) {
        let _ = Stream::connect(&self.addr);
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn log_event(&self, op: &str, ok: bool, elapsed: Duration) {
        if !self.cfg.transcript {
            return;
        }
        let event = Json::obj()
            .with("event", Json::str("request"))
            .with("op", Json::str(op))
            .with("ok", Json::Bool(ok))
            .with("ms", Json::f64(elapsed.as_secs_f64() * 1e3));
        println!("{}", event.render());
    }
}

/// Identity of one connection: the quota peer plus the upload-ownership
/// conn id.
struct ConnCtx {
    conn_id: u64,
    peer: String,
}

/// A bound (but not yet running) daemon. Binding and running are split so
/// callers can learn the resolved ephemeral address before blocking.
pub struct Server {
    listener: Listener,
    queue: ConnQueue,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the configured address and prepares the shared session.
    /// Non-loopback TCP binds are refused unless a token is configured.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        if non_loopback(&cfg.listen) && cfg.token.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("refusing non-loopback bind {} without a token (set --token)", cfg.listen),
            ));
        }
        if cfg.federation.as_ref().is_some_and(|f| f.workers.is_empty()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "coordinator mode needs at least one worker address (set --worker-addr)",
            ));
        }
        let listener = Listener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let session = SgSession::with_cache(
            Arc::new(GraphCatalog::new()),
            Arc::new(SchemeRegistry::with_defaults()),
            Arc::new(StageCache::with_capacity(cfg.cache_bytes)),
        );
        let uploads = UploadRegistry::new(Duration::from_millis(cfg.upload_grace_ms))?;
        Ok(Server {
            listener,
            queue: ConnQueue::new(cfg.queue_depth),
            state: Arc::new(ServeState {
                session,
                facts: Mutex::new(BTreeMap::new()),
                uploads,
                quotas: QuotaBook::new(cfg.catalog_quota_bytes, cfg.cache_quota_bytes),
                started: Instant::now(),
                next_conn: AtomicU64::new(1),
                next_trace: AtomicU64::new(1),
                metrics: ServeMetrics::new(),
                slowlog: SlowLog::new(cfg.slow_ms, cfg.slowlog_capacity),
                shutdown: AtomicBool::new(false),
                addr,
                cfg: ServeConfig {
                    workers: cfg.workers.max(1),
                    read_timeout_ms: cfg.read_timeout_ms.max(1),
                    max_frame_bytes: cfg.max_frame_bytes.max(1024),
                    ..cfg.clone()
                },
            }),
        })
    }

    /// The connectable address (the resolved port for `…:0` binds).
    pub fn local_addr(&self) -> &str {
        &self.state.addr
    }

    /// Runs the acceptor + worker pool until a `shutdown` request
    /// arrives. All threads are joined before this returns, so no
    /// request is abandoned mid-flight.
    pub fn run(self) -> std::io::Result<()> {
        let state = &self.state;
        let queue = &self.queue;
        std::thread::scope(|scope| {
            for _ in 0..state.cfg.workers {
                scope.spawn(move || worker_loop(state, queue));
            }
            let result = loop {
                let accepted = self.listener.accept();
                if state.shutdown.load(Ordering::SeqCst) {
                    break Ok(()); // the wake-up connection, or a late client
                }
                let conn = match accepted {
                    Ok(conn) => conn,
                    Err(e) => break Err(e),
                };
                if let Err(conn) = queue.try_push(conn) {
                    state.metrics.busy_rejected.inc();
                    // A rejection write can block on a hostile client; a
                    // short scoped thread keeps the acceptor hot and is
                    // itself bounded by the write timeout.
                    scope.spawn(move || reject_busy(state, conn));
                }
            };
            // Unblock every worker; queued-but-unserved connections are
            // dropped (their clients see EOF).
            queue.close();
            result
        })
    }
}

/// Turns an over-capacity connection away with `busy`. The short write
/// timeout bounds what a hostile peer can cost the rejecting thread.
fn reject_busy(state: &ServeState, mut stream: Stream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    farewell(&mut stream, ProtoError::busy(state.cfg.retry_after_ms));
}

/// One session worker: serve queued connections until shutdown.
fn worker_loop(state: &ServeState, queue: &ConnQueue) {
    while let Some((conn, waited)) = queue.pop() {
        if state.shutdown.load(Ordering::SeqCst) {
            continue; // drain mode: drop without serving
        }
        let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        state.metrics.admitted.inc();
        state.metrics.queue_wait.observe(waited);
        state.metrics.active.add(1);
        state.metrics.peak_active.max_of(state.metrics.active.get());
        handle_connection(state, conn_id, conn, waited);
        state.metrics.active.sub(1);
        // Partial uploads owned by this connection are orphaned (resumable
        // within the grace period) or reaped, and expired orphans from
        // other connections go with them.
        state.uploads.disconnect(conn_id);
        state.uploads.reap();
    }
}

/// What the framing loop produced.
enum Frame {
    /// One complete request line (newline stripped).
    Line(String),
    /// Nothing more to serve: clean end of stream, the peer vanished, or
    /// the daemon is shutting down.
    Gone,
    /// The connection is dropped for cause — the frame outgrew the size
    /// cap, or its deadline expired with a partial request buffered.
    Rejected(ProtoError),
}

/// Accumulates bytes until a newline. The *socket* timeout is
/// [`DRAIN_POLL`] (shutdown-flag granularity); the *frame* deadline is
/// `read_timeout_ms`, measured from the first buffered byte of the
/// current frame — an idle connection with an empty buffer has no
/// deadline, so slow-but-legal clients are never cut.
fn next_frame(state: &ServeState, stream: &mut Stream, buf: &mut Vec<u8>) -> Frame {
    let cap = state.cfg.max_frame_bytes;
    let too_large = || {
        state.metrics.frames_rejected.inc();
        let message = format!("request frame exceeds {cap} bytes");
        Frame::Rejected(ProtoError::new(ErrorCode::FrameTooLarge, message))
    };
    let mut frame_started = (!buf.is_empty()).then(Instant::now);
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos > cap {
                return too_large();
            }
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            return Frame::Line(text.trim_end_matches('\r').to_string());
        }
        if buf.len() > cap {
            return too_large();
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return Frame::Gone;
        }
        let deadline = Duration::from_millis(state.cfg.read_timeout_ms);
        if frame_started.is_some_and(|started| started.elapsed() >= deadline) {
            state.metrics.timeouts.inc();
            let message = format!(
                "request frame incomplete after {} ms (deadline is measured from the frame's \
                 first byte)",
                state.cfg.read_timeout_ms
            );
            return Frame::Rejected(ProtoError::new(ErrorCode::Timeout, message));
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Frame::Gone,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                frame_started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return Frame::Gone,
        }
    }
}

fn handle_connection(state: &ServeState, conn_id: u64, stream: Stream, queue_wait: Duration) {
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let ctx = ConnCtx { conn_id, peer: stream.peer_id() };
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match next_frame(state, &mut reader, &mut buf) {
            Frame::Line(line) => line,
            Frame::Gone => return,
            Frame::Rejected(err) => return farewell(&mut writer, err),
        };
        if line.trim().is_empty() {
            continue;
        }
        // A busy client sending back-to-back requests may never hit the
        // poll branch, so re-check the flag per request: once any client
        // asked for shutdown, no connection serves further work.
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        state.metrics.requests.inc();
        state.quotas.bump_requests(&ctx.peer);
        let started = Instant::now();
        let span = sg_obs::span!("serve.request");
        let served = serve(state, &ctx, line.trim());
        observe(state, &ctx, &served, started.elapsed(), queue_wait, span);
        let written = write_response(&mut writer, served.id, served.outcome.map(|r| r.body));
        // Set by the `shutdown` handler (this connection's or another's).
        if state.shutdown.load(Ordering::SeqCst) {
            state.wake_acceptor();
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// Envelopes `outcome` and writes it as one line: the one place a
/// response is built and the one way it reaches the wire.
fn write_response(
    writer: &mut Stream,
    id: Option<Json>,
    outcome: Result<Json, ProtoError>,
) -> std::io::Result<()> {
    let mut line = proto::response(id, outcome).render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Writes one final error and half-closes, for connections being dropped
/// for cause. The half-close (FIN, not RST) plus a brief drain of
/// whatever the client is still sending keeps the error line
/// deliverable: closing with unread bytes pending would RST the response
/// out of the peer's receive buffer.
fn farewell(writer: &mut Stream, err: ProtoError) {
    let _ = write_response(writer, None, Err(err));
    let _ = writer.shutdown_write();
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match writer.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// What a handler hands back to the shell: the response body, and — for
/// the ops that run a pipeline — how many of its stages `(executed, came
/// from the cache)`, so the shell can observe that without re-reading
/// the body.
struct Reply {
    body: Json,
    stages: Option<(u64, u64)>,
}

/// One request line, served: who asked for what (the op for the
/// transcript and per-op histograms, the graph it targeted, the trace id
/// correlating its spans and slowlog record) and the outcome to envelope
/// under the echoed `id`.
struct Served {
    op: String,
    graph: Option<String>,
    trace_id: String,
    id: Option<Json>,
    outcome: Result<Reply, ProtoError>,
}

/// The request's trace id: the client-supplied envelope `"id"` (string
/// form) when present, else a fresh server-generated `srv-N`. Purely
/// observational — it tags spans and the slowlog, never the result.
fn trace_id_for(state: &ServeState, id: Option<&Json>) -> String {
    match id {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(Json::Str(_)) | None => {
            format!("srv-{}", state.next_trace.fetch_add(1, Ordering::Relaxed))
        }
        Some(other) => other.render(),
    }
}

/// The request path up to the outcome: parse, policy (trace id, auth),
/// handle. A line that does not parse is op `invalid` and echoes no id.
fn serve(state: &ServeState, ctx: &ConnCtx, line: &str) -> Served {
    let Envelope { request, id, token, op, graph } = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(err) => {
            return Served {
                op: "invalid".to_string(),
                graph: None,
                trace_id: trace_id_for(state, None),
                id: None,
                outcome: Err(err),
            }
        }
    };
    let trace_id = trace_id_for(state, id.as_ref());
    // From here to the end of the handler, every span this worker thread
    // opens — session.run, session.stage, anything deeper — carries the
    // request's trace id.
    let _trace_ctx = sg_obs::trace::set_trace_id(&trace_id);
    let outcome = authorize(state, &op, token.as_deref())
        .and_then(|()| contain_panic(&op, || handle(state, ctx, request)));
    Served { op, graph, trace_id, id, outcome }
}

/// Runs a request's handler, turning a panic into an `internal` error so
/// the worker thread and the connection outlive it. A panic inside a
/// parallel kernel reaches here too: the pool re-raises it on the thread
/// that submitted the work.
fn contain_panic<T>(
    op: &str,
    handler: impl FnOnce() -> Result<T, ProtoError>,
) -> Result<T, ProtoError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Err(ProtoError::new(ErrorCode::Internal, format!("the '{op}' handler panicked: {detail}")))
    })
}

/// Everything except the liveness probe requires the shared secret when
/// one is configured.
fn authorize(state: &ServeState, op: &str, token: Option<&str>) -> Result<(), ProtoError> {
    let Some(expected) = &state.cfg.token else { return Ok(()) };
    if op == "ping" || token.is_some_and(|presented| token_eq(expected, presented)) {
        return Ok(());
    }
    state.metrics.auth_failures.inc();
    Err(ProtoError::new(
        ErrorCode::AuthRequired,
        "this daemon requires a token (send \"token\" in the request envelope)",
    ))
}

/// Everything the daemon records about a served request — error and
/// service-time metrics, the request span's args, the slowlog, the
/// transcript — read from the outcome itself.
fn observe(
    state: &ServeState,
    ctx: &ConnCtx,
    served: &Served,
    elapsed: Duration,
    queue_wait: Duration,
    mut span: sg_obs::Span,
) {
    let ok = served.outcome.is_ok();
    let stages = served.outcome.as_ref().ok().and_then(|reply| reply.stages);
    if !ok {
        state.metrics.errors.inc();
    }
    state.metrics.observe_service(&served.op, elapsed);
    if span.is_recording() {
        span.arg("op", served.op.as_str());
        span.arg("trace", served.trace_id.as_str());
        span.arg("ok", if ok { "true" } else { "false" });
        if let Some(graph) = &served.graph {
            span.arg("graph", graph.as_str());
        }
        // How much of the pipeline was served from the stage cache.
        if let Some((executed, cached)) = stages {
            span.arg("stages_cached", cached.to_string());
            span.arg("stages_executed", executed.to_string());
        }
    }
    drop(span);
    let service_ms = elapsed.as_secs_f64() * 1e3;
    if state.slowlog.qualifies(service_ms) {
        state.metrics.slow_requests.inc();
        state.slowlog.record(SlowRecord {
            seq: 0, // assigned at insert
            op: served.op.clone(),
            trace_id: served.trace_id.clone(),
            peer: ctx.peer.clone(),
            graph: served.graph.clone(),
            ok,
            queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
            service_ms,
            stages_executed: stages.map(|(executed, _)| executed),
            stages_cached: stages.map(|(_, cached)| cached),
            uptime_ms: state.uptime_ms(),
        });
    }
    state.log_event(&served.op, ok, elapsed);
}

fn unknown_graph(name: &str) -> ProtoError {
    ProtoError::new(ErrorCode::UnknownGraph, format!("no graph loaded as '{name}'"))
}

fn lookup(state: &ServeState, name: &str) -> Result<GraphHandle, ProtoError> {
    state.session.catalog().get(name).ok_or_else(|| unknown_graph(name))
}

fn bad_spec(message: String) -> ProtoError {
    ProtoError::new(ErrorCode::BadSpec, message)
}

/// The fields every description of a catalog graph starts with (`load`
/// and committed `upload` responses, `stats` of one graph, the `stats`
/// listing).
fn describe(handle: &GraphHandle) -> Json {
    Json::obj()
        .with("name", Json::str(handle.name()))
        .with("graph_id", Json::u64(handle.id().0))
        .with("source", Json::str(handle.source()))
        .with("vertices", Json::u64(handle.graph().num_vertices() as u64))
        .with("edges", Json::u64(handle.graph().num_edges() as u64))
}

/// The stage-cache counters of `stats` and `metrics`.
fn cache_block(state: &ServeState) -> Json {
    let cache = state.session.cache().stats();
    Json::obj()
        .with("entries", Json::u64(cache.entries as u64))
        .with("bytes", Json::u64(cache.bytes as u64))
        .with("hits", Json::u64(cache.hits))
        .with("misses", Json::u64(cache.misses))
        .with("evictions", Json::u64(cache.evictions))
}

/// The build identity of `stats` and `metrics` (`stats` appends the
/// front-line counters).
fn server_block(state: &ServeState) -> Json {
    Json::obj()
        .with("build", Json::str(env!("CARGO_PKG_VERSION")))
        .with("protocol_version", Json::u64(PROTOCOL_VERSION))
        .with("workers", Json::u64(state.cfg.workers as u64))
}

/// Runs one request and returns its response body (the shell envelopes
/// it). Only `compress` / `analyze` report stage counts beside the body.
fn handle(state: &ServeState, ctx: &ConnCtx, request: Request) -> Result<Reply, ProtoError> {
    let body = match request {
        Request::Compress { graph, spec, seed, output, output_format } => {
            let ran = run_or_federate(state, ctx, &graph, &spec, seed)?;
            let mut body = run_body(&ran.run);
            if let Some(path) = output {
                sg_core::catalog::save_graph_with(
                    &ran.run.graph,
                    &path,
                    output_format.as_deref(),
                    sg_store::Encoding::Raw,
                )
                .map_err(|e| ProtoError::new(ErrorCode::Io, e))?;
                body = body.with("output", Json::str(path));
            }
            return Ok(ran.reply(body));
        }
        Request::Analyze { graph, spec, seed } => {
            let ran = run_or_federate(state, ctx, &graph, &spec, seed)?;
            let original = ran.input.graph();
            let facts = state.facts(&ran.input);
            let baseline = facts.baseline.get_or_init(|| {
                state.metrics.baselines_computed.inc();
                let _span = sg_obs::span!("serve.facts.baseline", graph = ran.input.name());
                // What every report reads; BFS-critical waits for a kept vertex set.
                let baseline = AccuracyBaseline::default();
                for metric in [Metric::ComponentsRel, Metric::TrianglesRel, Metric::PagerankKl] {
                    baseline.fill(metric, original, original);
                }
                baseline
            });
            let mapping = ran.run.vertex_mapping.as_deref().map(Vec::as_slice);
            let report = baseline.compare(original, original, &ran.run.graph, mapping);
            let [cc0, cc1] = report.components.map(|n| Json::u64(n as u64));
            let [tc0, tc1] = report.triangles.map(Json::u64);
            let metrics = Json::obj()
                .with("components", Json::Arr(vec![cc0, cc1]))
                .with("triangles", Json::Arr(vec![tc0, tc1]))
                .with("pagerank_kl", report.pagerank_kl.map_or(Json::Null, Json::f64))
                .with("bfs_critical_kept", report.bfs_critical_kept.map_or(Json::Null, Json::f64));
            let body = run_body(&ran.run).with("metrics", metrics);
            return Ok(ran.reply(body));
        }
        Request::Ping => Json::obj().with("pong", Json::Bool(true)),
        Request::Load { name, path, format, no_verify } => {
            let fresh = state.session.catalog().get(&name).is_none();
            let (handle, loaded) = state
                .session
                .catalog()
                .open(&name, &path, format.as_deref(), no_verify)
                .map_err(|e| ProtoError::new(ErrorCode::Io, e))?;
            if loaded && fresh {
                let bytes = handle.approx_bytes() as u64;
                if let Err(err) = state.quotas.charge_catalog(&ctx.peer, &name, bytes) {
                    state.unregister(&name);
                    return Err(err);
                }
            }
            describe(&handle).with("loaded", Json::Bool(loaded))
        }
        Request::Upload { name, phase } => handle_upload(state, ctx, &name, phase)?,
        Request::ShardRun { graph, spec, seed, shard, shards } => {
            shard_run(state, &graph, &spec, seed, shard, shards)?
        }
        Request::Federation => federation_status(state),
        Request::Stats { graph: Some(name) } => {
            let handle = lookup(state, &name)?;
            let g = handle.graph();
            let stats = sg_graph::properties::degree_stats(g);
            describe(&handle)
                .with("weighted", Json::Bool(g.is_weighted()))
                .with("bytes", Json::u64(handle.approx_bytes() as u64))
                .with(
                    "degrees",
                    Json::obj()
                        .with("min", Json::u64(stats.min as u64))
                        .with("mean", Json::f64(stats.mean))
                        .with("max", Json::u64(stats.max as u64)),
                )
                .with("components", Json::u64(cc::connected_components(g).num_components as u64))
        }
        Request::Stats { graph: None } => {
            let graphs: Vec<Json> = state
                .session
                .catalog()
                .list()
                .iter()
                .map(|h| describe(h).with("bytes", Json::u64(h.approx_bytes() as u64)))
                .collect();
            let m = &state.metrics;
            let server = server_block(state)
                .with("active", Json::u64(m.active.get().max(0) as u64))
                .with("peak_active", Json::u64(m.peak_active.get().max(0) as u64))
                .with("admitted", Json::u64(m.admitted.get()))
                .with("busy_rejected", Json::u64(m.busy_rejected.get()))
                .with("timeouts", Json::u64(m.timeouts.get()))
                .with("frames_rejected", Json::u64(m.frames_rejected.get()))
                .with("auth_failures", Json::u64(m.auth_failures.get()));
            let uploads: Vec<Json> = state
                .uploads
                .snapshot()
                .into_iter()
                .map(|u| {
                    Json::obj()
                        .with("name", Json::str(u.name))
                        .with("peer", Json::str(u.peer))
                        .with("received", Json::u64(u.received))
                        .with("total_bytes", Json::u64(u.total_bytes))
                        .with("orphaned", Json::Bool(u.orphaned))
                })
                .collect();
            Json::obj()
                .with("graphs", Json::Arr(graphs))
                .with("catalog_bytes", Json::u64(state.session.catalog().total_bytes() as u64))
                .with("cache", cache_block(state))
                .with("server", server)
                .with("clients", Json::Arr(state.quotas.snapshot()))
                .with("uploads", Json::Arr(uploads))
                .with("requests", Json::u64(m.requests.get()))
                .with("uptime_ms", Json::u64(state.uptime_ms()))
        }
        Request::Metrics => {
            // One snapshot covering both registries: this daemon's own
            // (request/queue/pool-front metrics) merged with the
            // process-global one (session stages, StageCache, the rayon
            // shim's chunk gauges). In-process embedders running several
            // daemons share the global half; the serve.* half is always
            // exclusively this daemon's.
            let snapshot = state.metrics.registry.snapshot().merged(sg_obs::global_snapshot());
            Json::obj()
                .with("metrics", snapshot_json(&snapshot))
                .with("cache", cache_block(state))
                .with("server", server_block(state))
                .with("uptime_ms", Json::u64(state.uptime_ms()))
        }
        Request::Slowlog => {
            let (records, total) = state.slowlog.snapshot();
            let entries: Vec<Json> = records.iter().map(SlowRecord::to_json).collect();
            Json::obj()
                .with("slow_ms", Json::u64(state.slowlog.slow_ms()))
                .with("capacity", Json::u64(state.slowlog.capacity() as u64))
                .with("recorded", Json::u64(total))
                .with("returned", Json::u64(entries.len() as u64))
                .with("slowlog", Json::Arr(entries))
        }
        Request::Evict { graph, cache } => {
            let mut body = Json::obj();
            if let Some(name) = graph {
                let (handle, purged) =
                    state.unregister(&name).ok_or_else(|| unknown_graph(&name))?;
                state.quotas.release_graph(&name);
                body = body
                    .with("evicted", Json::str(handle.name()))
                    .with("cache_entries_dropped", Json::u64(purged as u64));
            }
            if cache {
                let dropped = state.session.cache().clear();
                state.quotas.reset_cache();
                body = body.with("cache_cleared", Json::u64(dropped as u64));
            }
            body
        }
        Request::Shutdown => {
            // Every connection stops serving at its next frame; this one
            // wakes the acceptor once its acknowledgement is written.
            state.shutdown.store(true, Ordering::SeqCst);
            Json::obj().with("shutting_down", Json::Bool(true))
        }
    };
    Ok(Reply { body, stages: None })
}

fn handle_upload(
    state: &ServeState,
    ctx: &ConnCtx,
    name: &str,
    phase: UploadPhase,
) -> Result<Json, ProtoError> {
    match phase {
        UploadPhase::Begin { total_bytes, digest, format } => {
            if state.session.catalog().get(name).is_some() {
                return Err(bad_request(format!(
                    "graph '{name}' is already loaded (evict it to replace)"
                )));
            }
            // Early headroom check on the declared *file* size; the
            // binding check happens at commit against the loaded graph's
            // real footprint.
            state.quotas.check_catalog_headroom(&ctx.peer, total_bytes)?;
            let offset = state.uploads.begin(
                ctx.conn_id,
                &ctx.peer,
                name,
                total_bytes,
                &digest,
                format.as_deref(),
            )?;
            Ok(Json::obj()
                .with("name", Json::str(name))
                .with("offset", Json::u64(offset))
                .with("resumed", Json::Bool(offset > 0)))
        }
        UploadPhase::Chunk { offset, data } => {
            let bytes = b64::decode(&data).map_err(|e| bad_request(format!("chunk data: {e}")))?;
            let received = state.uploads.chunk(ctx.conn_id, name, offset, &bytes)?;
            Ok(Json::obj().with("name", Json::str(name)).with("received", Json::u64(received)))
        }
        UploadPhase::Commit => {
            let finished = state.uploads.commit(ctx.conn_id, name)?;
            let spool = finished.path.to_string_lossy().into_owned();
            // The declared format applies to the uploaded bytes; with
            // none given, infer from the catalog name's extension (the
            // spool path carries no meaningful one).
            let inferred = GraphFormat::resolve(name, None).map_or("text", GraphFormat::name);
            let format = finished.format.as_deref().unwrap_or(inferred);
            let loaded = sg_core::catalog::load_graph(&spool, Some(format), false);
            state.uploads.discard_spool(&finished);
            let corrupted = |what: String| {
                let message = format!("{what} — transfer corrupted, upload dropped");
                ProtoError::new(ErrorCode::DigestMismatch, message)
            };
            // The client proved the file loadable when it computed the
            // declared digest, so a spool that fails to load here means
            // the transfer corrupted it.
            let graph =
                loaded.map_err(|e| corrupted(format!("uploaded bytes do not load ({e})")))?;
            let digest = graph_digest(&graph);
            let actual = format!("{digest:016x}");
            if actual != finished.digest {
                return Err(corrupted(format!(
                    "uploaded graph digests to {actual}, client declared {}",
                    finished.digest
                )));
            }
            // Register under the uploader's catalog quota; a blown budget
            // rolls the registration back.
            let bytes = sg_core::graph_approx_bytes(&graph) as u64;
            let source = format!("upload:{}", finished.peer);
            let catalog = state.session.catalog();
            let handle = catalog.insert(name, graph, &source).map_err(bad_request)?;
            if let Err(err) = state.quotas.charge_catalog(&finished.peer, name, bytes) {
                state.unregister(name);
                return Err(err);
            }
            // The digest just verified is the registration's.
            let _ = state.facts(&handle).digest.set(digest);
            Ok(describe(&handle)
                .with("loaded", Json::Bool(true))
                .with("checksum", Json::str(actual))
                .with("uploaded_bytes", Json::u64(finished.total_bytes)))
        }
        UploadPhase::Abort => {
            state.uploads.abort(ctx.conn_id, name)?;
            Ok(Json::obj().with("name", Json::str(name)).with("aborted", Json::Bool(true)))
        }
    }
}

/// Renders a registry snapshot as the `metrics` response body: flat
/// name→value objects for counters and gauges, and per-histogram objects
/// with cumulative (Prometheus-style `le`) buckets. The final bucket's
/// bound is the string `"+Inf"`; every earlier `le` is milliseconds.
/// Also the format of the CLI's `--metrics-out` dump.
pub fn snapshot_json(snapshot: &sg_obs::Snapshot) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &snapshot.counters {
        counters = counters.with(name, Json::u64(*value));
    }
    let mut gauges = Json::obj();
    for (name, value) in &snapshot.gauges {
        gauges = gauges.with(name, Json::f64(*value as f64));
    }
    let mut histograms = Json::obj();
    for hist in &snapshot.histograms {
        let buckets: Vec<Json> = hist
            .cumulative
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let le = match hist.bounds_ms.get(i) {
                    Some(bound) => Json::f64(*bound),
                    None => Json::str("+Inf"),
                };
                Json::obj().with("le", le).with("count", Json::u64(count))
            })
            .collect();
        histograms = histograms.with(
            &hist.name,
            Json::obj()
                .with("count", Json::u64(hist.count()))
                .with("sum_ms", Json::f64(hist.sum_ms))
                .with("buckets", Json::Arr(buckets)),
        );
    }
    Json::obj().with("counters", counters).with("gauges", gauges).with("histograms", histograms)
}

/// A served compress/analyze request: the catalog graph it ran against,
/// the run, and — on a coordinator — the response's `federation` block
/// (`{"mode":"federated",…}` or `{"mode":"local","reason":…}`).
struct Ran {
    input: GraphHandle,
    run: SessionRun,
    federation: Option<Json>,
}

impl Ran {
    /// Closes `body` (the [`run_body`] plus the op's own fields) with the
    /// `federation` block and sets the run's stage counts beside it.
    fn reply(self, mut body: Json) -> Reply {
        if let Some(block) = self.federation {
            body = body.with("federation", block);
        }
        let stages = (self.run.stages_executed() as u64, self.run.stages_cached() as u64);
        Reply { body, stages: Some(stages) }
    }
}

/// Runs a compress/analyze request locally or — on a coordinator, when
/// the plan is federable — across the worker fleet. The graph is looked
/// up and the spec parsed once, here, for every path below.
fn run_or_federate(
    state: &ServeState,
    ctx: &ConnCtx,
    graph: &str,
    spec: &str,
    seed: u64,
) -> Result<Ran, ProtoError> {
    let input = lookup(state, graph)?;
    let spec = PipelineSpec::parse(spec).map_err(bad_spec)?;
    let (run, federation) = match &state.cfg.federation {
        None => (run_pipeline(state, ctx, &input, &spec, seed)?, None),
        Some(cfg) => {
            let (run, block) = federated_run(state, ctx, cfg, &input, &spec, seed)?;
            (run, Some(block))
        }
    };
    Ok(Ran { input, run, federation })
}

fn run_pipeline(
    state: &ServeState,
    ctx: &ConnCtx,
    input: &GraphHandle,
    spec: &PipelineSpec,
    seed: u64,
) -> Result<SessionRun, ProtoError> {
    // Cache quota: peers whose executed stages have already filled their
    // cache byte budget are refused further pipeline work until they (or
    // anyone) clear the cache with `evict cache:true`.
    state.quotas.check_cache(&ctx.peer)?;
    let run = state.session.run(input, spec, seed).map_err(bad_spec)?;
    // Charge what this run newly materialized: executed (non-cached)
    // stage outputs. Approximate by design — cache evictions are not
    // refunded — and documented as such in PROTOCOL.md.
    let executed_bytes: u64 = run
        .stages
        .iter()
        .filter(|s| !s.cached)
        .filter_map(|s| s.graph.as_ref())
        .map(|g| sg_core::graph_approx_bytes(g) as u64)
        .sum();
    state.quotas.charge_cache(&ctx.peer, executed_bytes);
    Ok(run)
}

/// The coordinator path: classify the spec, fan `shard_run` requests out
/// to the workers, verify replica digests, and merge the shard outcomes
/// into a [`SessionRun`] shaped exactly like a local one (so
/// [`run_body`] emits the same contract fields, `checksum` included).
/// Plans that need cross-shard state (multi-stage chains, Edge-Once
/// disciplines, global rewrites) run on the coordinator itself. Returns
/// the run with the response's `federation` block, which says which of
/// the two happened (and, for a local run, why).
fn federated_run(
    state: &ServeState,
    ctx: &ConnCtx,
    cfg: &FedConfig,
    handle: &GraphHandle,
    spec: &PipelineSpec,
    seed: u64,
) -> Result<(SessionRun, Json), ProtoError> {
    let local = |reason: String| {
        state.metrics.registry.counter("fed.local_fallbacks").inc();
        Ok((run_pipeline(state, ctx, handle, spec, seed)?, fed::local_block(&reason)))
    };
    // Federation works in single-stage chains, on both sides.
    let pipeline = spec.build(state.session.registry()).map_err(bad_spec)?;
    let [scheme] = pipeline.stages() else {
        return local(format!(
            "only single-stage specs federate; this chain has {} stages",
            spec.len()
        ));
    };
    let input = handle.graph();
    if let Err(e) = sg_dist::federation_plan(input, scheme.as_ref()) {
        return local(e.to_string());
    }
    state.metrics.registry.counter("fed.requests").inc();
    let graph = handle.name();
    let local_checksum = state.input_checksum(handle);
    let trace_id = sg_obs::trace::current_trace_id().map(|id| id.to_string()).unwrap_or_default();
    let started = Instant::now();
    let _span = sg_obs::span!("fed.run", graph = graph, shards = cfg.workers.len());
    let reports = fed::fan_out(&fed::FanOut {
        cfg,
        registry: &state.metrics.registry,
        graph,
        source: handle.source(),
        local_checksum: &local_checksum,
        // Built with no base bag, the spec is its own resolved form.
        spec: &spec.render(),
        seed,
        trace_id: &trace_id,
    })?;
    let (merged, mapping) = fed::merge_reports(input, &reports);
    let block = fed::federation_block(&reports);
    let merged = Arc::new(merged);
    // Synthesize the one-stage run a local execution would have produced
    // (pipelines are pure in `(graph, spec, seed)` and
    // `Pipeline::stage_seed(seed, 0) == seed`, so the merged graph IS the
    // local stage output — the contract harness pins that bit-identity).
    let run = SessionRun {
        graph: Arc::clone(&merged),
        vertex_mapping: mapping.map(Arc::new),
        original_vertices: input.num_vertices(),
        original_edges: input.num_edges(),
        stages: vec![StageOutcome {
            report: StageReport {
                name: scheme.name().to_string(),
                label: scheme.label(),
                input_vertices: input.num_vertices(),
                input_edges: input.num_edges(),
                output_vertices: merged.num_vertices(),
                output_edges: merged.num_edges(),
                elapsed: started.elapsed(),
            },
            cached: false,
            graph: Some(merged),
        }],
    };
    Ok((run, block))
}

/// The worker side of federation: compute one shard of a single-stage
/// spec against the local replica and return the deletion/removal id
/// list plus the replica's digest (the coordinator refuses to merge
/// shards whose digests disagree with its own copy).
fn shard_run(
    state: &ServeState,
    graph: &str,
    spec: &str,
    seed: u64,
    shard: usize,
    shards: usize,
) -> Result<Json, ProtoError> {
    let handle = lookup(state, graph)?;
    let spec = PipelineSpec::parse(spec).map_err(bad_spec)?;
    let pipeline = spec.build(state.session.registry()).map_err(bad_spec)?;
    let [scheme] = pipeline.stages() else {
        return Err(bad_spec(format!(
            "shard_run takes a single-stage spec, got {} stages",
            spec.len()
        )));
    };
    let g = handle.graph();
    let started = Instant::now();
    let outcome =
        sg_dist::shard_compress(g, scheme.as_ref(), shard, shards, seed).map_err(|e| match e {
            sg_dist::DistError::InvalidShard { .. } | sg_dist::DistError::InvalidRanks { .. } => {
                bad_request(e.to_string())
            }
            other => bad_spec(other.to_string()),
        })?;
    let (kind, ids) = match outcome {
        sg_dist::ShardOutcome::Edges(edges) => ("edges", edges),
        sg_dist::ShardOutcome::Vertices(vertices) => ("vertices", vertices),
    };
    let ids: Vec<Json> = ids.into_iter().map(|id| Json::u64(u64::from(id))).collect();
    Ok(Json::obj()
        .with("graph", Json::str(graph))
        .with("kind", Json::str(kind))
        .with("count", Json::u64(ids.len() as u64))
        .with("ids", Json::Arr(ids))
        .with("shard", Json::u64(shard as u64))
        .with("shards", Json::u64(shards as u64))
        .with("checksum", Json::str(state.input_checksum(&handle)))
        .with("ms", Json::f64(started.elapsed().as_secs_f64() * 1e3)))
}

/// The `federation` status op: topology + live worker reachability on a
/// coordinator, `{"mode":"standalone"}` elsewhere.
fn federation_status(state: &ServeState) -> Json {
    let status = match &state.cfg.federation {
        None => Json::obj().with("mode", Json::str("standalone")),
        Some(cfg) => {
            let probe_timeout = Duration::from_millis(cfg.timeout_ms.clamp(1, 2_000));
            let workers: Vec<Json> = cfg
                .workers
                .iter()
                .map(|addr| {
                    Json::obj().with("addr", Json::str(addr.clone())).with(
                        "reachable",
                        Json::Bool(fed::probe_worker(addr, probe_timeout, cfg.token.as_deref())),
                    )
                })
                .collect();
            Json::obj()
                .with("mode", Json::str("coordinator"))
                .with("shards", Json::u64(cfg.workers.len() as u64))
                .with("retries", Json::u64(cfg.retries as u64))
                .with("timeout_ms", Json::u64(cfg.timeout_ms))
                .with("workers", Json::Arr(workers))
        }
    };
    Json::obj().with("federation", status)
}

/// The shared compress/analyze result fields: output shape, compression
/// ratio, content digest, per-stage reports with cache flags, and wall
/// times (`total_ms`, per-stage `ms`).
fn run_body(run: &SessionRun) -> Json {
    let stages: Vec<Json> = run
        .stages
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", Json::str(s.report.name.clone()))
                .with("label", Json::str(s.report.label.clone()))
                .with("input_edges", Json::u64(s.report.input_edges as u64))
                .with("output_edges", Json::u64(s.report.output_edges as u64))
                .with("ms", Json::f64(s.report.elapsed.as_secs_f64() * 1e3))
                .with("cached", Json::Bool(s.cached))
        })
        .collect();
    Json::obj()
        .with("vertices", Json::u64(run.graph.num_vertices() as u64))
        .with("edges", Json::u64(run.graph.num_edges() as u64))
        .with("original_vertices", Json::u64(run.original_vertices as u64))
        .with("original_edges", Json::u64(run.original_edges as u64))
        .with("ratio", Json::f64(run.compression_ratio()))
        .with("checksum", Json::str(format!("{:016x}", graph_digest(&run.graph))))
        .with("total_ms", Json::f64(run.elapsed().as_secs_f64() * 1e3))
        .with("stages_executed", Json::u64(run.stages_executed() as u64))
        .with("stages_cached", Json::u64(run.stages_cached() as u64))
        .with("stages", Json::Arr(stages))
        // Non-contractual (PROTOCOL.md): execution diagnostics for humans
        // and dashboards. Tests and clients must not assert on this block;
        // its shape may change in any release without a version bump.
        .with(
            "diagnostics",
            Json::obj()
                .with("stages_total", Json::u64(run.stages.len() as u64))
                .with("stages_executed", Json::u64(run.stages_executed() as u64)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_detection() {
        for addr in ["127.0.0.1:0", "localhost:9000", "[::1]:80", "unix:/tmp/x.sock"] {
            assert!(!non_loopback(addr), "{addr} is loopback");
        }
        for addr in ["0.0.0.0:9000", "192.168.1.4:9000", "[::]:80", "example.com:9000"] {
            assert!(non_loopback(addr), "{addr} is not loopback");
        }
    }

    #[test]
    fn token_compare_is_exact() {
        assert!(token_eq("sesame", "sesame"));
        assert!(!token_eq("sesame", "sesamE"));
        assert!(!token_eq("sesame", "sesam"));
        assert!(!token_eq("sesame", ""));
        assert!(!token_eq("", "sesame"));
        assert!(token_eq("", ""));
    }

    #[test]
    fn non_loopback_bind_requires_token() {
        let cfg = ServeConfig { listen: "0.0.0.0:0".to_string(), ..ServeConfig::default() };
        let err = match Server::bind(&cfg) {
            Err(err) => err,
            Ok(_) => panic!("tokenless non-loopback bind must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let cfg = ServeConfig { token: Some("secret".to_string()), ..cfg };
        let server = Server::bind(&cfg).expect("token unlocks the bind");
        drop(server);
    }

    #[test]
    fn a_panicking_handler_answers_internal_and_the_state_serves_on() {
        let cfg = ServeConfig { transcript: false, ..ServeConfig::default() };
        let server = Server::bind(&cfg).expect("bind a loopback daemon");
        let state = &server.state;
        let ctx = ConnCtx { conn_id: 1, peer: "test".to_string() };
        let outcome: Result<Reply, ProtoError> = contain_panic("analyze", || panic!("kernel bug"));
        let Err(err) = outcome else { panic!("a panicking handler must yield an error") };
        assert_eq!(err.code, ErrorCode::Internal);
        assert_eq!(err.message, "the 'analyze' handler panicked: kernel bug");
        let served = Served {
            op: "analyze".to_string(),
            graph: None,
            trace_id: "t".to_string(),
            id: None,
            outcome: Err(err),
        };
        observe(state, &ctx, &served, Duration::ZERO, Duration::ZERO, sg_obs::span!("test"));
        assert_eq!(state.metrics.errors.get(), 1, "counted like any other error");
        let next = serve(state, &ctx, r#"{"op":"ping"}"#);
        assert!(next.outcome.is_ok(), "the next request on the same state is served");
    }
}
