//! Multi-daemon federation: the coordinator side of `shard_run`.
//!
//! A coordinator daemon holds a full copy of the graph and a list of
//! *worker* daemons (stock `sg-serve` instances — workers need no special
//! configuration). A federable single-stage `compress`/`analyze` request
//! is split into `workers.len()` shards; each shard becomes one v2
//! `shard_run` request answered by a worker against its own full replica,
//! and the returned deletion/removal id lists are merged locally with
//! [`sg_dist::apply_edge_deletions`] / [`sg_dist::apply_vertex_removals`].
//!
//! Correctness rests on two pillars:
//!
//! * only schemes whose [`sg_dist::federation_plan`] admits independent
//!   shards are federated (edge kernels, Plain Triangle Reduction, vertex
//!   kernels) — the union of shard outcomes is then bit-identical to the
//!   shared-memory `scheme.apply`, the contract the harness's `Shards`
//!   axis pins. Everything else (Edge-Once disciplines, global rewrites,
//!   multi-stage chains) silently falls back to coordinator-local
//!   execution, reported in the response's `federation.mode`.
//! * every worker response carries the [`crate::server::graph_digest`] of
//!   the replica it computed against; a digest differing from the
//!   coordinator's copy aborts the request with `fed-digest-mismatch`
//!   rather than merging shards of different inputs.
//!
//! Failure handling: each shard gets `1 + retries` attempts, walking the
//! worker ring (`workers[(shard + attempt) % W]`), so a dead worker's
//! shards migrate to live ones. Each attempt dials its worker once: a
//! refused address moves the ring on at once, and an unanswering one costs
//! at most `timeout_ms` per connect / read / write. A worker that does not
//! know the graph is lazily sent a `load` with the coordinator's source
//! path first. When a shard exhausts its attempts the whole request fails
//! with `fed-shard-failed` — never a silently partial merge.

use crate::client::Client;
use crate::json::Json;
use crate::proto::{ErrorCode, ProtoError};
use sg_dist::ShardOutcome;
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::time::{Duration, Instant};

/// Federation settings of a coordinator daemon. A daemon with no
/// [`FedConfig`] is a plain worker/standalone instance.
#[derive(Clone, Debug)]
pub struct FedConfig {
    /// Worker daemon addresses (`host:port` or `unix:/path`). The shard
    /// count of every federated request equals the worker count.
    pub workers: Vec<String>,
    /// Extra attempts per shard beyond the first, each on the next
    /// worker in the ring.
    pub retries: usize,
    /// Per-attempt connect/read/write patience in milliseconds — the
    /// worker-death cutoff.
    pub timeout_ms: u64,
    /// Token presented to `--token`-protected workers.
    pub token: Option<String>,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self { workers: Vec::new(), retries: 1, timeout_ms: 5_000, token: None }
    }
}

/// One successfully served shard, as reported in the response's
/// `federation.workers` array.
pub(crate) struct ShardReport {
    pub addr: String,
    pub shard: usize,
    pub attempts: u64,
    pub checksum: String,
    pub ms: f64,
    pub ids: ShardOutcome,
}

/// Everything one fan-out needs, borrowed from the dispatching request.
pub(crate) struct FanOut<'a> {
    pub cfg: &'a FedConfig,
    /// The daemon's metrics registry (`fed.*` counters land here).
    pub registry: &'a sg_obs::Registry,
    /// Catalog name of the graph, shared by coordinator and workers.
    pub graph: &'a str,
    /// The coordinator's provenance for the graph (its load path) —
    /// forwarded to workers that don't have the replica yet.
    pub source: &'a str,
    /// Hex digest of the coordinator's copy; every shard must match.
    pub local_checksum: &'a str,
    /// Resolved single-stage spec text.
    pub spec: &'a str,
    pub seed: u64,
    /// Request trace id, re-installed inside each fan-out thread so the
    /// per-shard spans correlate with the request's.
    pub trace_id: &'a str,
}

enum ShardError {
    /// Worth another attempt on the next worker in the ring.
    Transient(String),
    /// The worker computed against different bytes; retrying other
    /// workers could silently mask a split-brain catalog, so this is
    /// fatal for the whole request.
    DigestMismatch(String),
}

/// Fans one federated request out to the workers, one thread per shard,
/// and collects per-shard reports in shard order. Errors map to the
/// stable codes `fed-shard-failed` / `fed-digest-mismatch`.
pub(crate) fn fan_out(job: &FanOut<'_>) -> Result<Vec<ShardReport>, ProtoError> {
    let shards = job.cfg.workers.len();
    job.registry.counter("fed.shards").add(shards as u64);
    // A shard thread that panics is re-raised here, on the request thread,
    // where `contain_panic` answers `internal`.
    let results: Vec<Result<ShardReport, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    let _trace = sg_obs::trace::set_trace_id(job.trace_id);
                    run_shard(job, shard, shards)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let mut reports = Vec::with_capacity(shards);
    for (shard, result) in results.into_iter().enumerate() {
        match result {
            Ok(report) => reports.push(report),
            Err(ShardError::DigestMismatch(message)) => {
                job.registry.counter("fed.digest_mismatches").inc();
                return Err(ProtoError::new(ErrorCode::FedDigestMismatch, message));
            }
            Err(ShardError::Transient(message)) => {
                job.registry.counter("fed.failures").inc();
                return Err(ProtoError::new(
                    ErrorCode::FedShardFailed,
                    format!(
                        "shard {shard}/{shards} failed on every worker \
                         (last error: {message})"
                    ),
                ));
            }
        }
    }
    Ok(reports)
}

/// Runs one shard with the bounded retry walk over the worker ring.
fn run_shard(job: &FanOut<'_>, shard: usize, shards: usize) -> Result<ShardReport, ShardError> {
    let mut span = sg_obs::span!("fed.shard", shard = shard);
    let mut last = String::new();
    for attempt in 0..=job.cfg.retries {
        let addr = &job.cfg.workers[(shard + attempt) % job.cfg.workers.len()];
        if attempt > 0 {
            job.registry.counter("fed.retries").inc();
        }
        match attempt_shard(job, addr, shard, shards) {
            Ok(mut report) => {
                report.attempts = attempt as u64 + 1;
                job.registry.histogram("fed.shard_ms").observe_ms(report.ms);
                if span.is_recording() {
                    span.arg("addr", report.addr.as_str());
                    span.arg("attempts", report.attempts.to_string());
                }
                return Ok(report);
            }
            Err(ShardError::Transient(message)) => last = message,
            Err(fatal) => return Err(fatal),
        }
    }
    Err(ShardError::Transient(last))
}

/// One attempt: connect, `shard_run`, lazily `load` the replica when the
/// worker doesn't know the graph, verify the replica digest, parse ids.
fn attempt_shard(
    job: &FanOut<'_>,
    addr: &str,
    shard: usize,
    shards: usize,
) -> Result<ShardReport, ShardError> {
    let started = Instant::now();
    let timeout = Duration::from_millis(job.cfg.timeout_ms.max(1));
    let transient =
        |stage: &str, detail: String| ShardError::Transient(format!("{addr}: {stage}: {detail}"));
    let mut client =
        Client::connect_bounded(addr, timeout).map_err(|e| transient("connect", e.to_string()))?;
    client.set_token(job.cfg.token.clone());
    let request = Client::request_for("shard_run")
        .with("id", Json::str(format!("{}/s{shard}", job.trace_id)))
        .with("graph", Json::str(job.graph))
        .with("spec", Json::str(job.spec))
        .with("seed", Json::u64(job.seed))
        .with("shard", Json::u64(shard as u64))
        .with("shards", Json::u64(shards as u64));
    let mut response = client.request(&request).map_err(|e| transient("shard_run", e))?;
    if error_code(&response) == Some("unknown-graph") {
        // Lazy replica distribution: hand the worker the coordinator's
        // source path, then retry once on this connection.
        let load = Client::request_for("load")
            .with("name", Json::str(job.graph))
            .with("path", Json::str(job.source));
        let loaded = client.request(&load).map_err(|e| transient("load", e))?;
        if !is_ok(&loaded) {
            return Err(transient("load", error_message(&loaded)));
        }
        response = client.request(&request).map_err(|e| transient("shard_run", e))?;
    }
    if !is_ok(&response) {
        return Err(transient("shard_run", error_message(&response)));
    }
    let checksum = response.get("checksum").and_then(Json::as_str).unwrap_or("").to_string();
    if checksum != job.local_checksum {
        return Err(ShardError::DigestMismatch(format!(
            "worker {addr} replica of '{}' digests to {checksum}, \
             coordinator's copy is {} — refusing to merge shards of different graphs",
            job.graph, job.local_checksum
        )));
    }
    let raw = response
        .get("ids")
        .and_then(Json::as_arr)
        .ok_or_else(|| transient("shard_run", "response carries no 'ids' array".to_string()))?;
    let ids = match response.get("kind").and_then(Json::as_str) {
        Some("edges") => ids_as(raw, |e| e as EdgeId).map(ShardOutcome::Edges),
        Some("vertices") => ids_as(raw, |v| v as VertexId).map(ShardOutcome::Vertices),
        other => {
            return Err(transient("shard_run", format!("unknown shard kind {other:?}")));
        }
    }
    .map_err(|v| transient("shard_run", format!("non-numeric id {}", v.render())))?;
    Ok(ShardReport {
        addr: addr.to_string(),
        shard,
        attempts: 0, // filled by the retry loop
        checksum,
        ms: started.elapsed().as_secs_f64() * 1e3,
        ids,
    })
}

/// A reply's id array as `T`s, or its first element that is not an id.
fn ids_as<T>(raw: &[Json], cast: fn(u64) -> T) -> Result<Vec<T>, &Json> {
    raw.iter().map(|v| v.as_u64().map(cast).ok_or(v)).collect()
}

/// Merges shard id lists into the final graph: their union, marked straight
/// from the reports (a mask: order-free, idempotent) by one
/// [`sg_dist::apply_edge_deletions`] / [`sg_dist::apply_vertex_removals`]
/// against the coordinator's copy — exactly the reconstruction the
/// `federation_shards_union_to_the_local_result` test proves bit-identical
/// to `scheme.apply`.
pub(crate) fn merge_reports(
    g: &CsrGraph,
    reports: &[ShardReport],
) -> (CsrGraph, Option<Vec<Option<VertexId>>>) {
    let edges = reports.iter().filter_map(|r| match &r.ids {
        ShardOutcome::Edges(deleted) => Some(deleted),
        ShardOutcome::Vertices(_) => None,
    });
    let vertices = reports.iter().filter_map(|r| match &r.ids {
        ShardOutcome::Vertices(removed) => Some(removed),
        ShardOutcome::Edges(_) => None,
    });
    if vertices.clone().next().is_some() {
        let (merged, mapping) = sg_dist::apply_vertex_removals(g, vertices.flatten());
        (merged, Some(mapping))
    } else {
        (sg_dist::apply_edge_deletions(g, edges.flatten()), None)
    }
}

/// The `federation` response block of a federated run.
pub(crate) fn federation_block(reports: &[ShardReport]) -> Json {
    let workers: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::obj()
                .with("addr", Json::str(r.addr.clone()))
                .with("shard", Json::u64(r.shard as u64))
                .with("attempts", Json::u64(r.attempts))
                .with("checksum", Json::str(r.checksum.clone()))
                .with("ms", Json::f64(r.ms))
        })
        .collect();
    Json::obj()
        .with("mode", Json::str("federated"))
        .with("shards", Json::u64(reports.len() as u64))
        .with("workers", Json::Arr(workers))
}

/// The `federation` response block of a coordinator-local fallback run.
pub(crate) fn local_block(reason: &str) -> Json {
    Json::obj().with("mode", Json::str("local")).with("reason", Json::str(reason))
}

/// Liveness probe used by the `federation` status op: connect + `ping`
/// within `timeout`.
pub(crate) fn probe_worker(addr: &str, timeout: Duration, token: Option<&str>) -> bool {
    let Ok(mut client) = Client::connect_bounded(addr, timeout) else {
        return false;
    };
    client.set_token(token.map(str::to_string));
    client.request(&Client::request_for("ping")).is_ok_and(|r| is_ok(&r))
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(response: &Json) -> Option<&str> {
    response.get("error").and_then(|e| e.get("code")).and_then(Json::as_str)
}

fn error_message(response: &Json) -> String {
    match response.get("error") {
        Some(err) => {
            let code = err.get("code").and_then(Json::as_str).unwrap_or("unknown");
            let message = err.get("message").and_then(Json::as_str).unwrap_or("");
            format!("[{code}] {message}")
        }
        None => "worker replied without an error object".to_string(),
    }
}
