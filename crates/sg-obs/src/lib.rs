//! # sg-obs — unified observability for the Slim Graph workspace
//!
//! A zero-dependency telemetry substrate shared by every layer of the
//! workspace: the serve front line, the session engine, the stage
//! cache, and the rayon shim's thread pool. Two independent facilities:
//!
//! - **Metrics** ([`Registry`]): named monotonic [`Counter`]s, [`Gauge`]s,
//!   and fixed-bucket latency [`Histogram`]s. The hot path is a single
//!   relaxed atomic add; registration (the only locking) happens once
//!   per name. A process-wide default registry is reachable via
//!   [`global()`]; subsystems that need isolation (one daemon per test,
//!   say) instantiate their own [`Registry`].
//! - **Tracing** ([`trace`]): lightweight [`span!`] guards that record
//!   `(name, ts, dur, args)` events into a bounded per-thread ring
//!   buffer, exported as Chrome trace-event JSON
//!   ([`trace::chrome_trace_json`]) loadable in `chrome://tracing` or
//!   Perfetto.
//!
//! ## Observation only — the neutrality contract
//!
//! Telemetry never influences computation: no code may branch on a
//! counter, gauge, histogram, or span, and no timestamp may enter a
//! digest, checksum, or equivalence comparison. Results are bit-identical
//! at any `SG_THREADS` with telemetry enabled or disabled —
//! the contract harness's `Telemetry` axis (`tests/contract/`) pins this.
//!
//! ## Overhead
//!
//! Both facilities check one relaxed [`AtomicBool`] first. Metrics
//! default **on** (cost: one `fetch_add` per event — far below the work
//! they measure); tracing defaults **off** (a disabled `span!` is the
//! flag load and nothing else: no clock read, no allocation). Disable
//! everything with [`set_metrics_enabled`]`(false)` for a zero-telemetry
//! run.
//!
//! ```
//! let reg = sg_obs::Registry::new();
//! let served = reg.counter("serve.requests");
//! served.inc();
//! let lat = reg.histogram("serve.service_ms");
//! lat.observe_ms(1.25);
//! assert_eq!(reg.snapshot().counters, vec![("serve.requests".to_string(), 1)]);
//!
//! sg_obs::trace::set_trace_enabled(true);
//! {
//!     let mut sp = sg_obs::span!("stage", scheme = "spanner");
//!     let _ = &mut sp; // ... the traced work ...
//! }
//! sg_obs::trace::set_trace_enabled(false);
//! assert!(sg_obs::trace::chrome_trace_json().contains("\"traceEvents\""));
//! ```

pub mod alloc;
pub mod registry;
pub mod trace;

pub use alloc::{AllocStats, TrackingAlloc};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use trace::{Span, TraceIdGuard};

/// Gauge mirroring [`trace::dropped_events`] in the global registry
/// (pre-registered so every snapshot carries it, zero or not).
pub const TRACE_DROPPED_GAUGE: &str = "trace.dropped_events";

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables/disables metric recording. Counters, gauges, and
/// histograms become no-ops when disabled; already-accumulated values
/// remain readable. Tracing has its own switch
/// ([`trace::set_trace_enabled`]).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled (default: true).
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// The process-wide default registry. Library layers without a natural
/// owner (sessions, the stage cache, the rayon shim) record here; the
/// serve daemon additionally keeps a per-instance [`Registry`] so
/// concurrent daemons in one process don't blend their request metrics.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = Registry::new();
        // Pre-register the observability self-metrics so they appear in
        // every snapshot even before the first event.
        let _ = reg.gauge(TRACE_DROPPED_GAUGE);
        reg
    })
}

/// [`global`]'s snapshot plus point-in-time gauges whose sources live
/// outside the registry: the trace ring's authoritative drop counter
/// (correct even while metrics are disabled) and — when allocation
/// profiling is on — the tracking allocator's `alloc.*` gauges. This is
/// what the serve `metrics` op and the CLI's `--metrics-out` export.
pub fn global_snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    upsert_gauge(&mut snap, TRACE_DROPPED_GAUGE, trace::dropped_events() as i64);
    if alloc::profiling_enabled() {
        let a = alloc::stats();
        upsert_gauge(&mut snap, "alloc.allocated_bytes", a.allocated_bytes as i64);
        upsert_gauge(&mut snap, "alloc.allocs", a.allocs as i64);
        upsert_gauge(&mut snap, "alloc.live_bytes", a.live_bytes as i64);
        upsert_gauge(&mut snap, "alloc.peak_bytes", a.peak_bytes as i64);
    }
    snap
}

/// Sets `name` in the snapshot's (name-sorted) gauge list, inserting in
/// order when absent.
fn upsert_gauge(snap: &mut Snapshot, name: &str, value: i64) {
    match snap.gauges.iter_mut().find(|(n, _)| n == name) {
        Some((_, slot)) => *slot = value,
        None => {
            let at = snap.gauges.partition_point(|(n, _)| n.as_str() < name);
            snap.gauges.insert(at, (name.to_string(), value));
        }
    }
}
