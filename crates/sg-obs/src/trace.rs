//! The tracing side of sg-obs: [`span`] guards recording into bounded
//! per-thread ring buffers, exported as Chrome trace-event JSON.
//!
//! Tracing is **off by default**. While off, creating a span costs one
//! relaxed atomic load — no clock read, no allocation, no locking — so
//! instrumentation can stay in place permanently. While on, each
//! completed span becomes one `ph:"X"` (complete) event with
//! microsecond `ts`/`dur` relative to the moment tracing was first
//! enabled; the export ([`chrome_trace_json`]) loads directly in
//! `chrome://tracing` and Perfetto.
//!
//! Each thread owns a ring of at most [`RING_CAPACITY`] events; when
//! full, the **oldest** events are overwritten (recent activity is what
//! trace consumers want) and [`dropped_events`] counts the loss, so a
//! runaway span source can never exhaust memory.
//!
//! ## Request correlation
//!
//! A thread-local **trace id** ([`set_trace_id`]) correlates every span
//! a request produces: while the returned guard is alive, each recorded
//! span on that thread is tagged `trace=<id>` automatically, so
//! `serve.request`, `session.run`, and `session.stage` events for one
//! request share an id one grep can find. Installing the context costs a
//! thread-local swap whether or not tracing is on (the id also feeds the
//! serve slowlog, which works with tracing off).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum buffered events per thread before the oldest are dropped.
pub const RING_CAPACITY: usize = 16_384;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The instant `ts` values are measured from (pinned the first time
/// tracing is enabled, so all threads share one timeline).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off process-wide. Already-buffered events
/// are kept (export after disabling is the normal `--trace-out` flow).
pub fn set_trace_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded (default: false).
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Events lost to ring-buffer overwrite since the last [`reset`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One completed span, already resolved to trace-relative microseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub ts_us: u64,
    pub dur_us: u64,
    pub args: Vec<(String, String)>,
}

struct Ring {
    events: VecDeque<TraceEvent>,
}

type SharedRing = Arc<Mutex<Ring>>;

/// Every thread's ring, registered on that thread's first recorded
/// span. Rings outlive their threads so short-lived workers still
/// contribute to the export.
fn rings() -> &'static Mutex<Vec<(u64, String, SharedRing)>> {
    static RINGS: OnceLock<Mutex<Vec<(u64, String, SharedRing)>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<SharedRing>> = const { RefCell::new(None) };
    static TRACE_ID: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Restores the previously active trace id (if any) when dropped, so
/// nested request contexts unwind correctly.
pub struct TraceIdGuard {
    prev: Option<Arc<str>>,
}

impl Drop for TraceIdGuard {
    fn drop(&mut self) {
        TRACE_ID.with(|cell| *cell.borrow_mut() = self.prev.take());
    }
}

/// Installs `id` as the current thread's trace id for the lifetime of
/// the returned guard. Every span recorded on this thread while the
/// guard lives carries a `trace=<id>` annotation. The session engine
/// creates its `session.run` / `session.stage` spans on the calling
/// thread, so a guard installed around request dispatch correlates all
/// three span levels.
pub fn set_trace_id(id: &str) -> TraceIdGuard {
    let prev = TRACE_ID.with(|cell| cell.borrow_mut().replace(Arc::from(id)));
    TraceIdGuard { prev }
}

/// The trace id currently installed on this thread, if any.
pub fn current_trace_id() -> Option<Arc<str>> {
    TRACE_ID.with(|cell| cell.borrow().clone())
}

/// The gauge mirror of [`dropped_events`] in the global registry, so
/// ring overflow is visible to the `metrics` op, not just the Chrome
/// trace footer. Resolved once; updated on each overflow.
fn dropped_gauge() -> &'static Arc<crate::Gauge> {
    static GAUGE: OnceLock<Arc<crate::Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| crate::global().gauge(crate::TRACE_DROPPED_GAUGE))
}

fn record(event: TraceEvent) {
    LOCAL_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring: SharedRing =
                Arc::new(Mutex::new(Ring { events: VecDeque::with_capacity(64) }));
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current().name().unwrap_or("thread").to_string();
            rings().lock().unwrap_or_else(|e| e.into_inner()).push((tid, name, Arc::clone(&ring)));
            ring
        });
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.events.len() >= RING_CAPACITY {
            ring.events.pop_front();
            let dropped = DROPPED.fetch_add(1, Ordering::Relaxed) + 1;
            dropped_gauge().set(dropped as i64);
        }
        ring.events.push_back(event);
    });
}

/// A RAII span guard: created by [`span`]/[`span!`], records one
/// complete event on drop. When tracing is disabled the guard is inert.
pub struct Span {
    start: Option<Instant>,
    name: String,
    args: Vec<(String, String)>,
}

impl Span {
    /// Whether this guard will record on drop (lets callers skip
    /// building argument strings for inert spans).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches a `key=value` annotation (shown under "args" in the
    /// trace viewer). No-op on an inert span.
    pub fn arg(&mut self, key: &str, value: impl Into<String>) {
        if self.start.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        let ts_us = start.duration_since(epoch()).as_micros() as u64;
        record(TraceEvent {
            name: std::mem::take(&mut self.name),
            ts_us,
            dur_us,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Opens a span named `name`. Prefer the [`span!`] macro, which also
/// takes `key = value` annotations.
pub fn span(name: &str) -> Span {
    if !trace_enabled() {
        return Span { start: None, name: String::new(), args: Vec::new() };
    }
    let mut args = Vec::new();
    if let Some(id) = current_trace_id() {
        args.push(("trace".to_string(), id.to_string()));
    }
    Span { start: Some(Instant::now()), name: name.to_string(), args }
}

/// Opens a [`Span`] guard: `span!("serve.request")` or
/// `span!("session.stage", scheme = name, index = i)`. Argument values
/// are only formatted when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut sp = $crate::trace::span($name);
        if sp.is_recording() {
            $(sp.arg(stringify!($key), format!("{}", $value));)+
        }
        sp
    }};
}

/// Clears all buffered events and the drop counter (test isolation and
/// multi-run tools).
pub fn reset() {
    DROPPED.store(0, Ordering::Relaxed);
    dropped_gauge().set(0);
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    for (_, _, ring) in rings.iter() {
        ring.lock().unwrap_or_else(|e| e.into_inner()).events.clear();
    }
}

/// A consistent-enough copy of every thread's buffered events (each
/// ring is locked only long enough to clone it).
pub fn collect() -> Vec<(u64, String, Vec<TraceEvent>)> {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    rings
        .iter()
        .map(|(tid, name, ring)| {
            let events =
                ring.lock().unwrap_or_else(|e| e.into_inner()).events.iter().cloned().collect();
            (*tid, name.clone(), events)
        })
        .collect()
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (quotes not included). The workspace's one JSON string escaper: the
/// trace export, `sg-serve`'s renderer and the bench / tune records all
/// write through it. Everything it rewrites is ASCII, so clean runs are
/// copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", u32::from(b));
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Renders every buffered span as Chrome trace-event JSON (the
/// "JSON object format": a `traceEvents` array of `ph:"X"` complete
/// events plus `ph:"M"` thread-name metadata), loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n ");
    };
    for (tid, thread_name, events) in collect() {
        emit(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
        );
        escape_into(&mut out, &thread_name);
        out.push_str("\"}}");
        for ev in events {
            emit(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"",
                ev.ts_us, ev.dur_us
            );
            escape_into(&mut out, &ev.name);
            out.push_str("\",\"cat\":\"sg\",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(&mut out, k);
                out.push_str("\":\"");
                escape_into(&mut out, v);
                out.push('"');
            }
            out.push_str("}}");
        }
    }
    let _ = write!(out, "\n],\"otherData\":{{\"dropped_events\":{}}}}}", dropped_events());
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace buffers and enable flag are process-global; serialize.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _hold = trace_lock();
        reset();
        set_trace_enabled(false);
        {
            let mut sp = crate::span!("quiet", detail = "never formatted");
            assert!(!sp.is_recording());
            sp.arg("k", "v");
        }
        assert!(collect().iter().all(|(_, _, events)| events.is_empty()));
    }

    #[test]
    fn spans_nest_and_export_as_chrome_trace() {
        let _hold = trace_lock();
        reset();
        set_trace_enabled(true);
        {
            let _outer = crate::span!("outer", op = "compress");
            let _inner = crate::span!("inner");
        }
        set_trace_enabled(false);
        let events: Vec<TraceEvent> = collect()
            .into_iter()
            .flat_map(|(_, _, events)| events)
            .filter(|e| e.name == "outer" || e.name == "inner")
            .collect();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        // Drop order: inner completes first, and nests within outer.
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert_eq!(outer.args, vec![("op".to_string(), "compress".to_string())]);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"outer\""));
        reset();
    }

    #[test]
    fn ring_is_bounded() {
        let _hold = trace_lock();
        reset();
        set_trace_enabled(true);
        for i in 0..(RING_CAPACITY + 10) {
            let _sp = crate::span!("tick", i = i);
        }
        set_trace_enabled(false);
        let mine: usize = collect()
            .into_iter()
            .map(|(_, _, events)| events.iter().filter(|e| e.name == "tick").count())
            .sum();
        assert!(mine <= RING_CAPACITY);
        assert!(dropped_events() >= 10);
        reset();
    }

    #[test]
    fn trace_id_tags_spans_and_unwinds() {
        let _hold = trace_lock();
        reset();
        set_trace_enabled(true);
        {
            let _outer_ctx = set_trace_id("req-1");
            let _a = crate::span!("tagged.a");
            {
                let _inner_ctx = set_trace_id("req-2");
                let _b = crate::span!("tagged.b");
            }
            // Inner guard dropped: outer id is restored.
            assert_eq!(current_trace_id().as_deref(), Some("req-1"));
            let _c = crate::span!("tagged.c");
        }
        assert!(current_trace_id().is_none(), "guard cleared the context");
        set_trace_enabled(false);
        let events: Vec<TraceEvent> = collect()
            .into_iter()
            .flat_map(|(_, _, events)| events)
            .filter(|e| e.name.starts_with("tagged."))
            .collect();
        let id_of = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name)
                .and_then(|e| e.args.iter().find(|(k, _)| k == "trace"))
                .map(|(_, v)| v.clone())
        };
        assert_eq!(id_of("tagged.a").as_deref(), Some("req-1"));
        assert_eq!(id_of("tagged.b").as_deref(), Some("req-2"));
        assert_eq!(id_of("tagged.c").as_deref(), Some("req-1"));
        reset();
    }

    #[test]
    fn dropped_events_mirror_into_the_global_gauge() {
        let _hold = trace_lock();
        reset();
        set_trace_enabled(true);
        for i in 0..(RING_CAPACITY + 5) {
            let _sp = crate::span!("drop.tick", i = i);
        }
        set_trace_enabled(false);
        let dropped = dropped_events();
        assert!(dropped >= 5);
        let snap = crate::global_snapshot();
        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _)| n == crate::TRACE_DROPPED_GAUGE)
            .map(|(_, v)| *v)
            .expect("gauge registered");
        assert!(gauge >= dropped as i64);
        reset();
        assert_eq!(dropped_gauge().get(), 0);
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
