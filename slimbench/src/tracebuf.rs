//! The traced run's span store: drains `sg_obs::trace` rings into memory,
//! groups spans by op, and turns them into per-layer self times.
//!
//! Bench-owned spans are named `bench.<layer>.<call>`; the program's own
//! spans (`serve.request`, `session.run`, `session.stage`, `fed.*`) join an
//! op's tree through the trace id the harness installs and sends as the
//! request `id`.

use crate::common::Outcome;
use crate::measure::{self, Interval};
use sg_obs::trace;
use sg_serve::Json;
use std::collections::BTreeMap;

/// The crates the table attributes time to.
/// (`sg-graph` and `sg-metrics` run inside other layers' calls and have no
/// span boundary of their own; direct probes measure them instead.)
pub const LAYERS: [&str; 5] = ["sg-store", "sg-algos", "sg-core", "sg-dist", "sg-serve"];

/// Name of the span the harness opens around one whole op.
pub const OP_SPAN: &str = "bench.op";

/// Which layer a span's self time belongs to; `None` for the op span,
/// whose self time is the part no layer span covers.
pub fn layer_of(span: &str) -> Option<&'static str> {
    if let Some(rest) = span.strip_prefix("bench.") {
        return LAYERS
            .into_iter()
            .find(|l| rest.strip_prefix(l).is_some_and(|r| r.starts_with('.')));
    }
    match span {
        "session.run" | "session.stage" => Some("sg-core"),
        s if s.starts_with("serve.") || s.starts_with("fed.") => Some("sg-serve"),
        _ => None,
    }
}

struct Event {
    tid: u64,
    name: String,
    ts_us: u64,
    dur_us: u64,
    args: Vec<(String, String)>,
}

impl Event {
    /// The op this span belongs to. Federation workers tag their spans
    /// `<op>/s<shard>`; those fold into the op.
    fn op_id(&self) -> Option<&str> {
        let id = self.args.iter().rev().find(|(k, _)| k == "trace").map(|(_, v)| v.as_str())?;
        Some(id.split('/').next().unwrap_or(id))
    }
}

/// Every span of a traced run, kept in memory until the run ends.
#[derive(Default)]
pub struct TraceLog {
    events: Vec<Event>,
    threads: BTreeMap<u64, String>,
    dropped: u64,
}

impl TraceLog {
    /// Clears the rings and switches span recording on.
    pub fn start() -> TraceLog {
        trace::reset();
        trace::set_trace_enabled(true);
        TraceLog::default()
    }

    /// Moves the rings' events here. Call only while no traced thread is
    /// running, and often enough that no ring reaches its 16 384 events.
    pub fn drain(&mut self) {
        for (tid, thread, events) in trace::collect() {
            self.threads.entry(tid).or_insert(thread);
            self.events.extend(events.into_iter().map(|e| Event {
                tid,
                name: e.name,
                ts_us: e.ts_us,
                dur_us: e.dur_us,
                args: e.args,
            }));
        }
        let dropped = trace::dropped_events();
        trace::reset();
        // `reset` zeroes the drop counter; keep the total.
        self.dropped += dropped;
    }

    /// Drains once more and switches recording off.
    pub fn stop(&mut self) {
        self.drain();
        trace::set_trace_enabled(false);
    }

    pub fn spans_recorded(&self) -> usize {
        self.events.len()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.events.iter().filter(|e| e.name == name).map(|e| e.dur_us as f64 / 1e3).collect()
    }

    /// Per op id, the spans that carry it.
    fn by_op(&self) -> BTreeMap<&str, Vec<&Event>> {
        let mut ops: BTreeMap<&str, Vec<&Event>> = BTreeMap::new();
        for event in &self.events {
            if let Some(id) = event.op_id() {
                ops.entry(id).or_default().push(event);
            }
        }
        ops
    }

    /// Per op that has an [`OP_SPAN`]: its duration and each layer's self
    /// time within it, all in ms. `"uncovered"` is the op span's own self
    /// time.
    pub fn op_layer_self_ms(&self) -> Vec<(f64, BTreeMap<&'static str, f64>)> {
        let mut table = Vec::new();
        for spans in self.by_op().values() {
            let Some(root) = spans.iter().find(|e| e.name == OP_SPAN) else { continue };
            let intervals: Vec<Interval> = spans
                .iter()
                .map(|e| Interval {
                    name: e.name.clone(),
                    start_us: e.ts_us,
                    end_us: e.ts_us + e.dur_us,
                })
                .collect();
            let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
            for (name, self_us) in measure::self_times(&intervals) {
                let layer = if name == OP_SPAN { Some("uncovered") } else { layer_of(&name) };
                if let Some(layer) = layer {
                    *by_layer.entry(layer).or_default() += self_us as f64 / 1e3;
                }
            }
            table.push((root.dur_us as f64 / 1e3, by_layer));
        }
        table
    }

    /// Per op that recorded both, `outer`'s duration minus `inner`'s in ms,
    /// e.g. `serve.request` around the `session.run` it contains. With
    /// `outer_arg`, only ops whose `outer` span carries that `(key, value)`.
    pub fn gap_ms(&self, outer: &str, inner: &str, outer_arg: Option<(&str, &str)>) -> Vec<f64> {
        self.by_op()
            .values()
            .filter_map(|spans| {
                let find = |name: &str| spans.iter().find(|e| e.name == name);
                let (outer, inner) = (find(outer)?, find(inner)?);
                let wanted = outer_arg.is_none_or(|(k, v)| {
                    outer.args.iter().any(|(key, value)| key == k && value == v)
                });
                wanted.then(|| (outer.dur_us as f64 - inner.dur_us as f64) / 1e3)
            })
            .collect()
    }

    /// Emits the layer table: median self time per layer and op, the
    /// uncovered remainder, and the trace's own bookkeeping.
    pub fn report(&self, out: &mut Outcome) {
        let table = self.op_layer_self_ms();
        for layer in LAYERS {
            let per_op: Vec<f64> =
                table.iter().map(|(_, l)| l.get(layer).copied().unwrap_or(0.0)).collect();
            out.set_median(&format!("{layer}.self_ms"), &per_op);
        }
        let uncovered: Vec<f64> =
            table.iter().map(|(_, l)| l.get("uncovered").copied().unwrap_or(0.0)).collect();
        out.set_median("bench.uncovered_ms", &uncovered);
        let covered: Vec<f64> = table
            .iter()
            .map(|(op_ms, l)| 1.0 - l.get("uncovered").copied().unwrap_or(0.0) / op_ms.max(1e-9))
            .collect();
        out.set_median("bench.covered_share", &covered);
        out.set("sg-obs.spans_recorded", self.spans_recorded() as f64, 1);
        out.set("sg-obs.spans_dropped", self.dropped as f64, 1);
    }

    /// Writes the run to `<trace_out>/<workload>.trace.json`, when asked to.
    pub fn keep(&self, cfg: &crate::common::Cfg, workload: &str) {
        let Some(dir) = &cfg.trace_out else { return };
        let path = dir.join(format!("{workload}.trace.json"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.chrome_trace()));
        if let Err(e) = written {
            eprintln!("slimbench: warning: writing {}: {e}", path.display());
        }
    }

    /// The whole run as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut items = Vec::with_capacity(self.events.len() + self.threads.len());
        for (tid, name) in &self.threads {
            items.push(
                Json::obj()
                    .with("ph", Json::str("M"))
                    .with("pid", Json::u64(1))
                    .with("tid", Json::u64(*tid))
                    .with("name", Json::str("thread_name"))
                    .with("args", Json::obj().with("name", Json::str(name.clone()))),
            );
        }
        for e in &self.events {
            let mut args = Json::obj();
            for (k, v) in &e.args {
                args = args.with(k, Json::str(v.clone()));
            }
            items.push(
                Json::obj()
                    .with("ph", Json::str("X"))
                    .with("pid", Json::u64(1))
                    .with("tid", Json::u64(e.tid))
                    .with("ts", Json::u64(e.ts_us))
                    .with("dur", Json::u64(e.dur_us))
                    .with("name", Json::str(e.name.clone()))
                    .with("cat", Json::str("sg"))
                    .with("args", args),
            );
        }
        Json::obj()
            .with("displayTimeUnit", Json::str("ms"))
            .with("traceEvents", Json::Arr(items))
            .with("otherData", Json::obj().with("dropped_events", Json::u64(self.dropped)))
            .render()
    }
}

/// Opens the span around one whole op and installs `id` as the thread's
/// trace id, so every span recorded until the guards drop joins the op.
pub fn op_scope(id: &str) -> (sg_obs::TraceIdGuard, sg_obs::Span) {
    let guard = trace::set_trace_id(id);
    (guard, sg_obs::span!(OP_SPAN))
}

/// Opens a bench-owned layer span under the current op.
#[macro_export]
macro_rules! layer_span {
    ($name:expr) => {
        sg_obs::span!(concat!("bench.", $name), parent = $crate::tracebuf::OP_SPAN)
    };
}
