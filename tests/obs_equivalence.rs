//! Telemetry. That results are bit-identical with every telemetry flag
//! flipped is the contract harness's `Telemetry` axis (in process) and its
//! `TelemetryServed` axis (a daemon), one test each (`tests/contract/`).
//! The rest is what telemetry itself promises: a disabled registry records
//! nothing while the `metrics` op still answers, and the Chrome trace
//! export is well-formed JSON whose same-thread spans nest.
//!
//! The metrics and tracing flags are process-global, so every test holds
//! [`TELEMETRY_FLAGS`] while it moves them.

mod contract;

use contract::{check, ok, quiet, spawn, Axis};
use slimgraph::core::{GraphCatalog, PipelineSpec, SchemeRegistry, SgSession, StageCache};
use slimgraph::graph::generators;
use slimgraph::serve::{Client, Json};
use std::sync::{Arc, Mutex};

/// Held by every test that moves a telemetry flag.
static TELEMETRY_FLAGS: Mutex<()> = Mutex::new(());

/// Restores the defaults (metrics on, tracing off) so sibling test
/// binaries observe the documented out-of-the-box state.
fn restore_obs() {
    slimgraph::obs::set_metrics_enabled(true);
    slimgraph::obs::trace::set_trace_enabled(false);
}

/// The kernels (what `analyze` computes) and a session's compress, metrics
/// off and tracing and allocation profiling on, against the pins taken with
/// every flag at its default: the `Telemetry` axis.
#[test]
fn compress_and_analyze_are_bit_identical_with_telemetry_on_and_off() {
    let _guard = TELEMETRY_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
    check(Axis::Telemetry);
}

/// A daemon's `compress` with every telemetry flag flipped: the
/// `TelemetryServed` axis.
#[test]
fn served_results_are_bit_identical_with_telemetry_on_and_off() {
    let _guard = TELEMETRY_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
    check(Axis::TelemetryServed);
}

#[test]
fn metrics_op_reports_while_disabled_metrics_stay_frozen() {
    let _guard = TELEMETRY_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
    slimgraph::obs::set_metrics_enabled(false);
    slimgraph::obs::trace::set_trace_enabled(false);
    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client.request(&Client::request_for("ping")).expect("ping"));
    let frozen = client.request(&Client::request_for("metrics")).expect("metrics");
    let counters = |r: &Json, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    // Counters exist (pre-registered at bind) but recorded nothing.
    assert_eq!(counters(ok(&frozen), "serve.requests"), Some(0), "disabled counters must not move");
    slimgraph::obs::set_metrics_enabled(true);
    ok(&client.request(&Client::request_for("ping")).expect("ping again"));
    let live = client.request(&Client::request_for("metrics")).expect("metrics again");
    let requests = counters(ok(&live), "serve.requests").expect("serve.requests present");
    assert!(requests >= 2, "enabled counters count the ping + metrics requests, got {requests}");
    // The snapshot carries the serve histograms the acceptance bar names.
    let histograms = live.get("metrics").and_then(|m| m.get("histograms")).expect("histograms");
    for name in ["serve.queue_wait_ms", "serve.service_ms"] {
        assert!(histograms.get(name).is_some(), "histogram {name} missing");
    }
    let _ = client.request(&Client::request_for("shutdown"));
    daemon.join().expect("daemon").expect("clean exit");
    restore_obs();
}

/// Parses the Chrome trace export and checks: well-formed JSON, the
/// required event fields, and that same-thread complete spans strictly
/// nest (a child's interval sits inside its enclosing span's, modulo
/// microsecond rounding).
#[test]
fn trace_export_is_well_formed_and_spans_nest() {
    let _guard = TELEMETRY_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
    slimgraph::obs::trace::set_trace_enabled(true);
    slimgraph::obs::trace::reset();
    let catalog = Arc::new(GraphCatalog::new());
    let g = generators::barabasi_albert(500, 4, 5);
    let handle = catalog.insert("g", g, "mem").expect("fresh name");
    let session = SgSession::with_cache(
        catalog,
        Arc::new(SchemeRegistry::with_defaults()),
        Arc::new(StageCache::new()),
    );
    let spec = PipelineSpec::parse("spanner:k=4,lowdeg,uniform:p=0.5").expect("spec parses");
    // A cold run and a cache hit: the hit's probe spans must nest too.
    for _ in 0..2 {
        session.run(&handle, &spec, 3).expect("run");
    }
    slimgraph::obs::trace::set_trace_enabled(false);

    let text = slimgraph::obs::trace::chrome_trace_json();
    let parsed = Json::parse(&text).expect("trace is valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "tracing a pipeline must record spans");

    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, u64, String)>> = Default::default();
    let mut named_threads = 0usize;
    let mut session_spans = 0usize;
    let mut stage_spans = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph field");
        match ph {
            "M" => named_threads += 1,
            "X" => {
                let name = event.get("name").and_then(Json::as_str).expect("name").to_string();
                let ts = event.get("ts").and_then(Json::as_u64).expect("ts");
                let dur = event.get("dur").and_then(Json::as_u64).expect("dur");
                let tid = event.get("tid").and_then(Json::as_u64).expect("tid");
                assert_eq!(event.get("pid").and_then(Json::as_u64), Some(1), "single process");
                if name == "session.run" {
                    session_spans += 1;
                    assert!(
                        event.get("args").and_then(|a| a.get("stages")).is_some(),
                        "session.run span carries its stage count"
                    );
                }
                if name == "session.stage" {
                    stage_spans += 1;
                }
                by_tid.entry(tid).or_default().push((ts, ts + dur, name));
            }
            other => panic!("unexpected event phase {other}"),
        }
    }
    assert!(named_threads >= 1, "thread_name metadata present");
    assert!(session_spans >= 2, "both session runs traced");
    assert!(stage_spans >= 3, "one span per executed stage");

    // Nesting: sort by (start, -end); a stack-based sweep must never see
    // a span that *partially* overlaps the enclosing one. 2 µs tolerance
    // absorbs independent duration rounding.
    const SLOP: u64 = 2;
    for (tid, spans) in &mut by_tid {
        spans.sort_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for &(start, end, ref name) in spans.iter() {
            while let Some(&(_, open_end)) = stack.last() {
                if start >= open_end.saturating_sub(SLOP) {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    start + SLOP >= open_start && end <= open_end + SLOP,
                    "span {name} [{start},{end}] on tid {tid} partially overlaps \
                     enclosing [{open_start},{open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
    restore_obs();
    slimgraph::obs::trace::reset();
}
