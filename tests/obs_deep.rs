//! Deep-observability suite for the PR-9 diagnosis layer: request
//! trace-id correlation across all three span levels, the slow-request
//! log (capture + ring bound), and allocation profiling (per-stage
//! deltas + gauges) — all under the standing neutrality contract:
//! results stay **bit-identical** with every knob on or off, at
//! `SG_THREADS` ∈ {1, 4}.
//!
//! The tracing flag, the profiling flag, and the worker-count override
//! are process-global, so every test serializes on one lock.

use slimgraph::core::{GraphCatalog, PipelineSpec, SchemeRegistry, SgSession, StageCache};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig, Server};
use slimgraph::CsrGraph;
use std::sync::{Arc, Mutex};

static KNOB: Mutex<()> = Mutex::new(());

/// Restores the documented out-of-the-box state (metrics on, tracing
/// off, profiling off) for sibling tests in this binary.
fn restore_obs() {
    slimgraph::obs::set_metrics_enabled(true);
    slimgraph::obs::trace::set_trace_enabled(false);
    slimgraph::obs::alloc::set_profiling(false);
}

/// (vertex count, edge list, weight bits, content digest) — every part
/// of a graph that "bit-identical" covers.
type Fingerprint = (usize, Vec<(u32, u32)>, Option<Vec<u64>>, u64);

fn fingerprint(g: &CsrGraph) -> Fingerprint {
    (
        g.num_vertices(),
        g.edge_slice().to_vec(),
        g.weight_slice().map(|w| w.iter().map(|x| u64::from(x.to_bits())).collect()),
        graph_digest(g),
    )
}

/// Runs a chained pipeline through the session layer (cache enabled, so
/// stage spans and per-stage alloc deltas fire) and fingerprints the
/// result.
fn session_compress(g: &Arc<CsrGraph>, spec: &str, seed: u64) -> Fingerprint {
    let catalog = Arc::new(GraphCatalog::new());
    let handle = catalog.insert_arc("g", Arc::clone(g), "mem").expect("fresh name");
    let session = SgSession::with_cache(
        catalog,
        Arc::new(SchemeRegistry::with_defaults()),
        Arc::new(StageCache::with_capacity(sg_core::cache::DEFAULT_CACHE_BYTES)),
    );
    let spec = PipelineSpec::parse(spec).expect("spec parses");
    let run = session.run(&handle, &spec, seed).expect("run");
    fingerprint(&run.graph)
}

fn spawn_daemon(cfg: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn quiet_config() -> ServeConfig {
    ServeConfig { listen: "127.0.0.1:0".into(), transcript: false, ..Default::default() }
}

fn ok(response: Json) -> Json {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {}",
        response.render()
    );
    response
}

/// Saves a small BA graph and loads it into the daemon as `g`.
fn load_graph(client: &mut Client, tag: &str) {
    let g = generators::barabasi_albert(600, 4, 77);
    let dir = std::env::temp_dir().join(format!("slimgraph-obs-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("g-{tag}.sgr"));
    slimgraph::store::save_sgr(&g, &path).expect("save");
    ok(client
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(path.to_string_lossy().into_owned())),
        )
        .expect("load"));
}

/// Every complete (`ph == "X"`) span in the current trace export, as
/// `(name, args)` pairs.
fn exported_spans() -> Vec<(String, Json)> {
    let text = slimgraph::obs::trace::chrome_trace_json();
    let parsed = Json::parse(&text).expect("trace is valid JSON");
    parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).expect("name").to_string(),
                e.get("args").cloned().unwrap_or_else(Json::obj),
            )
        })
        .collect()
}

/// Tentpole #1: a client-supplied envelope `"id"` shows up as the
/// `trace` arg on the request's `serve.request`, `session.run`, **and**
/// `session.stage` spans, and id-less requests get a server-generated
/// `srv-N` id — at 1 and 4 worker threads.
#[test]
fn trace_id_correlates_all_three_span_levels() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        slimgraph::obs::trace::set_trace_enabled(true);
        slimgraph::obs::trace::reset();

        let (addr, daemon) = spawn_daemon(quiet_config());
        let mut client = Client::connect(&addr).expect("connect");
        load_graph(&mut client, &format!("trace-{threads}"));
        let id = format!("req-deep-{threads}");
        ok(client
            .request(
                &Client::request_for("compress")
                    .with("id", Json::str(id.clone()))
                    .with("graph", Json::str("g"))
                    .with("spec", Json::str("spanner:k=4,uniform:p=0.5"))
                    .with("seed", Json::u64(7)),
            )
            .expect("compress"));
        // An id-less request must still get a correlatable (generated) id.
        ok(client.request(&Client::request_for("ping")).expect("ping"));
        let _ = client.request(&Client::request_for("shutdown"));
        daemon.join().expect("daemon").expect("clean exit");
        slimgraph::obs::trace::set_trace_enabled(false);

        let spans = exported_spans();
        let tagged = |name: &str| {
            spans
                .iter()
                .filter(|(n, args)| {
                    n == name && args.get("trace").and_then(Json::as_str) == Some(id.as_str())
                })
                .count()
        };
        assert!(tagged("serve.request") >= 1, "serve.request tagged {id} ({threads} threads)");
        assert!(tagged("session.run") >= 1, "session.run tagged {id} ({threads} threads)");
        assert!(tagged("session.stage") >= 2, "every stage span tagged {id} ({threads} threads)");
        let generated = spans.iter().any(|(n, args)| {
            n == "serve.request"
                && args.get("trace").and_then(Json::as_str).is_some_and(|t| t.starts_with("srv-"))
        });
        assert!(generated, "id-less requests carry a server-generated srv-N trace id");
    }
    rayon::set_num_threads(0);
    restore_obs();
    slimgraph::obs::trace::reset();
}

/// Tentpole #2: with `--slow-ms 0` every request lands in the slowlog
/// (the injection mechanism), the ring keeps only the newest `capacity`
/// records while `recorded` counts everything, and a compress record
/// carries its trace id + stage accounting. A prohibitively high
/// threshold records nothing.
#[test]
fn slowlog_captures_requests_and_respects_ring_bound() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    slimgraph::obs::set_metrics_enabled(true);

    let mut cfg = quiet_config();
    cfg.slow_ms = 0;
    cfg.slowlog_capacity = 4;
    let (addr, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    load_graph(&mut client, "slowlog");
    for _ in 0..6 {
        ok(client.request(&Client::request_for("ping")).expect("ping"));
    }
    ok(client
        .request(
            &Client::request_for("compress")
                .with("id", Json::str("slow-compress"))
                .with("graph", Json::str("g"))
                .with("spec", Json::str("spanner:k=4,uniform:p=0.5"))
                .with("seed", Json::u64(7)),
        )
        .expect("compress"));
    let response = ok(client.request(&Client::request_for("slowlog")).expect("slowlog"));
    let recorded = response.get("recorded").and_then(Json::as_u64).expect("recorded");
    let returned = response.get("returned").and_then(Json::as_u64).expect("returned");
    let records = response.get("slowlog").and_then(Json::as_arr).expect("slowlog array");
    assert!(recorded >= 8, "load + 6 pings + compress all qualified at slow_ms=0, got {recorded}");
    assert_eq!(returned, 4, "ring bounded at capacity");
    assert_eq!(records.len(), 4);
    let seqs: Vec<u64> =
        records.iter().map(|r| r.get("seq").and_then(Json::as_u64).expect("seq")).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs monotone: {seqs:?}");
    assert_eq!(*seqs.last().expect("nonempty"), recorded, "newest record retained");
    assert!(seqs[0] > 1, "oldest records aged out of the bounded ring");
    let newest = records.last().expect("newest");
    assert_eq!(newest.get("op").and_then(Json::as_str), Some("compress"));
    assert_eq!(newest.get("trace").and_then(Json::as_str), Some("slow-compress"));
    assert!(newest.get("service_ms").and_then(Json::as_f64).is_some());
    assert!(newest.get("queue_wait_ms").and_then(Json::as_f64).is_some());
    assert_eq!(newest.get("graph").and_then(Json::as_str), Some("g"));
    assert!(newest.get("stages_executed").and_then(Json::as_u64).is_some());
    assert!(newest.get("stages_cached").and_then(Json::as_u64).is_some());
    // The qualifying requests also moved the serve.slow_requests counter.
    let metrics = ok(client.request(&Client::request_for("metrics")).expect("metrics"));
    let slow = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.slow_requests"))
        .and_then(Json::as_u64)
        .expect("serve.slow_requests counter");
    assert!(slow >= recorded, "counter covers every qualifying request");
    let _ = client.request(&Client::request_for("shutdown"));
    daemon.join().expect("daemon").expect("clean exit");

    // A threshold nothing can meet records nothing.
    let mut cfg = quiet_config();
    cfg.slow_ms = 10_000_000;
    let (addr, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        ok(client.request(&Client::request_for("ping")).expect("ping"));
    }
    let response = ok(client.request(&Client::request_for("slowlog")).expect("slowlog"));
    assert_eq!(response.get("recorded").and_then(Json::as_u64), Some(0));
    assert_eq!(
        response.get("slowlog").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0),
        "nothing qualifies under a prohibitive threshold"
    );
    let _ = client.request(&Client::request_for("shutdown"));
    daemon.join().expect("daemon").expect("clean exit");
    restore_obs();
}

/// Tentpole #3: with the tracking allocator armed, compress runs report
/// nonzero alloc gauges and per-stage byte deltas — and the compressed
/// output stays bit-identical with profiling on and off, at 1 and 4
/// threads.
#[test]
fn alloc_profiling_reports_gauges_and_stays_bit_identical() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    slimgraph::obs::set_metrics_enabled(true);
    let g = Arc::new(generators::barabasi_albert(700, 4, 23));
    const SPEC: &str = "spanner:k=4,lowdeg,uniform:p=0.5";
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        slimgraph::obs::alloc::set_profiling(false);
        let baseline = session_compress(&g, SPEC, 13);

        slimgraph::obs::alloc::reset();
        slimgraph::obs::alloc::set_profiling(true);
        let profiled = session_compress(&g, SPEC, 13);
        slimgraph::obs::alloc::set_profiling(false);
        assert_eq!(baseline, profiled, "profiling changed the result at {threads} threads");

        // The umbrella crate installs sg-obs's tracking allocator for
        // this test binary, so a compress run must have moved every
        // cumulative counter.
        let stats = slimgraph::obs::alloc::stats();
        assert!(stats.allocated_bytes > 0, "allocated_bytes counted ({threads} threads)");
        assert!(stats.allocs > 0, "alloc calls counted ({threads} threads)");
        assert!(stats.peak_bytes > 0, "peak live bytes tracked ({threads} threads)");
        assert!(stats.peak_bytes >= stats.live_bytes, "peak dominates live ({threads} threads)");
    }

    // Gauges surface through the shared snapshot while profiling is on…
    slimgraph::obs::alloc::set_profiling(true);
    let snap = slimgraph::obs::global_snapshot();
    let gauge =
        |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v).expect(name);
    assert!(gauge("alloc.allocated_bytes") > 0);
    assert!(gauge("alloc.peak_bytes") > 0);
    assert!(gauge("alloc.allocs") > 0);
    slimgraph::obs::alloc::set_profiling(false);
    // …and disappear when it is off (observation stays opt-in).
    let snap = slimgraph::obs::global_snapshot();
    assert!(
        !snap.gauges.iter().any(|(n, _)| n.starts_with("alloc.")),
        "alloc gauges absent while profiling is off"
    );

    // Per-stage deltas landed as session.stage_alloc_bytes.<scheme>
    // counters (attribution comes from the profiled runs above).
    let counters = &slimgraph::obs::global_snapshot().counters;
    for scheme in ["spanner", "lowdeg", "uniform"] {
        let name = format!("session.stage_alloc_bytes.{scheme}");
        let value = counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        assert!(value.is_some_and(|v| v > 0), "{name} recorded a nonzero delta: {value:?}");
    }
    rayon::set_num_threads(0);
    restore_obs();
}

/// A shard reply's id array costs the heap its own growth steps and
/// nothing per element: a canonical unsigned token is a `Json::Int`, built,
/// rendered, parsed and read back without a `String` of its own. Counted
/// here, not in `sg-serve`'s unit tests, because only a serialized binary
/// that installs the tracking allocator can count.
#[test]
fn id_arrays_cross_json_without_an_allocation_per_element() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    const IDS: u64 = 100_000;
    let allocs_of = |work: &mut dyn FnMut()| {
        slimgraph::obs::alloc::reset();
        slimgraph::obs::alloc::set_profiling(true);
        work();
        slimgraph::obs::alloc::set_profiling(false);
        slimgraph::obs::alloc::stats().allocs
    };
    // A `Vec` or `String` that doubles from empty grows ~log2(len) times.
    let budget = 64;

    let mut reply = Json::Null;
    let built = allocs_of(&mut || {
        let ids = (0..IDS).map(|i| Json::u64(i * 7)).collect();
        reply = Json::obj().with("kind", Json::str("edges")).with("ids", Json::Arr(ids));
    });
    assert!(built <= budget, "{built} allocations to build {IDS} ids");

    let mut text = String::new();
    let rendered = allocs_of(&mut || text = reply.render());
    assert!(rendered <= budget, "{rendered} allocations to render {IDS} ids");

    let mut parsed = Json::Null;
    let parse = allocs_of(&mut || parsed = Json::parse(&text).expect("parses"));
    assert!(parse <= budget, "{parse} allocations to parse {IDS} ids");
    assert_eq!(parsed, reply);

    let mut sum = 0;
    let read = allocs_of(&mut || {
        let ids = parsed.get("ids").and_then(Json::as_arr).expect("ids");
        sum = ids.iter().map(|id| id.as_u64().expect("an id")).sum();
    });
    assert_eq!((read, sum), (0, 7 * IDS * (IDS - 1) / 2));
    restore_obs();
}
