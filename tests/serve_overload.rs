//! Overload suite (ISSUE 7): more clients than workers. The bounded
//! pool must keep the thread count fixed, answer `busy` (with
//! `retry_after_ms`) once the queue is full, give every accepted
//! request exactly one response, and leave the daemon in a consistent
//! state after the storm.

mod contract;

use contract::{error_code, ok, spawn, tmp};
use slimgraph::core::{PipelineSpec, SchemeRegistry};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig};
use std::time::Duration;

/// Deterministic saturation: 2 workers pinned by live connections,
/// 2 more queued, the 5th rejected with `busy` + `retry_after_ms`.
#[test]
fn saturated_pool_answers_busy_with_retry_hint() {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        workers: 2,
        queue_depth: 2,
        retry_after_ms: 150,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);

    // A worker stays with its connection until it closes, so one ping
    // round-trip per connection proves both workers are pinned.
    let mut pin_a = Client::connect(&addr).expect("connect");
    let mut pin_b = Client::connect(&addr).expect("connect");
    ok(&pin_a.request(&Client::request_for("ping")).expect("pin a"));
    ok(&pin_b.request(&Client::request_for("ping")).expect("pin b"));

    // These two can only sit in the queue (both workers are taken).
    let mut queued_a = Client::connect(&addr).expect("connect");
    let mut queued_b = Client::connect(&addr).expect("connect");
    // Give the acceptor time to enqueue them before overflowing.
    std::thread::sleep(Duration::from_millis(300));

    // Queue full → admission control turns us away with a retry hint.
    let mut rejected = Client::connect(&addr).expect("connect");
    let response = rejected.request(&Client::request_for("ping")).expect("busy line");
    assert_eq!(error_code(&response), "busy", "{}", response.render());
    assert_eq!(
        response.get("error").and_then(|e| e.get("retry_after_ms")).and_then(Json::as_u64),
        Some(150),
        "busy must carry retry_after_ms: {}",
        response.render()
    );

    // Freeing the workers drains the queue: the clients that waited are
    // served, none dropped.
    drop(pin_a);
    drop(pin_b);
    ok(&queued_a.request(&Client::request_for("ping")).expect("queued a served"));
    ok(&queued_b.request(&Client::request_for("ping")).expect("queued b served"));

    let stats = queued_a.request(&Client::request_for("stats")).expect("stats");
    let server = ok(&stats).get("server").expect("server stats");
    assert_eq!(server.get("workers").and_then(Json::as_u64), Some(2));
    assert!(
        server.get("busy_rejected").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "rejection counted: {}",
        stats.render()
    );
    // Bounded thread count: at no point did more conns run than workers.
    assert!(
        server.get("peak_active").and_then(Json::as_u64).unwrap_or(u64::MAX) <= 2,
        "peak_active bounded by workers: {}",
        stats.render()
    );

    ok(&queued_a.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Connection storm: 12 concurrent clients against 2 workers. Every
/// client gets exactly one response — `pong` or `busy` — nothing is
/// dropped, and the daemon computes bit-identically afterward.
#[test]
fn storm_drops_nothing_and_state_stays_consistent() {
    let g = generators::planted_triangles(&generators::barabasi_albert(300, 4, 91), 200, 92);
    let path = tmp("storm.sgr");
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let spec = "spanner:k=4,uniform:p=0.5";
    let reference = {
        let pipeline = PipelineSpec::parse(spec)
            .expect("spec")
            .build(&SchemeRegistry::with_defaults())
            .expect("builds");
        format!("{:016x}", graph_digest(&pipeline.apply(&g, 9).result.graph))
    };

    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        workers: 2,
        queue_depth: 2,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut keeper = Client::connect(&addr).expect("connect");
    ok(&keeper
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));
    drop(keeper); // free the worker for the storm

    const CLIENTS: usize = 12;
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let response =
                        client.request(&Client::request_for("ping")).expect("one response");
                    if response.get("pong").and_then(Json::as_bool) == Some(true) {
                        "pong".to_string()
                    } else {
                        error_code(&response)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let pongs = outcomes.iter().filter(|o| *o == "pong").count();
    let busy = outcomes.iter().filter(|o| *o == "busy").count();
    assert_eq!(
        pongs + busy,
        CLIENTS,
        "every client gets exactly one pong-or-busy response: {outcomes:?}"
    );
    assert!(pongs >= 1, "storm must not starve everyone: {outcomes:?}");

    // After the storm: bounded concurrency, and results still byte-match
    // a cold direct run.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.request(&Client::request_for("stats")).expect("stats");
    let server = ok(&stats).get("server").expect("server stats");
    assert!(
        server.get("peak_active").and_then(Json::as_u64).unwrap_or(u64::MAX) <= 2,
        "thread count stayed bounded: {}",
        stats.render()
    );
    assert!(
        server.get("admitted").and_then(Json::as_u64).unwrap_or(0) as usize >= pongs,
        "admissions counted: {}",
        stats.render()
    );
    let response = client
        .request(
            &Client::request_for("compress")
                .with("graph", Json::str("g"))
                .with("spec", Json::str(spec))
                .with("seed", Json::u64(9)),
        )
        .expect("compress");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(reference.as_str()),
        "post-storm output must byte-match the direct run"
    );
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}
