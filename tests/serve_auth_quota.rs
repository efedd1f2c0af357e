//! Token-auth and per-client quota suite (ISSUE 7). Auth: a
//! `--token`-protected daemon refuses every op but `ping` until the
//! caller presents the exact token. Quotas: per-peer catalog and cache
//! byte budgets answer `quota-exceeded` once breached, and eviction
//! refunds the budget.

mod contract;
mod oracle;

use contract::{error_code, ok, spawn, tmp};
use slimgraph::core::graph_approx_bytes;
use slimgraph::graph::generators;
use slimgraph::serve::{Client, Json, ServeConfig};

#[test]
fn token_gates_everything_but_ping() {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        token: Some("open-sesame".into()),
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut client = Client::connect(&addr).expect("connect");

    // ping stays open (liveness probes must not need secrets)…
    ok(&client.request(&Client::request_for("ping")).expect("ping"));
    // …but everything else is gated.
    let response = client.request(&Client::request_for("stats")).expect("answered");
    assert_eq!(error_code(&response), "auth-required", "{}", response.render());
    // A wrong token is not a partial credit.
    let response = client
        .request(&Client::request_for("stats").with("token", Json::str("open-sesame!")))
        .expect("answered");
    assert_eq!(error_code(&response), "auth-required", "{}", response.render());
    let response = client
        .request(&Client::request_for("stats").with("token", Json::str("open-sesam")))
        .expect("answered");
    assert_eq!(error_code(&response), "auth-required", "{}", response.render());

    // The exact token unlocks, and the failures above were counted.
    client.set_token(Some("open-sesame".into()));
    let stats = client.request(&Client::request_for("stats")).expect("stats");
    let server = ok(&stats).get("server").expect("server stats");
    assert!(
        server.get("auth_failures").and_then(Json::as_u64).unwrap_or(0) >= 3,
        "auth failures counted: {}",
        stats.render()
    );
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn catalog_quota_bounds_loads_and_eviction_refunds() {
    let g = generators::barabasi_albert(400, 4, 51);
    let bytes = graph_approx_bytes(&g) as u64;
    let p1 = tmp("quota-a.sgr");
    let p2 = tmp("quota-b.sgr");
    slimgraph::store::save_sgr(&g, &p1).expect("save");
    slimgraph::store::save_sgr(&g, &p2).expect("save");

    // Budget fits one resident copy but not two.
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        catalog_quota_bytes: bytes + bytes / 2,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    let load = |name: &str, path: &str| {
        Client::request_for("load").with("name", Json::str(name)).with("path", Json::str(path))
    };
    ok(&client.request(&load("a", &p1)).expect("first load"));
    let response = client.request(&load("b", &p2)).expect("answered");
    assert_eq!(error_code(&response), "quota-exceeded", "{}", response.render());
    // The rejected graph must not linger half-registered.
    let response = client
        .request(
            &Client::request_for("compress")
                .with("graph", Json::str("b"))
                .with("spec", Json::str("uniform:p=0.5")),
        )
        .expect("answered");
    assert_eq!(error_code(&response), "unknown-graph", "{}", response.render());

    // Evicting refunds the budget; the second load now fits.
    ok(&client
        .request(&Client::request_for("evict").with("graph", Json::str("a")))
        .expect("evict"));
    ok(&client.request(&load("b", &p2)).expect("load after refund"));

    let stats = client.request(&Client::request_for("stats")).expect("stats");
    let clients = ok(&stats).get("clients").and_then(Json::as_arr).expect("clients");
    let me = clients
        .iter()
        .find(|c| c.get("peer").and_then(Json::as_str) == Some("127.0.0.1"))
        .unwrap_or_else(|| panic!("loopback peer tracked: {}", stats.render()));
    assert_eq!(
        me.get("catalog_bytes").and_then(Json::as_u64),
        Some(bytes),
        "usage reflects exactly one resident copy: {}",
        stats.render()
    );
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn cache_quota_bounds_pipeline_runs_and_cache_clear_resets() {
    let g = generators::barabasi_albert(400, 4, 61);
    let path = tmp("cachequota.sgr");
    slimgraph::store::save_sgr(&g, &path).expect("save");

    // A 1-byte budget: the first run is admitted (nothing used yet),
    // every later run is over budget until the cache is cleared.
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        cache_quota_bytes: 1,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));
    let compress = Client::request_for("compress")
        .with("graph", Json::str("g"))
        .with("spec", Json::str("uniform:p=0.5"))
        .with("seed", Json::u64(7));
    ok(&client.request(&compress).expect("first run"));
    let response = client.request(&compress).expect("answered");
    assert_eq!(error_code(&response), "quota-exceeded", "{}", response.render());
    assert!(
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("evict"),
        "error points at the remedy: {}",
        response.render()
    );
    // Clearing the cache resets per-peer cache usage.
    ok(&client
        .request(&Client::request_for("evict").with("cache", Json::Bool(true)))
        .expect("cache clear"));
    ok(&client.request(&compress).expect("run after reset"));
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}
