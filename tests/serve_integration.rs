//! End-to-end daemon suite: spawn `sg-serve` on an ephemeral socket, drive
//! `load`/`compress`/`analyze`/`stats`/`evict` over a real connection, and
//! check what the protocol promises — load-once, per-stage cache flags, an
//! output file byte-equal to a local save, eviction, stable error codes
//! that leave the connection open, concurrent clients, the unix socket. A
//! served digest equal to the cold run on the whole corpus is the contract
//! harness's `Served` axis (`tests/contract/`).

mod contract;
mod oracle;

use contract::{cold, compress_request, ok, quiet, spawn, tmp};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig, Server};

/// The full load → compress ×2 → analyze → stats → evict → shutdown
/// session at one thread count.
fn full_session_scenario(threads: usize) {
    let g = generators::planted_triangles(&generators::barabasi_albert(700, 4, 51), 500, 52);
    let sgr = tmp(&format!("serve-{threads}.sgr"));
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");

    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");

    // ping → load (twice: the second must be a no-op).
    ok(&client.request(&Client::request_for("ping")).expect("ping"));
    let load =
        Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr));
    let first = client.request(&load).expect("load");
    assert_eq!(ok(&first).get("loaded").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("edges").and_then(Json::as_u64), Some(g.num_edges() as u64));
    let second = client.request(&load).expect("reload");
    assert_eq!(ok(&second).get("loaded").and_then(Json::as_bool), Some(false), "load-once");

    // compress #1 (cold): digest must byte-match the direct run, and the
    // server-side output file must byte-match a local save of it.
    let spec_a = "spanner:k=4,lowdeg,uniform:p=0.5";
    let out_path = tmp(&format!("serve-{threads}-a.sgr"));
    let response = client
        .request(&compress_request("g", spec_a, 7).with("output", Json::str(&out_path)))
        .expect("compress");
    let reference = cold(spec_a, &g, 7).graph;
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(format!("{:016x}", graph_digest(&reference)).as_str()),
        "daemon output digest != direct Pipeline::apply digest"
    );
    assert_eq!(response.get("edges").and_then(Json::as_u64), Some(reference.num_edges() as u64));
    assert_eq!(response.get("stages_executed").and_then(Json::as_u64), Some(3));
    let local = tmp(&format!("serve-{threads}-a-local.sgr"));
    slimgraph::store::save_sgr(&reference, &local).expect("local save");
    assert_eq!(
        std::fs::read(&out_path).expect("server file"),
        std::fs::read(&local).expect("local file"),
        "server-side output file must byte-match the direct run's serialization"
    );

    // compress #2, shared 2-stage prefix: strictly fewer stages executed,
    // digest still equal to its own direct run.
    let spec_b = "spanner:k=4,lowdeg,cut:k=2";
    let response = client.request(&compress_request("g", spec_b, 7)).expect("compress b");
    assert_eq!(ok(&response).get("stages_cached").and_then(Json::as_u64), Some(2));
    assert_eq!(response.get("stages_executed").and_then(Json::as_u64), Some(1));
    let reference_b = cold(spec_b, &g, 7).graph;
    assert_eq!(
        response.get("checksum").and_then(Json::as_str),
        Some(format!("{:016x}", graph_digest(&reference_b)).as_str()),
        "cache-hit output must byte-match a cold run"
    );
    let cached_flags: Vec<bool> = response
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stage array")
        .iter()
        .map(|s| s.get("cached").and_then(Json::as_bool).expect("cached flag"))
        .collect();
    assert_eq!(cached_flags, vec![true, true, false], "per-stage cache flags");

    // analyze: metrics must match directly computed ones.
    let analyze = Client::request_for("analyze")
        .with("graph", Json::str("g"))
        .with("spec", Json::str("uniform:p=0.5"))
        .with("seed", Json::u64(9));
    let response = client.request(&analyze).expect("analyze");
    let compressed = cold("uniform:p=0.5", &g, 9).graph;
    let metrics = ok(&response).get("metrics").expect("metrics object");
    let triangles = metrics.get("triangles").and_then(Json::as_arr).expect("triangle pair");
    assert_eq!(triangles[0].as_u64(), Some(slimgraph::algos::tc::count_triangles(&g)));
    assert_eq!(triangles[1].as_u64(), Some(slimgraph::algos::tc::count_triangles(&compressed)));
    let kl = metrics.get("pagerank_kl").and_then(Json::as_f64).expect("kl for same vertex set");
    let pr0 = slimgraph::algos::pagerank::pagerank_default(&g).scores;
    let pr1 = slimgraph::algos::pagerank::pagerank_default(&compressed).scores;
    assert_eq!(
        kl.to_bits(),
        slimgraph::metrics::kl_divergence(&pr0, &pr1).to_bits(),
        "daemon KL must bit-match the direct computation"
    );

    // stats: the graph is listed, the cache has entries and hits.
    let stats = client.request(&Client::request_for("stats")).expect("stats");
    let graphs = ok(&stats).get("graphs").and_then(Json::as_arr).expect("graphs");
    assert_eq!(graphs.len(), 1);
    assert_eq!(graphs[0].get("name").and_then(Json::as_str), Some("g"));
    let cache = stats.get("cache").expect("cache stats");
    assert!(cache.get("entries").and_then(Json::as_u64).expect("entries") > 0);
    assert!(cache.get("hits").and_then(Json::as_u64).expect("hits") > 0);

    // evict: the graph disappears and its cache entries are dropped;
    // compressing against it now fails with the stable code.
    let evict = Client::request_for("evict").with("graph", Json::str("g"));
    let response = client.request(&evict).expect("evict");
    assert!(
        ok(&response).get("cache_entries_dropped").and_then(Json::as_u64).expect("dropped") > 0
    );
    let gone = client.request(&compress_request("g", spec_a, 7)).expect("compress evicted");
    assert_eq!(gone.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        gone.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("unknown-graph")
    );

    // shutdown: acknowledged, daemon exits cleanly.
    let response = client.request(&Client::request_for("shutdown")).expect("shutdown");
    assert_eq!(ok(&response).get("shutting_down").and_then(Json::as_bool), Some(true));
    daemon.join().expect("daemon thread").expect("serve loop exits cleanly");
}

#[test]
fn full_session_over_tcp_at_1_thread() {
    rayon::with_num_threads(1, || full_session_scenario(1));
}

#[test]
fn full_session_over_tcp_at_4_threads() {
    rayon::with_num_threads(4, || full_session_scenario(4));
}

#[test]
fn protocol_errors_have_stable_codes_and_do_not_kill_the_connection() {
    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");
    let code = contract::error_code;
    let bad = Json::parse(&client.request_line("this is not json").expect("answered"))
        .expect("error response is valid JSON");
    assert_eq!(code(&bad), "bad-request");
    let unknown = client.request(&Client::request_for("frobnicate")).expect("answered");
    assert_eq!(code(&unknown), "unknown-op");
    let version = client
        .request(&Json::obj().with("v", Json::u64(99)).with("op", Json::str("ping")))
        .expect("answered");
    assert_eq!(code(&version), "version");
    let missing = client
        .request(&Client::request_for("load").with("name", Json::str("g")))
        .expect("answered");
    assert_eq!(code(&missing), "bad-request");
    let no_file = client
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str("/nonexistent/graph.sgr")),
        )
        .expect("answered");
    assert_eq!(code(&no_file), "io");
    let bad_spec = client
        .request(
            &Client::request_for("analyze")
                .with("graph", Json::str("missing"))
                .with("spec", Json::str("uniform:p=0.5")),
        )
        .expect("answered");
    assert_eq!(code(&bad_spec), "unknown-graph");
    // The connection survived all of that.
    ok(&client.request(&Client::request_for("ping")).expect("still alive"));
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn concurrent_clients_share_the_catalog_and_cache() {
    let g = generators::erdos_renyi(500, 2000, 61);
    let path = tmp("serve-concurrent.txt");
    slimgraph::graph::io::save_text(&g, &path).expect("save");
    let (addr, daemon) = spawn(quiet());

    // One client loads; many clients compress the same spec concurrently.
    let mut loader = Client::connect(&addr).expect("connect");
    ok(&loader
        .request(
            &Client::request_for("load")
                .with("name", Json::str("shared"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));
    let reference =
        format!("{:016x}", graph_digest(&cold("spanner:k=4,uniform:p=0.5", &g, 3).graph));
    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let response = client
                        .request(&compress_request("shared", "spanner:k=4,uniform:p=0.5", 3))
                        .expect("compress");
                    response.get("checksum").and_then(Json::as_str).expect("checksum").to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for digest in &digests {
        assert_eq!(digest, &reference, "every concurrent client gets the exact cold-run bytes");
    }
    ok(&loader.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works_end_to_end() {
    let path = tmp("serve.sock");
    let cfg =
        ServeConfig { listen: format!("unix:{path}"), transcript: false, ..Default::default() };
    let server = Server::bind(&cfg).expect("bind unix socket");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect over unix socket");
    ok(&client.request(&Client::request_for("ping")).expect("ping"));
    let stats = client.request(&Client::request_for("stats")).expect("stats");
    assert_eq!(ok(&stats).get("graphs").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
    assert!(!std::path::Path::new(&path).exists(), "socket file cleaned up");
}
