//! Multi-daemon federation suite (the ISSUE 10 service bar): a
//! coordinator daemon plus stock worker daemons on loopback, driven over
//! real connections. Covers the happy path (merged result byte-matches a
//! local run, per-shard digests agree), lazy replica distribution, worker
//! death + ring retry, total-fleet failure, the coordinator-local
//! fallback for non-federable plans, and the split-brain digest guard.

use slimgraph::core::{PipelineSpec, SchemeRegistry};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, FedConfig, Json, ServeConfig, Server};
use slimgraph::CsrGraph;

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("slimgraph-federation-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

/// A graph with planted triangles so TR schemes have real work.
fn input_graph() -> CsrGraph {
    generators::planted_triangles(&generators::barabasi_albert(600, 4, 71), 400, 72)
}

fn cold(spec: &str, g: &CsrGraph, seed: u64) -> CsrGraph {
    PipelineSpec::parse(spec)
        .expect("spec parses")
        .build(&SchemeRegistry::with_defaults())
        .expect("spec builds")
        .apply(g, seed)
        .result
        .graph
}

type Daemon = (String, std::thread::JoinHandle<std::io::Result<()>>);

/// Binds a quiet daemon (worker or coordinator) on an ephemeral TCP port.
fn spawn(federation: Option<FedConfig>) -> Daemon {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        federation,
        ..Default::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn spawn_worker() -> Daemon {
    spawn(None)
}

fn spawn_coordinator(workers: Vec<String>, retries: usize, timeout_ms: u64) -> Daemon {
    spawn(Some(FedConfig { workers, retries, timeout_ms, token: None }))
}

fn shutdown(daemons: Vec<Daemon>) {
    for (addr, handle) in daemons {
        let mut client = Client::connect(&addr).expect("connect for shutdown");
        client.request(&Client::request_for("shutdown")).expect("shutdown");
        handle.join().expect("daemon thread").expect("daemon exit");
    }
}

fn ok(response: &Json) -> &Json {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {}",
        response.render()
    );
    response
}

fn error_code(response: &Json) -> &str {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error code in {}", response.render()))
}

fn compress_request(graph: &str, spec: &str, seed: u64) -> Json {
    Client::request_for("compress")
        .with("graph", Json::str(graph))
        .with("spec", Json::str(spec))
        .with("seed", Json::u64(seed))
}

/// An address nothing listens on (bind an ephemeral port, then drop it).
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = listener.local_addr().expect("probe addr").to_string();
    drop(listener);
    addr
}

#[test]
fn coordinator_federates_and_byte_matches_a_local_run() {
    let g = input_graph();
    let sgr = tmp("fed-e2e.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");

    let worker_a = spawn_worker();
    let worker_b = spawn_worker();
    let coordinator = spawn_coordinator(vec![worker_a.0.clone(), worker_b.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");

    // Only the coordinator loads the graph: workers must be populated
    // lazily through the forwarded `load`.
    let load =
        Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr));
    ok(&client.request(&load).expect("load"));

    // Federated compress: the merged result must byte-match a local run
    // (checksum is the FNV digest of the final graph).
    for (spec, seed) in [("uniform:p=0.5", 7u64), ("tr:p=0.6", 9), ("lowdeg", 3)] {
        let response = client.request(&compress_request("g", spec, seed)).expect("compress");
        let reference = cold(spec, &g, seed);
        assert_eq!(
            ok(&response).get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", graph_digest(&reference)).as_str()),
            "{spec}: federated digest != local Pipeline::apply digest"
        );
        assert_eq!(
            response.get("edges").and_then(Json::as_u64),
            Some(reference.num_edges() as u64),
            "{spec}"
        );
        let fed = response.get("federation").expect("federation block");
        assert_eq!(fed.get("mode").and_then(Json::as_str), Some("federated"), "{spec}");
        assert_eq!(fed.get("shards").and_then(Json::as_u64), Some(2), "{spec}");
        let workers = fed.get("workers").and_then(Json::as_arr).expect("workers array");
        assert_eq!(workers.len(), 2, "{spec}");
        let input_digest = format!("{:016x}", graph_digest(&g));
        for shard in workers {
            assert_eq!(
                shard.get("checksum").and_then(Json::as_str),
                Some(input_digest.as_str()),
                "{spec}: every shard must report the input replica's digest"
            );
            assert_eq!(shard.get("attempts").and_then(Json::as_u64), Some(1), "{spec}");
        }
    }

    // analyze rides the same path and adds the metrics block.
    let response = client
        .request(
            &Client::request_for("analyze")
                .with("graph", Json::str("g"))
                .with("spec", Json::str("uniform:p=0.5"))
                .with("seed", Json::u64(7)),
        )
        .expect("analyze");
    assert_eq!(
        ok(&response).get("federation").and_then(|f| f.get("mode")).and_then(Json::as_str),
        Some("federated")
    );
    assert!(response.get("metrics").is_some(), "analyze keeps its metrics block");

    // The `federation` status op: topology + reachability on the
    // coordinator, `standalone` on a worker.
    let status = client.request(&Client::request_for("federation")).expect("federation op");
    let fed = ok(&status).get("federation").expect("federation block");
    assert_eq!(fed.get("mode").and_then(Json::as_str), Some("coordinator"));
    for worker in fed.get("workers").and_then(Json::as_arr).expect("workers") {
        assert_eq!(worker.get("reachable").and_then(Json::as_bool), Some(true));
    }
    let mut direct = Client::connect(&worker_a.0).expect("connect worker");
    let status = direct.request(&Client::request_for("federation")).expect("worker op");
    assert_eq!(
        ok(&status).get("federation").and_then(|f| f.get("mode")).and_then(Json::as_str),
        Some("standalone")
    );

    shutdown(vec![coordinator, worker_a, worker_b]);
}

#[test]
fn dead_worker_shards_migrate_to_the_next_in_the_ring() {
    let g = input_graph();
    let sgr = tmp("fed-retry.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");

    let worker = spawn_worker();
    // Shard 0's first attempt lands on the dead address and must migrate
    // to the live worker; shard 1 starts on the live worker directly.
    // The per-attempt patience is the default 5 s: a refused connect must
    // move the ring on at once, not after re-dialing for the whole window.
    let coordinator = spawn_coordinator(vec![dead_addr(), worker.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    ok(&client
        .request(
            &Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr)),
        )
        .expect("load"));

    let asked = std::time::Instant::now();
    let response = client.request(&compress_request("g", "uniform:p=0.4", 11)).expect("compress");
    let waited = asked.elapsed();
    assert!(
        waited < std::time::Duration::from_secs(2),
        "a dead worker must cost a refused connect, not the 5 s timeout (took {waited:?})"
    );
    let reference = cold("uniform:p=0.4", &g, 11);
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(format!("{:016x}", graph_digest(&reference)).as_str()),
        "retried run must still byte-match the local run"
    );
    let fed = response.get("federation").expect("federation block");
    let workers = fed.get("workers").and_then(Json::as_arr).expect("workers");
    let attempts: Vec<u64> =
        workers.iter().filter_map(|w| w.get("attempts").and_then(Json::as_u64)).collect();
    assert_eq!(attempts, vec![2, 1], "shard 0 retried once, shard 1 served first try");
    for shard in workers {
        assert_eq!(
            shard.get("addr").and_then(Json::as_str),
            Some(worker.0.as_str()),
            "both shards ended up on the live worker"
        );
    }

    shutdown(vec![coordinator, worker]);
}

#[test]
fn exhausted_retries_fail_with_a_stable_code() {
    let g = input_graph();
    let sgr = tmp("fed-dead.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");

    let coordinator = spawn_coordinator(vec![dead_addr()], 0, 200);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    ok(&client
        .request(
            &Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr)),
        )
        .expect("load"));

    let response = client.request(&compress_request("g", "uniform:p=0.4", 11)).expect("request");
    assert_eq!(error_code(&response), "fed-shard-failed");

    shutdown(vec![coordinator]);
}

#[test]
fn non_federable_plans_fall_back_to_the_coordinator() {
    let g = input_graph();
    let sgr = tmp("fed-local.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");

    let worker = spawn_worker();
    let coordinator = spawn_coordinator(vec![worker.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    ok(&client
        .request(
            &Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr)),
        )
        .expect("load"));

    // Edge-Once disciplines need the cross-shard flag exchange;
    // multi-stage chains need intermediate graphs. Both run locally —
    // with the correct result and an explanatory federation block.
    for spec in ["tr-eo:p=0.6", "spanner:k=4,lowdeg"] {
        let response = client.request(&compress_request("g", spec, 5)).expect("compress");
        let reference = cold(spec, &g, 5);
        assert_eq!(
            ok(&response).get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", graph_digest(&reference)).as_str()),
            "{spec}"
        );
        let fed = response.get("federation").expect("federation block");
        assert_eq!(fed.get("mode").and_then(Json::as_str), Some("local"), "{spec}");
        assert!(
            fed.get("reason").and_then(Json::as_str).is_some_and(|r| !r.is_empty()),
            "{spec}: fallback must say why"
        );
    }

    shutdown(vec![coordinator, worker]);
}

#[test]
fn reweighting_edge_kernels_run_on_the_coordinator() {
    // A shard reply carries deletion ids only, so the survivors' new
    // weights cannot cross the wire: the plan is not federable, and the
    // coordinator's answer equals a standalone daemon's, weights included.
    let g = input_graph();
    let sgr = tmp("fed-reweight.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");
    let load =
        Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr));

    let worker = spawn_worker();
    let coordinator = spawn_coordinator(vec![worker.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    ok(&client.request(&load).expect("load"));
    let mut standalone = Client::connect(&worker.0).expect("connect worker");
    ok(&standalone.request(&load).expect("load on the standalone daemon"));

    let request = compress_request("g", "spectral:p=0.5:reweight=true", 5);
    let federated = client.request(&request).expect("compress");
    let direct = standalone.request(&request).expect("direct compress");
    let reference = cold("spectral:p=0.5:reweight=true", &g, 5);
    assert!(reference.is_weighted(), "the reference run reweights its survivors");
    let checksum = ok(&federated).get("checksum").and_then(Json::as_str);
    assert_eq!(checksum, Some(format!("{:016x}", graph_digest(&reference)).as_str()));
    assert_eq!(checksum, ok(&direct).get("checksum").and_then(Json::as_str));
    let fed = federated.get("federation").expect("federation block");
    assert_eq!(fed.get("mode").and_then(Json::as_str), Some("local"));
    let reason = fed.get("reason").and_then(Json::as_str).expect("fallback says why");
    assert!(reason.contains("reweights"), "{reason}");

    shutdown(vec![coordinator, worker]);
}

#[test]
fn replica_digest_mismatch_aborts_the_merge() {
    let g = input_graph();
    let sgr = tmp("fed-split.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");
    // A different graph the worker will hold under the same name.
    let other = generators::erdos_renyi(300, 900, 5);
    let other_sgr = tmp("fed-split-other.sgr");
    slimgraph::store::save_sgr(&other, &other_sgr).expect("write other");

    let worker = spawn_worker();
    let mut direct = Client::connect(&worker.0).expect("connect worker");
    ok(&direct
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&other_sgr)),
        )
        .expect("poison worker"));

    let coordinator = spawn_coordinator(vec![worker.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    ok(&client
        .request(
            &Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&sgr)),
        )
        .expect("load"));

    let response = client.request(&compress_request("g", "uniform:p=0.4", 11)).expect("request");
    assert_eq!(error_code(&response), "fed-digest-mismatch");

    shutdown(vec![coordinator, worker]);
}

/// The worker's memoised replica digest is keyed by registration: swap
/// the replica (`evict` + `load` of another file under the same name)
/// after a request has verified it, and the very next request is refused.
#[test]
fn a_replica_swapped_after_it_was_verified_is_refused_on_the_next_request() {
    let g = input_graph();
    let sgr = tmp("fed-swap.sgr");
    slimgraph::store::save_sgr(&g, &sgr).expect("write input");
    let other_sgr = tmp("fed-swap-other.sgr");
    slimgraph::store::save_sgr(&generators::erdos_renyi(300, 900, 5), &other_sgr)
        .expect("write other");

    let worker = spawn_worker();
    let coordinator = spawn_coordinator(vec![worker.0.clone()], 1, 5_000);
    let mut client = Client::connect(&coordinator.0).expect("connect");
    let load = |path: &str| {
        Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(path))
    };
    ok(&client.request(&load(&sgr)).expect("load"));
    for seed in [11, 12] {
        let response = client.request(&compress_request("g", "uniform:p=0.4", seed)).expect("ok");
        assert_eq!(
            ok(&response).get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", graph_digest(&cold("uniform:p=0.4", &g, seed))).as_str())
        );
    }

    let mut direct = Client::connect(&worker.0).expect("connect worker");
    ok(&direct
        .request(&Client::request_for("evict").with("graph", Json::str("g")))
        .expect("evict replica"));
    ok(&direct.request(&load(&other_sgr)).expect("swap replica"));
    let response = client.request(&compress_request("g", "uniform:p=0.4", 13)).expect("request");
    assert_eq!(error_code(&response), "fed-digest-mismatch");

    // One FNV pass per registration the worker was asked about, not per request.
    let metrics = direct.request(&Client::request_for("metrics")).expect("metrics");
    let digests = ok(&metrics)
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.facts.digest_computed"))
        .and_then(Json::as_u64);
    assert_eq!(digests, Some(2));

    shutdown(vec![coordinator, worker]);
}
