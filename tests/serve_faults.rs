//! Fault-injection suite (ISSUE 7): hostile raw-socket clients —
//! truncated frames, oversized frames, garbage JSON, wrong-typed JSON,
//! mid-upload disconnects, slow-loris byte-at-a-time writes — against a
//! live daemon. The daemon must answer stable error codes, reap the
//! offender within its deadline, and keep serving healthy clients
//! **bit-identically** afterward, at `SG_THREADS` ∈ {1, 4}.

use slimgraph::core::{PipelineSpec, SchemeRegistry};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The worker-count override is process-global; tests serialize on it.
static KNOB: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("slimgraph-serve-fault-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

fn spawn(cfg: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn fault_config() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        read_timeout_ms: 400,
        max_frame_bytes: 0, // clamped to the 1 KiB floor by the server
        upload_grace_ms: 0, // partial uploads die with their connection
        ..Default::default()
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

fn error_code(response: &Json) -> String {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_default()
}

/// Reads everything until EOF (or timeout) and returns the first line.
fn read_first_line(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut collected = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                collected.extend_from_slice(&chunk[..n]);
                if collected.contains(&b'\n') {
                    break;
                }
            }
        }
    }
    String::from_utf8_lossy(&collected).lines().next().unwrap_or_default().to_string()
}

fn raw_roundtrip(addr: &str, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send");
    read_first_line(&mut stream)
}

/// The core storm: every hostile client in sequence, then a healthy
/// client proving the daemon still answers bit-identical results.
fn fault_storm(threads: usize) {
    rayon::set_num_threads(threads);
    let g = generators::planted_triangles(&generators::barabasi_albert(400, 4, 71), 300, 72);
    let path = tmp(&format!("faults-{threads}.sgr"));
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let (addr, daemon) = spawn(fault_config());

    // Baseline healthy request before the storm.
    let spec = "spanner:k=4,uniform:p=0.5";
    let reference = {
        let pipeline = PipelineSpec::parse(spec)
            .expect("spec")
            .build(&SchemeRegistry::with_defaults())
            .expect("builds");
        format!("{:016x}", graph_digest(&pipeline.apply(&g, 5).result.graph))
    };
    let mut healthy = Client::connect(&addr).expect("connect");
    ok(&healthy
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));

    // 1. Truncated frame: bytes then silent disconnect — no response is
    //    owed, the daemon must simply survive.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"{\"op\":\"pi").expect("partial frame");
        drop(stream); // vanish mid-frame
    }

    // 2. Garbage JSON → stable bad-request.
    let response = Json::parse(&raw_roundtrip(&addr, b"%%% not json %%%\n")).expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");

    // 3. Valid JSON, wrong types → stable bad-request (and for the seed,
    //    the message names the field).
    let response = Json::parse(&raw_roundtrip(
        &addr,
        b"{\"op\":\"compress\",\"graph\":42,\"spec\":\"uniform:p=0.5\"}\n",
    ))
    .expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");
    let response = Json::parse(&raw_roundtrip(&addr, b"{\"op\":[1,2,3]}\n")).expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");

    // 4. Oversized frame → frame-too-large, connection dropped.
    let mut big = vec![b'x'; 4096]; // over the 1 KiB floor
    big.push(b'\n');
    let response = Json::parse(&raw_roundtrip(&addr, &big)).expect("error JSON");
    assert_eq!(error_code(&response), "frame-too-large");

    // Oversized also without a newline (the cap must not wait for one).
    let response = Json::parse(&raw_roundtrip(&addr, &vec![b'y'; 4096])).expect("error JSON");
    assert_eq!(error_code(&response), "frame-too-large");

    // 5. Slow loris: a byte every 40 ms never finishes a frame; the
    //    400 ms frame deadline must cut it with a `timeout` error.
    {
        let started = Instant::now();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(10))).expect("timeout");
        let mut line = None;
        for _ in 0..100 {
            if stream.write_all(b"{").is_err() {
                break; // server already closed on us
            }
            let mut chunk = [0u8; 1024];
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    line = Some(String::from_utf8_lossy(&chunk[..n]).to_string());
                    break;
                }
                _ => {}
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        let line = line.expect("loris got a final response");
        let response = Json::parse(line.lines().next().expect("line")).expect("error JSON");
        assert_eq!(error_code(&response), "timeout");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "loris reaped within the deadline (took {:?})",
            started.elapsed()
        );
    }

    // 6. Mid-upload disconnect: with zero grace the partial upload is
    //    reaped with its connection.
    {
        let mut uploader = Client::connect(&addr).expect("connect");
        ok(&uploader
            .request(
                &Client::request_for("upload")
                    .with("name", Json::str("partial"))
                    .with("phase", Json::str("begin"))
                    .with("total_bytes", Json::u64(1000))
                    .with("digest", Json::str("0000000000000000")),
            )
            .expect("begin"));
        drop(uploader); // vanish mid-upload
    }
    // Reap happens on the worker that served the connection; poll stats
    // briefly until the slot is gone.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = healthy.request(&Client::request_for("stats")).expect("stats");
        let pending = ok(&stats).get("uploads").and_then(Json::as_arr).expect("uploads").len();
        if pending == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "partial upload not reaped: {}", stats.render());
        std::thread::sleep(Duration::from_millis(50));
    }

    // After the storm: the healthy client's compress is bit-identical to
    // the direct run, on the same connection that watched it all.
    let response = healthy
        .request(
            &Client::request_for("compress")
                .with("graph", Json::str("g"))
                .with("spec", Json::str(spec))
                .with("seed", Json::u64(5)),
        )
        .expect("compress");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(reference.as_str()),
        "post-storm output must byte-match the direct run"
    );

    // The daemon never panicked: shutdown still round-trips and the serve
    // loop exits cleanly (a leaked/poisoned worker would hang the join).
    ok(&healthy.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn fault_storm_at_1_thread() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    fault_storm(1);
    rayon::set_num_threads(0);
}

#[test]
fn fault_storm_at_4_threads() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    fault_storm(4);
    rayon::set_num_threads(0);
}

/// An out-of-range parameter value is a `bad-spec` answered by the
/// registry, not an assert in a scheme body: more such requests than the
/// daemon has workers must leave every worker alive.
#[test]
fn out_of_range_parameters_are_bad_spec_and_cost_no_worker() {
    let workers = 2;
    let g = generators::barabasi_albert(300, 3, 5);
    let path = tmp("faults-range.sgr");
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let (addr, daemon) = spawn(ServeConfig { workers, ..fault_config() });
    let compress = |spec: &str| {
        Client::request_for("compress")
            .with("graph", Json::str("g"))
            .with("spec", Json::str(spec))
            .with("seed", Json::u64(5))
    };
    let mut healthy = Client::connect(&addr).expect("connect");
    ok(&healthy
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));
    drop(healthy);

    // One connection per request, so each lands on whichever worker is
    // free: `workers + 1` of them would exhaust a pool that lost a worker
    // per request.
    let mut specs = vec!["uniform:p=1.5"; workers + 1];
    specs.push("uniform:p=nan");
    for spec in specs {
        let mut client = Client::connect(&addr).expect("connect");
        let response = client.request(&compress(spec)).expect("answered, not dropped");
        assert_eq!(error_code(&response), "bad-spec", "{spec}: {}", response.render());
    }

    let spec = "uniform:p=0.5";
    let reference = PipelineSpec::parse(spec)
        .expect("spec")
        .build(&SchemeRegistry::with_defaults())
        .expect("builds")
        .apply(&g, 5);
    let mut healthy = Client::connect(&addr).expect("connect");
    let response = healthy.request(&compress(spec)).expect("compress");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(format!("{:016x}", graph_digest(&reference.result.graph)).as_str()),
        "a healthy request after the bad ones must byte-match the direct run"
    );
    ok(&healthy.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// `spanner:k=` is legal up to `f64::MAX`. The decomposition's β then sits on
/// its floor and the race behind it spans ≈ 10⁷ rounds, nearly all idle: the
/// request must cost what the *graph* costs, never an allocation or a loop
/// sized by `k`. It answers `ok` with the direct run's digest, and the
/// daemon answers the next `ping`.
#[test]
fn a_huge_spanner_k_is_served_and_the_daemon_stays_responsive() {
    let g = generators::barabasi_albert(2_000, 3, 5);
    let path = tmp("faults-huge-k.sgr");
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let (addr, daemon) = spawn(ServeConfig { workers: 1, ..fault_config() });
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client.request(&load_request("g", &path)).expect("load"));
    for spec in ["spanner:k=1e300", "spanner:k=1.7976931348623157e308"] {
        let reference = PipelineSpec::parse(spec)
            .expect("spec")
            .build(&SchemeRegistry::with_defaults())
            .expect("builds")
            .apply(&g, 5);
        let response = client
            .request(
                &Client::request_for("compress")
                    .with("graph", Json::str("g"))
                    .with("spec", Json::str(spec))
                    .with("seed", Json::u64(5)),
            )
            .expect("answered, not dropped");
        assert_eq!(
            ok(&response).get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", graph_digest(&reference.result.graph)).as_str()),
            "{spec}"
        );
        ok(&client.request(&Client::request_for("ping")).expect("ping"));
    }
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Satellite: the frame deadline must not cut clients that are merely
/// *idle* between requests — only mid-frame stalls are slow-loris.
#[test]
fn slow_but_legal_client_is_not_disconnected() {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        read_timeout_ms: 200,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client.request(&Client::request_for("ping")).expect("first ping"));
    // Idle for 4x the frame deadline: no partial frame is buffered, so
    // no deadline applies.
    std::thread::sleep(Duration::from_millis(800));
    ok(&client.request(&Client::request_for("ping")).expect("ping after long idle"));
    // A frame written slowly but *within* the deadline is also legal.
    let frame = b"{\"op\":\"ping\"}\n";
    let (head, tail) = frame.split_at(5);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(head).expect("head");
    std::thread::sleep(Duration::from_millis(100)); // under the 200ms deadline
    raw.write_all(tail).expect("tail");
    let response = Json::parse(&read_first_line(&mut raw)).expect("response JSON");
    assert_eq!(response.get("pong").and_then(Json::as_bool), Some(true), "{}", response.render());
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// One protocol version is served: an absent `v` means it, and a request
/// declaring any other gets the stable `version` code — whose message
/// names the version to speak — without losing the connection.
#[test]
fn only_the_current_protocol_version_is_served() {
    let (addr, daemon) = spawn(fault_config());
    let mut client = Client::connect(&addr).expect("connect");
    let ping = |v: Option<u64>| {
        let request = Json::obj().with("op", Json::str("ping"));
        v.map_or(request.clone(), |v| request.with("v", Json::u64(v)))
    };
    let response = client.request(&ping(None)).expect("answered");
    assert_eq!(ok(&response).get("v").and_then(Json::as_u64), Some(2), "absent v is served as 2");
    for v in [1, 3, 99] {
        let response = client.request(&ping(Some(v))).expect("answered");
        assert_eq!(error_code(&response), "version", "v={v}: {}", response.render());
        assert_eq!(response.get("v").and_then(Json::as_u64), Some(2), "replies are always v2");
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(message.contains("version 2 only"), "v={v}: {message}");
    }
    // The version is refused before the op is looked at, whatever the op.
    let response = client
        .request(&Json::obj().with("v", Json::u64(1)).with("op", Json::str("metrics")))
        .expect("answered");
    assert_eq!(error_code(&response), "version");
    ok(&client.request(&ping(Some(2))).expect("the connection survives"));
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

fn load_request(name: &str, path: &str) -> Json {
    Client::request_for("load").with("name", Json::str(name)).with("path", Json::str(path))
}

fn analyze_request(graph: &str, spec: &str, seed: u64) -> Json {
    Client::request_for("analyze")
        .with("graph", Json::str(graph))
        .with("spec", Json::str(spec))
        .with("seed", Json::u64(seed))
}

/// One of the daemon's own counters, read through the `metrics` op.
fn counter(client: &mut Client, name: &str) -> u64 {
    let response = client.request(&Client::request_for("metrics")).expect("metrics");
    ok(&response)
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no counter {name} in {}", response.render()))
}

/// What an `analyze` reply says about the graphs: the output's digest
/// and the whole `metrics` block, as rendered on the wire.
fn analysis(response: &Json) -> (String, String) {
    let field = |key: &str| ok(response).get(key).map(Json::render).expect("analyze field");
    (field("checksum"), field("metrics"))
}

/// `analyze` of a zero-vertex graph used to reach `kl_divergence(&[], &[])`,
/// whose assert took the worker with it: on a one-worker daemon the next
/// request never returned.
#[test]
fn analyze_of_an_empty_graph_answers_and_costs_no_worker() {
    let path = tmp("faults-empty.txt");
    std::fs::write(&path, "").expect("write empty input");
    let (addr, daemon) = spawn(ServeConfig { workers: 1, ..fault_config() });
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(20))).expect("bound the wait");
    let loaded = client.request(&load_request("empty", &path)).expect("load");
    assert_eq!(ok(&loaded).get("vertices").and_then(Json::as_u64), Some(0));
    let response = client.request(&analyze_request("empty", "uniform:p=0.5", 1)).expect("answered");
    let metrics = ok(&response).get("metrics").expect("metrics block");
    assert_eq!(metrics.get("pagerank_kl").and_then(Json::as_f64), Some(0.0));
    assert_eq!(metrics.get("bfs_critical_kept").and_then(Json::as_f64), Some(1.0));
    drop(client);
    let mut next = Client::connect(&addr).expect("connect");
    next.set_timeout(Some(Duration::from_secs(20))).expect("bound the wait");
    ok(&next.request(&Client::request_for("ping")).expect("the one worker still serves"));
    ok(&next.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Two connections whose first `analyze` of one graph arrive together
/// share one baseline computation — whichever worker gets there second
/// waits for the first — and both read what a daemon that served only
/// their request would have answered.
#[test]
fn concurrent_first_analyzes_compute_one_baseline() {
    let g = generators::planted_triangles(&generators::barabasi_albert(3000, 4, 71), 600, 72);
    let path = tmp("faults-ledger.sgr");
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let requests =
        [analyze_request("g", "uniform:p=0.5", 3), analyze_request("g", "spanner:k=4", 4)];
    let alone = requests.each_ref().map(|request| {
        let (addr, daemon) = spawn(fault_config());
        let mut client = Client::connect(&addr).expect("connect");
        ok(&client.request(&load_request("g", &path)).expect("load"));
        let answer = analysis(&client.request(request).expect("analyze"));
        ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
        daemon.join().expect("daemon thread").expect("clean exit");
        answer
    });

    let (addr, daemon) = spawn(fault_config());
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client.request(&load_request("g", &path)).expect("load"));
    let start = std::sync::Barrier::new(requests.len());
    let together = std::thread::scope(|scope| {
        let asked = requests.each_ref().map(|request| {
            let mut client = Client::connect(&addr).expect("connect");
            let start = &start;
            scope.spawn(move || {
                start.wait();
                analysis(&client.request(request).expect("analyze"))
            })
        });
        asked.map(|thread| thread.join().expect("client thread"))
    });
    assert_eq!(together, alone);
    assert_eq!(counter(&mut client, "serve.facts.baseline_computed"), 1);
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Facts belong to a registration, not to a name: evicting `g` and
/// loading a different file as `g` mints a new `graph_id`, and both the
/// baseline and the digest are derived again, from the new graph.
#[test]
fn facts_follow_the_registration_not_the_name() {
    let first = generators::barabasi_albert(400, 3, 5); // connected
    let second = generators::erdos_renyi(400, 300, 6); // many components
    let paths = [tmp("faults-facts-1.sgr"), tmp("faults-facts-2.sgr")];
    slimgraph::store::save_sgr(&first, &paths[0]).expect("save input");
    slimgraph::store::save_sgr(&second, &paths[1]).expect("save input");
    let components = |g| slimgraph::algos::cc::connected_components(g).num_components as u64;
    assert_ne!(components(&first), components(&second));
    let shard_run = |graph: &str| {
        Client::request_for("shard_run")
            .with("graph", Json::str(graph))
            .with("spec", Json::str("uniform:p=0.5"))
            .with("seed", Json::u64(1))
            .with("shard", Json::u64(0))
            .with("shards", Json::u64(2))
    };

    let (addr, daemon) = spawn(fault_config());
    let mut client = Client::connect(&addr).expect("connect");
    let mut ids = Vec::new();
    for (round, (g, path)) in [&first, &second].into_iter().zip(&paths).enumerate() {
        let loaded = client.request(&load_request("g", path)).expect("load");
        ids.push(ok(&loaded).get("graph_id").and_then(Json::as_u64).expect("graph_id"));
        // Twice each: the second answer comes from the ledger.
        for seed in [7, 8] {
            let response =
                client.request(&analyze_request("g", "uniform:p=0.5", seed)).expect("analyze");
            let before = ok(&response)
                .get("metrics")
                .and_then(|m| m.get("components"))
                .and_then(Json::as_arr)
                .and_then(|pair| pair[0].as_u64());
            assert_eq!(before, Some(components(g)), "round {round}: the original's components");
            let response = client.request(&shard_run("g")).expect("shard_run");
            assert_eq!(
                ok(&response).get("checksum").and_then(Json::as_str),
                Some(format!("{:016x}", graph_digest(g)).as_str()),
                "round {round}: the replica digest"
            );
        }
        let computed = round as u64 + 1;
        assert_eq!(counter(&mut client, "serve.facts.baseline_computed"), computed);
        assert_eq!(counter(&mut client, "serve.facts.digest_computed"), computed);
        ok(&client
            .request(&Client::request_for("evict").with("graph", Json::str("g")))
            .expect("evict"));
    }
    assert_ne!(ids[0], ids[1], "a re-registered name gets a fresh graph_id");

    // An upload's commit has just verified the digest: the registration
    // starts with it, and no later request makes the pass again.
    ok(&client.upload("up", &paths[0], None, 256).expect("upload"));
    let response = client.request(&shard_run("up")).expect("shard_run");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(format!("{:016x}", graph_digest(&first)).as_str())
    );
    assert_eq!(counter(&mut client, "serve.facts.digest_computed"), 2);
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}
