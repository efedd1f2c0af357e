//! Transcript pin for the `sg-serve` wire protocol: fixed v2 scripts
//! covering every op and every error code reachable from a request are
//! replayed against in-process daemons, and every response line — with
//! timings, uptimes, paths, ephemeral addresses and process-wide ids
//! masked, everything else byte for byte — is compared to the expected
//! transcripts under `tests/transcripts/`.
//!
//! This is the licence for refactoring the request path: a change that
//! claims "responses stay byte-identical" passes this file with the
//! expected transcripts untouched. Masking is textual (the raw response
//! bytes are never re-rendered), so field order, number formatting and
//! string escaping are all pinned.
//!
//! To re-bless after an intended protocol change, copy the `.actual`
//! file a failing run names over the expected transcript.

mod transcript;

use slimgraph::graph::generators;
use slimgraph::serve::{b64, graph_digest, Client, FedConfig, Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use transcript::{mask_all, tmp};

/// A path no daemon can read or write, spelled out so `io` error
/// messages are the same on every machine.
const NOWHERE: &str = "/nonexistent/slimgraph-transcript";

/// The deterministic part of a `metrics` response: this daemon's own
/// `serve.*` / `fed.*` counters and the per-op request counts of its
/// `serve.service_ms.<op>` histograms.
fn serve_counters(response: &str) -> String {
    let parsed = Json::parse(response).expect("metrics response parses");
    let snapshot = parsed.get("metrics").expect("metrics block");
    let mut out = String::from("#");
    if let Some(Json::Obj(counters)) = snapshot.get("counters") {
        for (name, value) in counters {
            if name.starts_with("serve.") || name.starts_with("fed.") {
                out.push_str(&format!(" {name}={}", value.render()));
            }
        }
    }
    if let Some(Json::Obj(histograms)) = snapshot.get("histograms") {
        for (name, hist) in histograms {
            if name.starts_with("serve.service_ms") {
                let count = hist.get("count").map(Json::render).unwrap_or_default();
                out.push_str(&format!(" {name}#{count}"));
            }
        }
    }
    out
}

/// One scripted connection plus the transcript it accumulates.
struct Session {
    client: Client,
    log: String,
}

impl Session {
    fn connect(addr: &str) -> Session {
        Session { client: Client::connect(addr).expect("connect"), log: String::new() }
    }

    fn note(&mut self, text: &str) {
        self.log.push_str(&format!("## {text}\n"));
    }

    fn record(&mut self, request: &str, response: &str, extra: &[&str]) {
        self.log.push_str(&format!("> {}\n", mask_all(request, extra)));
        self.log.push_str(&format!("< {}\n", mask_all(response, extra)));
        if request.contains("\"op\":\"metrics\"") {
            self.log.push_str(&format!("{}\n", serve_counters(response)));
        }
    }

    /// Sends one raw request line; logs it and the reply, masked.
    fn send(&mut self, line: &str) {
        self.send_masking(line, &[]);
    }

    /// [`Session::send`] with extra masked keys for this exchange only
    /// (messages that embed ephemeral addresses or OS error text).
    fn send_masking(&mut self, line: &str, extra: &[&str]) {
        let response = self.client.request_line(line).expect("daemon answers");
        self.record(line, &response, extra);
    }

    fn finish(self, name: &str, expected: &str) {
        transcript::finish(name, &self.log, expected);
    }
}

type Daemon = (String, std::thread::JoinHandle<std::io::Result<()>>);

fn spawn(cfg: ServeConfig) -> Daemon {
    let server =
        Server::bind(&ServeConfig { listen: "127.0.0.1:0".into(), transcript: false, ..cfg })
            .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn join(daemon: Daemon) {
    daemon.1.join().expect("daemon thread").expect("clean exit");
}

/// The input every section loads: small enough that `shard_run` id lists
/// stay readable, with planted triangles so TR stages have work.
fn input_sgr(name: &str) -> String {
    let g = generators::planted_triangles(&generators::barabasi_albert(120, 3, 71), 40, 72);
    let path = tmp(name);
    slimgraph::store::save_sgr(&g, &path).expect("write input");
    path
}

/// A four-edge text graph, its file bytes, and its graph digest — the
/// payload of the upload exchanges.
fn tiny_upload() -> (Vec<u8>, String) {
    let path = tmp("tiny.txt");
    std::fs::write(&path, "0 1\n1 2\n2 0\n2 3\n").expect("write tiny graph");
    let graph =
        slimgraph::core::catalog::load_graph(&path, Some("text"), false).expect("tiny graph loads");
    (std::fs::read(&path).expect("read back"), format!("{:016x}", graph_digest(&graph)))
}

fn load_line(id: &str, name: &str, path: &str) -> String {
    Client::request_for("load")
        .with("id", Json::str(id))
        .with("name", Json::str(name))
        .with("path", Json::str(path))
        .render()
}

/// Reads the single line a terminal rejection writes before the daemon
/// half-closes.
fn read_line(stream: TcpStream) -> String {
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("terminal error line");
    line.trim().to_string()
}

#[test]
fn standalone_daemon_transcript() {
    let sgr = input_sgr("standalone.sgr");
    let out = tmp("standalone-out.sgr");
    let (tiny, tiny_digest) = tiny_upload();
    let daemon = spawn(ServeConfig {
        workers: 2,
        queue_depth: 1,
        read_timeout_ms: 200,
        max_frame_bytes: 4096,
        retry_after_ms: 150,
        slow_ms: 0,
        ..Default::default()
    });
    let mut s = Session::connect(&daemon.0);

    s.note("envelope: id echo (string, number, escapes), absent v, parse failures");
    s.send(r#"{"v":2,"id":"t-1","op":"ping"}"#);
    s.send(r#"{"op":"ping"}"#);
    s.send(r#"{"v":2,"id":7,"op":"ping"}"#);
    s.send(r#"{"v":2,"id":"q\"uo\\te\n\u0001é","op":"ping"}"#);
    s.send(r#"{"v":2,"id":{"nested":[1,null]},"op":"ping"}"#);
    s.send("not json");
    s.send("[1,2]");
    s.send(r#"{"v":2,"id":"x","op":"frobnicate"}"#);
    s.send(r#"{"v":2,"id":"x","op":1}"#);
    s.send(r#"{"v":2,"id":"x","op":"ping","token":7}"#);
    // The wording of the version message names the supported version(s).
    s.send_masking(r#"{"v":99,"id":"x","op":"ping"}"#, &["message"]);

    s.note("load");
    s.send(r#"{"v":2,"op":"load","name":"g"}"#);
    s.send(&load_line("l-0", "missing", &format!("{NOWHERE}/missing.sgr")));
    s.send(&load_line("l-1", "g", &sgr));
    s.send(&load_line("l-2", "g", &sgr));

    s.note("stats of one graph");
    s.send(r#"{"v":2,"op":"stats","graph":"g"}"#);
    s.send(r#"{"v":2,"op":"stats","graph":"nope"}"#);

    s.note("upload: begin / chunk / commit / abort and their failures");
    let begin = |name: &str, digest: &str| {
        Client::request_for("upload")
            .with("name", Json::str(name))
            .with("phase", Json::str("begin"))
            .with("total_bytes", Json::u64(tiny.len() as u64))
            .with("digest", Json::str(digest))
            .with("format", Json::str("text"))
            .render()
    };
    let chunk = |name: &str, offset: u64| {
        Client::request_for("upload")
            .with("name", Json::str(name))
            .with("phase", Json::str("chunk"))
            .with("offset", Json::u64(offset))
            .with("data", Json::str(b64::encode(&tiny)))
            .render()
    };
    s.send(&begin("up", &tiny_digest));
    s.send(&chunk("up", 7));
    s.send(&chunk("up", 0));
    s.send(r#"{"v":2,"op":"upload","name":"up","phase":"commit"}"#);
    s.send(&begin("wrong", "00000000deadbeef"));
    s.send(&chunk("wrong", 0));
    s.send(r#"{"v":2,"op":"upload","name":"wrong","phase":"commit"}"#);
    s.send(&begin("g", &tiny_digest));
    s.send(r#"{"v":2,"op":"upload","name":"x","phase":"sideways"}"#);
    s.send(r#"{"v":2,"op":"upload","name":"x","phase":"chunk","offset":0,"data":"!!"}"#);
    s.send(r#"{"v":2,"op":"upload","name":"never-begun","phase":"commit"}"#);
    s.send(&begin("pending", &tiny_digest));

    s.note("compress: with and without output, prefix reuse, failures");
    s.send(
        &Client::request_for("compress")
            .with("id", Json::str("c-1"))
            .with("graph", Json::str("g"))
            .with("spec", Json::str("spanner:k=4,lowdeg,uniform:p=0.5"))
            .with("seed", Json::u64(7))
            .with("output", Json::str(out.as_str()))
            .render(),
    );
    s.send(
        r#"{"v":2,"id":"c-2","op":"compress","graph":"g","spec":"spanner:k=4,lowdeg,cut:k=2","seed":7}"#,
    );
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"uniform"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"nope","spec":"uniform"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"nosuch"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"uniform,,lowdeg"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"uniform:p=1.5"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"uniform:q=1"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g"}"#);
    s.send(r#"{"v":2,"op":"compress","graph":"g","spec":"uniform","seed":"x"}"#);
    s.send(
        &Client::request_for("compress")
            .with("graph", Json::str("g"))
            .with("spec", Json::str("uniform"))
            .with("output", Json::str(format!("{NOWHERE}/out.sgr")))
            .render(),
    );

    s.note("analyze: KL projected when the vertex set changes, BFS-critical null");
    s.send(r#"{"v":2,"id":"a-1","op":"analyze","graph":"g","spec":"uniform:p=0.5","seed":9}"#);
    s.send(r#"{"v":2,"id":"a-2","op":"analyze","graph":"g","spec":"collapse","seed":3}"#);
    s.send(r#"{"v":2,"op":"analyze","graph":"nope","spec":"uniform"}"#);
    s.send(r#"{"v":2,"op":"analyze","graph":"g","spec":"nosuch"}"#);

    s.note("shard_run: edge and vertex shards, and what it refuses");
    s.send(
        r#"{"v":2,"id":"s-1","op":"shard_run","graph":"g","spec":"uniform:p=0.5","seed":7,"shard":0,"shards":2}"#,
    );
    s.send(
        r#"{"v":2,"op":"shard_run","graph":"g","spec":"tr:p=0.6","seed":9,"shard":1,"shards":2}"#,
    );
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"lowdeg","shard":1,"shards":3}"#);
    s.send(
        r#"{"v":2,"op":"shard_run","graph":"g","spec":"spanner:k=4,lowdeg","shard":0,"shards":2}"#,
    );
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"tr-eo:p=0.6","shard":0,"shards":2}"#);
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"nosuch","shard":0,"shards":2}"#);
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"uniform","shard":3,"shards":2}"#);
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"uniform","shard":0,"shards":0}"#);
    s.send(r#"{"v":2,"op":"shard_run","graph":"g","spec":"uniform"}"#);
    s.send(r#"{"v":2,"op":"shard_run","graph":"nope","spec":"uniform","shard":0,"shards":2}"#);

    s.note("federation status, server-wide stats, metrics");
    s.send(r#"{"v":2,"op":"federation"}"#);
    s.send(r#"{"v":2,"id":"st","op":"stats"}"#);
    s.send(r#"{"v":2,"id":"m-1","op":"metrics"}"#);

    s.note("evict");
    s.send(r#"{"v":2,"op":"upload","name":"pending","phase":"abort"}"#);
    s.send(r#"{"v":2,"op":"evict"}"#);
    s.send(r#"{"v":2,"op":"evict","graph":"up"}"#);
    s.send(r#"{"v":2,"op":"evict","graph":"nope"}"#);
    s.send(r#"{"v":2,"op":"evict","cache":true}"#);
    s.send(r#"{"v":2,"op":"evict","graph":"g","cache":true}"#);

    s.note("terminal rejections, each on a connection of its own: busy, frame-too-large, timeout");
    // The session pins one worker; `pin` takes the other, `queued` fills
    // the one-slot queue, so the next connection is turned away.
    let ping = r#"{"v":2,"op":"ping"}"#;
    let mut pin = Client::connect(&daemon.0).expect("connect");
    pin.request_line(ping).expect("second worker pinned");
    // (Connections are accepted in the order they were established, and
    // the acceptor enqueues one before accepting the next.)
    let mut queued = TcpStream::connect(&daemon.0).expect("connect");
    let busy = Client::connect(&daemon.0).expect("connect").request_line(ping).expect("busy line");
    s.record(ping, &busy, &[]);
    drop(pin);
    // The queued connection is served next: an over-long frame…
    let oversized = "x".repeat(5000);
    queued.write_all(oversized.as_bytes()).expect("oversized frame");
    let too_large = read_line(queued);
    s.record("<5000 bytes, no newline>", &too_large, &[]);
    // …and a frame that never finishes.
    let mut slow = TcpStream::connect(&daemon.0).expect("connect");
    slow.write_all(br#"{"v":2,"op":"pi"#).expect("partial frame");
    let timed_out = read_line(slow);
    s.record(r#"{"v":2,"op":"pi<stalls>"#, &timed_out, &[]);

    s.note("what the daemon observed: counters, then the slow-request ring (slow_ms = 0 logs all)");
    s.send(r#"{"v":2,"id":"m-2","op":"metrics"}"#);
    s.send(r#"{"v":2,"op":"slowlog"}"#);
    s.send(r#"{"v":2,"id":"bye","op":"shutdown"}"#);
    join(daemon);
    s.finish("standalone", include_str!("transcripts/standalone.txt"));
}

#[test]
fn guarded_daemon_transcript() {
    let sgr = input_sgr("guarded.sgr");
    let daemon = spawn(ServeConfig {
        token: Some("sesame".into()),
        // Room for one copy of the input, not two; any executed stage
        // exhausts the cache budget.
        catalog_quota_bytes: 12_000,
        cache_quota_bytes: 1,
        ..Default::default()
    });
    let mut s = Session::connect(&daemon.0);
    let load = |name: &str| {
        Client::request_for("load")
            .with("token", Json::str("sesame"))
            .with("name", Json::str(name))
            .with("path", Json::str(sgr.as_str()))
            .render()
    };

    s.note("token auth: everything but ping needs it");
    s.send(r#"{"v":2,"op":"ping"}"#);
    s.send(r#"{"v":2,"id":"a","op":"stats","graph":"g"}"#);
    s.send(r#"{"v":2,"id":"b","op":"stats","graph":"g","token":"sesamE"}"#);
    s.send(r#"{"v":2,"id":"c","op":"shutdown"}"#);

    s.note("catalog quota: the second copy does not fit until the first is evicted");
    s.send(&load("g"));
    s.send(&load("h"));
    s.send(r#"{"v":2,"op":"upload","name":"u","phase":"begin","total_bytes":100000,"digest":"0","token":"sesame"}"#);
    s.send(r#"{"v":2,"op":"evict","graph":"g","token":"sesame"}"#);
    s.send(&load("h"));

    s.note("cache quota: refused once the ledger is full, reset by evict cache:true");
    let compress =
        r#"{"v":2,"op":"compress","graph":"h","spec":"uniform:p=0.5","seed":1,"token":"sesame"}"#;
    s.send(compress);
    s.send(compress);
    s.send(r#"{"v":2,"op":"evict","cache":true,"token":"sesame"}"#);
    s.send(compress);

    s.send(r#"{"v":2,"id":"st","op":"stats","token":"sesame"}"#);
    s.send(r#"{"v":2,"id":"m","op":"metrics","token":"sesame"}"#);
    s.send(r#"{"v":2,"id":"bye","op":"shutdown","token":"sesame"}"#);
    join(daemon);
    s.finish("guarded", include_str!("transcripts/guarded.txt"));
}

#[test]
fn coordinator_transcript() {
    let sgr = input_sgr("federation.sgr");
    // A different graph one worker will hold under the same name.
    let other_sgr = tmp("federation-other.sgr");
    slimgraph::store::save_sgr(&generators::erdos_renyi(100, 300, 5), &other_sgr)
        .expect("write other input");
    // An address nothing listens on.
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
    };
    let coordinator = |workers: Vec<String>, retries: usize| {
        spawn(ServeConfig {
            federation: Some(FedConfig { workers, retries, timeout_ms: 5_000, token: None }),
            ..Default::default()
        })
    };
    let worker_a = spawn(ServeConfig::default());
    let worker_b = spawn(ServeConfig::default());
    let compress = |graph: &str, spec: &str, seed: u64| {
        Client::request_for("compress")
            .with("graph", Json::str(graph))
            .with("spec", Json::str(spec))
            .with("seed", Json::u64(seed))
            .render()
    };

    let fleet = coordinator(vec![worker_a.0.clone(), worker_b.0.clone()], 1);
    let mut s = Session::connect(&fleet.0);
    s.note("a coordinator over two live workers (replicas are distributed lazily)");
    s.send(r#"{"v":2,"op":"federation"}"#);
    s.send(&load_line("l", "g", &sgr));
    s.send(&compress("g", "uniform:p=0.5", 7));
    s.send(&compress("g", "lowdeg", 3));
    s.send(r#"{"v":2,"id":"a","op":"analyze","graph":"g","spec":"tr:p=0.6","seed":9}"#);
    s.note("plans that need cross-shard state run on the coordinator and say why");
    s.send(&compress("g", "tr-eo:p=0.6", 5));
    s.send(&compress("g", "spanner:k=4,lowdeg", 5));
    s.send(&compress("g", "spectral:p=0.5:reweight=true", 5));
    s.note("request faults keep their codes on a coordinator");
    s.send(&compress("nope", "uniform", 1));
    s.send(&compress("g", "nosuch", 1));
    s.send(&compress("g", "uniform,,lowdeg", 1));
    s.send(&compress("g", "uniform:p=1.5", 1));
    s.send(r#"{"v":2,"id":"m","op":"metrics"}"#);
    s.send(r#"{"v":2,"op":"shutdown"}"#);
    join(fleet);

    s.note("a coordinator whose only worker is dead");
    let lonely = coordinator(vec![dead], 0);
    s.client = Client::connect(&lonely.0).expect("connect");
    s.send(r#"{"v":2,"op":"federation"}"#);
    s.send(&load_line("l", "g", &sgr));
    s.send_masking(&compress("g", "uniform:p=0.5", 7), &["message"]);
    s.send(r#"{"v":2,"op":"shutdown"}"#);
    join(lonely);

    s.note("a coordinator whose worker holds a different graph under the same name");
    let split = coordinator(vec![worker_b.0.clone()], 1);
    s.client = Client::connect(&split.0).expect("connect");
    s.send(&load_line("l", "g", &other_sgr));
    s.send_masking(&compress("g", "uniform:p=0.5", 7), &["message"]);
    s.send(r#"{"v":2,"op":"shutdown"}"#);
    join(split);

    for worker in [worker_a, worker_b] {
        s.client = Client::connect(&worker.0).expect("connect");
        s.send(r#"{"v":2,"op":"shutdown"}"#);
        join(worker);
    }
    s.finish("federation", include_str!("transcripts/federation.txt"));
}
