//! Chunked-upload suite (ISSUE 7): graphs pushed over the wire via the
//! v2 `upload` op must land **byte-identically** to a server-side
//! `load` of the same file — for raw and delta `.sgr` encodings and
//! text — and the transfer must survive reconnects (resume) while
//! rejecting corruption (digest mismatch).

mod contract;
mod oracle;

use contract::{error_code, ok, quiet, spawn, tmp};
use slimgraph::graph::generators;
use slimgraph::serve::{b64, graph_digest, Client, Json};
use slimgraph::store::{save_sgr, save_sgr_with, Encoding};
use std::time::Duration;

fn sample_graph() -> slimgraph::CsrGraph {
    generators::planted_triangles(&generators::barabasi_albert(500, 5, 31), 400, 32)
}

/// Uploading a file and `load`-ing the same file server-side must yield
/// the same digest, and pipelines over both must write byte-identical
/// `.sgr` outputs — for raw `.sgr`, delta `.sgr`, and text inputs.
#[test]
fn upload_equals_server_side_load_across_encodings() {
    let g = sample_graph();
    let expected = format!("{:016x}", graph_digest(&g));

    let raw = tmp("eq-raw.sgr");
    save_sgr(&g, &raw).expect("save raw");
    let delta = tmp("eq-delta.sgr");
    save_sgr_with(&g, &delta, Encoding::Delta).expect("save delta");
    let text = tmp("eq-text.txt");
    slimgraph::graph::io::save_text(&g, &text).expect("save text");

    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");

    for (label, path) in [("raw", &raw), ("delta", &delta), ("text", &text)] {
        let uploaded = format!("up-{label}");
        let loaded = format!("ld-{label}");
        // Small chunks force multiple frames even for small files.
        let response = client.upload(&uploaded, path, None, 4 << 10).expect(label);
        let response = ok(&response);
        assert_eq!(
            response.get("checksum").and_then(Json::as_str),
            Some(expected.as_str()),
            "{label}: uploaded copy digests identically"
        );
        assert_eq!(
            response.get("uploaded_bytes").and_then(Json::as_u64),
            Some(std::fs::metadata(path).expect("meta").len()),
            "{label}: byte count accounted"
        );
        ok(&client
            .request(
                &Client::request_for("load")
                    .with("name", Json::str(&loaded))
                    .with("path", Json::str(path.as_str())),
            )
            .expect("load"));

        // Same pipeline over both copies → byte-identical server files.
        let spec = "spanner:k=4,uniform:p=0.5";
        let out_up = tmp(&format!("out-up-{label}.sgr"));
        let out_ld = tmp(&format!("out-ld-{label}.sgr"));
        for (name, out) in [(&uploaded, &out_up), (&loaded, &out_ld)] {
            ok(&client
                .request(
                    &Client::request_for("compress")
                        .with("graph", Json::str(name.as_str()))
                        .with("spec", Json::str(spec))
                        .with("seed", Json::u64(3))
                        .with("output", Json::str(out.as_str())),
                )
                .expect("compress"));
        }
        assert_eq!(
            std::fs::read(&out_up).expect("read"),
            std::fs::read(&out_ld).expect("read"),
            "{label}: uploaded and loaded graphs compress to byte-identical files"
        );
    }
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// A transfer cut off mid-stream resumes after reconnect: re-`begin`
/// with the same `(total_bytes, digest)` adopts the orphaned slot and
/// reports the offset already received.
#[test]
fn interrupted_upload_resumes_after_reconnect() {
    let g = sample_graph();
    let path = tmp("resume.sgr");
    save_sgr(&g, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    let digest = format!("{:016x}", graph_digest(&g));
    let half = bytes.len() / 2;

    let (addr, daemon) = spawn(quiet()); // default 60s grace
    let begin = |name: &str| {
        Client::request_for("upload")
            .with("name", Json::str(name))
            .with("phase", Json::str("begin"))
            .with("total_bytes", Json::u64(bytes.len() as u64))
            .with("digest", Json::str(digest.clone()))
            .with("format", Json::str("sgr"))
    };

    // First attempt: ship half, then vanish.
    let mut first = Client::connect(&addr).expect("connect");
    let response = first.request(&begin("big")).expect("begin");
    assert_eq!(ok(&response).get("offset").and_then(Json::as_u64), Some(0));
    ok(&first
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("big"))
                .with("phase", Json::str("chunk"))
                .with("offset", Json::u64(0))
                .with("data", Json::str(b64::encode(&bytes[..half]))),
        )
        .expect("half chunk"));
    drop(first);

    // Second attempt: wait until the daemon has processed the disconnect
    // (the slot shows up orphaned in stats), then resume.
    let mut second = Client::connect(&addr).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = second.request(&Client::request_for("stats")).expect("stats");
        let orphaned = ok(&stats)
            .get("uploads")
            .and_then(Json::as_arr)
            .map(|u| {
                u.iter().any(|slot| slot.get("orphaned").and_then(Json::as_bool) == Some(true))
            })
            .unwrap_or(false);
        if orphaned {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slot never orphaned: {}", stats.render());
        std::thread::sleep(Duration::from_millis(25));
    }
    let response = second.request(&begin("big")).expect("re-begin");
    let response = ok(&response);
    assert_eq!(
        response.get("offset").and_then(Json::as_u64),
        Some(half as u64),
        "resume reports the bytes already received"
    );
    assert_eq!(response.get("resumed").and_then(Json::as_bool), Some(true));
    ok(&second
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("big"))
                .with("phase", Json::str("chunk"))
                .with("offset", Json::u64(half as u64))
                .with("data", Json::str(b64::encode(&bytes[half..]))),
        )
        .expect("rest chunk"));
    let response = second
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("big"))
                .with("phase", Json::str("commit")),
        )
        .expect("commit");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(digest.as_str()),
        "resumed upload digests identically"
    );
    ok(&second.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// A corrupted chunk is caught at commit by the digest check: the wire
/// answers `digest-mismatch` and the graph never enters the catalog.
#[test]
fn corrupted_chunk_is_rejected_at_commit() {
    let g = sample_graph();
    let path = tmp("corrupt.sgr");
    save_sgr(&g, &path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read");
    let digest = format!("{:016x}", graph_digest(&g));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff; // flip one payload byte in transit

    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("bad"))
                .with("phase", Json::str("begin"))
                .with("total_bytes", Json::u64(bytes.len() as u64))
                .with("digest", Json::str(digest))
                .with("format", Json::str("sgr")),
        )
        .expect("begin"));
    ok(&client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("bad"))
                .with("phase", Json::str("chunk"))
                .with("offset", Json::u64(0))
                .with("data", Json::str(b64::encode(&bytes))),
        )
        .expect("chunk"));
    let response = client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("bad"))
                .with("phase", Json::str("commit")),
        )
        .expect("commit answered");
    assert_eq!(error_code(&response), "digest-mismatch", "{}", response.render());

    // The corrupted graph must not be usable.
    let response = client
        .request(
            &Client::request_for("compress")
                .with("graph", Json::str("bad"))
                .with("spec", Json::str("uniform:p=0.5")),
        )
        .expect("answered");
    assert_eq!(error_code(&response), "unknown-graph", "{}", response.render());
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Out-of-order and overrunning chunks answer stable `bad-request`
/// errors while duplicates of already-received bytes are tolerated
/// (retransmission after resume).
#[test]
fn chunk_sequencing_rules() {
    let g = sample_graph();
    let path = tmp("seq.sgr");
    save_sgr(&g, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    let digest = format!("{:016x}", graph_digest(&g));

    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("seq"))
                .with("phase", Json::str("begin"))
                .with("total_bytes", Json::u64(bytes.len() as u64))
                .with("digest", Json::str(digest.clone()))
                .with("format", Json::str("sgr")),
        )
        .expect("begin"));
    let chunk = |offset: usize, data: &[u8]| {
        Client::request_for("upload")
            .with("name", Json::str("seq"))
            .with("phase", Json::str("chunk"))
            .with("offset", Json::u64(offset as u64))
            .with("data", Json::str(b64::encode(data)))
    };
    // A gap is rejected.
    let response = client.request(&chunk(100, &bytes[100..200])).expect("answered");
    assert_eq!(error_code(&response), "bad-request", "{}", response.render());
    // In-order is accepted; an exact duplicate is tolerated.
    ok(&client.request(&chunk(0, &bytes[..100])).expect("first"));
    let response = client.request(&chunk(0, &bytes[..100])).expect("dup");
    assert_eq!(ok(&response).get("received").and_then(Json::as_u64), Some(100));
    // Overrunning the declared size is rejected.
    let response = client.request(&chunk(100, &vec![0u8; bytes.len()])).expect("answered");
    assert_eq!(error_code(&response), "bad-request", "{}", response.render());
    // Commit before completion is rejected; abort cleans up.
    let response = client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("seq"))
                .with("phase", Json::str("commit")),
        )
        .expect("answered");
    assert_eq!(error_code(&response), "bad-request", "{}", response.render());
    ok(&client
        .request(
            &Client::request_for("upload")
                .with("name", Json::str("seq"))
                .with("phase", Json::str("abort")),
        )
        .expect("abort"));
    let stats = client.request(&Client::request_for("stats")).expect("stats");
    assert_eq!(
        ok(&stats).get("uploads").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0),
        "abort removed the slot: {}",
        stats.render()
    );
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}
