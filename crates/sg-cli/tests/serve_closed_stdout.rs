//! `slimgraph serve` writes one event line per request to stdout. With
//! stdout a closed pipe (`slimgraph serve | head -1`) those writes fail; the
//! daemon must drop the lines and go on answering, `shutdown` included.

use sg_serve::{Client, Json};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_daemon_with_a_closed_stdout_answers_every_request_and_shuts_down() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_slimgraph"))
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the daemon");
    // Close the read end: every event line now meets a broken pipe.
    drop(daemon.stdout.take());
    let mut banner = String::new();
    BufReader::new(daemon.stderr.take().expect("stderr is piped"))
        .read_line(&mut banner)
        .expect("read the listening line");
    let addr = banner.trim().rsplit(' ').next().expect("an address").to_string();
    assert!(banner.starts_with("slimgraph serve: listening on "), "{banner}");

    let ask = |op: &str| {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        client.set_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        client.request(&Client::request_for(op))
    };
    // More requests than workers, each on a fresh connection: a worker lost
    // to a failed write would leave the later ones unanswered.
    let answers: Vec<_> = ["ping", "ping", "ping", "ping", "shutdown"].map(ask).into();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll the daemon") {
            break Some(status);
        }
        if Instant::now() > deadline {
            daemon.kill().expect("kill the daemon");
            daemon.wait().expect("reap the daemon");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    for (i, answer) in answers.iter().enumerate() {
        let answer = answer.as_ref().unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "request {i}: {answer:?}");
    }
    assert!(status.is_some_and(|s| s.success()), "the daemon exits cleanly: {status:?}");
}
