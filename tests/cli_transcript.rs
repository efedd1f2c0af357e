//! Transcript pin for the `slimgraph` command line: each test drives
//! `sg_cli::run` in-process through one section of the CLI — storage
//! formats, the scheme registry, `analyze`, `tune`, the daemon `client` and
//! the usage errors — and compares what it printed with
//! `tests/transcripts/cli-<section>.txt`.
//!
//! A step is recorded as a `$ slimgraph <argv>` line, then its stdout, then
//! for a failing command the `slimgraph: error:` line the binary prints to
//! stderr. Each file a command writes with `--output` is recorded as
//! `# <name> <bytes> <fnv64>`, so its bytes are pinned too. Masking is
//! textual: the section's scratch directory reads `$TMP`, the daemon's
//! address `$ADDR`, a trailing `N ms` reads `* ms`, `tune`'s cache-reuse
//! counts (they depend on which candidate reaches a shared prefix first)
//! read `*`, and the client section masks the daemon's timings and
//! process-wide counters as `serve_transcript` does. What a reader would
//! otherwise check by eye (round trips that end byte-identical, reports
//! that must not change with the encoding) is asserted as well.
//!
//! The sections run at the default thread count; thread-count invariance is
//! the contract harness's `Threads` axis. To re-bless after an intended
//! output change, copy the `.actual` file a failing run names over the
//! expected transcript.

mod transcript;

use slimgraph::serve::{Json, ServeConfig, Server};

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Replaces the whitespace-separated fields at `indices` with a `*`
/// right-aligned in the field's padded column, so a table keeps its layout.
fn mask_fields(line: &str, indices: &[usize]) -> String {
    let mut out = String::new();
    let mut field_start = 0;
    let mut index = 0;
    let mut rest = line;
    while let Some(at) = rest.find(|c: char| !c.is_whitespace()) {
        let len = rest[at..].find(char::is_whitespace).unwrap_or(rest.len() - at);
        let end = line.len() - rest.len() + at + len;
        if indices.contains(&index) {
            out.push_str(&format!("{:>w$}", "*", w = end - field_start));
        } else {
            out.push_str(&line[field_start..end]);
        }
        field_start = end;
        rest = &line[end..];
        index += 1;
    }
    out + rest
}

/// `*` for the number before a trailing ` ms` (`in 12.3 ms`, `up 40 ms`).
fn mask_timing(line: &str) -> String {
    let Some(head) = line.strip_suffix(" ms") else { return line.to_string() };
    match head.rsplit_once(' ') {
        Some((before, n)) if n.parse::<f64>().is_ok() => format!("{before} * ms"),
        _ => line.to_string(),
    }
}

/// `tune`'s `stages:` line with the counts that depend on which candidate
/// reached a shared prefix first masked.
fn mask_cache_reuse(line: &str) -> String {
    match line.strip_prefix("stages:") {
        Some(rest) => {
            let total = rest.split_whitespace().nth(3).expect("stages: N executed of M");
            format!("stages:      * executed of {total} (prefix cache reused *)")
        }
        None => line.to_string(),
    }
}

/// A `metrics` table reduced to what this daemon alone decides: the
/// process-wide rows (other tests move them) are dropped, and gauges and
/// histogram times masked.
fn mask_metrics_table(table: &str) -> String {
    let mut section = "";
    let mut out = String::new();
    for line in table.lines() {
        let row = match line.strip_prefix("  ") {
            None => {
                section = line.split_whitespace().next().unwrap_or("");
                line.to_string()
            }
            Some(row) if !row.starts_with("serve.") => continue,
            Some(_) if section == "gauges" => mask_fields(line, &[1]),
            Some(_) if section == "histograms" => mask_fields(line, &[2, 3, 4]),
            Some(_) => line.to_string(),
        };
        out += &row;
        out.push('\n');
    }
    out
}

/// A `slowlog` table with its queue and service times masked.
fn mask_slowlog_table(table: &str) -> String {
    let row = |line: &str| match line.split_whitespace().next() {
        Some(seq) if seq.parse::<u64>().is_ok() => mask_fields(line, &[4, 5]),
        _ => line.to_string(),
    };
    table.lines().map(|line| row(line) + "\n").collect()
}

/// One section's scratch directory and the transcript it accumulates.
struct Cli {
    section: &'static str,
    dir: String,
    /// The in-process daemon the client section talks to.
    addr: String,
    /// JSON keys masked in this section's output besides
    /// [`transcript::MASKED`].
    masked_keys: &'static [&'static str],
    log: String,
}

impl Cli {
    fn new(section: &'static str) -> Cli {
        let dir = transcript::tmp(&format!("cli-{section}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Cli { section, dir, addr: String::new(), masked_keys: &[], log: String::new() }
    }

    /// `name` in the section's scratch directory.
    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.dir)
    }

    fn read(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.path(name)).expect("read scratch file")
    }

    fn note(&mut self, text: &str) {
        self.log += &format!("## {text}\n");
    }

    fn unmask(&self, text: &str) -> String {
        text.replace("$TMP", &self.dir).replace("$ADDR", &self.addr)
    }

    fn mask(&self, text: &str) -> String {
        let text = text.replace(&self.dir, "$TMP");
        if self.addr.is_empty() {
            text
        } else {
            text.replace(&self.addr, "$ADDR")
        }
    }

    /// Runs `slimgraph <line>` (whitespace-split, `$TMP` and `$ADDR`
    /// substituted) and records it; returns its stdout or its error.
    fn run(&mut self, line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(|w| self.unmask(w)).collect();
        let mut stdout = Vec::new();
        let result = sg_cli::run(&argv, &mut stdout);
        let stdout = String::from_utf8(stdout).expect("utf-8 output");
        self.log += &format!("$ slimgraph {line}\n");
        let op = argv.iter().position(|a| a == "--op").map(|at| argv[at + 1].as_str());
        let shown = match op {
            Some("metrics") if !argv.iter().any(|a| a == "--json") => mask_metrics_table(&stdout),
            Some("slowlog") if !argv.iter().any(|a| a == "--json") => mask_slowlog_table(&stdout),
            _ => stdout.clone(),
        };
        for out in shown.lines() {
            let out = mask_cache_reuse(&mask_timing(out));
            let out = self.mask(&transcript::mask_all(&out, self.masked_keys));
            self.log += &out;
            self.log.push('\n');
        }
        match &result {
            Ok(()) => {
                if let Some(at) = argv.iter().position(|a| a == "--output") {
                    self.file(&argv[at + 1]);
                }
            }
            Err(e) => self.log += &format!("slimgraph: error: {}\n", self.mask(e)),
        }
        result.map(|()| stdout)
    }

    /// [`Cli::run`] for a command that must succeed.
    fn ok(&mut self, line: &str) -> String {
        self.run(line).unwrap_or_else(|e| panic!("`slimgraph {line}` failed: {e}"))
    }

    /// [`Cli::run`] for a command that must fail.
    fn fails(&mut self, line: &str) {
        self.run(line).expect_err(line);
    }

    /// Records the file at `path` as `# <name> <bytes> <fnv64>`.
    fn file(&mut self, path: &str) {
        let bytes = std::fs::read(path).expect("output file written");
        let name = self.mask(path);
        let name = name.trim_start_matches("$TMP/");
        self.log += &format!("# {name} {} {:016x}\n", bytes.len(), fnv(&bytes));
    }

    fn finish(self, expected: &str) {
        transcript::finish(&format!("cli-{}", self.section), &self.log, expected);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn storage() {
    let mut cli = Cli::new("storage");
    cli.note("text -> bin -> sgr -> text, and back through bin: byte-identical");
    cli.ok("generate --kind ba --n 5000 --k 4 --seed 7 --output $TMP/g.txt");
    cli.ok("convert --input $TMP/g.txt --output $TMP/g.bin");
    cli.ok("convert --input $TMP/g.bin --output $TMP/g.sgr");
    cli.ok("convert --input $TMP/g.sgr --output $TMP/back.txt");
    cli.ok("convert --input $TMP/g.sgr --output $TMP/back.bin");
    cli.ok("convert --input $TMP/back.bin --output $TMP/back2.txt");
    assert_eq!(cli.read("back.txt"), cli.read("g.txt"), "text -> bin -> sgr -> text");
    assert_eq!(cli.read("back.bin"), cli.read("g.bin"), "sgr -> bin");
    assert_eq!(cli.read("back2.txt"), cli.read("g.txt"), "bin -> text");

    cli.note(
        "the v3 container: version 3, smaller than v1, byte-identical back; auto picks the smaller",
    );
    cli.ok("convert --input $TMP/g.txt --output $TMP/g-v3.sgr --encoding delta");
    cli.ok("convert --input $TMP/g.txt --output $TMP/g-auto.sgr --encoding auto");
    cli.ok("convert --input $TMP/g-v3.sgr --output $TMP/v3-back.txt");
    let (v1, v3) = (cli.read("g.sgr"), cli.read("g-v3.sgr"));
    assert_eq!(v3[8..12], 3u32.to_le_bytes(), "the header's version field");
    assert_eq!(v1[8..12], 1u32.to_le_bytes());
    assert!(v3.len() < v1.len(), "v3 {} bytes, v1 {}", v3.len(), v1.len());
    assert_eq!(cli.read("g-auto.sgr"), v3, "auto writes the smaller container");
    assert_eq!(cli.read("v3-back.txt"), cli.read("g.txt"), "text -> sgr v3 -> text");

    cli.note("stats over the mapped v1 file, trusted, and over the encoded adjacency");
    let raw = cli.ok("stats --input $TMP/g.sgr");
    assert_eq!(cli.ok("stats --input $TMP/g.sgr --no-verify"), raw);
    let encoded = cli.ok("stats --input $TMP/g-v3.sgr --encoding delta");
    let adjacency = |line: &&str| line.starts_with("adjacency:");
    assert!(encoded.lines().filter(|l| !adjacency(l)).eq(raw.lines()), "same numbers encoded");

    cli.note("compress between formats: sgr -> sgr, bin -> text -> bin, v3 -> v3");
    cli.ok("compress --input $TMP/g.sgr --scheme spanner,uniform --p 0.5 --output $TMP/c.sgr");
    cli.ok("compress --input $TMP/g.bin --scheme uniform --p 0.2 --output $TMP/c.txt");
    cli.ok("compress --input $TMP/c.txt --scheme lowdeg --output $TMP/c.bin");
    cli.ok("compress --input $TMP/g-v3.sgr --scheme uniform --p 0.5 --encoding delta --output $TMP/c-v3.sgr");

    cli.note("--format / --output-format override the extension");
    cli.ok("convert --input $TMP/g.txt --output $TMP/g.graph --output-format sgr");
    cli.ok("stats --input $TMP/g.graph --format sgr");
    cli.fails("stats --input $TMP/g.graph");
    cli.fails("stats --input $TMP/g.graph --format nope");

    cli.note("a corrupt digest fails the checksum; --no-verify still validates the structure");
    let mut image = v1.clone();
    image[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(cli.path("bad-digest.sgr"), &image).expect("write");
    cli.fails("stats --input $TMP/bad-digest.sgr");
    assert_eq!(cli.ok("stats --input $TMP/bad-digest.sgr --no-verify"), raw);
    cli.note("a version-2 container is refused by name");
    let mut image = v1;
    image[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(cli.path("v2.sgr"), &image).expect("write");
    cli.fails("stats --input $TMP/v2.sgr");
    cli.finish(include_str!("transcripts/cli-storage.txt"));
}

#[test]
fn schemes() {
    let mut cli = Cli::new("schemes");
    cli.ok("generate --kind ba --n 5000 --k 4 --seed 7 --output $TMP/g.sgr");
    cli.ok("convert --input $TMP/g.sgr --output $TMP/g.bin");
    cli.ok("schemes");
    cli.note("every registry name at the gauntlet's base flags");
    for name in slimgraph::SchemeRegistry::with_defaults().names() {
        cli.ok(&format!(
            "compress --input $TMP/g.sgr --scheme {name} --p 0.5 --epsilon 0.1 --seed 7 --output $TMP/{name}.bin"
        ));
    }
    cli.ok("compress --input $TMP/g.sgr --scheme spanner,lowdeg,uniform --p 0.5 --seed 7 --output $TMP/chain.bin");
    cli.note(
        "the spanner from many small clusters (k = 2; 8 is the default above) to a near-forest",
    );
    cli.note("k = 1e300 is legal input whose idle decomposition rounds must cost nothing");
    for k in ["2", "128", "1e300"] {
        cli.ok(&format!(
            "compress --input $TMP/g.sgr --scheme spanner --k {k} --seed 7 --output $TMP/spanner-{k}.bin"
        ));
    }
    cli.note("summary at epsilon 0 is the identity: the converted input, byte for byte");
    cli.ok("compress --input $TMP/g.sgr --scheme summary --epsilon 0 --seed 7 --output $TMP/summary-e0.bin");
    assert_eq!(cli.read("summary-e0.bin"), cli.read("g.bin"));
    cli.finish(include_str!("transcripts/cli-schemes.txt"));
}

#[test]
fn analyze() {
    let mut cli = Cli::new("analyze");
    cli.ok("generate --kind ba --n 2000 --k 4 --seed 7 --output $TMP/ba.sgr");
    cli.ok("generate --kind rmat --scale 12 --m 10 --seed 7 --output $TMP/rmat.sgr");
    for input in ["ba", "rmat"] {
        cli.note(&format!(
            "{input}: the encoded adjacency reports the same; KL projected after collapse"
        ));
        let line = format!(
            "analyze --input $TMP/{input}.sgr --scheme spanner:k=4,uniform --p 0.5 --seed 7"
        );
        let raw = cli.ok(&line);
        assert_eq!(cli.ok(&format!("{line} --encoding delta")), raw, "{line}");
        let collapsed =
            cli.ok(&format!("analyze --input $TMP/{input}.sgr --scheme collapse --p 0.5 --seed 7"));
        assert!(collapsed.contains("\nPageRank KL:"), "{collapsed}");
    }
    cli.note("an empty file is a zero-vertex graph");
    std::fs::write(cli.path("empty.txt"), "").expect("write");
    cli.ok("analyze --input $TMP/empty.txt --scheme uniform --p 0.5");
    cli.ok("analyze --input $TMP/empty.txt --scheme uniform --p 0.5 --encoding delta");
    cli.finish(include_str!("transcripts/cli-analyze.txt"));
}

/// The winner `tune` reported, re-run as a plain `compress` with its seed:
/// the same graph as the one `tune --output` wrote.
fn rerun_winner(cli: &mut Cli, spec: &str, seed: u64, input: &str, written: &str) {
    cli.ok(&format!(
        "compress --input {input} --scheme {spec} --seed {seed} --output $TMP/rerun.txt"
    ));
    assert_eq!(cli.read("rerun.txt"), cli.read(written), "{spec}");
}

#[test]
fn tune() {
    let mut cli = Cli::new("tune");
    cli.masked_keys = &["diagnostics"];
    cli.note("the text report; its winner re-runs as a plain compress");
    cli.ok("generate --kind ws --n 400 --k 4 --output $TMP/ws.txt");
    let report = cli.ok("tune --input $TMP/ws.txt --budget-edges 1280 --target degree-l1<=0.75 \
         --schemes uniform,spanner,lowdeg --rounds 1 --seed 9 --output $TMP/ws-winner.txt");
    let rerun = report.lines().find_map(|l| l.trim().strip_prefix("re-run:")).expect("a winner");
    let spec = rerun.split('\'').nth(1).expect("a quoted spec");
    rerun_winner(&mut cli, spec, 9, "$TMP/ws.txt", "ws-winner.txt");

    cli.note("--json over a mapped, trusted input");
    cli.ok("generate --kind ba --n 1000 --k 4 --seed 7 --output $TMP/ba.sgr");
    let json = cli
        .ok("tune --input $TMP/ba.sgr --no-verify --budget-edges 2500 --target pagerank-kl<=0.1 \
         --schemes uniform,spanner,lowdeg --rounds 1 --seed 7 --json --output $TMP/ba-winner.txt");
    let outcome = Json::parse(&json).expect("tune --json parses");
    let winner = outcome.get("winner").expect("a winner");
    let field = |key| winner.get(key).and_then(Json::as_f64).expect(key);
    assert!(field("edges") <= 2500.0 && field("metric") <= 0.1, "{json}");
    assert!(!outcome.get("frontier").and_then(Json::as_arr).expect("frontier").is_empty());
    let spec = winner.get("spec").and_then(Json::as_str).expect("spec");
    rerun_winner(&mut cli, spec, field("seed") as u64, "$TMP/ba.sgr", "ba-winner.txt");

    cli.note("an infeasible target is reported, not an error");
    let report = cli.ok(
        "tune --input $TMP/ws.txt --budget-edges 1 --target degree-l1<=0 --schemes uniform --rounds 0",
    );
    assert!(report.contains("winner:      none"), "{report}");
    cli.finish(include_str!("transcripts/cli-tune.txt"));
}

#[test]
fn client() {
    let mut cli = Cli::new("client");
    let server = Server::bind(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        workers: 2,
        slow_ms: 0,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    cli.addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    cli.ok("generate --kind ba --n 2000 --k 4 --seed 5 --output $TMP/g.sgr");

    cli.note("a scripted session: the second compress reuses two cached stages");
    let script = [
        r#"{"v":2,"id":"1","op":"ping"}"#,
        r#"{"v":2,"id":"2","op":"load","name":"g","path":"$TMP/g.sgr"}"#,
        r#"{"v":2,"id":"3","op":"compress","graph":"g","spec":"spanner:k=4,lowdeg,uniform:p=0.5","seed":7,"output":"$TMP/served.sgr"}"#,
        r#"{"v":2,"id":"4","op":"compress","graph":"g","spec":"spanner:k=4,lowdeg,cut:k=2","seed":7}"#,
        r#"{"v":2,"id":"5","op":"analyze","graph":"g","spec":"uniform:p=0.5","seed":9}"#,
        r#"{"v":2,"id":"6","op":"stats"}"#,
        r#"{"v":2,"id":"7","op":"evict","graph":"g"}"#,
        r#"{"v":1,"op":"ping"}"#,
    ];
    for line in script {
        cli.log += &format!("> {line}\n");
    }
    let text: String = script.iter().map(|line| cli.unmask(line) + "\n").collect();
    std::fs::write(cli.path("session.jsonl"), text).expect("write script");
    cli.ok("client --connect $ADDR --script $TMP/session.jsonl");
    cli.file(&cli.path("served.sgr"));
    cli.note("the served output is the local run's, byte for byte");
    cli.ok("compress --input $TMP/g.sgr --scheme spanner:k=4,lowdeg,uniform:p=0.5 --seed 7 --output $TMP/local.sgr");
    assert_eq!(cli.read("local.sgr"), cli.read("served.sgr"));

    cli.note("one-shot ops: a chunked upload, then what the daemon observed");
    cli.ok("client --connect $ADDR --op upload --name pushed --path $TMP/g.sgr --chunk-kb 64");
    cli.ok("client --connect $ADDR --op compress --graph pushed --spec spanner:k=4,uniform:p=0.5 --seed 7");
    cli.ok("client --connect $ADDR --op metrics");
    let metrics = cli.ok("client --connect $ADDR --op metrics --json");
    // The process-wide part the transcript masks: what the daemon's session,
    // its stage cache and the tracer export.
    let metrics = Json::parse(&metrics).expect("metrics --json parses");
    let snapshot = metrics.get("metrics").expect("a snapshot");
    for (kind, name) in [
        ("counters", "session.runs"),
        ("counters", "core.cache.hits"),
        ("counters", "core.cache.misses"),
        ("gauges", "trace.dropped_events"),
        ("histograms", "session.stage_ms"),
    ] {
        assert!(snapshot.get(kind).and_then(|k| k.get(name)).is_some(), "{kind} {name}");
    }
    cli.ok("client --connect $ADDR --op slowlog");
    cli.ok("client --connect $ADDR --op slowlog --json");
    cli.ok("client --connect $ADDR --op shutdown");
    daemon.join().expect("daemon thread").expect("clean exit");
    cli.finish(include_str!("transcripts/cli-client.txt"));
}

#[test]
fn errors() {
    let mut cli = Cli::new("errors");
    cli.note("usage");
    let help = cli.ok("help");
    let mut implicit = Vec::new();
    sg_cli::run(&[], &mut implicit).expect("no argument is help");
    assert_eq!(String::from_utf8(implicit).expect("utf-8"), help);
    cli.ok("generate --kind er --n 200 --m 800 --seed 7 --output $TMP/g.txt");
    cli.note("each mistake is one specific error");
    cli.fails("frobnicate");
    cli.fails("stats $TMP/g.txt");
    cli.fails("stats --input");
    cli.fails("stats --input $TMP/g.txt --input $TMP/g.txt");
    cli.fails("stats --input /nonexistent/g.txt");
    cli.fails("stats --input $TMP/g.txt --encoding nope");
    cli.fails("generate --kind nope --output $TMP/x.txt");
    for scheme in ["nope", "uniform,,lowdeg", "uniform:p", "uniform:p=1.5", "uniform:q=1"] {
        cli.fails(&format!("compress --input $TMP/g.txt --scheme {scheme} --output $TMP/x.bin"));
    }
    cli.fails("compress --input $TMP/g.txt --scheme uniform --p abc --output $TMP/x.bin");
    cli.note("compress checks --output only after compressing");
    cli.fails("compress --input $TMP/g.txt --scheme uniform --p 0.5");
    cli.fails("tune --input $TMP/g.txt --target bogus<=1");
    cli.fails("tune --input $TMP/g.txt --target degree-l1");
    cli.fails("tune --input $TMP/g.txt --target degree-l1<=1 --schemes nope");
    cli.note("no feasible winner to write: the report, then the error");
    cli.fails(
        "tune --input $TMP/g.txt --budget-edges 1 --target degree-l1<=0 --schemes uniform \
         --rounds 0 --output $TMP/none.txt",
    );
    cli.fails("client --op ping");
    cli.finish(include_str!("transcripts/cli-errors.txt"));
}
