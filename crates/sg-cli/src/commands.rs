//! Subcommand implementations.
//!
//! Compression commands run through the sg-core **session API**
//! ([`SgSession`] over a [`GraphCatalog`]): the CLI is the same execution
//! path as the `sg-serve` daemon, just with a process-lifetime session
//! instead of a long-running one.

use crate::args::Args;
use sg_algos::{cc, tc};
use sg_core::{
    catalog, GraphCatalog, PipelineSpec, SchemeParams, SchemeRegistry, SessionRun, SgSession,
};
use sg_graph::{generators, CsrGraph, EncodedCsr, GraphView};
use sg_serve::Json;
use std::sync::Arc;

const HELP: &str = "\
slimgraph — practical lossy graph compression (Slim Graph, SC'19)

USAGE:
  slimgraph <command> [--flag value]...

GLOBAL FLAGS (any command):
  --trace-out FILE   record execution spans (sessions, stages, requests)
                     and write Chrome trace-event JSON on exit — open in
                     chrome://tracing or Perfetto. Observation-only:
                     results are bit-identical with tracing on or off.
  --metrics-out FILE write the process-final sg-obs metrics snapshot
                     (counters, gauges, latency histograms) as JSON on
                     exit — the same shape the daemon's `metrics` op
                     returns under \"metrics\".
  --alloc-profile    turn on the tracking allocator: alloc.* gauges in
                     metrics snapshots and per-stage alloc_bytes span
                     args. Observation-only; results are bit-identical.

COMMANDS:
  compress   Compress a graph and write the result
             --input FILE  --output FILE
             --scheme SPEC  [--p F] [--k F] [--epsilon F] [--seed N]
             [--format text|bin|sgr] [--output-format text|bin|sgr]
             [--encoding raw|delta|auto]
  analyze    Compress, then report accuracy metrics vs the original
             (same flags as compress, no --output needed);
             --encoding delta runs the input metrics over the encoded
             adjacency (bit-identical, decode-on-the-fly)
  tune       Search (scheme chain, parameters) for the smallest graph
             meeting a quality target
             --input FILE  --target METRIC<=BOUND  [--budget-edges N]
             [--depth N] [--rounds N] [--keep N] [--grid N] [--seed N]
             [--schemes a,b,c] [--output FILE] [--json]
             Metrics: pagerank-kl, reordered-tc, degree-l1,
             triangles-rel, components-rel.
             [--warm-start frontier.json] seeds round 0 from a previous
             run's --json output (its frontier + winner specs).
             Example: --target pagerank-kl<=0.05 --budget-edges 50000
  stats      Print structural statistics of a graph
             --input FILE  [--format text|bin|sgr]
             [--encoding raw|delta|auto] (delta/auto computes over the
             encoded adjacency and reports its byte footprint)
  convert    Convert a graph between storage formats
             --input FILE --output FILE
             [--format text|bin|sgr] [--output-format text|bin|sgr]
             [--encoding raw|delta|auto]
  generate   Produce a synthetic workload
             --kind rmat|er|ba|ws|grid  --output FILE
             [--scale N] [--n N] [--m N] [--k N] [--seed N]
  schemes    List every scheme registered in the compression registry
  serve      Run the compression-as-a-service daemon (see docs/PROTOCOL.md)
             --listen HOST:PORT | --listen unix:/path.sock
             [--cache-mb N] [--quiet]
             [--workers N] [--queue-depth N]        bounded worker pool
             [--read-timeout-ms N]                  per-frame deadline
             [--max-frame-kb N]                     request line size cap
             [--token SECRET]   required for non-loopback binds; clients
                                must send it in the request envelope
             [--catalog-quota-mb N] [--cache-quota-mb N]  per-peer byte
                                budgets (0 = unlimited)
             [--upload-grace-ms N]  how long a disconnected client's
                                partial upload survives for resumption
             [--slow-ms N]      slow-request threshold for the slowlog
                                ring (0 logs every request; default 500)
             [--slowlog-cap N]  slowlog ring bound (records kept)
             [--coordinator --worker-addr A[,B...]]  federate single-stage
                                compress/analyze across worker daemons
                                (stock daemons; see docs/FEDERATION.md)
             [--fed-retries N] [--fed-timeout-ms N] [--worker-token S]
  client     Send requests to a running daemon (blocking, line-JSON)
             --connect HOST:PORT|unix:/path.sock  [--token SECRET]
             one-shot: --op ping|load|upload|compress|analyze|stats|
                            metrics|slowlog|federation|evict|shutdown
               load:      --name NAME --path FILE [--format F] [--no-verify]
               upload:    --name NAME --path FILE [--format F]
                          [--chunk-kb N]  (chunked, digest-verified
                          client-side transfer; resumes after reconnect)
               compress:  --graph NAME --spec SPEC [--seed N]
                          [--output FILE] [--output-format F]
               analyze:   --graph NAME --spec SPEC [--seed N]
               stats:     [--graph NAME]
               metrics:   counters/gauges/latency histograms as a table
                          (--json for the raw response line; v2 op)
               slowlog:   the daemon's slow-request ring as a table —
                          seq, op, trace id, queue wait, service time,
                          stages (--json for the raw line; v2 op)
               federation: coordinator topology + worker reachability
                          (standalone daemons answer mode standalone)
               evict:     [--graph NAME] [--cache]
             scripted: --script FILE (one JSON request per line)
  help       Show this message

STORAGE FORMATS (inferred from the file extension, overridable with
--format for inputs and --output-format for outputs):
  text   whitespace edge list, `u v [w]` per line  (default)
  bin    compact binary edge list                  (*.bin)
  sgr    zero-copy binary CSR container; loaded through a read-only
         mmap with no rebuild and no copy          (*.sgr)
         --no-verify skips the checksum pass on trusted .sgr inputs
         (structural validation still runs)
         --encoding picks the adjacency sections written:
           raw    v1 container, raw CSR arrays (default)
           delta  v2 container, delta+varint rows and bitmap rows for
                  dense vertices (smaller on skewed graphs)
           auto   whichever of the two is smaller for this graph
         v2 files load transparently everywhere .sgr is accepted.

SCHEME SPEC:
  A comma-separated chain of registry names; stages run left to right over
  the previous stage's output (the paper's kernel-chaining model). Each
  stage may override parameters with :key=value suffixes.

    --scheme uniform --p 0.3
    --scheme spanner,lowdeg,uniform --p 0.5
    --scheme spanner:k=4,uniform:p=0.3

  Registered names: uniform, spectral, tr, tr-eo, tr-ct, tr-mw, collapse,
  lowdeg, spanner, summary, cut (see `slimgraph schemes`).
";

/// Entry point shared with tests.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    // --trace-out FILE: record sg-obs spans for the whole command and
    // write a Chrome trace-event JSON (chrome://tracing / Perfetto) on
    // the way out — even when the command itself fails, so aborted runs
    // are debuggable too. Tracing is observation-only: results are
    // bit-identical with or without it.
    let trace_out = args.get("trace-out").map(str::to_string);
    if trace_out.is_some() {
        sg_obs::trace::set_trace_enabled(true);
    }
    // --metrics-out FILE: dump the process-final metrics snapshot as JSON
    // on the way out (same write-even-on-failure contract as the trace).
    // --alloc-profile arms the tracking allocator first so the snapshot
    // carries alloc.* gauges and stage spans carry alloc_bytes deltas.
    let metrics_out = args.get("metrics-out").map(str::to_string);
    if args.flag("alloc-profile") {
        sg_obs::alloc::set_profiling(true);
    }
    let result = dispatch_command(&args);
    if let Some(path) = trace_out {
        sg_obs::trace::write_chrome_trace(std::path::Path::new(&path))
            .map_err(|e| format!("writing trace to {path}: {e}"))?;
        eprintln!("slimgraph: trace written to {path}");
    }
    if let Some(path) = metrics_out {
        let snapshot = sg_serve::snapshot_json(&sg_obs::global_snapshot()).render();
        std::fs::write(&path, snapshot + "\n")
            .map_err(|e| format!("writing metrics to {path}: {e}"))?;
        eprintln!("slimgraph: metrics written to {path}");
    }
    result
}

fn dispatch_command(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "compress" => compress(args),
        "analyze" => analyze(args),
        "tune" => tune(args),
        "stats" => stats(args),
        "convert" => convert(args),
        "generate" => generate(args),
        "schemes" => schemes(),
        "serve" => serve(args),
        "client" => client(args),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Loads a graph honoring `--format` (shared with the catalog/daemon:
/// `.sgr` inputs go through the zero-copy mmap loader; `trusted` =
/// `--no-verify` skips the `.sgr` checksum pass, structural validation
/// still rejects corrupt files).
fn load_as(path: &str, explicit: Option<&str>, trusted: bool) -> Result<CsrGraph, String> {
    catalog::load_graph(path, explicit, trusted)
}

/// [`load_as`] wired to a command's `--input`/`--format`/`--no-verify`.
fn load_input(args: &Args) -> Result<CsrGraph, String> {
    load_as(args.require("input")?, args.get("format"), args.flag("no-verify"))
}

/// Parses `--encoding raw|delta|auto` (default raw). The encoding picks
/// the `.sgr` container version on outputs and, for `stats`/`analyze`,
/// whether metrics run over the decode-on-the-fly encoded adjacency.
fn encoding_from(args: &Args) -> Result<sg_store::Encoding, String> {
    match args.get("encoding") {
        None => Ok(sg_store::Encoding::Raw),
        Some(raw) => sg_store::Encoding::parse(raw)
            .ok_or_else(|| format!("flag --encoding: '{raw}' is not raw|delta|auto")),
    }
}

fn save_as(
    g: &CsrGraph,
    path: &str,
    explicit: Option<&str>,
    encoding: sg_store::Encoding,
) -> Result<(), String> {
    catalog::save_graph_with(g, path, explicit, encoding)
}

/// Parses `--scheme` into a [`PipelineSpec`] plus the shared base
/// parameter bag (`--p`, `--k`, `--epsilon`, `--variant`, `--reweight`,
/// `--x`).
fn spec_from(args: &Args) -> Result<(PipelineSpec, SchemeParams), String> {
    let mut base = SchemeParams::new();
    for key in ["p", "k", "epsilon", "variant", "reweight", "x"] {
        if let Some(value) = args.get(key) {
            base.set(key, value);
        }
    }
    Ok((PipelineSpec::parse(args.require("scheme")?)?, base))
}

/// Loads `--input` into a one-shot session and runs `--scheme` over it —
/// the CLI's execution path *is* the serving path. The graph moves into a
/// shared `Arc` (no copy), and the stage cache is disabled: a one-shot
/// process never re-reads it, so there is no reason to pin intermediate
/// graphs until exit.
fn run_session(args: &Args) -> Result<(Arc<CsrGraph>, SessionRun, String), String> {
    let g = Arc::new(load_input(args)?);
    let (spec, base) = spec_from(args)?;
    let registry = Arc::new(SchemeRegistry::with_defaults());
    let catalog = Arc::new(GraphCatalog::new());
    let handle = catalog
        .insert_arc("input", Arc::clone(&g), args.require("input")?)
        .expect("fresh catalog has no names");
    let session = SgSession::with_cache(
        catalog,
        Arc::clone(&registry),
        Arc::new(sg_core::StageCache::with_capacity(0)),
    );
    let run = session.run_with_base(&handle, &spec, &base, args.get_or("seed", 42)?)?;
    // The stage reports carry the constructed schemes' labels, so the
    // pipeline label needs no second build.
    let label = run.stages.iter().map(|s| s.report.label.clone()).collect::<Vec<_>>().join(" -> ");
    Ok((g, run, label))
}

fn compress(args: &Args) -> Result<(), String> {
    let (_, run, label) = run_session(args)?;
    for (i, stage) in run.stages.iter().enumerate() {
        println!(
            "stage {}: {}: m {} -> {} ({:.1}% kept) in {:.1} ms{}",
            i + 1,
            stage.report.label,
            stage.report.input_edges,
            stage.report.output_edges,
            stage.report.compression_ratio() * 100.0,
            stage.report.elapsed.as_secs_f64() * 1e3,
            if stage.cached { " (cached)" } else { "" }
        );
    }
    println!(
        "total: {}: m {} -> {} ({:.1}% kept) in {:.1} ms",
        label,
        run.original_edges,
        run.graph.num_edges(),
        run.compression_ratio() * 100.0,
        run.elapsed().as_secs_f64() * 1e3
    );
    save_as(&run.graph, args.require("output")?, args.get("output-format"), encoding_from(args)?)
}

fn analyze(args: &Args) -> Result<(), String> {
    let encoding = encoding_from(args)?;
    let (g, run, label) = run_session(args)?;
    println!("pipeline:          {label}");
    println!("edges kept:        {:.1}%", run.compression_ratio() * 100.0);
    // With --encoding delta|auto the "before" metrics run over the encoded
    // adjacency (decode-on-the-fly kernels); results are bit-identical to
    // the raw run, the path is just exercised end to end.
    let report = match (encoding != sg_store::Encoding::Raw).then(|| EncodedCsr::from_graph(&g)) {
        Some(encoded) => sg_metrics::accuracy_report(&encoded, &g, &run.graph),
        None => sg_metrics::accuracy_report(&*g, &g, &run.graph),
    };
    println!("components:        {} -> {}", report.components[0], report.components[1]);
    println!("triangles:         {} -> {}", report.triangles[0], report.triangles[1]);
    match (report.pagerank_kl, report.bfs_critical_kept) {
        (Some(kl), Some(kept)) => {
            println!("PageRank KL:       {kl:.5} bits");
            println!("BFS critical kept: {:.1}%", kept * 100.0);
        }
        _ => println!("(vertex set changed; distribution metrics skipped)"),
    }
    Ok(())
}

/// `tune`: search the (chain, parameters) space for the smallest graph
/// meeting `--target`, report the Pareto frontier and the re-validated
/// winner (or honest infeasibility), and optionally write the winner's
/// compressed graph to `--output`.
fn tune(args: &Args) -> Result<(), String> {
    let g = load_input(args)?;
    let target = sg_tune::Target::parse(args.require("target")?)?;
    let budget: usize = args.get_or("budget-edges", g.num_edges())?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut cfg = sg_tune::TuneConfig::new(budget, target, seed);
    cfg.max_depth = args.get_or("depth", cfg.max_depth)?;
    cfg.rounds = args.get_or("rounds", cfg.rounds)?;
    cfg.keep = args.get_or("keep", cfg.keep)?;
    cfg.grid = args.get_or("grid", cfg.grid)?;
    cfg.max_candidates = args.get_or("max-candidates", cfg.max_candidates)?;
    if let Some(list) = args.get("schemes") {
        let names: Vec<String> =
            list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        cfg.schemes = Some(names);
    }
    if let Some(path) = args.get("warm-start") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        cfg.warm_start = parse_warm_start(&text)?;
        if cfg.warm_start.is_empty() {
            return Err(format!("warm-start file {path} contains no specs"));
        }
    }
    let registry = Arc::new(SchemeRegistry::with_defaults());
    let outcome = sg_tune::tune(&g, &registry, &cfg)?;

    if args.flag("json") {
        // The diagnostics block is non-contractual (see OBSERVABILITY.md);
        // warm-start consumers only read frontier/winner and are unaffected.
        println!("{}", outcome.to_json_with_diagnostics());
    } else {
        println!("target:      {}", target.render());
        println!("budget:      {budget} edges (input m = {})", g.num_edges());
        println!("evaluated:   {} candidates", outcome.evaluated);
        println!(
            "stages:      {} executed of {} (prefix cache reused {})",
            outcome.stages_executed,
            outcome.stages_total,
            outcome.stages_total - outcome.stages_executed
        );
        println!("frontier ({} non-dominated points, * = feasible):", outcome.frontier.len());
        for p in outcome.frontier.points() {
            let feasible = p.edges <= budget && p.metric <= target.max;
            println!(
                "  {} {:>9} edges  ratio {:.3}  {} {:.5}  {}",
                if feasible { "*" } else { " " },
                p.edges,
                p.ratio,
                target.metric,
                p.metric,
                p.rendered
            );
        }
        match &outcome.winner {
            Some(w) => {
                println!("winner:      {}", w.rendered);
                println!(
                    "  m {} -> {} ({:.1}% kept), {} = {:.5} <= {}, pipeline seed {}",
                    g.num_edges(),
                    w.edges,
                    w.ratio * 100.0,
                    target.metric,
                    w.metric,
                    target.max,
                    w.seed
                );
                println!(
                    "  re-run:    slimgraph compress --input <in> --scheme '{}' --seed {}",
                    w.rendered, w.seed
                );
            }
            None => println!(
                "winner:      none — no candidate met {} within {budget} edges \
                 (closest trade-offs listed above)",
                target.render()
            ),
        }
    }

    if let Some(output) = args.get("output") {
        match &outcome.winner {
            Some(w) => {
                let out = w.spec.build(&registry)?.apply(&g, w.seed);
                save_as(
                    &out.result.graph,
                    output,
                    args.get("output-format"),
                    encoding_from(args)?,
                )?;
            }
            None => return Err("no feasible winner to write to --output".to_string()),
        }
    }
    Ok(())
}

/// Extracts warm-start specs from a previous `tune --json` outcome (its
/// frontier + winner) or from a plain JSON array of spec strings.
fn parse_warm_start(text: &str) -> Result<Vec<PipelineSpec>, String> {
    let value = Json::parse(text).map_err(|e| format!("warm-start file: {e}"))?;
    let mut rendered: Vec<String> = Vec::new();
    let mut push = |v: &Json| {
        if let Some(s) = v.get("spec").and_then(Json::as_str).or_else(|| v.as_str()) {
            rendered.push(s.to_string());
        }
    };
    match &value {
        Json::Arr(items) => items.iter().for_each(&mut push),
        Json::Obj(_) => {
            if let Some(frontier) = value.get("frontier").and_then(Json::as_arr) {
                frontier.iter().for_each(&mut push);
            }
            if let Some(winner) = value.get("winner") {
                push(winner);
            }
        }
        _ => return Err("warm-start file must be a tune outcome or an array".to_string()),
    }
    rendered.sort();
    rendered.dedup();
    rendered
        .iter()
        .map(|s| PipelineSpec::parse(s).map_err(|e| format!("warm-start spec '{s}': {e}")))
        .collect()
}

/// `serve`: run the compression-as-a-service daemon until a client sends
/// `shutdown`. The resolved listen address goes to stderr (stdout carries
/// the per-request transcript, one JSON event per line).
fn serve(args: &Args) -> Result<(), String> {
    let defaults = sg_serve::ServeConfig::default();
    let cfg = sg_serve::ServeConfig {
        listen: args.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        cache_bytes: args.get_or("cache-mb", 256usize)? << 20,
        transcript: !args.flag("quiet"),
        workers: args.get_or("workers", defaults.workers)?,
        queue_depth: args.get_or("queue-depth", defaults.queue_depth)?,
        read_timeout_ms: args.get_or("read-timeout-ms", defaults.read_timeout_ms)?,
        max_frame_bytes: args.get_or("max-frame-kb", defaults.max_frame_bytes >> 10)? << 10,
        token: args.get("token").map(str::to_string),
        catalog_quota_bytes: args.get_or("catalog-quota-mb", 0u64)? << 20,
        cache_quota_bytes: args.get_or("cache-quota-mb", 0u64)? << 20,
        upload_grace_ms: args.get_or("upload-grace-ms", defaults.upload_grace_ms)?,
        retry_after_ms: defaults.retry_after_ms,
        slow_ms: args.get_or("slow-ms", defaults.slow_ms)?,
        slowlog_capacity: args.get_or("slowlog-cap", defaults.slowlog_capacity)?,
        federation: federation_config(args)?,
    };
    let server =
        sg_serve::Server::bind(&cfg).map_err(|e| format!("binding {}: {e}", cfg.listen))?;
    eprintln!("slimgraph serve: listening on {}", server.local_addr());
    if let Some(fed) = &cfg.federation {
        eprintln!(
            "slimgraph serve: coordinating {} worker(s): {}",
            fed.workers.len(),
            fed.workers.join(", ")
        );
    }
    server.run().map_err(|e| format!("serve loop: {e}"))
}

/// Builds the coordinator config from `--coordinator`/`--worker-addr`/
/// `--fed-retries`/`--fed-timeout-ms`/`--worker-token`; `None` without
/// `--coordinator`.
fn federation_config(args: &Args) -> Result<Option<sg_serve::FedConfig>, String> {
    if !args.flag("coordinator") {
        return Ok(None);
    }
    let workers: Vec<String> = args
        .get("worker-addr")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err("--coordinator needs --worker-addr ADDR[,ADDR...]".to_string());
    }
    let defaults = sg_serve::FedConfig::default();
    Ok(Some(sg_serve::FedConfig {
        workers,
        retries: args.get_or("fed-retries", defaults.retries)?,
        timeout_ms: args.get_or("fed-timeout-ms", defaults.timeout_ms)?,
        token: args.get("worker-token").map(str::to_string),
    }))
}

/// `client`: one-shot protocol requests (`--op …`) or a scripted session
/// (`--script FILE`, one JSON request per line). Raw response lines go to
/// stdout.
fn client(args: &Args) -> Result<(), String> {
    let addr = args.require("connect")?;
    let mut client =
        sg_serve::Client::connect_with_patience(addr, std::time::Duration::from_secs(5))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
    client.set_token(args.get("token").map(str::to_string));
    if let Some(script) = args.get("script") {
        let text = std::fs::read_to_string(script).map_err(|e| format!("reading {script}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            println!("{}", client.request_line(line)?);
        }
        return Ok(());
    }
    let op = args.require("op")?;
    if op == "upload" {
        // Driven client-side: begin/chunk/commit frames with digest
        // verification (and resume) handled by `Client::upload`.
        let name = args.require("name")?;
        let path = args.require("path")?;
        let chunk = args.get_or("chunk-kb", sg_serve::client::DEFAULT_UPLOAD_CHUNK >> 10)? << 10;
        let response = client.upload(name, path, args.get("format"), chunk)?;
        println!("{}", response.render());
        return if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(response
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("upload failed")
                .to_string())
        };
    }
    let mut request = sg_serve::Client::request_for(op);
    for (flag, field) in [
        ("name", "name"),
        ("path", "path"),
        ("graph", "graph"),
        ("spec", "spec"),
        ("output", "output"),
        ("format", "format"),
        ("output-format", "output_format"),
    ] {
        if let Some(value) = args.get(flag) {
            request = request.with(field, Json::str(value));
        }
    }
    if let Some(seed) = args.get("seed") {
        let seed: u64 = seed.parse().map_err(|_| format!("--seed: cannot parse '{seed}'"))?;
        request = request.with("seed", Json::u64(seed));
    }
    if args.flag("no-verify") {
        request = request.with("no_verify", Json::Bool(true));
    }
    if args.flag("cache") {
        request = request.with("cache", Json::Bool(true));
    }
    let response = client.request(&request)?;
    // `metrics` answers are deep JSON; render a human table unless the
    // caller asked for the raw line with --json (scripts/CI scrape that).
    if op == "metrics" && !args.flag("json") {
        print!("{}", metrics_table(&response));
    } else if op == "slowlog" && !args.flag("json") {
        print!("{}", slowlog_table(&response));
    } else {
        println!("{}", response.render());
    }
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string())
    }
}

/// Renders a `metrics` response as an aligned human table: counters and
/// gauges by name, histograms with count / total time / estimated p50
/// and p99 (bucket upper bounds — the resolution the fixed grid affords).
fn metrics_table(response: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let server = response.get("server");
    let build = server.and_then(|s| s.get("build")).and_then(Json::as_str).unwrap_or("?");
    let proto = server.and_then(|s| s.get("protocol_version")).and_then(Json::as_u64).unwrap_or(0);
    let workers = server.and_then(|s| s.get("workers")).and_then(Json::as_u64).unwrap_or(0);
    let uptime = response.get("uptime_ms").and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "server   build {build}, protocol v{proto}, {workers} workers, up {uptime} ms"
    );
    if let Some(cache) = response.get("cache") {
        let g = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "cache    {} entries, {} bytes, {} hits / {} misses, {} evictions",
            g("entries"),
            g("bytes"),
            g("hits"),
            g("misses"),
            g("evictions")
        );
    }
    let metrics = response.get("metrics");
    let section = |name: &str| metrics.and_then(|m| m.get(name));
    if let Some(Json::Obj(counters)) = section("counters") {
        let _ = writeln!(out, "\ncounters");
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<42} {:>12}", value.render());
        }
    }
    if let Some(Json::Obj(gauges)) = section("gauges") {
        let _ = writeln!(out, "\ngauges");
        for (name, value) in gauges {
            let _ = writeln!(out, "  {name:<42} {:>12}", value.render());
        }
    }
    if let Some(Json::Obj(histograms)) = section("histograms") {
        let _ = writeln!(
            out,
            "\nhistograms{:>34} {:>12} {:>9} {:>9}",
            "count", "sum_ms", "p50_ms", "p99_ms"
        );
        for (name, hist) in histograms {
            let count = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
            let sum = hist.get("sum_ms").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {name:<42} {count:>12} {sum:>12.3} {:>9} {:>9}",
                bucket_quantile(hist, 0.50),
                bucket_quantile(hist, 0.99),
            );
        }
    }
    out
}

/// Renders a `slowlog` response as an aligned human table: one row per
/// retained record (oldest first), newest-relative ordering preserved by
/// the monotone `seq` column. Stage counts render `-` for ops that have
/// none (ping, metrics, …).
fn slowlog_table(response: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let g = |k: &str| response.get(k).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "slowlog  threshold {} ms, capacity {}, {} recorded, {} returned",
        g("slow_ms"),
        g("capacity"),
        g("recorded"),
        g("returned")
    );
    let Some(records) = response.get("slowlog").and_then(Json::as_arr) else {
        return out;
    };
    if records.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "\n{:>6} {:<10} {:<18} {:>6} {:>12} {:>11} {:>7} {:>7}  peer",
        "seq", "op", "trace", "ok", "queue_ms", "service_ms", "exec", "cached"
    );
    for record in records {
        let s = |k: &str| record.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
        let f = |k: &str| record.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let stage = |k: &str| match record.get(k).and_then(Json::as_u64) {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        let ok = match record.get("ok").and_then(Json::as_bool) {
            Some(true) => "ok",
            Some(false) => "err",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:>6} {:<10} {:<18} {:>6} {:>12.3} {:>11.3} {:>7} {:>7}  {}",
            record.get("seq").and_then(Json::as_u64).unwrap_or(0),
            s("op"),
            s("trace"),
            ok,
            f("queue_wait_ms"),
            f("service_ms"),
            stage("stages_executed"),
            stage("stages_cached"),
            s("peer"),
        );
    }
    out
}

/// Upper-bound quantile estimate from cumulative buckets: the `le` of the
/// first bucket covering `q` of the population (`+Inf` past the last
/// finite bound).
fn bucket_quantile(hist: &Json, q: f64) -> String {
    let total = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
    let Some(buckets) = hist.get("buckets").and_then(Json::as_arr) else {
        return "-".to_string();
    };
    if total == 0 {
        return "-".to_string();
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    for bucket in buckets {
        if bucket.get("count").and_then(Json::as_u64).unwrap_or(0) >= rank {
            return match bucket.get("le") {
                Some(Json::Str(s)) => s.clone(),
                Some(le) => le.render(),
                None => "-".to_string(),
            };
        }
    }
    "+Inf".to_string()
}

fn convert(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let from = catalog::GraphFormat::resolve(input, args.get("format"))?;
    let to = catalog::GraphFormat::resolve(output, args.get("output-format"))?;
    let g = load_as(input, args.get("format"), args.flag("no-verify"))?;
    save_as(&g, output, args.get("output-format"), encoding_from(args)?)?;
    let bytes = std::fs::metadata(output).map_err(|e| format!("stat {output}: {e}"))?.len();
    println!(
        "converted {input} ({from:?}) -> {output} ({to:?}): n = {}, m = {}, {bytes} bytes",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let g = load_input(args)?;
    println!("vertices:     {}", g.num_vertices());
    println!("edges:        {}", g.num_edges());
    println!("weighted:     {}", g.is_weighted());
    // --encoding delta|auto: compute everything below over the encoded
    // adjacency instead of raw CSR (same numbers, decode-on-the-fly path).
    match encoding_from(args)? {
        sg_store::Encoding::Raw => stats_over(&g),
        _ => {
            let enc = EncodedCsr::from_graph(&g);
            let raw_adj = g.csr_offsets().len() * 8
                + g.csr_targets().len() * 4
                + g.csr_slot_edges().len() * 4;
            println!("adjacency:    {} bytes encoded ({raw_adj} raw)", enc.adjacency_bytes());
            stats_over(&enc);
        }
    }
    Ok(())
}

/// The structural statistics shared by the raw and encoded `stats` paths.
fn stats_over<G: GraphView>(g: &G) {
    let s = sg_graph::properties::degree_stats(g);
    println!("degrees:      min {} / mean {:.2} / max {}", s.min, s.mean, s.max);
    println!("isolated:     {}", s.isolated);
    println!("leaves:       {}", s.leaves);
    println!("components:   {}", cc::connected_components(g).num_components);
    println!("triangles:    {}", tc::count_triangles(g));
    if let Some(fit) = sg_graph::properties::DegreeDistribution::of(g).power_law_fit() {
        println!("power law:    exponent {:.2}, R2 {:.3}", fit.exponent, fit.r2);
    }
}

fn schemes() -> Result<(), String> {
    let registry = SchemeRegistry::with_defaults();
    println!("registered compression schemes (chain with commas):");
    for name in registry.names() {
        let scheme = registry.create(name, &SchemeParams::new())?;
        println!("  {name:<10} defaults: {}", scheme.label());
    }
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get_or("seed", 42)?;
    let g = match args.require("kind")? {
        "rmat" => {
            let scale: u32 = args.get_or("scale", 12)?;
            let ef: usize = args.get_or("m", 8)?;
            generators::rmat_graph500(scale, ef, seed)
        }
        "er" => {
            let n: usize = args.get_or("n", 10_000)?;
            let m: usize = args.get_or("m", 50_000)?;
            generators::erdos_renyi(n, m, seed)
        }
        "ba" => {
            let n: usize = args.get_or("n", 10_000)?;
            let k: usize = args.get_or("k", 4)?;
            generators::barabasi_albert(n, k, seed)
        }
        "ws" => {
            let n: usize = args.get_or("n", 10_000)?;
            let k: usize = args.get_or("k", 4)?;
            generators::watts_strogatz(n, k, 0.1, seed)
        }
        "grid" => {
            let n: usize = args.get_or("n", 100)?;
            generators::grid(n, n)
        }
        other => return Err(format!("unknown generator '{other}'")),
    };
    println!("generated n = {}, m = {}", g.num_vertices(), g.num_edges());
    save_as(&g, args.require("output")?, args.get("output-format"), encoding_from(args)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("slimgraph-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Extension-driven load, as the subcommands themselves do it.
    fn load(path: &str) -> Result<CsrGraph, String> {
        load_as(path, None, false)
    }

    #[test]
    fn generate_stats_compress_analyze_roundtrip() {
        let gpath = tmp("g.txt");
        run(&sv(&["generate", "--kind", "ba", "--n", "500", "--k", "3", "--output", &gpath]))
            .expect("generate");
        run(&sv(&["stats", "--input", &gpath])).expect("stats");
        let out = tmp("g-compressed.bin");
        run(&sv(&[
            "compress", "--input", &gpath, "--scheme", "uniform", "--p", "0.4", "--output", &out,
        ]))
        .expect("compress");
        let g = load(&gpath).expect("load original");
        let h = load(&out).expect("load compressed");
        assert!(h.num_edges() < g.num_edges());
        run(&sv(&["analyze", "--input", &gpath, "--scheme", "tr-eo", "--p", "0.8"]))
            .expect("analyze");
    }

    #[test]
    fn analyze_of_an_empty_graph_succeeds() {
        // An empty file is a zero-vertex graph; its (empty) PageRank
        // support used to trip `kl_divergence`'s non-emptiness assert.
        let gpath = tmp("empty.txt");
        std::fs::write(&gpath, "").expect("write empty input");
        for encoding in ["raw", "delta"] {
            run(&sv(&[
                "analyze",
                "--input",
                &gpath,
                "--scheme",
                "uniform",
                "--p",
                "0.5",
                "--encoding",
                encoding,
            ]))
            .expect("analyze of an empty graph");
        }
    }

    #[test]
    fn binary_and_text_io_paths_roundtrip() {
        // generate → compress → stats across both serialization formats:
        // .bin in / .txt out, then .txt in / .bin out.
        let gbin = tmp("io.bin");
        run(&sv(&["generate", "--kind", "er", "--n", "300", "--m", "900", "--output", &gbin]))
            .expect("generate binary");
        let gtxt = tmp("io-compressed.txt");
        run(&sv(&[
            "compress", "--input", &gbin, "--scheme", "uniform", "--p", "0.2", "--output", &gtxt,
        ]))
        .expect("compress bin->txt");
        run(&sv(&["stats", "--input", &gtxt])).expect("stats on txt");
        let back = tmp("io-back.bin");
        run(&sv(&["compress", "--input", &gtxt, "--scheme", "lowdeg", "--output", &back]))
            .expect("compress txt->bin");
        run(&sv(&["stats", "--input", &back])).expect("stats on bin");
        assert!(load(&back).expect("load").num_edges() <= load(&gtxt).expect("load").num_edges());
    }

    #[test]
    fn convert_round_trips_all_formats() {
        // text -> bin -> sgr -> text: every pairwise hop, ending with a
        // byte-identical text file (conversion preserves canonical order).
        let gtxt = tmp("conv.txt");
        run(&sv(&["generate", "--kind", "er", "--n", "400", "--m", "1200", "--output", &gtxt]))
            .expect("generate");
        let gbin = tmp("conv.bin");
        let gsgr = tmp("conv.sgr");
        let back = tmp("conv-back.txt");
        run(&sv(&["convert", "--input", &gtxt, "--output", &gbin])).expect("text->bin");
        run(&sv(&["convert", "--input", &gbin, "--output", &gsgr])).expect("bin->sgr");
        run(&sv(&["convert", "--input", &gsgr, "--output", &back])).expect("sgr->text");
        assert_eq!(
            std::fs::read(&gtxt).expect("orig"),
            std::fs::read(&back).expect("back"),
            "text -> bin -> sgr -> text must be byte-identical"
        );
        // And the reverse direction: sgr -> bin and bin -> text.
        let gbin2 = tmp("conv2.bin");
        let gtxt2 = tmp("conv2.txt");
        run(&sv(&["convert", "--input", &gsgr, "--output", &gbin2])).expect("sgr->bin");
        run(&sv(&["convert", "--input", &gbin2, "--output", &gtxt2])).expect("bin->text");
        assert_eq!(std::fs::read(&gtxt).expect("orig"), std::fs::read(&gtxt2).expect("back2"));
    }

    #[test]
    fn convert_encoding_delta_round_trips_byte_identical() {
        // text -> sgr v2 (delta) -> text must reproduce the original file,
        // and a skewed graph's v2 container must be smaller than v1.
        let gtxt = tmp("enc.txt");
        run(&sv(&["generate", "--kind", "ba", "--n", "3000", "--k", "6", "--output", &gtxt]))
            .expect("generate");
        let raw = tmp("enc-raw.sgr");
        let delta = tmp("enc-delta.sgr");
        let auto = tmp("enc-auto.sgr");
        run(&sv(&["convert", "--input", &gtxt, "--output", &raw, "--encoding", "raw"]))
            .expect("raw convert");
        run(&sv(&["convert", "--input", &gtxt, "--output", &delta, "--encoding", "delta"]))
            .expect("delta convert");
        run(&sv(&["convert", "--input", &gtxt, "--output", &auto, "--encoding", "auto"]))
            .expect("auto convert");
        let (rb, db, ab) = (
            std::fs::metadata(&raw).expect("raw").len(),
            std::fs::metadata(&delta).expect("delta").len(),
            std::fs::metadata(&auto).expect("auto").len(),
        );
        assert!(db < rb, "delta container {db} must beat raw {rb} on a BA graph");
        assert_eq!(ab, db.min(rb), "auto writes the smaller container");
        let back = tmp("enc-back.txt");
        run(&sv(&["convert", "--input", &delta, "--output", &back])).expect("sgr v2 -> text");
        assert_eq!(std::fs::read(&gtxt).expect("orig"), std::fs::read(&back).expect("back"));
        // stats + analyze accept the flag and run over encoded adjacency;
        // compress reads a v2 input and writes a v2 output.
        run(&sv(&["stats", "--input", &delta, "--encoding", "delta"])).expect("encoded stats");
        run(&sv(&["analyze", "--input", &delta, "--scheme", "lowdeg", "--encoding", "delta"]))
            .expect("encoded analyze");
        let out = tmp("enc-out.sgr");
        run(&sv(&[
            "compress",
            "--input",
            &delta,
            "--scheme",
            "uniform",
            "--p",
            "0.5",
            "--output",
            &out,
            "--encoding",
            "delta",
        ]))
        .expect("compress v2 -> v2");
        assert!(load(&out).expect("v2 output loads").num_edges() > 0);
        assert!(
            run(&sv(&["stats", "--input", &gtxt, "--encoding", "nope"])).is_err(),
            "bad encoding name is rejected"
        );
    }

    #[test]
    fn explicit_format_overrides_extension() {
        // Write an .sgr image into a file with a misleading extension and
        // load it back with --format sgr.
        let gtxt = tmp("fmt.txt");
        run(&sv(&["generate", "--kind", "grid", "--n", "12", "--output", &gtxt]))
            .expect("generate");
        let odd = tmp("fmt.graph");
        run(&sv(&["convert", "--input", &gtxt, "--output", &odd, "--output-format", "sgr"]))
            .expect("convert to sgr with odd extension");
        run(&sv(&["stats", "--input", &odd, "--format", "sgr"])).expect("stats via --format");
        assert!(run(&sv(&["stats", "--input", &odd])).is_err(), "text parse of sgr must fail");
        assert!(
            run(&sv(&["stats", "--input", &odd, "--format", "nope"])).is_err(),
            "unknown format name"
        );
    }

    #[test]
    fn compress_reads_and_writes_sgr() {
        let gsgr = tmp("pipeline.sgr");
        run(&sv(&["generate", "--kind", "ba", "--n", "600", "--k", "4", "--output", &gsgr]))
            .expect("generate straight to .sgr");
        let out = tmp("pipeline-out.sgr");
        run(&sv(&[
            "compress", "--input", &gsgr, "--scheme", "uniform", "--p", "0.5", "--seed", "3",
            "--output", &out,
        ]))
        .expect("compress sgr -> sgr");
        let g = load(&gsgr).expect("load original");
        let h = load(&out).expect("load compressed");
        assert!(h.num_edges() < g.num_edges());
        run(&sv(&["analyze", "--input", &gsgr, "--scheme", "lowdeg"])).expect("analyze from sgr");
    }

    #[test]
    fn chained_scheme_compresses_and_is_deterministic() {
        let gpath = tmp("chain.txt");
        run(&sv(&["generate", "--kind", "ws", "--n", "400", "--k", "4", "--output", &gpath]))
            .expect("generate");
        let out_a = tmp("chain-a.bin");
        let out_b = tmp("chain-b.bin");
        for out in [&out_a, &out_b] {
            run(&sv(&[
                "compress",
                "--input",
                &gpath,
                "--scheme",
                "spanner,lowdeg,uniform",
                "--p",
                "0.5",
                "--seed",
                "7",
                "--output",
                out,
            ]))
            .expect("chained compress");
        }
        let a = load(&out_a).expect("load a");
        let b = load(&out_b).expect("load b");
        assert_eq!(a.edge_slice(), b.edge_slice(), "same seed must be bit-identical");
        assert!(a.num_edges() < load(&gpath).expect("orig").num_edges());
        // Per-stage parameter overrides parse too.
        run(&sv(&["analyze", "--input", &gpath, "--scheme", "spanner:k=4,uniform:p=0.2"]))
            .expect("per-stage overrides");
    }

    /// Mirrors what `run_session` does with `--scheme` flags: parse,
    /// resolve against the registry, build.
    fn pipeline_from(args: &Args) -> Result<sg_core::Pipeline, String> {
        let (spec, base) = spec_from(args)?;
        let registry = SchemeRegistry::with_defaults();
        spec.resolve(&registry, &base)?.build(&registry)
    }

    #[test]
    fn all_registry_schemes_parse_into_pipelines() {
        let registry = SchemeRegistry::with_defaults();
        for name in registry.names() {
            let a = Args::parse(&sv(&["compress", "--scheme", name])).expect("parse");
            pipeline_from(&a).expect("pipeline");
        }
        // And the full zoo as one chain.
        let chain: Vec<&str> = registry.names().collect();
        let a = Args::parse(&sv(&["compress", "--scheme", &chain.join(",")])).expect("parse");
        assert_eq!(pipeline_from(&a).expect("pipeline").len(), chain.len());
    }

    #[test]
    fn tune_winner_revalidates_standalone_on_two_graphs() {
        // The acceptance bar for the tuner: the winning spec, re-run as a
        // plain `compress` with the reported seed, must satisfy both the
        // edge budget and the metric target — on two different generated
        // graph families.
        for (kind, n, extra, extra_val) in [("ba", "500", "k", "3"), ("ws", "400", "k", "4")] {
            let gpath = tmp(&format!("tune-{kind}.txt"));
            run(&sv(&[
                "generate",
                "--kind",
                kind,
                "--n",
                n,
                &format!("--{extra}"),
                extra_val,
                "--output",
                &gpath,
            ]))
            .expect("generate");
            let g = load(&gpath).expect("load");
            let budget = g.num_edges() * 4 / 5;
            let target = sg_tune::Target::parse("degree-l1<=0.75").expect("target");
            let out = tmp(&format!("tune-{kind}-winner.txt"));
            run(&sv(&[
                "tune",
                "--input",
                &gpath,
                "--budget-edges",
                &budget.to_string(),
                "--target",
                "degree-l1<=0.75",
                "--schemes",
                "uniform,spanner,lowdeg",
                "--rounds",
                "1",
                "--seed",
                "9",
                "--output",
                &out,
            ]))
            .expect("tune finds a feasible winner under a generous target");

            // Re-derive the winner independently and re-run it standalone.
            let mut cfg = sg_tune::TuneConfig::new(budget, target, 9);
            cfg.rounds = 1;
            cfg.schemes = Some(vec!["uniform".into(), "spanner".into(), "lowdeg".into()]);
            let registry = Arc::new(SchemeRegistry::with_defaults());
            let outcome = sg_tune::tune(&g, &registry, &cfg).expect("tune");
            let w = outcome.winner.expect("feasible");
            let standalone = registry
                .parse_pipeline(&w.rendered, &SchemeParams::new())
                .expect("winner spec parses as a --scheme spec")
                .apply(&g, w.seed);
            assert_eq!(standalone.result.graph.num_edges(), w.edges, "standalone re-run matches");
            assert!(w.edges <= budget, "budget respected");
            assert!(w.metric <= target.max, "target respected");
            // And the graph `tune --output` wrote is exactly that graph.
            let written = load(&out).expect("winner graph written");
            assert_eq!(written.edge_slice(), standalone.result.graph.edge_slice());
        }
    }

    #[test]
    fn tune_reports_infeasibility_honestly() {
        let gpath = tmp("tune-infeasible.txt");
        run(&sv(&["generate", "--kind", "er", "--n", "200", "--m", "800", "--output", &gpath]))
            .expect("generate");
        // Budget 1 edge with a zero-distortion requirement: infeasible.
        run(&sv(&[
            "tune",
            "--input",
            &gpath,
            "--budget-edges",
            "1",
            "--target",
            "degree-l1<=0",
            "--schemes",
            "uniform",
            "--rounds",
            "0",
        ]))
        .expect("infeasible searches still succeed (reported, not errored)");
        // But asking to write a winner that does not exist is an error.
        let err = run(&sv(&[
            "tune",
            "--input",
            &gpath,
            "--budget-edges",
            "1",
            "--target",
            "degree-l1<=0",
            "--schemes",
            "uniform",
            "--rounds",
            "0",
            "--output",
            &tmp("tune-no-winner.txt"),
        ]))
        .unwrap_err();
        assert!(err.contains("no feasible winner"), "{err}");
        // Bad targets and scheme names fail loudly.
        assert!(run(&sv(&["tune", "--input", &gpath, "--target", "bogus<=1"])).is_err());
        assert!(run(&sv(&["tune", "--input", &gpath, "--target", "degree-l1"])).is_err());
        assert!(run(&sv(&[
            "tune",
            "--input",
            &gpath,
            "--target",
            "degree-l1<=1",
            "--schemes",
            "nope",
        ]))
        .is_err());
    }

    #[test]
    fn no_verify_loads_trusted_sgr_but_still_validates_structure() {
        let gsgr = tmp("noverify.sgr");
        run(&sv(&["generate", "--kind", "er", "--n", "200", "--m", "600", "--output", &gsgr]))
            .expect("generate");
        run(&sv(&["stats", "--input", &gsgr, "--no-verify"])).expect("trusted stats");
        // Corrupt only the stored digest: default load fails, trusted load
        // still decodes the (structurally intact) graph.
        let mut img = std::fs::read(&gsgr).expect("read");
        img[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        let bad = tmp("noverify-bad-digest.sgr");
        std::fs::write(&bad, &img).expect("write");
        assert!(run(&sv(&["stats", "--input", &bad])).is_err(), "checksum verified by default");
        run(&sv(&["stats", "--input", &bad, "--no-verify"])).expect("trusted load skips digest");
        run(&sv(&["analyze", "--input", &bad, "--no-verify", "--scheme", "lowdeg"]))
            .expect("analyze honors --no-verify");
    }

    #[test]
    fn unknown_command_and_scheme_error() {
        assert!(run(&sv(&["frobnicate"])).is_err());
        let a = Args::parse(&sv(&["compress", "--scheme", "nope"])).expect("parse");
        assert!(pipeline_from(&a).is_err());
        let b = Args::parse(&sv(&["compress", "--scheme", "uniform,,lowdeg"])).expect("parse");
        assert!(pipeline_from(&b).is_err());
        let c = Args::parse(&sv(&["compress", "--scheme", "uniform:p"])).expect("parse");
        assert!(pipeline_from(&c).is_err());
    }

    #[test]
    fn help_and_schemes_run() {
        run(&sv(&["help"])).expect("help");
        run(&[]).expect("implicit help");
        run(&sv(&["schemes"])).expect("schemes listing");
    }

    #[test]
    fn missing_input_is_reported() {
        let err = run(&sv(&["stats", "--input", "/nonexistent/g.txt"])).unwrap_err();
        assert!(err.contains("loading"));
    }
}
