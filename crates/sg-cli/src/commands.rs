//! Subcommand implementations.
//!
//! Compression commands build their `--scheme` chain and run it with
//! [`Pipeline::apply`](sg_core::Pipeline::apply) — the stage loop the
//! `sg-serve` daemon's session resumes from its cache.

use crate::args::Args;
use sg_algos::{cc, tc};
use sg_core::{catalog, PipelineResult, PipelineSpec, SchemeParams, SchemeRegistry};
use sg_graph::{generators, CsrGraph, EncodedCsr, GraphView};
use sg_serve::Json;
use std::io::Write;
use std::sync::Arc;

/// `writeln!` to the command's output sink. A failed write (a closed
/// pipe, a full disk) ends the command with an error, never a panic.
macro_rules! emit {
    ($out:expr, $($fmt:tt)*) => {
        writeln!($out, $($fmt)*).map_err(write_error)?
    };
}

fn write_error(e: std::io::Error) -> String {
    format!("writing output: {e}")
}

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
           delta  v3 container, Stream VByte gap rows and bitmap rows for
                  dense vertices (smaller on skewed graphs)
           auto   whichever of the two is smaller for this graph
         v3 files load transparently everywhere .sgr is accepted.

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

/// Runs `slimgraph <argv>` (without the program name), writing the
/// command's report to `out`. Notes about side files (`--trace-out`,
/// `--metrics-out`, the daemon's listen address) go to stderr.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), String> {
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
    let result = dispatch_command(&args, out).and_then(|()| out.flush().map_err(write_error));
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

fn dispatch_command(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    match args.command.as_str() {
        "compress" => compress(args, out),
        "analyze" => analyze(args, out),
        "tune" => tune(args, out),
        "stats" => stats(args, out),
        "convert" => convert(args, out),
        "generate" => generate(args, out),
        "schemes" => schemes(out),
        "serve" => serve(args),
        "client" => client(args, out),
        "help" | "--help" | "-h" => {
            emit!(out, "{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Loads `--input` honoring `--format` (shared with the catalog/daemon:
/// `.sgr` inputs go through the zero-copy mmap loader; `--no-verify`
/// skips the `.sgr` checksum pass, structural validation still rejects
/// corrupt files).
fn load_input(args: &Args) -> Result<CsrGraph, String> {
    catalog::load_graph(args.require("input")?, args.get("format"), args.flag("no-verify"))
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

/// Loads `--input` and runs `--scheme` over it, cold: a one-shot process
/// has no cache to resume from, and keeps no stage's graph past the next.
/// Returns the input, the run and the chain's label.
fn run_pipeline(args: &Args) -> Result<(CsrGraph, PipelineResult, String), String> {
    let g = load_input(args)?;
    let (spec, base) = spec_from(args)?;
    let seed = args.get_or("seed", 42)?;
    let pipeline = spec.build_with_base(&SchemeRegistry::with_defaults(), &base)?;
    let out = pipeline.apply(&g, seed);
    Ok((g, out, pipeline.label()))
}

fn compress(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let (_, piped, label) = run_pipeline(args)?;
    for (i, stage) in piped.stages.iter().enumerate() {
        emit!(
            out,
            "stage {}: {}: m {} -> {} ({:.1}% kept) in {:.1} ms",
            i + 1,
            stage.label,
            stage.input_edges,
            stage.output_edges,
            stage.compression_ratio() * 100.0,
            stage.elapsed.as_secs_f64() * 1e3,
        );
    }
    let run = &piped.result;
    emit!(
        out,
        "total: {}: m {} -> {} ({:.1}% kept) in {:.1} ms",
        label,
        run.original_edges,
        run.graph.num_edges(),
        run.compression_ratio() * 100.0,
        run.elapsed.as_secs_f64() * 1e3
    );
    catalog::save_graph_with(
        &run.graph,
        args.require("output")?,
        args.get("output-format"),
        encoding_from(args)?,
    )
}

fn analyze(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let encoding = encoding_from(args)?;
    let (g, piped, label) = run_pipeline(args)?;
    let run = &piped.result;
    emit!(out, "pipeline:          {label}");
    emit!(out, "edges kept:        {:.1}%", run.compression_ratio() * 100.0);
    // With --encoding delta|auto the "before" metrics run over the encoded
    // adjacency (decode-on-the-fly kernels); results are bit-identical to
    // the raw run, the path is just exercised end to end.
    let mapping = run.vertex_mapping.as_deref();
    let report = match (encoding != sg_store::Encoding::Raw).then(|| EncodedCsr::from_graph(&g)) {
        Some(encoded) => sg_metrics::accuracy_report(&encoded, &g, &run.graph, mapping),
        None => sg_metrics::accuracy_report(&g, &g, &run.graph, mapping),
    };
    emit!(out, "components:        {} -> {}", report.components[0], report.components[1]);
    emit!(out, "triangles:         {} -> {}", report.triangles[0], report.triangles[1]);
    if let Some(kl) = report.pagerank_kl {
        emit!(out, "PageRank KL:       {kl:.5} bits");
    }
    match report.bfs_critical_kept {
        Some(kept) => emit!(out, "BFS critical kept: {:.1}%", kept * 100.0),
        None => emit!(out, "(vertex set changed; BFS critical skipped)"),
    }
    Ok(())
}

/// `tune`: search the (chain, parameters) space for the smallest graph
/// meeting `--target`, report the Pareto frontier and the re-validated
/// winner (or honest infeasibility), and optionally write the winner's
/// compressed graph to `--output`.
fn tune(args: &Args, out: &mut dyn Write) -> Result<(), String> {
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
        emit!(out, "{}", outcome.to_json_with_diagnostics());
    } else {
        emit!(out, "target:      {}", target.render());
        emit!(out, "budget:      {budget} edges (input m = {})", g.num_edges());
        emit!(out, "evaluated:   {} candidates", outcome.evaluated);
        emit!(
            out,
            "stages:      {} executed of {} (prefix cache reused {})",
            outcome.stages_executed,
            outcome.stages_total,
            outcome.stages_total - outcome.stages_executed
        );
        emit!(out, "frontier ({} non-dominated points, * = feasible):", outcome.frontier.len());
        for p in outcome.frontier.points() {
            let feasible = p.edges <= budget && p.metric <= target.max;
            emit!(
                out,
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
                emit!(out, "winner:      {}", w.rendered);
                emit!(
                    out,
                    "  m {} -> {} ({:.1}% kept), {} = {:.5} <= {}, pipeline seed {}",
                    g.num_edges(),
                    w.edges,
                    w.ratio * 100.0,
                    target.metric,
                    w.metric,
                    target.max,
                    w.seed
                );
                emit!(
                    out,
                    "  re-run:    slimgraph compress --input <in> --scheme '{}' --seed {}",
                    w.rendered,
                    w.seed
                );
            }
            None => emit!(
                out,
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
                catalog::save_graph_with(
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
/// `out`.
fn client(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let addr = args.require("connect")?;
    let mut client =
        sg_serve::Client::connect_with_patience(addr, std::time::Duration::from_secs(5))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
    client.set_token(args.get("token").map(str::to_string));
    if let Some(script) = args.get("script") {
        let text = std::fs::read_to_string(script).map_err(|e| format!("reading {script}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            emit!(out, "{}", client.request_line(line)?);
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
        emit!(out, "{}", response.render());
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
    let text = match op {
        "metrics" if !args.flag("json") => metrics_table(&response),
        "slowlog" if !args.flag("json") => slowlog_table(&response),
        _ => response.render() + "\n",
    };
    out.write_all(text.as_bytes()).map_err(write_error)?;
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

fn convert(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let from = catalog::GraphFormat::resolve(input, args.get("format"))?;
    let to = catalog::GraphFormat::resolve(output, args.get("output-format"))?;
    let g = catalog::load_graph(input, args.get("format"), args.flag("no-verify"))?;
    catalog::save_graph_with(&g, output, args.get("output-format"), encoding_from(args)?)?;
    let bytes = std::fs::metadata(output).map_err(|e| format!("stat {output}: {e}"))?.len();
    emit!(
        out,
        "converted {input} ({from:?}) -> {output} ({to:?}): n = {}, m = {}, {bytes} bytes",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn stats(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let encoding = encoding_from(args)?;
    let g = load_input(args)?;
    emit!(out, "vertices:     {}", g.num_vertices());
    emit!(out, "edges:        {}", g.num_edges());
    emit!(out, "weighted:     {}", g.is_weighted());
    // --encoding delta|auto: compute everything below over the encoded
    // adjacency instead of raw CSR (same numbers, decode-on-the-fly path).
    match encoding {
        sg_store::Encoding::Raw => stats_over(&g, out),
        _ => {
            let enc = EncodedCsr::from_graph(&g);
            let raw_adj = raw_adjacency_bytes(&g);
            emit!(out, "adjacency:    {} bytes encoded ({raw_adj} raw)", enc.adjacency_bytes());
            stats_over(&enc, out)
        }
    }
}

/// Bytes of `g`'s raw offsets, targets and slot edge ids, in both
/// directions: what [`EncodedCsr::adjacency_bytes`] replaces.
fn raw_adjacency_bytes(g: &CsrGraph) -> usize {
    use std::mem::size_of_val;
    let out = size_of_val(g.csr_offsets())
        + size_of_val(g.csr_targets())
        + size_of_val(g.csr_slot_edges());
    let inward = g.in_csr_offsets().map_or(0, size_of_val)
        + g.in_csr_targets().map_or(0, size_of_val)
        + g.in_csr_slot_edges().map_or(0, size_of_val);
    out + inward
}

/// The structural statistics shared by the raw and encoded `stats` paths.
fn stats_over<G: GraphView>(g: &G, out: &mut dyn Write) -> Result<(), String> {
    let s = sg_graph::properties::degree_stats(g);
    emit!(out, "degrees:      min {} / mean {:.2} / max {}", s.min, s.mean, s.max);
    emit!(out, "isolated:     {}", s.isolated);
    emit!(out, "leaves:       {}", s.leaves);
    emit!(out, "components:   {}", cc::connected_components(g).num_components);
    emit!(out, "triangles:    {}", tc::count_triangles(g));
    if let Some(fit) = sg_graph::properties::DegreeDistribution::of(g).power_law_fit() {
        emit!(out, "power law:    exponent {:.2}, R2 {:.3}", fit.exponent, fit.r2);
    }
    Ok(())
}

fn schemes(out: &mut dyn Write) -> Result<(), String> {
    let registry = SchemeRegistry::with_defaults();
    emit!(out, "registered compression schemes (chain with commas):");
    for name in registry.names() {
        let scheme = registry.create(name, &SchemeParams::new())?;
        emit!(out, "  {name:<10} defaults: {}", scheme.label());
    }
    Ok(())
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
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
    emit!(out, "generated n = {}, m = {}", g.num_vertices(), g.num_edges());
    catalog::save_graph_with(
        &g,
        args.require("output")?,
        args.get("output-format"),
        encoding_from(args)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn raw_adjacency_of_a_directed_sgr_counts_both_directions() {
        let el = sg_graph::EdgeList::from_pairs(5, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)]);
        let dir = std::env::temp_dir().join("slimgraph-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("directed.sgr").to_string_lossy().into_owned();
        sg_store::save_sgr(&CsrGraph::from_edge_list_directed(el), &path).expect("save");
        let g = catalog::load_graph(&path, None, false).expect("load");
        let (n, m) = (g.num_vertices(), g.num_edges());
        // Per direction: n + 1 offsets, m targets and m slot edge ids.
        let one_direction = (n + 1) * size_of::<usize>() + m * 4 + m * 4;
        assert_eq!(raw_adjacency_bytes(&g), 2 * one_direction);
        // An undirected graph has one adjacency, each edge in two rows.
        let undirected = generators::cycle(5);
        assert_eq!(raw_adjacency_bytes(&undirected), 6 * size_of::<usize>() + 2 * 5 * 8);
    }

    /// Mirrors what `run_pipeline` does with `--scheme` flags: parse, build.
    fn pipeline_from(args: &Args) -> Result<sg_core::Pipeline, String> {
        let (spec, base) = spec_from(args)?;
        spec.build_with_base(&SchemeRegistry::with_defaults(), &base)
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
        assert_eq!(pipeline_from(&a).expect("pipeline").stages().len(), chain.len());
    }

    /// A sink that fails every write the way a pipe whose reader exited does.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_output_is_an_error_not_a_panic() {
        for argv in [&["schemes"][..], &["help"], &["generate", "--kind", "grid", "--n", "2"]] {
            let err = run(&sv(argv), &mut ClosedPipe).expect_err("the write fails");
            assert!(err.starts_with("writing output: "), "{argv:?}: {err}");
        }
    }

    #[test]
    fn bucket_quantile_reads_the_first_bucket_covering_the_rank() {
        let hist = |count: u64, cumulative: [u64; 3]| {
            let buckets = [Json::f64(0.5), Json::f64(2.0), Json::str("+Inf")]
                .into_iter()
                .zip(cumulative)
                .map(|(le, count)| Json::obj().with("le", le).with("count", Json::u64(count)));
            Json::obj()
                .with("count", Json::u64(count))
                .with("buckets", Json::Arr(buckets.collect()))
        };
        let h = hist(4, [1, 3, 4]);
        assert_eq!(bucket_quantile(&h, 0.25), "0.5");
        assert_eq!(bucket_quantile(&h, 0.50), "2");
        assert_eq!(bucket_quantile(&h, 0.99), "+Inf");
        assert_eq!(bucket_quantile(&hist(0, [0, 0, 0]), 0.5), "-", "an empty histogram");
        // A rank past every bucket: counts that never reach the total.
        assert_eq!(bucket_quantile(&hist(9, [1, 3, 4]), 0.99), "+Inf");
    }
}
