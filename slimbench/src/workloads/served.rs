//! `serve_hot` and `serve_miss` — the same daemon used two ways.
//!
//! `serve_hot`: four prefix-sharing specs at one seed, asked again and
//! again. Every stage is a cache read, so the `sg-serve` shell (frame read,
//! JSON parse, per-response digest, render, write) is nearly the whole
//! latency; a scheme change must move nothing here.
//!
//! `serve_miss`: every request carries a fresh seed against a 16 MiB cache,
//! so every stage executes, is inserted, and pushes older entries out;
//! 30% of the requests are `analyze`, which brings in `sg-metrics` and the
//! `sg-algos` kernels. The shell is a few percent here.

use super::serve::{self, Caller, Daemon, Kind, PlannedOp};
use crate::common::{self, derive, timed, Cfg, Fidelity, Outcome};
use crate::measure;
use sg_algos::{cc, pagerank, tc};
use sg_core::{GraphCatalog, PipelineSpec, SchemeRegistry, SgSession};
use sg_graph::{generators, CsrGraph};
use std::collections::BTreeMap;
use std::sync::Arc;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;

const SEED_GRAPH: u64 = 0x5E2E_0001;
const SEED_REQUEST: u64 = 0x5E2E_0002;

#[derive(Clone, Copy, PartialEq)]
pub enum Shape {
    Hot,
    Miss,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Hot => "serve_hot",
            Shape::Miss => "serve_miss",
        }
    }

    fn vertices(self, cfg: &Cfg) -> usize {
        match self {
            Shape::Hot => cfg.size(100_000, 2_000),
            Shape::Miss => cfg.size(50_000, 2_000),
        }
    }

    fn cache_bytes(self, cfg: &Cfg) -> usize {
        match self {
            Shape::Hot => sg_core::cache::DEFAULT_CACHE_BYTES,
            // Smaller than the stage outputs of a few requests, at either size.
            Shape::Miss => cfg.size(16 << 20, 256 << 10),
        }
    }
}

/// `serve_hot`: a 20-op pattern — 17 `compress` over four specs that share
/// prefixes, 2 `stats`, 1 `ping` — all at one seed.
fn hot_plan(seed: u64) -> Vec<PlannedOp> {
    // Three share their first stage. (A `spanner` prefix, as `loadgen` uses,
    // keeps anywhere from 0.43 to 0.95 of the edges depending on the seed,
    // which would turn every metric here into seed noise.)
    const SPECS: [&str; 4] = [
        "spectral:p=0.5,uniform:p=0.5",
        "spectral:p=0.5,uniform:p=0.3",
        "spectral:p=0.5,cut:k=2",
        "lowdeg,uniform:p=0.5",
    ];
    let request_seed = derive(seed, SEED_REQUEST, 0);
    let mut compress = 0;
    (0..20)
        .map(|slot| match slot {
            6 | 13 => PlannedOp::probe(Kind::Stats),
            19 => PlannedOp::probe(Kind::Ping),
            _ => {
                compress += 1;
                PlannedOp::run(Kind::Compress, SPECS[compress % SPECS.len()], request_seed)
            }
        })
        .collect()
}

/// `serve_miss`: per ten ops seven `compress` — the five spec families in
/// turn, parameters walking a fixed grid — and three `analyze`; every op
/// with a fresh seed drawn from the run seed. The sequence of specs is the
/// same for every seed, so any stretch of the loop has the same mix.
fn miss_plan(seed: u64, ops: usize) -> Vec<PlannedOp> {
    const P: [&str; 5] = ["0.3", "0.4", "0.5", "0.6", "0.7"];
    const K: [&str; 3] = ["2", "3", "4"];
    let (mut compress, mut analyze) = (0usize, 0usize);
    (0..ops as u64)
        .map(|i| {
            let request_seed = derive(seed, SEED_REQUEST, i);
            if matches!(i % 10, 2 | 5 | 8) {
                analyze += 1;
                let scheme = ["uniform", "spectral"][analyze % 2];
                let p = P[analyze / 2 % P.len()];
                return PlannedOp::run(Kind::Analyze, &format!("{scheme}:p={p}"), request_seed);
            }
            compress += 1;
            let p = P[compress / 5 % P.len()];
            let spec = match compress % 5 {
                0 => format!("uniform:p={p}"),
                1 => format!("spectral:p={p}"),
                2 => "lowdeg".to_string(),
                3 => format!("cut:k={}", K[compress / 5 % K.len()]),
                _ => format!("spanner:k=4,uniform:p={p}"),
            };
            PlannedOp::run(Kind::Compress, &spec, request_seed)
        })
        .collect()
}

struct Env {
    graph: CsrGraph,
    path: String,
    daemon: Daemon,
    callers: Vec<Caller>,
    generate_ms: f64,
}

/// Generate the input, write it, start the daemon, connect the clients,
/// load the graph and — for `serve_hot` — fill the cache.
fn setup(cfg: &Cfg, shape: Shape, plan: &[PlannedOp]) -> Env {
    let (graph, generate_ms) = timed(|| {
        generators::barabasi_albert(shape.vertices(cfg), 4, derive(cfg.seed, SEED_GRAPH, 0))
    });
    let path = cfg.path(&format!("{}-input.sgr", shape.label()));
    sg_store::save_sgr(&graph, &path).expect("write the input .sgr");
    let daemon = Daemon::spawn(&serve::daemon_config(cfg, WORKERS, shape.cache_bytes(cfg)));
    let mut callers: Vec<Caller> = (0..CLIENTS).map(|_| Caller::connect(&daemon.addr)).collect();
    serve::must(&mut callers[0].client, &serve::load_request("g", &path));
    if shape == Shape::Hot {
        serve::drive(&mut callers[..1], plan, "warm", 0, serve::Until::Count(plan.len()));
        callers[0].samples.clear();
    }
    Env { graph, path, daemon, callers, generate_ms }
}

fn teardown(mut env: Env) {
    let first = env.callers.first_mut().map(|c| &mut c.client);
    env.daemon.stop(first);
}

pub fn run(cfg: &Cfg, shape: Shape) -> Outcome {
    let mut out = Outcome::default();
    let label = shape.label();
    let registry = SchemeRegistry::with_defaults();
    let mut plan = match shape {
        Shape::Hot => hot_plan(cfg.seed),
        Shape::Miss => miss_plan(cfg.seed, cfg.size(160, 20)),
    };
    let (mut env, setup_s) = common::repeat_setup(cfg, || setup(cfg, shape, &plan), teardown);
    out.set_median("setup_s", &setup_s);

    // The cold library run of every distinct (spec, seed): the digest each
    // reply must carry, and the outputs the storage-axis metrics sum over.
    let mut fidelity = Fidelity::new(&env.graph);
    let hot = shape == Shape::Hot;
    let digest_ms =
        serve::expect_cold_runs(cfg, &mut out, &mut plan, &env.graph, &mut fidelity, |_| hot);

    let before = cfg.traced.then(|| serve::metrics_snapshot(&mut env.callers[0].client));
    let mut cycle = None;
    let mut after_cycle =
        |caller: &mut Caller| cycle = Some(serve::metrics_snapshot(&mut caller.client));
    let window = serve::measure(cfg, &mut out, &mut env.callers, &plan, label, &mut after_cycle);

    // `serve_miss` takes its divergence from what `analyze` reported, once
    // per distinct op; the first few are recomputed through the library.
    if shape == Shape::Miss {
        let mut recheck = 4;
        for sample in env.callers.iter().flat_map(|c| &c.samples).filter(|s| s.index < plan.len()) {
            let Some(reported) = sample.pagerank_kl else { continue };
            fidelity.add_reported_kl(reported);
            if recheck > 0 {
                recheck -= 1;
                let op = &plan[sample.index];
                let output = common::cold_apply(&registry, &op.spec, &env.graph, op.seed);
                let own = fidelity.kl_of(&output);
                if own != Some(reported) {
                    out.fail(format!(
                        "{}: analyze reported KL {reported}, library {own:?}",
                        op.spec
                    ));
                }
            }
        }
    }
    fidelity.report(&mut out);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);

    if let (Some(trace), Some(before), Some(cycle)) = (&window.trace, before, cycle) {
        serve::report_shell(&mut out, label, &mut env.callers, window.ops, trace);
        let hits: Vec<f64> = env
            .callers
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.kind == Kind::Compress && s.stages_executed == 0 && s.index < window.ops)
            .map(|s| s.ms)
            .collect();
        out.set_median("sg-serve.compress_hit_p50_ms", &hits);
        out.set_median("sg-serve.digest_ms", &digest_ms);

        // Exact counts over the first cycle: each distinct op once.
        let delta = measure::counter_delta(&before, &cycle);
        let count = |name: &str| delta.get(name).copied().unwrap_or(0) as f64;
        out.set("sg-core.cache.hits", count("cache.hits"), 1);
        out.set("sg-core.cache.misses", count("cache.misses"), 1);
        out.set("sg-core.cache.evictions", count("cache.evictions"), 1);
        out.set("sg-core.cache.insertions", count("core.cache.insertions"), 1);
        let probes = count("cache.hits") + count("cache.misses");
        out.set("sg-core.cache.hit_share", count("cache.hits") / probes.max(1.0), 1);
        let first_cycle =
            || env.callers.iter().flat_map(|c| &c.samples).filter(|s| s.index < plan.len());
        out.set(
            "sg-core.stages_executed",
            first_cycle().map(|s| s.stages_executed).sum::<u64>() as f64,
            1,
        );
        out.set(
            "sg-core.stages_cached",
            first_cycle().map(|s| s.stages_cached).sum::<u64>() as f64,
            1,
        );

        let mut scheme_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (scheme, ms) in env.callers.iter().flat_map(|c| &c.samples).flat_map(|s| &s.stage_ms) {
            scheme_ms.entry(scheme).or_default().push(*ms);
        }
        for (scheme, ms) in scheme_ms {
            out.set_median(&format!("sg-core.scheme_ms.{scheme}"), &ms);
        }
        out.set("sg-graph.generate_ms", env.generate_ms, 1);
        report_session_replay(&mut out, &env, &plan);
        if let Some(op) = plan.iter().find(|op| op.kind == Kind::Analyze) {
            report_analyze(
                &mut out,
                &env.graph,
                &common::cold_apply(&registry, &op.spec, &env.graph, op.seed),
            );
        }
        trace.keep(cfg, label);
    }
    teardown(env);
    out
}

/// `sg-core` seen without the shell: the served specs replayed straight
/// through `SgSession::run` (first run misses, second hits), and the time
/// to open the input through a fresh catalog.
fn report_session_replay(out: &mut Outcome, env: &Env, plan: &[PlannedOp]) {
    let opens: Vec<f64> = (0..3)
        .map(|_| timed(|| GraphCatalog::new().open("g", &env.path, None, false).expect("open")).1)
        .collect();
    out.set_median("sg-core.catalog_open_ms", &opens);
    let catalog = Arc::new(GraphCatalog::new());
    let (handle, _) = catalog.open("g", &env.path, None, false).expect("open the input");
    let session = SgSession::new(catalog, Arc::new(SchemeRegistry::with_defaults()));
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for op in plan.iter().filter(|op| op.kind == Kind::Compress).take(8) {
        let spec = PipelineSpec::parse(&op.spec).expect("spec parses");
        // A seed the daemon never saw, so the first run misses on every stage.
        let seed = op.seed ^ 0x5E55;
        miss.push(timed(|| session.run(&handle, &spec, seed).expect("session runs")).1);
        hit.push(timed(|| session.run(&handle, &spec, seed).expect("session runs")).1);
    }
    out.set_median("sg-core.session_miss_ms", &miss);
    out.set_median("sg-core.session_hit_ms", &hit);
}

/// What `analyze` adds on top of `compress`, recomputed directly on one
/// (input, output) pair: components, triangles, PageRank KL, BFS-critical.
fn report_analyze(out: &mut Outcome, input: &CsrGraph, output: &CsrGraph) {
    let ((), counting_ms) = timed(|| {
        for g in [input, output] {
            std::hint::black_box((
                cc::connected_components(g).num_components,
                tc::count_triangles(g),
            ));
        }
    });
    let ((), kl_ms) = timed(|| {
        let before = pagerank::pagerank_default(input).scores;
        let after = pagerank::pagerank_default(output).scores;
        std::hint::black_box(sg_metrics::kl_divergence(&before, &after));
    });
    let root = common::max_degree_vertex(input);
    let ((), critical_ms) = timed(|| {
        std::hint::black_box(sg_metrics::critical_edge_preservation(input, output, root));
    });
    out.set("sg-metrics.analyze_ms", counting_ms + kl_ms + critical_ms, 1);
    out.set("sg-metrics.pagerank_kl_ms", kl_ms, 1);
    out.set("sg-metrics.bfs_critical_ms", critical_ms, 1);
}
