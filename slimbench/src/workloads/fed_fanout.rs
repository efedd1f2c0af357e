//! `fed_fanout` — one federable single-stage `compress` sent to a
//! coordinator that fans it out to two stock worker daemons over loopback
//! TCP and merges the shards. `sg-serve/fed.rs` does the work: per-shard
//! connect, per-request replica digest verification, merge. One client, so
//! with the two shards in flight at most two threads are runnable.

use super::serve::{self, Caller, Daemon, Kind, PlannedOp};
use crate::common::{self, derive, timed, Cfg, Fidelity, Outcome};
use crate::measure::median;
use sg_core::{PipelineSpec, SchemeRegistry};
use sg_graph::{generators, CsrGraph};
use sg_serve::{FedConfig, ServeConfig};

const SPECS: [&str; 3] = ["uniform:p=0.5", "tr:p=0.6", "lowdeg"];
const LABEL: &str = "fed_fanout";

const SEED_GRAPH: u64 = 0xFED0_0001;
const SEED_REQUEST: u64 = 0xFED0_0002;

/// Divergence is averaged over at most this many distinct outputs; each
/// costs two PageRank runs outside the window.
const KL_OUTPUTS: usize = 24;

struct Env {
    graph: CsrGraph,
    path: String,
    workers: Vec<Daemon>,
    coordinator: Daemon,
    callers: Vec<Caller>,
    generate_ms: f64,
}

fn plan(cfg: &Cfg) -> Vec<PlannedOp> {
    (0..cfg.size(60, 6) as u64)
        .map(|i| {
            let spec = SPECS[i as usize % SPECS.len()];
            PlannedOp::run(Kind::Compress, spec, derive(cfg.seed, SEED_REQUEST, i))
        })
        .collect()
}

/// Generate and write the input, start two stock workers and a coordinator,
/// load the coordinator's copy, and let one request per spec hand the
/// replicas to the workers.
fn setup(cfg: &Cfg, plan: &[PlannedOp]) -> Env {
    let (n, triangles) = cfg.size((32_000, 12_000), (1_000, 400));
    let (graph, generate_ms) = timed(|| {
        let base = generators::barabasi_albert(n, 8, derive(cfg.seed, SEED_GRAPH, 0));
        generators::planted_triangles(&base, triangles, derive(cfg.seed, SEED_GRAPH, 1))
    });
    let path = cfg.path("fed_fanout-input.sgr");
    sg_store::save_sgr(&graph, &path).expect("write the input .sgr");
    let stock = ServeConfig { transcript: false, ..ServeConfig::default() };
    let workers: Vec<Daemon> = (0..2).map(|_| Daemon::spawn(&stock)).collect();
    let federation = FedConfig {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        ..FedConfig::default()
    };
    let coordinator = Daemon::spawn(&ServeConfig {
        federation: Some(federation),
        ..serve::daemon_config(cfg, 2, sg_core::cache::DEFAULT_CACHE_BYTES)
    });
    let mut callers = vec![Caller::connect(&coordinator.addr)];
    serve::must(&mut callers[0].client, &serve::load_request("g", &path));
    serve::drive(&mut callers, plan, "warm", 0, serve::Until::Count(SPECS.len()));
    callers[0].samples.clear();
    Env { graph, path, workers, coordinator, callers, generate_ms }
}

fn teardown(mut env: Env) {
    env.coordinator.stop(Some(&mut env.callers[0].client));
    env.workers.into_iter().for_each(|w| w.stop(None));
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let mut plan = plan(cfg);
    let (mut env, setup_s) = common::repeat_setup(cfg, || setup(cfg, &plan), teardown);
    out.set_median("setup_s", &setup_s);

    let mut fidelity = Fidelity::new(&env.graph);
    serve::expect_cold_runs(cfg, &mut out, &mut plan, &env.graph, &mut fidelity, |seen| {
        seen < KL_OUTPUTS
    });
    let window = serve::measure(cfg, &mut out, &mut env.callers, &plan, LABEL, &mut |_| {});
    fidelity.report(&mut out);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);

    if let Some(trace) = &window.trace {
        let totals = serve::report_shell(&mut out, LABEL, &mut env.callers, window.ops, trace);
        let window = &env.callers[0].samples[..window.ops];
        let op_ms: Vec<f64> = window.iter().map(|s| s.ms).collect();
        let shard_ms: Vec<f64> = window.iter().flat_map(|s| s.shard_ms.iter().copied()).collect();
        out.set_median("sg-serve.fed.shard_ms_p50", &shard_ms);
        let counter = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        out.set("sg-serve.fed.retries", counter("fed.retries"), 1);
        let fallbacks = window.iter().filter(|s| !s.federated).count();
        out.set("sg-serve.fed.local_fallbacks", fallbacks as f64, 1);
        out.set("sg-graph.generate_ms", env.generate_ms, 1);

        // The same requests against a lone daemon.
        let solo =
            Daemon::spawn(&serve::daemon_config(cfg, 2, sg_core::cache::DEFAULT_CACHE_BYTES));
        let mut lone = vec![Caller::connect(&solo.addr)];
        serve::must(&mut lone[0].client, &serve::load_request("g", &env.path));
        serve::drive(&mut lone, &plan, "solo", 0, serve::Until::Count(plan.len()));
        let solo_ms: Vec<f64> = lone[0].samples.iter().map(|s| s.ms).collect();
        lone[0].samples.iter().for_each(|sample| out.check(sample.verdict()));
        solo.stop(Some(&mut lone[0].client));
        out.set_median("sg-serve.fed.standalone_p50_ms", &solo_ms);
        out.set("sg-serve.fed.over_standalone", median(&op_ms) / median(&solo_ms), op_ms.len());

        // What the two sides of the fan-out cost without the wire: one
        // shard computed directly, and the merge of both shards' deletions.
        let (mut shard, mut merge) = (Vec::new(), Vec::new());
        for op in plan.iter().filter(|op| op.spec != "lowdeg").take(8) {
            let stage = &PipelineSpec::parse(&op.spec).expect("spec parses").stages[0];
            let scheme = registry.create(&stage.name, &stage.params).expect("registered scheme");
            let mut deleted = Vec::new();
            for half in 0..2 {
                let (outcome, ms) = timed(|| {
                    sg_dist::shard_compress(&env.graph, scheme.as_ref(), half, 2, op.seed)
                        .expect("federable scheme")
                });
                shard.push(ms);
                if let sg_dist::ShardOutcome::Edges(edges) = outcome {
                    deleted.extend(edges);
                }
            }
            deleted.sort_unstable();
            deleted.dedup();
            merge.push(timed(|| sg_dist::apply_edge_deletions(&env.graph, &deleted)).1);
        }
        out.set_median("sg-dist.shard_compress_ms", &shard);
        out.set_median("sg-dist.merge_ms", &merge);
        trace.keep(cfg, LABEL);
    }
    teardown(env);
    out
}
