//! `sharded_ranks` — one op is `distributed_compress(g, scheme, ranks = 2,
//! seed)`; a pass runs it for the four scheme classes with a sharded plan.
//! The `sg-dist` superstep exchange (propose / reserve / commit / apply,
//! channel messages, barriers) does the work; messages, supersteps and
//! imbalance are exact counts.

use super::passes;
use crate::common::{self, derive, timed, Cfg, Fidelity, Outcome, Slice};
use crate::layer_span;
use crate::measure::median;
use crate::tracebuf;
use sg_core::{CompressionScheme, PipelineSpec, SchemeRegistry};
use sg_dist::distributed_compress;
use sg_graph::{generators, CsrGraph};

const SCHEMES: [&str; 4] = ["uniform:p=0.6", "tr:p=0.6", "tr-eo:p=0.6", "lowdeg"];
const RANKS: usize = 2;

const SEED_GRAPH: u64 = 0xD157_0001;
const SEED_PASS: u64 = 0xD157_0002;

struct Env {
    graph: CsrGraph,
    generate_ms: f64,
}

/// Preferential attachment plus planted triangles: the Edge-Once
/// disciplines get real multi-superstep work without the reservation-chain
/// pathology R-MAT hubs cause (see `dist_scale.rs`).
fn setup(cfg: &Cfg) -> Env {
    let (n, triangles) = cfg.size((64_000, 24_000), (1_000, 400));
    let (graph, generate_ms) = timed(|| {
        let base = generators::barabasi_albert(n, 8, derive(cfg.seed, SEED_GRAPH, 0));
        generators::planted_triangles(&base, triangles, derive(cfg.seed, SEED_GRAPH, 1))
    });
    Env { graph, generate_ms }
}

/// One scheme's sharded run.
struct ShardedRun {
    ms: f64,
    digest: String,
    messages: u64,
    supersteps: u64,
    imbalance_pct: f64,
}

struct Pass {
    /// Which of the distinct passes (seeds) this was.
    plan: usize,
    runs: Vec<ShardedRun>,
}

fn run_pass(
    cfg: &Cfg,
    env: &Env,
    schemes: &[Box<dyn CompressionScheme>],
    index: usize,
    plans: usize,
) -> Pass {
    let plan = index % plans;
    let seed = derive(cfg.seed, SEED_PASS, plan as u64);
    let runs = schemes
        .iter()
        .enumerate()
        .map(|(s, scheme)| {
            let op = tracebuf::op_scope(&format!("sharded_ranks-{index}-{s}"));
            let (dist, ms) = timed(|| {
                let _s = layer_span!("sg-dist.distributed_compress");
                distributed_compress(&env.graph, scheme.as_ref(), RANKS, seed)
                    .expect("scheme has a sharded plan")
            });
            drop(op);
            ShardedRun {
                ms,
                digest: common::digest_hex(&dist.result.graph),
                messages: dist.total_messages(),
                supersteps: dist.max_supersteps(),
                imbalance_pct: dist.edge_imbalance_pct(),
            }
        })
        .collect();
    Pass { plan, runs }
}

fn run_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| &p.runs).map(|r| r.ms).collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let schemes: Vec<Box<dyn CompressionScheme>> = SCHEMES
        .iter()
        .map(|spec| {
            let parsed = PipelineSpec::parse(spec).expect("spec parses");
            let stage = &parsed.stages[0];
            registry.create(&stage.name, &stage.params).expect("registered scheme")
        })
        .collect();
    let (env, setup_s) = common::repeat_setup(cfg, || setup(cfg), drop);
    out.set_median("setup_s", &setup_s);
    let plans = cfg.size(6, 1);

    // Shared-memory `scheme.apply` of every distinct (scheme, seed): the
    // digest each sharded run must reproduce.
    let input_components = common::components(&env.graph);
    let mut input_triangles = None;
    let mut fidelity = Fidelity::new(&env.graph);
    let mut expect = Vec::new();
    let mut shared_ms = vec![Vec::new(); SCHEMES.len()];
    for plan in 0..plans {
        let seed = derive(cfg.seed, SEED_PASS, plan as u64);
        for (s, scheme) in schemes.iter().enumerate() {
            let (result, ms) = timed(|| scheme.apply(&env.graph, seed));
            shared_ms[s].push(ms);
            fidelity.add(&env.graph, &result.graph, None);
            fidelity.add_kl(&result.graph);
            if let Err(e) = common::check_invariants(
                SCHEMES[s],
                &env.graph,
                &result.graph,
                input_components,
                &mut input_triangles,
            ) {
                out.fail(e);
            }
            expect.push(common::digest_hex(&result.graph));
        }
    }

    run_pass(cfg, &env, &schemes, 0, plans); // warm-up
    let measured = passes::measure(cfg, plans, |i| run_pass(cfg, &env, &schemes, i, plans));
    let slices: Vec<Slice> = measured
        .window
        .iter()
        .map(|p| Slice::of_pass(p.runs.iter().map(|r| r.ms).collect()))
        .collect();
    out.set_op_timings(&slices);
    for pass in measured.window.iter().chain(&measured.untraced) {
        for (s, run) in pass.runs.iter().enumerate() {
            let verdict = if run.digest == expect[pass.plan * SCHEMES.len() + s] {
                Ok(())
            } else {
                Err(format!("{}: sharded digest differs from scheme.apply", SCHEMES[s]))
            };
            out.check(verdict);
        }
    }
    fidelity.report(&mut out);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);

    if let Some(trace) = &measured.trace {
        let traced = &measured.window;
        out.set_trace_overhead(&run_ms(traced), &run_ms(&measured.untraced));
        trace.report(&mut out);
        out.set("sg-graph.generate_ms", env.generate_ms, 1);
        let (mut sharded_sum, mut shared_sum) = (0.0, 0.0);
        for (s, spec) in SCHEMES.iter().enumerate() {
            let scheme = spec.split(':').next().unwrap_or(spec);
            let ms: Vec<f64> = traced.iter().map(|p| p.runs[s].ms).collect();
            out.set_median(&format!("sg-dist.sharded_ms.{scheme}"), &ms);
            sharded_sum += median(&ms);
            shared_sum += median(&shared_ms[s]);
        }
        out.set("sg-dist.sharded_over_shared", sharded_sum / shared_sum, traced.len());
        // Exact counts over the distinct passes (the first cycle).
        let cycle = || traced.iter().take(plans).flat_map(|p| &p.runs);
        out.set("sg-dist.messages", cycle().map(|r| r.messages).sum::<u64>() as f64, 1);
        out.set("sg-dist.supersteps", cycle().map(|r| r.supersteps).sum::<u64>() as f64, 1);
        let imbalance = cycle().map(|r| r.imbalance_pct).fold(0.0, f64::max);
        out.set("sg-dist.imbalance_pct", imbalance, 1);
        trace.keep(cfg, "sharded_ranks");
    }
    out
}
