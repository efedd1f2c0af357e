//! The tuning loop: deterministic successive grid refinement over the
//! candidate space, parallel session-based candidate evaluation, and
//! winner validation.
//!
//! Determinism contract (the same one the rayon shim pins for kernels):
//! the candidate list of every round and all tie-breaks are pure functions
//! of `(graph, TuneConfig)` — never of thread count or evaluation timing.
//! Candidates are evaluated with `par_iter().map(..).collect()`, which
//! assembles results in input order, so a tuning run is bit-identical at
//! any `SG_THREADS`.
//!
//! Every candidate runs with the **same pipeline seed** (the master seed)
//! through a shared [`sg_core::SgSession`], so grid-refinement neighbors —
//! which differ only in one suffix stage's parameter — reuse their shared
//! chain prefix from the [`sg_core::StageCache`] instead of recomputing
//! it. Cache hits are bit-identical to cold runs (pipelines are pure
//! functions of `(graph, spec, seed)`), so *results* stay deterministic;
//! only the [`TuneOutcome::stages_executed`] perf counter depends on
//! evaluation interleaving and is therefore excluded from the JSON.

use crate::candidates::{enumerate_chains, initial_candidates, refine};
use crate::objective::Target;
use crate::pareto::{ParetoFront, ParetoPoint};
use rayon::prelude::*;
use sg_core::{GraphCatalog, PipelineSpec, SchemeRegistry, SgSession, StageCache};
use sg_graph::{CsrGraph, VertexId};
use sg_metrics::AccuracyBaseline;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of one tuning run.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Hard upper bound on output edges for a candidate to be feasible.
    pub budget_edges: usize,
    /// Quality target (`metric <= max`) a candidate must meet.
    pub target: Target,
    /// Maximum chain length explored.
    pub max_depth: usize,
    /// Master seed; every candidate's pipeline seed derives from this and
    /// the candidate's rendered spec.
    pub seed: u64,
    /// Refinement rounds after the coarse screening round.
    pub rounds: usize,
    /// Survivors kept per refinement round.
    pub keep: usize,
    /// Coarse grid points per parameter axis.
    pub grid: usize,
    /// Scheme-name subset to search; `None` = every registered scheme.
    pub schemes: Option<Vec<String>>,
    /// Safety cap on round-0 candidates (the chain × grid cross product
    /// grows fast with depth).
    pub max_candidates: usize,
    /// Extra round-0 candidates — typically the Pareto frontier of a
    /// previous run (`slimgraph tune --warm-start frontier.json`). They
    /// are screened and refined alongside the generated grid, so a warm
    /// start both seeds known-good regions and composes with the stage
    /// cache (warm specs share prefixes with their own refinements).
    pub warm_start: Vec<PipelineSpec>,
    /// Byte budget of the shared stage cache used for candidate
    /// evaluation (0 disables prefix reuse).
    pub cache_bytes: usize,
}

impl TuneConfig {
    /// A config with the default search shape (depth 2, 3-point grids, 2
    /// refinement rounds, 8 survivors).
    pub fn new(budget_edges: usize, target: Target, seed: u64) -> Self {
        Self {
            budget_edges,
            target,
            max_depth: 2,
            seed,
            rounds: 2,
            keep: 8,
            grid: 3,
            schemes: None,
            max_candidates: 20_000,
            warm_start: Vec::new(),
            cache_bytes: sg_core::cache::DEFAULT_CACHE_BYTES,
        }
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The candidate spec.
    pub spec: PipelineSpec,
    /// Canonical rendered spec (dedup and tie-break key).
    pub rendered: String,
    /// Output edge count.
    pub edges: usize,
    /// Output vertex count.
    pub vertices: usize,
    /// Compression ratio `m'/m`.
    pub ratio: f64,
    /// Target metric value (lower = better; `INFINITY` = incomparable).
    pub metric: f64,
    /// The pipeline seed this candidate ran with.
    pub seed: u64,
}

impl Evaluated {
    /// Whether the candidate meets both the edge budget and the target.
    pub fn feasible(&self, cfg: &TuneConfig) -> bool {
        self.edges <= cfg.budget_edges && self.metric <= cfg.target.max
    }
}

/// Result of a tuning run.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Non-dominated (edges, metric) points over every evaluated candidate.
    pub frontier: ParetoFront,
    /// The smallest feasible candidate, re-validated by a fresh run;
    /// `None` when no candidate met the target within the budget.
    pub winner: Option<Evaluated>,
    /// Total candidates evaluated.
    pub evaluated: usize,
    /// The budget the run enforced.
    pub budget_edges: usize,
    /// The target the run enforced.
    pub target: Target,
    /// Pipeline stages across all candidates (executed + cache-reused).
    ///
    /// **Perf counter, not part of the deterministic outcome**: which
    /// concurrent candidate computes a shared prefix (and which reuses it)
    /// depends on evaluation interleaving, so `stages_executed` may vary
    /// with `SG_THREADS` even though every graph, metric, and the JSON
    /// rendering are bit-identical. Deliberately excluded from
    /// [`TuneOutcome::to_json`].
    pub stages_total: usize,
    /// Pipeline stages actually executed (see [`TuneOutcome::stages_total`]).
    pub stages_executed: usize,
}

impl TuneOutcome {
    /// Serializes the outcome as one JSON object (spec strings escaped).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            sg_obs::trace::escape_into(&mut out, s);
            out
        }
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        fn eval_json(e: &Evaluated) -> String {
            format!(
                "{{\"spec\":\"{}\",\"edges\":{},\"vertices\":{},\"ratio\":{},\"metric\":{},\"seed\":{}}}",
                esc(&e.rendered),
                e.edges,
                e.vertices,
                num(e.ratio),
                num(e.metric),
                e.seed
            )
        }
        let mut out = String::from("{");
        out.push_str(&format!("\"budget_edges\":{}", self.budget_edges));
        out.push_str(&format!(",\"target\":\"{}\"", esc(&self.target.render())));
        out.push_str(&format!(",\"evaluated\":{}", self.evaluated));
        out.push_str(",\"winner\":");
        match &self.winner {
            Some(w) => out.push_str(&eval_json(w)),
            None => out.push_str("null"),
        }
        out.push_str(",\"frontier\":[");
        for (i, p) in self.frontier.points().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"spec\":\"{}\",\"edges\":{},\"ratio\":{},\"metric\":{}}}",
                esc(&p.rendered),
                p.edges,
                num(p.ratio),
                num(p.metric)
            ));
        }
        out.push_str("]}");
        out
    }

    /// [`TuneOutcome::to_json`] plus a trailing **non-contractual**
    /// `diagnostics` block carrying the execution counters
    /// (`stages_total` / `stages_executed`). Split from `to_json` on
    /// purpose: the counters vary with `SG_THREADS` interleaving, so the
    /// contractual serialization must not contain them (tests compare
    /// `to_json` across cache/thread settings), while humans and
    /// dashboards reading `tune --json` output still get them. Nothing
    /// may assert on this block; its shape can change without notice.
    pub fn to_json_with_diagnostics(&self) -> String {
        let contractual = self.to_json();
        let base = contractual.strip_suffix('}').unwrap_or(&contractual);
        format!(
            "{base},\"diagnostics\":{{\"stages_total\":{},\"stages_executed\":{}}}}}",
            self.stages_total, self.stages_executed
        )
    }
}

/// Every candidate runs with the master seed itself as its pipeline seed.
///
/// Until the session rewiring, each candidate derived a private seed from
/// its rendered spec text. Sharing one seed has two deliberate effects:
/// grid neighbors now compare under *common random numbers* (a paired
/// comparison — parameter differences are not confounded with RNG
/// differences), and chain prefixes become shareable through the
/// [`StageCache`] (stage `i`'s seed is positional in the chain, so two
/// specs agreeing on a prefix agree on its stage seeds). Still a pure
/// function of the config — re-running the winner standalone with
/// [`Evaluated::seed`] reproduces the tuner's numbers exactly.
fn evaluate(
    session: &SgSession,
    handle: &sg_core::GraphHandle,
    score: &impl Fn(&CsrGraph, Option<&[Option<VertexId>]>) -> f64,
    seed: u64,
    spec: &PipelineSpec,
) -> Option<(Evaluated, usize)> {
    let rendered = spec.render();
    let run = session.run(handle, spec, seed).ok()?;
    let metric = score(&run.graph, run.vertex_mapping.as_deref().map(Vec::as_slice));
    let executed = run.stages_executed();
    Some((
        Evaluated {
            spec: spec.clone(),
            rendered,
            edges: run.graph.num_edges(),
            vertices: run.graph.num_vertices(),
            ratio: run.compression_ratio(),
            metric,
            seed,
        },
        executed,
    ))
}

/// Total order used both to pick refinement survivors and the winner:
/// feasible candidates first (smallest output, then most accurate);
/// infeasible ones by accuracy (so refinement pulls toward feasibility);
/// rendered spec as the final deterministic tie-break.
fn rank(a: &Evaluated, b: &Evaluated, cfg: &TuneConfig) -> std::cmp::Ordering {
    match (a.feasible(cfg), b.feasible(cfg)) {
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (true, true) => a
            .edges
            .cmp(&b.edges)
            .then(a.metric.total_cmp(&b.metric))
            .then_with(|| a.rendered.cmp(&b.rendered)),
        (false, false) => a
            .metric
            .total_cmp(&b.metric)
            .then(a.edges.cmp(&b.edges))
            .then_with(|| a.rendered.cmp(&b.rendered)),
    }
}

/// Runs the search: screen every (chain, coarse grid) candidate, refine
/// survivors for `cfg.rounds` rounds, re-validate the winner with a fresh
/// run, and return the frontier + winner.
///
/// The registry is taken as an `Arc` because evaluation runs through a
/// shared [`SgSession`] (whose stage cache lets grid neighbors reuse
/// chain prefixes); the session holds a reference for the whole run.
///
/// Errors on invalid configuration (unknown scheme names, zero-sized
/// search, a round-0 cross product beyond `max_candidates`) and on winner
/// re-validation mismatch (which would indicate a determinism bug —
/// pipelines are pure functions of `(graph, spec, seed)`).
pub fn tune(
    g: &CsrGraph,
    registry: &Arc<SchemeRegistry>,
    cfg: &TuneConfig,
) -> Result<TuneOutcome, String> {
    if cfg.max_depth == 0 || cfg.grid == 0 || cfg.keep == 0 {
        return Err("max_depth, grid, and keep must all be at least 1".to_string());
    }
    let names: Vec<String> = match &cfg.schemes {
        Some(list) => {
            let mut names: Vec<String> = list.clone();
            names.sort();
            names.dedup();
            for name in &names {
                if !registry.contains(name) {
                    let known: Vec<&str> = registry.names().collect();
                    return Err(format!("unknown scheme '{name}' (known: {})", known.join(", ")));
                }
            }
            names
        }
        None => registry.names().map(String::from).collect(),
    };
    if names.is_empty() {
        return Err("no schemes to search over".to_string());
    }

    // Enforce the candidate cap *arithmetically* before materializing
    // anything: the round-0 count is Σ_{d=1..depth} (Σ per-scheme grid
    // sizes)^d, which explodes long before the Vec would finish allocating
    // at high --depth (11 schemes × grid 3 × depth 6 is ~10^9 specs).
    let per_stage: u128 = names
        .iter()
        .map(|n| if crate::candidates::axis_for(n).is_some() { cfg.grid as u128 } else { 1 })
        .sum();
    let mut round0: u128 = 0;
    let mut power: u128 = 1;
    for _ in 0..cfg.max_depth {
        power = power.saturating_mul(per_stage);
        round0 = round0.saturating_add(power);
    }
    if round0 > cfg.max_candidates as u128 {
        return Err(format!(
            "round-0 search space has {round0} candidates (cap {}); lower --depth/--grid or \
             pass --schemes to narrow the chain alphabet",
            cfg.max_candidates
        ));
    }

    // Filled before the parallel screen: no candidate waits on another's.
    let baseline = AccuracyBaseline::default();
    baseline.fill(cfg.target.metric, g, g);
    let score = |graph: &CsrGraph, mapping: Option<&[Option<VertexId>]>| {
        baseline.score(cfg.target.metric, g, g, graph, mapping)
    };
    let chains = enumerate_chains(&names, cfg.max_depth);
    let mut batch = initial_candidates(&chains, cfg.grid);
    debug_assert_eq!(batch.len() as u128, round0, "cap arithmetic matches enumeration");
    // Warm-start specs join round 0 after the generated grid (dedup below
    // drops exact repeats); invalid specs fail loudly rather than being
    // silently skipped.
    for spec in &cfg.warm_start {
        spec.build(registry).map_err(|e| format!("warm-start spec '{}': {e}", spec.render()))?;
        batch.push(spec.clone());
    }

    // One shared session: every candidate runs against the same handle
    // with the same seed, so chain prefixes are reused across candidates.
    let catalog = Arc::new(GraphCatalog::new());
    let handle =
        catalog.insert("tune-input", g.clone(), "tune input").expect("fresh catalog has no names");
    let session = SgSession::with_cache(
        catalog,
        Arc::clone(registry),
        Arc::new(StageCache::with_capacity(cfg.cache_bytes)),
    );

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut all: Vec<Evaluated> = Vec::new();
    let mut stages_total = 0usize;
    let mut stages_executed = 0usize;
    for round in 0..=cfg.rounds {
        batch.retain(|spec| seen.insert(spec.render()));
        if batch.is_empty() {
            break;
        }
        // Parallel evaluation; `collect` assembles in input order, so the
        // result is bit-identical at any thread count.
        let evals: Vec<Option<(Evaluated, usize)>> = batch
            .par_iter()
            .map(|spec| evaluate(&session, &handle, &score, cfg.seed, spec))
            .collect();
        for (evaluated, executed) in evals.into_iter().flatten() {
            stages_total += evaluated.spec.len();
            stages_executed += executed;
            all.push(evaluated);
        }
        if round == cfg.rounds {
            break;
        }
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| rank(&all[a], &all[b], cfg));
        batch = order
            .iter()
            .take(cfg.keep)
            .flat_map(|&i| refine(&all[i].spec, round + 1, cfg.grid))
            .collect();
    }

    let winner = all.iter().min_by(|a, b| rank(a, b, cfg)).filter(|e| e.feasible(cfg)).cloned();
    if let Some(w) = &winner {
        // Fresh standalone run of the winning spec through the *cold*
        // `Pipeline::apply` path (no session, no cache): the determinism
        // contract says it must reproduce the tuner's numbers exactly, and
        // going cold cross-checks the session executor against the classic
        // one.
        let fresh = w
            .spec
            .build(registry)
            .map_err(|e| format!("winner '{}' failed to rebuild: {e}", w.rendered))?
            .apply(g, w.seed);
        let fresh_metric = score(&fresh.result.graph, fresh.result.vertex_mapping.as_deref());
        if fresh.result.graph.num_edges() != w.edges || fresh_metric.to_bits() != w.metric.to_bits()
        {
            return Err(format!(
                "winner '{}' failed re-validation: {} edges / metric {} vs fresh {} / {}",
                w.rendered,
                w.edges,
                w.metric,
                fresh.result.graph.num_edges(),
                fresh_metric
            ));
        }
    }

    let frontier = ParetoFront::from_points(
        all.iter()
            .map(|e| ParetoPoint {
                spec: e.spec.clone(),
                rendered: e.rendered.clone(),
                edges: e.edges,
                ratio: e.ratio,
                metric: e.metric,
            })
            .collect(),
    );
    Ok(TuneOutcome {
        frontier,
        winner,
        evaluated: all.len(),
        budget_edges: cfg.budget_edges,
        target: cfg.target,
        stages_total,
        stages_executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricKind;
    use sg_graph::generators;

    fn small_cfg(budget: usize, max: f64) -> TuneConfig {
        let target = Target { metric: MetricKind::DegreeL1, max };
        let mut cfg = TuneConfig::new(budget, target, 7);
        cfg.schemes = Some(vec!["uniform".into(), "lowdeg".into(), "spanner".into()]);
        cfg.max_depth = 2;
        cfg.rounds = 1;
        cfg.keep = 4;
        cfg
    }

    fn registry() -> Arc<SchemeRegistry> {
        Arc::new(SchemeRegistry::with_defaults())
    }

    #[test]
    fn finds_a_feasible_winner_and_validates_it() {
        let g = generators::barabasi_albert(400, 4, 1);
        let registry = registry();
        let cfg = small_cfg(g.num_edges() * 3 / 4, 1.0);
        let out = tune(&g, &registry, &cfg).expect("search runs");
        let w = out.winner.expect("generous target is feasible");
        assert!(w.edges <= cfg.budget_edges);
        assert!(w.metric <= cfg.target.max);
        assert!(!out.frontier.is_empty());
        assert!(out.evaluated > 0);

        // The winner must hold up under a fully standalone re-run with
        // its reported seed (which is the master seed).
        assert_eq!(w.seed, cfg.seed);
        let pipeline = w.spec.build(&registry).expect("builds");
        let fresh = pipeline.apply(&g, w.seed);
        assert_eq!(fresh.result.graph.num_edges(), w.edges);
    }

    #[test]
    fn shared_prefixes_are_reused_across_candidates() {
        let g = generators::barabasi_albert(300, 3, 4);
        let registry = registry();
        let mut cfg = small_cfg(g.num_edges(), 1.0);
        cfg.max_depth = 2;
        let out = tune(&g, &registry, &cfg).expect("runs");
        assert!(out.stages_total > 0);
        assert!(
            out.stages_executed < out.stages_total,
            "two-stage chains share single-stage prefixes; {} executed of {}",
            out.stages_executed,
            out.stages_total
        );
        // Disabling the cache executes everything, with identical results.
        let mut cold = cfg.clone();
        cold.cache_bytes = 0;
        let cold_out = tune(&g, &registry, &cold).expect("cold runs");
        assert_eq!(cold_out.stages_executed, cold_out.stages_total);
        assert_eq!(cold_out.to_json(), out.to_json(), "cache is invisible in the outcome");
    }

    #[test]
    fn impossible_targets_are_reported_infeasible() {
        let g = generators::erdos_renyi(200, 800, 2);
        // Budget of 0 edges with a 0.0-distortion requirement: nothing can
        // satisfy both on a connected-ish graph.
        let mut cfg = small_cfg(0, 0.0);
        cfg.rounds = 0;
        let out = tune(&g, &registry(), &cfg).expect("search still runs");
        assert!(out.winner.is_none(), "must report infeasibility, not invent a winner");
        assert!(out.evaluated > 0);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let g = generators::watts_strogatz(300, 4, 0.1, 3);
        let registry = registry();
        let cfg = small_cfg(g.num_edges(), 0.5);
        let a = tune(&g, &registry, &cfg).expect("run a");
        let b = tune(&g, &registry, &cfg).expect("run b");
        assert_eq!(a.to_json(), b.to_json(), "bit-identical runs");
    }

    #[test]
    fn warm_start_seeds_round_zero() {
        let g = generators::barabasi_albert(300, 4, 8);
        let registry = registry();
        let cfg = small_cfg(g.num_edges() * 3 / 4, 1.0);
        let first = tune(&g, &registry, &cfg).expect("first run");
        let frontier_specs: Vec<PipelineSpec> =
            first.frontier.points().iter().map(|p| p.spec.clone()).collect();
        assert!(!frontier_specs.is_empty());

        // Warm-starting with the previous frontier cannot lose: the warm
        // run must find a winner at least as small.
        let mut warm = cfg.clone();
        warm.warm_start = frontier_specs;
        let second = tune(&g, &registry, &warm).expect("warm run");
        let (a, b) = (first.winner.expect("feasible"), second.winner.expect("feasible"));
        assert!(b.edges <= a.edges, "warm start regressed: {} > {}", b.edges, a.edges);

        // Bad warm-start specs fail loudly.
        let mut bad = cfg.clone();
        bad.warm_start = vec![PipelineSpec::parse("nope").expect("syntactically fine")];
        assert!(tune(&g, &registry, &bad).unwrap_err().contains("warm-start"));
    }

    #[test]
    fn config_errors_are_loud() {
        let g = generators::cycle(10);
        let registry = registry();
        let mut cfg = small_cfg(10, 1.0);
        cfg.schemes = Some(vec!["nope".into()]);
        assert!(tune(&g, &registry, &cfg).unwrap_err().contains("unknown scheme"));
        let mut cfg = small_cfg(10, 1.0);
        cfg.max_candidates = 1;
        assert!(tune(&g, &registry, &cfg).unwrap_err().contains("cap"));
        let mut cfg = small_cfg(10, 1.0);
        cfg.keep = 0;
        assert!(tune(&g, &registry, &cfg).is_err());
    }
}
