//! Session/stage-cache suite. That a cold session run and a cache hit equal
//! `Pipeline::apply` on the corpus is the contract harness's `Session` axis
//! (`tests/contract/`); this suite keeps what only the cache has:
//!
//! 1. Prefix sharing actually *skips stages*, asserted via the session's
//!    stage reports: a second `compress` with a shared chain prefix
//!    executes strictly fewer stages than the chain has — and every answer
//!    is still its cold run, mapping included, at 1 and 4 threads and
//!    across them.
//! 2. Random chains of registry schemes, resumed from a small, pre-warmed
//!    cache, equal `Pipeline::apply` of the same build — result and every
//!    stage's report. The ignored twin runs 2 000 cases:
//!    `cargo test --release --test session_cache -- --ignored`.

mod contract;

use contract::cold;
use proptest::prelude::*;
use slimgraph::core::cache::StageCache;
use slimgraph::core::{
    GraphCatalog, PipelineSpec, SchemeParams, SchemeRegistry, SessionRun, SgSession, StageReport,
    StageSpec,
};
use slimgraph::graph::generators;
use slimgraph::graph::prng::{bounded_u64, unit_f64};
use slimgraph::CsrGraph;
use std::sync::Arc;

fn session_over(g: &CsrGraph) -> SgSession {
    let catalog = Arc::new(GraphCatalog::new());
    catalog.insert("g", g.clone(), "test graph").expect("insert");
    SgSession::new(catalog, Arc::new(SchemeRegistry::with_defaults()))
}

fn run(session: &SgSession, spec: &str, seed: u64) -> SessionRun {
    session.run_named("g", &PipelineSpec::parse(spec).expect("parses"), seed).expect("runs")
}

/// A session run and a cold pipeline run agree on the graph (digest over
/// edges and weight bits) and the composed vertex mapping.
fn assert_bit_identical(run: &SessionRun, reference: &slimgraph::CompressionResult, what: &str) {
    assert_eq!(
        contract::outcome(&run.graph, run.vertex_mapping.as_deref().map(Vec::as_slice)),
        contract::outcome(&reference.graph, reference.vertex_mapping.as_deref()),
        "{what}"
    );
}

/// The acceptance scenario at one thread count.
fn shared_prefix_scenario() {
    let g = generators::planted_triangles(&generators::barabasi_albert(800, 4, 21), 600, 22);
    let session = session_over(&g);

    // Cold first request: three stages executed, none cached.
    let first_spec = "spanner:k=4,lowdeg,uniform:p=0.5";
    let first = run(&session, first_spec, 7);
    assert_eq!(first.stages_executed(), 3);
    assert_eq!(first.stages_cached(), 0);
    assert_bit_identical(&first, &cold(first_spec, &g, 7), "cold session run");

    // Second request sharing the 2-stage prefix: strictly fewer stages
    // executed, output bit-identical to its own cold run.
    let second_spec = "spanner:k=4,lowdeg,cut:k=2";
    let second = run(&session, second_spec, 7);
    assert_eq!(second.stages_cached(), 2, "shared prefix must be served from cache");
    assert_eq!(second.stages_executed(), 1, "only the divergent suffix executes");
    assert!(
        second.stages_executed() < PipelineSpec::parse(second_spec).expect("parses").len(),
        "strictly fewer stages than the chain length"
    );
    assert_bit_identical(&second, &cold(second_spec, &g, 7), "prefix-sharing run");

    // Exact repeat: zero stages executed, still byte-exact.
    let repeat = run(&session, first_spec, 7);
    assert_eq!(repeat.stages_executed(), 0);
    assert_eq!(repeat.stages_cached(), 3);
    assert_bit_identical(&repeat, &cold(first_spec, &g, 7), "fully cached run");

    // A weighted (reweighting) chain exercises the bit-compared weights.
    let weighted_spec = "spectral:p=0.4:reweight=true";
    let warm_up = run(&session, weighted_spec, 9);
    assert!(warm_up.graph.is_weighted());
    let weighted = run(&session, weighted_spec, 9);
    assert_eq!(weighted.stages_executed(), 0);
    assert_bit_identical(&weighted, &cold(weighted_spec, &g, 9), "cached weighted run");
}

#[test]
fn shared_prefixes_skip_stages_bit_identically_at_1_thread() {
    rayon::with_num_threads(1, shared_prefix_scenario);
}

#[test]
fn shared_prefixes_skip_stages_bit_identically_at_4_threads() {
    rayon::with_num_threads(4, shared_prefix_scenario);
}

#[test]
fn cache_state_never_leaks_across_thread_counts() {
    // A prefix computed at 4 threads must serve a request made at 1 thread
    // (and vice versa) with the same bytes — the cache key has no thread
    // dimension because results are thread-invariant.
    let g = generators::rmat_graph500(10, 8, 31);
    let session = session_over(&g);
    let spec = "spanner:k=8,uniform:p=0.4";

    let computed_at_4 = rayon::with_num_threads(4, || run(&session, spec, 3));
    assert_eq!(computed_at_4.stages_executed(), 2);

    let served_at_1 = rayon::with_num_threads(1, || run(&session, spec, 3));
    assert_eq!(served_at_1.stages_executed(), 0, "fully cached");
    assert_bit_identical(&served_at_1, &cold(spec, &g, 3), "cross-thread-count cache hit");
}

#[test]
fn vertex_mappings_compose_identically_through_the_cache() {
    // lowdeg twice removes everything on a star: the composed mapping must
    // come out of the cache exactly as a cold run composes it.
    let g = generators::star(6);
    let session = session_over(&g);
    let spec = "lowdeg,lowdeg";
    let warm_up = run(&session, spec, 1);
    assert_eq!(warm_up.graph.num_vertices(), 0);
    let cached = run(&session, spec, 1);
    assert_eq!(cached.stages_executed(), 0);
    let mapping = cached.vertex_mapping.as_deref().cloned().expect("composed mapping");
    assert_eq!(mapping.len(), 6);
    assert!(mapping.iter().all(Option::is_none), "everything removed");
    assert_bit_identical(&cached, &cold(spec, &g, 1), "vertex-removing cached run");

    // And the 1-stage prefix is reusable under the 2-stage entry.
    let prefix = run(&session, "lowdeg", 1);
    assert_eq!(prefix.stages_cached(), 1);
    assert_bit_identical(&prefix, &cold("lowdeg", &g, 1), "prefix-of-cached run");
}

#[test]
fn capacity_bounded_cache_stays_correct_under_eviction() {
    // A tiny cache forces evictions mid-sequence; every answer must still
    // equal its cold run (eviction is a perf event, not a semantic one).
    let g = generators::erdos_renyi(600, 2400, 41);
    let catalog = Arc::new(GraphCatalog::new());
    catalog.insert("g", g.clone(), "test graph").expect("insert");
    let session = SgSession::with_cache(
        catalog,
        Arc::new(SchemeRegistry::with_defaults()),
        Arc::new(StageCache::with_capacity(64 << 10)), // 64 KiB: a few entries
    );
    let specs = [
        "spanner:k=4,lowdeg,uniform:p=0.5",
        "spanner:k=4,lowdeg,uniform:p=0.3",
        "uniform:p=0.7,lowdeg",
        "spanner:k=4,lowdeg,cut:k=2",
        "spanner:k=4,lowdeg,uniform:p=0.5",
    ];
    for spec in specs {
        let out =
            session.run_named("g", &PipelineSpec::parse(spec).expect("parses"), 5).expect("runs");
        assert_bit_identical(&out, &cold(spec, &g, 5), spec);
    }
    assert!(session.cache().stats().evictions > 0, "the tiny cache must have evicted");
}

/// A small skewed input drawn from `seed`, weighted half the time.
fn case_graph(seed: u64) -> CsrGraph {
    let g = generators::barabasi_albert(40 + bounded_u64(seed, 0, 0, 120) as usize, 3, seed);
    if unit_f64(seed, 1) < 0.5 {
        generators::with_random_weights(&g, 1.0, 100.0, seed)
    } else {
        g
    }
}

/// A chain of `len` registry schemes drawn from `seed`; each stage sets
/// each of `p` and `k` it reads with probability ½.
fn chain(registry: &SchemeRegistry, seed: u64, len: usize) -> Vec<StageSpec> {
    let names: Vec<&str> = registry.names().collect();
    (0..len as u64)
        .map(|i| {
            let name = names[bounded_u64(seed, i, 0, names.len() as u64) as usize];
            let mut stage = StageSpec::new(name);
            let keys = registry.param_keys(name).expect("registered");
            if keys.contains(&"p") && unit_f64(seed ^ 1, i) < 0.5 {
                stage.params.set("p", &format!("{:.2}", 0.2 + 0.6 * unit_f64(seed ^ 2, i)));
            }
            if keys.contains(&"k") && unit_f64(seed ^ 3, i) < 0.5 {
                stage.params.set("k", &(2 + bounded_u64(seed, i, 4, 7)).to_string());
            }
            stage
        })
        .collect()
}

/// A base bag under every stage: most stages ignore most of its keys.
fn base_bag(seed: u64) -> SchemeParams {
    SchemeParams::from_pairs(&[
        ("p", &format!("{:.2}", 0.3 + 0.5 * unit_f64(seed, 10))),
        ("k", &(2 + bounded_u64(seed, 11, 0, 7)).to_string()),
        ("epsilon", &format!("{:.2}", 0.05 + 0.25 * unit_f64(seed, 12))),
        ("x", &(1 + bounded_u64(seed, 13, 0, 2)).to_string()),
        ("reweight", if unit_f64(seed, 14) < 0.5 { "true" } else { "false" }),
    ])
}

/// Every stage report field but the wall time.
fn shapes<'a>(reports: impl Iterator<Item = &'a StageReport>) -> Vec<(String, String, [usize; 4])> {
    let counts =
        |r: &StageReport| [r.input_vertices, r.input_edges, r.output_vertices, r.output_edges];
    reports.map(|r| (r.name.clone(), r.label.clone(), counts(r))).collect()
}

/// One case drawn from `case_seed`: warm a small cache with a chain that
/// shares a prefix of the tested 1–4-stage chain, then run the tested chain
/// twice through the session. Each run must equal the cold build in result
/// and stage reports.
fn check_chain_case(case_seed: u64) {
    let draw = |stream: u64, bound: u64| bounded_u64(case_seed, 20, stream, bound) as usize;
    let registry = Arc::new(SchemeRegistry::with_defaults());
    let (g, base, seed) = (case_graph(case_seed), base_bag(case_seed), case_seed >> 8);
    let tested = PipelineSpec::from_stages(chain(&registry, case_seed, 1 + draw(0, 4)));
    let mut warm = tested.stages[..draw(1, 5).min(tested.len())].to_vec();
    warm.extend(chain(&registry, !case_seed, draw(2, 3)));

    let catalog = Arc::new(GraphCatalog::new());
    let handle = catalog.insert("g", g.clone(), "case graph").expect("insert");
    let cache = Arc::new(StageCache::with_capacity((8 + draw(3, 248)) << 10));
    let session = SgSession::with_cache(catalog, Arc::clone(&registry), cache);
    let warm = PipelineSpec::from_stages(warm);
    session.run_with_base(&handle, &warm, &base, seed).expect("warm-up chain runs");

    let cold = tested.build_with_base(&registry, &base).expect("builds").apply(&g, seed);
    for pass in ["after warm-up", "repeated"] {
        let what = format!("{tested} over base {base:?} at seed {seed}, {pass}");
        let run = session.run_with_base(&handle, &tested, &base, seed).expect("session runs");
        assert_bit_identical(&run, &cold.result, &what);
        let got = shapes(run.stages.iter().map(|s| &s.report));
        assert_eq!(got, shapes(cold.stages.iter()), "{what}: stage reports");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A session run resumed from a warmed, evicting cache is the cold run.
    #[test]
    fn random_chains_match_the_cold_pipeline(case_seed in 0u64..u64::MAX) {
        check_chain_case(case_seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The stress twin: more chains, caches and seeds.
    #[test]
    #[ignore = "stress; run in release: cargo test --release --test session_cache -- --ignored"]
    fn random_chains_match_the_cold_pipeline_under_stress(case_seed in 0u64..u64::MAX) {
        check_chain_case(case_seed);
    }
}
