//! The spanner against the paper: the low-diameter decomposition's race in
//! rounds against Miller, Peng and Xu's heap race, and the flat spanner
//! kernel under the subgraph executor against `derive_spanner` written
//! plainly — both oracles in `tests/oracle/`. The property's 2 000-case
//! ignored twin runs with
//! `cargo test --release --test ldd_oracle -- --ignored`.

mod oracle;

use proptest::prelude::*;
use sg_core::engine::run_subgraph_kernel;
use sg_core::ldd::{ldd_for_spanner, low_diameter_decomposition};
use sg_core::mapping::VertexMapping;
use sg_core::scheme::Spanner;
use sg_core::schemes::SpannerKernel;
use sg_core::CompressionScheme;
use sg_graph::{generators, CsrGraph};

/// The number of weak components of `g`.
fn components(g: &CsrGraph) -> usize {
    oracle::components(g).iter().enumerate().filter(|&(v, &label)| label as usize == v).count()
}

/// The inputs both sweeps run on: skewed, dense, 1 000+ components,
/// lattice, small world, the two extreme trees, and the degenerate sizes.
fn sweep_graphs() -> Vec<(&'static str, CsrGraph)> {
    let isolated = |n| CsrGraph::from_pairs(n, &[]);
    let sparse = generators::erdos_renyi(3_000, 1_500, 3);
    assert!(components(&sparse) > 1_000);
    vec![
        ("rmat", generators::rmat_graph500(11, 8, 1)),
        ("dense er", generators::erdos_renyi(600, 6_000, 2)),
        ("sparse er", sparse),
        ("grid", generators::grid(40, 40)),
        ("watts-strogatz", generators::watts_strogatz(500, 4, 0.1, 4)),
        ("path", generators::path(300)),
        ("star", generators::star(200)),
        ("isolated", isolated(50)),
        ("one vertex", isolated(1)),
        ("no vertex", isolated(0)),
    ]
}

/// The decomposition the heap race gives.
fn oracle_ldd(g: &CsrGraph, beta: f64, seed: u64) -> Vec<u32> {
    VertexMapping::from_labels(&oracle::ldd(g, beta, seed)).assignment
}

/// The rounds against the heap race, vertex for vertex, from "every vertex
/// its own cluster" (β = 50) to "one cluster per component after ≈ 10⁷
/// mostly idle rounds" (β = 1e-6).
#[test]
fn rounds_match_the_heap_race() {
    for (label, g) in &sweep_graphs() {
        let (n, components) = (g.num_vertices(), components(g));
        for beta in [1e-6, 1e-3, 0.05, 0.13, 0.4, 0.7, 1.7, 4.0, 50.0] {
            for seed in 0..6 {
                let mapping = low_diameter_decomposition(g, beta, seed);
                let want = oracle_ldd(g, beta, seed);
                assert_eq!(mapping.assignment, want, "{label}, beta {beta}, seed {seed}");
                if beta == 50.0 {
                    assert_eq!(mapping.num_clusters(), n, "{label}: not all singletons");
                }
                if beta == 1e-6 {
                    assert_eq!(mapping.num_clusters(), components, "{label}: split a component");
                }
            }
        }
    }
}

/// The flat kernel against `derive_spanner`: same surviving edges on the
/// mappings of the LDD sweep — singletons only, a few giant clusters, one
/// cluster per component — and on graphs with no edge at all.
#[test]
fn flat_kernel_deletes_what_the_hash_map_kernel_deleted() {
    for (label, g) in &sweep_graphs() {
        for beta in [1e-6, 0.05, 0.13, 0.4, 0.7, 1.7, 50.0] {
            for seed in 0..3 {
                let mapping = low_diameter_decomposition(g, beta, seed);
                let flat = run_subgraph_kernel(g, &mapping, &SpannerKernel, seed);
                let want = oracle::derive_spanner(g, &mapping.assignment);
                assert_eq!(
                    flat.graph.edge_slice(),
                    want.edge_slice(),
                    "{label}, beta {beta}, seed {seed}"
                );
            }
        }
    }
}

/// `k` is user input: at `1e300` and `f64::MAX` β floors at `1e-6`, and
/// the spanner is the oracles' edge for edge.
#[test]
fn hostile_k_matches_the_references() {
    let g = generators::erdos_renyi(2_000, 6_000, 8);
    for k in [1e300, f64::MAX] {
        assert_eq!(oracle::spanner_beta(2_000, k), 1e-6, "k = {k}");
        assert_eq!(ldd_for_spanner(&g, k, 9).assignment, oracle_ldd(&g, 1e-6, 9), "k = {k}");
        let r = Spanner { k }.apply(&g, 9);
        assert_eq!(r.graph.edge_slice(), oracle::spanner(&g, k, 9).edge_slice(), "k = {k}");
    }
}

/// The decomposition of `g` at `beta` is a partition into connected
/// clusters and the heap race's, and the spanner kernel on it deletes what
/// `derive_spanner` deletes.
fn check_ldd_and_spanner(g: &CsrGraph, beta: f64, seed: u64) {
    let mapping = low_diameter_decomposition(g, beta, seed);
    assert!(mapping.validate());
    let mut parent_edge = vec![sg_graph::types::NO_EDGE; g.num_vertices()];
    let mut queue = Vec::new();
    for (cid, members) in mapping.clusters.iter().enumerate() {
        let tree_edges = sg_algos::spanning::cluster_spanning_tree_by(
            g,
            members,
            |v| mapping.assignment[v as usize] == cid as u32,
            &mut parent_edge,
            &mut queue,
        );
        assert_eq!(tree_edges, members.len() - 1, "cluster disconnected");
    }
    assert_eq!(mapping.assignment, oracle_ldd(g, beta, seed), "beta {beta}, seed {seed}");
    let flat = run_subgraph_kernel(g, &mapping, &SpannerKernel, seed);
    let want = oracle::derive_spanner(g, &mapping.assignment);
    assert_eq!(flat.graph.edge_slice(), want.edge_slice(), "beta {beta}, seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LDD always yields a valid partition into connected clusters, for any
    /// beta and seed — the partition the binary-heap race yields — and the
    /// spanner kernel on it is `derive_spanner`'s.
    #[test]
    fn ldd_partitions_connectedly(
        n in 20usize..120,
        m_factor in 1usize..5,
        beta in 1e-6f64..50.0,
        seed in 0u64..100,
    ) {
        let g = generators::erdos_renyi(n, m_factor * n, seed);
        check_ldd_and_spanner(&g, beta, seed ^ 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The stress twin: larger graphs, β log-uniform down to `1e-6`.
    #[test]
    #[ignore = "stress; run in release: cargo test --release --test ldd_oracle -- --ignored"]
    fn ldd_partitions_connectedly_under_stress(
        n in 20usize..1500,
        m_factor in 1usize..8,
        exponent in -6.0f64..1.7,
        seed in 0u64..100_000,
    ) {
        let g = generators::erdos_renyi(n, m_factor * n, seed);
        check_ldd_and_spanner(&g, 10f64.powf(exponent), seed ^ 1);
    }
}
