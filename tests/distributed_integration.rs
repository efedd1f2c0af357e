//! Integration tests for the simulated distributed pipeline against the
//! shared-memory engine and the analytics subsystem.

use sg_core::schemes::uniform_sample;
use sg_core::{SchemeParams, SchemeRegistry};
use sg_dist::{distributed_compress, DistResult};
use sg_graph::properties::DegreeDistribution;
use sg_graph::{generators, CsrGraph};

/// `uniform:p=<p>` from the registry over `ranks` simulated ranks.
fn uniform_ranks(g: &CsrGraph, p: &str, ranks: usize, seed: u64) -> DistResult {
    let uniform = SchemeRegistry::with_defaults()
        .create("uniform", &SchemeParams::from_pairs(&[("p", p)]))
        .expect("registered");
    distributed_compress(g, uniform.as_ref(), ranks, seed).expect("uniform has an edge plan")
}

#[test]
fn distributed_uniform_equals_shared_for_any_rank_count() {
    let g = generators::rmat_graph500(11, 8, 21);
    let shared = uniform_sample(&g, 0.35, 1234);
    for ranks in [1, 3, 8, 12] {
        let dist = uniform_ranks(&g, "0.35", ranks, 1234);
        assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice());
        assert_eq!(dist.result.original_edges, g.num_edges());
    }
}

#[test]
fn distributed_spectral_kernel_runs() {
    // Any edge kernel can run distributed; spectral reads only local degree
    // information, matching the paper's RMA access pattern.
    let g = generators::barabasi_albert(2000, 4, 22);
    let spectral = SchemeRegistry::with_defaults()
        .create("spectral", &SchemeParams::from_pairs(&[("p", "0.5")]))
        .expect("registered");
    let dist = distributed_compress(&g, spectral.as_ref(), 6, 23).expect("edge plan");
    assert!(dist.result.graph.num_edges() < g.num_edges());
    assert!(dist.result.graph.num_edges() > 0);
}

#[test]
fn registry_schemes_shard_through_their_plans() {
    // The distributed backend resolves schemes through the same registry as
    // everything else. Edge-kernel schemes shard embarrassingly parallel;
    // triangle and vertex classes run the sharded executors; only global
    // rewrites are rejected — with a typed, stable-coded error.
    let g = generators::rmat_graph500(11, 8, 30);
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.35"), ("k", "2")]);
    for name in ["uniform", "cut", "tr", "lowdeg"] {
        let scheme = registry.create(name, &params).expect("registered");
        let shared = scheme.apply(&g, 77);
        for ranks in [1, 4, 9] {
            let dist = distributed_compress(&g, scheme.as_ref(), ranks, 77)
                .expect("scheme has a sharded plan");
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "{name} at ranks={ranks}"
            );
            assert_eq!(
                dist.result.vertex_mapping, shared.vertex_mapping,
                "{name} at ranks={ranks}"
            );
        }
    }
    for name in ["spanner", "summary", "collapse"] {
        let scheme = registry.create(name, &params).expect("registered");
        let err = distributed_compress(&g, scheme.as_ref(), 4, 77)
            .err()
            .unwrap_or_else(|| panic!("{name} should report no distributed form"));
        assert_eq!(err.code(), "dist-unsupported", "{name}");
    }
}

#[test]
fn fig8_clutter_removal_shape() {
    // Figure 8's qualitative claim: sampling shrinks the number of distinct
    // degree values while keeping the distribution's span.
    let g = generators::rmat_graph500(13, 12, 26);
    let orig_support = DegreeDistribution::of(&g).support_size();
    let p04 = uniform_ranks(&g, "0.4", 6, 27).degree_histogram();
    let p07 = uniform_ranks(&g, "0.7", 6, 27).degree_histogram();
    assert!(p04.len() <= orig_support);
    assert!(p07.len() <= p04.len());
}

#[test]
fn rank_stats_consistent_under_skew() {
    let g = generators::rmat_graph500(12, 8, 28);
    let dist = uniform_ranks(&g, "0.25", 7, 29);
    let owned: usize = dist.ranks.iter().map(|r| r.owned_edges).sum();
    assert_eq!(owned, g.num_edges());
    for r in &dist.ranks {
        assert!(r.kept_edges <= r.owned_edges);
    }
}
