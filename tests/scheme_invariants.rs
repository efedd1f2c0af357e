//! Property-based integration tests: the paper's invariants under random
//! workloads (proptest drives the generators and parameters).

use proptest::prelude::*;
use sg_algos::{cc, mst, sssp, tc};
use sg_core::scheme::{Spanner, TriangleReduction, Uniform};
use sg_core::schemes::{summarize, SummarizationConfig, TrConfig};
use sg_core::CompressionScheme;
use sg_graph::generators;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EO Triangle Reduction never changes the number of connected
    /// components, for any graph, p, and seed (§6.1).
    #[test]
    fn eo_tr_preserves_components(
        n in 50usize..300,
        extra in 0usize..400,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let base = generators::erdos_renyi(n, 2 * n, seed);
        let g = generators::planted_triangles(&base, extra, seed ^ 1);
        let before = cc::connected_components(&g).num_components;
        let r = TriangleReduction { cfg: TrConfig::edge_once_1(p) }.apply(&g, seed ^ 2);
        let after = cc::connected_components(&r.graph).num_components;
        prop_assert_eq!(before, after);
    }

    /// Max-weight EO-TR preserves the exact MST weight (§4.3).
    #[test]
    fn maxweight_tr_preserves_mst(
        n in 30usize..200,
        seed in 0u64..1000,
        p in 0.1f64..=1.0,
    ) {
        let base = generators::planted_triangles(
            &generators::erdos_renyi(n, 3 * n, seed), n, seed ^ 3);
        let g = generators::with_random_weights(&base, 1.0, 50.0, seed ^ 4);
        let w0 = mst::minimum_spanning_forest(&g).total_weight;
        let r = TriangleReduction { cfg: TrConfig::max_weight(p) }.apply(&g, seed ^ 5);
        let w1 = mst::minimum_spanning_forest(&r.graph).total_weight;
        prop_assert!((w0 - w1).abs() < 1e-2, "MST {} -> {}", w0, w1);
    }

    /// EO-TR stretches shortest paths by at most 2x (§6.1).
    #[test]
    fn eo_tr_stretch_bound(n in 50usize..200, seed in 0u64..500) {
        let g = generators::watts_strogatz(n, 4, 0.1, seed);
        let r = TriangleReduction { cfg: TrConfig::edge_once_1(1.0) }.apply(&g, seed ^ 6);
        let before = sssp::dijkstra(&g, 0);
        let after = sssp::dijkstra(&r.graph, 0);
        for (b, a) in before.iter().zip(&after) {
            if b.is_finite() {
                prop_assert!(a.is_finite());
                prop_assert!(*a <= 2.0 * *b + 1e-9);
            }
        }
    }

    /// Spanners never disconnect the graph (§6.3).
    #[test]
    fn spanner_preserves_components(
        scale in 7u32..10,
        ef in 4usize..10,
        k in 2.0f64..64.0,
        seed in 0u64..500,
    ) {
        let g = generators::rmat_graph500(scale, ef, seed);
        let before = cc::connected_components(&g).num_components;
        let r = Spanner { k }.apply(&g, seed ^ 7);
        let after = cc::connected_components(&r.graph).num_components;
        prop_assert_eq!(before, after);
    }

    /// Uniform sampling keeps (1-p)m edges in expectation; per-run count
    /// concentrated within 10% of m.
    #[test]
    fn uniform_edge_count_concentrates(p in 0.05f64..0.95, seed in 0u64..500) {
        let g = generators::erdos_renyi(800, 8000, seed);
        let r = Uniform { p }.apply(&g, seed ^ 8);
        let expected = (1.0 - p) * g.num_edges() as f64;
        let got = r.graph.num_edges() as f64;
        prop_assert!((got - expected).abs() < 0.1 * g.num_edges() as f64,
            "got {} expected {}", got, expected);
    }

    /// Summarization's reconstruction error respects the 2 eps m bound, and
    /// eps = 0 is lossless (§4.5.4, Table 3).
    #[test]
    fn summarization_error_bounded(
        n in 50usize..250,
        eps in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let g = generators::barabasi_albert(n, 3, seed);
        let s = summarize(&g, SummarizationConfig { epsilon: eps, max_iterations: 6, seed });
        let err = s.reconstruction_error(&g) as f64;
        prop_assert!(err <= 2.0 * eps * g.num_edges() as f64 + 1e-9);
        if eps == 0.0 {
            prop_assert_eq!(err as usize, 0);
        }
    }

    /// Triangle count under uniform sampling is non-increasing and zero
    /// triangles survive full removal.
    #[test]
    fn sampling_triangle_monotonicity(seed in 0u64..200) {
        let g = generators::planted_triangles(
            &generators::erdos_renyi(300, 900, seed), 500, seed ^ 9);
        let t0 = tc::count_triangles(&g);
        let half = Uniform { p: 0.5 }.apply(&g, seed ^ 10);
        prop_assert!(tc::count_triangles(&half.graph) <= t0);
        let all = Uniform { p: 1.0 }.apply(&g, seed ^ 11);
        prop_assert_eq!(tc::count_triangles(&all.graph), 0);
    }
}
