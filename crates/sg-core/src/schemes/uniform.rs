//! Random uniform edge sampling (§4.2.2).
//!
//! Every edge is removed independently with probability `p` (the paper's
//! evaluation convention: "Uniform (p = 0.2)" removes 20% of edges, leaving
//! `(1-p)m` in expectation and `(1-p)^3 T` triangles — the Doulion estimator
//! \[156\] this scheme rapidly approximates).

use crate::context::SgContext;
use crate::kernel::{EdgeDecision, EdgeKernel, EdgeView};

/// The `random_uniform` kernel of Listing 1.
#[derive(Clone, Copy, Debug)]
pub struct UniformKernel {
    /// Removal probability (edge *stays* with probability `1 - p`).
    pub p: f64,
}

impl UniformKernel {
    /// Creates the kernel; `p` must lie in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        Self { p }
    }
}

impl EdgeKernel for UniformKernel {
    fn process(&self, e: EdgeView, sg: &SgContext<'_>) -> EdgeDecision {
        let edge_stays = 1.0 - self.p;
        if edge_stays < sg.rand_unit(e.id as u64, 0) {
            EdgeDecision::Delete // atomic SG.del(e)
        } else {
            EdgeDecision::Keep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{CompressionScheme, Uniform};
    use sg_graph::generators;

    #[test]
    fn removes_expected_fraction() {
        let g = generators::erdos_renyi(2000, 20_000, 1);
        let r = Uniform { p: 0.3 }.apply(&g, 2);
        let ratio = r.compression_ratio();
        assert!((ratio - 0.7).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn p_zero_keeps_everything() {
        let g = generators::erdos_renyi(200, 1000, 3);
        let r = Uniform { p: 0.0 }.apply(&g, 4);
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn p_one_removes_everything() {
        let g = generators::erdos_renyi(200, 1000, 5);
        let r = Uniform { p: 1.0 }.apply(&g, 6);
        assert_eq!(r.graph.num_edges(), 0);
        assert_eq!(r.graph.num_vertices(), 200); // vertex set untouched
    }

    #[test]
    fn triangle_count_scales_cubically() {
        // Table 2: uniform sampling preserves T best: E[T'] = (1-p)^3 T.
        let g = generators::planted_triangles(&generators::erdos_renyi(3000, 6000, 7), 4000, 8);
        let t0 = sg_algos::tc::count_triangles(&g) as f64;
        let p = 0.5;
        let mut ratios = Vec::new();
        for seed in 0..5 {
            let r = Uniform { p }.apply(&g, 100 + seed);
            let t1 = sg_algos::tc::count_triangles(&r.graph) as f64;
            ratios.push(t1 / t0);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let expected = (1.0f64 - p).powi(3);
        assert!((mean - expected).abs() < 0.05, "mean {mean}, expected {expected}");
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_bad_p() {
        UniformKernel::new(1.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(500, 2000, 9);
        let a = Uniform { p: 0.4 }.apply(&g, 42);
        let b = Uniform { p: 0.4 }.apply(&g, 42);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
        let c = Uniform { p: 0.4 }.apply(&g, 43);
        assert_ne!(a.graph.edge_slice(), c.graph.edge_slice());
    }
}
