//! Spectral sparsification (§4.2.1, Spielman–Teng-flavoured sampling \[148\]).
//!
//! Edge `{u, v}` *stays* with probability `p_{u,v} = min(1, Υ / min(d_u,
//! d_v))`, chosen so every vertex keeps edges w.h.p. — the property the
//! paper credits for spectral sparsifiers disconnecting graphs far less than
//! uniform sampling at equal budgets. Υ comes in the two variants Figure 6
//! compares: `Υ = p·log n` \[148\] and `Υ = p·(2m/n)` (average degree, \[82\]).
//! Survivors are reweighted by `1/p_{u,v}` to keep the Laplacian unbiased.

use crate::context::SgContext;
use crate::engine::{CompressionResult, Engine};
use crate::kernel::{EdgeDecision, EdgeKernel, EdgeView};
use sg_graph::{CsrGraph, Weight};

/// How the connectivity parameter Υ is derived (Figure 6's
/// `spectral-logn` vs `spectral-avgdeg`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpsilonVariant {
    /// `Υ = p · ln(n)` — the Spielman–Teng-style default.
    LogN,
    /// `Υ = p · (2m / n)` — proportional to the average degree.
    AvgDegree,
}

/// The `spectral_sparsify` kernel of Listing 1.
#[derive(Clone, Copy, Debug)]
pub struct SpectralKernel {
    /// Precomputed Υ (`SG.connectivity_spectral_parameter()`).
    pub upsilon: f64,
    /// Whether survivors are reweighted by `1/p_e` (weighted output graph).
    pub reweight: bool,
}

impl SpectralKernel {
    /// Builds the kernel for a graph, user parameter `p`, and Υ variant.
    pub fn for_graph(g: &CsrGraph, p: f64, variant: UpsilonVariant, reweight: bool) -> Self {
        assert!(p >= 0.0, "p must be non-negative");
        let n = g.num_vertices().max(2) as f64;
        let upsilon = match variant {
            UpsilonVariant::LogN => p * n.ln(),
            UpsilonVariant::AvgDegree => p * g.average_degree(),
        };
        Self { upsilon, reweight }
    }
}

impl EdgeKernel for SpectralKernel {
    fn process(&self, e: EdgeView, sg: &SgContext<'_>) -> EdgeDecision {
        let min_deg = e.deg_u.min(e.deg_v).max(1) as f64;
        let edge_stays = (self.upsilon / min_deg).min(1.0);
        if edge_stays < sg.rand_unit(e.id as u64, 0) {
            EdgeDecision::Delete
        } else if self.reweight {
            EdgeDecision::Reweight(e.weight * (1.0 / edge_stays) as Weight)
        } else {
            EdgeDecision::Keep
        }
    }

    fn reweights(&self) -> bool {
        self.reweight
    }
}

/// Convenience wrapper: spectral sparsification with parameter `p`.
pub fn spectral_sparsify(
    g: &CsrGraph,
    p: f64,
    variant: UpsilonVariant,
    reweight: bool,
    seed: u64,
) -> CompressionResult {
    let kernel = SpectralKernel::for_graph(g, p, variant, reweight);
    Engine::new(seed).run_edge_kernel(g, &kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::cc::connected_components;
    use sg_graph::generators;

    #[test]
    fn huge_upsilon_keeps_everything() {
        let g = generators::erdos_renyi(200, 1000, 1);
        // Υ >= max degree -> every p_e = 1.
        let k = SpectralKernel { upsilon: 1e9, reweight: false };
        let r = Engine::new(2).run_edge_kernel(&g, &k);
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn high_degree_edges_removed_first() {
        // A hub-heavy graph: edges between two hubs should vanish more often
        // than edges to leaves (p_e = Υ/min(deg)).
        let g = generators::barabasi_albert(3000, 5, 3);
        let r = spectral_sparsify(&g, 0.5, UpsilonVariant::LogN, false, 4);
        // Average degree of surviving structure is flatter: max degree drops
        // by more than average degree does.
        let max_ratio = r.graph.max_degree() as f64 / g.max_degree() as f64;
        let avg_ratio = r.graph.average_degree() / g.average_degree();
        assert!(max_ratio < avg_ratio, "max {max_ratio} vs avg {avg_ratio}");
    }

    #[test]
    fn reweighting_is_inverse_probability() {
        let g = generators::complete(40); // uniform degrees: single p_e
        let n = 40f64;
        let p = 0.2;
        let r = spectral_sparsify(&g, p, UpsilonVariant::LogN, true, 5);
        assert!(r.graph.is_weighted());
        let expected_pe = (p * n.ln() / 39.0).min(1.0);
        for (e, _, _) in r.graph.edge_iter() {
            let w = r.graph.edge_weight(e) as f64;
            assert!((w - 1.0 / expected_pe).abs() < 1e-3, "weight {w}");
        }
        // Total weight should approximate the original edge count (unbiased
        // Laplacian estimate).
        let total = r.graph.total_weight();
        assert!((total - 780.0).abs() / 780.0 < 0.2, "total {total}");
    }

    #[test]
    fn disconnects_less_than_uniform_at_equal_budget() {
        // §7.2: "for a fixed p, [spectral sparsification] generates
        // significantly fewer components than [uniform sampling]".
        let g = generators::barabasi_albert(4000, 4, 6);
        let r_spec = spectral_sparsify(&g, 0.45, UpsilonVariant::LogN, false, 7);
        // Match the uniform removal rate to the spectral one.
        let removed = r_spec.edge_reduction();
        let r_uni = crate::schemes::uniform::uniform_sample(&g, removed, 8);
        let cc_spec = connected_components(&r_spec.graph).num_components;
        let cc_uni = connected_components(&r_uni.graph).num_components;
        assert!(cc_spec < cc_uni, "spectral {cc_spec} components vs uniform {cc_uni}");
    }

    #[test]
    fn avgdeg_variant_differs_from_logn() {
        let g = generators::rmat_graph500(12, 10, 9);
        let a = spectral_sparsify(&g, 0.5, UpsilonVariant::LogN, false, 10);
        let b = spectral_sparsify(&g, 0.5, UpsilonVariant::AvgDegree, false, 10);
        assert_ne!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn deterministic() {
        let g = generators::erdos_renyi(300, 1200, 11);
        let a = spectral_sparsify(&g, 0.3, UpsilonVariant::LogN, true, 12);
        let b = spectral_sparsify(&g, 0.3, UpsilonVariant::LogN, true, 12);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
    }
}
