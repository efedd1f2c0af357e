//! Degree-distribution comparison (§7.2–§7.3, Figures 7 and 8).
//!
//! Degree distributions determine many structural and performance
//! properties; comparing them before and after compression is the paper's
//! visual accuracy instrument, and — unlike the pairwise metrics — it works
//! across graphs with different vertex counts.

use sg_graph::properties::DegreeDistribution;
use sg_graph::CsrGraph;

/// Summary of how compression deformed a degree distribution.
#[derive(Clone, Debug)]
pub struct DegreeDistComparison {
    /// L1 distance between the `degree -> fraction` series (union support).
    pub l1_distance: f64,
    /// Support sizes (number of distinct degrees) before/after — uniform
    /// sampling "removes the clutter" by shrinking this (Fig. 8).
    pub support_before: usize,
    pub support_after: usize,
    /// Power-law fit R² before/after — spanners "strengthen the power law"
    /// by pushing R² towards 1 (Fig. 7).
    pub r2_before: Option<f64>,
    pub r2_after: Option<f64>,
    /// Fitted exponents before/after.
    pub exponent_before: Option<f64>,
    pub exponent_after: Option<f64>,
}

/// Compares the degree distributions of two graphs.
pub fn compare_degree_distributions(before: &CsrGraph, after: &CsrGraph) -> DegreeDistComparison {
    compare_degree_distribution_baseline(&DegreeDistribution::of(before), after)
}

/// [`compare_degree_distributions`] against a precomputed baseline
/// distribution — callers that score many compressed graphs against one
/// original (e.g. [`crate::AccuracyBaseline`]) build the baseline once.
pub fn compare_degree_distribution_baseline(
    db: &DegreeDistribution,
    after: &CsrGraph,
) -> DegreeDistComparison {
    let da = DegreeDistribution::of(after);
    let fb = db.fractions();
    let fa = da.fractions();

    // L1 over the union of supports.
    let mut l1 = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < fb.len() || j < fa.len() {
        match (fb.get(i), fa.get(j)) {
            (Some(&(dbg, pb)), Some(&(dag, pa))) => {
                if dbg == dag {
                    l1 += (pb - pa).abs();
                    i += 1;
                    j += 1;
                } else if dbg < dag {
                    l1 += pb;
                    i += 1;
                } else {
                    l1 += pa;
                    j += 1;
                }
            }
            (Some(&(_, pb)), None) => {
                l1 += pb;
                i += 1;
            }
            (None, Some(&(_, pa))) => {
                l1 += pa;
                j += 1;
            }
            (None, None) => break,
        }
    }

    let fit_b = db.power_law_fit();
    let fit_a = da.power_law_fit();
    DegreeDistComparison {
        l1_distance: l1,
        support_before: db.support_size(),
        support_after: da.support_size(),
        r2_before: fit_b.map(|f| f.r2),
        r2_after: fit_a.map(|f| f.r2),
        exponent_before: fit_b.map(|f| f.exponent),
        exponent_after: fit_a.map(|f| f.exponent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g = generators::barabasi_albert(500, 3, 1);
        let c = compare_degree_distributions(&g, &g);
        assert!(c.l1_distance < 1e-12);
        assert_eq!(c.support_before, c.support_after);
    }

    #[test]
    fn sampling_shrinks_support() {
        // Fig. 8: uniform sampling removes degree-distribution clutter.
        let g = generators::rmat_graph500(12, 12, 2);
        let h = g.filter_edges(|e| e % 3 != 0); // drop a third of edges
        let c = compare_degree_distributions(&g, &h);
        assert!(c.support_after <= c.support_before);
        assert!(c.l1_distance > 0.0);
    }

    #[test]
    fn l1_bounded_by_two() {
        let a = generators::complete(30);
        let b = generators::path(30);
        let c = compare_degree_distributions(&a, &b);
        assert!(c.l1_distance <= 2.0 + 1e-12);
        assert!(c.l1_distance > 1.0); // disjoint supports
    }
}
