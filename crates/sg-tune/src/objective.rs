//! The tuner's objective: a [`Target`] bound on one
//! [`sg_metrics::Metric`], scored by an [`sg_metrics::AccuracyBaseline`].
//!
//! The paper's central discipline is that lossy schemes are judged by
//! *measured* accuracy at a given edge budget, not by construction. The
//! baseline computes what the target metric needs from the uncompressed
//! graph exactly once and reuses it across every candidate evaluation —
//! the expensive part of a tuning run is the candidates, not the baseline.
//! Vertex-removing candidates are scored the way `analyze` reports them:
//! per-vertex scores are projected back onto the original ids, and a
//! candidate that cannot be aligned scores [`f64::INFINITY`] and is never
//! feasible.

use sg_metrics::Metric;

/// A quality target: `metric <= max`, parsed from the CLI syntax
/// `pagerank-kl<=0.05`.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    /// The metric being bounded.
    pub metric: Metric,
    /// Inclusive upper bound a candidate must meet to be feasible.
    pub max: f64,
}

impl Target {
    /// Parses `metric<=bound`.
    pub fn parse(spec: &str) -> Result<Target, String> {
        let (name, bound) =
            spec.split_once("<=").ok_or_else(|| format!("expected metric<=bound, got '{spec}'"))?;
        let metric = Metric::parse(name.trim())?;
        let max: f64 = bound
            .trim()
            .parse()
            .map_err(|_| format!("target bound: cannot parse '{}'", bound.trim()))?;
        if !max.is_finite() || max < 0.0 {
            return Err(format!("target bound must be a finite non-negative number, got {max}"));
        }
        Ok(Target { metric, max })
    }

    /// Renders back to the CLI syntax.
    pub fn render(&self) -> String {
        format!("{}<={}", self.metric.name(), self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::scheme::Uniform;
    use sg_core::{CompressionResult, CompressionScheme, PipelineSpec, SchemeRegistry};
    use sg_graph::{generators, CsrGraph};
    use sg_metrics::AccuracyBaseline;

    /// `metric` of `r` as the tuner scores it, from a fresh baseline of `g`.
    fn score(g: &CsrGraph, metric: Metric, r: &CompressionResult) -> f64 {
        AccuracyBaseline::default().score(metric, g, g, &r.graph, r.vertex_mapping.as_deref())
    }

    #[test]
    fn metric_names_roundtrip() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()).expect("round-trips"), m);
        }
        assert!(Metric::parse("nope").is_err());
    }

    #[test]
    fn target_parse_and_render() {
        let t = Target::parse("pagerank-kl<=0.05").expect("parses");
        assert_eq!(t.metric, Metric::PagerankKl);
        assert!((t.max - 0.05).abs() < 1e-12);
        assert_eq!(t.render(), "pagerank-kl<=0.05");
        assert!(Target::parse("pagerank-kl").is_err());
        assert!(Target::parse("pagerank-kl<=-1").is_err());
        assert!(Target::parse("pagerank-kl<=abc").is_err());
    }

    #[test]
    fn identity_compression_scores_near_zero() {
        let g = generators::erdos_renyi(300, 1200, 1);
        let r = Uniform { p: 0.0 }.apply(&g, 2); // keeps everything
        for m in Metric::ALL {
            let s = score(&g, m, &r);
            assert!(s < 1e-9, "{m}: identity scored {s}");
        }
    }

    #[test]
    fn scores_grow_with_distortion() {
        let g = generators::planted_triangles(&generators::barabasi_albert(800, 4, 3), 800, 4);
        // Reordered pairs is deliberately excluded: at heavy compression
        // per-vertex triangle counts collapse to 0 and ties suppress strict
        // flips (see tests/metrics_integration.rs), so it is only monotone
        // at *equal* edge budgets.
        for m in [Metric::PagerankKl, Metric::DegreeL1, Metric::TrianglesRel, Metric::ComponentsRel]
        {
            let mild = score(&g, m, &Uniform { p: 0.1 }.apply(&g, 5));
            let harsh = score(&g, m, &Uniform { p: 0.8 }.apply(&g, 5));
            assert!(
                mild <= harsh,
                "{m}: mild {mild} should not exceed harsh {harsh} on the same seed"
            );
        }
        let s = score(&g, Metric::ReorderedTc, &Uniform { p: 0.4 }.apply(&g, 5));
        assert!(s > 0.0 && s.is_finite(), "real compression reorders some pairs: {s}");
    }

    #[test]
    fn vertex_removing_stages_score_finitely_via_projection() {
        let g = generators::planted_triangles(&generators::barabasi_albert(500, 2, 6), 300, 7);
        let registry = SchemeRegistry::with_defaults();
        let out = PipelineSpec::parse("lowdeg,uniform:p=0.3")
            .expect("parses")
            .build(&registry)
            .expect("builds")
            .apply(&g, 8);
        for m in [Metric::PagerankKl, Metric::ReorderedTc, Metric::DegreeL1] {
            let s = score(&g, m, &out.result);
            assert!(s.is_finite(), "{m}: projection should make this comparable, got {s}");
        }
    }

    #[test]
    fn empty_graphs_score_cleanly_for_every_metric() {
        // Regression: pagerank-kl used to panic on n = 0 via kl_divergence's
        // non-empty assertion. An empty graph is trivially undistorted.
        let g = sg_graph::CsrGraph::from_pairs(0, &[]);
        let r = Uniform { p: 0.5 }.apply(&g, 1);
        for m in Metric::ALL {
            let s = score(&g, m, &r);
            assert_eq!(s, 0.0, "{m}: empty graph must score 0, got {s}");
        }
    }

    #[test]
    fn misaligned_results_score_infinite() {
        let g = generators::erdos_renyi(100, 300, 9);
        let other = generators::erdos_renyi(50, 120, 10);
        // A result claiming identity mapping but with a different vertex
        // count cannot be aligned.
        let bogus = Uniform { p: 0.0 }.apply(&other, 0);
        assert_eq!(score(&g, Metric::PagerankKl, &bogus), f64::INFINITY);
    }
}
