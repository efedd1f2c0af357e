//! The objective layer: quality metrics as scoring functions over
//! compression results, with the uncompressed baseline computed once.
//!
//! The paper's central discipline is that lossy schemes are judged by
//! *measured* accuracy at a given edge budget, not by construction. An
//! [`Objective`] packages one accuracy metric together with everything it
//! needs from the uncompressed graph (PageRank scores, per-vertex triangle
//! counts, scalar totals), computed exactly once and reused across every
//! candidate evaluation — the expensive part of a tuning run is the
//! candidates, not the baseline.
//!
//! Vertex-removing stages are handled by projecting compressed per-vertex
//! scores back onto the original id space through the pipeline's composed
//! vertex mapping ([`sg_metrics::project_scores`]); candidates whose output
//! cannot be aligned at all score [`f64::INFINITY`] and are never feasible.

use sg_algos::{cc, pagerank, tc};
use sg_core::CompressionResult;
use sg_graph::properties::DegreeDistribution;
use sg_graph::{CsrGraph, VertexId};
use sg_metrics::{
    compare_degree_distribution_baseline, kl_divergence, project_scores, relative_error,
    reordered_pair_fraction,
};

/// An accuracy metric the tuner can target, one per output class of §5:
/// distribution outputs (PageRank → KL), ordering outputs (per-vertex
/// triangle counts → reordered pairs), whole-graph structure
/// (degree-distribution L1), and scalar outputs (triangle / component
/// totals → relative error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// KL divergence (bits) between PageRank distributions.
    PagerankKl,
    /// Reordered-pair fraction `|PRE|/n²` of per-vertex triangle counts.
    ReorderedTc,
    /// L1 distance between degree distributions (works across vertex sets).
    DegreeL1,
    /// Relative error of the global triangle count.
    TrianglesRel,
    /// Relative error of the connected-component count.
    ComponentsRel,
}

impl MetricKind {
    /// Every metric, in the canonical (CLI listing) order.
    pub const ALL: [MetricKind; 5] = [
        MetricKind::PagerankKl,
        MetricKind::ReorderedTc,
        MetricKind::DegreeL1,
        MetricKind::TrianglesRel,
        MetricKind::ComponentsRel,
    ];

    /// The metric's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::PagerankKl => "pagerank-kl",
            MetricKind::ReorderedTc => "reordered-tc",
            MetricKind::DegreeL1 => "degree-l1",
            MetricKind::TrianglesRel => "triangles-rel",
            MetricKind::ComponentsRel => "components-rel",
        }
    }

    /// Resolves a CLI name.
    pub fn parse(name: &str) -> Result<MetricKind, String> {
        MetricKind::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
            let known: Vec<&str> = MetricKind::ALL.iter().map(|m| m.name()).collect();
            format!("unknown metric '{name}' (known: {})", known.join(", "))
        })
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A quality target: `metric <= max`, parsed from the CLI syntax
/// `pagerank-kl<=0.05`.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    /// The metric being bounded.
    pub metric: MetricKind,
    /// Inclusive upper bound a candidate must meet to be feasible.
    pub max: f64,
}

impl Target {
    /// Parses `metric<=bound`.
    pub fn parse(spec: &str) -> Result<Target, String> {
        let (name, bound) =
            spec.split_once("<=").ok_or_else(|| format!("expected metric<=bound, got '{spec}'"))?;
        let metric = MetricKind::parse(name.trim())?;
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

/// Baseline data for one metric over the uncompressed graph, computed once
/// per tuning run and shared (immutably) by all candidate evaluations.
#[derive(Clone, Debug, Default)]
struct Baseline {
    pagerank: Option<Vec<f64>>,
    tc_per_vertex: Option<Vec<f64>>,
    triangles: Option<u64>,
    components: Option<usize>,
    degree_dist: Option<DegreeDistribution>,
}

/// A scoring function for compression results: one [`MetricKind`] plus its
/// cached baseline.
pub struct Objective {
    metric: MetricKind,
    baseline: Baseline,
    num_vertices: usize,
}

impl Objective {
    /// Builds the objective for `metric` over `g`, computing exactly the
    /// baseline results the metric needs (once).
    pub fn new(g: &CsrGraph, metric: MetricKind) -> Self {
        let mut baseline = Baseline::default();
        match metric {
            MetricKind::PagerankKl => {
                baseline.pagerank = Some(pagerank::pagerank_default(g).scores);
            }
            MetricKind::ReorderedTc => {
                baseline.tc_per_vertex =
                    Some(tc::triangles_per_vertex(g).iter().map(|&x| x as f64).collect());
            }
            MetricKind::DegreeL1 => {
                baseline.degree_dist = Some(DegreeDistribution::of(g));
            }
            MetricKind::TrianglesRel => {
                baseline.triangles = Some(tc::count_triangles(g));
            }
            MetricKind::ComponentsRel => {
                baseline.components = Some(cc::connected_components(g).num_components);
            }
        }
        Self { metric, baseline, num_vertices: g.num_vertices() }
    }

    /// The metric this objective scores.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// Scores a compression result against the cached baseline. Lower is
    /// better; `f64::INFINITY` means "not comparable" (the candidate can
    /// never be feasible). The score is a pure function of
    /// `(baseline, result)`, so repeated calls are bit-identical.
    pub fn score(&self, result: &CompressionResult) -> f64 {
        self.score_parts(&result.graph, result.vertex_mapping.as_deref())
    }

    /// [`Objective::score`] over the raw parts — the session-API entry
    /// point: [`sg_core::SessionRun`] hands out its graph and composed
    /// mapping behind `Arc`s, and scoring them in place avoids
    /// materializing (deep-cloning) a `CompressionResult` per candidate.
    pub fn score_parts(&self, graph: &CsrGraph, mapping: Option<&[Option<VertexId>]>) -> f64 {
        let value = match self.metric {
            MetricKind::PagerankKl => {
                let base = self.baseline.pagerank.as_ref().expect("baseline computed");
                let scores = if graph.num_vertices() == 0 {
                    Vec::new()
                } else {
                    pagerank::pagerank_default(graph).scores
                };
                match project_scores(self.num_vertices, mapping, &scores) {
                    // An empty support (n = 0) is trivially undistorted;
                    // kl_divergence asserts non-emptiness.
                    Some(projected) if projected.is_empty() => 0.0,
                    Some(projected) => kl_divergence(base, &projected),
                    None => f64::INFINITY,
                }
            }
            MetricKind::ReorderedTc => {
                let base = self.baseline.tc_per_vertex.as_ref().expect("baseline computed");
                let after: Vec<f64> =
                    tc::triangles_per_vertex(graph).iter().map(|&x| x as f64).collect();
                match project_scores(self.num_vertices, mapping, &after) {
                    Some(projected) => reordered_pair_fraction(base, &projected),
                    None => f64::INFINITY,
                }
            }
            MetricKind::DegreeL1 => {
                let base = self.baseline.degree_dist.as_ref().expect("baseline computed");
                compare_degree_distribution_baseline(base, graph).l1_distance
            }
            MetricKind::TrianglesRel => {
                let t0 = self.baseline.triangles.expect("baseline computed");
                relative_error(t0 as f64, tc::count_triangles(graph) as f64)
            }
            MetricKind::ComponentsRel => {
                let c0 = self.baseline.components.expect("baseline computed");
                relative_error(c0 as f64, cc::connected_components(graph).num_components as f64)
            }
        };
        if value.is_nan() {
            f64::INFINITY
        } else {
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::scheme::Uniform;
    use sg_core::{CompressionScheme, PipelineSpec, SchemeRegistry};
    use sg_graph::generators;

    #[test]
    fn metric_names_roundtrip() {
        for m in MetricKind::ALL {
            assert_eq!(MetricKind::parse(m.name()).expect("round-trips"), m);
        }
        assert!(MetricKind::parse("nope").is_err());
    }

    #[test]
    fn target_parse_and_render() {
        let t = Target::parse("pagerank-kl<=0.05").expect("parses");
        assert_eq!(t.metric, MetricKind::PagerankKl);
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
        for m in MetricKind::ALL {
            let obj = Objective::new(&g, m);
            let s = obj.score(&r);
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
        for m in [
            MetricKind::PagerankKl,
            MetricKind::DegreeL1,
            MetricKind::TrianglesRel,
            MetricKind::ComponentsRel,
        ] {
            let obj = Objective::new(&g, m);
            let mild = obj.score(&Uniform { p: 0.1 }.apply(&g, 5));
            let harsh = obj.score(&Uniform { p: 0.8 }.apply(&g, 5));
            assert!(
                mild <= harsh,
                "{m}: mild {mild} should not exceed harsh {harsh} on the same seed"
            );
        }
        let obj = Objective::new(&g, MetricKind::ReorderedTc);
        let s = obj.score(&Uniform { p: 0.4 }.apply(&g, 5));
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
        for m in [MetricKind::PagerankKl, MetricKind::ReorderedTc, MetricKind::DegreeL1] {
            let obj = Objective::new(&g, m);
            let s = obj.score(&out.result);
            assert!(s.is_finite(), "{m}: projection should make this comparable, got {s}");
        }
    }

    #[test]
    fn empty_graphs_score_cleanly_for_every_metric() {
        // Regression: pagerank-kl used to panic on n = 0 via kl_divergence's
        // non-empty assertion. An empty graph is trivially undistorted.
        let g = sg_graph::CsrGraph::from_pairs(0, &[]);
        let r = Uniform { p: 0.5 }.apply(&g, 1);
        for m in MetricKind::ALL {
            let s = Objective::new(&g, m).score(&r);
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
        let obj = Objective::new(&g, MetricKind::PagerankKl);
        assert_eq!(obj.score(&bogus), f64::INFINITY);
    }
}
