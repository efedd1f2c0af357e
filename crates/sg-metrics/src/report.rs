//! The one accuracy vocabulary: the [`Metric`]s `slimgraph tune` targets,
//! the before/after [`AccuracyReport`] behind `slimgraph analyze` and the
//! daemon's `analyze` op, and the [`AccuracyBaseline`] both are measured
//! against. One metric per output class of §5 — scalars (components,
//! triangles), a distribution (PageRank, KL), an ordering (per-vertex
//! triangles, reordered pairs), whole-graph structure (degree-distribution
//! L1) and BFS (critical-edge preservation). Callers only format the
//! numbers.
//!
//! A vertex-removing compression relabels the survivors, so per-vertex
//! scores are lifted back onto the original ids through the run's
//! composed old → new mapping ([`project_scores`]) before they are
//! compared. A result that cannot be aligned scores [`f64::INFINITY`] in
//! [`AccuracyBaseline::score`] and `None` in the report. BFS-critical
//! preservation alone needs the vertex set unchanged: its root may be gone.

use crate::bfs_critical::{critical_edge_count, preservation_of};
use crate::{
    compare_degree_distribution_baseline, kl_divergence, project_scores, relative_error,
    reordered_pair_fraction,
};
use sg_algos::{cc, pagerank, tc};
use sg_graph::properties::DegreeDistribution;
use sg_graph::{CsrGraph, GraphView, VertexId};
use std::sync::OnceLock;

/// An accuracy metric a compression can be scored by (lower is better),
/// one per output class of §5: distribution outputs (PageRank → KL),
/// ordering outputs (per-vertex triangle counts → reordered pairs),
/// whole-graph structure (degree-distribution L1), and scalar outputs
/// (triangle / component totals → relative error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
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

impl Metric {
    /// Every metric, in the canonical (CLI listing) order.
    pub const ALL: [Metric; 5] = [
        Metric::PagerankKl,
        Metric::ReorderedTc,
        Metric::DegreeL1,
        Metric::TrianglesRel,
        Metric::ComponentsRel,
    ];

    /// The metric's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::PagerankKl => "pagerank-kl",
            Metric::ReorderedTc => "reordered-tc",
            Metric::DegreeL1 => "degree-l1",
            Metric::TrianglesRel => "triangles-rel",
            Metric::ComponentsRel => "components-rel",
        }
    }

    /// Resolves a CLI name.
    pub fn parse(name: &str) -> Result<Metric, String> {
        Metric::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
            let known: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
            format!("unknown metric '{name}' (known: {})", known.join(", "))
        })
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The highest-degree vertex (highest id on ties, 0 for the empty
/// graph): the BFS root of choice — stable across compression, and the
/// component it reaches is large.
pub fn max_degree_vertex<G: GraphView>(g: &G) -> VertexId {
    (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// What [`accuracy_report`] measures, each scalar as `[before, after]`.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyReport {
    /// Connected components.
    pub components: [usize; 2],
    /// Triangles.
    pub triangles: [u64; 2],
    /// KL divergence (bits) between the PageRank distributions, the
    /// compressed one lifted onto the original ids; `None` when the two
    /// cannot be aligned.
    pub pagerank_kl: Option<f64>,
    /// Share of BFS critical edges kept, rooted at the original's
    /// [`max_degree_vertex`]; `None` when the vertex set changed.
    pub bfs_critical_kept: Option<f64>,
}

/// The original graph's side of every comparison, computed once for any
/// number of compressed graphs: each part in its own `OnceLock`, filled by
/// the first comparison that reads it (concurrent first readers wait for
/// one computation).
///
/// Every method takes the baseline's graph again, the same every time:
/// `original`, and `before`, the view the "before" kernels run over —
/// `original` itself or an encoded copy (bit-identical results; the
/// decode-on-the-fly path is simply exercised end to end). `mapping` is
/// the run's composed old → new vertex mapping, `None` if it kept the
/// vertex set.
#[derive(Debug, Default)]
pub struct AccuracyBaseline {
    components: OnceLock<usize>,
    triangles: OnceLock<u64>,
    pagerank: OnceLock<Vec<f64>>,
    /// The BFS root and its critical-edge count.
    bfs_critical: OnceLock<(VertexId, usize)>,
    triangles_per_vertex: OnceLock<Vec<f64>>,
    degree_distribution: OnceLock<DegreeDistribution>,
}

impl AccuracyBaseline {
    /// Computes the part `metric` reads, unless a comparison already has:
    /// callers that then score from many threads never wait on each other.
    pub fn fill<B: GraphView>(&self, metric: Metric, before: &B, original: &CsrGraph) {
        match metric {
            Metric::PagerankKl => _ = self.pagerank(before),
            Metric::ReorderedTc => _ = self.triangles_per_vertex(original),
            Metric::DegreeL1 => _ = self.degree_distribution(before),
            Metric::TrianglesRel => _ = self.triangles(before),
            Metric::ComponentsRel => _ = self.components(before),
        }
    }

    /// The parts computed so far, by name, in a fixed order.
    pub fn filled(&self) -> Vec<&'static str> {
        [
            ("components", self.components.get().is_some()),
            ("triangles", self.triangles.get().is_some()),
            ("pagerank", self.pagerank.get().is_some()),
            ("bfs-critical", self.bfs_critical.get().is_some()),
            ("triangles-per-vertex", self.triangles_per_vertex.get().is_some()),
            ("degree-distribution", self.degree_distribution.get().is_some()),
        ]
        .into_iter()
        .filter_map(|(name, filled)| filled.then_some(name))
        .collect()
    }

    /// `metric` of `compressed` against the baseline. Lower is better;
    /// [`f64::INFINITY`] means "not comparable": the result cannot be
    /// aligned, or the metric is undefined for it. A pure function of the
    /// two graphs and `mapping`, so repeated calls are bit-identical.
    pub fn score<B: GraphView>(
        &self,
        metric: Metric,
        before: &B,
        original: &CsrGraph,
        compressed: &CsrGraph,
        mapping: Option<&[Option<VertexId>]>,
    ) -> f64 {
        let value = match metric {
            Metric::PagerankKl => self.pagerank_kl(before, original, compressed, mapping),
            Metric::ReorderedTc => {
                project_scores(original.num_vertices(), mapping, &per_vertex_triangles(compressed))
                    .map(|after| {
                        reordered_pair_fraction(self.triangles_per_vertex(original), &after)
                    })
            }
            Metric::DegreeL1 => Some(
                compare_degree_distribution_baseline(self.degree_distribution(before), compressed)
                    .l1_distance,
            ),
            Metric::TrianglesRel => Some(relative_error(
                self.triangles(before) as f64,
                tc::count_triangles(compressed) as f64,
            )),
            Metric::ComponentsRel => Some(relative_error(
                self.components(before) as f64,
                cc::connected_components(compressed).num_components as f64,
            )),
        };
        value.filter(|v| !v.is_nan()).unwrap_or(f64::INFINITY)
    }

    /// The report of `compressed` against the baseline.
    pub fn compare<B: GraphView>(
        &self,
        before: &B,
        original: &CsrGraph,
        compressed: &CsrGraph,
        mapping: Option<&[Option<VertexId>]>,
    ) -> AccuracyReport {
        let components =
            [self.components(before), cc::connected_components(compressed).num_components];
        let triangles = [self.triangles(before), tc::count_triangles(compressed)];
        let pagerank_kl = self.pagerank_kl(before, original, compressed, mapping);
        let bfs_critical_kept = (compressed.num_vertices() == original.num_vertices()).then(|| {
            let &(root, critical_edges) = self.bfs_critical.get_or_init(|| {
                let root = max_degree_vertex(original);
                // The empty graph has no root and no critical edge to lose.
                let empty = original.num_vertices() == 0;
                (root, if empty { 0 } else { critical_edge_count(original, root) })
            });
            preservation_of(critical_edges, compressed, root)
        });
        AccuracyReport { components, triangles, pagerank_kl, bfs_critical_kept }
    }

    /// The one PageRank-KL path of [`AccuracyBaseline::score`] and
    /// [`AccuracyBaseline::compare`]; `None` when the scores cannot be
    /// aligned.
    fn pagerank_kl<B: GraphView>(
        &self,
        before: &B,
        original: &CsrGraph,
        compressed: &CsrGraph,
        mapping: Option<&[Option<VertexId>]>,
    ) -> Option<f64> {
        let after = pagerank::pagerank_default(compressed).scores;
        let after = project_scores(original.num_vertices(), mapping, &after)?;
        // An empty support is trivially undistorted (and `kl_divergence`
        // asserts a non-empty one).
        Some(if after.is_empty() { 0.0 } else { kl_divergence(self.pagerank(before), &after) })
    }

    fn components<B: GraphView>(&self, before: &B) -> usize {
        *self.components.get_or_init(|| cc::connected_components(before).num_components)
    }

    fn triangles<B: GraphView>(&self, before: &B) -> u64 {
        *self.triangles.get_or_init(|| tc::count_triangles(before))
    }

    fn pagerank<B: GraphView>(&self, before: &B) -> &[f64] {
        self.pagerank.get_or_init(|| pagerank::pagerank_default(before).scores)
    }

    fn triangles_per_vertex(&self, original: &CsrGraph) -> &[f64] {
        self.triangles_per_vertex.get_or_init(|| per_vertex_triangles(original))
    }

    fn degree_distribution<B: GraphView>(&self, before: &B) -> &DegreeDistribution {
        self.degree_distribution.get_or_init(|| DegreeDistribution::of(before))
    }
}

/// Per-vertex triangle counts as scores.
fn per_vertex_triangles(g: &CsrGraph) -> Vec<f64> {
    tc::triangles_per_vertex(g).iter().map(|&x| x as f64).collect()
}

/// Compares `compressed` against `original` once: a fresh
/// [`AccuracyBaseline`], compared and dropped.
pub fn accuracy_report<B: GraphView>(
    before: &B,
    original: &CsrGraph,
    compressed: &CsrGraph,
    mapping: Option<&[Option<VertexId>]>,
) -> AccuracyReport {
    AccuracyBaseline::default().compare(before, original, compressed, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn max_degree_vertex_prefers_degree_then_the_highest_id() {
        assert_eq!(max_degree_vertex(&CsrGraph::from_pairs(4, &[(1, 0), (1, 2), (1, 3)])), 1);
        assert_eq!(max_degree_vertex(&generators::path(5)), 3, "1, 2, 3 tie at degree 2");
        assert_eq!(max_degree_vertex(&CsrGraph::from_pairs(0, &[])), 0);
    }

    #[test]
    fn identity_compression_is_lossless_on_every_metric() {
        let g = generators::erdos_renyi(200, 800, 3);
        let report = accuracy_report(&g, &g, &g, None);
        assert_eq!(report.components[0], report.components[1]);
        assert_eq!(report.triangles[0], report.triangles[1]);
        assert!(report.pagerank_kl.expect("same vertex set").abs() < 1e-12);
        assert_eq!(report.bfs_critical_kept, Some(1.0));
    }

    #[test]
    fn a_changed_vertex_set_skips_the_distribution_metrics() {
        let g = generators::erdos_renyi(50, 120, 4);
        let smaller = generators::erdos_renyi(40, 90, 4);
        let report = accuracy_report(&g, &g, &smaller, None);
        assert_eq!((report.pagerank_kl, report.bfs_critical_kept), (None, None));
    }

    #[test]
    fn the_empty_graph_is_undistorted() {
        let empty = CsrGraph::from_pairs(0, &[]);
        let report = accuracy_report(&empty, &empty, &empty, None);
        let undistorted = AccuracyReport {
            components: [0, 0],
            triangles: [0, 0],
            pagerank_kl: Some(0.0),
            bfs_critical_kept: Some(1.0),
        };
        assert_eq!(report, undistorted);
    }
}
