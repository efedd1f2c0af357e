//! The one before/after accuracy report behind `slimgraph analyze` and
//! the daemon's `analyze` op: one metric per output class of §5 —
//! scalars (components, triangles), a distribution (PageRank, KL) and BFS
//! (critical-edge preservation). Callers only format the numbers.
//!
//! The original's side of the report is an [`AccuracyBaseline`]: computed
//! once, compared against any number of compressed graphs. The daemon
//! keeps one per catalog registration; [`accuracy_report`] is the one-shot
//! form.

use crate::bfs_critical::{critical_edge_count, preservation_of};
use crate::kl_divergence;
use sg_algos::{cc, pagerank, tc};
use sg_graph::{CsrGraph, GraphView, VertexId};
use std::sync::OnceLock;

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
    /// KL divergence (bits) between the PageRank distributions; `None`
    /// when compression changed the vertex set (no common support).
    pub pagerank_kl: Option<f64>,
    /// Share of BFS critical edges kept, rooted at the original's
    /// [`max_degree_vertex`]; `None` when the vertex set changed.
    pub bfs_critical_kept: Option<f64>,
}

/// The original graph's side of an [`AccuracyReport`]. Components and
/// triangles are computed by [`AccuracyBaseline::new`]; the part only a
/// vertex-preserving comparison needs (PageRank scores, 8 n bytes, plus
/// the BFS root and its critical-edge count) is computed by the first
/// such [`AccuracyBaseline::compare`] — concurrent first comparisons wait
/// for one computation — so a baseline that only ever meets
/// vertex-removing schemes never runs a PageRank.
#[derive(Debug)]
pub struct AccuracyBaseline {
    components: usize,
    triangles: u64,
    distribution: OnceLock<Distribution>,
}

#[derive(Debug)]
struct Distribution {
    pagerank: Vec<f64>,
    root: VertexId,
    critical_edges: usize,
}

impl AccuracyBaseline {
    /// The scalar part of the baseline of the graph `before` views.
    pub fn new<B: GraphView>(before: &B) -> AccuracyBaseline {
        AccuracyBaseline {
            components: cc::connected_components(before).num_components,
            triangles: tc::count_triangles(before),
            distribution: OnceLock::new(),
        }
    }

    /// Whether a vertex-preserving comparison has filled the distribution
    /// part yet.
    pub fn has_distribution(&self) -> bool {
        self.distribution.get().is_some()
    }

    /// Compares `compressed` against the baseline's graph, which the
    /// caller passes again, the same every time: `original`, and `before`,
    /// the view the "before" kernels run over — `original` itself, or an
    /// encoded copy of it (results are bit-identical; the decode-on-the-fly
    /// path is simply exercised end to end).
    pub fn compare<B: GraphView>(
        &self,
        before: &B,
        original: &CsrGraph,
        compressed: &CsrGraph,
    ) -> AccuracyReport {
        let components = [self.components, cc::connected_components(compressed).num_components];
        let triangles = [self.triangles, tc::count_triangles(compressed)];
        let (pagerank_kl, bfs_critical_kept) =
            if compressed.num_vertices() != original.num_vertices() {
                (None, None)
            } else if original.num_vertices() == 0 {
                // An empty support is trivially undistorted (and
                // `kl_divergence` asserts a non-empty one).
                (Some(0.0), Some(1.0))
            } else {
                let base = self.distribution.get_or_init(|| {
                    let root = max_degree_vertex(original);
                    Distribution {
                        pagerank: pagerank::pagerank_default(before).scores,
                        root,
                        critical_edges: critical_edge_count(original, root),
                    }
                });
                let after = pagerank::pagerank_default(compressed).scores;
                (
                    Some(kl_divergence(&base.pagerank, &after)),
                    Some(preservation_of(base.critical_edges, compressed, base.root)),
                )
            };
        AccuracyReport { components, triangles, pagerank_kl, bfs_critical_kept }
    }
}

/// Compares `compressed` against `original` once: a fresh
/// [`AccuracyBaseline`], compared and dropped.
pub fn accuracy_report<B: GraphView>(
    before: &B,
    original: &CsrGraph,
    compressed: &CsrGraph,
) -> AccuracyReport {
    AccuracyBaseline::new(before).compare(before, original, compressed)
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
        let report = accuracy_report(&g, &g, &g);
        assert_eq!(report.components[0], report.components[1]);
        assert_eq!(report.triangles[0], report.triangles[1]);
        assert!(report.pagerank_kl.expect("same vertex set").abs() < 1e-12);
        assert_eq!(report.bfs_critical_kept, Some(1.0));
    }

    #[test]
    fn a_changed_vertex_set_skips_the_distribution_metrics() {
        let g = generators::erdos_renyi(50, 120, 4);
        let smaller = generators::erdos_renyi(40, 90, 4);
        let report = accuracy_report(&g, &g, &smaller);
        assert_eq!((report.pagerank_kl, report.bfs_critical_kept), (None, None));
    }

    #[test]
    fn the_empty_graph_is_undistorted() {
        let empty = CsrGraph::from_pairs(0, &[]);
        let report = accuracy_report(&empty, &empty, &empty);
        let undistorted = AccuracyReport {
            components: [0, 0],
            triangles: [0, 0],
            pagerank_kl: Some(0.0),
            bfs_critical_kept: Some(1.0),
        };
        assert_eq!(report, undistorted);
    }
}
