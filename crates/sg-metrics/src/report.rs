//! The one before/after accuracy report behind `slimgraph analyze` and
//! the daemon's `analyze` op: one metric per output class of §5 —
//! scalars (components, triangles), a distribution (PageRank, KL) and BFS
//! (critical-edge preservation). Callers only format the numbers.

use crate::{critical_edge_preservation, kl_divergence};
use sg_algos::{cc, pagerank, tc};
use sg_graph::{CsrGraph, GraphView, VertexId};

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

/// Compares `compressed` against `original`. `before` is the view the
/// "before" kernels run over — `original` itself, or an encoded copy of
/// it (results are bit-identical; the decode-on-the-fly path is simply
/// exercised end to end).
pub fn accuracy_report<B: GraphView>(
    before: &B,
    original: &CsrGraph,
    compressed: &CsrGraph,
) -> AccuracyReport {
    let components = [
        cc::connected_components(before).num_components,
        cc::connected_components(compressed).num_components,
    ];
    let triangles = [tc::count_triangles(before), tc::count_triangles(compressed)];
    let (pagerank_kl, bfs_critical_kept) = if compressed.num_vertices() == original.num_vertices() {
        let pr0 = pagerank::pagerank_default(before).scores;
        let pr1 = pagerank::pagerank_default(compressed).scores;
        let root = max_degree_vertex(original);
        (
            Some(kl_divergence(&pr0, &pr1)),
            Some(critical_edge_preservation(original, compressed, root)),
        )
    } else {
        (None, None)
    };
    AccuracyReport { components, triangles, pagerank_kl, bfs_critical_kept }
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
}
