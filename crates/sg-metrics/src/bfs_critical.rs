//! BFS critical-edge analysis (§5, Figure 4).
//!
//! BFS output (a vector of predecessors) is neither an ordering nor a
//! distribution, so the paper defines a bespoke metric: the set of *critical
//! edges* `Ecr` contains tree edges plus *potential* edges — any edge that
//! could replace a tree edge, i.e. any edge joining consecutive BFS
//! frontiers. Compression accuracy is the ratio `|Ẽcr| / |Ecr|` between the
//! critical-edge counts of the compressed and original graphs for the same
//! root (§7.2 reports ≈96/75/57/27% for spanners with k = 2/8/32/128).

use sg_algos::bfs::{bfs, UNREACHABLE};
use sg_graph::{CsrGraph, VertexId};

/// Classification of a graph's edges w.r.t. one BFS traversal.
#[derive(Clone, Debug)]
pub struct CriticalEdges {
    /// Canonical (u, v) pairs of critical edges (tree ∪ potential).
    pub edges: Vec<(VertexId, VertexId)>,
    /// Number of tree edges (reached vertices minus the root).
    pub tree_edges: usize,
    /// Total edges inspected.
    pub total_edges: usize,
}

impl CriticalEdges {
    /// Number of critical edges |Ecr|.
    pub fn count(&self) -> usize {
        self.edges.len()
    }
}

/// Whether edge `(u, v)` joins consecutive BFS frontiers — such an edge
/// either is a tree edge or could replace one.
fn is_critical(depth: &[u32], u: VertexId, v: VertexId) -> bool {
    let (du, dv) = (depth[u as usize], depth[v as usize]);
    du != UNREACHABLE && dv != UNREACHABLE && du.abs_diff(dv) == 1
}

/// Computes the critical-edge set for a BFS from `root`: every edge whose
/// endpoints sit on consecutive BFS frontiers.
pub fn critical_edges(g: &CsrGraph, root: VertexId) -> CriticalEdges {
    let r = bfs(g, root);
    let edges =
        g.edge_slice().iter().copied().filter(|&(u, v)| is_critical(&r.depth, u, v)).collect();
    CriticalEdges { edges, tree_edges: r.reached.saturating_sub(1), total_edges: g.num_edges() }
}

/// `|Ecr|` for a BFS from `root`: [`critical_edges`]`(g, root).count()`
/// without materialising the set.
pub fn critical_edge_count(g: &CsrGraph, root: VertexId) -> usize {
    let depth = bfs(g, root).depth;
    g.edge_slice().iter().filter(|&&(u, v)| is_critical(&depth, u, v)).count()
}

/// The paper's preservation ratio `|Ẽcr| / |Ecr|` for the same root.
/// Values close to 1 mean the compressed graph retains the structure BFS
/// (and Graph500 validation) depends on.
pub fn critical_edge_preservation(
    original: &CsrGraph,
    compressed: &CsrGraph,
    root: VertexId,
) -> f64 {
    preservation_of(critical_edge_count(original, root), compressed, root)
}

/// [`critical_edge_preservation`] against an original whose `|Ecr|` for
/// `root` is already known.
pub(crate) fn preservation_of(original_ecr: usize, compressed: &CsrGraph, root: VertexId) -> f64 {
    if original_ecr == 0 {
        return 1.0;
    }
    critical_edge_count(compressed, root) as f64 / original_ecr as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn tree_graph_all_edges_critical() {
        let g = generators::path(6);
        let c = critical_edges(&g, 0);
        assert_eq!(c.count(), 5);
        assert_eq!(c.tree_edges, 5);
    }

    #[test]
    fn same_frontier_edges_are_non_critical() {
        // Square with a diagonal: from root 0, vertices 1 and 2 share a
        // frontier, so edge (1,2) is non-critical.
        let g = CsrGraph::from_pairs(4, &[(0, 1), (0, 2), (1, 2), (1, 3)]);
        let c = critical_edges(&g, 0);
        assert_eq!(c.count(), 3);
        assert!(!c.edges.contains(&(1, 2)));
    }

    #[test]
    fn preservation_is_one_for_identity() {
        let g = generators::erdos_renyi(300, 1200, 1);
        assert!((critical_edge_preservation(&g, &g, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preservation_drops_with_removal() {
        let g = generators::erdos_renyi(300, 1500, 2);
        let half = g.filter_edges(|e| e % 2 == 0);
        let p = critical_edge_preservation(&g, &half, 0);
        assert!(p < 1.0);
        assert!(p > 0.0);
    }

    #[test]
    fn unreachable_parts_ignored() {
        let g = CsrGraph::from_pairs(5, &[(0, 1), (2, 3), (3, 4)]);
        let c = critical_edges(&g, 0);
        assert_eq!(c.count(), 1); // only (0,1); component {2,3,4} unreached
    }

    /// The count is the set's size on every shape the predicate branches
    /// on: connected, disconnected, and a root whose component is a sliver
    /// of the graph (most edges have both ends unreachable).
    #[test]
    fn count_agrees_with_the_collected_set() {
        // Many components.
        let sparse = generators::erdos_renyi(400, 300, 7);
        // Root 0 reaches one edge; the 200-vertex path is out of its reach.
        let far: Vec<(u32, u32)> =
            std::iter::once((0, 1)).chain((2..201).map(|v| (v, v + 1))).collect();
        let far = CsrGraph::from_pairs(202, &far);
        let mut cases = vec![(generators::erdos_renyi(300, 1500, 5), 0), (far.clone(), 0)];
        cases.extend((0..400).step_by(37).map(|root| (sparse.clone(), root)));
        for (g, root) in cases {
            assert_eq!(critical_edge_count(&g, root), critical_edges(&g, root).count());
        }
        assert_eq!((critical_edge_count(&far, 0), critical_edge_count(&far, 100)), (1, 199));
    }

    use sg_graph::CsrGraph;
}
