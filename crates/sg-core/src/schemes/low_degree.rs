//! Single-vertex kernel: low-degree vertex removal (§4.4).
//!
//! Removes all vertices of degree 0 or 1 (Listing 1, `low_degree`). Degree-1
//! vertices contribute nothing to shortest paths between vertices of higher
//! degree, so betweenness centrality of the surviving core is preserved
//! exactly \[132\].

use crate::context::SgContext;
use crate::engine::{CompressionResult, Engine};
use crate::kernel::{VertexDecision, VertexKernel, VertexView};
use sg_graph::CsrGraph;

/// The `low_degree` kernel of Listing 1, generalized to a threshold.
#[derive(Clone, Copy, Debug)]
pub struct LowDegreeKernel {
    /// Vertices with degree ≤ `threshold` are deleted (paper uses 1).
    pub threshold: usize,
}

impl Default for LowDegreeKernel {
    fn default() -> Self {
        Self { threshold: 1 }
    }
}

impl VertexKernel for LowDegreeKernel {
    fn process(&self, v: VertexView, _sg: &SgContext<'_>) -> VertexDecision {
        if v.degree <= self.threshold {
            VertexDecision::Delete // atomic SG.del(v)
        } else {
            VertexDecision::Keep
        }
    }
}

/// Removes all degree-0 and degree-1 vertices (one pass).
pub fn remove_low_degree(g: &CsrGraph, seed: u64) -> CompressionResult {
    Engine::new(seed).run_vertex_kernel(g, &LowDegreeKernel::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::bc::betweenness_exact;
    use sg_graph::generators;

    #[test]
    fn star_collapses_to_hub() {
        let g = generators::star(10);
        let r = remove_low_degree(&g, 1);
        assert_eq!(r.graph.num_vertices(), 1);
        assert_eq!(r.graph.num_edges(), 0);
    }

    #[test]
    fn cycle_is_untouched() {
        let g = generators::cycle(12);
        let r = remove_low_degree(&g, 2);
        assert_eq!(r.graph.num_vertices(), 12);
        assert_eq!(r.graph.num_edges(), 12);
    }

    #[test]
    fn table3_row_counts() {
        // Table 3: removing k degree-1 vertices gives n-k vertices, m-k edges.
        let g = CsrGraph::from_pairs(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (2, 4), (4, 5)]);
        // Degree-1: 3, 5; degree-0: 6 -> k = 3 vertices, 2 edges removed.
        let r = remove_low_degree(&g, 3);
        assert_eq!(r.graph.num_vertices(), 4);
        assert_eq!(r.graph.num_edges(), 4);
    }

    #[test]
    fn core_shortest_paths_unchanged() {
        // §4.4 / [132]: degree-1 vertices lie on no shortest path between
        // vertices of higher degree, so all pairwise distances among
        // survivors are exactly preserved — the property that makes core BC
        // contributions (paths among core vertices) exact.
        let g = CsrGraph::from_pairs(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (3, 5), (5, 6), (2, 7)],
        );
        let r = remove_low_degree(&g, 5);
        let mapping = r.vertex_mapping.expect("vertex kernel");
        let survivors: Vec<usize> = (0..8).filter(|&v| mapping[v].is_some()).collect();
        for &a in &survivors {
            let before = sg_algos::sssp::dijkstra(&g, a as u32);
            let na = mapping[a].expect("survivor");
            let after = sg_algos::sssp::dijkstra(&r.graph, na);
            for &b in &survivors {
                let nb = mapping[b].expect("survivor") as usize;
                assert_eq!(before[b], after[nb], "distance {a}->{b} changed");
            }
        }
        // Degree-2+ survivors keep positive betweenness where they had it.
        let bc_after = betweenness_exact(&r.graph);
        assert!(bc_after.iter().any(|&x| x > 0.0));
    }

    use sg_graph::CsrGraph;
}
