//! Cut sparsification via Nagamochi–Ibaraki forest decomposition.
//!
//! §4.6 lists Benczúr–Karger cut sparsifiers \[16\] among the schemes that
//! "could be used in future Slim Graph versions as new compression
//! kernels"; this module provides that extension. Instead of the full
//! strength-sampling machinery we use the classic Nagamochi–Ibaraki
//! certificate: partition the edges into maximal spanning forests
//! F₁, F₂, …; the union of the first `k` forests preserves *every* cut of
//! value ≤ k exactly and every larger cut to value ≥ k. This is a
//! deterministic cut-preserving sparsifier with `≤ k·(n-1)` edges,
//! expressible as an edge kernel once forest indices are annotated —
//! the same pattern the spectral kernel uses for its Υ parameter.

use crate::context::SgContext;
use crate::kernel::{EdgeDecision, EdgeKernel, EdgeView};
use sg_algos::union_find::UnionFind;
use sg_graph::{CsrGraph, EdgeId};

/// Assigns every edge its Nagamochi–Ibaraki forest index (1-based):
/// edge e is in forest `i` if it connects two components of the union of
/// forests 1..i-1 restricted processing. Computed by repeatedly extracting
/// spanning forests (simple O(k·m·α) variant — fine at evaluation scale).
pub fn forest_indices(g: &CsrGraph) -> Vec<u32> {
    let m = g.num_edges();
    let mut index = vec![0u32; m];
    let mut remaining: Vec<EdgeId> = (0..m as EdgeId).collect();
    let mut level = 0u32;
    while !remaining.is_empty() {
        level += 1;
        let mut uf = UnionFind::new(g.num_vertices());
        let mut next_round = Vec::new();
        for &e in &remaining {
            let (u, v) = g.edge_endpoints(e);
            if uf.union(u, v) {
                index[e as usize] = level;
            } else {
                next_round.push(e);
            }
        }
        if next_round.len() == remaining.len() {
            // Should be impossible (each pass extracts a forest); guard
            // against an infinite loop all the same.
            for &e in &next_round {
                index[e as usize] = level;
            }
            break;
        }
        remaining = next_round;
    }
    index
}

/// The cut-sparsification kernel: keep edge e iff its forest index is ≤ k.
/// The result preserves all cuts of value ≤ `k` and keeps at most
/// `k·(n-1)` edges.
pub struct CutSparsifyKernel {
    /// Precomputed per-edge forest indices.
    pub indices: Vec<u32>,
    /// Connectivity threshold: cuts of value ≤ k are preserved exactly.
    pub k: u32,
}

impl CutSparsifyKernel {
    /// Builds the kernel for `g` and threshold `k ≥ 1`.
    pub fn for_graph(g: &CsrGraph, k: u32) -> Self {
        assert!(k >= 1, "connectivity threshold must be at least 1");
        Self { indices: forest_indices(g), k }
    }
}

impl EdgeKernel for CutSparsifyKernel {
    fn process(&self, e: EdgeView, _sg: &SgContext<'_>) -> EdgeDecision {
        if self.indices[e.id as usize] <= self.k {
            EdgeDecision::Keep
        } else {
            EdgeDecision::Delete
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{CompressionScheme, CutSparsifier};
    use sg_algos::cc::connected_components;
    use sg_graph::generators;

    /// Brute-force minimum s-t cut value on tiny graphs via max-flow
    /// (Ford–Fulkerson over unit capacities, BFS augmenting paths).
    fn min_st_cut(g: &CsrGraph, s: u32, t: u32) -> usize {
        // Residual capacities per directed pair.
        use rustc_hash::FxHashMap;
        let mut cap: FxHashMap<(u32, u32), i64> = FxHashMap::default();
        for (_, u, v) in g.edge_iter() {
            *cap.entry((u, v)).or_insert(0) += 1;
            *cap.entry((v, u)).or_insert(0) += 1;
        }
        let mut flow = 0usize;
        loop {
            // BFS for an augmenting path.
            let n = g.num_vertices();
            let mut prev = vec![u32::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            prev[s as usize] = s;
            while let Some(u) = queue.pop_front() {
                if u == t {
                    break;
                }
                for &v in g.neighbors(u) {
                    if prev[v as usize] == u32::MAX && cap.get(&(u, v)).copied().unwrap_or(0) > 0 {
                        prev[v as usize] = u;
                        queue.push_back(v);
                    }
                }
            }
            if prev[t as usize] == u32::MAX {
                return flow;
            }
            // Augment by 1 along the path.
            let mut v = t;
            while v != s {
                let u = prev[v as usize];
                *cap.get_mut(&(u, v)).expect("edge on path") -= 1;
                *cap.entry((v, u)).or_insert(0) += 1;
                v = u;
            }
            flow += 1;
        }
    }

    #[test]
    fn forest_indices_cover_all_edges() {
        let g = generators::erdos_renyi(100, 600, 1);
        let idx = forest_indices(&g);
        assert!(idx.iter().all(|&i| i >= 1));
        // First forest is a spanning forest: exactly n - #CC edges.
        let cc = connected_components(&g).num_components;
        let first = idx.iter().filter(|&&i| i == 1).count();
        assert_eq!(first, 100 - cc);
    }

    #[test]
    fn sparsifier_edge_budget() {
        let g = generators::erdos_renyi(200, 3000, 2);
        for k in [1, 2, 4] {
            let r = CutSparsifier { k }.apply(&g, 3);
            assert!(r.graph.num_edges() <= (k as usize) * 199, "k = {k}");
        }
    }

    #[test]
    fn k1_preserves_connectivity() {
        let g = generators::rmat_graph500(10, 8, 4);
        let r = CutSparsifier { k: 1 }.apply(&g, 5);
        assert_eq!(
            connected_components(&g).num_components,
            connected_components(&r.graph).num_components
        );
    }

    #[test]
    fn small_cuts_preserved_exactly() {
        // NI certificate: every s-t cut of value <= k keeps its exact value.
        let g = generators::erdos_renyi(24, 90, 6);
        let k = 3;
        let r = CutSparsifier { k }.apply(&g, 7);
        for t in 1..12u32 {
            let before = min_st_cut(&g, 0, t);
            let after = min_st_cut(&r.graph, 0, t);
            if before <= k as usize {
                assert_eq!(before, after, "cut 0-{t} changed");
            } else {
                assert!(after >= k as usize, "cut 0-{t} fell below k");
            }
        }
    }

    #[test]
    fn larger_k_keeps_more() {
        let g = generators::erdos_renyi(150, 2000, 8);
        let r1 = CutSparsifier { k: 1 }.apply(&g, 9);
        let r3 = CutSparsifier { k: 3 }.apply(&g, 9);
        assert!(r3.graph.num_edges() > r1.graph.num_edges());
    }
}
