//! Breadth-first search.
//!
//! BFS is the Graph500 kernel and the paper's special-cased accuracy target
//! (§5): its output is the vector of parents in the traversal tree, from
//! which `sg-metrics` derives the critical-edge sets. [`bfs`] is the
//! sequential queue, deterministic down to the parents; `diameter` and the
//! critical-edge metric use it.
//!
//! [`bfs_parallel`] is direction-optimizing BFS (Beamer, Asanović and
//! Patterson, "Direction-Optimizing Breadth-First Search", SC 2012), as in
//! the GAP benchmark suite's reference `bfs.cc`. A *top-down* step claims
//! the out-neighbours of the frontier with a CAS, and the claimer is the
//! parent. A *bottom-up* step lets every unvisited vertex scan its in-row
//! and stop at the first member of the previous level's frontier bitmap,
//! which becomes its parent; on an encoded row that decodes only a prefix.
//! The search goes bottom-up when the frontier's out-slots exceed the
//! unexplored slots over `ALPHA`, and back top-down when the frontier
//! stops growing and holds at most `n` over `BETA` vertices.
//!
//! Either step puts exactly the vertices at hop distance `level` into
//! level `level`, so `depth` and `reached` are unique and equal those of
//! [`bfs`] at any thread count. Parents are "any valid parent", as in GAP:
//! an equal-depth race or a bottom-up scan may pick a different one.

use rayon::prelude::*;
use sg_graph::types::NO_VERTEX;
use sg_graph::{CsrGraph, GraphView, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// GAP's α: a step runs bottom-up once the frontier's out-slots exceed the
/// unexplored slots divided by this.
const ALPHA: u64 = 15;

/// GAP's β: the bottom-up phase ends once the frontier stops growing and
/// holds at most `n` divided by this vertices.
const BETA: usize = 18;

/// Depth value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Result of a BFS traversal.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Parent of each vertex in the BFS tree (`NO_VERTEX` for the root's
    /// parent and for unreachable vertices).
    pub parent: Vec<VertexId>,
    /// Depth (hop distance) of each vertex; `UNREACHABLE` if not reached.
    pub depth: Vec<u32>,
    /// Number of vertices reached (including the root).
    pub reached: usize,
}

impl BfsResult {
    /// True when `v` was reached from the root.
    pub fn is_reached(&self, v: VertexId) -> bool {
        self.depth[v as usize] != UNREACHABLE
    }
}

/// Graph500-style validation of a BFS tree (the output class §5 says the
/// benchmark checks): every reached non-root vertex must have a reached
/// parent joined by a real edge with depth exactly one less; unreached
/// vertices must have no parent; the root has depth 0.
pub fn validate_bfs_tree(g: &CsrGraph, root: VertexId, r: &BfsResult) -> bool {
    if r.depth.len() != g.num_vertices() || r.parent.len() != g.num_vertices() {
        return false;
    }
    if r.depth[root as usize] != 0 || r.parent[root as usize] != NO_VERTEX {
        return false;
    }
    for v in 0..g.num_vertices() as VertexId {
        if v == root {
            continue;
        }
        match (r.is_reached(v), r.parent[v as usize]) {
            (false, p) => {
                if p != NO_VERTEX {
                    return false;
                }
            }
            (true, p) => {
                if p == NO_VERTEX
                    || !g.has_edge(p, v)
                    || r.depth[p as usize] == UNREACHABLE
                    || r.depth[v as usize] != r.depth[p as usize] + 1
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Sequential BFS from `root`. The zero-vertex graph gives the empty
/// traversal.
pub fn bfs<G: GraphView>(g: &G, root: VertexId) -> BfsResult {
    let n = g.num_vertices();
    if n == 0 {
        return BfsResult { parent: Vec::new(), depth: Vec::new(), reached: 0 };
    }
    let mut parent = vec![NO_VERTEX; n];
    let mut depth = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        let du = depth[u as usize];
        g.cursor(u).for_each(|v| {
            if depth[v as usize] == UNREACHABLE {
                depth[v as usize] = du + 1;
                parent[v as usize] = u;
                reached += 1;
                queue.push_back(v);
            }
        });
    }
    BfsResult { parent, depth, reached }
}

/// Direction-optimizing parallel BFS from `root`; see the module docs.
/// Depths and `reached` equal [`bfs`]'s; parents are any valid parent. The
/// zero-vertex graph gives the empty traversal.
pub fn bfs_parallel<G: GraphView>(g: &G, root: VertexId) -> BfsResult {
    let n = g.num_vertices();
    if n == 0 {
        return BfsResult { parent: Vec::new(), depth: Vec::new(), reached: 0 };
    }
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_VERTEX)).collect();
    depth[root as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![root];
    let mut level = 0u32;
    let mut reached = 1usize;
    let mut unexplored = g.num_edges() as u64 * if g.is_directed() { 1 } else { 2 };
    let mut scout = g.degree(root) as u64;
    while !frontier.is_empty() {
        if scout > unexplored / ALPHA {
            let mut front = vec![0u64; n.div_ceil(64)];
            for &v in &frontier {
                front[v as usize / 64] |= 1 << (v % 64);
            }
            let mut awake = frontier.len();
            loop {
                level += 1;
                let grew_from = awake;
                front = bottom_up_step(g, &front, level, &depth, &parent);
                awake = front.iter().map(|w| w.count_ones() as usize).sum();
                reached += awake;
                if awake < grew_from && awake <= n / BETA {
                    break;
                }
            }
            frontier = members(&front);
            scout = 1;
        } else {
            unexplored = unexplored.saturating_sub(scout);
            level += 1;
            frontier = top_down_step(g, &frontier, level, &depth, &parent);
            reached += frontier.len();
            scout = frontier.par_iter().map(|&v| g.degree(v) as u64).sum();
        }
    }
    BfsResult {
        parent: parent.into_iter().map(AtomicU32::into_inner).collect(),
        depth: depth.into_iter().map(AtomicU32::into_inner).collect(),
        reached,
    }
}

/// One top-down step: every unvisited out-neighbour of the frontier is
/// claimed by CAS, and the claimer is its parent. Returns the claimed.
fn top_down_step<G: GraphView>(
    g: &G,
    frontier: &[VertexId],
    level: u32,
    depth: &[AtomicU32],
    parent: &[AtomicU32],
) -> Vec<VertexId> {
    frontier
        .par_iter()
        .flat_map_iter(|&u| {
            g.cursor(u).filter(move |&v| {
                let claimed = depth[v as usize]
                    .compare_exchange(UNREACHABLE, level, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
                if claimed {
                    parent[v as usize].store(u, Ordering::Relaxed);
                }
                claimed
            })
        })
        .collect()
}

/// One bottom-up step over 64-vertex words: every unvisited vertex scans
/// its in-row up to the first member of `front` and joins `level` under it.
/// Each word is written by one worker, so no bit needs an atomic. Returns
/// the bitmap of the vertices that joined.
fn bottom_up_step<G: GraphView>(
    g: &G,
    front: &[u64],
    level: u32,
    depth: &[AtomicU32],
    parent: &[AtomicU32],
) -> Vec<u64> {
    let in_front = |p: VertexId| front[p as usize / 64] >> (p % 64) & 1 == 1;
    (0..front.len())
        .into_par_iter()
        .map(|w| {
            let mut joined = 0u64;
            for v in w * 64..(w * 64 + 64).min(depth.len()) {
                if depth[v].load(Ordering::Relaxed) != UNREACHABLE {
                    continue;
                }
                if let Some(p) = g.in_cursor(v as VertexId).find(|&p| in_front(p)) {
                    depth[v].store(level, Ordering::Relaxed);
                    parent[v].store(p, Ordering::Relaxed);
                    joined |= 1 << (v % 64);
                }
            }
            joined
        })
        .collect()
}

/// The members of a frontier bitmap, ascending.
fn members(front: &[u64]) -> Vec<VertexId> {
    (0..front.len())
        .into_par_iter()
        .flat_map_iter(|w| {
            let mut bits = front[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    (w * 64) as VertexId + bit
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let r = bfs(&g, 0);
        assert_eq!(r.depth, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.parent[4], 3);
        assert_eq!(r.parent[0], NO_VERTEX);
        assert_eq!(r.reached, 5);
    }

    #[test]
    fn bfs_disconnected() {
        let g = CsrGraph::from_pairs(4, &[(0, 1)]);
        let r = bfs(&g, 0);
        assert_eq!(r.reached, 2);
        assert!(!r.is_reached(3));
        assert_eq!(r.depth[3], UNREACHABLE);
    }

    #[test]
    fn zero_vertices_give_the_empty_traversal() {
        let g = CsrGraph::from_pairs(0, &[]);
        for r in [bfs(&g, 0), bfs_parallel(&g, 0)] {
            assert_eq!(r.reached, 0);
            assert!(r.parent.is_empty() && r.depth.is_empty());
        }
    }

    #[test]
    fn parallel_matches_sequential_depths() {
        let g = generators::rmat_graph500(10, 8, 42);
        let seq = bfs(&g, 0);
        let par = bfs_parallel(&g, 0);
        assert_eq!(seq.depth, par.depth);
        assert_eq!(seq.reached, par.reached);
    }

    #[test]
    fn validator_accepts_real_trees_and_rejects_corruption() {
        let g = generators::erdos_renyi(300, 900, 5);
        let mut r = bfs(&g, 0);
        assert!(validate_bfs_tree(&g, 0, &r));
        let rp = bfs_parallel(&g, 0);
        assert!(validate_bfs_tree(&g, 0, &rp));
        // Corrupt a depth.
        if let Some(v) = (1..300).find(|&v| r.is_reached(v)) {
            r.depth[v as usize] += 1;
            assert!(!validate_bfs_tree(&g, 0, &r));
        }
    }

    #[test]
    fn parallel_parents_are_valid_tree() {
        let g = generators::erdos_renyi(500, 2000, 3);
        let r = bfs_parallel(&g, 0);
        for v in 0..500u32 {
            if v != 0 && r.is_reached(v) {
                let p = r.parent[v as usize];
                assert!(g.has_edge(p, v), "parent edge missing for {v}");
                assert_eq!(r.depth[v as usize], r.depth[p as usize] + 1);
            }
        }
    }

    use sg_graph::CsrGraph;
}
