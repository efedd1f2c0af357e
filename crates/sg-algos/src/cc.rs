//! Connected components.
//!
//! Component preservation is one of the paper's headline invariants: Triangle
//! Reduction and spanners never disconnect a graph, while uniform sampling
//! and summarization can (§6.3, Table 3). Directed graphs get their weak
//! components.
//!
//! The engine is Afforest (Sutton, Ben-Nun and Bader, "Optimizing Parallel
//! Graph Connectivity Computation via Subgraph Sampling", IPDPS 2018), as in
//! the GAP benchmark suite's reference `cc.cc`. `comp` starts as the
//! identity, and `link` hooks the higher of two roots onto the lower one,
//! so a pointer only ever goes to a smaller id:
//!
//! 1. **Sample the subgraph.** In each of `NEIGHBOR_ROUNDS` rounds every
//!    vertex links its r-th out-neighbour (on an encoded row that decodes at
//!    most `r + 1` gaps), and a pointer-jumping pass follows.
//! 2. **Find the giant.** The most frequent root among `SAMPLES` evenly
//!    spaced vertices is probably the largest component's.
//! 3. **Finish the rest.** Every vertex outside that root links the rest of
//!    its out-row and, on a directed graph, its whole in-row: an arc from the
//!    skipped component into another one is then still linked from its far
//!    end. Vertices inside the root read nothing more, which is the saving.
//!
//! The labels are unique by definition, whatever the thread count, the
//! sample or the order in which links land: the root of a tree is smaller
//! than everything that points at it, so once every edge is linked the root
//! of a component is its **minimum vertex id**. The sample only decides
//! which work is skipped, never the result, so it is evenly spaced rather
//! than drawn from a PRNG.

use rayon::prelude::*;
use sg_graph::{GraphView, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Neighbours linked per vertex in step 1 (GAP's `neighbor_rounds`).
const NEIGHBOR_ROUNDS: usize = 2;

/// Vertices sampled to find the giant component in step 2 (GAP's
/// `num_samples`).
const SAMPLES: usize = 1024;

/// Result of a components computation.
#[derive(Clone, Debug)]
pub struct CcResult {
    /// Component label per vertex: the minimum vertex id of its component.
    pub labels: Vec<VertexId>,
    /// Number of connected components.
    pub num_components: usize,
}

impl CcResult {
    /// `(label, size)` of every component, ascending by label. A label is
    /// a vertex id, so one pass counts into a vector indexed by it.
    pub fn component_sizes(&self) -> Vec<(VertexId, usize)> {
        let mut count = vec![0usize; self.labels.len()];
        for &l in &self.labels {
            count[l as usize] += 1;
        }
        let labelled = count.into_iter().enumerate().filter(|&(_, size)| size > 0);
        labelled.map(|(l, size)| (l as VertexId, size)).collect()
    }

    /// Size of the largest component.
    pub fn largest_component(&self) -> usize {
        self.component_sizes().into_iter().map(|(_, size)| size).max().unwrap_or(0)
    }
}

/// Connected (weak, when directed) components by Afforest; see the module
/// docs. Labels are component minima at any thread count.
pub fn connected_components<G: GraphView>(g: &G) -> CcResult {
    let n = g.num_vertices();
    let comp: Vec<AtomicU32> = (0..n as VertexId).map(AtomicU32::new).collect();
    for round in 0..NEIGHBOR_ROUNDS {
        (0..n as VertexId).into_par_iter().for_each(|u| {
            if let Some(v) = g.cursor(u).nth(round) {
                link(&comp, u, v);
            }
        });
        compress(&comp);
    }
    let giant = most_frequent_root(&comp);
    let directed = g.is_directed();
    (0..n as VertexId).into_par_iter().for_each(|u| {
        if comp[u as usize].load(Ordering::Relaxed) == giant {
            return;
        }
        let mut row = g.cursor(u);
        for _ in 0..NEIGHBOR_ROUNDS {
            row.next();
        }
        row.for_each(|v| link(&comp, u, v));
        if directed {
            g.in_cursor(u).for_each(|v| link(&comp, u, v));
        }
    });
    // Final pointer jump, in vertex order: `comp[v] ≤ v`, so the vertex it
    // points at already holds its root.
    let mut labels: Vec<VertexId> = comp.into_iter().map(AtomicU32::into_inner).collect();
    let mut num_components = 0;
    for v in 0..n {
        let up = labels[v] as usize;
        if up == v {
            num_components += 1;
        } else {
            labels[v] = labels[up];
        }
    }
    CcResult { labels, num_components }
}

/// Joins the trees of `u` and `v` (GAP's `Link`): walks both sides towards
/// their roots and CASes the higher root onto the lower one. A root only
/// ever changes once, from itself to a smaller id, so every value read is
/// an ancestor and the forest never gains a cycle. `Relaxed` suffices: a
/// `comp` slot publishes no other data, each slot's own modification order
/// is all the argument needs, and the pool's join orders the phases.
fn link(comp: &[AtomicU32], u: VertexId, v: VertexId) {
    let read = |x: VertexId| comp[x as usize].load(Ordering::Relaxed);
    let (mut a, mut b) = (read(u), read(v));
    while a != b {
        let (high, low) = if a > b { (a, b) } else { (b, a) };
        let up = read(high);
        if up == low
            || (up == high
                && comp[high as usize]
                    .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            return;
        }
        (a, b) = (read(read(high)), read(low));
    }
}

/// Pointer jumping: points every vertex straight at its root. Runs between
/// link phases, never alongside one.
fn compress(comp: &[AtomicU32]) {
    (0..comp.len()).into_par_iter().for_each(|v| {
        let mut up = comp[v].load(Ordering::Relaxed);
        loop {
            let next = comp[up as usize].load(Ordering::Relaxed);
            if next == up {
                break;
            }
            up = next;
        }
        comp[v].store(up, Ordering::Relaxed);
    });
}

/// The most frequent root among [`SAMPLES`] evenly spaced vertices (the
/// smallest one on a tie); `VertexId::MAX`, which no vertex carries, on the
/// empty graph. Called right after [`compress`], so `comp[v]` is a root.
fn most_frequent_root(comp: &[AtomicU32]) -> VertexId {
    let (n, k) = (comp.len(), SAMPLES.min(comp.len()));
    let mut roots: Vec<VertexId> =
        (0..k).map(|i| comp[i * n / k].load(Ordering::Relaxed)).collect();
    roots.sort_unstable();
    roots
        .chunk_by(|a, b| a == b)
        .max_by_key(|run| (run.len(), std::cmp::Reverse(run[0])))
        .map_or(VertexId::MAX, |run| run[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::{CsrGraph, EdgeList};

    #[test]
    fn two_components() {
        let g = CsrGraph::from_pairs(5, &[(0, 1), (1, 2), (3, 4)]);
        let r = connected_components(&g);
        assert_eq!(r.num_components, 2);
        assert_eq!(r.labels, vec![0, 0, 0, 3, 3]);
        assert_eq!(r.component_sizes(), vec![(0, 3), (3, 2)]);
        assert_eq!(r.largest_component(), 3);
    }

    #[test]
    fn isolated_vertices_are_components() {
        let g = CsrGraph::from_pairs(4, &[(0, 1)]);
        let r = connected_components(&g);
        assert_eq!(r.num_components, 3);
        assert_eq!(r.component_sizes(), vec![(0, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn directed_arcs_out_of_the_giant_are_linked() {
        // 0..2000 is one directed path (the sampled giant); 2000 and 2001
        // each have only an arc from the path pointing at them, third in
        // its tail's out-row, so step 1 never links it and neither vertex
        // reaches the path through its own out-row.
        let arcs =
            (0..1999u32).map(|v| (v, v + 1)).chain([(5, 7), (5, 2000), (1500, 1502), (1500, 2001)]);
        let g = CsrGraph::from_edge_list_directed(EdgeList::from_pairs(2002, arcs));
        let r = connected_components(&g);
        assert_eq!(r.num_components, 1);
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_pairs(0, &[]);
        let r = connected_components(&g);
        assert_eq!(r.num_components, 0);
        assert!(r.component_sizes().is_empty());
        assert_eq!(r.largest_component(), 0);
    }
}
