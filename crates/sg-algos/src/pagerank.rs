//! PageRank (pull-based, rayon-parallel).
//!
//! PageRank is the paper's canonical "output is a probability distribution"
//! algorithm: Table 5 compares PageRank distributions on original vs
//! compressed graphs with the Kullback-Leibler divergence, so this
//! implementation guarantees the output sums to 1 (dangling mass is
//! redistributed uniformly).
//!
//! One sweep is one pass over the vertices. As in the GAP benchmark suite's
//! reference pull PageRank (Beamer, Asanović, Patterson 2015, `pr.cc`:
//! `outgoing_contrib[n] = scores[n] / out_degree(n)`), what a vertex hands
//! each out-neighbour is divided once per *vertex* into a contribution
//! vector, not once per edge inside the pull. The same pass that pulls row
//! `v` also writes `v`'s new rank, its next contribution, its term of the L1
//! residual and — when `v` dangles — its term of the next sweep's dangling
//! mass, so an iteration drives the pool once.
//!
//! The fusion cannot move a bit. Every term is the one the separate passes
//! computed (`rank[u] / out_degree[u]` is the same quotient whether it is
//! taken per edge or stored per vertex); a row still adds its in-neighbours
//! in cursor order; and the two sums are folded per chunk in vertex order and
//! combined in chunk order over the shim's length-only chunk bounds, exactly
//! as `sum()` folded and combined them. (`sum()` may seed a chunk with
//! `-0.0` where the fold seeds `0.0`; ranks are positive and residual terms
//! are absolute values, so only a chunk without dangling vertices keeps its
//! seed, and the sign of that zero is lost in `teleport + share`.) Pinned on
//! raw and encoded views at 1, 4 and 8 threads in
//! `tests/parallel_equivalence.rs`.

use rayon::prelude::*;
use sg_graph::{GraphView, VertexId};

/// PageRank configuration.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor (paper/standard default 0.85).
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self { damping: 0.85, max_iterations: 100, tolerance: 1e-9 }
    }
}

/// Result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// Per-vertex rank; a probability distribution (sums to 1).
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final L1 residual.
    pub residual: f64,
}

/// Runs pull-based PageRank. For undirected graphs each edge acts in both
/// directions; for directed graphs the pull uses in-neighbors and
/// out-degrees, with dangling-vertex mass spread uniformly.
///
/// Generic over [`GraphView`]: raw CSR rows iterate borrowed slices, encoded
/// rows decode on the fly — the per-row accumulation order is identical, so
/// both forms produce bit-identical scores.
pub fn pagerank<G: GraphView>(g: &G, cfg: PageRankConfig) -> PageRankResult {
    let n = g.num_vertices();
    if n == 0 {
        return PageRankResult { scores: Vec::new(), iterations: 0, residual: 0.0 };
    }
    let inv_n = 1.0 / n as f64;
    let base_teleport = (1.0 - cfg.damping) * inv_n;
    let out_degree: Vec<f64> = (0..n as VertexId).map(|v| g.degree(v) as f64).collect();
    let mut rank = vec![inv_n; n];
    // What each vertex hands every out-neighbour in the coming sweep. A
    // dangling vertex's slot is never read: no row lists it.
    let mut contrib: Vec<f64> =
        out_degree.iter().map(|&d| if d == 0.0 { 0.0 } else { inv_n / d }).collect();
    let mut next_contrib = vec![0.0f64; n];
    // Mass of dangling vertices (out-degree 0), which teleports everywhere.
    let mut dangling: f64 =
        (0..n).into_par_iter().filter(|&v| out_degree[v] == 0.0).map(|v| rank[v]).sum();

    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < cfg.max_iterations && residual > cfg.tolerance {
        let dangling_share = cfg.damping * dangling * inv_n;
        (residual, dangling) = rank
            .par_iter_mut()
            .zip(next_contrib.par_iter_mut())
            .enumerate()
            .fold(
                || (0.0f64, 0.0f64),
                |(residual, dangling), (v, (slot, next))| {
                    let mut pulled = 0.0f64;
                    g.in_cursor(v as VertexId).for_each(|u| pulled += contrib[u as usize]);
                    let new = base_teleport + dangling_share + cfg.damping * pulled;
                    let residual = residual + (*slot - new).abs();
                    *slot = new;
                    let degree = out_degree[v];
                    if degree == 0.0 {
                        (residual, dangling + new)
                    } else {
                        *next = new / degree;
                        (residual, dangling)
                    }
                },
            )
            .reduce(|| (0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        std::mem::swap(&mut contrib, &mut next_contrib);
        iterations += 1;
    }

    // Normalize defensively (floating-point drift) so callers can treat the
    // result as a distribution.
    let total: f64 = rank.par_iter().sum();
    if total > 0.0 {
        rank.par_iter_mut().for_each(|x| *x /= total);
    }
    PageRankResult { scores: rank, iterations, residual }
}

/// PageRank with default configuration.
pub fn pagerank_default<G: GraphView>(g: &G) -> PageRankResult {
    pagerank(g, PageRankConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;
    use sg_graph::EdgeList;

    #[test]
    fn ranks_sum_to_one() {
        let g = generators::erdos_renyi(200, 800, 1);
        let r = pagerank_default(&g);
        let s: f64 = r.scores.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(r.iterations > 1);
    }

    #[test]
    fn symmetric_graph_uniform_ranks() {
        // On a cycle all vertices are equivalent -> uniform distribution.
        let g = generators::cycle(10);
        let r = pagerank_default(&g);
        for &x in &r.scores {
            assert!((x - 0.1).abs() < 1e-6, "rank {x}");
        }
    }

    #[test]
    fn hub_gets_highest_rank() {
        let g = generators::star(20);
        let r = pagerank_default(&g);
        let hub = r.scores[0];
        for &leaf in &r.scores[1..] {
            assert!(hub > leaf);
        }
    }

    #[test]
    fn directed_dangling_mass_handled() {
        // 0 -> 1 -> 2, vertex 2 dangles.
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        let g = sg_graph::CsrGraph::from_edge_list_directed(el);
        let r = pagerank_default(&g);
        let s: f64 = r.scores.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(r.scores[2] > r.scores[0], "sink should outrank source");
    }

    #[test]
    fn empty_graph_ok() {
        let g = sg_graph::CsrGraph::from_pairs(0, &[]);
        let r = pagerank_default(&g);
        assert!(r.scores.is_empty());
    }

    #[test]
    fn converges_on_skewed_graph() {
        let g = generators::rmat_graph500(10, 8, 5);
        let r = pagerank(
            &g,
            PageRankConfig { tolerance: 1e-12, max_iterations: 300, ..Default::default() },
        );
        assert!(r.residual < 1e-10);
    }
}
