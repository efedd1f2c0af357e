//! PageRank (pull-based, rayon-parallel).
//!
//! PageRank is the paper's canonical "output is a probability distribution"
//! algorithm: Table 5 compares PageRank distributions on original vs
//! compressed graphs with the Kullback-Leibler divergence, so this
//! implementation guarantees the output sums to 1 (dangling mass is
//! redistributed uniformly).
//!
//! As in the GAP benchmark suite's reference pull PageRank (Beamer,
//! Asanović, Patterson 2015, `pr.cc`: `outgoing_contrib[n] = scores[n] /
//! out_degree(n)`), what a vertex hands each out-neighbour is divided once
//! per *vertex* into a contribution vector, not once per edge inside the
//! pull. One sweep is two phases:
//!
//! * **Pull** (order-free): `pulled[v]` is `v`'s in-row of contributions,
//!   summed in cursor order. Rows are visited window by window — runs of
//!   `PULL_WINDOW` consecutive ids, in parallel — and inside a window in
//!   `(in_degree, id)` order, so rows of equal length run back to back.
//! * **Update** (in vertex order): one fold writes `v`'s new rank, its next
//!   contribution, its term of the L1 residual and — when `v` dangles — its
//!   term of the next sweep's dangling mass.
//!
//! The visit order cannot move a bit. A row's sum has the same terms in the
//! same order whichever window, thread or position visits it, and it lands
//! in `v`'s own slot. The two reductions live in the update phase, folded
//! per chunk in vertex order and combined in chunk order over the shim's
//! length-only chunk bounds, exactly as `sum()` folded and combined them.
//! (`sum()` may seed a chunk with `-0.0` where the fold seeds `0.0`; ranks
//! are positive and residual terms are absolute values, so only a chunk
//! without dangling vertices keeps its seed, and the sign of that zero is
//! lost in `teleport + share`.) Scores, residual and iteration count are
//! therefore those of a plain vertex-order loop, pinned on raw and encoded
//! views at 1, 4 and 8 threads in `tests/parallel_equivalence.rs`.
//!
//! Why sort at all: on cache-resident graphs (50 k vertices, ≈ 4 slots a
//! row) the pull is limited less by memory than by the row loop's
//! hard-to-predict exit, and equal trip counts in a row make that exit
//! predictable (2.4× on the 50 k column below). Why windows and not one
//! global degree sort: a window keeps the rows it reads adjacent, so a
//! graph larger than cache keeps its streaming order. Ms a call at one
//! thread on a 2-vCPU host, median of 9 alternated rounds,
//! scores bit-equal in every cell; "50 k" is `pagerank_default` on a
//! `uniform:p=0.5` sample of `barabasi_albert(50 000, 4)`, "200 k" is 20
//! sweeps over a `uniform:p=0.2` sample of `barabasi_albert(200 000, 8)`
//! (`kernels_encoded`'s 23 MB graph), raw and delta-encoded:
//!
//! | visit order                       | 50 k | 200 k raw | 200 k encoded |
//! |-----------------------------------|------|-----------|---------------|
//! | vertex order, one fused pass      | 80.9 | 129.7     | 316.2         |
//! | vertex order, pull + update       | 93.6 | 139.4     | 325.8         |
//! | one global `(in_degree, id)` sort | 38.3 | 158.3     | 364.2         |
//! | windows of 64                     | 37.6 | 105.2     | 310.6         |
//! | windows of 256                    | 33.4 | 107.2     | 325.4         |
//! | windows of 1024                   | 34.3 | 113.8     | 330.7         |
//!
//! At two threads windows of 64, 128 and 256 read within noise of each
//! other on all three graphs; 256 keeps the 50 k gain largest.

use rayon::prelude::*;
use sg_graph::{GraphView, VertexId};

/// Width of a pull window: the pull phase sorts each run of this many
/// consecutive ids by in-degree and no further.
const PULL_WINDOW: usize = 256;

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
    let order = visit_order(g);
    let mut pulled = vec![0.0f64; n];

    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < cfg.max_iterations && residual > cfg.tolerance {
        // Pull: each window sums its own rows, in `order`, into its own slots.
        pulled.par_chunks_mut(PULL_WINDOW).enumerate().for_each(|(w, sums)| {
            let base = w * PULL_WINDOW;
            for &v in &order[base..base + sums.len()] {
                let mut sum = 0.0f64;
                g.in_cursor(v).for_each(|u| sum += contrib[u as usize]);
                sums[v as usize - base] = sum;
            }
        });
        // Update: in vertex order, over the shim's chunk bounds of `n`.
        let dangling_share = cfg.damping * dangling * inv_n;
        (residual, dangling) = rank
            .par_iter_mut()
            .zip(next_contrib.par_iter_mut())
            .zip(pulled.par_iter())
            .enumerate()
            .fold(
                || (0.0f64, 0.0f64),
                |(residual, dangling), (v, ((slot, next), &pulled))| {
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

/// The pull phase's row order: `0..n` with every [`PULL_WINDOW`]-wide run
/// of ids sorted by `(in_degree, id)`. The key is unique, so the order is a
/// pure function of the graph.
fn visit_order<G: GraphView>(g: &G) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    order
        .par_chunks_mut(PULL_WINDOW)
        .for_each(|window| window.sort_unstable_by_key(|&v| (g.in_degree(v), v)));
    order
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
    fn visit_order_sorts_each_window_by_in_degree() {
        // 1000 vertices: three full windows and a short one. Arcs land on
        // low ids, so in-degree falls with the id while out-degree cycles.
        let arcs = (0..1000u32).flat_map(|v| (0..v % 7).map(move |j| (v, (v * 31 + j * 17) % 300)));
        let g = sg_graph::CsrGraph::from_edge_list_directed(EdgeList::from_pairs(1000, arcs));
        let _knob = crate::THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let orders = [1, 4].map(|threads| {
            rayon::set_num_threads(threads);
            let order = visit_order(&g);
            rayon::set_num_threads(0);
            order
        });
        assert_eq!(orders[0], orders[1], "the order must not depend on the thread count");
        let order = &orders[0];
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<VertexId>>(), "a permutation of 0..n");
        for (w, window) in order.chunks(PULL_WINDOW).enumerate() {
            let ids = w * PULL_WINDOW..(w * PULL_WINDOW + window.len());
            assert!(
                window.iter().all(|&v| ids.contains(&(v as usize))),
                "window {w} keeps its ids"
            );
            let keys: Vec<_> = window.iter().map(|&v| (g.in_degree(v), v)).collect();
            assert!(keys.windows(2).all(|k| k[0] < k[1]), "window {w} in (in_degree, id) order");
        }
        assert_ne!(order[..PULL_WINDOW], (0..PULL_WINDOW as VertexId).collect::<Vec<_>>());
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
