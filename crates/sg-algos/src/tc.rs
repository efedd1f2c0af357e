//! Triangle counting and listing.
//!
//! Triangles are the "smallest unit of graph compression" in Triangle
//! Reduction (§4.3): the engine streams every triangle to a kernel instance.
//! Enumeration uses the standard sorted-adjacency intersection with id
//! ordering (`u < v < w`), O(m^{3/2})-class work. Edge-id consumers share
//! one kernel, [`for_triangles_on_edge`], parallel over canonical edge ids:
//! those are sorted by `(u, v)`, so walking edges in id order *is* canonical
//! `(u, v, w)` order and no listing is ever sorted.

use rayon::prelude::*;
use sg_graph::{CsrGraph, EdgeId, GraphView, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

/// A triangle with its three canonical edge ids. Vertices satisfy
/// `u < v < w`; `e_uv` connects `u`/`v`, etc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Triangle {
    pub u: VertexId,
    pub v: VertexId,
    pub w: VertexId,
    pub e_uv: EdgeId,
    pub e_vw: EdgeId,
    pub e_uw: EdgeId,
}

impl Triangle {
    /// The three edge ids.
    pub fn edges(&self) -> [EdgeId; 3] {
        [self.e_uv, self.e_vw, self.e_uw]
    }
}

/// Invokes `f` for every triangle whose two smallest vertices are the
/// endpoints of canonical edge `e_uv`, in ascending `w`. Each triangle
/// belongs to exactly one such edge; a directed edge with `u > v` owns none.
// Inlined so `for_triangles_at`'s walk over a vertex's edges compiles to one
// nested loop (that sequential walk measured ~8% slower without it).
#[inline]
pub fn for_triangles_on_edge(g: &CsrGraph, e_uv: EdgeId, f: &mut impl FnMut(Triangle)) {
    let (u, v) = g.edge_endpoints(e_uv);
    if u >= v {
        return;
    }
    let (nu, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
    let (nv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
    // Intersect {w in N(u) : w > v} with {w in N(v) : w > v}.
    let mut a = nu.partition_point(|&x| x <= v);
    let mut b = nv.partition_point(|&x| x <= v);
    while a < nu.len() && b < nv.len() {
        match nu[a].cmp(&nv[b]) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                f(Triangle { u, v, w: nu[a], e_uv, e_vw: ev[b], e_uw: eu[a] });
                a += 1;
                b += 1;
            }
        }
    }
}

/// Invokes `f` for every triangle whose *smallest* vertex is `u`, in
/// canonical `(u, v, w)` order (ascending `v`, then `w`): `u`'s edges to
/// higher neighbors, in id order. Exposed so partitioned executors (sg-dist
/// ranks owning a vertex range) can enumerate exactly the triangles they
/// own — each triangle belongs to exactly one vertex.
pub fn for_triangles_at(g: &CsrGraph, u: VertexId, f: &mut impl FnMut(Triangle)) {
    let first_higher = g.neighbors(u).partition_point(|&x| x <= u);
    for &e_uv in &g.neighbor_edge_ids(u)[first_higher..] {
        for_triangles_on_edge(g, e_uv, f);
    }
}

/// Invokes `f` once per triangle, in parallel over canonical edges. `f`
/// must be thread-safe; the visit order is unspecified but the *set* of
/// triangles is deterministic.
pub fn for_each_triangle(g: &CsrGraph, f: impl Fn(Triangle) + Sync) {
    g.par_edge_ids().for_each(|e_uv| for_triangles_on_edge(g, e_uv, &mut |t| f(t)));
}

/// Collects the triangles `keep` accepts, in canonical `(u, v, w)` order.
/// Each chunk of edge ids fills its own vector and the chunks concatenate
/// in id order, so only kept triangles are ever materialized and the result
/// is the same at any thread count.
pub fn collect_triangles(g: &CsrGraph, keep: impl Fn(&Triangle) -> bool + Sync) -> Vec<Triangle> {
    g.par_edge_ids()
        .fold(Vec::new, |mut kept, e_uv| {
            for_triangles_on_edge(g, e_uv, &mut |t| {
                if keep(&t) {
                    kept.push(t);
                }
            });
            kept
        })
        .collect::<Vec<_>>()
        .concat()
}

/// Collects all triangles in canonical `(u, v, w)` order. Intended for
/// kernel scheduling at moderate T; counting paths never materialize.
pub fn list_triangles(g: &CsrGraph) -> Vec<Triangle> {
    collect_triangles(g, |_| true)
}

/// Total number of triangles `T`.
///
/// Generic over [`GraphView`]: counting needs only sorted target rows, not
/// edge ids, so the intersection runs over [`GraphView::row_into`] slices —
/// borrowed directly from raw CSR, or decoded once per row into per-chunk
/// scratch buffers for encoded graphs.
pub fn count_triangles<G: GraphView>(g: &G) -> u64 {
    let n = g.num_vertices() as VertexId;
    (0..n)
        .into_par_iter()
        .fold(
            || (0u64, Vec::new(), Vec::new()),
            |(mut count, mut scratch_u, mut scratch_v), u| {
                let nu = g.row_into(u, &mut scratch_u);
                let start_u = nu.partition_point(|&x| x <= u);
                for i in start_u..nu.len() {
                    let v = nu[i];
                    let nv = g.row_into(v, &mut scratch_v);
                    // Intersect {w in N(u) : w > v} with {w in N(v) : w > v}.
                    let mut a = nu.partition_point(|&x| x <= v);
                    let mut b = nv.partition_point(|&x| x <= v);
                    while a < nu.len() && b < nv.len() {
                        match nu[a].cmp(&nv[b]) {
                            std::cmp::Ordering::Less => a += 1,
                            std::cmp::Ordering::Greater => b += 1,
                            std::cmp::Ordering::Equal => {
                                count += 1;
                                a += 1;
                                b += 1;
                            }
                        }
                    }
                }
                (count, scratch_u, scratch_v)
            },
        )
        .map(|(count, _, _)| count)
        .sum()
}

/// Number of triangles incident to each vertex (each triangle contributes to
/// all three corners). This is the per-vertex "TC" score whose ordering the
/// reordered-pairs metric inspects (§7.2).
pub fn triangles_per_vertex(g: &CsrGraph) -> Vec<u64> {
    let counts: Vec<AtomicU64> = (0..g.num_vertices()).map(|_| AtomicU64::new(0)).collect();
    for_each_triangle(g, |t| {
        counts[t.u as usize].fetch_add(1, Ordering::Relaxed);
        counts[t.v as usize].fetch_add(1, Ordering::Relaxed);
        counts[t.w as usize].fetch_add(1, Ordering::Relaxed);
    });
    counts.into_iter().map(|a| a.into_inner()).collect()
}

/// Doulion \[156\] approximate triangle count: sparsify with a coin of
/// keep-probability `q`, count triangles there, scale by `1/q^3`. This is
/// the estimator whose accuracy motivates uniform sampling "preserving the
/// triangle count best" (Table 2).
pub fn doulion_estimate(g: &CsrGraph, q: f64, seed: u64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "keep probability must be in (0, 1]");
    let sparse = g.filter_edges(|e| sg_graph::prng::unit_f64(seed ^ 0xd071, e as u64) < q);
    count_triangles(&sparse) as f64 / (q * q * q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn counts_single_triangle() {
        let g = CsrGraph::from_pairs(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_triangles(&g), 1);
        let per = triangles_per_vertex(&g);
        assert_eq!(per, vec![1, 1, 1]);
    }

    #[test]
    fn complete_graph_count() {
        // K_6 has C(6,3) = 20 triangles.
        let g = generators::complete(6);
        assert_eq!(count_triangles(&g), 20);
        let per = triangles_per_vertex(&g);
        // Each vertex participates in C(5,2) = 10 triangles.
        assert!(per.iter().all(|&c| c == 10));
    }

    #[test]
    fn bipartite_has_no_triangles() {
        // 4-cycle is triangle-free.
        let g = generators::cycle(4);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn listed_triangles_have_valid_edges() {
        let g = generators::watts_strogatz(200, 4, 0.1, 3);
        let tris = list_triangles(&g);
        assert_eq!(tris.len() as u64, count_triangles(&g));
        for t in &tris {
            assert!(t.u < t.v && t.v < t.w);
            assert_eq!(g.find_edge(t.u, t.v), Some(t.e_uv));
            assert_eq!(g.find_edge(t.v, t.w), Some(t.e_vw));
            assert_eq!(g.find_edge(t.u, t.w), Some(t.e_uw));
        }
    }

    fn key(t: &Triangle) -> (VertexId, VertexId, VertexId) {
        (t.u, t.v, t.w)
    }

    #[test]
    fn listing_is_canonically_ordered_at_any_thread_count() {
        // Nothing sorts the listing, so a mis-ordered chunk merge would show.
        // The only test in this binary that turns the process-global knob.
        let g = generators::rmat_graph500(10, 8, 7);
        let expected = count_triangles(&g);
        assert!(expected > 0);
        let listings = [1, 4, 8].map(|threads| {
            rayon::set_num_threads(threads);
            let tris = list_triangles(&g);
            rayon::set_num_threads(0);
            tris
        });
        for tris in &listings {
            assert_eq!(tris.len() as u64, expected);
            assert!(tris.windows(2).all(|w| key(&w[0]) < key(&w[1])));
            assert_eq!(tris, &listings[0]);
        }
    }

    #[test]
    fn collect_is_the_filtered_listing() {
        let g = generators::rmat_graph500(10, 8, 8);
        let keep = |t: &Triangle| (t.u + t.w) % 3 == 1;
        let filtered: Vec<Triangle> = list_triangles(&g).into_iter().filter(keep).collect();
        assert!(!filtered.is_empty());
        assert_eq!(collect_triangles(&g, keep), filtered);
        assert!(collect_triangles(&g, |_| false).is_empty());
    }

    #[test]
    fn vertex_stream_is_its_higher_edges_concatenated() {
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 900, 3), 200, 4);
        let mut all = Vec::new();
        for u in 0..g.num_vertices() as VertexId {
            let mut at = Vec::new();
            for_triangles_at(&g, u, &mut |t| at.push(t));
            let mut by_edge = Vec::new();
            for (&v, &e_uv) in g.neighbors(u).iter().zip(g.neighbor_edge_ids(u)) {
                if v > u {
                    for_triangles_on_edge(&g, e_uv, &mut |t| by_edge.push(t));
                }
            }
            assert_eq!(at, by_edge, "vertex {u}");
            all.extend(at);
        }
        assert_eq!(all, list_triangles(&g));
    }

    #[test]
    fn empty_and_sparse_graphs_have_no_triangles_to_stream() {
        let empty = CsrGraph::from_pairs(0, &[]);
        assert!(list_triangles(&empty).is_empty());
        for_each_triangle(&empty, |t| panic!("triangle {t:?} in an empty graph"));
        // One triangle, a pendant vertex (3) and two isolated ones (4, 5).
        let g = CsrGraph::from_pairs(6, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let tris = list_triangles(&g);
        assert_eq!(tris.iter().map(key).collect::<Vec<_>>(), vec![(0, 1, 2)]);
        assert_eq!(count_triangles(&g), 1);
        for u in 3..6 {
            for_triangles_at(&g, u, &mut |t| panic!("triangle {t:?} at vertex {u}"));
        }
    }

    #[test]
    fn doulion_estimates_within_tolerance() {
        let g = generators::planted_triangles(&generators::erdos_renyi(2000, 8000, 9), 4000, 10);
        let exact = count_triangles(&g) as f64;
        let est: f64 = (0..5).map(|s| doulion_estimate(&g, 0.6, s)).sum::<f64>() / 5.0;
        assert!((est - exact).abs() < 0.1 * exact, "est {est} vs exact {exact}");
    }

    #[test]
    fn doulion_q1_is_exact() {
        let g = generators::complete(8);
        assert_eq!(doulion_estimate(&g, 1.0, 3) as u64, count_triangles(&g));
    }

    #[test]
    fn planted_triangles_increase_count() {
        let base = generators::erdos_renyi(500, 700, 1);
        let dense = generators::planted_triangles(&base, 300, 2);
        assert!(count_triangles(&dense) > count_triangles(&base));
    }

    use sg_graph::CsrGraph;
}
