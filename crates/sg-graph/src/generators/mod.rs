//! Seeded synthetic graph generators.
//!
//! The paper evaluates on SNAP/KONECT/WebGraph datasets; those are not
//! redistributable here, so every experiment runs on seeded synthetic
//! analogs ([`presets`] maps each of the paper's graphs to the regime its
//! stand-in has to match). The generators
//! cover the structural regimes the evaluation varies over: degree skew
//! (R-MAT, Barabási–Albert), triangle density (planted triangles,
//! Watts–Strogatz), and near-planar sparsity (grids as road networks).

pub mod presets;

use crate::edge_list::EdgeList;
use crate::prng::{bounded_u64, element_rng, unit_f64};
use crate::types::{VertexId, Weight};
use crate::CsrGraph;
use rand::Rng;
use rayon::prelude::*;

/// Erdős–Rényi G(n, m): `m` edges sampled uniformly (duplicates removed, so
/// the realized edge count can be slightly below `m`).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2, "need at least two vertices");
    let pairs: Vec<(VertexId, VertexId)> = (0..m as u64)
        .into_par_iter()
        .map(|e| {
            let u = bounded_u64(seed, e, 0, n as u64) as VertexId;
            let mut v = bounded_u64(seed, e, 1, n as u64 - 1) as VertexId;
            if v >= u {
                v += 1; // uniform over vertices != u
            }
            (u, v)
        })
        .collect();
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges: pairs, weights: None })
}

/// R-MAT (Graph500 flavour): recursive quadrant descent with probabilities
/// `(a, b, c, d)`. `scale` gives `n = 2^scale`; `edge_factor` gives
/// `m ≈ edge_factor * n`. Skewed, power-law-ish degree distributions — the
/// stand-in for the paper's web/social graphs.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> CsrGraph {
    let n = 1usize << scale;
    let m = edge_factor * n;
    let pairs: Vec<(VertexId, VertexId)> = (0..m as u64)
        .into_par_iter()
        .map(|e| {
            let mut u = 0u64;
            let mut v = 0u64;
            for level in 0..scale as u64 {
                let r = unit_f64(seed ^ 0x5eed_0001, e * 64 + level);
                let (du, dv) = if r < a {
                    (0, 0)
                } else if r < a + b {
                    (0, 1)
                } else if r < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            (u as VertexId, v as VertexId)
        })
        .collect();
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges: pairs, weights: None })
}

/// Graph500 default R-MAT parameters (a=0.57, b=0.19, c=0.19).
pub fn rmat_graph500(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// Barabási–Albert preferential attachment: starts from a `k`-clique; each
/// new vertex attaches `k` edges, targets drawn proportionally to degree via
/// the repeated-endpoints trick. Sequential by nature (each step depends on
/// the previous), but fast enough for the evaluation scales.
pub fn barabasi_albert(n: usize, k: usize, seed: u64) -> CsrGraph {
    assert!(k >= 1 && n > k, "need n > k >= 1");
    let mut rng = element_rng(seed, 0xba);
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * k);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n * k);
    // Seed clique over vertices 0..=k.
    for u in 0..=k as VertexId {
        for v in 0..u {
            edges.push((v, u));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (k + 1)..n {
        let u = u as VertexId;
        for _ in 0..k {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            edges.push((t, u));
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges, weights: None })
}

/// Watts–Strogatz small world: ring lattice where each vertex connects to
/// its `k` nearest neighbors on each side, each edge rewired with
/// probability `beta`. High clustering (many triangles) at low `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(n > 2 * k, "ring too small for k");
    let pairs: Vec<(VertexId, VertexId)> = (0..n as u64)
        .into_par_iter()
        .flat_map_iter(|u| {
            let n64 = n as u64;
            (1..=k as u64).map(move |d| {
                let e = u * k as u64 + d;
                let v = (u + d) % n64;
                if unit_f64(seed ^ 0x57a7, e) < beta {
                    // Rewire the far endpoint uniformly.
                    let mut w = bounded_u64(seed ^ 0x57a8, e, 0, n64 - 1);
                    if w >= u {
                        w += 1;
                    }
                    (u as VertexId, w as VertexId)
                } else {
                    (u as VertexId, v as VertexId)
                }
            })
        })
        .collect();
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges: pairs, weights: None })
}

/// 2-D grid (road-network stand-in): `w * h` vertices, 4-neighbor lattice.
pub fn grid(w: usize, h: usize) -> CsrGraph {
    let id = |x: usize, y: usize| (y * w + x) as VertexId;
    let mut edges = Vec::with_capacity(2 * w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    CsrGraph::from_edge_list(EdgeList { num_vertices: w * h, edges, weights: None })
}

/// Complete graph K_n (tiny sizes only; used by tests and bound checks).
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges, weights: None })
}

/// Path graph 0-1-2-…-(n-1).
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<_> = (0..n.saturating_sub(1) as VertexId).map(|u| (u, u + 1)).collect();
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges, weights: None })
}

/// Cycle graph.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3);
    let mut edges: Vec<_> = (0..n as VertexId - 1).map(|u| (u, u + 1)).collect();
    edges.push((n as VertexId - 1, 0));
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges, weights: None })
}

/// Star graph: vertex 0 connected to all others (degree-1 leaves — exercises
/// the low-degree vertex kernel).
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<_> = (1..n as VertexId).map(|v| (0, v)).collect();
    CsrGraph::from_edge_list(EdgeList { num_vertices: n, edges, weights: None })
}

/// Base graph plus `extra_triangles` planted triangles over random vertex
/// triples. Controls the triangles-per-vertex regime (the paper picks graphs
/// with T/n ∈ {20, 80, 1052}).
pub fn planted_triangles(base: &CsrGraph, extra_triangles: usize, seed: u64) -> CsrGraph {
    let n = base.num_vertices() as u64;
    assert!(n >= 3);
    let mut el = base.to_edge_list();
    let extra: Vec<(VertexId, VertexId)> = (0..extra_triangles as u64)
        .into_par_iter()
        .flat_map_iter(|t| {
            let a = bounded_u64(seed ^ 0x7001, t, 0, n) as VertexId;
            let mut b = bounded_u64(seed ^ 0x7002, t, 1, n - 1) as VertexId;
            let mut c = bounded_u64(seed ^ 0x7003, t, 2, n - 2) as VertexId;
            if b >= a {
                b += 1;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            if c >= lo {
                c += 1;
            }
            if c >= hi {
                c += 1;
            }
            [(a, b), (b, c), (a, c)].into_iter()
        })
        .collect();
    el.edges.extend(extra);
    CsrGraph::from_edge_list(el)
}

/// Attaches uniform random weights in `[lo, hi)` to an unweighted graph.
pub fn with_random_weights(g: &CsrGraph, lo: Weight, hi: Weight, seed: u64) -> CsrGraph {
    let el = g.to_edge_list();
    let weights: Vec<Weight> = (0..el.edges.len() as u64)
        .into_par_iter()
        .map(|e| lo + (hi - lo) * unit_f64(seed ^ 0x3e11, e) as Weight)
        .collect();
    let el = EdgeList { num_vertices: el.num_vertices, edges: el.edges, weights: Some(weights) };
    if g.is_directed() {
        CsrGraph::from_edge_list_directed(el)
    } else {
        CsrGraph::from_edge_list(el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_has_roughly_m_edges() {
        let g = erdos_renyi(1000, 5000, 1);
        assert!(g.num_edges() > 4800 && g.num_edges() <= 5000, "m = {}", g.num_edges());
        assert_eq!(g.num_vertices(), 1000);
    }

    #[test]
    fn er_deterministic() {
        let a = erdos_renyi(500, 2000, 9);
        let b = erdos_renyi(500, 2000, 9);
        assert_eq!(a.edge_slice(), b.edge_slice());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat_graph500(10, 8, 3);
        assert_eq!(g.num_vertices(), 1024);
        // Max degree should far exceed average for skewed graphs.
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
    }

    #[test]
    fn ba_degrees_sum() {
        let n = 2000;
        let k = 3;
        let g = barabasi_albert(n, k, 7);
        // Roughly k edges per vertex beyond the seed clique (duplicates from
        // repeated target draws are removed during canonicalization).
        assert!(g.num_edges() as f64 >= 0.9 * ((n - k - 1) * k) as f64);
        assert_eq!(g.num_vertices(), n);
    }

    #[test]
    fn ws_triangle_rich_at_low_beta() {
        let g = watts_strogatz(500, 5, 0.05, 11);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 2000);
    }

    #[test]
    fn grid_structure() {
        let g = grid(4, 3);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn complete_k5() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn star_has_leaves() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.degree(5), 1);
    }

    #[test]
    fn planted_triangles_adds_edges() {
        let base = erdos_renyi(300, 300, 5);
        let g = planted_triangles(&base, 200, 6);
        assert!(g.num_edges() > base.num_edges());
    }

    #[test]
    fn random_weights_in_range() {
        let g = with_random_weights(&cycle(10), 1.0, 5.0, 2);
        assert!(g.is_weighted());
        for (e, _, _) in g.edge_iter() {
            let w = g.edge_weight(e);
            assert!((1.0..5.0).contains(&w));
        }
    }
}
