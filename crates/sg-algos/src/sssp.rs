//! Single-source shortest paths on weighted graphs.
//!
//! Two engines: a binary-heap Dijkstra (the reference) and a Δ-stepping
//! variant (the GAPBS SSSP kernel the paper runs; the paper notes that "for
//! some graphs and roots very high p may cause slowdowns; changing Δ can
//! help but needs manual tuning", which is observable here too).

use sg_graph::{CsrGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance assigned to unreachable vertices.
pub const INF: f64 = f64::INFINITY;

/// Dijkstra from `source`. Edge weights must be non-negative; unweighted
/// graphs use weight 1 per edge (i.e. BFS distances).
pub fn dijkstra(g: &CsrGraph, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(ordered::F64, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((ordered::F64(0.0), source)));
    while let Some(Reverse((ordered::F64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        let row = g.neighbors(u);
        let eids = g.neighbor_edge_ids(u);
        for (i, &v) in row.iter().enumerate() {
            let w = g.edge_weight(eids[i]) as f64;
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((ordered::F64(nd), v)));
            }
        }
    }
    dist
}

/// Δ-stepping SSSP. `delta` buckets tentative distances; a good default is
/// the average edge weight. Falls back to Dijkstra-equivalent results
/// (asserted by tests), only the work schedule differs.
pub fn delta_stepping(g: &CsrGraph, source: VertexId, delta: f64) -> Vec<f64> {
    assert!(delta > 0.0, "delta must be positive");
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0.0;
    let bucket_of = |d: f64| (d / delta) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new()];
    buckets[0].push(source);
    let mut i = 0usize;
    while i < buckets.len() {
        // Repeatedly relax inside bucket i until it stops refilling
        // (light-edge phase folded together with heavy edges; correct, if
        // slightly more re-relaxation than the classic split).
        while let Some(batch) = {
            let b = std::mem::take(&mut buckets[i]);
            if b.is_empty() {
                None
            } else {
                Some(b)
            }
        } {
            for u in batch {
                let du = dist[u as usize];
                if bucket_of(du) != i {
                    continue; // stale entry
                }
                let row = g.neighbors(u);
                let eids = g.neighbor_edge_ids(u);
                for (idx, &v) in row.iter().enumerate() {
                    let w = g.edge_weight(eids[idx]) as f64;
                    let nd = du + w;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        let b = bucket_of(nd);
                        if b >= buckets.len() {
                            buckets.resize_with(b + 1, Vec::new);
                        }
                        buckets[b].push(v);
                    }
                }
            }
        }
        i += 1;
    }
    dist
}

/// Δ-stepping with a heuristic Δ (average edge weight, or 1 for unweighted).
pub fn delta_stepping_auto(g: &CsrGraph, source: VertexId) -> Vec<f64> {
    let m = g.num_edges().max(1);
    let delta = (g.total_weight() / m as f64).max(1e-6);
    delta_stepping(g, source, delta)
}

mod ordered {
    /// Total-order wrapper for non-NaN f64 heap keys.
    #[derive(Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("distances are never NaN")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn dijkstra_on_weighted_triangle() {
        let g = CsrGraph::from_weighted_pairs(3, &[(0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 5.0, 10.0]);
    }

    #[test]
    fn dijkstra_unweighted_is_bfs() {
        let g = generators::path(6);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = CsrGraph::from_pairs(3, &[(0, 1)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        let g =
            generators::with_random_weights(&generators::erdos_renyi(300, 1500, 7), 1.0, 10.0, 8);
        let a = dijkstra(&g, 0);
        let b = delta_stepping(&g, 0, 2.0);
        for (x, y) in a.iter().zip(&b) {
            if x.is_finite() {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            } else {
                assert!(y.is_infinite());
            }
        }
    }

    #[test]
    fn delta_stepping_auto_on_grid() {
        let g = generators::with_random_weights(&generators::grid(10, 10), 1.0, 5.0, 9);
        let a = dijkstra(&g, 0);
        let b = delta_stepping_auto(&g, 0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    use sg_graph::CsrGraph;
}
