//! Diameter and average path length.
//!
//! Table 3 tracks how compression stretches D (diameter) and P̄ (average
//! path length). Exact all-pairs BFS is quadratic, so larger graphs use the
//! standard double-sweep lower bound and sampled averages — the same
//! methodology approximation frameworks use.

use crate::bfs::{bfs, UNREACHABLE};
use rayon::prelude::*;
use sg_graph::prng::bounded_u64;
use sg_graph::{CsrGraph, VertexId};

/// Exact diameter of the largest component via all-sources BFS (O(nm); keep
/// to small graphs). Returns 0 for empty/edgeless graphs.
pub fn diameter_exact(g: &CsrGraph) -> u32 {
    let n = g.num_vertices();
    (0..n as VertexId).into_par_iter().map(|s| eccentricity(g, s)).max().unwrap_or(0)
}

/// Eccentricity of `s` within its component.
pub fn eccentricity(g: &CsrGraph, s: VertexId) -> u32 {
    bfs(g, s).depth.iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
}

/// Double-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest vertex found. Exact on trees, a strong lower bound elsewhere.
pub fn diameter_double_sweep(g: &CsrGraph, start: VertexId) -> u32 {
    let first = bfs(g, start);
    let far = first
        .depth
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHABLE)
        .max_by_key(|&(_, &d)| d)
        .map(|(v, _)| v as VertexId)
        .unwrap_or(start);
    eccentricity(g, far)
}

/// Average shortest-path length over sampled sources (hop distances,
/// unreachable pairs skipped).
pub fn average_path_length_sampled(g: &CsrGraph, samples: usize, seed: u64) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let sources: Vec<VertexId> = (0..samples.min(n) as u64)
        .map(|i| bounded_u64(seed ^ 0xd1a, i, 0, n as u64) as VertexId)
        .collect();
    let (sum, count) = sources
        .par_iter()
        .map(|&s| {
            let r = bfs(g, s);
            let mut sum = 0u64;
            let mut cnt = 0u64;
            for &d in &r.depth {
                if d != UNREACHABLE && d > 0 {
                    sum += d as u64;
                    cnt += 1;
                }
            }
            (sum, cnt)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn path_diameter() {
        let g = generators::path(10);
        assert_eq!(diameter_exact(&g), 9);
        assert_eq!(diameter_double_sweep(&g, 5), 9);
    }

    #[test]
    fn cycle_diameter() {
        let g = generators::cycle(8);
        assert_eq!(diameter_exact(&g), 4);
    }

    #[test]
    fn complete_diameter_one() {
        let g = generators::complete(5);
        assert_eq!(diameter_exact(&g), 1);
        assert_eq!(diameter_double_sweep(&g, 0), 1);
    }

    #[test]
    fn double_sweep_is_lower_bound() {
        let g = generators::erdos_renyi(300, 600, 1);
        assert!(diameter_double_sweep(&g, 0) <= diameter_exact(&g));
    }

    #[test]
    fn average_path_length_on_path() {
        let g = generators::path(3); // distances: 1,2 from 0; 1,1 from 1; 2,1 from 2
        let apl = average_path_length_sampled(&g, 3, 1);
        assert!(apl > 1.0 && apl < 2.0);
    }

    #[test]
    fn edgeless_graph() {
        let g = CsrGraph::from_pairs(5, &[]);
        assert_eq!(diameter_exact(&g), 0);
        assert_eq!(average_path_length_sampled(&g, 3, 1), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::from_pairs(0, &[]);
        assert_eq!(diameter_double_sweep(&g, 0), 0);
        assert_eq!(diameter_exact(&g), 0);
    }

    use sg_graph::CsrGraph;
}
