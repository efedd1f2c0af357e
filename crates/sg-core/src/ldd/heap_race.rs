//! The binary-heap race [`super::low_diameter_decomposition`] was until it
//! ran in rounds, kept as the reference the round-by-round race is compared
//! against. Test-only: `ldd.rs` compiles it under `#[cfg(test)]`, and
//! `tests/proptest_core.rs` includes this file by path — which is why it
//! names nothing of `sg-core`.

use sg_graph::prng::unit_f64;
use sg_graph::{CsrGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order f64 key for heaps.
#[derive(Clone, Copy, PartialEq)]
struct Key(f64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("keys are never NaN")
    }
}

/// The start keys `δ_max - δ_v` of an `n`-vertex race, `δ_v ~ Exp(beta)`.
pub fn start_keys(n: usize, beta: f64, seed: u64) -> Vec<f64> {
    let shifts: Vec<f64> =
        (0..n as u64).map(|v| -(1.0 - unit_f64(seed ^ 0x1dd, v)).ln() / beta).collect();
    let delta_max = shifts.iter().copied().fold(0.0f64, f64::max);
    shifts.iter().map(|shift| delta_max - shift).collect()
}

/// Multi-source Dijkstra over unit-length edges in which vertex `v` enters
/// at key `start[v]`: the first center to reach a vertex claims it. Returns
/// the claiming center of every vertex.
pub fn heap_race(g: &CsrGraph, start: &[f64]) -> Vec<VertexId> {
    let mut owner: Vec<u32> = vec![u32::MAX; start.len()];
    let mut heap: BinaryHeap<Reverse<(Key, VertexId, VertexId)>> = BinaryHeap::new();
    for (v, &key) in start.iter().enumerate() {
        heap.push(Reverse((Key(key), v as VertexId, v as VertexId)));
    }
    while let Some(Reverse((Key(d), v, center))) = heap.pop() {
        if owner[v as usize] != u32::MAX {
            continue;
        }
        owner[v as usize] = center;
        for &w in g.neighbors(v) {
            if owner[w as usize] == u32::MAX {
                heap.push(Reverse((Key(d + 1.0), w, center)));
            }
        }
    }
    owner
}
