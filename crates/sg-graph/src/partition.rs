//! Edge partitioning for the simulated distributed pipeline (`sg-dist`).
//!
//! The paper's distributed engine assigns edges to MPI ranks; we reproduce
//! the same 1-D edge partitioning so each simulated rank runs edge kernels
//! over a contiguous shard of the canonical edge array.

use crate::types::EdgeId;
use crate::CsrGraph;

/// A contiguous shard of canonical edge ids owned by one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeShard {
    pub rank: usize,
    pub start: EdgeId,
    pub end: EdgeId,
}

impl EdgeShard {
    /// Number of edges in the shard.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the shard owns no edges.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterator over the shard's edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        self.start..self.end
    }
}

/// Splits the canonical edge array into `ranks` balanced contiguous shards.
pub fn partition_edges(g: &CsrGraph, ranks: usize) -> Vec<EdgeShard> {
    assert!(ranks > 0, "need at least one rank");
    let m = g.num_edges();
    let base = m / ranks;
    let extra = m % ranks;
    let mut shards = Vec::with_capacity(ranks);
    let mut start = 0usize;
    for rank in 0..ranks {
        let len = base + usize::from(rank < extra);
        shards.push(EdgeShard { rank, start: start as EdgeId, end: (start + len) as EdgeId });
        start += len;
    }
    shards
}

/// Splits the vertex set into `ranks` balanced contiguous ranges (the
/// ownership ranges of `sg-dist`'s vertex and triangle plans).
pub fn partition_vertices(n: usize, ranks: usize) -> Vec<(usize, usize)> {
    assert!(ranks > 0);
    let base = n / ranks;
    let extra = n % ranks;
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0;
    for rank in 0..ranks {
        let len = base + usize::from(rank < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn shards_cover_all_edges_exactly_once() {
        let g = generators::erdos_renyi(200, 997, 1);
        let shards = partition_edges(&g, 7);
        assert_eq!(shards.len(), 7);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.num_edges());
        for w in shards.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(shards[0].start, 0);
        assert_eq!(shards[6].end as usize, g.num_edges());
    }

    #[test]
    fn shards_balanced() {
        let g = generators::erdos_renyi(100, 500, 2);
        let shards = partition_edges(&g, 3);
        let lens: Vec<_> = shards.iter().map(|s| s.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn more_ranks_than_edges() {
        let g = generators::path(3); // 2 edges
        let shards = partition_edges(&g, 5);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 2);
        assert!(shards.iter().filter(|s| s.is_empty()).count() >= 3);
    }

    #[test]
    fn vertex_partition_covers() {
        let parts = partition_vertices(10, 4);
        assert_eq!(parts, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
    }
}
