//! The `SG` container: shared state visible to every kernel instance.
//!
//! In the paper (§4.1), `SG` is the global object kernels use to delete
//! graph elements (`SG.del`), draw randomness (`SG.rand`), and read scheme
//! parameters. Here [`SgContext`] carries the input graph, the atomic edge
//! deletion bitset subgraph kernels write, and a deterministic per-element
//! RNG: the random decision for element `x` depends only on `(seed, x)`, so
//! parallel runs are bit-identical to sequential ones.

use crate::atomic_bitset::AtomicBitset;
use sg_graph::prng;
use sg_graph::{CsrGraph, EdgeId};

/// The deterministic per-element random source behind `SG.rand`.
///
/// Factored out of [`SgContext`] so distributed executors (sg-dist's
/// sharded ranks) can draw the *exact same* per-element values without
/// materializing a full context: the decision for element `x` depends only
/// on `(seed, stream, x)`, never on who asks or in what order.
#[derive(Clone, Copy, Debug)]
pub struct DetRand {
    /// Global seed shared by every draw.
    pub seed: u64,
}

impl DetRand {
    /// A deterministic random source for `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Deterministic uniform draw in `[0, 1)` for element `element` under
    /// stream `stream`.
    #[inline]
    pub fn unit(&self, element: u64, stream: u64) -> f64 {
        prng::unit_f64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15), element)
    }

    /// Deterministic uniform integer in `[0, bound)` for `element`.
    #[inline]
    pub fn below(&self, element: u64, stream: u64, bound: u64) -> u64 {
        prng::bounded_u64(self.seed, element, stream, bound)
    }
}

/// Shared kernel-visible state for one compression run.
pub struct SgContext<'g> {
    /// The input graph (kernels have read-only structural access).
    pub graph: &'g CsrGraph,
    /// Global seed for deterministic per-element randomness.
    pub seed: u64,
    deleted_edges: AtomicBitset,
}

impl<'g> SgContext<'g> {
    /// Creates a context for `graph` with deterministic seed `seed`.
    pub fn new(graph: &'g CsrGraph, seed: u64) -> Self {
        Self { graph, seed, deleted_edges: AtomicBitset::new(graph.num_edges()) }
    }

    /// `SG.del(e)` — atomically marks edge `e` deleted. Returns true if this
    /// call performed the deletion (false if already deleted).
    #[inline]
    pub fn del_edge(&self, e: EdgeId) -> bool {
        !self.deleted_edges.set(e as usize)
    }

    /// True when edge `e` is currently marked deleted.
    #[inline]
    pub fn edge_deleted(&self, e: EdgeId) -> bool {
        self.deleted_edges.get(e as usize)
    }

    /// The context's random source as a standalone value (shared with the
    /// sharded executors in sg-dist).
    #[inline]
    pub fn rand(&self) -> DetRand {
        DetRand::new(self.seed)
    }

    /// `SG.rand(0,1)` — deterministic uniform draw for element `element`
    /// under stream `stream` (so one element can draw several independent
    /// values).
    #[inline]
    pub fn rand_unit(&self, element: u64, stream: u64) -> f64 {
        self.rand().unit(element, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn deletion_marks_are_idempotent() {
        let g = generators::cycle(5);
        let sg = SgContext::new(&g, 1);
        assert!(sg.del_edge(0));
        assert!(!sg.del_edge(0));
        assert!(sg.edge_deleted(0));
    }

    #[test]
    fn rand_is_deterministic_per_element() {
        let g = generators::cycle(5);
        let a = SgContext::new(&g, 77);
        let b = SgContext::new(&g, 77);
        for e in 0..100 {
            assert_eq!(a.rand_unit(e, 0), b.rand_unit(e, 0));
        }
        let c = SgContext::new(&g, 78);
        let diff = (0..100).filter(|&e| a.rand_unit(e, 0) != c.rand_unit(e, 0)).count();
        assert!(diff > 90);
    }
}
