//! A fixed-size concurrent bitset.
//!
//! Subgraph kernels write deletion marks concurrently (`atomic SG.del(e)` in
//! the paper's syntax); an atomic bitset keeps that state at one bit per
//! edge.

use std::sync::atomic::{AtomicU64, Ordering};

/// A concurrent bitset over `0..len`.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitset {
    /// Creates a bitset of `len` zeroed bits.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset addresses no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64].load(Ordering::Relaxed) >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`, returning its previous value (atomic test-and-set).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_or(mask, Ordering::Relaxed) & mask != 0
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_and(!mask, Ordering::Relaxed);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn set_get_clear() {
        let bs = AtomicBitset::new(130);
        assert!(!bs.get(129));
        assert!(!bs.set(129)); // previously unset
        assert!(bs.get(129));
        assert!(bs.set(129)); // already set
        bs.clear(129);
        assert!(!bs.get(129));
    }

    #[test]
    fn count_ones() {
        let bs = AtomicBitset::new(100);
        for i in (0..100).step_by(3) {
            bs.set(i);
        }
        assert_eq!(bs.count_ones(), 34);
    }

    /// Runs one contention round: `threads` OS threads race `set` over
    /// `len` bits, each starting at a different offset so every word is
    /// hit by several threads at once. Returns the total number of wins.
    fn contention_round(len: usize, threads: usize) -> (usize, AtomicBitset) {
        let bs = AtomicBitset::new(len);
        let total = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let bs = &bs;
                    scope.spawn(move || {
                        // Stride through the whole range from a per-thread
                        // offset: every thread touches every bit, maximizing
                        // same-word fetch_or collisions.
                        let offset = t * len / threads;
                        (0..len).filter(|&i| !bs.set((i + offset) % len)).count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).sum::<usize>()
        });
        (total, bs)
    }

    #[test]
    fn contended_test_and_set_claims_each_bit_exactly_once() {
        // Real OS-thread contention (not the rayon facade): 8 threads race
        // `set` over overlapping ranges; test-and-set must hand out exactly
        // one win per bit no matter how the stores interleave.
        let (claims, bs) = contention_round(4096, 8);
        assert_eq!(claims, 4096);
        assert_eq!(bs.count_ones(), 4096);
        assert!((0..4096).all(|i| bs.get(i)));
    }

    #[test]
    fn rayon_backend_contention_claims_once() {
        // Same invariant through the rayon-shim thread pool the engine
        // actually uses (worker count follows SG_THREADS).
        let bs = AtomicBitset::new(1000);
        let claims: usize =
            (0..8u32).into_par_iter().map(|_| (0..1000).filter(|&i| !bs.set(i)).count()).sum();
        assert_eq!(claims, 1000);
        assert_eq!(bs.count_ones(), 1000);
    }

    #[test]
    #[ignore = "loom-style stress loop; run with `cargo test -- --ignored`"]
    fn repeated_contention_stress() {
        // Loom-style in spirit: hammer many interleavings by re-running the
        // race with varied sizes (word-aligned and not) and thread counts.
        for round in 0..200 {
            let len = 64 * (round % 7 + 1) + round % 13;
            let threads = 2 + round % 14;
            let (claims, bs) = contention_round(len, threads);
            assert_eq!(claims, len, "round {round}: duplicate or lost claim");
            assert_eq!(bs.count_ones(), len, "round {round}: bit dropped");
        }
    }

    #[test]
    fn empty_bitset() {
        let bs = AtomicBitset::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.count_ones(), 0);
    }
}
