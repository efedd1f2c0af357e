//! Offline shim for [`rayon`](https://crates.io/crates/rayon) with a **real
//! multi-threaded backend** built on [`std::thread::scope`].
//!
//! The build container has no registry access, so this crate provides the
//! exact `rayon` surface the workspace uses. Unlike the original sequential
//! facade, work is now genuinely parallel: every parallel iterator is an
//! *indexed* pipeline over a base source (a range, a slice, a zip of
//! slices). At a terminal operation the base index space is split into
//! contiguous chunks, [`pool`] worker threads pull chunks off a shared
//! atomic cursor, each chunk runs the whole adapter pipeline sequentially,
//! and the per-chunk results are combined **in chunk order**.
//!
//! # Determinism contract
//!
//! Chunk boundaries depend only on the *length* of the base source — never
//! on the thread count (see [`iter::chunk_bounds`]). Because every
//! combining step (collect concatenation, `sum`, `fold`+`reduce`, `max`)
//! merges per-chunk results left-to-right in chunk order, the full result —
//! including the exact floating-point rounding — is **bit-identical at any
//! thread count**, including the sequential fallback at 1 thread. The
//! top-level contract harness (`tests/contract/`) pins this contract for
//! every compression scheme and stage-2 algorithm in the workspace.
//!
//! The same reasoning makes the slice sorts deterministic: the
//! `par_sort_unstable*` entry points are backed by a *stable* parallel
//! merge sort (per-chunk stable sorts, then index merges that prefer the
//! left run on ties), and a stable sort's output is the unique
//! stability-preserving permutation regardless of how many runs it was
//! split into.
//!
//! # Thread count
//!
//! The worker count comes from, in priority order:
//!
//! 1. [`with_num_threads`] (a shim-only override scoped to one closure),
//! 2. the `SG_THREADS` environment variable,
//! 3. the `RAYON_NUM_THREADS` environment variable (rayon compatible),
//! 4. [`std::thread::available_parallelism`].
//!
//! At 1 thread no threads are spawned and chunks run inline on the caller.
//! Workers live in a **persistent process-wide pool** ([`pool`]): they are
//! spawned lazily on the first multi-threaded terminal op, grow to the
//! largest worker count ever requested, and park between ops — a daemon
//! serving many small requests no longer pays a spawn/join per request.
//! Nested parallel calls made *from* a pool worker run inline over the
//! same chunk order (a worker must never block on the pool), so nesting
//! can never deadlock and never changes results.

pub mod iter;
mod obs;
pub mod pool;
pub mod range;
pub mod slice;

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
    pub use crate::slice::ParallelSliceOps;
}

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Programmatic thread-count override; 0 means "unset, use the default".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Environment/default thread count, resolved once per process.
static DEFAULT: OnceLock<usize> = OnceLock::new();
/// Held by whoever has moved [`OVERRIDE`]: one scope at a time per process.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

fn default_num_threads() -> usize {
    *DEFAULT.get_or_init(|| {
        for var in ["SG_THREADS", "RAYON_NUM_THREADS"] {
            if let Ok(raw) = std::env::var(var) {
                if let Ok(n) = raw.trim().parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Number of worker threads terminal operations may use (rayon-compatible
/// entry point).
pub fn current_num_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_num_threads(),
        n => n,
    }
}

/// Runs `f` with every parallel call in the process using `threads`
/// workers (0: the environment-derived default), then restores the count
/// that was in force before — also when `f` panics.
///
/// Shim-only API, shaped like real rayon's `ThreadPool::install`: results
/// never depend on the thread count, so this is a performance knob and a
/// test hook, not a semantic one. The count is process-wide, so one
/// process-wide lock admits one scope at a time, and a panic inside a scope
/// does not poison it. Scopes do not nest: a call from inside `f` on the
/// same thread panics rather than wait on the lock its caller holds.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    thread_local! {
        static IN_SCOPE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
            IN_SCOPE.with(|s| s.set(false));
        }
    }
    assert!(!IN_SCOPE.with(|s| s.replace(true)), "with_num_threads scopes do not nest");
    let _lock = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Declared after the lock, so it drops (and restores) before unlocking.
    let _restore = Restore(OVERRIDE.swap(threads, Ordering::Relaxed));
    f()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::with_num_threads;

    /// Runs `f` at several thread counts and asserts all results agree.
    fn invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
        let base = with_num_threads(1, &f);
        for t in [2, 4, 8] {
            let got = with_num_threads(t, &f);
            assert_eq!(got, base, "result changed at {t} threads");
        }
        base
    }

    #[test]
    fn a_panicking_scope_restores_the_default_and_releases_the_lock() {
        let default = crate::default_num_threads();
        let r = std::panic::catch_unwind(|| {
            with_num_threads(default + 3, || {
                assert_eq!(crate::current_num_threads(), default + 3);
                panic!("mid-scope panic");
            })
        });
        assert!(r.is_err());
        {
            // The panic poisoned the lock; holding it, no other scope can
            // move the count while it is read.
            let _lock = crate::SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(crate::current_num_threads(), default, "the override outlived its scope");
        }
        // The next scope neither blocks on the poisoned lock nor panics.
        let sum = with_num_threads(4, || (0u64..1000).into_par_iter().sum::<u64>());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn a_nested_scope_panics_instead_of_deadlocking() {
        let nested = with_num_threads(2, || {
            let r = std::panic::catch_unwind(|| with_num_threads(3, || ()));
            assert_eq!(crate::current_num_threads(), 2, "the outer scope's count holds");
            r
        });
        assert!(nested.is_err(), "a nested scope must panic");
        assert_eq!(with_num_threads(5, crate::current_num_threads), 5);
    }

    #[test]
    fn range_and_slice_paths_work() {
        let v: Vec<u32> = (0u32..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.par_iter().sum::<u32>(), 90);
        let mut w = vec![3, 1, 2];
        w.par_sort_unstable();
        assert_eq!(w, [1, 2, 3]);
    }

    #[test]
    fn map_collect_preserves_order_at_any_thread_count() {
        let out = invariant(|| (0u64..10_000).into_par_iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(out, (0u64..10_000).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn filter_and_filter_map_keep_base_order() {
        let out = invariant(|| {
            (0u32..5_000).into_par_iter().filter(|&x| x % 3 == 0).map(|x| x + 1).collect::<Vec<_>>()
        });
        assert_eq!(out, (0u32..5_000).filter(|&x| x % 3 == 0).map(|x| x + 1).collect::<Vec<_>>());
        let fm = invariant(|| {
            (0i64..999)
                .into_par_iter()
                .filter_map(|x| (x % 7 == 0).then_some(-x))
                .collect::<Vec<_>>()
        });
        assert_eq!(fm.len(), 143);
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).sin() / 3.0).collect();
        let bits = invariant(|| data.par_iter().map(|&x| x * 1.000001).sum::<f64>().to_bits());
        assert!(f64::from_bits(bits).is_finite());
    }

    #[test]
    fn fold_reduce_matches_sequential_semantics() {
        // Histogram via per-chunk accumulators merged in order.
        let hist = invariant(|| {
            (0usize..10_000)
                .into_par_iter()
                .fold(
                    || vec![0u32; 10],
                    |mut acc, x| {
                        acc[x % 10] += 1;
                        acc
                    },
                )
                .reduce(
                    || vec![0u32; 10],
                    |mut a, b| {
                        for (x, y) in a.iter_mut().zip(&b) {
                            *x += y;
                        }
                        a
                    },
                )
        });
        assert_eq!(hist, vec![1000u32; 10]);
    }

    #[test]
    fn zip_enumerate_and_flat_map_iter() {
        let a: Vec<u32> = (0..1000).collect();
        let b: Vec<u32> = (0..1000).map(|x| 2 * x).collect();
        let dot = invariant(|| a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum::<u32>());
        assert_eq!(dot, (0..1000u32).map(|x| x * 2 * x).sum());
        let idx =
            invariant(|| a.par_iter().enumerate().map(|(i, &x)| i as u32 + x).collect::<Vec<_>>());
        assert_eq!(idx[999], 1998);
        let fm =
            invariant(|| (0u32..100).into_par_iter().flat_map_iter(|x| [x, x]).collect::<Vec<_>>());
        assert_eq!(fm.len(), 200);
        assert_eq!(&fm[..4], &[0, 0, 1, 1]);
    }

    #[test]
    fn max_min_any_count() {
        assert_eq!(invariant(|| (0u32..12345).into_par_iter().max()), Some(12344));
        assert_eq!(invariant(|| (5u32..12345).into_par_iter().min()), Some(5));
        assert!(invariant(|| (0u32..12345).into_par_iter().any(|x| x == 9999)));
        assert!(!invariant(|| (0u32..12345).into_par_iter().any(|x| x > 99999)));
        assert_eq!(
            invariant(|| (0u32..9999).into_par_iter().filter(|&x| x % 2 == 0).count()),
            5000
        );
    }

    #[test]
    fn par_iter_mut_and_chunks_mut_cover_all_elements() {
        with_num_threads(4, || {
            let mut v = vec![1u64; 10_000];
            v.par_iter_mut().enumerate().for_each(|(i, x)| *x += i as u64);
            assert_eq!(v[9_999], 10_000);
            let mut m = vec![0u8; 1000];
            m.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
                for x in chunk.iter_mut() {
                    *x = (i % 251) as u8 + 1;
                }
            });
            assert!(m.iter().all(|&x| x != 0));
        });
    }

    #[test]
    fn parallel_sort_is_stable_and_thread_invariant() {
        // Keys collide heavily; the payload records the original position.
        let data: Vec<(u8, u32)> =
            (0..50_000u32).map(|i| ((i.wrapping_mul(2654435761) % 7) as u8, i)).collect();
        let sorted = invariant(|| {
            let mut v = data.clone();
            v.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
            v
        });
        let mut expect = data.clone();
        expect.sort_by_key(|a| a.0); // std stable sort = the unique stable order
        assert_eq!(sorted, expect);
    }

    #[test]
    fn sort_by_key_and_plain_sort() {
        let mut v: Vec<u32> = (0..20_000).map(|i: u32| i.wrapping_mul(48271) % 65536).collect();
        let mut w = v.clone();
        with_num_threads(8, || {
            v.par_sort_unstable();
            w.sort_unstable();
            assert_eq!(v, w);
            let mut pairs: Vec<(u32, u32)> = (0..9999u32).map(|i| (i % 13, i)).collect();
            pairs.par_sort_unstable_by_key(|&(k, _)| k);
            assert!(pairs.windows(2).all(|p| p[0].0 <= p[1].0));
        });
    }

    #[test]
    fn offset_collect_indexed_matches_sequential() {
        // zip + map + enumerate + copied all keep the indexed fast path
        // (per-chunk windows into one pre-sized buffer); filter drops to
        // the concatenating path. Both must agree with sequential exactly.
        let a: Vec<u64> = (0..30_011).collect();
        let b: Vec<u64> = (0..30_011).map(|x| x ^ 0x5a).collect();
        let zipped = invariant(|| {
            a.par_iter().zip(b.par_iter()).map(|(&x, &y)| x.wrapping_mul(3) + y).collect::<Vec<_>>()
        });
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_mul(3) + y).collect();
        assert_eq!(zipped, expect);
        let en = invariant(|| a.par_iter().copied().enumerate().collect::<Vec<_>>());
        assert!(en.iter().all(|&(i, x)| i as u64 == x));
        let filtered =
            invariant(|| a.par_iter().copied().filter(|x| x % 3 == 0).collect::<Vec<_>>());
        assert_eq!(filtered, a.iter().copied().filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_merge_rounds_preserve_stability_with_odd_run_counts() {
        // 5 workers -> 5 sorted runs -> pairing rounds of (2,2,1), (2,1),
        // (1): both the odd-run pass-through and multi-round concurrent
        // merging execute, and the stable order must survive all of it.
        let data: Vec<(u8, u32)> =
            (0..40_000u32).map(|i| ((i.wrapping_mul(2246822519) % 5) as u8, i)).collect();
        let mut expect = data.clone();
        expect.sort_by_key(|p| p.0);
        for t in [1, 3, 5, 8] {
            let mut v = data.clone();
            with_num_threads(t, || v.par_sort_unstable_by_key(|p| p.0));
            assert_eq!(v, expect, "stable order must hold at {t} threads");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        with_num_threads(8, || {
            let empty: Vec<u32> = (0u32..0).into_par_iter().collect();
            assert!(empty.is_empty());
            assert_eq!((0u32..0).into_par_iter().sum::<u32>(), 0);
            assert_eq!((0u32..0).into_par_iter().max(), None);
            assert_eq!((0u32..1).into_par_iter().collect::<Vec<_>>(), vec![0]);
            let mut one = [3u8];
            one.par_sort_unstable();
        });
    }

    #[test]
    fn chunks_run_on_spawned_worker_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        with_num_threads(4, || {
            let caller = std::thread::current().id();
            let ids = Mutex::new(HashSet::new());
            (0u32..64).into_par_iter().for_each(|_| {
                ids.lock().expect("no poison").insert(std::thread::current().id());
                std::thread::yield_now();
            });
            let ids = ids.into_inner().expect("no poison");
            // With >1 configured workers every chunk runs on a spawned thread,
            // never inline on the caller (how many workers get scheduled is up
            // to the OS, so that is all we can assert deterministically).
            assert!(!ids.is_empty() && !ids.contains(&caller), "chunks ran inline on the caller");
        });
    }

    #[test]
    fn nested_parallelism_runs_inline_and_agrees() {
        // A parallel op issued from inside a pool worker must not block on
        // the pool (deadlock) and must produce the sequential answer.
        let nested = invariant(|| {
            (0u64..64)
                .into_par_iter()
                .map(|x| (0u64..100).into_par_iter().map(|y| x * y).sum::<u64>())
                .collect::<Vec<_>>()
        });
        let expect: Vec<u64> = (0u64..64).map(|x| (0u64..100).map(|y| x * y).sum()).collect();
        assert_eq!(nested, expect);
    }

    #[test]
    fn pool_survives_panics_and_keeps_serving() {
        with_num_threads(4, || {
            for _ in 0..3 {
                let r = std::panic::catch_unwind(|| {
                    (0u32..500).into_par_iter().for_each(|x| {
                        if x == 250 {
                            panic!("mid-op panic");
                        }
                    });
                });
                assert!(r.is_err());
                let sum: u64 = (0u64..10_000).into_par_iter().sum();
                assert_eq!(sum, 49_995_000, "pool must keep working after a panic");
            }
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let result = with_num_threads(4, || {
            std::panic::catch_unwind(|| {
                (0u32..1000).into_par_iter().for_each(|x| {
                    if x == 777 {
                        panic!("boom");
                    }
                });
            })
        });
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }
}
