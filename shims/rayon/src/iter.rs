//! The parallel-iterator layer: an indexed chunk-splitting design.
//!
//! Every parallel iterator describes a pipeline over an indexed *base*
//! (a range, a slice, a zip of slices). [`ParallelIterator::seq_chunk`]
//! instantiates the whole pipeline as a plain sequential [`Iterator`] over
//! one contiguous sub-range of the base; the `drive` function splits the
//! base into [`chunk_bounds`]-determined chunks, hands them to the
//! persistent [`crate::pool`] workers through an atomic cursor, and
//! returns the per-chunk results **in chunk order**. Terminal operations combine that ordered
//! vector left-to-right, which is what makes every result — floating-point
//! rounding included — independent of the thread count (see the crate
//! docs).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Fixed upper bound on the number of chunks a terminal operation splits
/// its base into. Must depend on nothing but compile-time constants so that
/// chunk boundaries — and therefore combination trees — are a pure function
/// of the base length.
const MAX_CHUNKS: usize = 64;

/// Splits `0..len` into at most `MAX_CHUNKS` contiguous ranges whose
/// sizes differ by at most one. A pure function of `len` — never of the
/// thread count — which is the heart of the determinism contract.
pub fn chunk_bounds(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = len.min(MAX_CHUNKS);
    let base = len / chunks;
    let rem = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let end = start + base + usize::from(i < rem);
        bounds.push(start..end);
        start = end;
    }
    bounds
}

/// Runs `per_chunk` over every chunk of `p`'s base index space and returns
/// the results in chunk order. With more than one configured thread the
/// chunks are distributed dynamically (persistent pool workers pull the
/// next chunk index from an atomic cursor — see [`crate::pool`]); at one
/// thread, or when already running *on* a pool worker (nested
/// parallelism), everything runs inline. A panic in any chunk is
/// propagated to the caller after all workers have stopped.
pub(crate) fn drive<P, R, F>(p: &P, per_chunk: F) -> Vec<R>
where
    P: ParallelIterator + Sync,
    R: Send,
    F: Fn(&P, Range<usize>) -> R + Sync,
{
    let bounds = chunk_bounds(p.base_len());
    if bounds.is_empty() {
        return Vec::new();
    }
    let workers = crate::current_num_threads().min(bounds.len());
    if workers <= 1 || crate::pool::on_worker_thread() {
        crate::obs::record_op(bounds.len(), 1);
        return bounds.into_iter().map(|r| per_chunk(p, r)).collect();
    }
    crate::obs::record_op(bounds.len(), workers);
    let cursor = AtomicUsize::new(0);
    let collected: std::sync::Mutex<Vec<(usize, R)>> =
        std::sync::Mutex::new(Vec::with_capacity(bounds.len()));
    let ticket = || {
        let mut mine: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(range) = bounds.get(i) else { break };
            mine.push((i, per_chunk(p, range.clone())));
        }
        if !mine.is_empty() {
            collected.lock().unwrap_or_else(|e| e.into_inner()).extend(mine);
        }
    };
    crate::pool::submit(workers, &ticket).join();
    let tagged = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<Option<R>> = Vec::with_capacity(bounds.len());
    out.resize_with(bounds.len(), || None);
    for (i, r) in tagged {
        out[i] = Some(r);
    }
    out.into_iter().map(|o| o.expect("every chunk ran exactly once")).collect()
}

/// Like [`drive`], but *folds* the per-chunk results with `combine` instead
/// of materializing them all: partials are merged strictly in chunk order
/// as they arrive (out-of-order completions wait in a stash), so the
/// combination tree is the same left fold as [`drive`]'s — still
/// thread-invariant — while peak memory stays at the accumulator plus the
/// chunks currently in flight rather than one retained partial per chunk.
/// Returns `None` for an empty base.
pub(crate) fn drive_fold<P, R, F, M>(p: &P, per_chunk: F, mut combine: M) -> Option<R>
where
    P: ParallelIterator + Sync,
    R: Send,
    F: Fn(&P, Range<usize>) -> R + Sync,
    M: FnMut(R, R) -> R,
{
    let bounds = chunk_bounds(p.base_len());
    if bounds.is_empty() {
        return None;
    }
    let workers = crate::current_num_threads().min(bounds.len());
    if workers <= 1 || crate::pool::on_worker_thread() {
        crate::obs::record_op(bounds.len(), 1);
        // Inline: one live partial at a time.
        let mut acc: Option<R> = None;
        for range in bounds {
            let part = per_chunk(p, range);
            acc = Some(match acc {
                None => part,
                Some(a) => combine(a, part),
            });
        }
        return acc;
    }
    crate::obs::record_op(bounds.len(), workers);
    let cursor = AtomicUsize::new(0);
    // Per-chunk partials land in `slots`; the caller merges them in chunk
    // order as they become ready. `live_tickets` lets the caller stop
    // waiting if a ticket dies mid-chunk (the pool re-raises the panic in
    // `join` below).
    struct FoldState<R> {
        slots: Vec<Option<R>>,
        live_tickets: usize,
    }
    let sync = std::sync::Mutex::new(FoldState {
        slots: {
            let mut v: Vec<Option<R>> = Vec::with_capacity(bounds.len());
            v.resize_with(bounds.len(), || None);
            v
        },
        live_tickets: workers,
    });
    let ready = std::sync::Condvar::new();
    let ticket = || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(range) = bounds.get(i) else { break };
            let part = per_chunk(p, range.clone());
            let mut st = sync.lock().unwrap_or_else(|e| e.into_inner());
            st.slots[i] = Some(part);
            drop(st);
            ready.notify_all();
        }));
        let mut st = sync.lock().unwrap_or_else(|e| e.into_inner());
        st.live_tickets -= 1;
        drop(st);
        ready.notify_all();
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload); // recorded by the pool group
        }
    };
    let handle = crate::pool::submit(workers, &ticket);
    let mut acc: Option<R> = None;
    let mut next = 0usize;
    {
        let mut st = sync.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            while next < bounds.len() && st.slots[next].is_some() {
                let part = st.slots[next].take().expect("checked is_some");
                drop(st); // combine outside the lock
                acc = Some(match acc.take() {
                    None => part,
                    Some(a) => combine(a, part),
                });
                next += 1;
                st = sync.lock().unwrap_or_else(|e| e.into_inner());
            }
            if next == bounds.len() || st.live_tickets == 0 {
                break;
            }
            st = ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    handle.join(); // re-raises a ticket panic here
    assert_eq!(next, bounds.len(), "every chunk merges exactly once");
    acc
}

/// Offset-writing collect for indexed pipelines: allocates one buffer of
/// exactly `base_len` slots and has every chunk write its items directly
/// into its own window (`chunk.start..chunk.end`) of that buffer. The
/// windows are disjoint by construction — the same contract that makes
/// mutable slice chunking sound — and the values land at the same positions
/// the concatenating path would put them, so the result is identical.
///
/// Each chunk asserts it produced exactly one item per base position before
/// finishing, so a broken `INDEXED` claim panics instead of exposing
/// uninitialized memory; `set_len` runs only after every chunk completed.
/// If a chunk panics mid-write the buffer is dropped at length 0 — already
/// written items leak, but nothing is double-dropped or read uninitialized.
fn indexed_collect<P>(p: P) -> Vec<P::Item>
where
    P: ParallelIterator + Sync,
{
    let len = p.base_len();
    let mut buf: Vec<P::Item> = Vec::with_capacity(len);
    struct SendPtr<T>(*mut T);
    // SAFETY: only disjoint windows are written through the pointer.
    unsafe impl<T: Send> Send for SendPtr<T> {}
    // SAFETY: see `Send`.
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    let base = SendPtr(buf.as_mut_ptr());
    let base = &base;
    drive(&p, |p, r| {
        let mut at = r.start;
        let end = r.end;
        for item in unsafe { p.seq_chunk(r.clone()) } {
            assert!(at < end, "indexed pipeline produced more than one item per base position");
            // SAFETY: `at` lies in this chunk's window, windows are
            // disjoint across chunks, and each slot is written once.
            unsafe { base.0.add(at).write(item) };
            at += 1;
        }
        assert_eq!(at, end, "indexed pipeline produced fewer items than base positions");
    });
    // SAFETY: every chunk filled its whole window (asserted above), and the
    // windows partition 0..len, so all `len` slots are initialized.
    unsafe { buf.set_len(len) };
    buf
}

/// A parallel iterator: an indexed pipeline that can be instantiated as a
/// sequential iterator over any contiguous chunk of its base.
///
/// Mirrors the `rayon::iter::ParallelIterator` surface this workspace uses;
/// adapters compose pipelines, terminal operations execute them via
/// `drive`. Unlike real rayon there is no indexed/unindexed trait split —
/// everything here is chunked at the indexed base, which preserves rayon's
/// observable semantics (order-preserving `collect`, per-split `fold`
/// accumulators) for the combinator subset the workspace uses.
pub trait ParallelIterator: Sized {
    /// Element type produced by the pipeline.
    type Item: Send;
    /// The sequential iterator covering one chunk of the base.
    type SeqIter<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;

    /// True when the pipeline yields exactly one item per base position, in
    /// base order — base sources and index-preserving adapters (`map`,
    /// `enumerate`, `zip`, `copied`) propagate it; length-changing adapters
    /// (`filter`, `filter_map`, `flat_map_iter`, `fold`) reset it to false.
    /// [`ParallelIterator::collect`] uses it to write chunks straight into
    /// their windows of one pre-sized buffer instead of concatenating
    /// per-chunk vectors.
    const INDEXED: bool = false;

    /// Length of the *base* index space (pre-`filter`/`flat_map_iter`).
    fn base_len(&self) -> usize;

    /// Instantiates the pipeline over `range` of the base.
    ///
    /// # Safety
    ///
    /// `range` must lie within `0..base_len()`, and while any returned
    /// iterator (or item borrowed from it) is alive, no other `seq_chunk`
    /// call on the same pipeline may be given an overlapping range:
    /// mutable sources ([`crate::slice::IterMut`],
    /// [`crate::slice::ChunksMut`]) reborrow their elements mutably per
    /// range, so overlap would alias `&mut`. `drive` — the only caller
    /// in this crate — partitions `0..base_len()` into disjoint chunks.
    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_>;

    // ---------------------------------------------------------------- adapters

    /// Parallel `map`.
    fn map<T, F>(self, f: F) -> Map<Self, F>
    where
        T: Send,
        F: Fn(Self::Item) -> T + Sync,
    {
        Map { base: self, f }
    }

    /// Parallel `filter`.
    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync,
    {
        Filter { base: self, pred }
    }

    /// Parallel `filter_map`.
    fn filter_map<T, F>(self, f: F) -> FilterMap<Self, F>
    where
        T: Send,
        F: Fn(Self::Item) -> Option<T> + Sync,
    {
        FilterMap { base: self, f }
    }

    /// Parallel `flat_map` over a *serial* inner iterator — rayon's
    /// `flat_map_iter`. Parallelism comes from the outer base; each item's
    /// expansion runs inline on the worker that owns its chunk.
    fn flat_map_iter<I, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Parallel `enumerate`: pairs every item with its base position.
    /// As in real rayon, only *indexed* pipelines (one item per base
    /// position) may be enumerated — `filter(..).enumerate()` is a
    /// compile error, not silently wrong indices.
    fn enumerate(self) -> Enumerate<Self>
    where
        Self: IndexedParallelIterator,
    {
        Enumerate { base: self }
    }

    /// Locksteps two *indexed* pipelines; the result is as long as the
    /// shorter base.
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        Self: IndexedParallelIterator,
        B: IndexedParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Parallel `copied` (for iterators over `&T`).
    fn copied<'data, T>(self) -> Copied<Self>
    where
        T: 'data + Copy + Send,
        Self: ParallelIterator<Item = &'data T>,
    {
        Copied { base: self }
    }

    /// Rayon-style `fold`: each chunk folds its items into a fresh
    /// `identity()` accumulator, yielding one accumulator per chunk.
    /// Combine the per-chunk accumulators with [`ParallelIterator::reduce`].
    ///
    /// Note the contract difference from [`Iterator::fold`]: the closure
    /// sees only the items of *one* split, so the final answer must be
    /// assembled with an associative reduction — exactly as in real rayon.
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, Self::Item) -> T + Sync,
    {
        Fold { base: self, identity, fold_op }
    }

    // --------------------------------------------------------------- terminals

    /// Rayon-style `reduce`: combines all items with `op`, starting from
    /// `identity()` only when the iterator is empty. Per-chunk partials are
    /// merged *streamingly* in chunk order — the reduction tree is
    /// thread-invariant, and at most the accumulator plus the in-flight
    /// chunks' partials are alive at once (fold-style vector accumulators
    /// do not pile up 64-deep).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
        Self: Sync,
    {
        drive_fold(
            &self,
            |p, r| {
                unsafe { p.seq_chunk(r) }.fold(None, |acc, x| {
                    Some(match acc {
                        None => x,
                        Some(a) => op(a, x),
                    })
                })
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(op(a, b)),
                (one, other) => one.or(other),
            },
        )
        .flatten()
        .unwrap_or_else(identity)
    }

    /// Calls `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
        Self: Sync,
    {
        drive(&self, |p, r| unsafe { p.seq_chunk(r) }.for_each(&f));
    }

    /// Collects into any [`FromIterator`] collection, preserving base
    /// order. Indexed pipelines (one item per base position) write each
    /// chunk straight into its disjoint window of one buffer pre-sized to
    /// the base length — no per-chunk vectors, no copy-out pass. Other
    /// pipelines append chunk buffers into one growing vector as they
    /// arrive (in chunk order), so completed chunks are freed immediately.
    /// For `C = Vec<T>` the trailing `collect` reuses the allocation.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
        Self: Sync,
    {
        if Self::INDEXED {
            return indexed_collect(self).into_iter().collect();
        }
        drive_fold(
            &self,
            |p, r| unsafe { p.seq_chunk(r) }.collect::<Vec<_>>(),
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap_or_default()
        .into_iter()
        .collect()
    }

    /// Sums all items (per-chunk sums combined in chunk order).
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
        Self: Sync,
    {
        drive_fold(
            &self,
            |p, r| unsafe { p.seq_chunk(r) }.sum::<S>(),
            |a, b| [a, b].into_iter().sum(),
        )
        .unwrap_or_else(|| std::iter::empty::<S>().sum())
    }

    /// Largest item; on ties the later item wins, matching
    /// [`Iterator::max`].
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
        Self: Sync,
    {
        drive(&self, |p, r| unsafe { p.seq_chunk(r) }.max()).into_iter().flatten().fold(
            None,
            |best, x| match best {
                None => Some(x),
                Some(b) => Some(if x >= b { x } else { b }),
            },
        )
    }

    /// Smallest item; on ties the earlier item wins, matching
    /// [`Iterator::min`].
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
        Self: Sync,
    {
        drive(&self, |p, r| unsafe { p.seq_chunk(r) }.min()).into_iter().flatten().fold(
            None,
            |best, x| match best {
                None => Some(x),
                Some(b) => Some(if x < b { x } else { b }),
            },
        )
    }

    /// True when any item satisfies `pred`. Chunks observed after a hit
    /// short-circuit (the answer itself is order-independent).
    fn any<P>(self, pred: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync,
        Self: Sync,
    {
        let found = AtomicBool::new(false);
        let partials = drive(&self, |p, r| {
            if found.load(Ordering::Relaxed) {
                return false;
            }
            let hit = unsafe { p.seq_chunk(r) }.any(&pred);
            if hit {
                found.store(true, Ordering::Relaxed);
            }
            hit
        });
        partials.into_iter().any(|b| b)
    }

    /// True when every item satisfies `pred`.
    fn all<P>(self, pred: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync,
        Self: Sync,
    {
        let failed = AtomicBool::new(false);
        let partials = drive(&self, |p, r| {
            if failed.load(Ordering::Relaxed) {
                return false;
            }
            let ok = unsafe { p.seq_chunk(r) }.all(&pred);
            if !ok {
                failed.store(true, Ordering::Relaxed);
            }
            ok
        });
        partials.into_iter().all(|b| b)
    }

    /// Number of items produced by the pipeline.
    fn count(self) -> usize
    where
        Self: Sync,
    {
        drive(&self, |p, r| unsafe { p.seq_chunk(r) }.count()).into_iter().sum()
    }
}

/// Marker for pipelines that yield exactly one item per base position —
/// rayon's `IndexedParallelIterator` distinction. Length-changing adapters
/// (`filter`, `filter_map`, `flat_map_iter`, `fold`) are *not* indexed, so
/// position-sensitive adapters (`enumerate`, `zip`) refuse them at compile
/// time instead of producing silently wrong indices or pairings.
pub trait IndexedParallelIterator: ParallelIterator {}

impl<B, T, F> IndexedParallelIterator for Map<B, F>
where
    B: IndexedParallelIterator,
    T: Send,
    F: Fn(B::Item) -> T + Sync,
{
}

impl<B> IndexedParallelIterator for Enumerate<B> where B: IndexedParallelIterator {}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
}

impl<'data, B, T> IndexedParallelIterator for Copied<B>
where
    T: 'data + Copy + Send,
    B: IndexedParallelIterator<Item = &'data T>,
{
}

/// Conversion into a parallel iterator (rayon's `into_par_iter()` entry
/// point); implemented for integer ranges in [`crate::range`].
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// The parallel iterator this converts into.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

// ------------------------------------------------------------------- adapters

/// See [`ParallelIterator::map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, T, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    T: Send,
    F: Fn(B::Item) -> T + Sync,
{
    type Item = T;
    type SeqIter<'a>
        = std::iter::Map<B::SeqIter<'a>, &'a F>
    where
        Self: 'a;

    const INDEXED: bool = B::INDEXED;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.base.seq_chunk(range) }.map(&self.f)
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<B, P> {
    base: B,
    pred: P,
}

impl<B, P> ParallelIterator for Filter<B, P>
where
    B: ParallelIterator,
    P: Fn(&B::Item) -> bool + Sync,
{
    type Item = B::Item;
    type SeqIter<'a>
        = std::iter::Filter<B::SeqIter<'a>, &'a P>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.base.seq_chunk(range) }.filter(&self.pred)
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

impl<B, T, F> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    T: Send,
    F: Fn(B::Item) -> Option<T> + Sync,
{
    type Item = T;
    type SeqIter<'a>
        = std::iter::FilterMap<B::SeqIter<'a>, &'a F>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.base.seq_chunk(range) }.filter_map(&self.f)
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

impl<B, I, F> ParallelIterator for FlatMapIter<B, F>
where
    B: ParallelIterator,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(B::Item) -> I + Sync,
{
    type Item = I::Item;
    type SeqIter<'a>
        = std::iter::FlatMap<B::SeqIter<'a>, I, &'a F>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.base.seq_chunk(range) }.flat_map(&self.f)
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<B> {
    base: B,
}

impl<B> ParallelIterator for Enumerate<B>
where
    B: ParallelIterator,
{
    type Item = (usize, B::Item);
    type SeqIter<'a>
        = std::iter::Zip<Range<usize>, B::SeqIter<'a>>
    where
        Self: 'a;

    const INDEXED: bool = B::INDEXED;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        (range.start..range.end).zip(unsafe { self.base.seq_chunk(range) })
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type SeqIter<'a>
        = std::iter::Zip<A::SeqIter<'a>, B::SeqIter<'a>>
    where
        Self: 'a;

    const INDEXED: bool = A::INDEXED && B::INDEXED;

    fn base_len(&self) -> usize {
        self.a.base_len().min(self.b.base_len())
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.a.seq_chunk(range.clone()).zip(self.b.seq_chunk(range)) }
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<B> {
    base: B,
}

impl<'data, B, T> ParallelIterator for Copied<B>
where
    T: 'data + Copy + Send,
    B: ParallelIterator<Item = &'data T>,
{
    type Item = T;
    type SeqIter<'a>
        = std::iter::Copied<B::SeqIter<'a>>
    where
        Self: 'a;

    const INDEXED: bool = B::INDEXED;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        unsafe { self.base.seq_chunk(range) }.copied()
    }
}

/// See [`ParallelIterator::fold`]: yields one accumulator per driven chunk.
pub struct Fold<B, ID, F> {
    base: B,
    identity: ID,
    fold_op: F,
}

impl<B, T, ID, F> ParallelIterator for Fold<B, ID, F>
where
    B: ParallelIterator,
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, B::Item) -> T + Sync,
{
    type Item = T;
    type SeqIter<'a>
        = std::iter::Once<T>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq_chunk(&self, range: Range<usize>) -> Self::SeqIter<'_> {
        std::iter::once(
            unsafe { self.base.seq_chunk(range) }.fold((self.identity)(), &self.fold_op),
        )
    }
}
