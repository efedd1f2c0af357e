//! Triangle counting and listing.
//!
//! Triangles are the "smallest unit of graph compression" in Triangle
//! Reduction (§4.3). Edge-id consumers share one emitter,
//! [`for_triangles_on_edge`], parallel over canonical edge ids: those are
//! sorted by `(u, v)`, so walking edges in id order *is* canonical
//! `(u, v, w)` order and no listing is ever sorted. The emitter hands its
//! consumer each edge's triangles as one slice, in ascending `w`.
//!
//! **Min-side row probing.** For canonical edge `(u, v)` the kernel needs
//! `{w > v} ∩ N(u) ∩ N(v)`. Merging the two rows costs their summed length,
//! and in vertex-id order that is the wrong side to pay for: every generator
//! we run (R-MAT, Barabási–Albert) puts its hubs at the *lowest* ids, so `u`
//! is nearly always the hub and each of its `d(u)` edges re-walks `N(u)` —
//! Θ(Σ d²) steps in total. Instead a [`RowScratch`] marks the higher row of
//! the current `u` once (`slot[w] = 1 + index of w in N(u)`), and each edge
//! walks only `N(v)>v`, probing the marks: a hit *is* the slot of `e_uw`.
//! When `N(u)>v` is [`GALLOP_SKEW`] times shorter still (hubs at the
//! *highest* ids), the kernel walks that side and gallops forward through
//! `N(v)>v`. Either way `w` ascends, so the stream is the merge walk's,
//! triangle for triangle, and the work is Σₑ min(d(u), d(v)) ≤ 2·α·m row
//! steps (α the arboricity; Chiba & Nishizeki 1985, the mark array is
//! Latapy's 2008 *new-listing*) up to the constant `GALLOP_SKEW` on the
//! probe branch and a `log d(v)` factor on the gallop branch, plus one
//! mark / un-mark of each row per chunk that touches it.
//!
//! **No branch, no read-modify-write in the probe loop.** A probe hits about
//! one time in nine on R-MAT, at no predictable place, so the loop writes
//! *every* candidate — row index and mark, 8 bytes — into the scratch's
//! buffer and advances its length by `mark != 0`; one pass over the hits
//! builds the edge's triangles (24-byte `Triangle`s written per candidate
//! made the listing ≈ 40 % slower). The consumer then gets them as one
//! slice, outside the loop: on `rmat_graph500(15, 10, 21)` (2.67 M
//! triangles, 24.7 M probes, two threads) a per-triangle callback listing
//! cost 37 ms, a 50 % sampling branch per triangle 43–45 ms, and one atomic
//! `fetch_or` per sampled triangle 74 ms — the lock prefix serialises the
//! probes' loads. A bitset in place of the `u32` slots measured no better
//! (a hit still needs the slot, the index of `e_uw`). Where hits are rare
//! and a branch predicts well (Barabási–Albert, one hit in a hundred
//! probes) the stores cost ≈ 7 % of a sequential walk.
//!
//! **Scratch ownership.** A scratch is `n` words plus two buffers as long
//! as the most triangles one edge could own, so it is created once per
//! worker, rank or shard *per call* — the parallel entry points check one out of a
//! per-call free list for each of the shim's 64 chunks; sequential callers
//! (an `sg-dist` rank or a federation shard walking its edge-id range,
//! [`for_triangles_in`]) hold their own — never per chunk, vertex or edge.
//!
//! **Ownership.** A triangle `(u, v, w)`, `u < v < w`, belongs to its
//! canonical edge `e_uv`: every partitioned consumer — the chunks here,
//! `sg-dist`'s ranks, federation shards — owns a range of canonical edge ids
//! and exactly the triangles [`for_triangles_on_edge`] streams for them.

use rayon::prelude::*;
use sg_graph::{CsrGraph, EdgeId, GraphView, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A triangle with its three canonical edge ids. Vertices satisfy
/// `u < v < w`; `e_uv` connects `u`/`v`, etc.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The kernel walks `N(u)>v` and gallops through `N(v)>v` when the former
/// is more than this many times shorter; otherwise it walks `N(v)>v` and
/// probes the marks. A probe is one load and a gallop costs a dozen
/// data-dependent branches per element, so the crossover sits far above 1:
/// on `rmat_graph500(15, 10, 21)` as generated (hubs low), relabelled
/// `v -> n-1-v` (hubs high), shuffled and with the hubs mid-range, 2 costs
/// +45–65 % over the best setting, 8 about +10 %, and 32–64 is a flat
/// optimum (table in ROADMAP item 3); 32 keeps the probe branch's worst
/// case the tighter of the two. Never galloping costs up to 10 % there —
/// and d(v) per edge under a mid-range hub (180× on a graph built to show
/// it), which is the bound the branch is for.
const GALLOP_SKEW: usize = 32;

/// The marked higher row of one vertex of one graph — the state
/// [`for_triangles_on_edge`] keeps between edges of the same `u` — and the
/// buffer it writes an edge's triangles into. `n` words; see the module
/// docs for who owns one.
pub struct RowScratch<'g> {
    g: &'g CsrGraph,
    /// `1 + index of w in N(owner)` for every neighbour `w > owner` of the
    /// owner, 0 everywhere else.
    slot: Vec<u32>,
    owner: Option<VertexId>,
    /// The current edge's candidates as `(index in N(v), mark)` pairs, and
    /// its triangles built from the hits among them. Both are grown, never
    /// shrunk, to one more than the most triangles an edge walked so far
    /// could have.
    hits: Vec<(u32, u32)>,
    found: Vec<Triangle>,
}

impl<'g> RowScratch<'g> {
    /// An unmarked scratch for `g`.
    pub fn new(g: &'g CsrGraph) -> Self {
        Self {
            g,
            slot: vec![0; g.num_vertices()],
            owner: None,
            hits: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Makes `u` the owner: un-marks the previous owner's row, marks `u`'s.
    /// Canonical edge ids are sorted by `u`, so an edge range pays this once
    /// per vertex.
    #[inline]
    fn own(&mut self, u: VertexId) {
        if self.owner == Some(u) {
            return;
        }
        self.unmark();
        let row = self.g.neighbors(u);
        let first_higher = row.partition_point(|&x| x <= u);
        for (i, &w) in row.iter().enumerate().skip(first_higher) {
            self.slot[w as usize] = i as u32 + 1;
        }
        self.owner = Some(u);
    }

    /// Clears the owner's marks; the scratch is all-zero afterwards.
    fn unmark(&mut self) {
        if let Some(u) = self.owner.take() {
            let row = self.g.neighbors(u);
            for &w in &row[row.partition_point(|&x| x <= u)..] {
                self.slot[w as usize] = 0;
            }
        }
    }
}

/// Index of the first element of ascending `row` that is `>= w`: doubling
/// steps from the front, then a binary search inside the last step —
/// O(log answer), which is what keeps a short row's walk through a long one
/// near the short row's length.
#[inline]
fn gallop(row: &[VertexId], w: VertexId) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= row.len() && row[lo + step - 1] < w {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(row.len());
    lo + row[lo..hi].partition_point(|&x| x < w)
}

/// Hands `f` the triangles whose two smallest vertices are the endpoints of
/// canonical edge `e_uv` of `scratch`'s graph, as one slice in ascending
/// `w`; `f` is not called for an edge that owns none (a directed edge with
/// `u > v` never does). Each triangle belongs to exactly one such edge.
/// Cheapest when consecutive calls share `u` (the scratch re-marks only
/// when `u` changes), i.e. over ascending edge ids.
// Inlined so a part's walk over its edge range compiles to one nested loop
// (the sequential walk measured ~8% slower without it).
#[inline]
pub fn for_triangles_on_edge(
    scratch: &mut RowScratch<'_>,
    e_uv: EdgeId,
    f: &mut impl FnMut(&[Triangle]),
) {
    let g = scratch.g;
    let (u, v) = g.edge_endpoints(e_uv);
    if u >= v {
        return;
    }
    scratch.own(u);
    let (nu, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
    let (nv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
    // {w in N(u) : w > v} starts right after v, whose mark is its index + 1;
    // when it is empty there is no triangle and no row of v to search.
    let a0 = scratch.slot[v as usize] as usize;
    if a0 == nu.len() {
        return;
    }
    let b0 = nv.partition_point(|&x| x <= v);
    // At most min(|N(u)>v|, |N(v)>v|) hits, and the probe loop writes one
    // candidate past the last of them.
    let room = (nu.len() - a0).min(nv.len() - b0) + 1;
    if scratch.hits.len() < room {
        scratch.hits.resize(room, (0, 0));
        scratch.found.resize(room, Triangle::default());
    }
    let (slot, hits, found) = (&scratch.slot[..], &mut scratch.hits[..], &mut scratch.found[..]);
    let mut len = 0;
    if (nu.len() - a0) * GALLOP_SKEW < nv.len() - b0 {
        let mut b = b0;
        for (mark, &w) in (a0 as u32 + 1..).zip(&nu[a0..]) {
            b += gallop(&nv[b..], w);
            if b == nv.len() {
                break;
            }
            if nv[b] == w {
                hits[len] = (b as u32, mark);
                len += 1;
                b += 1;
            }
        }
    } else {
        for (b, &w) in (b0 as u32..).zip(&nv[b0..]) {
            let mark = slot[w as usize];
            hits[len] = (b, mark);
            len += usize::from(mark != 0);
        }
    }
    if len == 0 {
        return;
    }
    // mark = 1 + the index of w in N(u), whose edge id is e_uw.
    for (t, &(b, mark)) in found.iter_mut().zip(&hits[..len]) {
        let (b, a) = (b as usize, mark as usize - 1);
        *t = Triangle { u, v, w: nv[b], e_uv, e_vw: ev[b], e_uw: eu[a] };
    }
    f(&found[..len]);
}

/// Hands `f` the triangles of every canonical edge in `edges`, in that
/// order, one slice per edge: one part's walk over its edge-id range (an
/// `sg-dist` rank, a federation shard), sequential, through the one
/// [`RowScratch`] the call holds.
pub fn for_triangles_in(
    g: &CsrGraph,
    edges: impl IntoIterator<Item = EdgeId>,
    mut f: impl FnMut(&[Triangle]),
) {
    let mut scratch = RowScratch::new(g);
    for e_uv in edges {
        for_triangles_on_edge(&mut scratch, e_uv, &mut f);
    }
}

/// Folds `items` into one `identity()` accumulator per chunk of the shim's
/// `fold`, returned in chunk order, lending each chunk a scratch: a chunk
/// takes one off the call's free list at its start (creating it when the
/// list is empty) and puts it back at its end, so the call creates one
/// scratch per worker that ran a chunk, not one per chunk. Public because the
/// pattern is not the triangle kernels' alone: `sg-core`'s engine lends a
/// subgraph kernel its per-worker scratch through this same function.
pub fn fold_with_scratch<I, S, T>(
    items: I,
    new_scratch: impl Fn() -> S + Sync,
    identity: impl Fn() -> T + Sync,
    step: impl Fn(&mut S, &mut T, I::Item) + Sync,
) -> Vec<T>
where
    I: ParallelIterator + Sync,
    S: Send,
    T: Send,
{
    let free: Mutex<Vec<S>> = Mutex::new(Vec::new());
    let free_list = || free.lock().expect("no panic while the free list is held");
    items
        .fold(
            || {
                // The lock is released before a missing scratch is created.
                let reused = free_list().pop();
                // Boxed: the fold passes its state by value once per item,
                // and a scratch of several vectors moved per edge cost about
                // a third of the listing on a triangle-sparse graph.
                Box::new((reused.unwrap_or_else(&new_scratch), identity()))
            },
            |mut state, item| {
                let (scratch, acc) = &mut *state;
                step(scratch, acc, item);
                state
            },
        )
        .map(|state| {
            let (scratch, acc) = *state;
            free_list().push(scratch);
            acc
        })
        .collect()
}

/// Streams every triangle into one `identity()` accumulator per chunk of
/// canonical edge ids, in parallel, one slice per edge, and returns the
/// accumulators in chunk — hence canonical — order. Inside a chunk `visit`
/// sees the slices in canonical order; the chunking depends only on `m`, so
/// the result is the same at any thread count.
pub fn fold_triangles<T: Send>(
    g: &CsrGraph,
    identity: impl Fn() -> T + Sync,
    visit: impl Fn(&mut T, &[Triangle]) + Sync,
) -> Vec<T> {
    fold_with_scratch(
        g.par_edge_ids(),
        || RowScratch::new(g),
        identity,
        |scratch, acc, e_uv| for_triangles_on_edge(scratch, e_uv, &mut |tris| visit(acc, tris)),
    )
}

/// Invokes `f` once per triangle, in parallel over canonical edges. `f`
/// must be thread-safe; the visit order is unspecified but the *set* of
/// triangles is deterministic.
pub fn for_each_triangle(g: &CsrGraph, f: impl Fn(Triangle) + Sync) {
    fold_triangles(g, || (), |_, tris| tris.iter().copied().for_each(&f));
}

/// Collects all triangles in canonical `(u, v, w)` order — for tests and
/// references; counting and reducing paths never materialize the listing.
pub fn list_triangles(g: &CsrGraph) -> Vec<Triangle> {
    fold_triangles(g, Vec::new, |all, tris| all.extend_from_slice(tris)).concat()
}

/// Per-worker state of [`count_triangles`]: a bitset over the vertices and
/// two row buffers for encoded views.
struct CountScratch {
    marked: Vec<u64>,
    row_u: Vec<VertexId>,
    row_v: Vec<VertexId>,
}

impl CountScratch {
    fn new(n: usize) -> Self {
        Self { marked: vec![0; n.div_ceil(64)], row_u: Vec::new(), row_v: Vec::new() }
    }

    /// Number of triangles whose smallest vertex is `u`: marks `u`'s higher
    /// row, then makes one pass over `N(v)>v` of each higher neighbour `v` —
    /// any marked `w` there is above `v`, so it closes `(u, v, w)`. The pass
    /// stops at `u`'s last neighbour, where a merge of the two rows would
    /// have run out of `N(u)`: it never takes more steps than that merge.
    fn triangles_at<G: GraphView>(&mut self, g: &G, u: VertexId) -> u64 {
        let nu = g.row_into(u, &mut self.row_u);
        let higher = &nu[nu.partition_point(|&x| x <= u)..];
        // The last higher neighbour has no marked vertex above it.
        let Some((&last, owners)) = higher.split_last() else { return 0 };
        for &w in higher {
            self.marked[w as usize / 64] |= 1 << (w % 64);
        }
        let mut count = 0;
        for &v in owners {
            let nv = g.row_into(v, &mut self.row_v);
            let above = &nv[nv.partition_point(|&x| x <= v)..];
            for &w in above.iter().take_while(|&&w| w <= last) {
                count += self.marked[w as usize / 64] >> (w % 64) & 1;
            }
        }
        for &w in higher {
            self.marked[w as usize / 64] = 0;
        }
        count
    }
}

/// Total number of triangles `T`.
///
/// Generic over [`GraphView`]: counting needs only sorted target rows, not
/// edge ids, so it runs over [`GraphView::row_into`] slices — borrowed
/// directly from raw CSR, or decoded once per `(u, v)` into a per-worker
/// buffer for encoded graphs. Same idea as the listing kernel without the
/// slots: a bitset of `u`'s higher row and one pass over each `N(v)>v`, a
/// row the encoded views decode in full anyway.
pub fn count_triangles<G: GraphView>(g: &G) -> u64 {
    let n = g.num_vertices();
    fold_with_scratch(
        (0..n as VertexId).into_par_iter(),
        || CountScratch::new(n),
        || 0u64,
        |scratch, count, u| *count += scratch.triangles_at(g, u),
    )
    .into_iter()
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
    use sg_graph::prng::bounded_u64;
    use sg_graph::{generators, EdgeList, EncodedCsr};

    /// The merge walk the kernel replaced — both rows above `v` in lockstep —
    /// kept as the reference the kernel's stream is compared against.
    fn merge_triangles_on_edge(g: &CsrGraph, e_uv: EdgeId, f: &mut impl FnMut(Triangle)) {
        let (u, v) = g.edge_endpoints(e_uv);
        if u >= v {
            return;
        }
        let (nu, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
        let (nv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
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

    /// The reference stream over an edge-id range.
    fn merge_stream(g: &CsrGraph, edges: std::ops::Range<usize>) -> Vec<Triangle> {
        let mut out = Vec::new();
        edges.for_each(|e| merge_triangles_on_edge(g, e as EdgeId, &mut |t| out.push(t)));
        out
    }

    /// The kernel's stream over an edge-id range, through `scratch`. Every
    /// slice is non-empty and holds triangles of its own edge only, in
    /// ascending `w`, and an edge with `u > v` is never handed one.
    fn kernel_stream(scratch: &mut RowScratch<'_>, edges: std::ops::Range<usize>) -> Vec<Triangle> {
        let mut out = Vec::new();
        for e in edges.map(|e| e as EdgeId) {
            let (u, v) = scratch.g.edge_endpoints(e);
            for_triangles_on_edge(scratch, e, &mut |tris| {
                assert!(u < v, "edge {e} = ({u}, {v}) owns no triangle");
                assert!(!tris.is_empty(), "edge {e}: an empty slice");
                assert!(tris.iter().all(|t| t.e_uv == e), "edge {e}: a foreign triangle");
                assert!(tris.windows(2).all(|p| p[0].w < p[1].w), "edge {e}: w not ascending");
                out.extend_from_slice(tris);
            });
        }
        out
    }

    /// Rows of `e_uv` above `v`: `(|N(u)>v|, |N(v)>v|)`, what the kernel's
    /// branch condition compares.
    fn rows_above(g: &CsrGraph, e_uv: EdgeId) -> (usize, usize) {
        let (u, v) = g.edge_endpoints(e_uv);
        let above = |x: VertexId| g.neighbors(x).iter().filter(|&&w| w > v).count();
        (above(u), above(v))
    }

    /// `(edges probed, edges galloped, candidates probed)` over the edges
    /// of `g` that own a triangle candidate.
    fn branches(g: &CsrGraph) -> (usize, usize, usize) {
        let (mut probed, mut galloped, mut probes) = (0, 0, 0);
        for e in 0..g.num_edges() as EdgeId {
            let (u, v) = g.edge_endpoints(e);
            let (len_u, len_v) = rows_above(g, e);
            if u > v || len_u.min(len_v) == 0 {
                continue;
            }
            if len_u * GALLOP_SKEW < len_v {
                galloped += 1;
            } else {
                (probed, probes) = (probed + 1, probes + len_v);
            }
        }
        (probed, galloped, probes)
    }

    /// The kernel's stream on `g` equals the merge walks' — same triangles,
    /// same order, same three edge ids — sequentially through one scratch,
    /// over `parts` edge ranges at a time through that scratch, through the
    /// parallel listing and in the counter. Returns the stream.
    fn assert_kernel_is_merge(g: &CsrGraph, parts: usize, label: &str) -> Vec<Triangle> {
        let m = g.num_edges();
        let expected = merge_stream(g, 0..m);
        let mut scratch = RowScratch::new(g);
        assert_eq!(kernel_stream(&mut scratch, 0..m), expected, "{label}");
        let by_part: Vec<Triangle> = (0..parts)
            .flat_map(|part| kernel_stream(&mut scratch, m * part / parts..m * (part + 1) / parts))
            .collect();
        assert_eq!(by_part, expected, "{label}, {parts} edge ranges");
        assert_eq!(list_triangles(g), expected, "{label}, parallel");
        assert_eq!(count_triangles(g), expected.len() as u64, "{label}, count");
        // A directed edge with u > v owns nothing: u < v < w always.
        assert!(expected.iter().all(|t| t.u < t.v && t.v < t.w), "{label}");
        expected
    }

    /// A hub-heavy random graph under a random relabelling: up to three raw
    /// ids see ~70 % of the vertices, the other endpoints are products of two
    /// uniform draws (low raw ids collect the edges), then every id goes
    /// through a random permutation, so the hubs land anywhere in id order.
    fn skewed_random_graph(case: u64, directed: bool) -> CsrGraph {
        let draw = |i: u64, stream: u64, bound: u64| bounded_u64(case, i, stream, bound);
        let n = 2 + draw(0, 0, 300);
        let mut relabel: Vec<VertexId> = (0..n as VertexId).collect();
        relabel.sort_by_key(|&v| draw(u64::from(v), 2, u64::MAX));
        let skewed = |i: u64| draw(i, 3, n) * draw(i, 4, n + 1) / n;
        let sparse = (1..=draw(0, 1, 3 * n)).map(|i| (skewed(i), draw(i, 5, n)));
        let hubs = (0..draw(0, 6, 4))
            .flat_map(|h| (0..n).filter(move |&v| draw(v, 7 + h, 10) < 7).map(move |v| (h, v)));
        let pairs = sparse.chain(hubs).map(|(a, b)| (relabel[a as usize], relabel[b as usize]));
        let el = EdgeList::from_pairs(n as usize, pairs);
        if directed {
            CsrGraph::from_edge_list_directed(el)
        } else {
            CsrGraph::from_edge_list(el)
        }
    }

    #[test]
    fn kernel_stream_is_the_merge_walks_on_random_relabelled_graphs() {
        let (mut triangles, mut probed, mut galloped, mut ownerless) = (0, 0, 0, 0);
        for case in 0..300 {
            let directed = case % 4 == 3;
            let g = skewed_random_graph(case, directed);
            let expected =
                assert_kernel_is_merge(&g, 1 + case as usize % 7, &format!("case {case}"));
            ownerless += g.edge_slice().iter().filter(|&&(u, v)| u > v).count();
            triangles += expected.len();
            let (p, gal, _) = branches(&g);
            (probed, galloped) = (probed + p, galloped + gal);
        }
        assert!(triangles > 2_000, "only {triangles} triangles over all cases");
        assert!(probed > 500 && galloped > 500, "{probed} probed, {galloped} galloped");
        assert!(ownerless > 500, "{ownerless} directed edges with u > v");

        // The probe loop writes every candidate and keeps the hits: in K_64
        // every probe hits, so the stream is exactly the probes.
        let k64 = generators::complete(64);
        let (_, _, probes) = branches(&k64);
        assert_eq!(assert_kernel_is_merge(&k64, 5, "K_64").len(), probes);
        assert_eq!(probes, 64 * 63 * 62 / 6);
        // A star whose leaves each lead into a path: every edge (0, v) probes
        // v's pendant against the hub's marks, and no probe hits.
        let leaves: VertexId = 60;
        let mut pairs: Vec<(VertexId, VertexId)> = (1..=leaves).map(|v| (0, v)).collect();
        pairs.extend((1..=leaves).map(|v| (v, leaves + v)));
        pairs.extend((leaves + 1..2 * leaves).map(|v| (v, v + 1)));
        let comb = CsrGraph::from_pairs(2 * leaves as usize + 1, &pairs);
        let (probed, _, probes) = branches(&comb);
        assert!(probed >= leaves as usize - 1 && probes >= probed, "{probed} probed, {probes}");
        assert!(assert_kernel_is_merge(&comb, 3, "star + paths").is_empty());
        // Directed: a triangle whose arcs all point down owns nothing, its
        // upward twin on three more vertices owns one.
        let arcs = [(2, 1), (1, 0), (2, 0), (3, 4), (4, 5), (3, 5)];
        let directed = CsrGraph::from_edge_list_directed(EdgeList::from_pairs(6, arcs));
        let owned = assert_kernel_is_merge(&directed, 2, "directed");
        assert_eq!(owned.iter().map(key).collect::<Vec<_>>(), vec![(3, 4, 5)]);
        // No edges at all.
        let edgeless = CsrGraph::from_pairs(5, &[]);
        assert!(assert_kernel_is_merge(&edgeless, 2, "m = 0").is_empty());
        for_each_triangle(&edgeless, |t| panic!("triangle {t:?} without edges"));
    }

    #[test]
    fn hub_at_id_zero_is_probed_and_low_degree_u_under_a_high_hub_gallops() {
        // Hub 0 is adjacent to everyone; every other vertex has two higher
        // neighbours of its own: on every edge (0, v) the long row is u's,
        // so the kernel walks N(v)>v against the marks.
        let n: VertexId = 120;
        let mut pairs: Vec<(VertexId, VertexId)> = (1..n).map(|v| (0, v)).collect();
        pairs.extend((1..n - 2).flat_map(|v| [(v, v + 1), (v, v + 2)]));
        let g = CsrGraph::from_pairs(n as usize, &pairs);
        for v in 1..n - 2 {
            let e = g.find_edge(0, v).expect("hub edge");
            let (len_u, len_v) = rows_above(&g, e);
            assert_eq!((len_u, len_v), ((n - 1 - v) as usize, 2));
            assert!(len_u * GALLOP_SKEW >= len_v, "edge (0, {v}) must probe");
        }
        let expected = merge_stream(&g, 0..g.num_edges());
        assert_eq!(expected.iter().filter(|t| t.u == 0).count(), 2 * (n as usize - 3));
        assert_eq!(kernel_stream(&mut RowScratch::new(&g), 0..g.num_edges()), expected);

        // Vertices 0..10 each see only hub 100 and two of its higher
        // neighbours; the hub is adjacent to all of 101..300. On every edge
        // (u, 100) the short row is u's: the kernel walks it and gallops
        // through the hub's row, hitting near its front, middle and end.
        let hub: VertexId = 100;
        let mut pairs: Vec<(VertexId, VertexId)> = (hub + 1..300).map(|w| (hub, w)).collect();
        for u in 0..10 {
            pairs.extend([(u, hub), (u, hub + 1 + u), (u, 299 - 7 * u)]);
        }
        pairs.push((3, 400)); // a higher neighbour beyond the hub's last: the walk stops early
        let g = CsrGraph::from_pairs(401, &pairs);
        for u in 0..10 {
            let e = g.find_edge(u, hub).expect("edge under the hub");
            let (len_u, len_v) = rows_above(&g, e);
            assert!(len_u * GALLOP_SKEW < len_v, "edge ({u}, {hub}) must gallop: {len_u} {len_v}");
        }
        let expected = merge_stream(&g, 0..g.num_edges());
        assert_eq!(expected.len(), 20);
        assert_eq!(kernel_stream(&mut RowScratch::new(&g), 0..g.num_edges()), expected);
        assert_eq!(count_triangles(&g), 20);

        // A book: spine (3, 4) under 5 000 pages, after a lone triangle. The
        // scratch's buffers are sized for the triangle's edges when the spine
        // comes, whose probe loop must hand over all 5 000 hits in one slice.
        let pages: VertexId = 5_000;
        let mut pairs = vec![(0, 1), (1, 2), (0, 2), (3, 4)];
        pairs.extend((5..5 + pages).flat_map(|w| [(3, w), (4, w)]));
        let book = CsrGraph::from_pairs(5 + pages as usize, &pairs);
        let spine = book.find_edge(3, 4).expect("spine");
        let (len_u, len_v) = rows_above(&book, spine);
        assert!(len_u * GALLOP_SKEW >= len_v, "the spine must probe");
        let mut scratch = RowScratch::new(&book);
        let mut slices = Vec::new();
        for e in 0..book.num_edges() as EdgeId {
            for_triangles_on_edge(&mut scratch, e, &mut |tris| slices.push((e, tris.len())));
        }
        assert_eq!(slices.iter().map(|&(_, len)| len).max(), Some(pages as usize));
        assert!(slices.contains(&(spine, pages as usize)));
        assert_eq!(assert_kernel_is_merge(&book, 3, "book").len(), 1 + pages as usize);
    }

    #[test]
    fn one_scratch_across_owners_and_split_rows_equals_fresh_scratches() {
        let g = generators::rmat_graph500(9, 8, 3);
        let m = g.num_edges();
        let fresh = |edges: std::ops::Range<usize>| kernel_stream(&mut RowScratch::new(&g), edges);
        // The triangles whose smallest vertex is `u`: its edges to higher
        // neighbours, one contiguous id range of an undirected graph.
        let at = |scratch: &mut RowScratch<'_>, u: VertexId| {
            let higher = &g.neighbor_edge_ids(u)[g.neighbors(u).partition_point(|&x| x <= u)..];
            let first = higher.first().map_or(0, |&e| e as usize);
            kernel_stream(scratch, first..first + higher.len())
        };
        // Owners u1, u2, u1: the marks of one never leak into the next.
        let (u1, u2) = (0, 5);
        let mut scratch = RowScratch::new(&g);
        let first = at(&mut scratch, u1);
        assert!(!first.is_empty());
        assert_eq!(first, at(&mut RowScratch::new(&g), u1));
        assert_eq!(at(&mut scratch, u2), at(&mut RowScratch::new(&g), u2));
        assert_eq!(at(&mut scratch, u1), first);
        // An edge range that ends in the middle of the hub's row, the rest of
        // the row taken up later by the same scratch, another row in between.
        let row = g.neighbor_edge_ids(u1);
        let mid = row[row.len() / 2] as usize;
        assert_eq!(g.edge_endpoints(mid as EdgeId).0, g.edge_endpoints(mid as EdgeId + 1).0);
        assert_eq!(kernel_stream(&mut scratch, 0..mid), fresh(0..mid));
        assert_eq!(kernel_stream(&mut scratch, m / 2..m), fresh(m / 2..m));
        assert_eq!(kernel_stream(&mut scratch, mid..m / 2), fresh(mid..m / 2));
        assert_eq!([fresh(0..mid), fresh(mid..m)].concat(), merge_stream(&g, 0..m));
        // Released, nothing stays marked.
        assert!(scratch.slot.iter().any(|&s| s != 0));
        scratch.unmark();
        assert!(scratch.slot.iter().all(|&s| s == 0));
        assert_eq!(scratch.owner, None);
    }

    #[test]
    fn gallop_finds_the_first_element_not_below() {
        let row: Vec<VertexId> = (0..100).map(|i| 3 * i + 1).collect();
        for w in 0..310 {
            assert_eq!(gallop(&row, w), row.partition_point(|&x| x < w), "w = {w}");
        }
        assert_eq!(gallop(&[], 7), 0);
    }

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
        let _knob = crate::THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let g = generators::rmat_graph500(10, 8, 7);
        let encoded = EncodedCsr::from_graph(&g);
        let expected = count_triangles(&g);
        assert!(expected > 0);
        let listings = [1, 4, 8].map(|threads| {
            rayon::set_num_threads(threads);
            let tris = list_triangles(&g);
            // The counter agrees on the raw rows and on the delta-encoded view.
            assert_eq!(count_triangles(&g), expected, "{threads} threads");
            assert_eq!(count_triangles(&encoded), expected, "{threads} threads, encoded");
            // 64 chunks share at most one scratch per worker.
            let created = AtomicU64::new(0);
            let new_scratch = || created.fetch_add(1, Ordering::Relaxed);
            let sums =
                fold_with_scratch(g.par_edge_ids(), new_scratch, || 0, |_, sum, e| *sum += e);
            assert_eq!(sums.len(), 64);
            assert_eq!(sums.iter().sum::<EdgeId>(), (0..g.num_edges() as EdgeId).sum());
            assert!((1..=threads as u64).contains(&created.into_inner()), "{threads} threads");
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
        // A consumer that keeps part of each slice, chunk by chunk, sees the
        // listing in order: what it keeps, concatenated, is the filtered list.
        let g = generators::rmat_graph500(10, 8, 8);
        let keep = |t: &Triangle| (t.u + t.w) % 3 == 1;
        let filtered: Vec<Triangle> = list_triangles(&g).into_iter().filter(keep).collect();
        assert!(!filtered.is_empty());
        let collect = |keep: &(dyn Fn(&Triangle) -> bool + Sync)| {
            let kept = |kept: &mut Vec<Triangle>, tris: &[Triangle]| {
                kept.extend(tris.iter().filter(|t| keep(t)));
            };
            fold_triangles(&g, Vec::new, kept).concat()
        };
        assert_eq!(collect(&keep), filtered);
        assert!(collect(&|_| false).is_empty());
    }

    #[test]
    fn edge_ranges_partition_the_listing() {
        // What a partitioned executor relies on: contiguous edge-id ranges,
        // walked through one scratch each, stream every triangle exactly once
        // — under the range that holds its `e_uv` — and in listing order.
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 900, 3), 200, 4);
        let (m, listing) = (g.num_edges(), list_triangles(&g));
        assert!(!listing.is_empty());
        for parts in [1, 2, 3, 7, m + 3] {
            let mut all = Vec::new();
            for part in sg_graph::partition::partition_edges(&g, parts) {
                let range = part.start as usize..part.end as usize;
                let owned = kernel_stream(&mut RowScratch::new(&g), range.clone());
                assert!(owned.iter().all(|t| range.contains(&(t.e_uv as usize))), "{parts} parts");
                all.extend(owned);
            }
            assert_eq!(all, listing, "{parts} parts");
        }
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
        // The pendant edge (2, 3) owns nothing.
        assert!(kernel_stream(&mut RowScratch::new(&g), 3..4).is_empty());
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
}
