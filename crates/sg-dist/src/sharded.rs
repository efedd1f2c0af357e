//! The Triangle Reduction superstep protocol (§7.3 beyond edge kernels) —
//! the one discipline in `sg-dist` whose ranks talk to each other.
//!
//! The paper's distributed engine partitions the graph across MPI ranks and
//! shares the Edge-Once `considered` flags through RMA windows. This module
//! simulates that substrate with OS threads ([`run_ranks`]) and an
//! explicit, *deterministic* message protocol:
//!
//! * every rank owns a contiguous range of canonical edge ids
//!   ([`partition_edges`], balanced to within one edge): the authoritative
//!   flags of those edges *and* the triangles that belong to them — triangle
//!   `(u, v, w)`, `u < v < w`, belongs to its edge `e_uv` — so a rank's share
//!   of the enumeration follows its share of the edges, wherever the hubs sit;
//! * ranks communicate through per-`(src, dst)` outboxes, one batch per
//!   destination posted before each barrier; a receiver drains its inboxes
//!   **merged in source-rank order**, so the view every rank observes is a
//!   pure function of the input — results are bit-identical at any `ranks` ×
//!   `SG_THREADS` combination;
//! * stateful disciplines (Edge-Once, Count-Triangles) run in *superstep
//!   rounds*: pending sampled triangles propose on their three edges, edge
//!   owners grant each edge to the smallest pending triangle in the
//!   sequential processing order, and a triangle commits only when it holds
//!   all three grants — at which point the flag state it observes on its
//!   edges is exactly the state the sequential pass would have shown it.
//!
//! Each round resolves at least the globally smallest pending triangle, so
//! the protocol terminates; committed triangles within one round are
//! edge-disjoint (each edge has a single winner), so their updates commute.

use crate::{run_ranks, RankStats};
use sg_core::kernel::Triangle;
use sg_core::schemes::{
    edge_once_commit, for_sampled_triangles, plain_tr_deletions, Discipline, EdgeChoice, TrConfig,
};
use sg_core::DetRand;
use sg_graph::partition::{partition_edges, EdgeShard};
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Per-`(src, dst)` outboxes with deterministic drain order.
///
/// A rank fills one local `Vec` per destination ([`outbox`]) and `post`s
/// them — one lock per destination, not per message — before the barrier;
/// `drain` concatenates everything addressed to a rank **in source-rank
/// order** — the merge that keeps the protocol deterministic.
struct Exchange<M> {
    ranks: usize,
    slots: Vec<Mutex<Vec<M>>>,
}

impl<M> Exchange<M> {
    fn new(ranks: usize) -> Self {
        Self { ranks, slots: (0..ranks * ranks).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Moves `src`'s batches (`outbox[dst]`, left empty) into its slots and
    /// returns how many messages that sent.
    fn post(&self, src: usize, outbox: &mut [Vec<M>]) -> u64 {
        let mut sent = 0;
        for (dst, batch) in outbox.iter_mut().enumerate().filter(|(_, batch)| !batch.is_empty()) {
            sent += batch.len() as u64;
            self.slots[src * self.ranks + dst].lock().expect("no poisoned lock").append(batch);
        }
        sent
    }

    fn drain(&self, dst: usize) -> Vec<M> {
        let mut out = Vec::new();
        for src in 0..self.ranks {
            out.append(&mut self.slots[src * self.ranks + dst].lock().expect("no poisoned lock"));
        }
        out
    }
}

/// One empty batch per destination rank.
fn outbox<M>(ranks: usize) -> Vec<Vec<M>> {
    (0..ranks).map(|_| Vec::new()).collect()
}

/// Sequential processing-order key of a triangle: Count-Triangles orders by
/// the rarest incident edge first, Edge-Once by canonical `(u, v, w)`.
/// Unique per triangle, so edge grants have a single deterministic winner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TriKey {
    count: u64,
    u: VertexId,
    v: VertexId,
    w: VertexId,
}

/// Round phase 1: a pending triangle asks the owner of one of its edges for
/// a grant.
struct Proposal {
    edge: EdgeId,
    key: TriKey,
    src: usize,
    tri: u32,
    slot: u8,
}

/// Round phase 2: the edge owner's answer — whether the triangle holds the
/// smallest key on this edge, and the edge's authoritative `considered`
/// flag.
struct Reply {
    tri: u32,
    slot: u8,
    won: bool,
    considered: bool,
}

/// Round phase 3: a committed triangle's flag updates, applied by the edge
/// owner in phase 4. `delete: false` marks the edge considered only.
struct Update {
    edge: EdgeId,
    delete: bool,
}

/// A sampled triangle awaiting its turn in the superstep protocol: its edges
/// in rank order, and per rank slot the grant and `considered` flag its
/// owner reported.
struct Pending {
    ranked: [EdgeId; 3],
    key: TriKey,
    resolved: bool,
    won: [bool; 3],
    considered: [bool; 3],
}

/// Everything the ranks of one run share: the barrier, the global count of
/// unresolved triangles, and one exchange per message type.
struct Net {
    barrier: Barrier,
    pending_total: AtomicUsize,
    proposals: Exchange<Proposal>,
    replies: Exchange<Reply>,
    updates: Exchange<Update>,
}

/// One rank's partitioned state: the canonical edges it owns — and through
/// them its triangles — and the authoritative `considered`/deletion flags
/// for those edges (the paper's RMA window, sliced per rank).
struct ShardedContext<'g> {
    /// The shared read-only input graph.
    graph: &'g CsrGraph,
    rank: usize,
    /// Owned canonical-edge range.
    edges: EdgeShard,
    /// Deterministic random source (same formulas as `SgContext`).
    rand: DetRand,
    /// Messages this rank sent over the exchange.
    messages_sent: u64,
    /// Superstep rounds this rank executed.
    supersteps: u64,
    /// Every rank's owned edge range, in rank order.
    shards: &'g [EdgeShard],
    /// Authoritative `considered` flags for owned edges.
    considered: Vec<bool>,
    /// Authoritative deletion flags for owned edges.
    deleted: Vec<bool>,
}

impl<'g> ShardedContext<'g> {
    fn new(graph: &'g CsrGraph, rank: usize, shards: &'g [EdgeShard], seed: u64) -> Self {
        let edges = shards[rank];
        Self {
            graph,
            rank,
            edges,
            rand: DetRand::new(seed),
            messages_sent: 0,
            supersteps: 0,
            shards,
            considered: vec![false; edges.len()],
            deleted: vec![false; edges.len()],
        }
    }

    /// The rank owning canonical edge `e`: the last one whose range starts
    /// at or before `e` (rank 0 starts at 0; empty ranges, if any, are last).
    #[inline]
    fn owner_of(&self, e: EdgeId) -> usize {
        self.shards.partition_point(|s| s.start <= e) - 1
    }

    /// Authoritative `considered` flag of an *owned* edge.
    #[inline]
    fn edge_considered(&self, e: EdgeId) -> bool {
        self.considered[(e - self.edges.start) as usize]
    }

    /// Applies the updates addressed to this rank to its owned edges.
    fn apply_updates(&mut self, updates: &Exchange<Update>) {
        for update in updates.drain(self.rank) {
            let i = (update.edge - self.edges.start) as usize;
            self.considered[i] = true;
            if update.delete {
                self.deleted[i] = true;
            }
        }
    }

    fn stats(&self) -> RankStats {
        RankStats {
            rank: self.rank,
            owned_edges: self.edges.len(),
            kept_edges: self.deleted.iter().filter(|&&d| !d).count(),
            messages_sent: self.messages_sent,
            supersteps: self.supersteps,
        }
    }
}

/// Edge-id boundary of every rank's range under a *vertex* partition (the
/// vertex-kernel plan's statistics): canonical edges are lexicographically
/// sorted, so the edges whose smaller endpoint lies in rank `r`'s vertex
/// range form the contiguous id range `[starts[r], starts[r+1])`.
pub(crate) fn edge_rank_starts(g: &CsrGraph, parts: &[(usize, usize)]) -> Vec<usize> {
    let edges = g.edge_slice();
    let mut starts: Vec<usize> =
        parts.iter().map(|&(lo, _)| edges.partition_point(|&(u, _)| (u as usize) < lo)).collect();
    starts.push(g.num_edges());
    starts
}

/// Triangles owned by one rank (`e_uv` in the owned range) that the TR
/// sampling coin selects, in canonical enumeration order — one walk of the
/// range, one row scratch (`for_sampled_triangles` holds it).
fn sampled_triangles(
    ctx: &ShardedContext<'_>,
    cfg: TrConfig,
    counts: Option<&[u64]>,
) -> Vec<Pending> {
    let mut pending = Vec::new();
    let (g, edges) = (ctx.graph, ctx.edges.edge_ids());
    for_sampled_triangles(g, cfg, ctx.rand, counts, edges, |t, ranked| {
        // Count-Triangles ranks rarest first: the first edge's count is the
        // triangle's smallest.
        let count = counts.map_or(0, |c| c[ranked[0] as usize]);
        pending.push(Pending {
            ranked,
            key: TriKey { count, u: t.u, v: t.v, w: t.w },
            resolved: false,
            won: [false; 3],
            considered: [false; 3],
        });
    });
    pending
}

/// Per-edge participation counts over the triangles one rank owns (`e_uv` in
/// `part`) — the rank's share of the Count-Triangles histogram. The rank
/// holds one row scratch for the whole range.
fn owned_triangle_counts(g: &CsrGraph, part: EdgeShard) -> Vec<u64> {
    let mut partial = vec![0u64; g.num_edges()];
    sg_algos::tc::for_triangles_in(g, part.edge_ids(), |tris| {
        for e in tris.iter().flat_map(Triangle::edges) {
            partial[e as usize] += 1;
        }
    });
    partial
}

/// Runs the Triangle Reduction family over `ranks` rank threads and returns
/// the deletion flag of every canonical edge (the ranks' owned ranges
/// concatenated in rank order) plus the per-rank statistics. Materialized
/// by the caller, the result is bit-identical to `triangle_reduce(g, cfg,
/// seed)` at any rank count.
pub(crate) fn sharded_triangle_compress(
    g: &CsrGraph,
    cfg: TrConfig,
    ranks: usize,
    seed: u64,
) -> (Vec<bool>, Vec<RankStats>) {
    cfg.validate().expect("valid TR configuration");
    let shards = partition_edges(g, ranks);
    let net = Net {
        barrier: Barrier::new(ranks),
        pending_total: AtomicUsize::new(0),
        proposals: Exchange::new(ranks),
        replies: Exchange::new(ranks),
        updates: Exchange::new(ranks),
    };
    // Count-Triangles needs global per-edge triangle counts: every rank
    // counts its owned triangles — one superstep and one gather message
    // each — and the root sums the partial histograms (sums commute).
    let counts: Option<Vec<u64>> = (cfg.choice == EdgeChoice::FewestTriangles).then(|| {
        let mut total = vec![0u64; g.num_edges()];
        for partial in run_ranks(ranks, |rank| owned_triangle_counts(g, shards[rank])) {
            for (t, p) in total.iter_mut().zip(&partial) {
                *t += p;
            }
        }
        total
    });
    let counts = counts.as_deref();

    let per_rank = run_ranks(ranks, |rank| {
        let mut ctx = ShardedContext::new(g, rank, &shards, seed);
        if counts.is_some() {
            ctx.messages_sent += 1;
            ctx.supersteps += 1;
        }
        match cfg.discipline {
            Discipline::Plain => run_rank_plain(&mut ctx, cfg, counts, &net),
            Discipline::EdgeOnce => run_rank_edge_once(&mut ctx, cfg, counts, &net),
        }
        (ctx.stats(), ctx.deleted)
    });

    // Gather at the root: per-rank deletion flags concatenated in rank
    // order cover the canonical edge array exactly once.
    let (stats, deleted): (Vec<RankStats>, Vec<Vec<bool>>) = per_rank.into_iter().unzip();
    (deleted.concat(), stats)
}

/// Plain TR: sampling decisions are state-independent, so one superstep
/// suffices — ranks send deletions of their sampled triangles' chosen edges
/// to the edge owners, then owners apply them.
fn run_rank_plain(ctx: &mut ShardedContext<'_>, cfg: TrConfig, counts: Option<&[u64]>, net: &Net) {
    ctx.supersteps += 1;
    let mut updates = outbox(net.updates.ranks);
    for e in plain_tr_deletions(ctx.graph, cfg, ctx.rand, counts, ctx.edges.edge_ids()) {
        updates[ctx.owner_of(e)].push(Update { edge: e, delete: true });
    }
    ctx.messages_sent += net.updates.post(ctx.rank, &mut updates);
    net.barrier.wait();
    ctx.apply_updates(&net.updates);
    net.barrier.wait();
}

/// Edge-Once / Count-Triangles: the superstep reservation protocol. Every
/// round, pending triangles propose on their three edges; owners grant each
/// edge to the smallest pending key; triangles holding all three grants
/// commit against the authoritative flags and resolve.
fn run_rank_edge_once(
    ctx: &mut ShardedContext<'_>,
    cfg: TrConfig,
    counts: Option<&[u64]>,
    net: &Net,
) {
    let mut pending = sampled_triangles(ctx, cfg, counts);
    net.pending_total.fetch_add(pending.len(), Ordering::SeqCst);
    net.barrier.wait();
    let ranks = net.updates.ranks;
    let (mut proposals, mut replies, mut updates) = (outbox(ranks), outbox(ranks), outbox(ranks));

    while net.pending_total.load(Ordering::SeqCst) != 0 {
        ctx.supersteps += 1;

        // Phase 1: unresolved triangles propose on their three edges.
        for (i, p) in pending.iter_mut().enumerate() {
            if p.resolved {
                continue;
            }
            p.won = [false; 3];
            for (slot, &e) in p.ranked.iter().enumerate() {
                let proposal = Proposal {
                    edge: e,
                    key: p.key,
                    src: ctx.rank,
                    tri: i as u32,
                    slot: slot as u8,
                };
                proposals[ctx.owner_of(e)].push(proposal);
            }
        }
        ctx.messages_sent += net.proposals.post(ctx.rank, &mut proposals);
        net.barrier.wait();

        // Phase 2: owners grant each edge to the smallest pending key and
        // report the authoritative `considered` flag.
        let inbox = net.proposals.drain(ctx.rank);
        let mut winner: HashMap<EdgeId, TriKey> = HashMap::new();
        for p in &inbox {
            winner.entry(p.edge).and_modify(|k| *k = p.key.min(*k)).or_insert(p.key);
        }
        for p in &inbox {
            let reply = Reply {
                tri: p.tri,
                slot: p.slot,
                won: winner[&p.edge] == p.key,
                considered: ctx.edge_considered(p.edge),
            };
            replies[p.src].push(reply);
        }
        ctx.messages_sent += net.replies.post(ctx.rank, &mut replies);
        net.barrier.wait();

        // Phase 3: triangles holding all three grants commit. Same-round
        // committers are edge-disjoint (one winner per edge), so the flag
        // snapshot from the replies is exact.
        for r in net.replies.drain(ctx.rank) {
            let p = &mut pending[r.tri as usize];
            p.won[r.slot as usize] = r.won;
            p.considered[r.slot as usize] = r.considered;
        }
        let mut resolved_now = 0usize;
        for p in pending.iter_mut() {
            if p.resolved || !(p.won[0] && p.won[1] && p.won[2]) {
                continue;
            }
            p.resolved = true;
            resolved_now += 1;
            edge_once_commit(p.ranked, p.considered, cfg, |e, delete| {
                updates[ctx.owner_of(e)].push(Update { edge: e, delete })
            });
        }
        ctx.messages_sent += net.updates.post(ctx.rank, &mut updates);
        if resolved_now > 0 {
            net.pending_total.fetch_sub(resolved_now, Ordering::SeqCst);
        }
        net.barrier.wait();

        // Phase 4: owners apply the committed updates.
        ctx.apply_updates(&net.updates);
        net.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed_compress;
    use sg_core::scheme::{LowDegree, TriangleReduction};
    use sg_graph::generators;

    fn triangle_rich() -> CsrGraph {
        generators::planted_triangles(&generators::erdos_renyi(700, 1500, 1), 1100, 2)
    }

    #[test]
    fn edge_rank_starts_cover_and_agree_with_ownership() {
        let g = triangle_rich();
        let parts = sg_graph::partition::partition_vertices(g.num_vertices(), 5);
        let starts = edge_rank_starts(&g, &parts);
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().expect("non-empty"), g.num_edges());
        for (rank, &(lo, hi)) in parts.iter().enumerate() {
            for e in starts[rank]..starts[rank + 1] {
                let (u, _) = g.edge_endpoints(e as EdgeId);
                assert!((u as usize) >= lo && (u as usize) < hi, "edge {e} not owned by {rank}");
            }
        }
    }

    #[test]
    fn plain_tr_matches_shared_memory_at_every_rank_count() {
        let g = triangle_rich();
        let scheme = TriangleReduction { cfg: TrConfig::plain_1(0.6) };
        let shared = sg_core::schemes::triangle_reduce(&g, scheme.cfg, 33);
        for ranks in [1, 2, 3, 8] {
            let dist = distributed_compress(&g, &scheme, ranks, 33).expect("plain shards");
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "ranks = {ranks}"
            );
        }
    }

    #[test]
    fn edge_once_superstep_protocol_matches_sequential_pass() {
        let g = triangle_rich();
        for cfg in
            [TrConfig::edge_once_1(0.7), TrConfig::count_triangles(0.7), TrConfig::max_weight(0.7)]
        {
            let shared = sg_core::schemes::triangle_reduce(&g, cfg, 91);
            for ranks in [1, 2, 4, 7] {
                let dist = distributed_compress(&g, &TriangleReduction { cfg }, ranks, 91)
                    .expect("EO shards");
                assert_eq!(
                    dist.result.graph.edge_slice(),
                    shared.graph.edge_slice(),
                    "{} ranks = {ranks}",
                    cfg.label()
                );
                assert!(
                    dist.ranks.iter().all(|r| r.supersteps >= 1),
                    "EO runs at least one superstep"
                );
            }
        }
    }

    #[test]
    fn vertex_kernel_matches_engine_and_keeps_mapping() {
        let g = generators::barabasi_albert(900, 3, 7);
        let shared = sg_core::schemes::remove_low_degree(&g, 5);
        for ranks in [1, 2, 6] {
            let dist = distributed_compress(&g, &LowDegree, ranks, 5).expect("vertex shards");
            assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice());
            assert_eq!(dist.result.vertex_mapping, shared.vertex_mapping);
            let kept: usize = dist.ranks.iter().map(|r| r.kept_edges).sum();
            assert_eq!(kept, dist.result.graph.num_edges());
        }
    }

    #[test]
    fn triangle_free_graph_terminates_without_supersteps() {
        let g = generators::cycle(64); // no triangles
        let (deleted, stats) = sharded_triangle_compress(&g, TrConfig::edge_once_1(1.0), 4, 3);
        assert!(deleted.iter().all(|&d| !d));
        assert_eq!(deleted.len(), 64);
        assert!(stats.iter().all(|r| r.supersteps == 0));
    }

    #[test]
    fn zero_ranks_is_a_typed_error() {
        let g = generators::cycle(8);
        let scheme = TriangleReduction { cfg: TrConfig::plain_1(0.5) };
        let err = distributed_compress(&g, &scheme, 0, 1).unwrap_err();
        assert_eq!(err.code(), "dist-invalid-ranks");
    }
}
