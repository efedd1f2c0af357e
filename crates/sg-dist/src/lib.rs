//! # sg-dist — simulated distributed-memory compression (§7.3)
//!
//! The paper compresses its largest graphs (up to Web Data Commons 2012 at
//! ≈128 B edges) with compression kernels distributed over MPI Remote
//! Memory Access. Here each MPI rank is an OS thread (`run_ranks`) owning
//! a contiguous part of the graph (`sg_graph::partition`), and the root
//! gathers the ranks' results in rank order.
//!
//! No kernel logic lives in this crate: a rank calls the per-element
//! functions the shared-memory engine maps over its pool
//! (`sg_core::decide_edge`, `decide_vertex`, `plain_tr_deletions`),
//! sequentially over its own range — ranks are the parallelism here.
//!
//! * **edge kernels** — ranks return their shard's decisions and the root
//!   materializes through `sg_core::materialize_edges` (reweights included);
//! * **vertex kernels** — ranks return their range's removal verdicts;
//! * **Triangle Reduction** — the one class whose ranks exchange messages
//!   (the `sharded` module): Plain routes each deletion to the edge's owner
//!   in one superstep, Edge-Once / Count-Triangles run the reservation
//!   protocol.
//!
//! The result is **bit-identical** — edges, weights, vertex mapping — to
//! `scheme.apply(g, seed)` at any rank count. Schemes that rewrite the
//! graph globally (summarization, spanners, collapse) report
//! [`DistError::Unsupported`].
//!
//! A *federation* shard ([`shard_compress`]) is the same per-part closure
//! for one part, converted to a sorted id list: sg-serve's coordinator
//! fans `(shard, shards)` sub-requests out to worker daemons holding full
//! replicas and merges the lists with [`apply_edge_deletions`] /
//! [`apply_vertex_removals`]. Replies carry ids only, so plans that need
//! more — the Edge-Once flag exchange, reweighted survivors — are not
//! federable ([`federation_plan`]).

pub mod error;
mod sharded;

pub use error::DistError;

use sg_core::kernel::{EdgeDecision, EdgeKernel, VertexDecision, VertexKernel};
use sg_core::schemes::triangle_reduction::edge_triangle_counts;
use sg_core::schemes::{plain_tr_deletions, Discipline, EdgeChoice};
use sg_core::{
    decide_edge, decide_vertex, materialize_edges, CompressionResult, CompressionScheme, DetRand,
    DistPlan, SgContext,
};
use sg_graph::partition::{partition_edges, partition_vertices, EdgeShard};
use sg_graph::properties::DegreeDistribution;
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::time::Instant;

/// Per-rank execution statistics returned by the simulated pipeline.
#[derive(Clone, Debug)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Canonical edges owned by the rank.
    pub owned_edges: usize,
    /// Owned edges that survived compression.
    pub kept_edges: usize,
    /// Messages the rank sent over the exchange (gather sends included).
    pub messages_sent: u64,
    /// Superstep rounds the rank executed (1 for stateless kernels).
    pub supersteps: u64,
}

/// Statistics of stateless ranks — one superstep, one gather message each —
/// where rank `r` owns the edge ids `edge_starts[r]..edge_starts[r + 1]` and
/// `survives(e)` tells whether edge `e` is in the output.
fn stateless_stats(edge_starts: &[usize], survives: impl Fn(EdgeId) -> bool) -> Vec<RankStats> {
    edge_starts
        .windows(2)
        .enumerate()
        .map(|(rank, owned)| RankStats {
            rank,
            owned_edges: owned[1] - owned[0],
            kept_edges: (owned[0]..owned[1]).filter(|&e| survives(e as EdgeId)).count(),
            messages_sent: 1,
            supersteps: 1,
        })
        .collect()
}

/// Outcome of a distributed compression run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// The compressed graph (gathered at the root).
    pub result: CompressionResult,
    /// Per-rank statistics.
    pub ranks: Vec<RankStats>,
}

impl DistResult {
    /// Largest relative deviation of any rank's `owned_edges` from the
    /// mean, in percent — the load-imbalance figure `slimbench` reports
    /// as `sg-dist.imbalance_pct`.
    pub fn edge_imbalance_pct(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let total: usize = self.ranks.iter().map(|r| r.owned_edges).sum();
        let mean = total as f64 / self.ranks.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        self.ranks
            .iter()
            .map(|r| ((r.owned_edges as f64 - mean).abs() / mean) * 100.0)
            .fold(0.0, f64::max)
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Maximum superstep count over the ranks.
    pub fn max_supersteps(&self) -> u64 {
        self.ranks.iter().map(|r| r.supersteps).max().unwrap_or(0)
    }

    /// Degree histogram of the compressed graph (`degree -> #vertices`),
    /// the Figure-8 artifact; computed on demand.
    pub fn degree_histogram(&self) -> Vec<(usize, usize)> {
        DegreeDistribution::of(&self.result.graph).entries
    }
}

/// Runs `body(rank)` on one scoped thread per rank (thread = MPI rank) and
/// returns the results in rank order — the gather at the root.
pub(crate) fn run_ranks<T: Send>(ranks: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..ranks).map(|rank| scope.spawn(move || body(rank))).collect();
        handles
            .into_iter()
            .map(|rank| rank.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// One part's edge-kernel decisions, in edge-id order: what a rank returns
/// for its shard and what a federation shard converts to deletion ids.
fn edge_part(
    g: &CsrGraph,
    kernel: &dyn EdgeKernel,
    part: EdgeShard,
    seed: u64,
) -> Vec<EdgeDecision> {
    let sg = SgContext::new(g, seed);
    part.edge_ids().map(|e| decide_edge(kernel, &sg, e)).collect()
}

/// One part's vertex-kernel verdicts (`true` = removed) for the vertex
/// range `[lo, hi)`, in vertex order.
fn vertex_part(
    g: &CsrGraph,
    kernel: &dyn VertexKernel,
    (lo, hi): (usize, usize),
    seed: u64,
) -> Vec<bool> {
    let sg = SgContext::new(g, seed);
    (lo..hi).map(|v| decide_vertex(kernel, &sg, v as VertexId) == VertexDecision::Delete).collect()
}

/// Runs any registry scheme with a sharded-execution plan over `ranks`
/// simulated ranks: edge-kernel schemes (`uniform`, `spectral`, `cut`)
/// shard the edge array, vertex-kernel schemes (`lowdeg`) the vertex set,
/// and the Triangle Reduction family (`tr`, `tr-eo`, `tr-ct`, `tr-mw`) runs
/// the superstep protocol. Schemes that rewrite the graph globally
/// (`collapse`, `spanner`, `summary`) return [`DistError::Unsupported`].
/// Bit-identical to `scheme.apply(g, seed)` for any rank count.
///
/// `g` may be an `.sgr` mapping (`sg_store::MmapGraph` derefs to
/// `CsrGraph`): every rank borrows it, so the simulated cluster holds one
/// copy — the paper's ranks reading the node-local graph through RMA.
pub fn distributed_compress(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
    ranks: usize,
    seed: u64,
) -> Result<DistResult, DistError> {
    if ranks == 0 {
        return Err(DistError::InvalidRanks { ranks });
    }
    let start = Instant::now();
    let plan = scheme.dist_plan(g).ok_or_else(|| unsupported_global(scheme))?;
    let (graph, vertex_mapping, stats) = match &plan {
        DistPlan::EdgeKernel(kernel) => {
            let shards = partition_edges(g, ranks);
            let decisions =
                run_ranks(ranks, |rank| edge_part(g, kernel.as_ref(), shards[rank], seed)).concat();
            let mut edge_starts: Vec<usize> = shards.iter().map(|s| s.start as usize).collect();
            edge_starts.push(g.num_edges());
            let stats =
                stateless_stats(&edge_starts, |e| decisions[e as usize] != EdgeDecision::Delete);
            (materialize_edges(g, &decisions), None, stats)
        }
        DistPlan::Triangle(cfg) => {
            let (deleted, stats) = sharded::sharded_triangle_compress(g, *cfg, ranks, seed);
            (g.filter_edges(|e| !deleted[e as usize]), None, stats)
        }
        DistPlan::Vertex(kernel) => {
            let parts = partition_vertices(g.num_vertices(), ranks);
            let removed =
                run_ranks(ranks, |rank| vertex_part(g, kernel.as_ref(), parts[rank], seed))
                    .concat();
            let stats = stateless_stats(&sharded::edge_rank_starts(g, &parts), |e| {
                // An edge survives when both endpoints survive.
                let (u, v) = g.edge_endpoints(e);
                !removed[u as usize] && !removed[v as usize]
            });
            let (graph, mapping) = g.remove_vertices(&removed);
            (graph, Some(mapping), stats)
        }
    };
    let result = CompressionResult::of(g, graph, vertex_mapping, start);
    Ok(DistResult { result, ranks: stats })
}

// ---------------------------------------------------------------------------
// Federation building blocks: one daemon computes one shard of a request
// against its full graph replica; the coordinator merges the shards.
// ---------------------------------------------------------------------------

/// What one federation shard computed: edge deletions or vertex removals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Edge ids to delete, sorted ascending, deduplicated.
    Edges(Vec<EdgeId>),
    /// Vertex ids to remove, sorted ascending, deduplicated.
    Vertices(Vec<VertexId>),
}

/// The merge type of a federable scheme: what its shards return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardKind {
    /// Shards return edge deletions; the merged graph keeps every edge no
    /// shard deleted.
    Edges,
    /// Shards return vertex removals; the merged graph relabels survivors.
    Vertices,
}

/// Classifies `scheme` for federation **without running a kernel**:
/// `Ok(kind)` if independent `(shard, shards)` sub-runs against full
/// replicas reconstruct the shared-memory result, else exactly the typed
/// error [`shard_compress`] would return. The serving coordinator calls
/// this up front to pick federated vs coordinator-local execution.
pub fn federation_plan(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
) -> Result<ShardKind, DistError> {
    let plan = scheme.dist_plan(g).ok_or_else(|| unsupported_global(scheme))?;
    shard_kind(scheme, &plan)
}

/// What the shards of `plan` return, or why the plan cannot federate: a
/// shard reply is a list of ids, so it can carry neither the Edge-Once flag
/// exchange nor a survivor's new weight.
fn shard_kind(scheme: &dyn CompressionScheme, plan: &DistPlan) -> Result<ShardKind, DistError> {
    let reason = match plan {
        DistPlan::EdgeKernel(kernel) if kernel.reweights() => {
            "the kernel reweights surviving edges and shard replies carry deletion ids only; \
             run it through distributed_compress"
        }
        DistPlan::Triangle(cfg) if cfg.discipline != Discipline::Plain => {
            "Edge-Once disciplines need the cross-shard flag exchange; \
             run them through distributed_compress"
        }
        DistPlan::EdgeKernel(_) | DistPlan::Triangle(_) => return Ok(ShardKind::Edges),
        DistPlan::Vertex(_) => return Ok(ShardKind::Vertices),
    };
    Err(DistError::Unsupported { scheme: scheme.label(), reason: reason.to_string() })
}

fn unsupported_global(scheme: &dyn CompressionScheme) -> DistError {
    DistError::Unsupported {
        scheme: scheme.name().to_string(),
        reason: "scheme rewrites the graph globally; no sharded-execution plan".to_string(),
    }
}

/// Computes shard `shard` of `shards` for any federable scheme: the part's
/// decisions — exactly what rank `shard` of a `shards`-rank
/// [`distributed_compress`] decides — as a sorted id list. Edge kernels and
/// *Plain* Triangle Reduction yield [`ShardOutcome::Edges`]; vertex kernels
/// yield [`ShardOutcome::Vertices`]. Plans [`federation_plan`] rejects are
/// rejected here with the same error — the coordinator runs those locally.
pub fn shard_compress(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
    shard: usize,
    shards: usize,
    seed: u64,
) -> Result<ShardOutcome, DistError> {
    if shards == 0 || shard >= shards {
        return Err(DistError::InvalidShard { shard, shards });
    }
    let plan = scheme.dist_plan(g).ok_or_else(|| unsupported_global(scheme))?;
    shard_kind(scheme, &plan)?;
    Ok(match &plan {
        DistPlan::EdgeKernel(kernel) => {
            let part = partition_edges(g, shards)[shard];
            let decisions = edge_part(g, kernel.as_ref(), part, seed);
            let deleted =
                part.edge_ids().zip(decisions).filter(|&(_, d)| d == EdgeDecision::Delete);
            ShardOutcome::Edges(deleted.map(|(e, _)| e).collect())
        }
        DistPlan::Triangle(cfg) => {
            let part = partition_edges(g, shards)[shard];
            let counts =
                (cfg.choice == EdgeChoice::FewestTriangles).then(|| edge_triangle_counts(g));
            let rand = DetRand::new(seed);
            let mut deleted = plain_tr_deletions(g, *cfg, rand, counts.as_deref(), part.edge_ids());
            deleted.sort_unstable();
            deleted.dedup();
            ShardOutcome::Edges(deleted)
        }
        DistPlan::Vertex(kernel) => {
            let (lo, hi) = partition_vertices(g.num_vertices(), shards)[shard];
            let removed = vertex_part(g, kernel.as_ref(), (lo, hi), seed);
            let ids = (lo..hi).zip(removed).filter(|&(_, gone)| gone);
            ShardOutcome::Vertices(ids.map(|(v, _)| v as VertexId).collect())
        }
    })
}

/// Materializes the merged result of edge-deleting shards (`deleted` in any
/// order, repeats allowed: the ids only set a mask).
pub fn apply_edge_deletions<'a>(
    g: &CsrGraph,
    deleted: impl IntoIterator<Item = &'a EdgeId>,
) -> CsrGraph {
    let mut mask = vec![false; g.num_edges()];
    for &e in deleted {
        mask[e as usize] = true;
    }
    g.filter_edges(|e| !mask[e as usize])
}

/// Materializes the merged result of vertex-removing shards (any order,
/// repeats allowed): the relabelled graph and the old→new vertex mapping.
pub fn apply_vertex_removals<'a>(
    g: &CsrGraph,
    removed: impl IntoIterator<Item = &'a VertexId>,
) -> (CsrGraph, Vec<Option<VertexId>>) {
    let mut mask = vec![false; g.num_vertices()];
    for &v in removed {
        mask[v as usize] = true;
    }
    g.remove_vertices(&mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::schemes::uniform_sample;
    use sg_core::{SchemeParams, SchemeRegistry};
    use sg_graph::generators;

    fn scheme(name: &str, params: &[(&str, &str)]) -> Box<dyn CompressionScheme> {
        let params = SchemeParams::from_pairs(params);
        SchemeRegistry::with_defaults().create(name, &params).expect("registered")
    }

    fn uniform_ranks(g: &CsrGraph, p: &str, ranks: usize, seed: u64) -> DistResult {
        distributed_compress(g, scheme("uniform", &[("p", p)]).as_ref(), ranks, seed)
            .expect("uniform has an edge plan")
    }

    #[test]
    fn distributed_matches_shared_memory_exactly() {
        // Determinism in (seed, edge id) means rank count cannot change the
        // result — the core guarantee of the simulation.
        let g = generators::rmat_graph500(12, 8, 1);
        let shared = uniform_sample(&g, 0.4, 42);
        for ranks in [1, 2, 7, 16] {
            let dist = uniform_ranks(&g, "0.4", ranks, 42);
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "ranks = {ranks}"
            );
        }
    }

    #[test]
    fn rank_stats_cover_all_edges() {
        let g = generators::erdos_renyi(1000, 5000, 2);
        let dist = uniform_ranks(&g, "0.3", 5, 3);
        let owned: usize = dist.ranks.iter().map(|r| r.owned_edges).sum();
        let kept: usize = dist.ranks.iter().map(|r| r.kept_edges).sum();
        assert_eq!(owned, g.num_edges());
        assert_eq!(kept, dist.result.graph.num_edges());
        assert!(dist.edge_imbalance_pct() < 1.0, "contiguous shards stay balanced");
        assert_eq!(dist.max_supersteps(), 1);
    }

    #[test]
    fn histogram_matches_direct_computation() {
        // p = 0 keeps every edge, so the histogram is the input's own.
        let g = generators::barabasi_albert(800, 4, 4);
        let hist = uniform_ranks(&g, "0", 6, 1).degree_histogram();
        assert_eq!(hist, DegreeDistribution::of(&g).entries);
    }

    #[test]
    fn histogram_total_is_n() {
        let g = generators::rmat_graph500(11, 10, 5);
        let dist = uniform_ranks(&g, "0.7", 4, 6);
        let total: usize = dist.degree_histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn registry_schemes_dispatch_through_their_plans() {
        let g = generators::planted_triangles(&generators::erdos_renyi(900, 2000, 9), 1500, 3);
        // Edge plan.
        let uniform = scheme("uniform", &[("p", "0.4")]);
        let dist = distributed_compress(&g, uniform.as_ref(), 5, 17).expect("edge kernel");
        assert_eq!(dist.result.graph.edge_slice(), uniform.apply(&g, 17).graph.edge_slice());
        // Triangle plan — the edge-kernel-only restriction is gone.
        let tr = scheme("tr", &[("p", "0.4")]);
        let dist = distributed_compress(&g, tr.as_ref(), 5, 17).expect("triangle plan");
        assert_eq!(dist.result.graph.edge_slice(), tr.apply(&g, 17).graph.edge_slice());
        // Vertex plan.
        let lowdeg = scheme("lowdeg", &[]);
        let dist = distributed_compress(&g, lowdeg.as_ref(), 5, 17).expect("vertex plan");
        let shared = lowdeg.apply(&g, 17);
        assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice());
        assert_eq!(dist.result.vertex_mapping, shared.vertex_mapping);
        // Global rewrites stay unsupported, with a typed error.
        let summary = scheme("summary", &[]);
        let err = distributed_compress(&g, summary.as_ref(), 5, 17).unwrap_err();
        assert_eq!(err.code(), "dist-unsupported");
    }

    #[test]
    fn ranks_share_one_mapping_and_match_heap_results() {
        let g = generators::erdos_renyi(2000, 9000, 21);
        let dir = std::env::temp_dir().join("sg-dist-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shared.sgr");
        sg_store::save_sgr(&g, &path).expect("save");

        let uniform = scheme("uniform", &[("p", "0.35")]);
        let shared = distributed_compress(&g, uniform.as_ref(), 6, 99).expect("heap run");
        // Every rank borrows the one mapping: zero-copy, no private copies.
        let mapped = sg_store::MmapGraph::open(&path).expect("map");
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        assert!(mapped.is_zero_copy());
        let via_map = distributed_compress(&mapped, uniform.as_ref(), 6, 99).expect("mmap run");
        assert_eq!(
            shared.result.graph.edge_slice(),
            via_map.result.graph.edge_slice(),
            "mmap-served shards must be bit-identical to the heap run"
        );
        assert_eq!(shared.degree_histogram(), via_map.degree_histogram());
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let g = generators::path(10);
        let dist = uniform_ranks(&g, "0", 1, 7);
        assert_eq!(dist.result.graph.num_edges(), 9);
        assert_eq!(dist.ranks.len(), 1);
    }

    #[test]
    fn shard_union_reconstructs_shared_memory_result() {
        let g = generators::planted_triangles(&generators::erdos_renyi(700, 1500, 5), 1000, 6);
        for name in ["uniform", "tr"] {
            let scheme = scheme(name, &[("p", "0.5")]);
            let shared = scheme.apply(&g, 23);
            let mut deleted: Vec<EdgeId> = Vec::new();
            for shard in 0..3 {
                match shard_compress(&g, scheme.as_ref(), shard, 3, 23).expect("shardable") {
                    ShardOutcome::Edges(d) => deleted.extend(d),
                    ShardOutcome::Vertices(_) => panic!("edge scheme returned vertices"),
                }
            }
            deleted.sort_unstable();
            deleted.dedup();
            let merged = apply_edge_deletions(&g, &deleted);
            assert_eq!(merged.edge_slice(), shared.graph.edge_slice(), "scheme {name}");
        }
        // Vertex scheme: removals merge across shards.
        let lowdeg = scheme("lowdeg", &[]);
        let shared = lowdeg.apply(&g, 23);
        let mut removed: Vec<VertexId> = Vec::new();
        for shard in 0..3 {
            match shard_compress(&g, lowdeg.as_ref(), shard, 3, 23).expect("shardable") {
                ShardOutcome::Vertices(v) => removed.extend(v),
                ShardOutcome::Edges(_) => panic!("vertex scheme returned edges"),
            }
        }
        let (merged, mapping) = apply_vertex_removals(&g, &removed);
        assert_eq!(merged.edge_slice(), shared.graph.edge_slice());
        assert_eq!(Some(mapping), shared.vertex_mapping);
    }

    #[test]
    fn federation_plan_classifies_without_running() {
        let g = generators::planted_triangles(&generators::erdos_renyi(200, 400, 2), 200, 3);
        let plan = |name: &str| federation_plan(&g, scheme(name, &[("p", "0.5")]).as_ref());
        assert_eq!(plan("uniform").expect("edge kernel"), ShardKind::Edges);
        assert_eq!(plan("tr").expect("plain triangles"), ShardKind::Edges);
        assert_eq!(plan("lowdeg").expect("vertex kernel"), ShardKind::Vertices);
        assert_eq!(plan("tr-eo").unwrap_err().code(), "dist-unsupported");
        assert_eq!(plan("summary").unwrap_err().code(), "dist-unsupported");
        // Shard replies carry ids only: a reweighting kernel cannot federate,
        // and the shard itself refuses with the same typed error.
        let spectral = |reweight: &str| scheme("spectral", &[("p", "0.5"), ("reweight", reweight)]);
        assert_eq!(federation_plan(&g, spectral("false").as_ref()), Ok(ShardKind::Edges));
        let err = federation_plan(&g, spectral("true").as_ref()).unwrap_err();
        assert_eq!(err.code(), "dist-unsupported");
        assert!(err.to_string().contains("reweights"), "{err}");
        assert_eq!(shard_compress(&g, spectral("true").as_ref(), 0, 2, 1), Err(err));
    }

    #[test]
    fn stateful_disciplines_refuse_federation_shards() {
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 600, 7), 400, 8);
        let tr_eo = scheme("tr-eo", &[("p", "0.5")]);
        let err = shard_compress(&g, tr_eo.as_ref(), 0, 2, 9).unwrap_err();
        assert_eq!(err.code(), "dist-unsupported");
        // But the same scheme runs fine through the superstep protocol.
        assert!(distributed_compress(&g, tr_eo.as_ref(), 2, 9).is_ok());
    }

    #[test]
    fn shard_bounds_are_checked() {
        let g = generators::path(10);
        let uniform = scheme("uniform", &[("p", "0.5")]);
        for (shard, shards) in [(2, 2), (0, 0), (5, 3)] {
            let err = shard_compress(&g, uniform.as_ref(), shard, shards, 1).unwrap_err();
            assert_eq!(err.code(), "dist-invalid-shard", "({shard}, {shards})");
        }
    }
}
