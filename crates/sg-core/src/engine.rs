//! The Slim Graph execution engine (§3.2).
//!
//! Stage 1 of the paper's two-stage pipeline: compression kernels run over
//! their elements (edges, vertices, triangles, or subgraphs) and the engine
//! *materializes* a compacted CSR graph. Stage 2 — graph algorithms over
//! the compressed graph — is `sg-algos`, invoked by the harness.
//!
//! A scheme describes itself once, as a [`Plan`]: its kernel, by class.
//! Each class decides in one place and every executor calls it:
//! [`decide_edge`] / [`decide_vertex`] build the element's view and run the
//! kernel, [`materialize_edges`] turns edge decisions into the output
//! graph, and triangles (§4.3) are decided in
//! [`crate::schemes::triangle_reduction::decide_triangle`], a slice at a
//! time (see `crate::kernel`). [`run_plan`] maps a plan over the whole
//! graph on the rayon pool; an `sg-dist` rank maps it sequentially over its
//! own range, and a federation shard is one such range.
//!
//! Subgraph kernels — the spanner's, which needs a mapping built first —
//! run through [`run_subgraph_kernel`]. The paper's `atomic SG.del` is
//! realized without an atomic: each chunk of clusters returns its
//! deletions as a list, and the lists are ORed into one mask, which is
//! order-free.

use crate::context::SgContext;
use crate::kernel::{
    EdgeDecision, EdgeKernel, EdgeView, SubgraphKernel, SubgraphScratch, SubgraphView,
    VertexDecision, VertexKernel, VertexView,
};
use crate::mapping::VertexMapping;
use crate::schemes::triangle_reduction::{triangle_reduce, TrConfig};
use rayon::prelude::*;
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::time::{Duration, Instant};

/// Outcome of one compression run.
#[derive(Clone, Debug)]
pub struct CompressionResult {
    /// The compressed graph.
    pub graph: CsrGraph,
    /// Edge count of the input.
    pub original_edges: usize,
    /// Vertex count of the input.
    pub original_vertices: usize,
    /// Wall-clock compression time (kernel execution + materialization).
    pub elapsed: Duration,
    /// Old→new vertex relabelling when vertices were removed.
    pub vertex_mapping: Option<Vec<Option<VertexId>>>,
}

impl CompressionResult {
    /// Stamps the outcome of compressing `input` into `graph` by a run that
    /// began at `start`.
    pub fn of(
        input: &CsrGraph,
        graph: CsrGraph,
        vertex_mapping: Option<Vec<Option<VertexId>>>,
        start: Instant,
    ) -> Self {
        Self {
            graph,
            original_edges: input.num_edges(),
            original_vertices: input.num_vertices(),
            elapsed: start.elapsed(),
            vertex_mapping,
        }
    }

    /// Number of removed edges; 0 when the scheme *added* edges (an
    /// ϵ-summary reconstruction or a future densifying kernel) — use
    /// [`CompressionResult::edge_delta`] for the signed count.
    pub fn edges_removed(&self) -> usize {
        self.original_edges.saturating_sub(self.graph.num_edges())
    }

    /// Signed edge delta: positive when edges were removed, negative when
    /// the scheme added edges.
    pub fn edge_delta(&self) -> i64 {
        self.original_edges as i64 - self.graph.num_edges() as i64
    }

    /// Remaining-edge ratio `m' / m` (the color scale of Figure 5). Can
    /// exceed 1 when the scheme added edges.
    pub fn compression_ratio(&self) -> f64 {
        if self.original_edges == 0 {
            1.0
        } else {
            self.graph.num_edges() as f64 / self.original_edges as f64
        }
    }

    /// Removed-edge fraction `1 - m'/m` (the y-axis of Figure 6); negative
    /// when the scheme added edges.
    pub fn edge_reduction(&self) -> f64 {
        1.0 - self.compression_ratio()
    }
}

/// The per-edge decision: builds the [`EdgeView`] of canonical edge `e` of
/// `sg.graph` and runs `kernel` on it. Pure in `(sg.seed, e)`, so whoever
/// asks — a pool worker, a rank, a shard — gets the same answer.
#[inline]
pub fn decide_edge<K: EdgeKernel + ?Sized>(
    kernel: &K,
    sg: &SgContext<'_>,
    e: EdgeId,
) -> EdgeDecision {
    let g = sg.graph;
    let (u, v) = g.edge_endpoints(e);
    let view =
        EdgeView { id: e, u, v, weight: g.edge_weight(e), deg_u: g.degree(u), deg_v: g.degree(v) };
    kernel.process(view, sg)
}

/// The per-vertex decision: builds the [`VertexView`] of `v` and runs
/// `kernel` on it.
#[inline]
pub fn decide_vertex<K: VertexKernel + ?Sized>(
    kernel: &K,
    sg: &SgContext<'_>,
    v: VertexId,
) -> VertexDecision {
    kernel.process(VertexView { id: v, degree: sg.graph.degree(v) }, sg)
}

/// The edge materializer: `decisions[e]` keeps, deletes or reweights
/// canonical edge `e` of `g`. One [`EdgeDecision::Reweight`] makes the
/// output weighted (kept edges carry their input weight).
pub fn materialize_edges(g: &CsrGraph, decisions: &[EdgeDecision]) -> CsrGraph {
    assert_eq!(decisions.len(), g.num_edges(), "one decision per canonical edge");
    if decisions.par_iter().any(|d| matches!(d, EdgeDecision::Reweight(_))) {
        g.filter_reweight(|e| match decisions[e as usize] {
            EdgeDecision::Keep => Some(g.edge_weight(e)),
            EdgeDecision::Delete => None,
            EdgeDecision::Reweight(w) => Some(w),
        })
    } else {
        g.filter_edges(|e| decisions[e as usize] != EdgeDecision::Delete)
    }
}

/// How a scheme runs: its kernel, by class. [`run_plan`] executes a plan
/// on the rayon pool; `sg_dist::distributed_compress` splits the same plan
/// over its ranks and `sg_dist::shard_compress` computes one part of it, so
/// a scheme's kernel is built in one place
/// ([`crate::CompressionScheme::plan`]) whoever runs it.
pub enum Plan {
    /// A pure edge kernel: every edge is decided independently.
    Edge(Box<dyn EdgeKernel>),
    /// The Triangle Reduction family: decided per triangle, and for the
    /// Edge-Once disciplines committed in canonical triangle order (the
    /// paper's shared `considered` flags).
    Triangle(TrConfig),
    /// A pure vertex kernel: every vertex is decided independently.
    Vertex(Box<dyn VertexKernel>),
}

/// Executes `plan` on `g` over the rayon pool with deterministic seed
/// `seed` — what [`crate::CompressionScheme::apply`] does for every scheme
/// that has a plan.
pub fn run_plan(g: &CsrGraph, plan: &Plan, seed: u64) -> CompressionResult {
    match plan {
        Plan::Edge(kernel) => run_edge_kernel(g, kernel.as_ref(), seed),
        Plan::Triangle(cfg) => triangle_reduce(g, *cfg, seed),
        Plan::Vertex(kernel) => run_vertex_kernel(g, kernel.as_ref(), seed),
    }
}

/// Executes an edge kernel over every canonical edge in parallel (§4.2).
/// Kernels returning [`EdgeDecision::Reweight`] produce a weighted output
/// graph.
pub(crate) fn run_edge_kernel<K: EdgeKernel + ?Sized>(
    g: &CsrGraph,
    kernel: &K,
    seed: u64,
) -> CompressionResult {
    let start = Instant::now();
    let sg = SgContext::new(g, seed);
    let decisions: Vec<EdgeDecision> =
        g.par_edge_ids().map(|e| decide_edge(kernel, &sg, e)).collect();
    CompressionResult::of(g, materialize_edges(g, &decisions), None, start)
}

/// Executes a vertex kernel over every vertex in parallel (§4.4). Deleted
/// vertices take their incident edges with them; survivors are relabelled
/// compactly (Table 3's `remove k deg-1 vertices` row changes `n`).
pub(crate) fn run_vertex_kernel<K: VertexKernel + ?Sized>(
    g: &CsrGraph,
    kernel: &K,
    seed: u64,
) -> CompressionResult {
    let start = Instant::now();
    let sg = SgContext::new(g, seed);
    let removed: Vec<bool> = (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| decide_vertex(kernel, &sg, v) == VertexDecision::Delete)
        .collect();
    let (graph, mapping) = g.remove_vertices(&removed);
    CompressionResult::of(g, graph, Some(mapping), start)
}

/// Executes a subgraph kernel over every cluster of `mapping` in parallel
/// (§4.5). The runtime follows Listing 2: the mapping has already been
/// constructed (`SG.construct_mapping()`), then all kernels run
/// concurrently (`SG.run_kernels()`). Each chunk of clusters appends its
/// instances' deletions to one list of its own; the lists are ORed into one
/// mask and the survivors filtered, so neither the order in which instances
/// run nor an edge deleted twice changes the output. Every instance is also
/// lent a [`SubgraphScratch`]: `n` + `#clusters` words, created once per
/// worker that runs a chunk (the free list of
/// [`sg_algos::tc::fold_with_scratch`], as for the triangle listing's row
/// scratch) and dropped when the call returns.
pub fn run_subgraph_kernel<K: SubgraphKernel + ?Sized>(
    g: &CsrGraph,
    mapping: &VertexMapping,
    kernel: &K,
    seed: u64,
) -> CompressionResult {
    let start = Instant::now();
    let sg = SgContext::new(g, seed);
    let lists = sg_algos::tc::fold_with_scratch(
        mapping.clusters.par_iter().enumerate(),
        || SubgraphScratch::new(g.num_vertices(), mapping.num_clusters()),
        Vec::new,
        |scratch, deleted, (cid, members)| {
            let view = SubgraphView { cluster_id: cid, members, assignment: &mapping.assignment };
            kernel.process(view, &sg, scratch, deleted);
        },
    );
    let mut deleted = EdgeBits::new(g.num_edges());
    lists.iter().flatten().for_each(|&e| deleted.set(e));
    CompressionResult::of(g, g.filter_edges(|e| !deleted.get(e)), None, start)
}

/// One bit per canonical edge, written by a single thread: the mask the
/// subgraph and Triangle Reduction executors OR their deletion lists into.
pub(crate) struct EdgeBits(Vec<u64>);

impl EdgeBits {
    pub(crate) fn new(m: usize) -> Self {
        Self(vec![0; m.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn get(&self, e: EdgeId) -> bool {
        self.0[e as usize / 64] >> (e % 64) & 1 == 1
    }

    #[inline]
    pub(crate) fn set(&mut self, e: EdgeId) {
        self.0[e as usize / 64] |= 1 << (e % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::*;
    use sg_graph::generators;

    struct KeepAll;
    impl EdgeKernel for KeepAll {
        fn process(&self, _e: EdgeView, _sg: &SgContext<'_>) -> EdgeDecision {
            EdgeDecision::Keep
        }
    }

    struct DropEven;
    impl EdgeKernel for DropEven {
        fn process(&self, e: EdgeView, _sg: &SgContext<'_>) -> EdgeDecision {
            if e.id.is_multiple_of(2) {
                EdgeDecision::Delete
            } else {
                EdgeDecision::Keep
            }
        }
    }

    struct DoubleWeight;
    impl EdgeKernel for DoubleWeight {
        fn process(&self, e: EdgeView, _sg: &SgContext<'_>) -> EdgeDecision {
            EdgeDecision::Reweight(e.weight * 2.0)
        }
    }

    struct DropLeaves;
    impl VertexKernel for DropLeaves {
        fn process(&self, v: VertexView, _sg: &SgContext<'_>) -> VertexDecision {
            if v.degree <= 1 {
                VertexDecision::Delete
            } else {
                VertexDecision::Keep
            }
        }
    }

    #[test]
    fn keep_all_is_identity() {
        let g = generators::erdos_renyi(100, 400, 1);
        let r = run_edge_kernel(&g, &KeepAll, 0);
        assert_eq!(r.graph.num_edges(), g.num_edges());
        assert_eq!(r.compression_ratio(), 1.0);
        assert_eq!(r.edges_removed(), 0);
    }

    #[test]
    fn drop_even_halves() {
        let g = generators::erdos_renyi(100, 400, 2);
        let r = run_edge_kernel(&g, &DropEven, 0);
        assert_eq!(r.graph.num_edges(), g.num_edges() / 2);
        assert!((r.compression_ratio() - 0.5).abs() < 0.01);
    }

    #[test]
    fn reweight_produces_weighted_graph() {
        let g = generators::cycle(6);
        let r = run_edge_kernel(&g, &DoubleWeight, 0);
        assert!(r.graph.is_weighted());
        assert_eq!(r.graph.num_edges(), 6);
        for (e, _, _) in r.graph.edge_iter() {
            assert_eq!(r.graph.edge_weight(e), 2.0);
        }
    }

    #[test]
    fn materializer_keeps_deletes_and_reweights_on_weighted_input() {
        let g = generators::with_random_weights(&generators::cycle(4), 2.0, 3.0, 1);
        let input = g.weight_slice().expect("weighted input");
        let decisions = [
            EdgeDecision::Keep,
            EdgeDecision::Delete,
            EdgeDecision::Reweight(9.0),
            EdgeDecision::Keep,
        ];
        let out = materialize_edges(&g, &decisions);
        let kept = [g.edge_slice()[0], g.edge_slice()[2], g.edge_slice()[3]];
        assert_eq!(out.edge_slice(), kept);
        assert_eq!(out.weight_slice(), Some(&[input[0], 9.0, input[3]][..]));
        // Without a reweight the input weights still ride along.
        let out = materialize_edges(&g, &[EdgeDecision::Keep; 4]);
        assert_eq!(out.weight_slice(), Some(input));
    }

    #[test]
    fn vertex_kernel_removes_and_relabels() {
        let g = generators::star(6); // hub + 5 leaves
        let r = run_vertex_kernel(&g, &DropLeaves, 0);
        assert_eq!(r.graph.num_vertices(), 1);
        assert_eq!(r.graph.num_edges(), 0);
        let mapping = r.vertex_mapping.expect("vertex kernel relabels");
        assert!(mapping[0].is_some());
        assert!(mapping[1..].iter().all(Option::is_none));
    }

    struct DropIntraCluster;
    impl SubgraphKernel for DropIntraCluster {
        fn process(
            &self,
            sgv: SubgraphView<'_>,
            sg: &SgContext<'_>,
            _: &mut SubgraphScratch,
            deleted: &mut Vec<EdgeId>,
        ) {
            // Both endpoints list an intra-cluster edge: deleting it twice
            // is deleting it.
            for &v in sgv.members {
                let row = sg.graph.neighbors(v);
                let eids = sg.graph.neighbor_edge_ids(v);
                for (i, &u) in row.iter().enumerate() {
                    if sgv.assignment[u as usize] == sgv.cluster_id as u32 {
                        deleted.push(eids[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn subgraph_kernel_uses_mapping() {
        let g = generators::complete(6);
        // Two clusters {0,1,2} and {3,4,5}: dropping intra-cluster edges
        // leaves only the 9 cross edges.
        let mapping = VertexMapping::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let r = run_subgraph_kernel(&g, &mapping, &DropIntraCluster, 0);
        assert_eq!(r.graph.num_edges(), 9);
    }

    #[test]
    fn edge_growth_does_not_underflow() {
        // Regression: `original_edges - num_edges()` panicked in debug
        // builds whenever a stage *added* edges (e.g. an ϵ-summary
        // reconstruction feeding a later pipeline stage).
        let grown = CompressionResult {
            graph: generators::complete(5), // 10 edges
            original_edges: 4,
            original_vertices: 5,
            elapsed: std::time::Duration::ZERO,
            vertex_mapping: None,
        };
        assert_eq!(grown.edges_removed(), 0);
        assert_eq!(grown.edge_delta(), -6);
        assert!(grown.edge_reduction() < 0.0);
        assert!((grown.compression_ratio() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::rmat_graph500(10, 6, 7);
        struct CoinFlip;
        impl EdgeKernel for CoinFlip {
            fn process(&self, e: EdgeView, sg: &SgContext<'_>) -> EdgeDecision {
                if sg.rand_unit(e.id as u64, 0) < 0.5 {
                    EdgeDecision::Delete
                } else {
                    EdgeDecision::Keep
                }
            }
        }
        let a = run_edge_kernel(&g, &CoinFlip, 123);
        let b = run_edge_kernel(&g, &CoinFlip, 123);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
    }
}
