//! Compression-kernel traits — the Slim Graph programming model.
//!
//! A kernel is a small program with a *local view* of the graph (§3.1): its
//! argument is an edge, a vertex, a triangle, or a subgraph, exposed here as
//! view structs carrying the fields the paper's opaque `E`/`V` references
//! provide (`e.u`, `e.v`, `e.weight`, `v.deg`, …). [`crate::SgContext`] is
//! read-only: edge and vertex kernels return a decision, pure per element,
//! and a subgraph kernel lists the edges it deletes (the paper's `atomic
//! SG.del`) in a per-chunk list the engine ORs into one mask, order-free.
//! It is also lent a per-worker [`SubgraphScratch`]; the kernel author
//! still writes only the body of `process`.
//!
//! Triangle kernels (§4.3) have no trait: the one triangle scheme family
//! decides each [`Triangle`] purely in
//! [`crate::schemes::triangle_reduction::decide_triangle`] — sampled or
//! not, edges ranked — over whole slices of the listing, and its executors
//! keep the outcome in plain per-chunk vectors.

use crate::context::SgContext;
pub use sg_algos::tc::Triangle;
use sg_graph::types::NO_EDGE;
use sg_graph::{EdgeId, VertexId, Weight};

/// Local view of an edge handed to an [`EdgeKernel`] (the paper's `E e`
/// argument plus the degree fields kernels like the spectral one read).
#[derive(Clone, Copy, Debug)]
pub struct EdgeView {
    /// Canonical edge id.
    pub id: EdgeId,
    /// Source endpoint (`e.u`).
    pub u: VertexId,
    /// Destination endpoint (`e.v`).
    pub v: VertexId,
    /// Edge weight (`e.weight`; 1.0 when unweighted).
    pub weight: Weight,
    /// Degree of `u` (`e.u.deg`).
    pub deg_u: usize,
    /// Degree of `v` (`e.v.deg`).
    pub deg_v: usize,
}

/// Outcome of an edge kernel for one edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeDecision {
    /// Edge survives unchanged.
    Keep,
    /// `atomic SG.del(e)`.
    Delete,
    /// Edge survives with a new weight (spectral sparsifiers reweight
    /// survivors by `1/p_e` so the Laplacian stays unbiased).
    Reweight(Weight),
}

/// A single-edge compression kernel (§4.2).
pub trait EdgeKernel: Sync {
    /// Decides the fate of one edge. Invoked in parallel across edges.
    fn process(&self, edge: EdgeView, sg: &SgContext<'_>) -> EdgeDecision;

    /// Whether `process` can return [`EdgeDecision::Reweight`]. Federation
    /// shards reply with deletion ids only, so a reweighting kernel runs
    /// on the coordinator instead (`sg_dist::federation_plan`).
    fn reweights(&self) -> bool {
        false
    }
}

/// Local view of a vertex handed to a [`VertexKernel`].
#[derive(Clone, Copy, Debug)]
pub struct VertexView {
    /// Vertex id.
    pub id: VertexId,
    /// Degree (`v.deg`).
    pub degree: usize,
}

/// Outcome of a vertex kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexDecision {
    /// Vertex survives.
    Keep,
    /// `atomic SG.del(v)` — vertex and all incident edges removed.
    Delete,
}

/// A single-vertex compression kernel (§4.4).
pub trait VertexKernel: Sync {
    /// Decides the fate of one vertex. Invoked in parallel across vertices.
    fn process(&self, vertex: VertexView, sg: &SgContext<'_>) -> VertexDecision;
}

/// Local view of a subgraph (cluster) handed to a [`SubgraphKernel`]: the
/// member list plus the global membership table for O(1) "is this endpoint
/// inside?" queries (the paper's `parent_ID`).
pub struct SubgraphView<'a> {
    /// Cluster index (`elem_ID`).
    pub cluster_id: usize,
    /// Vertices of this cluster.
    pub members: &'a [VertexId],
    /// `assignment[v]` = cluster index of vertex `v` (the §4.5.2 mapping).
    pub assignment: &'a [u32],
}

/// Flat working memory the engine lends a [`SubgraphKernel`], so that a
/// kernel instance needs no container of its own (on a decomposition into
/// 10 000 clusters, three hash containers per instance were about half of
/// `derive_spanner`'s time). [`crate::engine::run_subgraph_kernel`] creates
/// one scratch per worker that runs clusters, *per call* — never per cluster
/// — and hands it to every `process` that worker executes, one at a time.
///
/// The state an instance finds is what the rules below leave behind, so a
/// kernel that uses a field must keep that field's rule.
pub struct SubgraphScratch {
    /// One edge slot per vertex, all [`NO_EDGE`] when the call starts. An
    /// instance writes only its own members' slots: clusters partition the
    /// vertices and each is processed once per call, so an instance finds
    /// its members' slots untouched and nobody has to reset them.
    pub vertex_edge: Vec<EdgeId>,
    /// One edge slot per cluster id. All [`NO_EDGE`] on entry to `process`,
    /// and `process` leaves them so (clear through a touched list, not by a
    /// sweep: the vector is as long as the mapping has clusters).
    pub cluster_edge: Vec<EdgeId>,
    /// A vertex work list (e.g. a BFS queue). Contents on entry are
    /// unspecified; only the capacity is worth keeping.
    pub queue: Vec<VertexId>,
    /// A cluster-id work list (e.g. the touched `cluster_edge` slots). Empty
    /// on entry, and `process` leaves it so.
    pub touched: Vec<u32>,
}

impl SubgraphScratch {
    /// A scratch for a graph of `num_vertices` vertices mapped onto
    /// `num_clusters` clusters.
    pub fn new(num_vertices: usize, num_clusters: usize) -> Self {
        Self {
            vertex_edge: vec![NO_EDGE; num_vertices],
            cluster_edge: vec![NO_EDGE; num_clusters],
            queue: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// A subgraph compression kernel (§4.5).
pub trait SubgraphKernel: Sync {
    /// Processes one cluster, appending every edge it deletes (`SG.del(e)`)
    /// to `deleted`, the invoking chunk's list: it may hold other clusters'
    /// edges, and an edge listed twice is deleted once. Invoked in parallel
    /// across clusters; `scratch` is the invoking worker's own (see
    /// [`SubgraphScratch`] for the state it arrives in and must be left in).
    fn process(
        &self,
        subgraph: SubgraphView<'_>,
        sg: &SgContext<'_>,
        scratch: &mut SubgraphScratch,
        deleted: &mut Vec<EdgeId>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DropAll;
    impl EdgeKernel for DropAll {
        fn process(&self, _e: EdgeView, _sg: &SgContext<'_>) -> EdgeDecision {
            EdgeDecision::Delete
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let k: Box<dyn EdgeKernel> = Box::new(DropAll);
        let g = sg_graph::generators::cycle(3);
        let sg = SgContext::new(&g, 0);
        let view = EdgeView { id: 0, u: 0, v: 1, weight: 1.0, deg_u: 2, deg_v: 2 };
        assert_eq!(k.process(view, &sg), EdgeDecision::Delete);
    }
}
