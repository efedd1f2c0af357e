//! O(k)-spanners via low-diameter decomposition (§4.5.3, Miller et al.
//! \[111\]).
//!
//! The runtime first constructs the §4.5.2 mapping with an LDD (`β`
//! decreasing in `k`; see [`crate::ldd::ldd_for_spanner`] for the
//! calibration), then executes the `derive_spanner` subgraph kernel on
//! every cluster: replace the cluster's edges by a BFS spanning tree and,
//! per vertex, keep one edge to each neighbouring cluster. Larger `k`
//! produces larger clusters, hence fewer surviving edges — the
//! `O(n^{1+1/k})` edge bound — at the cost of `O(k)`-class distance
//! stretch.
//!
//! Both halves are linear. The decomposition is a race in rounds over flat
//! vectors; the kernel keeps no container of its own — the tree is a
//! parent-edge slot per vertex and "one edge per neighbouring cluster" a
//! slot per cluster id, both in the [`SubgraphScratch`] the engine lends
//! each worker — so a mapping with thousands of clusters costs one BFS and
//! one row pass over each cluster's vertices and nothing per cluster.

use crate::context::SgContext;
use crate::engine::{CompressionResult, Engine};
use crate::kernel::{SubgraphKernel, SubgraphScratch, SubgraphView};
use crate::ldd::ldd_for_spanner;
use sg_algos::spanning::cluster_spanning_tree_by;
use sg_graph::types::NO_EDGE;
use sg_graph::CsrGraph;

/// The `derive_spanner` kernel of Listing 1.
///
/// Deletion-based: the kernel deletes (a) intra-cluster non-tree edges and
/// (b) per member vertex, all but one edge to each neighbouring cluster.
/// Instances never race: each instance only deletes edges incident to its
/// own members, and cross-cluster deletions compose (an edge survives iff
/// neither side prunes it — see `process` for why connectivity holds).
pub struct SpannerKernel;

impl SubgraphKernel for SpannerKernel {
    fn process(&self, sgv: SubgraphView<'_>, sg: &SgContext<'_>, scratch: &mut SubgraphScratch) {
        let g = sg.graph;
        let my = sgv.cluster_id as u32;
        let SubgraphScratch { vertex_edge: parent_edge, cluster_edge: kept, queue, touched } =
            scratch;

        // (a) Replace "subgraph" with a spanning tree: the BFS tree of the
        // cluster, as each member's edge to its parent.
        cluster_spanning_tree_by(
            g,
            sgv.members,
            |u| sgv.assignment[u as usize] == my,
            parent_edge,
            queue,
        );
        for &v in sgv.members {
            let eids = g.neighbor_edge_ids(v);
            // "Smallest edge id" below is "first in row order" only because
            // edge ids ascend along every CSR row (`CsrGraph::from_parts`
            // rejects anything else).
            debug_assert!(eids.windows(2).all(|w| w[0] < w[1]), "row {v}: edge ids out of order");
            for (&u, &e) in g.neighbors(v).iter().zip(eids) {
                let other = sgv.assignment[u as usize];
                if other == my {
                    // (a) Delete intra-cluster edges (once, from the lower
                    // endpoint) that are neither endpoint's tree edge.
                    if u > v && parent_edge[u as usize] != e && parent_edge[v as usize] != e {
                        sg.del_edge(e);
                    }
                } else if kept[other as usize] == NO_EDGE {
                    // (b) Per vertex, keep one edge to each neighbouring
                    // cluster — the one with the smallest id (Miller et
                    // al.'s construction: "for each vertex v in C connected
                    // to another subgraph with edges e1..el, only one of
                    // these is added"). Each side of an inter-cluster edge
                    // prunes independently, so an edge survives iff it is
                    // the minimum-id representative for *both* endpoints;
                    // the globally minimal edge of every cluster pair
                    // satisfies this, preserving inter-cluster connectivity
                    // while retaining the O(n^{1+1/k}) per-vertex granularity
                    // the paper's edge counts reflect.
                    kept[other as usize] = e;
                    touched.push(other);
                } else {
                    sg.del_edge(e);
                }
            }
            for other in touched.drain(..) {
                kept[other as usize] = NO_EDGE;
            }
        }
    }
}

/// Derives an O(k)-spanner of `g`.
pub fn spanner(g: &CsrGraph, k: f64, seed: u64) -> CompressionResult {
    assert!(k >= 1.0, "spanner parameter k must be >= 1");
    let start = std::time::Instant::now();
    let mapping = ldd_for_spanner(g, k, seed);
    let mut result = Engine::new(seed).run_subgraph_kernel(g, &mapping, &SpannerKernel);
    // Fold the mapping-construction time into the reported compression time
    // (the paper attributes LDD overhead to the spanner scheme: "spanners
    // are >20% slower due to overheads from low-diameter decomposition").
    result.elapsed = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldd::heap_race::{heap_race, start_keys};
    use crate::ldd::low_diameter_decomposition;
    use crate::mapping::VertexMapping;
    use rustc_hash::{FxHashMap, FxHashSet};
    use sg_algos::cc::connected_components;
    use sg_algos::sssp::dijkstra;
    use sg_graph::{generators, EdgeId, VertexId};

    /// `derive_spanner` as it was on hash containers — a depth map under the
    /// cluster BFS, a set of tree edges, a min-edge map per member vertex —
    /// kept as the reference [`SpannerKernel`] is compared against.
    struct HashMapSpannerKernel;

    impl HashMapSpannerKernel {
        fn cluster_tree(g: &CsrGraph, members: &[VertexId], assignment: &[u32]) -> Vec<EdgeId> {
            let mut edges = Vec::new();
            let root = members[0];
            let my = assignment[root as usize];
            let mut depth_of: FxHashMap<VertexId, u32> = FxHashMap::default();
            depth_of.insert(root, 0);
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                let du = depth_of[&u];
                let row = g.neighbors(u);
                let eids = g.neighbor_edge_ids(u);
                for (i, &v) in row.iter().enumerate() {
                    if assignment[v as usize] == my && !depth_of.contains_key(&v) {
                        depth_of.insert(v, du + 1);
                        edges.push(eids[i]);
                        queue.push_back(v);
                    }
                }
            }
            edges
        }
    }

    impl SubgraphKernel for HashMapSpannerKernel {
        fn process(&self, sgv: SubgraphView<'_>, sg: &SgContext<'_>, _: &mut SubgraphScratch) {
            let g = sg.graph;
            let my = sgv.cluster_id as u32;
            let tree: FxHashSet<EdgeId> =
                Self::cluster_tree(g, sgv.members, sgv.assignment).into_iter().collect();
            for &v in sgv.members {
                let row = g.neighbors(v);
                let eids = g.neighbor_edge_ids(v);
                for (i, &u) in row.iter().enumerate() {
                    if sgv.assignment[u as usize] == my && u > v && !tree.contains(&eids[i]) {
                        sg.del_edge(eids[i]);
                    }
                }
            }
            let mut chosen: FxHashMap<u32, EdgeId> = FxHashMap::default();
            for &v in sgv.members {
                let row = g.neighbors(v);
                let eids = g.neighbor_edge_ids(v);
                chosen.clear();
                for (i, &u) in row.iter().enumerate() {
                    let other = sgv.assignment[u as usize];
                    if other != my {
                        let entry = chosen.entry(other).or_insert(eids[i]);
                        if eids[i] < *entry {
                            *entry = eids[i];
                        }
                    }
                }
                for (i, &u) in row.iter().enumerate() {
                    let other = sgv.assignment[u as usize];
                    if other != my && chosen[&other] != eids[i] {
                        sg.del_edge(eids[i]);
                    }
                }
            }
        }
    }

    /// The flat kernel against the hash-map kernel: same surviving edges on
    /// the mappings of the LDD sweep — singletons only, a few giant clusters,
    /// one cluster per component — and on graphs with no edge at all.
    #[test]
    fn flat_kernel_deletes_what_the_hash_map_kernel_deleted() {
        for (label, g) in &crate::ldd::tests::sweep_graphs() {
            for beta in [1e-6, 0.05, 0.13, 0.4, 0.7, 1.7, 50.0] {
                for seed in 0..3 {
                    let mapping = low_diameter_decomposition(g, beta, seed);
                    let engine = Engine::new(seed);
                    let flat = engine.run_subgraph_kernel(g, &mapping, &SpannerKernel);
                    let hashed = engine.run_subgraph_kernel(g, &mapping, &HashMapSpannerKernel);
                    assert_eq!(
                        flat.graph.edge_slice(),
                        hashed.graph.edge_slice(),
                        "{label}, beta {beta}, seed {seed}"
                    );
                }
            }
        }
    }

    /// `k` is user input (aim 3): at `1e300` and `f64::MAX` the spanner is
    /// the reference race under the reference kernel, edge for edge.
    #[test]
    fn hostile_k_matches_the_references() {
        let g = generators::erdos_renyi(2_000, 6_000, 8);
        let mapping = VertexMapping::from_labels(&heap_race(&g, &start_keys(2_000, 1e-6, 9)));
        let expected = Engine::new(9).run_subgraph_kernel(&g, &mapping, &HashMapSpannerKernel);
        for k in [1e300, f64::MAX] {
            assert_eq!(ldd_for_spanner(&g, k, 9).assignment, mapping.assignment, "k = {k}");
            let r = spanner(&g, k, 9);
            assert_eq!(r.graph.edge_slice(), expected.graph.edge_slice(), "k = {k}");
        }
    }

    #[test]
    fn spanner_preserves_connectivity() {
        let g = generators::rmat_graph500(11, 8, 1);
        for k in [2.0, 8.0, 32.0] {
            let r = spanner(&g, k, 2);
            let before = connected_components(&g).num_components;
            let after = connected_components(&r.graph).num_components;
            assert_eq!(before, after, "k = {k} disconnected the graph");
        }
    }

    #[test]
    fn larger_k_removes_more_edges() {
        let g = generators::rmat_graph500(12, 10, 3);
        let r2 = spanner(&g, 2.0, 4);
        let r32 = spanner(&g, 32.0, 4);
        let r128 = spanner(&g, 128.0, 4);
        assert!(r2.graph.num_edges() >= r32.graph.num_edges());
        assert!(r32.graph.num_edges() >= r128.graph.num_edges());
        assert!(r128.edge_reduction() > 0.3, "k=128 should compress strongly");
    }

    #[test]
    fn extreme_k_leaves_close_to_spanning_forest() {
        let g = generators::erdos_renyi(2000, 16_000, 5);
        let r = spanner(&g, 1_000.0, 6);
        // With one giant cluster the spanner degenerates to ~a spanning
        // forest: n - c edges plus few inter-cluster survivors.
        let cc = connected_components(&g).num_components;
        let forest = g.num_vertices() - cc;
        assert!(r.graph.num_edges() <= forest + forest / 2, "m' = {}", r.graph.num_edges());
    }

    #[test]
    fn distances_bounded_by_stretch() {
        let g = generators::watts_strogatz(400, 4, 0.2, 7);
        let k = 4.0;
        let r = spanner(&g, k, 8);
        let before = dijkstra(&g, 0);
        let after = dijkstra(&r.graph, 0);
        // Spanner guarantee: distances grow by a bounded multiplicative
        // factor. Cluster diameter is O(k log n); assert a generous bound to
        // keep the test robust across seeds.
        let bound = 2.0 * k * (400f64).ln();
        for (b, a) in before.iter().zip(&after) {
            if b.is_finite() && *b > 0.0 {
                assert!(a.is_finite(), "spanner disconnected a vertex");
                assert!(*a / *b <= bound, "stretch {} too large", a / b);
            }
        }
    }

    #[test]
    fn spanner_kills_most_triangles() {
        // Table 6: spanners, especially for large k, eliminate most
        // triangles (clusters become trees).
        let g = generators::planted_triangles(&generators::erdos_renyi(1000, 2000, 9), 2000, 10);
        let t0 = sg_algos::tc::count_triangles(&g);
        let r = spanner(&g, 32.0, 11);
        let t1 = sg_algos::tc::count_triangles(&r.graph);
        assert!(t1 < t0 / 10, "triangles {t0} -> {t1}");
    }

    #[test]
    fn deterministic() {
        let g = generators::erdos_renyi(500, 2500, 12);
        let a = spanner(&g, 8.0, 13);
        let b = spanner(&g, 8.0, 13);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
    }
}
