//! Property-based tests for sg-core's runtime: the subgraph executor, the
//! SG context, mappings, and the low-diameter decomposition.

use proptest::prelude::*;
use sg_core::engine::run_subgraph_kernel;
use sg_core::kernel::{SubgraphKernel, SubgraphScratch, SubgraphView};
use sg_core::ldd::low_diameter_decomposition;
use sg_core::mapping::VertexMapping;
use sg_core::SgContext;
use sg_graph::prng::mix64;
use sg_graph::{generators, EdgeId, VertexId};
use std::collections::BTreeSet;

/// The reference `sg-core`'s own unit tests use; test-only there, so it is
/// included by path here.
#[path = "../src/ldd/heap_race.rs"]
mod heap_race;

/// Whether the instance holding member `v` deletes its incident edge `e`.
/// A draw on `e` alone is made by both endpoints — twice inside one
/// cluster, once from each side across two — and a draw on `(e, v)` by one
/// side only.
fn drawn(seed: u64, e: EdgeId, v: VertexId) -> bool {
    let h = mix64(seed ^ e as u64);
    h.is_multiple_of(3) || mix64(h ^ v as u64).is_multiple_of(5)
}

/// A subgraph kernel that deletes random member-incident edges.
struct RandomDeletions {
    seed: u64,
}

impl SubgraphKernel for RandomDeletions {
    fn process(
        &self,
        sgv: SubgraphView<'_>,
        sg: &SgContext<'_>,
        _: &mut SubgraphScratch,
        deleted: &mut Vec<EdgeId>,
    ) {
        for &v in sgv.members {
            let drawn_here =
                sg.graph.neighbor_edge_ids(v).iter().filter(|&&e| drawn(self.seed, e, v));
            deleted.extend(drawn_here);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The subgraph executor deletes exactly the union of what its instances
    /// list — whatever the chunking, the worker count, or how often an edge
    /// is listed — as a sequential model that visits the clusters backwards
    /// and deletes the union.
    #[test]
    fn subgraph_executor_deletes_the_union_of_the_instances_lists(
        labels in proptest::collection::vec(0u32..64, 20..300),
        m_factor in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = labels.len();
        let g = generators::erdos_renyi(n, m_factor * n, seed);
        let mapping = VertexMapping::from_labels(&labels);
        let mut union = BTreeSet::new();
        for members in mapping.clusters.iter().rev() {
            for &v in members {
                let row = g.neighbor_edge_ids(v);
                union.extend(row.iter().copied().filter(|&e| drawn(seed, e, v)));
            }
        }
        let expected = g.filter_edges(|e| !union.contains(&e));
        for threads in [1, 4] {
            let r = rayon::with_num_threads(threads, || {
                run_subgraph_kernel(&g, &mapping, &RandomDeletions { seed }, seed)
            });
            prop_assert_eq!(r.graph.edge_slice(), expected.edge_slice(), "threads={}", threads);
        }
    }

    /// SG randomness: per-element values are deterministic, independent of
    /// each other's query order, and uniform-ish.
    #[test]
    fn context_rand_deterministic(seed in 0u64..1000) {
        let g = generators::cycle(16);
        let sg = SgContext::new(&g, seed);
        let forward: Vec<f64> = (0..64).map(|e| sg.rand_unit(e, 0)).collect();
        let backward: Vec<f64> = (0..64).rev().map(|e| sg.rand_unit(e, 0)).collect();
        let backward: Vec<f64> = backward.into_iter().rev().collect();
        prop_assert_eq!(forward, backward);
    }

    /// Mappings built from arbitrary labels are valid partitions.
    #[test]
    fn mapping_from_labels_is_partition(labels in proptest::collection::vec(0u32..20, 1..200)) {
        let m = VertexMapping::from_labels(&labels);
        prop_assert!(m.validate());
        let total: usize = m.clusters.iter().map(Vec::len).sum();
        prop_assert_eq!(total, labels.len());
        // Same label -> same cluster; different label -> different cluster.
        for i in 0..labels.len() {
            for j in (i + 1)..labels.len() {
                prop_assert_eq!(
                    labels[i] == labels[j],
                    m.assignment[i] == m.assignment[j]
                );
            }
        }
    }

    /// LDD always yields a valid partition into connected clusters, for any
    /// beta and seed — the partition the binary-heap race yields.
    #[test]
    fn ldd_partitions_connectedly(
        n in 20usize..120,
        m_factor in 1usize..5,
        beta in 1e-6f64..50.0,
        seed in 0u64..100,
    ) {
        let g = generators::erdos_renyi(n, m_factor * n, seed);
        let mapping = low_diameter_decomposition(&g, beta, seed ^ 1);
        prop_assert!(mapping.validate());
        let mut parent_edge = vec![sg_graph::types::NO_EDGE; n];
        let mut queue = Vec::new();
        for (cid, members) in mapping.clusters.iter().enumerate() {
            let tree_edges = sg_algos::spanning::cluster_spanning_tree_by(
                &g,
                members,
                |v| mapping.assignment[v as usize] == cid as u32,
                &mut parent_edge,
                &mut queue,
            );
            prop_assert_eq!(tree_edges, members.len() - 1, "cluster disconnected");
        }
        let owners = heap_race::heap_race(&g, &heap_race::start_keys(n, beta, seed ^ 1));
        prop_assert_eq!(mapping.assignment, VertexMapping::from_labels(&owners).assignment);
    }
}
