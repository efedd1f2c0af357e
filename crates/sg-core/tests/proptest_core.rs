//! Property-based tests for sg-core's shared state: the atomic bitset, the
//! SG context, mappings, and the low-diameter decomposition.

use proptest::prelude::*;
use sg_core::atomic_bitset::AtomicBitset;
use sg_core::ldd::low_diameter_decomposition;
use sg_core::mapping::VertexMapping;
use sg_core::SgContext;
use sg_graph::generators;

/// The reference `sg-core`'s own unit tests use; test-only there, so it is
/// included by path here.
#[path = "../src/ldd/heap_race.rs"]
mod heap_race;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bitset is a faithful set: after a sequence of sets/clears, its
    /// contents equal a model HashSet.
    #[test]
    fn bitset_matches_model(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..100)) {
        let bs = AtomicBitset::new(200);
        let mut model = std::collections::HashSet::new();
        for (i, set) in ops {
            if set {
                bs.set(i);
                model.insert(i);
            } else {
                bs.clear(i);
                model.remove(&i);
            }
        }
        prop_assert_eq!(bs.count_ones(), model.len());
        for i in 0..200 {
            prop_assert_eq!(bs.get(i), model.contains(&i));
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
