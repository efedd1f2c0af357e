//! Sharded-vs-local bit-identity sweep — the determinism contract of the
//! sharded subsystem (ISSUE 10 acceptance).
//!
//! Every supported scheme class (edge, triangle — plain and both stateful
//! Edge-Once disciplines plus max-weight — and vertex) must produce a graph
//! bit-identical to the shared-memory `scheme.apply(g, seed)` at ranks ∈
//! {1, 2, 4}. CI runs the whole suite at SG_THREADS ∈ {1, 4}, closing the
//! ranks × threads matrix.

use proptest::prelude::*;
use sg_algos::tc;
use sg_core::schemes::{for_sampled_triangles, TrConfig};
use sg_core::{DetRand, SchemeParams, SchemeRegistry};
use sg_dist::{
    apply_edge_deletions, apply_vertex_removals, distributed_compress, shard_compress, ShardOutcome,
};
use sg_graph::partition::partition_edges;
use sg_graph::{generators, EdgeList};
use sg_graph::{CsrGraph, EdgeId, VertexId};

/// A graph with enough planted triangles that every TR discipline has real
/// work (overlapping triangles force the reservation protocol through
/// multiple supersteps).
fn triangle_rich() -> CsrGraph {
    generators::planted_triangles(&generators::erdos_renyi(900, 2200, 11), 1800, 12)
}

/// Edge weights by bit pattern (`None` when unweighted): a reweighted
/// survivor must match to the last bit, not to a tolerance.
fn weight_bits(g: &CsrGraph) -> Option<Vec<u32>> {
    g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect())
}

/// Every scheme with a sharded plan, with the params the sweep uses.
fn sharded_schemes() -> Vec<(&'static str, SchemeParams)> {
    let p = SchemeParams::from_pairs(&[("p", "0.6")]);
    vec![
        ("uniform", p.clone()),
        ("spectral", SchemeParams::from_pairs(&[("p", "0.5"), ("reweight", "true")])),
        ("cut", SchemeParams::from_pairs(&[("k", "3")])),
        ("tr", p.clone()),
        ("tr-eo", p.clone()),
        ("tr-ct", p.clone()),
        ("tr-mw", p.clone()),
        ("lowdeg", SchemeParams::from_pairs(&[])),
    ]
}

#[test]
fn sharded_runs_are_bit_identical_to_local_at_every_rank_count() {
    let g = triangle_rich();
    let registry = SchemeRegistry::with_defaults();
    for (name, params) in sharded_schemes() {
        let scheme = registry.create(name, &params).expect("registered");
        let shared = scheme.apply(&g, 45);
        for ranks in [1, 2, 4] {
            let dist = distributed_compress(&g, scheme.as_ref(), ranks, 45)
                .unwrap_or_else(|e| panic!("{name} at ranks={ranks}: {e}"));
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "{name} at ranks={ranks}: sharded edges diverge from scheme.apply"
            );
            assert_eq!(
                dist.result.graph.num_vertices(),
                shared.graph.num_vertices(),
                "{name} at ranks={ranks}"
            );
            assert_eq!(
                dist.result.vertex_mapping, shared.vertex_mapping,
                "{name} at ranks={ranks}: vertex mappings diverge"
            );
            assert!(
                weight_bits(&dist.result.graph) == weight_bits(&shared.graph),
                "{name} at ranks={ranks}: edge weights diverge"
            );
        }
    }
}

#[test]
fn input_weights_survive_distribution() {
    // Max-weight TR reads the weights to rank a triangle's edges and must
    // hand the survivors' weights through untouched.
    let g = generators::with_random_weights(&triangle_rich(), 1.0, 100.0, 13);
    let registry = SchemeRegistry::with_defaults();
    let scheme =
        registry.create("tr-mw", &SchemeParams::from_pairs(&[("p", "0.6")])).expect("registered");
    let shared = scheme.apply(&g, 45);
    assert!(shared.graph.is_weighted());
    for ranks in [1, 2, 4] {
        let dist = distributed_compress(&g, scheme.as_ref(), ranks, 45).expect("runs");
        assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice(), "ranks={ranks}");
        assert!(weight_bits(&dist.result.graph) == weight_bits(&shared.graph), "ranks={ranks}");
    }
}

#[test]
fn message_and_superstep_counts_are_pinned() {
    // Exact work counters of the exchange, measured before the per-part
    // closure was shared between ranks and shards: a refactor of sg-dist
    // may not move them. `(scheme, ranks, total_messages, max_supersteps)`.
    let pinned = [
        ("uniform", 2, 2, 1),
        ("uniform", 4, 4, 1),
        ("tr", 2, 1512, 1),
        ("tr", 4, 1512, 1),
        ("tr-eo", 2, 17757, 6),
        ("tr-eo", 4, 17757, 6),
        ("tr-ct", 2, 14234, 6),
        ("tr-ct", 4, 14236, 6),
        ("lowdeg", 2, 2, 1),
        ("lowdeg", 4, 4, 1),
    ];
    let g = triangle_rich();
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.6")]);
    for (name, ranks, messages, supersteps) in pinned {
        let scheme = registry.create(name, &params).expect("registered");
        let dist = distributed_compress(&g, scheme.as_ref(), ranks, 45).expect("runs");
        assert_eq!(dist.total_messages(), messages, "{name} at ranks={ranks}: messages");
        assert_eq!(dist.max_supersteps(), supersteps, "{name} at ranks={ranks}: supersteps");
    }
}

#[test]
fn sharded_runs_are_seed_sensitive_but_rank_insensitive() {
    // Changing the seed must change the result (the schemes really sample);
    // changing the rank count must not.
    let g = triangle_rich();
    let registry = SchemeRegistry::with_defaults();
    let scheme =
        registry.create("tr-eo", &SchemeParams::from_pairs(&[("p", "0.7")])).expect("registered");
    let a = distributed_compress(&g, scheme.as_ref(), 2, 1).expect("runs");
    let b = distributed_compress(&g, scheme.as_ref(), 4, 1).expect("runs");
    let c = distributed_compress(&g, scheme.as_ref(), 2, 2).expect("runs");
    assert_eq!(a.result.graph.edge_slice(), b.result.graph.edge_slice());
    assert_ne!(a.result.graph.edge_slice(), c.result.graph.edge_slice());
}

#[test]
fn rank_stats_account_for_the_whole_graph() {
    let g = triangle_rich();
    // Hubs at the lowest ids, where every generator we run puts them: a TR
    // rank owns an equal share of the canonical edges — and with them of the
    // triangles — all the same (79 % off the mean under the vertex ranges).
    let hubs_low = generators::barabasi_albert(2_000, 6, 5);
    let registry = SchemeRegistry::with_defaults();
    for (name, params) in sharded_schemes() {
        let scheme = registry.create(name, &params).expect("registered");
        if name.starts_with("tr") {
            for ranks in [2, 4] {
                let dist =
                    distributed_compress(&hubs_low, scheme.as_ref(), ranks, 45).expect("runs");
                let imbalance = dist.edge_imbalance_pct();
                assert!(imbalance < 1.0, "{name} at ranks={ranks}: {imbalance} % imbalance");
            }
        }
        let dist = distributed_compress(&g, scheme.as_ref(), 4, 45).expect("runs");
        let owned_edges: usize = dist.ranks.iter().map(|r| r.owned_edges).sum();
        assert_eq!(owned_edges, g.num_edges(), "{name}: ranks must own every edge once");
        if dist.result.vertex_mapping.is_none() {
            // Edge-deleting paths: kept edges per rank sum to the result.
            let kept: usize = dist.ranks.iter().map(|r| r.kept_edges).sum();
            assert_eq!(kept, dist.result.graph.num_edges(), "{name}");
        }
        // Stateful disciplines exchange messages; stateless paths at least
        // send their gather messages.
        assert!(dist.total_messages() >= 1, "{name}");
        assert!(dist.max_supersteps() >= 1, "{name}");
    }
}

#[test]
fn federation_shards_union_to_the_local_result() {
    // The coordinator's merge contract: for every federable scheme the
    // union of per-shard outcomes applied to a replica equals scheme.apply.
    let g = triangle_rich();
    let registry = SchemeRegistry::with_defaults();
    let federable = [
        ("uniform", SchemeParams::from_pairs(&[("p", "0.6")])),
        ("cut", SchemeParams::from_pairs(&[("k", "3")])),
        ("tr", SchemeParams::from_pairs(&[("p", "0.6")])),
        ("lowdeg", SchemeParams::from_pairs(&[])),
    ];
    for (name, params) in federable {
        let scheme = registry.create(name, &params).expect("registered");
        let shared = scheme.apply(&g, 83);
        for shards in [1, 2, 4] {
            let mut edges: Vec<EdgeId> = Vec::new();
            let mut vertices: Vec<VertexId> = Vec::new();
            for shard in 0..shards {
                match shard_compress(&g, scheme.as_ref(), shard, shards, 83)
                    .unwrap_or_else(|e| panic!("{name} shard {shard}/{shards}: {e}"))
                {
                    ShardOutcome::Edges(d) => edges.extend(d),
                    ShardOutcome::Vertices(v) => vertices.extend(v),
                }
            }
            if vertices.is_empty() {
                edges.sort_unstable();
                edges.dedup();
                let merged = apply_edge_deletions(&g, &edges);
                assert_eq!(
                    merged.edge_slice(),
                    shared.graph.edge_slice(),
                    "{name} at shards={shards}"
                );
            } else {
                let (merged, mapping) = apply_vertex_removals(&g, &vertices);
                assert_eq!(merged.edge_slice(), shared.graph.edge_slice(), "{name}");
                assert_eq!(Some(mapping), shared.vertex_mapping, "{name}");
            }
        }
    }
}

/// A small random graph in one of the shapes the ownership rule has to
/// survive: plain undirected, directed (an edge with `u > v` owns nothing),
/// one hub adjacent to everyone, bipartite (triangle-free), and fewer edges
/// than shards.
fn shaped_graph(n: usize, pairs: &[(VertexId, VertexId)], shape: u8) -> CsrGraph {
    let n = n as VertexId;
    let mut pairs: Vec<(VertexId, VertexId)> = pairs.iter().map(|&(a, b)| (a % n, b % n)).collect();
    match shape {
        2 => pairs.extend((1..n).map(|v| (0, v))),
        // Even endpoints on one side, odd ones on the other.
        3 => {
            pairs =
                pairs.iter().map(|&(a, b)| (a & !1, if b | 1 < n { b | 1 } else { 1 })).collect()
        }
        4 => pairs.truncate(4),
        _ => {}
    }
    let el = EdgeList::from_pairs(n as usize, pairs);
    if shape == 1 {
        CsrGraph::from_edge_list_directed(el)
    } else {
        CsrGraph::from_edge_list(el)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Triangles belong to their canonical edge: at any shard count the parts
    /// enumerate every triangle exactly once, and the union of the shards'
    /// Plain-TR deletions is `scheme.apply`'s.
    #[test]
    fn tr_shards_own_each_triangle_once_and_union_to_the_local_result(
        n in 4usize..48,
        pairs in proptest::collection::vec((0u32..48, 0u32..48), 0..260),
        shape in 0u8..5,
        seed in 0u64..1000,
    ) {
        let g = shaped_graph(n, &pairs, shape);
        let listing = tc::list_triangles(&g);
        if shape == 3 {
            prop_assert!(listing.is_empty(), "a bipartite graph has no triangle");
        }
        let registry = SchemeRegistry::with_defaults();
        for shards in [1, 2, 3, 7] {
            let mut owned = Vec::new();
            for part in partition_edges(&g, shards) {
                let (all, rand) = (TrConfig::plain_1(1.0), DetRand::new(seed));
                for_sampled_triangles(&g, all, rand, None, part.edge_ids(), |t, _| owned.push(*t));
            }
            prop_assert_eq!(&owned, &listing, "shards={}", shards);
            for x in ["1", "2"] {
                let params = SchemeParams::from_pairs(&[("p", "0.6"), ("x", x)]);
                let scheme = registry.create("tr", &params).expect("registered");
                let mut deleted: Vec<EdgeId> = Vec::new();
                for shard in 0..shards {
                    match shard_compress(&g, scheme.as_ref(), shard, shards, seed).expect("federable") {
                        ShardOutcome::Edges(d) => deleted.extend(d),
                        ShardOutcome::Vertices(_) => panic!("TR shards return edges"),
                    }
                }
                let merged = apply_edge_deletions(&g, &deleted);
                let shared = scheme.apply(&g, seed);
                prop_assert_eq!(
                    merged.edge_slice(),
                    shared.graph.edge_slice(),
                    "tr:x={} at shards={}",
                    x,
                    shards
                );
            }
        }
    }
}
