//! The sharded subsystem. Sharded runs equal to `scheme.apply` — every
//! case of the contract table with a plan, ranks ∈ {1, 2, 4}, each at 1 and
//! 4 threads — are the contract harness's `Ranks` axis (`tests/contract/`),
//! split between the first two tests; federation shards are its `Shards`
//! axis (`contract_equivalence`). This suite also keeps which schemes have
//! a plan, the exact message and superstep counts of the exchange, the
//! ranks' work accounting, triangle ownership across shards, and the
//! Edge-Once protocol's property test on random graphs, whose 2 000-case
//! ignored twin runs with
//! `cargo test --release --test dist_equivalence -- --ignored`.

mod contract;

use proptest::prelude::*;
use sg_algos::tc;
use sg_core::schemes::{for_sampled_triangles, TrConfig};
use sg_core::{CompressionResult, CompressionScheme, DetRand, SchemeParams, SchemeRegistry};
use sg_dist::{apply_edge_deletions, distributed_compress, shard_compress, ShardOutcome};
use sg_graph::partition::partition_edges;
use sg_graph::{generators, EdgeList};
use sg_graph::{CsrGraph, EdgeId, VertexId};

/// A graph with enough planted triangles that every TR discipline has real
/// work (overlapping triangles force the reservation protocol through
/// multiple supersteps).
fn triangle_rich() -> CsrGraph {
    generators::planted_triangles(&generators::erdos_renyi(900, 2200, 11), 1800, 12)
}

/// Every registered name whose scheme, built from `params`, satisfies
/// `keep` on the sweep's graph.
fn registered_where(
    params: &SchemeParams,
    keep: impl Fn(&dyn CompressionScheme, &CsrGraph) -> bool,
) -> Vec<(String, SchemeParams)> {
    let g = triangle_rich();
    let registry = SchemeRegistry::with_defaults();
    let names = registry
        .names()
        .filter(|name| keep(registry.create(name, params).expect("registered").as_ref(), &g));
    names.map(|name| (name.to_string(), params.clone())).collect()
}

/// Every scheme with a sharded plan, with the params the sweep uses (each
/// scheme ignores the keys it does not read; `spectral` reweights, so the
/// ranks must carry its new weights too).
fn sharded_schemes() -> Vec<(String, SchemeParams)> {
    let params = SchemeParams::from_pairs(&[("p", "0.6"), ("k", "3"), ("reweight", "true")]);
    registered_where(&params, |scheme, g| scheme.plan(g).is_some())
}

/// Runs the `Ranks` axis at 1, 2 and 4 ranks over the cases `rows` selects.
fn ranks_axis(rows: impl Fn(&contract::Case) -> bool) {
    for r in [1, 2, 4] {
        contract::check_where(contract::Axis::Ranks(r), &rows);
    }
}

/// Every unweighted case with a plan.
#[test]
fn sharded_runs_are_bit_identical_to_local_at_every_rank_count() {
    ranks_axis(|case| !contract::graph(case.graph).is_weighted());
}

/// Every weighted case with a plan (`tr-mw` and the reweighting `spectral`
/// among them): the pinned digest covers every weight's bits.
#[test]
fn input_weights_survive_distribution() {
    ranks_axis(|case| contract::graph(case.graph).is_weighted());
}

#[test]
fn exactly_the_global_rewrites_have_no_plan() {
    let planless = registered_where(&SchemeParams::new(), |scheme, g| scheme.plan(g).is_none());
    let names: Vec<&str> = planless.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["collapse", "spanner", "summary"]);
    let registered = SchemeRegistry::with_defaults().names().count();
    assert_eq!(sharded_schemes().len(), registered - names.len());
}

#[test]
fn message_and_superstep_counts_are_pinned() {
    // Exact work counters of the exchange: a refactor of sg-dist may not
    // move them. The Edge-Once rows count the early-resolve rule — a live
    // triangle drops out once a reply shows an edge considered (EO; CT once
    // all three are), which took `tr-eo` from 17 757 messages to 16 845;
    // `tr-ct` held. `(scheme, ranks, total_messages, max_supersteps)`.
    let pinned = [
        ("uniform", 2, 2, 1),
        ("uniform", 4, 4, 1),
        ("tr", 2, 1512, 1),
        ("tr", 4, 1512, 1),
        ("tr-eo", 2, 16845, 6),
        ("tr-eo", 4, 16845, 6),
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
        let scheme = registry.create(&name, &params).expect("registered");
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

/// One case of the Edge-Once protocol check: at ranks 1–4, `tr-eo`,
/// `tr-ct` and `tr-mw` (over random weights) are bit-identical to
/// `scheme.apply`, and no rank runs more supersteps than the run has
/// sampled triangles, plus Count-Triangles' count superstep — each round
/// resolves at least the smallest live triangle.
fn check_edge_once_protocol(g: &CsrGraph, p: f64, x: usize, seed: u64) {
    let weighted = generators::with_random_weights(g, 1.0, 100.0, seed);
    let mut sampled = 0u64;
    let (all, rand) = (TrConfig::plain_1(p), DetRand::new(seed));
    for_sampled_triangles(g, all, rand, None, 0..g.num_edges() as EdgeId, |_, _| sampled += 1);
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", &p.to_string()), ("x", &x.to_string())]);
    for (name, g) in [("tr-eo", g), ("tr-ct", g), ("tr-mw", &weighted)] {
        let scheme = registry.create(name, &params).expect("registered");
        let shared = scheme.apply(g, seed);
        for ranks in 1..=4 {
            let dist = distributed_compress(g, scheme.as_ref(), ranks, seed).expect("runs");
            let what = format!("{name}:p={p}:x={x} at ranks={ranks}, seed {seed}");
            let outcome =
                |r: &CompressionResult| contract::outcome(&r.graph, r.vertex_mapping.as_deref());
            assert_eq!(outcome(&dist.result), outcome(&shared), "{what}");
            for r in &dist.ranks {
                assert!(
                    r.supersteps <= sampled + 1,
                    "{what}: rank {} ran {} supersteps for {sampled} sampled triangles",
                    r.rank,
                    r.supersteps
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The superstep protocol, early resolution included, is the sequential
    /// Edge-Once pass on every shape — the hub shape 2 builds the longest
    /// reservation chains.
    #[test]
    fn edge_once_protocol_matches_the_sequential_pass(
        n in 4usize..48,
        pairs in proptest::collection::vec((0u32..48, 0u32..48), 0..260),
        shape in 0u8..5,
        tenths in 2u32..11,
        x in 1usize..3,
        seed in 0u64..1000,
    ) {
        check_edge_once_protocol(&shaped_graph(n, &pairs, shape), f64::from(tenths) / 10.0, x, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The stress twin: more graphs, rates and seeds.
    #[test]
    #[ignore = "stress; run in release: cargo test --release --test dist_equivalence -- --ignored"]
    fn edge_once_protocol_matches_the_sequential_pass_under_stress(
        n in 4usize..64,
        pairs in proptest::collection::vec((0u32..64, 0u32..64), 0..400),
        shape in 0u8..5,
        tenths in 2u32..11,
        x in 1usize..3,
        seed in 0u64..100_000,
    ) {
        check_edge_once_protocol(&shaped_graph(n, &pairs, shape), f64::from(tenths) / 10.0, x, seed);
    }
}
