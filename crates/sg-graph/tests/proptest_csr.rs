//! Property-based tests for the CSR substrate: construction invariants,
//! canonical edge identity, filtering, serialization round-trips.

use proptest::prelude::*;
use sg_graph::prng::unit_f64;
use sg_graph::{generators, io, CsrGraph, CsrParts, EdgeId, EdgeList, VertexId};

/// Strategy: an arbitrary raw edge list over up to `n` vertices (possibly
/// with duplicates, self-loops, both orientations).
fn raw_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants hold for any input: sorted rows, consistent degrees,
    /// canonical endpoints, both directions sharing an edge id.
    #[test]
    fn csr_structural_invariants((n, edges) in raw_edges(64, 200)) {
        let g = CsrGraph::from_pairs(n as usize, &edges);
        // Degrees sum to 2m.
        let degree_sum: usize = (0..g.num_vertices() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            let row = g.neighbors(v);
            // Sorted, unique, no self-loops.
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!row.contains(&v));
            // Slot edge ids agree with canonical endpoints.
            for (i, &t) in row.iter().enumerate() {
                let e = g.neighbor_edge_ids(v)[i];
                let (a, b) = g.edge_endpoints(e);
                prop_assert_eq!((a, b), (v.min(t), v.max(t)));
                // Reverse direction resolves to the same id.
                prop_assert_eq!(g.find_edge(t, v), Some(e));
            }
        }
        // Canonical edges sorted and unique.
        let es = g.edge_slice();
        prop_assert!(es.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(es.iter().all(|&(u, v)| u < v));
    }

    /// Construction is idempotent: rebuilding from the canonical edge list
    /// reproduces the graph.
    #[test]
    fn csr_roundtrip_via_edge_list((n, edges) in raw_edges(64, 200)) {
        let g = CsrGraph::from_pairs(n as usize, &edges);
        let h = CsrGraph::from_edge_list(g.to_edge_list());
        prop_assert_eq!(g.edge_slice(), h.edge_slice());
        prop_assert_eq!(g.num_vertices(), h.num_vertices());
    }

    /// Binary serialization round-trips exactly.
    #[test]
    fn binary_io_roundtrip((n, edges) in raw_edges(48, 150)) {
        let g = CsrGraph::from_pairs(n as usize, &edges);
        let bytes = io::to_binary(&g);
        let h = io::from_binary(&bytes).expect("valid payload");
        prop_assert_eq!(g.edge_slice(), h.edge_slice());
        prop_assert_eq!(g.num_vertices(), h.num_vertices());
    }

    /// Filtering by an arbitrary predicate keeps exactly the selected edges
    /// and never disturbs the others.
    #[test]
    fn filter_edges_selects_exactly((n, edges) in raw_edges(64, 200), modulus in 2u32..7) {
        let g = CsrGraph::from_pairs(n as usize, &edges);
        let h = g.filter_edges(|e| e % modulus == 0);
        let expect: Vec<_> = g
            .edge_iter()
            .filter(|&(e, _, _)| e % modulus == 0)
            .map(|(_, u, v)| (u, v))
            .collect();
        prop_assert_eq!(h.edge_slice(), &expect[..]);
        prop_assert_eq!(h.num_vertices(), g.num_vertices());
    }

    /// Vertex removal produces a graph whose edges are exactly the
    /// surviving-endpoint edges, relabelled by the returned mapping.
    #[test]
    fn remove_vertices_consistent((n, edges) in raw_edges(48, 150), kill_mod in 2u32..5) {
        let g = CsrGraph::from_pairs(n as usize, &edges);
        let removed: Vec<bool> =
            (0..g.num_vertices() as u32).map(|v| v % kill_mod == 0).collect();
        let (h, map) = g.remove_vertices(&removed);
        for (v, m) in map.iter().enumerate() {
            prop_assert_eq!(m.is_none(), removed[v]);
        }
        let mut expect: Vec<(u32, u32)> = g
            .edge_iter()
            .filter_map(|(_, u, v)| match (map[u as usize], map[v as usize]) {
                (Some(nu), Some(nv)) => Some((nu.min(nv), nu.max(nv))),
                _ => None,
            })
            .collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(h.edge_slice(), &expect[..]);
    }

    /// The three materializers build, array for array, the graph that
    /// `from_edge_list(_directed)` builds from the edges they keep, at 1 and
    /// 4 threads: undirected and directed, weighted or not, every share of
    /// deleted edges and of removed vertices from none to all.
    #[test]
    fn materializers_build_the_rebuilt_csr(
        (n, edges) in raw_edges(64, 200),
        directed in any::<bool>(),
        weighted in any::<bool>(),
        share in 0usize..4,
        removal in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let g = random_graph(n as usize, &edges, directed, weighted, seed);
        for threads in [1, 4] {
            rayon::with_num_threads(threads, || {
                check_materializers(&g, seed, DELETED_SHARES[share], REMOVED_SHARES[removal])
            });
        }
    }

    /// Weighted canonicalization preserves the multiset of (edge, weight)
    /// pairs up to duplicate resolution.
    #[test]
    fn weighted_edges_survive_canonicalization(
        (n, edges) in raw_edges(32, 100),
        wseed in 0u64..100,
    ) {
        let triples: Vec<(u32, u32, f32)> = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                (u, v, 1.0 + sg_graph::prng::unit_f64(wseed, i as u64) as f32)
            })
            .collect();
        let g = CsrGraph::from_weighted_pairs(n as usize, &triples);
        for (e, u, v) in g.edge_iter() {
            let w = g.edge_weight(e);
            // The weight must come from SOME input triple on that edge.
            let found = triples.iter().any(|&(a, b, tw)| {
                (a.min(b), a.max(b)) == (u, v) && (tw - w).abs() < 1e-6
            });
            prop_assert!(found, "weight {w} of edge ({u},{v}) not in input");
        }
    }

    /// Generators produce graphs whose edge count never exceeds the request
    /// and whose determinism holds.
    #[test]
    fn er_generator_bounds(n in 10usize..200, m in 1usize..500, seed in 0u64..50) {
        let g = sg_graph::generators::erdos_renyi(n, m, seed);
        prop_assert!(g.num_edges() <= m);
        prop_assert_eq!(g.num_vertices(), n);
        let h = sg_graph::generators::erdos_renyi(n, m, seed);
        prop_assert_eq!(g.edge_slice(), h.edge_slice());
    }
}

#[test]
fn edge_list_canonicalization_is_idempotent() {
    let mut el = EdgeList::from_pairs(5, vec![(0, 1), (1, 0), (2, 2), (3, 4)]);
    el.canonicalize_undirected();
    let once = el.edges.clone();
    el.canonicalize_undirected();
    assert_eq!(el.edges, once);
}

/// Shares of edges the materializer checks delete: none, ≈ 3 %, half, all.
const DELETED_SHARES: [f64; 4] = [0.0, 0.03, 0.5, 1.0];
/// Shares of vertices `remove_vertices` is checked with: none, some, all.
const REMOVED_SHARES: [f64; 3] = [0.0, 0.3, 1.0];

/// `edges` on `n` vertices as a graph, directed and weighted as asked.
fn random_graph(
    n: usize,
    edges: &[(VertexId, VertexId)],
    directed: bool,
    weighted: bool,
    seed: u64,
) -> CsrGraph {
    let mut list = EdgeList::from_weighted(
        n,
        edges.iter().enumerate().map(|(i, &(u, v))| (u, v, 0.5 + unit_f64(seed, i as u64) as f32)),
    );
    if !weighted {
        list.weights = None;
    }
    if directed {
        CsrGraph::from_edge_list_directed(list)
    } else {
        CsrGraph::from_edge_list(list)
    }
}

/// The graph `from_edge_list(_directed)` builds from `edges` on `n`
/// vertices, directed as `g` is.
fn rebuilt(
    g: &CsrGraph,
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<f32>>,
) -> CsrGraph {
    let list = EdgeList { num_vertices: n, edges, weights };
    if g.is_directed() {
        CsrGraph::from_edge_list_directed(list)
    } else {
        CsrGraph::from_edge_list(list)
    }
}

/// `got` and `want` hold the same bytes in every CSR array, and
/// `from_parts` accepts `got`'s arrays.
fn assert_same_csr(got: &CsrGraph, want: &CsrGraph, what: &str) {
    let bits = |g: &CsrGraph| -> Option<Vec<u32>> {
        g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect())
    };
    assert_eq!(got.is_directed(), want.is_directed(), "{what}: directed");
    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}: n");
    assert_eq!(got.csr_offsets(), want.csr_offsets(), "{what}: offsets");
    assert_eq!(got.csr_targets(), want.csr_targets(), "{what}: targets");
    assert_eq!(got.csr_slot_edges(), want.csr_slot_edges(), "{what}: slot edges");
    assert_eq!(got.edge_slice(), want.edge_slice(), "{what}: edges");
    assert_eq!(bits(got), bits(want), "{what}: weights");
    assert_eq!(got.in_csr_offsets(), want.in_csr_offsets(), "{what}: in-offsets");
    assert_eq!(got.in_csr_targets(), want.in_csr_targets(), "{what}: in-targets");
    assert_eq!(got.in_csr_slot_edges(), want.in_csr_slot_edges(), "{what}: in-slot edges");
    let parts = CsrParts {
        directed: got.is_directed(),
        num_vertices: got.num_vertices(),
        offsets: got.csr_offsets().to_vec().into(),
        targets: got.csr_targets().to_vec().into(),
        slot_edge: got.csr_slot_edges().to_vec().into(),
        edges: got.edge_slice().to_vec().into(),
        weights: got.weight_slice().map(|w| w.to_vec().into()),
        in_offsets: got.in_csr_offsets().map(|o| o.to_vec().into()),
        in_targets: got.in_csr_targets().map(|t| t.to_vec().into()),
        in_slot_edge: got.in_csr_slot_edges().map(|e| e.to_vec().into()),
    };
    if let Err(e) = CsrGraph::from_parts(parts) {
        panic!("{what}: from_parts rejects the output: {e}");
    }
}

/// Runs `filter_edges` and `filter_reweight` with a `deleted` share of the
/// edges dropped, and `remove_vertices` with a `removed` share of the
/// vertices gone, against rebuilds of the edges each keeps.
fn check_materializers(g: &CsrGraph, seed: u64, deleted: f64, removed: f64) {
    let what = |op: &str| format!("{op} (seed {seed}, deleted {deleted}, removed {removed})");
    let n = g.num_vertices();
    let keep = |e: EdgeId| unit_f64(seed, u64::from(e)) >= deleted;
    let survivors: Vec<EdgeId> = (0..g.num_edges() as EdgeId).filter(|&e| keep(e)).collect();
    let ends: Vec<_> = survivors.iter().map(|&e| g.edge_endpoints(e)).collect();

    let weights = g.weight_slice().map(|w| survivors.iter().map(|&e| w[e as usize]).collect());
    let want = rebuilt(g, n, ends.clone(), weights);
    assert_same_csr(&g.filter_edges(keep), &want, &what("filter_edges"));

    let reweight = |e: EdgeId| 0.25 + e as f32;
    let weights = survivors.iter().map(|&e| reweight(e)).collect();
    let want = rebuilt(g, n, ends, Some(weights));
    let got = g.filter_reweight(|e| keep(e).then(|| reweight(e)));
    assert_same_csr(&got, &want, &what("filter_reweight"));

    let gone: Vec<bool> = (0..n as u64).map(|v| unit_f64(!seed, v) < removed).collect();
    let mut next = 0;
    let map: Vec<Option<VertexId>> =
        gone.iter().map(|&gone| (!gone).then(|| (next, next += 1).0)).collect();
    let kept: Vec<EdgeId> = (0..g.num_edges() as EdgeId)
        .filter(|&e| {
            let (u, v) = g.edge_endpoints(e);
            !gone[u as usize] && !gone[v as usize]
        })
        .collect();
    let ends = kept.iter().map(|&e| g.edge_endpoints(e));
    let ends = ends.map(|(u, v)| (map[u as usize].unwrap(), map[v as usize].unwrap())).collect();
    let weights = g.weight_slice().map(|w| kept.iter().map(|&e| w[e as usize]).collect());
    let want = rebuilt(g, next as usize, ends, weights);
    let (got, got_map) = g.remove_vertices(&gone);
    assert_eq!(got_map, map, "{}: mapping", what("remove_vertices"));
    assert_same_csr(&got, &want, &what("remove_vertices"));
}

/// The materializer property on ≈ 10⁵-edge Barabási–Albert and R-MAT
/// graphs, weighted and directed ones included, at every share (CI runs
/// it at `SG_THREADS=4`):
/// `cargo test --release -p sg-graph --test proptest_csr -- --ignored`.
#[test]
#[ignore = "stress: ~10^5-edge graphs; run with --ignored"]
fn materializers_build_the_rebuilt_csr_on_large_graphs() {
    let ba = generators::barabasi_albert(20_000, 5, 3);
    let rmat = generators::rmat_graph500(13, 16, 4);
    // Each edge taken as an arc, half of them reversed.
    let directed = |g: &CsrGraph| {
        let arcs = g.edge_slice().iter().enumerate();
        let arcs = arcs.map(|(e, &(u, v))| if e % 2 == 0 { (u, v) } else { (v, u) });
        let weights = g.weight_slice().map(<[f32]>::to_vec);
        let list = EdgeList { num_vertices: g.num_vertices(), edges: arcs.collect(), weights };
        CsrGraph::from_edge_list_directed(list)
    };
    let graphs = [
        directed(&rmat),
        generators::with_random_weights(&ba, 1.0, 9.0, 5),
        directed(&generators::with_random_weights(&rmat, 1.0, 9.0, 6)),
        directed(&ba),
        rmat,
        ba,
    ];
    for (seed, g) in graphs.iter().enumerate() {
        assert!(g.num_edges() > 80_000, "graph {seed} is large: {} edges", g.num_edges());
        for deleted in DELETED_SHARES {
            for removed in REMOVED_SHARES {
                check_materializers(g, seed as u64, deleted, removed);
            }
        }
    }
}
