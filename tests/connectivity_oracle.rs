//! Connectivity against the naive oracles: `connected_components` (Afforest)
//! and `bfs_parallel` (direction-optimizing) at `SG_THREADS` 1 and 4, on raw
//! graphs and their encoded twins, compared with the flood fill and the
//! queue BFS in `oracle`. Labels, the component count, depths and `reached`
//! must be equal; `bfs_parallel`'s parents must form a valid BFS tree.
//!
//! The shapes aim at Afforest's shortcuts and the BFS's switches: many small
//! components and isolated vertices; two equal halves and a forest of stars
//! (the sampled "frequent" root is not the only large component); a long
//! path (top-down nearly all the way); a star searched from its hub
//! (bottom-up at level 1); and any of them with its edges turned into arcs
//! that point one way or both ways.
//!
//! The ignored twin runs thousands of larger cases at 8 workers, where a
//! race in the lock-free `link` would show as a wrong label:
//! `cargo test --release --test connectivity_oracle -- --ignored`.

mod oracle;

use proptest::prelude::*;
use sg_algos::{bfs, cc};
use sg_graph::prng::{bounded_u64, unit_f64};
use sg_graph::{generators, CsrGraph, EdgeList, EncodedCsr, GraphView, VertexId};

/// The undirected input of shape `shape` on about `n ≥ 2` vertices.
fn shape_graph(shape: u8, n: usize, seed: u64) -> CsrGraph {
    match shape {
        0 => generators::erdos_renyi(n, n / 2, seed),
        1 => {
            // Two halves of equal size, interleaved: evens and odds.
            let half = generators::barabasi_albert((n / 2).max(3), 2, seed);
            let pairs = half
                .edge_slice()
                .iter()
                .flat_map(|&(u, v)| [(2 * u, 2 * v), (2 * u + 1, 2 * v + 1)]);
            CsrGraph::from_edge_list(EdgeList::from_pairs(2 * half.num_vertices(), pairs))
        }
        2 => {
            // Stars of random sizes, each hub the last id of its star.
            let mut pairs = Vec::new();
            let mut start = 0;
            while start < n {
                let size = 1 + bounded_u64(seed, start as u64, 0, 12) as usize;
                let hub = (start + size).min(n) as VertexId - 1;
                pairs.extend((start as VertexId..hub).map(|leaf| (leaf, hub)));
                start += size;
            }
            CsrGraph::from_edge_list(EdgeList::from_pairs(n, pairs))
        }
        3 => generators::path(n),
        _ => generators::star(n),
    }
}

/// `g` with every edge turned into one arc, its reverse, or both.
fn oriented(g: &CsrGraph, seed: u64) -> CsrGraph {
    let arcs = g.edge_slice().iter().enumerate().flat_map(|(i, &(u, v))| {
        let draw = unit_f64(seed ^ 0xa5c5, i as u64);
        let forward = (draw < 0.7).then_some((u, v));
        let backward = (draw >= 0.4).then_some((v, u));
        forward.into_iter().chain(backward)
    });
    CsrGraph::from_edge_list_directed(EdgeList::from_pairs(g.num_vertices(), arcs))
}

/// The input of a case and the BFS root: the hub for the star, a seeded
/// vertex otherwise.
fn case(shape: u8, n: usize, directed: bool, seed: u64) -> (CsrGraph, VertexId) {
    let g = shape_graph(shape, n, seed);
    let g = if directed { oriented(&g, seed) } else { g };
    let root = if shape == 4 { 0 } else { bounded_u64(seed, 0, 1, g.num_vertices() as u64) };
    (g, root as VertexId)
}

/// Both kernels over `view` against the oracles' answers on `g`.
fn check<G: GraphView>(view: &G, g: &CsrGraph, root: VertexId, what: &str) {
    let labels = oracle::components(g);
    let count = labels.iter().enumerate().filter(|&(v, &l)| l as usize == v).count();
    let got = cc::connected_components(view);
    assert_eq!(got.labels, labels, "{what}: labels");
    assert_eq!(got.num_components, count, "{what}: component count");
    let depth = oracle::bfs_depths(g, root);
    let reached = depth.iter().filter(|&&d| d != bfs::UNREACHABLE).count();
    let got = bfs::bfs_parallel(view, root);
    assert_eq!(got.depth, depth, "{what}: depths from {root}");
    assert_eq!(got.reached, reached, "{what}: reached from {root}");
    assert!(bfs::validate_bfs_tree(g, root, &got), "{what}: parents from {root}");
}

/// One case at every worker count of `threads`, raw and encoded.
fn check_case(shape: u8, n: usize, directed: bool, seed: u64, threads: &[usize]) {
    let (g, root) = case(shape, n, directed, seed);
    let encoded = EncodedCsr::from_graph(&g);
    for &t in threads {
        let what = format!("shape {shape}, n {n}, directed {directed}, seed {seed}, {t} threads");
        rayon::with_num_threads(t, || {
            check(&g, &g, root, &format!("{what}, raw"));
            check(&encoded, &g, root, &format!("{what}, encoded"));
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Afforest and direction-optimizing BFS are the oracles', at 1 and 4
    /// workers.
    #[test]
    fn components_and_bfs_are_the_oracles(
        shape in 0u8..5,
        n in 2usize..400,
        directed in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        check_case(shape, n, directed == 1, seed, &[1, 4]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The stress twin: larger inputs at 8 workers, where concurrent links
    /// of one component race.
    #[test]
    #[ignore = "stress; run in release: cargo test --release --test connectivity_oracle -- --ignored"]
    fn components_and_bfs_are_the_oracles_under_stress(
        shape in 0u8..5,
        n in 2usize..5000,
        directed in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        check_case(shape, n, directed == 1, seed, &[8]);
    }
}

/// The two degenerate inputs no proptest case draws.
#[test]
fn the_empty_graph_and_a_single_vertex() {
    let empty = CsrGraph::from_pairs(0, &[]);
    assert_eq!(cc::connected_components(&empty).num_components, 0);
    assert_eq!(bfs::bfs_parallel(&empty, 0).reached, 0);
    let one = CsrGraph::from_pairs(1, &[]);
    check(&one, &one, 0, "single vertex");
}
