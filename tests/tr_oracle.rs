//! Triangle Reduction against the paper: every triangle scheme of the
//! registry at `SG_THREADS` 1 and 4, the sharded ranks and the union of the
//! federation shards, compared bit for bit with the sequential Listing-sized
//! references in `oracle` on small random graphs of every shape the
//! executors have to survive.

mod oracle;

use proptest::prelude::*;
use sg_core::schemes::{Discipline, EdgeChoice, TrConfig};
use sg_core::{SchemeParams, SchemeRegistry};
use sg_dist::{apply_edge_deletions, distributed_compress, shard_compress, ShardOutcome};
use sg_graph::prng::unit_f64;
use sg_graph::{generators, CsrGraph, EdgeId, EdgeList, VertexId};
use std::sync::Mutex;

/// The worker-count override is process-global and the tests of this binary
/// run concurrently: whoever moves it holds this lock.
static KNOB: Mutex<()> = Mutex::new(());

/// The registry's triangle schemes with the configuration each one runs.
const SCHEMES: [(&str, Discipline, EdgeChoice); 4] = [
    ("tr", Discipline::Plain, EdgeChoice::Random),
    ("tr-eo", Discipline::EdgeOnce, EdgeChoice::Random),
    ("tr-mw", Discipline::EdgeOnce, EdgeChoice::MaxWeight),
    ("tr-ct", Discipline::EdgeOnce, EdgeChoice::FewestTriangles),
];

/// Everything a triangle scheme's output can differ in: `n'`, the edges,
/// the weights' bits and the vertex mapping.
type Output = (usize, Vec<(VertexId, VertexId)>, Option<Vec<u32>>, Option<Vec<Option<VertexId>>>);

fn output(g: &CsrGraph, mapping: Option<Vec<Option<VertexId>>>) -> Output {
    let weights = g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect());
    (g.num_vertices(), g.edge_slice().to_vec(), weights, mapping)
}

/// One input of shape `shape` on `n ≥ 5` vertices: Erdős–Rényi plus
/// planted triangles, Barabási–Albert hubs under a random relabelling, the
/// planted graph with every edge randomly oriented (an arc with `u > v` owns
/// no triangle), `K_n`, a single triangle, and the empty graph.
fn input(shape: u8, n: usize, seed: u64) -> CsrGraph {
    let planted =
        || generators::planted_triangles(&generators::erdos_renyi(n, 2 * n, seed), n, seed);
    match shape {
        0 => planted(),
        1 => {
            let mut label: Vec<VertexId> = (0..n as VertexId).collect();
            label.sort_by(|&a, &b| unit_f64(seed, a.into()).total_cmp(&unit_f64(seed, b.into())));
            let hubs = generators::barabasi_albert(n, 3, seed);
            let pairs =
                hubs.edge_slice().iter().map(|&(u, v)| (label[u as usize], label[v as usize]));
            CsrGraph::from_edge_list(EdgeList::from_pairs(n, pairs))
        }
        2 => {
            let flip = |i: usize| unit_f64(seed ^ 1, i as u64) < 0.5;
            let planted = planted();
            let arcs = planted.edge_slice().iter().enumerate();
            let arcs = arcs.map(|(i, &(u, v))| if flip(i) { (v, u) } else { (u, v) });
            CsrGraph::from_edge_list_directed(EdgeList::from_pairs(n, arcs))
        }
        3 => generators::complete(n.min(14)),
        4 => CsrGraph::from_pairs(3, &[(0, 1), (1, 2), (0, 2)]),
        _ => CsrGraph::from_pairs(0, &[]),
    }
}

fn params(p: f64, x: usize) -> SchemeParams {
    SchemeParams::from_pairs(&[("p", &p.to_string()), ("x", &x.to_string())])
}

/// `(label, registry output, oracle output)` for every triangle scheme and
/// `collapse` on `g` at p ∈ {0, 0.5, 1} and x ∈ {1, 2}, run at `threads`
/// workers (`tr-mw` on `g` with random weights).
fn registry_and_oracle(g: &CsrGraph, seed: u64, threads: usize) -> Vec<(String, Output, Output)> {
    let registry = SchemeRegistry::with_defaults();
    let weighted = generators::with_random_weights(g, 1.0, 100.0, seed);
    let mut rows = Vec::new();
    let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(threads);
    for p in [0.0, 0.5, 1.0] {
        for x in [1, 2] {
            for (name, discipline, choice) in SCHEMES {
                let g = if name == "tr-mw" { &weighted } else { g };
                let got = registry.create(name, &params(p, x)).expect("valid").apply(g, seed);
                let cfg = TrConfig { p, x, discipline, choice };
                let want = oracle::triangle_reduction(g, cfg, seed);
                let label = format!("{name}:p={p}:x={x}");
                rows.push((label, output(&got.graph, got.vertex_mapping), output(&want, None)));
            }
        }
        let got = registry.create("collapse", &params(p, 1)).expect("valid").apply(g, seed);
        let (want, mapping) = oracle::triangle_collapse(g, p, seed);
        let (got, want) = (output(&got.graph, got.vertex_mapping), output(&want, Some(mapping)));
        rows.push((format!("collapse:p={p}"), got, want));
    }
    rayon::set_num_threads(0);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The registry's triangle schemes are the paper's, at 1 and 4 workers.
    #[test]
    fn registry_triangle_schemes_are_the_listing_oracle(
        shape in 0u8..6,
        n in 5usize..60,
        seed in 0u64..1000,
    ) {
        let g = input(shape, n, seed);
        for threads in [1, 4] {
            for (label, got, want) in registry_and_oracle(&g, seed, threads) {
                prop_assert_eq!(got, want, "{} on shape {} at {} threads", label, shape, threads);
            }
        }
    }

    /// `distributed_compress` at 1, 2 and 3 ranks and the union of Plain
    /// TR's federation shards are the paper's too.
    #[test]
    fn sharded_triangle_reduction_is_the_listing_oracle(
        shape in 0u8..6,
        n in 5usize..60,
        seed in 0u64..1000,
    ) {
        let g = input(shape, n, seed);
        let registry = SchemeRegistry::with_defaults();
        for p in [0.0, 0.5, 1.0] {
            for x in [1, 2] {
                for (name, discipline, choice) in &SCHEMES[..2] {
                    let cfg = TrConfig { p, x, discipline: *discipline, choice: *choice };
                    let want = output(&oracle::triangle_reduction(&g, cfg, seed), None);
                    let scheme = registry.create(name, &params(p, x)).expect("valid");
                    for parts in [1, 2, 3] {
                        let label = format!("{name}:p={p}:x={x} over {parts} parts");
                        let dist = distributed_compress(&g, scheme.as_ref(), parts, seed)
                            .expect("TR has a plan");
                        let got = output(&dist.result.graph, dist.result.vertex_mapping);
                        prop_assert_eq!(&got, &want, "{} (ranks)", label);
                        if *discipline != Discipline::Plain {
                            continue;
                        }
                        let mut deleted: Vec<EdgeId> = Vec::new();
                        for shard in 0..parts {
                            match shard_compress(&g, scheme.as_ref(), shard, parts, seed) {
                                Ok(ShardOutcome::Edges(ids)) => deleted.extend(ids),
                                other => panic!("{label}: shard {shard} returned {other:?}"),
                            }
                        }
                        let merged = output(&apply_edge_deletions(&g, &deleted), None);
                        prop_assert_eq!(&merged, &want, "{} (shards)", label);
                    }
                }
            }
        }
    }
}
