//! Triangle Reduction against the paper: every triangle scheme of the
//! registry at `SG_THREADS` 1 and 4, the sharded ranks and the union of the
//! federation shards, compared bit for bit with the sequential Listing-sized
//! references in `oracle` on small random graphs of every shape the
//! executors have to survive. The other schemes with a plan — `uniform`,
//! `spectral`, `cut`, `lowdeg` — meet their oracles the same ways.

mod contract;
mod oracle;

use contract::Outcome;
use proptest::prelude::*;
use sg_core::{SchemeParams, SchemeRegistry};
use sg_dist::{distributed_compress, federation_plan};
use sg_graph::prng::unit_f64;
use sg_graph::{generators, CsrGraph, EdgeList, VertexId};

/// The registry's triangle schemes and `collapse`.
const SCHEMES: [&str; 5] = ["tr", "tr-eo", "tr-mw", "tr-ct", "collapse"];

/// Everything a triangle scheme's output can differ in: `n'`, the edges,
/// the weights' bits and the vertex mapping.
fn output(g: &CsrGraph, mapping: Option<Vec<Option<VertexId>>>) -> Outcome {
    contract::outcome(g, mapping.as_deref())
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
fn registry_and_oracle(g: &CsrGraph, seed: u64, threads: usize) -> Vec<(String, Outcome, Outcome)> {
    let registry = SchemeRegistry::with_defaults();
    let weighted = generators::with_random_weights(g, 1.0, 100.0, seed);
    let mut rows = Vec::new();
    rayon::with_num_threads(threads, || {
        for p in [0.0, 0.5, 1.0] {
            for x in [1, 2] {
                for name in SCHEMES.into_iter().filter(|&name| x == 1 || name != "collapse") {
                    let g = if name == "tr-mw" { &weighted } else { g };
                    let scheme = registry.create(name, &params(p, x)).expect("valid");
                    let got = scheme.apply(g, seed);
                    let (want, mapping) = oracle::scheme(g, name, &scheme.params(), seed);
                    let (got, want) =
                        (output(&got.graph, got.vertex_mapping), output(&want, mapping));
                    rows.push((format!("{name}:p={p}:x={x}"), got, want));
                }
            }
        }
    });
    rows
}

/// The planned schemes that are not TR, each with a bag of parameters it
/// reads part of: `spectral` in both Υ variants, with and without
/// `reweight`.
fn planned(p: f64) -> Vec<(&'static str, SchemeParams)> {
    let (p, k) = (p.to_string(), (1.0 + 3.0 * p).to_string());
    let runs = [
        ("uniform", "logn", "false"),
        ("cut", "logn", "false"),
        ("lowdeg", "logn", "false"),
        ("spectral", "logn", "false"),
        ("spectral", "logn", "true"),
        ("spectral", "avgdeg", "false"),
        ("spectral", "avgdeg", "true"),
    ];
    let bag = |variant, reweight| {
        let pairs = [("p", p.as_str()), ("k", &k), ("variant", variant), ("reweight", reweight)];
        SchemeParams::from_pairs(&pairs)
    };
    runs.map(|(name, variant, reweight)| (name, bag(variant, reweight))).to_vec()
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
                for name in &SCHEMES[..2] {
                    let scheme = registry.create(name, &params(p, x)).expect("valid");
                    let (want, _) = oracle::scheme(&g, name, &scheme.params(), seed);
                    let want = output(&want, None);
                    for parts in [1, 2, 3] {
                        let label = format!("{name}:p={p}:x={x} over {parts} parts");
                        let dist = distributed_compress(&g, scheme.as_ref(), parts, seed)
                            .expect("TR has a plan");
                        let got = output(&dist.result.graph, dist.result.vertex_mapping);
                        prop_assert_eq!(&got, &want, "{} (ranks)", label);
                        if *name == "tr" {
                            let merged = contract::shard_union(&g, scheme.as_ref(), parts, seed);
                            prop_assert_eq!(&merged, &want, "{} (shards)", label);
                        }
                    }
                }
            }
        }
    }

    /// `uniform`, `spectral`, `cut` and `lowdeg` at 1 and 4 workers, over
    /// 2 and 3 ranks and, where federable, as the union of 2 and 3 shards,
    /// are their oracles.
    #[test]
    fn planned_schemes_are_their_oracles(
        shape in 0u8..6,
        n in 5usize..60,
        seed in 0u64..1000,
        tenths in 0u32..11,
    ) {
        let g = input(shape, n, seed);
        let registry = SchemeRegistry::with_defaults();
        for (name, params) in planned(f64::from(tenths) / 10.0) {
            let scheme = registry.create(name, &params).expect("valid");
            let (want, mapping) = oracle::scheme(&g, name, &scheme.params(), seed);
            let (want, label) = (output(&want, mapping), scheme.label());
            for threads in [1, 4] {
                let got = rayon::with_num_threads(threads, || scheme.apply(&g, seed));
                let got = output(&got.graph, got.vertex_mapping);
                prop_assert_eq!(&got, &want, "{} on shape {} at {} threads", label, shape, threads);
            }
            for parts in [2, 3] {
                let dist = distributed_compress(&g, scheme.as_ref(), parts, seed).expect("a plan");
                let got = output(&dist.result.graph, dist.result.vertex_mapping);
                prop_assert_eq!(&got, &want, "{} over {} ranks", label, parts);
                if federation_plan(&g, scheme.as_ref()).is_ok() {
                    let got = contract::shard_union(&g, scheme.as_ref(), parts, seed);
                    prop_assert_eq!(&got, &want, "{} over {} shards", label, parts);
                }
            }
        }
    }
}
