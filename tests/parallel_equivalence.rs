//! Thread-count invariance suite: the determinism contract of the threaded
//! rayon backend, pinned end-to-end.
//!
//! Every kernel decision in the workspace is deterministic in
//! `(seed, element id)`, and the shim combines per-chunk results over
//! chunk boundaries that depend only on input *length* — never on the
//! worker count. Consequence: every scheme and every stage-2 algorithm
//! must produce **bit-identical** output at `SG_THREADS=1`, `4`, and `8`
//! (floating point included — the reduction trees have identical shape).
//! These tests compute each result at 1 thread and re-run it at 4 and 8
//! via the shim's programmatic knob, comparing floats by raw bits.
//!
//! The one documented exception is the `parent` vector of `bfs_parallel`:
//! equal-depth parent races are resolved by whichever worker claims the
//! vertex first (any valid parent is acceptable, as in GAPBS), so for BFS
//! the invariant covers depths and reached counts, and the parents are
//! checked against the Graph500 tree validator instead.

use slimgraph::algos::{bc, bfs, cc, diameter, pagerank};
use slimgraph::core::{CompressionScheme, SchemeParams, SchemeRegistry};
use slimgraph::graph::{generators, CsrGraph};
use std::sync::Mutex;

/// Thread counts compared against the 1-thread baseline.
const THREAD_COUNTS: [usize; 2] = [4, 8];

/// The worker-count override is process-global; tests in this binary run
/// concurrently, so every test serializes on this lock.
static KNOB: Mutex<()> = Mutex::new(());

/// Computes `compute()` at 1 thread, then at each count in
/// [`THREAD_COUNTS`], asserting all results are identical. Returns the
/// baseline.
fn assert_thread_invariant<T, F>(label: &str, compute: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(1);
    let baseline = compute();
    for &threads in &THREAD_COUNTS {
        rayon::set_num_threads(threads);
        let threaded = compute();
        rayon::set_num_threads(0);
        assert_eq!(
            threaded, baseline,
            "{label}: result at {threads} threads differs from the 1-thread baseline"
        );
    }
    rayon::set_num_threads(0);
    baseline
}

/// Raw IEEE-754 bits — `==` on floats would already be strict enough for
/// these finite outputs, but bits make the "bit-identical" claim literal.
fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything observable about a compressed graph, with weights as bits.
fn graph_fingerprint(g: &CsrGraph) -> (usize, Vec<(u32, u32)>, Option<Vec<u32>>) {
    (
        g.num_vertices(),
        g.edge_slice().to_vec(),
        g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect()),
    )
}

fn test_graph() -> CsrGraph {
    generators::planted_triangles(&generators::erdos_renyi(800, 2400, 1), 600, 2)
}

#[test]
fn every_registry_scheme_is_thread_count_invariant() {
    let g = test_graph();
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5"), ("k", "8"), ("epsilon", "0.05")]);
    let mut checked = 0;
    for name in registry.names() {
        let scheme: Box<dyn CompressionScheme> =
            registry.create(name, &params).expect("default factories succeed");
        assert_thread_invariant(&format!("scheme `{name}`"), || {
            let r = scheme.apply(&g, 3);
            (graph_fingerprint(&r.graph), r.vertex_mapping)
        });
        checked += 1;
    }
    assert!(checked >= 9, "registry shrank to {checked} schemes");
}

/// Every registry scheme's output on the graph, seed and parameter bag of
/// the invariance test above, pinned to `(n', m', graph_digest)` as printed
/// by this same code at commit a0d9225. A compression ratio cannot move
/// without failing here exactly, on any host, with no baseline file.
/// The table began as two rows — `collapse` (not distributable, so
/// `dist_equivalence`'s sharded oracle never sees it) and `tr-ct` (the one
/// ordered variant that re-sorts its triangle stream), unchanged since
/// commit 9476721, the last one whose ordered path listed every triangle
/// under a mutex and sorted the lot; hence the test's name.
#[test]
fn collapse_and_ct_match_the_outputs_of_the_sorted_listing() {
    const PINNED: [(&str, (usize, usize, u64)); 11] = [
        ("collapse", (209, 451, 0x84e1_bec4_a2a3_ff4e)),
        ("cut", (800, 4162, 0x7c17_6baa_c468_d6fd)),
        ("lowdeg", (799, 4172, 0x7c34_9554_0b8a_2614)),
        ("spanner", (800, 928, 0xe5b0_259c_8632_dd58)),
        ("spectral", (800, 1629, 0xfc5d_d059_fab8_7e22)),
        ("summary", (800, 3965, 0x04eb_d29c_38b0_6145)),
        ("tr", (800, 3786, 0x4dee_b5b2_a79d_f16a)),
        ("tr-ct", (800, 3778, 0x80ad_14fa_a98b_898b)),
        ("tr-eo", (800, 3838, 0x761f_8977_45ab_3c86)),
        ("tr-mw", (800, 3838, 0xe941_59a6_3f6d_f585)),
        ("uniform", (800, 2122, 0xfbfc_e6a2_df29_bc0e)),
    ];
    let g = test_graph();
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5"), ("k", "8"), ("epsilon", "0.05")]);
    assert!(
        registry.names().eq(PINNED.iter().map(|(name, _)| *name)),
        "the table needs exactly one row per registry scheme"
    );
    for (name, pinned) in PINNED {
        // Thread invariance is the registry test's job; this pins the value.
        let r = registry.create(name, &params).expect("default factories succeed").apply(&g, 3);
        let got =
            (r.graph.num_vertices(), r.graph.num_edges(), slimgraph::serve::graph_digest(&r.graph));
        assert_eq!(got, pinned, "`{name}` moved off its pinned output");
    }
}

/// A few near-bicliques and near-cliques — each with ~10 % of its edges
/// removed — over sparse noise: the input on which ϵ-summarization merges
/// vertices, emits dense superedges with `minus` corrections and encodes a
/// near-clique as an internal `a == b` superedge.
fn planted_dense_blocks() -> CsrGraph {
    use slimgraph::graph::prng::unit_f64;
    let kept = |u: u32, v: u32| unit_f64(77, u64::from(u) << 32 | u64::from(v)) >= 0.1;
    let mut edges: Vec<(u32, u32)> = generators::erdos_renyi(400, 300, 9).edge_slice().to_vec();
    let mut next = 0u32;
    for (a, b) in [(6, 9), (12, 5), (8, 8)] {
        for u in next..next + a {
            edges.extend((next + a..next + a + b).filter(|&v| kept(u, v)).map(|v| (u, v)));
        }
        next += a + b;
    }
    for c in [7, 10, 14] {
        for u in next..next + c {
            edges.extend((u + 1..next + c).filter(|&v| kept(u, v)).map(|v| (u, v)));
        }
        next += c;
    }
    CsrGraph::from_pairs(400, &edges)
}

/// FNV-1a over a word stream (the constants of `graph_digest`).
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The whole `Summary` of ϵ-summarization — every count, the supervertex
/// assignment, the three pair lists *in their stored order*, and the
/// reconstruction — pinned to the values the hash-map implementation of
/// commit 610e50a printed, on inputs that reach every branch of the scheme:
/// merges over several iterations (R-MAT), dense superedges with `minus`
/// corrections and an internal `a == b` superedge (planted blocks), whole
/// superedge groups dropped by the ϵ budget (Watts–Strogatz at ϵ = 0.3).
/// The registry row above cannot do this: on its graph not one merge happens.
#[test]
fn summary_matches_the_hash_map_implementation_field_for_field() {
    use slimgraph::core::schemes::{summarize, SummarizationConfig};
    // iterations, supervertices, superedges, plus, minus, dropped plus / minus;
    // FNV of `supervertex_of`, of the three pair lists, digest of `decompress()`.
    type Pin = ([usize; 7], [u64; 3]);
    let rmat = generators::rmat_graph500(12, 10, 5);
    let blocks = planted_dense_blocks();
    let ws = generators::watts_strogatz(500, 5, 0.05, 4);
    let cases: [(&str, &CsrGraph, f64, u64, Pin); 6] = [
        (
            "rmat e=0.1",
            &rmat,
            0.1,
            5,
            (
                [8, 3095, 11401, 15008, 0, 3253, 1052],
                [0xfc28_a8fd_c9f9_6120, 0x40e5_32d5_247d_3d6e, 0x032e_bb00_85e0_4d57],
            ),
        ),
        (
            "rmat e=0",
            &rmat,
            0.0,
            5,
            (
                [8, 3095, 11401, 18261, 1052, 0, 0],
                [0xfc28_a8fd_c9f9_6120, 0x8b11_3c77_ad39_3ee0, 0x37d4_7d17_9522_da40],
            ),
        ),
        (
            "blocks e=0",
            &blocks,
            0.0,
            3,
            (
                [8, 208, 50, 202, 57, 0, 0],
                [0x90bd_af3e_cc15_e2f8, 0x0bbb_89f8_0937_a228, 0x8644_9723_5eb5_3c51],
            ),
        ),
        (
            "blocks e=0.05",
            &blocks,
            0.05,
            3,
            (
                [8, 208, 50, 172, 27, 30, 30],
                [0x90bd_af3e_cc15_e2f8, 0xb671_daa2_45b7_34d2, 0x5091_b3b5_78d6_a80f],
            ),
        ),
        (
            "blocks e=0.5",
            &blocks,
            0.5,
            3,
            (
                [8, 208, 7, 0, 0, 300, 29],
                [0x90bd_af3e_cc15_e2f8, 0x8f28_5647_dd4d_db28, 0x24cf_c964_5a15_2977],
            ),
        ),
        (
            "ws e=0.3",
            &ws,
            0.3,
            5,
            (
                [1, 500, 1748, 0, 0, 749, 0],
                [0x8e07_d716_feaf_3681, 0x54e6_5c7e_b2be_04e9, 0xeed2_bf5f_199b_d945],
            ),
        ),
    ];
    for (label, g, epsilon, seed, pinned) in cases {
        let got: Pin = assert_thread_invariant(label, || {
            let s = summarize(g, SummarizationConfig { epsilon, max_iterations: 8, seed });
            if std::ptr::eq(g, &blocks) && epsilon < 0.1 {
                assert!(!s.corrections_minus.is_empty(), "{label}: no minus correction");
                assert!(
                    s.superedges.iter().any(|&(a, b)| a == b),
                    "{label}: no internal superedge"
                );
            }
            assert_eq!(s.supervertices.concat().len(), g.num_vertices());
            let pairs = [&s.superedges, &s.corrections_plus, &s.corrections_minus];
            (
                [
                    s.iterations,
                    s.num_supervertices(),
                    s.superedges.len(),
                    s.corrections_plus.len(),
                    s.corrections_minus.len(),
                    s.dropped_plus,
                    s.dropped_minus,
                ],
                [
                    fnv(s.supervertex_of.iter().map(|&x| u64::from(x))),
                    fnv(pairs.iter().flat_map(|list| {
                        list.iter().map(|&(a, b)| u64::from(a) << 32 | u64::from(b))
                    })),
                    slimgraph::serve::graph_digest(&s.decompress()),
                ],
            )
        });
        assert_eq!(got, pinned, "`{label}` moved off its pinned summary");
    }
}

/// The triangle schemes and the two triangle counters on *skewed* ids,
/// pinned to what the merge-walk kernel of commit e4ed0f7 printed. R-MAT puts
/// its hubs at the lowest ids, so nearly every canonical edge `(u, v)` has
/// the long row on the `u` side (the kernel probes `N(v)` against `u`'s
/// marked row); relabelled `v -> n-1-v` the hubs sit at the highest ids and
/// the short row is `u`'s (the kernel gallops through `N(v)`). The registry
/// row above runs on ER + planted triangles, which has no skew and reaches
/// neither case on purpose.
#[test]
fn triangle_schemes_match_the_merge_kernel_on_skewed_ids() {
    use slimgraph::algos::tc;
    type Pin = ([(usize, usize, u64); 6], u64, u64);
    const SPECS: [&str; 6] = ["tr", "tr:x=2", "tr-eo", "tr-mw", "tr-ct", "collapse"];
    const PINNED_HUBS_LOW: Pin = (
        [
            (4096, 10124, 0x8591_d537_ee9d_0169),
            (4096, 6439, 0x665b_96a7_557b_3f24),
            (4096, 26726, 0xaeee_9026_54d9_a429),
            (4096, 26726, 0x776f_2af6_9214_c66d),
            (4096, 5686, 0x544c_1cb4_cbde_edea),
            (2145, 1157, 0xaa20_6700_12ac_ff81),
        ],
        211_387,
        0xbcfe_7be6_056a_e5fe,
    );
    const PINNED_HUBS_HIGH: Pin = (
        [
            (4096, 10161, 0x7be7_a3a2_e998_b218),
            (4096, 6512, 0x1c43_8f69_587d_9c04),
            (4096, 25546, 0x29a3_4bc1_41cc_0773),
            (4096, 25546, 0x7a05_ef94_765c_7795),
            (4096, 5754, 0xb517_2afe_b53e_e34c),
            (2154, 1169, 0x0e60_c574_7841_0fe9),
        ],
        211_387,
        0x5218_ff02_10c1_14e4,
    );
    let hubs_low = generators::rmat_graph500(12, 10, 5);
    let n = hubs_low.num_vertices() as u32;
    let flipped: Vec<(u32, u32)> =
        hubs_low.edge_slice().iter().map(|&(u, v)| (n - 1 - u, n - 1 - v)).collect();
    let hubs_high = CsrGraph::from_pairs(n as usize, &flipped);
    let cases: [(&str, &CsrGraph, Pin); 2] =
        [("hubs low", &hubs_low, PINNED_HUBS_LOW), ("hubs high", &hubs_high, PINNED_HUBS_HIGH)];
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5")]);
    for (label, g, pinned) in cases {
        let weighted = generators::with_random_weights(g, 1.0, 100.0, 6);
        let got: Pin = assert_thread_invariant(label, || {
            let outputs = SPECS.map(|spec| {
                let input = if spec == "tr-mw" { &weighted } else { g };
                let pipeline = registry.parse_pipeline(spec, &params).expect("spec parses");
                let r = pipeline.apply(input, 3).result;
                (
                    r.graph.num_vertices(),
                    r.graph.num_edges(),
                    slimgraph::serve::graph_digest(&r.graph),
                )
            });
            (outputs, tc::count_triangles(g), fnv(tc::triangles_per_vertex(g).into_iter()))
        });
        assert_eq!(got, pinned, "`{label}` moved off the merge kernel's output");
    }
}

/// The spanner and the low-diameter decomposition under it, pinned to what
/// the binary-heap race and the hash-map `derive_spanner` of commit 3ef2dc1
/// printed: `(n', m', graph_digest)` of `spanner:k=` plus an FNV of the LDD's
/// `assignment`, at the small, the default and a near-forest `k`, on hub-heavy
/// R-MAT (one giant cluster from `k = 8` on), on Barabási–Albert, and on a
/// sparse Erdős–Rényi graph with isolated vertices and well over 100
/// components (the race must start a cluster in every one of them). The
/// registry row above pins the spanner at one point, `k = 8` on 800 vertices.
#[test]
fn spanner_matches_the_heap_race_and_the_hash_map_kernel() {
    use slimgraph::core::ldd::ldd_for_spanner;
    type Pin = ((usize, usize, u64), u64);
    const KS: [f64; 3] = [2.0, 8.0, 128.0];
    const PINNED_RMAT: [Pin; 3] = [
        ((2048, 2927, 0x82ea_a074_dc6a_3ce4), 0xcc8f_57e5_ec84_ce89),
        ((2048, 1622, 0xdd5d_2618_78ce_14b1), 0x50f4_eb37_2bcc_4aa2),
        ((2048, 1525, 0x9b77_578f_48da_effe), 0x9cb5_3063_05e6_c57c),
    ];
    const PINNED_BA: [Pin; 3] = [
        ((4000, 14717, 0xf61c_76e4_db4f_3bdc), 0xefc2_d95e_9632_938e),
        ((4000, 5216, 0xb006_f0f3_ffe6_803b), 0x1efa_7cdf_75c7_29a8),
        ((4000, 4124, 0x6c05_c4b1_a7c3_dcb8), 0x4ea6_f7d1_6a36_05ce),
    ];
    const PINNED_SPARSE: [Pin; 3] = [
        ((3000, 3299, 0x81c0_0619_c445_c4c4), 0xb2d6_6d04_24a4_a4c2),
        ((3000, 3286, 0x74d7_f872_81fd_da5d), 0xaf33_6791_d05e_b76c),
        ((3000, 2885, 0x8f0b_3ecf_9762_7051), 0x144a_29b6_4337_7eee),
    ];
    let rmat = generators::rmat_graph500(11, 8, 5);
    let ba = generators::barabasi_albert(4_000, 4, 6);
    let sparse = generators::erdos_renyi(3_000, 3_300, 7);
    let components = cc::connected_components(&sparse);
    assert!(components.num_components > 100, "the sparse case lost its components");
    assert!(
        (0..3_000).any(|v| sparse.degree(v) == 0),
        "the sparse case lost its isolated vertices"
    );
    let cases: [(&str, &CsrGraph, [Pin; 3]); 3] = [
        ("rmat hubs low", &rmat, PINNED_RMAT),
        ("barabasi-albert", &ba, PINNED_BA),
        ("sparse, isolated vertices", &sparse, PINNED_SPARSE),
    ];
    let registry = SchemeRegistry::with_defaults();
    for (label, g, pinned) in cases {
        let got: [Pin; 3] = assert_thread_invariant(label, || {
            KS.map(|k| {
                let params = SchemeParams::from_pairs(&[("k", &k.to_string())]);
                let r = registry.create("spanner", &params).expect("k is valid").apply(g, 3);
                let mapping = ldd_for_spanner(g, k, 3);
                (
                    (
                        r.graph.num_vertices(),
                        r.graph.num_edges(),
                        slimgraph::serve::graph_digest(&r.graph),
                    ),
                    fnv(mapping.assignment.iter().map(|&c| u64::from(c))),
                )
            })
        });
        assert_eq!(got, pinned, "`{label}` moved off the heap race's output");
    }
}

#[test]
fn chained_pipeline_is_thread_count_invariant() {
    let g = test_graph();
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5")]);
    assert_thread_invariant("pipeline spanner,lowdeg,uniform", || {
        let out = registry
            .parse_pipeline("spanner,lowdeg,uniform", &params)
            .expect("spec parses")
            .apply(&g, 21);
        (graph_fingerprint(&out.result.graph), out.result.vertex_mapping)
    });
}

#[test]
fn bfs_depths_are_thread_count_invariant_and_parents_stay_valid() {
    let g = generators::rmat_graph500(11, 8, 42);
    assert_thread_invariant("bfs_parallel depths", || {
        let r = bfs::bfs_parallel(&g, 0);
        // Parents may legitimately differ between runs at >1 threads
        // (equal-depth races), but must always form a valid BFS tree.
        assert!(bfs::validate_bfs_tree(&g, 0, &r), "invalid BFS tree");
        (r.depth, r.reached)
    });
    // The sequential BFS is deterministic in full, parents included.
    assert_thread_invariant("sequential bfs", || {
        let r = bfs::bfs(&g, 0);
        (r.parent, r.depth, r.reached)
    });
}

#[test]
fn pagerank_scores_are_bit_identical_across_thread_counts() {
    let g = generators::rmat_graph500(11, 8, 5);
    assert_thread_invariant("pagerank", || {
        let r = pagerank::pagerank_default(&g);
        (f64_bits(&r.scores), r.iterations, r.residual.to_bits())
    });
}

/// `(iterations, residual bits, FNV of the scores' bits)` of
/// `pagerank_default`, pinned to what the four-pass sweep of commit e8654ec
/// (dangling sum, pull with a divide per edge, residual sum — three drives
/// per iteration) printed, on the raw graph and on its encoded twin, at 1, 4
/// and 8 threads. The inputs reach every term of the update: a skewed graph,
/// a sample with isolated vertices (dangling mass ≠ 0), a directed graph
/// with sinks and a source, and the degenerate sizes. The last five inputs
/// sit at the edges of the pull phase's 256-vertex windows (a short, an
/// exact and a one-over last window; windows of mixed degrees and one of
/// isolated vertices only; in-degrees that order a window differently than
/// out-degrees) and are pinned to what the fused vertex-order sweep printed.
/// Elsewhere PageRank is pinned only indirectly (raw == encoded, a KL
/// inside a transcript), which would not say *which* bit moved.
#[test]
fn pagerank_matches_the_four_pass_sweep_to_the_last_bit() {
    use slimgraph::graph::{EdgeList, EncodedCsr};
    type Pin = (usize, u64, u64);
    let ba = generators::barabasi_albert(4000, 4, 5);
    let sampled = SchemeRegistry::with_defaults()
        .parse_pipeline("uniform:p=0.5", &SchemeParams::new())
        .expect("spec parses")
        .apply(&ba, 3)
        .result
        .graph;
    assert!((0..4000).any(|v| sampled.degree(v) == 0), "the sample must isolate a vertex");
    // Vertex v points at 3v+1 and 7v+2 (mod 600) unless v is a multiple of
    // five: 120 sinks, and in-degrees from 0 upwards.
    let arcs = (0..600u32).filter(|v| v % 5 != 0).flat_map(|v| {
        [(v, (3 * v + 1) % 600), (v, (7 * v + 2) % 600)].into_iter().filter(|&(u, w)| u != w)
    });
    let sinks = CsrGraph::from_edge_list_directed(EdgeList::from_pairs(600, arcs));
    assert!(sinks.is_directed() && (0..600).any(|v| sinks.degree(v) == 0));
    let rmat = generators::rmat_graph500(11, 8, 5);
    let [short, exact, over] = [255, 256, 257].map(|n| generators::barabasi_albert(n, 3, n as u64));
    let mixed = mixed_degree_windows();
    let skew = in_out_skewed();
    let cases: [(&str, CsrGraph, Pin); 11] = [
        ("barabasi_albert(4000, 4)", ba, (30, 0x3e0f_2616_cee6_0000, 0xed0c_4a05_e7f5_95df)),
        ("its uniform:p=0.5 sample", sampled, (85, 0x3e10_c155_de21_0000, 0x40b7_a263_bb28_426e)),
        ("rmat_graph500(11, 8)", rmat, (32, 0x3e0a_517f_1dfc_0000, 0xbe85_032b_1692_2db9)),
        ("directed with sinks", sinks, (24, 0x3dff_5b81_2680_0000, 0x885c_96b0_5efd_e22d)),
        ("empty", CsrGraph::from_pairs(0, &[]), (0, 0, 0xcbf2_9ce4_8422_2325)),
        ("single vertex", CsrGraph::from_pairs(1, &[]), (1, 0, 0xc293_bd4c_8601_b7df)),
        ("barabasi_albert(255, 3)", short, (36, 0x3e0b_3b93_3040_0000, 0x9f8f_f93e_488a_6267)),
        ("barabasi_albert(256, 3)", exact, (39, 0x3e10_20b8_5390_0000, 0x4127_2dd0_f2c7_a99c)),
        ("barabasi_albert(257, 3)", over, (39, 0x3e0e_5900_4360_0000, 0xe153_2867_c7e5_0744)),
        ("mixed-degree windows", mixed, (64, 0x3e0d_9581_25e0_0000, 0xecf3_3477_e384_815e)),
        ("in- and out-degree disagree", skew, (29, 0x3e08_5c66_bf90_0000, 0x4cd7_85a4_49d2_8432)),
    ];
    for (label, g, pinned) in cases {
        let encoded = EncodedCsr::from_graph(&g);
        let got: [Pin; 2] = assert_thread_invariant(label, || {
            let pin = |r: pagerank::PageRankResult| {
                (r.iterations, r.residual.to_bits(), fnv(r.scores.iter().map(|x| x.to_bits())))
            };
            [pin(pagerank::pagerank_default(&g)), pin(pagerank::pagerank_default(&encoded))]
        });
        assert_eq!(got, [pinned; 2], "`{label}` (raw, encoded) moved off the four-pass sweep");
    }
}

/// Pull windows are 256 ids wide. This graph has three full windows and a
/// five-vertex tail: windows 0 and 2 mix degrees from 0 upwards (every
/// multiple of 16 is isolated), window 1 holds isolated vertices only, and
/// the tail hangs off vertex 1.
fn mixed_degree_windows() -> CsrGraph {
    let window = |base: u32| {
        (1..256u32).filter(|i| i % 16 != 0).flat_map(move |i| {
            (0..(i * 13) % 41)
                .map(move |j| (i + 1 + j) % 256)
                .filter(|t| t % 16 != 0)
                .map(move |t| (base + i, base + t))
        })
    };
    let tail = (768..773u32).flat_map(|v| [(v, 1), (v, 768 + (v - 767) % 5)]);
    let pairs: Vec<(u32, u32)> = window(0).chain(window(512)).chain(tail).collect();
    let g = CsrGraph::from_pairs(773, &pairs);
    let degrees = |w: std::ops::Range<u32>| w.map(|v| g.degree(v)).collect::<Vec<_>>();
    assert!(degrees(256..512).iter().all(|&d| d == 0), "window 1 is isolated vertices only");
    for w in [0..256, 512..768] {
        let d = degrees(w);
        assert!(d.contains(&0) && d.iter().any(|&x| x >= 40), "windows 0 and 2 mix degrees");
    }
    g
}

/// A directed graph on 600 vertices whose arcs land only on `0..97` and
/// `550..600` while out-degrees cycle with `v % 9`, so sorting a window by
/// in-row length and by out-row length give different visit orders.
fn in_out_skewed() -> CsrGraph {
    use slimgraph::graph::EdgeList;
    let arcs = (0..600u32).flat_map(|v| {
        (0..v % 9).map(move |j| {
            let t = if j % 2 == 0 { (j * 613 + v * 7) % 97 } else { 599 - (v * j) % 50 };
            (v, t)
        })
    });
    let g = CsrGraph::from_edge_list_directed(EdgeList::from_pairs(600, arcs));
    let window_sorted = |key: &dyn Fn(u32) -> usize| {
        let mut ids: Vec<u32> = (0..600).collect();
        ids.chunks_mut(256).for_each(|w| w.sort_by_key(|&v| (key(v), v)));
        ids
    };
    assert_ne!(
        window_sorted(&|v| g.in_degree(v)),
        window_sorted(&|v| g.degree(v)),
        "in-degree and out-degree orders must disagree"
    );
    g
}

/// Afforest links concurrently, so only the labels' definition (component
/// minima) makes them thread-invariant: pinned on a sparse graph with many
/// components, its encoded twin, and a directed graph whose weak components
/// need in-rows.
#[test]
fn connected_components_are_thread_count_invariant() {
    use slimgraph::graph::{EdgeList, EncodedCsr};
    let g = generators::erdos_renyi(2000, 2500, 4); // sparse: many components
    let encoded = EncodedCsr::from_graph(&g);
    let arcs = (0..3000u32).filter(|v| v % 7 != 0).map(|v| (v, (v * 37 + 11) % 3000));
    let directed = CsrGraph::from_edge_list_directed(EdgeList::from_pairs(3000, arcs));
    let pin = |r: cc::CcResult| (r.labels, r.num_components);
    let raw = assert_thread_invariant("cc raw", || pin(cc::connected_components(&g)));
    let twin = assert_thread_invariant("cc encoded", || pin(cc::connected_components(&encoded)));
    assert_eq!(twin, raw, "raw and encoded labels differ");
    let weak = assert_thread_invariant("cc directed", || pin(cc::connected_components(&directed)));
    assert!(raw.1 > 1 && weak.1 > 1, "both inputs must have several components");
}

#[test]
fn diameter_and_path_lengths_are_thread_count_invariant() {
    let g = generators::watts_strogatz(600, 4, 0.05, 11);
    assert_thread_invariant("diameter family", || {
        (
            diameter::diameter_exact(&g),
            diameter::diameter_double_sweep(&g, 0),
            diameter::average_path_length_sampled(&g, 64, 9).to_bits(),
        )
    });
}

#[test]
fn betweenness_fold_reduce_is_bit_identical_across_thread_counts() {
    // The fold+reduce accumulator merge is float addition — the test that
    // would catch a thread-count-dependent reduction tree immediately.
    let g = generators::barabasi_albert(500, 3, 7);
    assert_thread_invariant("betweenness sampled", || {
        f64_bits(&bc::betweenness_sampled(&g, 128, 13))
    });
    assert_thread_invariant("betweenness exact", || f64_bits(&bc::betweenness_exact(&g)));
}

#[test]
#[ignore = "perf smoke; needs a multicore host and release mode: \
            cargo test --release --test parallel_equivalence -- --ignored"]
fn pagerank_on_100k_vertices_is_faster_with_4_threads() {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let g = generators::rmat_graph500(17, 8, 7); // 131k vertices, ~1M edges
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let time_at = |threads: usize| {
        rayon::set_num_threads(threads);
        let _warmup = pagerank::pagerank_default(&g);
        let start = std::time::Instant::now();
        let r = pagerank::pagerank_default(&g);
        let elapsed = start.elapsed();
        rayon::set_num_threads(0);
        (elapsed, r)
    };
    let (t1, r1) = time_at(1);
    let (t4, r4) = time_at(4);
    assert_eq!(f64_bits(&r1.scores), f64_bits(&r4.scores), "speed must not change results");
    eprintln!("pagerank on {} vertices: 1 thread {t1:?}, 4 threads {t4:?}", g.num_vertices());
    if hw >= 4 {
        assert!(t4 < t1, "4 threads ({t4:?}) should beat 1 thread ({t1:?}) on a {hw}-core host");
    } else {
        eprintln!("only {hw} hardware thread(s): reporting timings without asserting speedup");
    }
}
