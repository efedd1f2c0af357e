//! Thread-count invariance. The contract harness's `Threads` axis
//! (`tests/contract/`) runs every case of the table at 1, 4 and 8 threads
//! against its pin, the kernel cases on the raw graph and (all but the
//! R-MAT hub graphs) on its encoded twin built in memory; the first eight
//! tests split those cases among them (see [`owner`]). The rest compare what the table does not hold:
//! ϵ-summarization's whole `Summary`, the low-diameter decomposition under
//! the spanner, the diameter family and betweenness. Each is computed at 1
//! thread and re-run at 4 and 8, floats compared by raw bits; the first two
//! are also pinned to the outputs of the implementations they replaced.

mod contract;

use contract::{assert_thread_invariant, check_where, fnv, Axis, Case, Graph, KERNELS};
use slimgraph::algos::{bc, cc, diameter, pagerank};
use slimgraph::graph::{generators, CsrGraph};

/// The test of this suite that runs `case` on the thread axis: each case of
/// the table belongs to exactly one.
fn owner(case: &Case) -> &'static str {
    use Graph::*;
    match (case.graph, case.spec) {
        (RmatHubsLow | RmatHubsHigh | RmatHubsLowWeighted | RmatHubsHighWeighted, _) => {
            "triangle_schemes_match_the_merge_kernel_on_skewed_ids"
        }
        (Rmat11, KERNELS) => "pagerank_scores_are_bit_identical_across_thread_counts",
        (
            BaPr | BaPrSample | Sinks | Empty | SingleVertex | Ba255 | Ba256 | Ba257 | MixedWindows
            | InOutSkewed,
            KERNELS,
        ) => "pagerank_matches_the_four_pass_sweep_to_the_last_bit",
        (Sparse | Directed, KERNELS) => "connected_components_are_thread_count_invariant",
        (_, KERNELS) => "bfs_depths_are_thread_count_invariant_and_parents_stay_valid",
        (_, "collapse" | "tr-ct") => "collapse_and_ct_match_the_outputs_of_the_sorted_listing",
        _ if case.is_chain() => "chained_pipeline_is_thread_count_invariant",
        _ => "every_registry_scheme_is_thread_count_invariant",
    }
}

/// Runs the cases `test` owns at 1, 4 and 8 threads against their pins.
fn threads_axis(test: &str) {
    for t in [1, 4, 8] {
        check_where(Axis::Threads(t), |case| owner(case) == test);
    }
}

/// The one-stage compress cases off the R-MAT hub graphs but `collapse` and
/// `tr-ct`: both registry sweeps, the `spanner:k=` rows, the reweighting
/// spectral sparsifier and the star.
#[test]
fn every_registry_scheme_is_thread_count_invariant() {
    threads_axis("every_registry_scheme_is_thread_count_invariant");
}

/// `collapse` (not distributable) and `tr-ct` (the one ordered variant that
/// re-sorts its triangle stream) on both sweeps, pinned to the outputs of
/// the last commit whose ordered path listed every triangle under a mutex
/// and sorted the lot.
#[test]
fn collapse_and_ct_match_the_outputs_of_the_sorted_listing() {
    threads_axis("collapse_and_ct_match_the_outputs_of_the_sorted_listing");
}

/// Every triangle scheme and `collapse` on R-MAT with its hubs at the
/// lowest and at the highest ids, plus the kernels (triangle counts and
/// per-vertex FNVs) there.
#[test]
fn triangle_schemes_match_the_merge_kernel_on_skewed_ids() {
    threads_axis("triangle_schemes_match_the_merge_kernel_on_skewed_ids");
}

/// The chains, mapping FNVs included.
#[test]
fn chained_pipeline_is_thread_count_invariant() {
    threads_axis("chained_pipeline_is_thread_count_invariant");
}

/// The kernel cases no other test of this suite owns. Every kernel case's
/// BFS FNV covers `bfs_parallel`'s depths and reach, the Graph500 validity of
/// its tree (its parents may race between equal-depth candidates) and the
/// sequential BFS's parents.
#[test]
fn bfs_depths_are_thread_count_invariant_and_parents_stay_valid() {
    threads_axis("bfs_depths_are_thread_count_invariant_and_parents_stay_valid");
}

/// The kernels on `rmat_graph500(11, 8, 5)`.
#[test]
fn pagerank_scores_are_bit_identical_across_thread_counts() {
    threads_axis("pagerank_scores_are_bit_identical_across_thread_counts");
}

/// The kernel cases whose PageRank `(iterations, residual bits, FNV of the
/// scores' bits)` the table pins to what the four-pass sweep of commit
/// e8654ec printed (with `Rmat11`'s): a skewed graph, a sample with isolated
/// vertices (dangling mass ≠ 0), a directed graph with sinks, the degenerate
/// sizes, and inputs at the edges of the pull phase's 256-vertex windows —
/// on the raw graph and on its encoded twin.
#[test]
fn pagerank_matches_the_four_pass_sweep_to_the_last_bit() {
    threads_axis("pagerank_matches_the_four_pass_sweep_to_the_last_bit");
}

/// The kernels on a sparse graph with many components and on a directed one.
#[test]
fn connected_components_are_thread_count_invariant() {
    threads_axis("connected_components_are_thread_count_invariant");
}

/// Raw IEEE-754 bits — `==` on floats would already be strict enough for
/// these finite outputs, but bits make the "bit-identical" claim literal.
fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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

/// The whole `Summary` of ϵ-summarization — every count, the supervertex
/// assignment, the three pair lists *in their stored order*, and the
/// reconstruction — pinned to the values the hash-map implementation of
/// commit 610e50a printed, on inputs that reach every branch of the scheme:
/// merges over several iterations (R-MAT), dense superedges with `minus`
/// corrections and an internal `a == b` superedge (planted blocks), whole
/// superedge groups dropped by the ϵ budget (Watts–Strogatz at ϵ = 0.3).
/// The contract table's `summary` row cannot do this: on its graph not one merge happens.
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

/// The low-diameter decomposition under the spanner, pinned to an FNV of
/// the `assignment` that the binary-heap race of commit 3ef2dc1 printed, at
/// the small, the default and a near-forest `k`, on hub-heavy R-MAT (one
/// giant cluster from `k = 8` on), on Barabási–Albert, and on a sparse
/// Erdős–Rényi graph with isolated vertices and well over 100 components
/// (the race must start a cluster in every one of them). The spanners built
/// on it are the contract table's `spanner:k=` rows.
#[test]
fn spanner_matches_the_heap_race_and_the_hash_map_kernel() {
    use slimgraph::core::ldd::ldd_for_spanner;
    const KS: [f64; 3] = [2.0, 8.0, 128.0];
    let rmat = generators::rmat_graph500(11, 8, 5);
    let ba = generators::barabasi_albert(4_000, 4, 6);
    let sparse = generators::erdos_renyi(3_000, 3_300, 7);
    let components = cc::connected_components(&sparse);
    assert!(components.num_components > 100, "the sparse case lost its components");
    assert!(
        (0..3_000).any(|v| sparse.degree(v) == 0),
        "the sparse case lost its isolated vertices"
    );
    let cases: [(&str, &CsrGraph, [u64; 3]); 3] = [
        (
            "rmat hubs low",
            &rmat,
            [0xcc8f_57e5_ec84_ce89, 0x50f4_eb37_2bcc_4aa2, 0x9cb5_3063_05e6_c57c],
        ),
        (
            "barabasi-albert",
            &ba,
            [0xefc2_d95e_9632_938e, 0x1efa_7cdf_75c7_29a8, 0x4ea6_f7d1_6a36_05ce],
        ),
        (
            "sparse, isolated vertices",
            &sparse,
            [0xb2d6_6d04_24a4_a4c2, 0xaf33_6791_d05e_b76c, 0x144a_29b6_4337_7eee],
        ),
    ];
    for (label, g, pinned) in cases {
        let got = assert_thread_invariant(label, || {
            KS.map(|k| fnv(ldd_for_spanner(g, k, 3).assignment.iter().map(|&c| u64::from(c))))
        });
        assert_eq!(got, pinned, "`{label}` moved off the heap race's output");
    }
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
    let time_at = |threads: usize| {
        rayon::with_num_threads(threads, || {
            let _warmup = pagerank::pagerank_default(&g);
            let start = std::time::Instant::now();
            let r = pagerank::pagerank_default(&g);
            (start.elapsed(), r)
        })
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
