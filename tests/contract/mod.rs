//! The contract harness: one corpus, one pinned table, one axis per way of
//! running a case. Slim Graph promises that a result depends on the graph,
//! the spec, the parameters and the seed — never on the thread count, the
//! storage (heap or mmap), the row encoding, the rank or shard count,
//! telemetry, the session cache or the daemon. Each [`Axis`] runs a [`Case`]
//! one of those ways; [`check`] runs every case an axis accepts at 1 and 4
//! threads and compares each [`Outcome`] with the case's pin in [`TABLE`].
//! Differential testing in McKeeman's sense ("Differential testing for
//! software", Digital Technical Journal, 1998), with a pinned oracle.
//!
//! Each axis runs once, under the tests of the suite it belongs to, each
//! suite splitting the axis's cases among its tests with [`check_where`]
//! (every case an axis accepts runs in exactly one test):
//! - `Threads` (at 1, 4 and 8) in `parallel_equivalence`;
//! - `Mmap` in `storage_equivalence`, `Encoded` in `encoding_equivalence`;
//! - `Ranks` in `dist_equivalence`;
//! - `Telemetry` and `TelemetryServed` in `obs_equivalence`;
//! - `Shards`, `Session`, `Served` and `Oracle` (the sequential oracles of
//!   `tests/oracle/`, once) in `contract_equivalence`, one test each.
//!
//! The `Oracle` axis calls `crate::oracle`, so every binary that declares
//! `mod contract;` declares `mod oracle;` too. The module also holds the
//! helpers the suites share (daemon spawning, response checks, the
//! thread-invariance assertion). Each test binary uses some of them.
#![allow(dead_code)]

use crate::oracle;
use slimgraph::algos::{bfs, cc, pagerank, tc};
use slimgraph::core::{
    Pipeline, PipelineSpec, SchemeParams, SchemeRegistry, SgSession, StageCache,
};
use slimgraph::dist::{
    apply_edge_deletions, apply_vertex_removals, distributed_compress, federation_plan,
    shard_compress, ShardOutcome,
};
use slimgraph::graph::{generators, properties, EdgeList, EncodedCsr, GraphView, VertexId};
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig, Server};
use slimgraph::store::{save_sgr_with, Encoding, MmapEncoded, MmapGraph};
use slimgraph::{CompressionResult, CsrGraph, GraphCatalog};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

// --- shared helpers ----------------------------------------------------------

/// A path under this test process's scratch directory: test binaries that
/// run at the same time never truncate a file another one has mapped.
pub fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("slimgraph-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

/// A quiet daemon configuration on an ephemeral loopback port.
pub fn quiet() -> ServeConfig {
    ServeConfig { listen: "127.0.0.1:0".into(), transcript: false, ..Default::default() }
}

pub type Daemon = (String, std::thread::JoinHandle<std::io::Result<()>>);

/// Binds a daemon with `cfg` and runs it on a thread of its own.
pub fn spawn(cfg: ServeConfig) -> Daemon {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// Asserts a response succeeded and hands it back.
pub fn ok(response: &Json) -> &Json {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {}",
        response.render()
    );
    response
}

/// The stable error code of a failed response (empty when there is none).
pub fn error_code(response: &Json) -> String {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_default()
}

/// A `compress` request for `spec` on the loaded graph `graph`.
pub fn compress_request(graph: &str, spec: &str, seed: u64) -> Json {
    Client::request_for("compress")
        .with("graph", Json::str(graph))
        .with("spec", Json::str(spec))
        .with("seed", Json::u64(seed))
}

/// `spec` built against the default registry and applied to `g`: the cold
/// run every cached, served or federated answer must equal.
pub fn cold(spec: &str, g: &CsrGraph, seed: u64) -> CompressionResult {
    PipelineSpec::parse(spec)
        .expect("spec parses")
        .build(&SchemeRegistry::with_defaults())
        .expect("spec builds")
        .apply(g, seed)
        .result
}

/// FNV-1a over a word stream (the constants of `graph_digest`).
pub fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Computes `compute()` at 1 thread, then at 4 and 8, asserting all results
/// are identical. Returns the 1-thread result.
pub fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(
    label: &str,
    compute: impl Fn() -> T,
) -> T {
    let baseline = rayon::with_num_threads(1, &compute);
    for threads in [4, 8] {
        let threaded = rayon::with_num_threads(threads, &compute);
        assert_eq!(
            threaded, baseline,
            "{label}: result at {threads} threads differs from 1 thread"
        );
    }
    baseline
}

// --- corpus --------------------------------------------------------------------

/// The graphs of the corpus: the shapes the suites ran before they shared
/// one harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Graph {
    /// Erdős–Rényi plus planted triangles: no skew, every scheme has work.
    ErPlanted,
    /// The same with random weights: weights must survive every axis.
    ErPlantedWeighted,
    /// R-MAT with its hubs at the lowest ids, as Graph500 draws them.
    RmatHubsLow,
    /// The same R-MAT relabelled `v -> n-1-v`: hubs at the highest ids.
    RmatHubsHigh,
    RmatHubsLowWeighted,
    RmatHubsHighWeighted,
    /// A smaller R-MAT: one giant spanner cluster from `k = 8` on.
    Rmat11,
    /// Barabási–Albert hubs.
    Ba4000,
    /// Sparse Erdős–Rényi: isolated vertices and well over 100 components.
    Sparse,
    /// PageRank's skewed input and its `uniform:p=0.5` sample (dangling mass).
    BaPr,
    BaPrSample,
    /// Directed: 120 sinks, in-degrees from 0 upwards.
    Sinks,
    Empty,
    SingleVertex,
    /// A short, an exact and a one-over last 256-vertex pull window.
    Ba255,
    Ba256,
    Ba257,
    /// Pull windows of mixed degrees, and one of isolated vertices only.
    MixedWindows,
    /// Directed, in-degree and out-degree orders disagree.
    InOutSkewed,
    /// Directed pseudo-random arcs.
    Directed,
    /// Barabási–Albert plus planted triangles: the chains' input.
    BaPlanted,
    /// A star: `lowdeg` twice removes every vertex.
    Star,
}

impl Graph {
    fn build(self) -> CsrGraph {
        use generators::{barabasi_albert, erdos_renyi, planted_triangles, with_random_weights};
        match self {
            Graph::ErPlanted => planted_triangles(&erdos_renyi(800, 2400, 1), 600, 2),
            Graph::ErPlantedWeighted => with_random_weights(&graph(Graph::ErPlanted), 0.5, 4.5, 11),
            Graph::RmatHubsLow => generators::rmat_graph500(12, 10, 5),
            Graph::RmatHubsHigh => {
                let low = graph(Graph::RmatHubsLow);
                let n = low.num_vertices() as VertexId;
                let flipped: Vec<_> =
                    low.edge_slice().iter().map(|&(u, v)| (n - 1 - u, n - 1 - v)).collect();
                CsrGraph::from_pairs(n as usize, &flipped)
            }
            Graph::RmatHubsLowWeighted => {
                with_random_weights(&graph(Graph::RmatHubsLow), 1.0, 100.0, 6)
            }
            Graph::RmatHubsHighWeighted => {
                with_random_weights(&graph(Graph::RmatHubsHigh), 1.0, 100.0, 6)
            }
            Graph::Rmat11 => generators::rmat_graph500(11, 8, 5),
            Graph::Ba4000 => barabasi_albert(4_000, 4, 6),
            Graph::Sparse => erdos_renyi(3_000, 3_300, 7),
            Graph::BaPr => barabasi_albert(4_000, 4, 5),
            Graph::BaPrSample => cold("uniform:p=0.5", &graph(Graph::BaPr), 3).graph,
            Graph::Sinks => {
                // v points at 3v+1 and 7v+2 (mod 600) unless v is a multiple of 5.
                let arcs = (0..600u32).filter(|v| v % 5 != 0).flat_map(|v| {
                    [(v, (3 * v + 1) % 600), (v, (7 * v + 2) % 600)]
                        .into_iter()
                        .filter(|&(u, w)| u != w)
                });
                CsrGraph::from_edge_list_directed(EdgeList::from_pairs(600, arcs))
            }
            Graph::Empty => CsrGraph::from_pairs(0, &[]),
            Graph::SingleVertex => CsrGraph::from_pairs(1, &[]),
            Graph::Ba255 => barabasi_albert(255, 3, 255),
            Graph::Ba256 => barabasi_albert(256, 3, 256),
            Graph::Ba257 => barabasi_albert(257, 3, 257),
            Graph::MixedWindows => mixed_degree_windows(),
            Graph::InOutSkewed => in_out_skewed(),
            Graph::Directed => directed(),
            Graph::BaPlanted => planted_triangles(&barabasi_albert(800, 4, 21), 600, 22),
            Graph::Star => generators::star(6),
        }
    }
}

/// The corpus graph `g`, built once per process.
pub fn graph(g: Graph) -> Arc<CsrGraph> {
    static BUILT: OnceLock<Mutex<HashMap<Graph, Arc<CsrGraph>>>> = OnceLock::new();
    let built = BUILT.get_or_init(Default::default);
    if let Some(hit) = built.lock().unwrap_or_else(|e| e.into_inner()).get(&g) {
        return Arc::clone(hit);
    }
    // Built outside the lock: a graph may be derived from another one.
    let fresh = Arc::new(g.build());
    let mut built = built.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(built.entry(g).or_insert(fresh))
}

/// `g` written once per process as `.sgr` — raw (v1) or encoded (v3).
pub fn sgr_file(g: Graph, encoded: bool) -> String {
    static WRITTEN: OnceLock<Mutex<HashMap<(Graph, bool), String>>> = OnceLock::new();
    let mut written =
        WRITTEN.get_or_init(Default::default).lock().unwrap_or_else(|e| e.into_inner());
    let path = written.entry((g, encoded)).or_insert_with(|| {
        let path = tmp(&format!("contract-{g:?}{}.sgr", if encoded { "-v3" } else { "" }));
        let encoding = if encoded { Encoding::Delta } else { Encoding::Raw };
        save_sgr_with(&graph(g), &path, encoding).expect("save");
        path
    });
    path.clone()
}

/// `g` mapped zero-copy from its v1 `.sgr`: every section borrowed.
pub fn mapped(g: Graph) -> CsrGraph {
    let mapped = MmapGraph::open(sgr_file(g, false)).expect("mmap load");
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    assert!(mapped.is_zero_copy(), "the mmap loader must borrow every section");
    mapped.into_graph()
}

/// The v3 file at `path` decoded onto the heap and mapped zero-copy.
pub fn encoded_twins(path: &str) -> [(&'static str, EncodedCsr); 2] {
    let heap = slimgraph::store::load_sgr_encoded(path).expect("heap v3 load");
    let mapped = MmapEncoded::open(path).expect("mmap v3 load");
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    assert!(mapped.is_zero_copy(), "the v3 mmap loader must borrow the byte sections");
    [("heap", heap), ("mmap", mapped.into_encoded())]
}

/// Pull windows are 256 ids wide. Three full windows and a five-vertex
/// tail: windows 0 and 2 mix degrees from 0 upwards (every multiple of 16
/// is isolated), window 1 holds isolated vertices only, and the tail hangs
/// off vertex 1.
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

/// Deterministic pseudo-random arcs on 900 vertices; duplicates collapse.
pub fn directed() -> CsrGraph {
    let n = 900u32;
    let mut x = 0x9e37_79b9u64;
    let mut pairs = Vec::new();
    for _ in 0..5000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (x >> 33) as u32 % n;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (x >> 33) as u32 % n;
        if u != v {
            pairs.push((u, v));
        }
    }
    CsrGraph::from_edge_list_directed(EdgeList::from_pairs(n as usize, pairs))
}

/// One unit of work: `spec` under the base `params` (`key=value` pairs
/// joined by `:`) at `seed` on `graph`; the empty spec [`KERNELS`] runs the
/// stage-2 kernels on the graph itself instead.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub graph: Graph,
    pub spec: &'static str,
    pub params: &'static str,
    pub seed: u64,
}

/// The spec of a kernel case.
pub const KERNELS: &str = "";

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.spec {
            KERNELS => write!(f, "kernels on {:?}", self.graph),
            spec => {
                write!(
                    f,
                    "`{spec}` on {:?} (seed {}, base `{}`)",
                    self.graph, self.seed, self.params
                )
            }
        }
    }
}

impl Case {
    /// Whether the case runs the kernels rather than a spec.
    pub fn is_kernels(&self) -> bool {
        self.spec == KERNELS
    }

    /// Whether the spec chains more than one stage.
    pub fn is_chain(&self) -> bool {
        self.spec.contains(',')
    }

    fn base(&self) -> SchemeParams {
        let mut base = SchemeParams::new();
        for pair in self.params.split(':').filter(|p| !p.is_empty()) {
            base.parse_assignment(pair).expect("a key=value pair");
        }
        base
    }

    /// The spec with the base bag folded into each stage.
    fn resolved(&self) -> PipelineSpec {
        let spec = PipelineSpec::parse(self.spec).expect("spec parses");
        spec.resolve(&SchemeRegistry::with_defaults(), &self.base()).expect("spec resolves")
    }

    /// The scheme of a one-stage case.
    fn scheme(&self) -> Option<Box<dyn slimgraph::CompressionScheme>> {
        let resolved = self.resolved();
        let [stage] = resolved.stages.as_slice() else { return None };
        Some(SchemeRegistry::with_defaults().create(&stage.name, &stage.params).expect("builds"))
    }

    fn direct(&self, g: &CsrGraph) -> Outcome {
        if self.spec == KERNELS {
            return kernels(g, g);
        }
        let pipeline = self.resolved().build(&SchemeRegistry::with_defaults()).expect("builds");
        let r = pipeline.apply(g, self.seed).result;
        outcome(&r.graph, r.vertex_mapping.as_deref())
    }
}

// --- outcomes ------------------------------------------------------------------

/// Everything a case's answer is compared by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `(n', m', graph_digest)` of the compressed graph — the digest covers
    /// every edge and every weight's bits — and an FNV of the vertex mapping
    /// (of `[]` when the chain removes no vertex; `None` from an axis that
    /// cannot see the mapping).
    Compress { graph: (usize, usize, u64), mapping: Option<u64> },
    /// `(iterations, residual bits, FNV of the score bits)` of PageRank, an
    /// FNV of the CC labels and count, of `bfs_parallel`'s depths, reach and
    /// tree validity plus the sequential BFS parents from the highest-degree
    /// vertex, `(count, FNV per vertex)` of the triangles (undirected only)
    /// and an FNV of the degree stats (min, max, mean bits, isolated, leaves).
    Kernels { pagerank: (usize, u64, u64), cc: u64, bfs: u64, triangles: (u64, u64), degrees: u64 },
}

/// The mapping FNV of a chain that removes no vertex.
const NO_MAPPING: u64 = 0xcbf2_9ce4_8422_2325;

const fn c(n: usize, m: usize, digest: u64, mapping: u64) -> Outcome {
    Outcome::Compress { graph: (n, m, digest), mapping: Some(mapping) }
}

const fn k(
    pagerank: (usize, u64, u64),
    cc: u64,
    bfs: u64,
    triangles: (u64, u64),
    degrees: u64,
) -> Outcome {
    Outcome::Kernels { pagerank, cc, bfs, triangles, degrees }
}

/// The compress outcome of `g`, reached through `mapping` (`None`: no vertex
/// removed).
pub fn outcome(g: &CsrGraph, mapping: Option<&[Option<VertexId>]>) -> Outcome {
    let words = mapping.unwrap_or_default().iter().map(|v| v.map_or(u64::MAX, u64::from));
    Outcome::Compress {
        graph: (g.num_vertices(), g.num_edges(), graph_digest(g)),
        mapping: Some(fnv(words)),
    }
}

impl Outcome {
    /// Whether `self`, from an axis, agrees with `pin` on all it can see.
    fn agrees_with(self, pin: Outcome) -> bool {
        match (self, pin) {
            (Outcome::Compress { graph, mapping: None }, Outcome::Compress { graph: p, .. }) => {
                graph == p
            }
            _ => self == pin,
        }
    }
}

/// The kernels over `view`; `csr` is the same graph in raw form, for the
/// checks only a raw graph offers (the BFS tree validator, per-vertex
/// triangle counts).
fn kernels<G: GraphView>(view: &G, csr: &CsrGraph) -> Outcome {
    let pr = pagerank::pagerank_default(view);
    let cc = cc::connected_components(view);
    let n = view.num_vertices();
    let bfs = match (0..n as VertexId).max_by_key(|&v| view.degree(v)) {
        None => fnv(std::iter::empty()),
        Some(root) => {
            let par = bfs::bfs_parallel(view, root);
            let valid = bfs::validate_bfs_tree(csr, root, &par);
            let seq = bfs::bfs(view, root).parent;
            let depths = par.depth.iter().map(|&d| u64::from(d));
            let tail = [par.reached as u64, u64::from(valid)];
            fnv(depths.chain(tail).chain(seq.iter().map(|&p| u64::from(p))))
        }
    };
    let triangles = if view.is_directed() {
        (0, 0)
    } else {
        (tc::count_triangles(view), fnv(tc::triangles_per_vertex(csr).into_iter()))
    };
    let labels = cc.labels.iter().map(|&l| u64::from(l));
    let d = properties::degree_stats(view);
    let degrees =
        [d.min as u64, d.max as u64, d.mean.to_bits(), d.isolated as u64, d.leaves as u64];
    Outcome::Kernels {
        pagerank: (
            pr.iterations,
            pr.residual.to_bits(),
            fnv(pr.scores.iter().map(|x| x.to_bits())),
        ),
        cc: fnv(labels.chain([cc.num_components as u64])),
        bfs,
        triangles,
        degrees: fnv(degrees.into_iter()),
    }
}

// --- the pinned table ----------------------------------------------------------

/// Cases that share a graph, a base bag and a seed, each with its pinned
/// outcome.
pub struct Group {
    pub graph: Graph,
    pub params: &'static str,
    pub seed: u64,
    pub pins: &'static [(&'static str, Outcome)],
}

/// Every case with its pinned outcome.
fn corpus() -> impl Iterator<Item = (Case, Outcome)> {
    TABLE.iter().flat_map(|g| {
        g.pins.iter().map(|&(spec, pin)| {
            (Case { graph: g.graph, spec, params: g.params, seed: g.seed }, pin)
        })
    })
}

/// The one pinned table. The `(n', m', digest)` of the `ErPlanted` sweep
/// (commit a0d9225), of the R-MAT triangle rows with their triangle counts
/// and per-vertex FNVs (commit e4ed0f7), of the `spanner:k=` rows (commit
/// 3ef2dc1) and PageRank's `(iterations, residual, scores)` on every
/// kernel row it had (commit e8654ec and later) are the values the thread-invariance
/// suite pinned, moved verbatim; the other values were first printed by
/// this harness. A pin that moves has found a bug: fix the code, never the
/// pin, unless the output was meant to change.
#[rustfmt::skip]
pub const TABLE: &[Group] = &[
    Group { graph: Graph::ErPlanted, params: "p=0.5:k=8:epsilon=0.05", seed: 3, pins: &[
        ("collapse", c(209, 451, 0x84e1_bec4_a2a3_ff4e, 0x78b8_7994_68a5_6f6d)),
        ("cut", c(800, 4162, 0x7c17_6baa_c468_d6fd, NO_MAPPING)),
        ("lowdeg", c(799, 4172, 0x7c34_9554_0b8a_2614, 0x1f10_27bd_6efa_9b07)),
        ("spanner", c(800, 928, 0xe5b0_259c_8632_dd58, NO_MAPPING)),
        ("spectral", c(800, 1629, 0xfc5d_d059_fab8_7e22, NO_MAPPING)),
        ("summary", c(800, 3965, 0x04eb_d29c_38b0_6145, NO_MAPPING)),
        ("tr", c(800, 3786, 0x4dee_b5b2_a79d_f16a, NO_MAPPING)),
        ("tr-ct", c(800, 3778, 0x80ad_14fa_a98b_898b, NO_MAPPING)),
        ("tr-eo", c(800, 3838, 0x761f_8977_45ab_3c86, NO_MAPPING)),
        ("tr-mw", c(800, 3838, 0xe941_59a6_3f6d_f585, NO_MAPPING)),
        ("uniform", c(800, 2122, 0xfbfc_e6a2_df29_bc0e, NO_MAPPING)),
        (KERNELS, k((26, 0x3e0c_8f3e_5450_0000, 0xf7fc_a633_9c84_ea33),
                    0x1ce1_a727_b9bc_d9ac, 0x0025_db13_0a69_7e24, (777, 0x229a_7e17_8072_6fae),
                    0x0ac1_083a_643c_ad18)),
    ]},
    Group { graph: Graph::ErPlanted, params: "p=0.5", seed: 21, pins: &[
        ("spanner,lowdeg,uniform", c(400, 300, 0x8466_fef4_537e_025f, 0x678d_20b3_45f8_a62d)),
    ]},
    Group { graph: Graph::ErPlantedWeighted, params: "p=0.6:k=3:reweight=true", seed: 45, pins: &[
        ("collapse", c(168, 299, 0x464c_db21_57e4_db46, 0x2b6c_44e7_afbf_424b)),
        ("cut", c(800, 2283, 0x9af8_41b1_705a_6ecb, NO_MAPPING)),
        ("lowdeg", c(799, 4172, 0xb23c_fb6f_ea80_83ee, 0x1f10_27bd_6efa_9b07)),
        ("spanner", c(800, 1107, 0xa516_6fcb_6009_567b, NO_MAPPING)),
        ("spectral", c(800, 1920, 0xd48b_3dff_db15_203a, NO_MAPPING)),
        ("summary", c(800, 3756, 0x2455_00f8_1560_5c57, NO_MAPPING)),
        ("tr", c(800, 3709, 0x49a4_cdd3_be4e_6944, NO_MAPPING)),
        ("tr-ct", c(800, 3696, 0xd490_26d2_d35b_dc23, NO_MAPPING)),
        ("tr-eo", c(800, 3760, 0x3f8f_2799_dda3_d087, NO_MAPPING)),
        ("tr-mw", c(800, 3760, 0x7342_f70c_a14f_e335, NO_MAPPING)),
        ("uniform", c(800, 1645, 0x12a1_6a61_3ad3_654f, NO_MAPPING)),
    ]},
    Group { graph: Graph::RmatHubsLow, params: "p=0.5", seed: 3, pins: &[
        ("tr", c(4096, 10124, 0x8591_d537_ee9d_0169, NO_MAPPING)),
        ("tr:x=2", c(4096, 6439, 0x665b_96a7_557b_3f24, NO_MAPPING)),
        ("tr-eo", c(4096, 26726, 0xaeee_9026_54d9_a429, NO_MAPPING)),
        ("tr-ct", c(4096, 5686, 0x544c_1cb4_cbde_edea, NO_MAPPING)),
        ("collapse", c(2145, 1157, 0xaa20_6700_12ac_ff81, 0x7b30_897e_b1db_023f)),
        (KERNELS, k((29, 0x3e0c_716d_a00c_0000, 0x0391_6c26_b789_c571),
                    0x3df3_1c56_1f7b_86f4, 0x85e8_5913_4c4d_eba4, (211_387, 0xbcfe_7be6_056a_e5fe),
                    0x43db_bb02_c092_8087)),
    ]},
    Group { graph: Graph::RmatHubsLowWeighted, params: "p=0.5", seed: 3, pins: &[
        ("tr-mw", c(4096, 26726, 0x776f_2af6_9214_c66d, NO_MAPPING)),
    ]},
    Group { graph: Graph::RmatHubsHigh, params: "p=0.5", seed: 3, pins: &[
        ("tr", c(4096, 10161, 0x7be7_a3a2_e998_b218, NO_MAPPING)),
        ("tr:x=2", c(4096, 6512, 0x1c43_8f69_587d_9c04, NO_MAPPING)),
        ("tr-eo", c(4096, 25546, 0x29a3_4bc1_41cc_0773, NO_MAPPING)),
        ("tr-ct", c(4096, 5754, 0xb517_2afe_b53e_e34c, NO_MAPPING)),
        ("collapse", c(2154, 1169, 0x0e60_c574_7841_0fe9, 0x9489_71f2_7897_e642)),
        (KERNELS, k((29, 0x3e0c_716d_7a68_0000, 0x0f29_d11a_3e1f_9e06),
                    0x44f5_3ade_0f80_c8ea, 0x34f7_be66_9ad7_d5d7, (211_387, 0x5218_ff02_10c1_14e4),
                    0x43db_bb02_c092_8087)),
    ]},
    Group { graph: Graph::RmatHubsHighWeighted, params: "p=0.5", seed: 3, pins: &[
        ("tr-mw", c(4096, 25546, 0x7a05_ef94_765c_7795, NO_MAPPING)),
    ]},
    Group { graph: Graph::Rmat11, params: "", seed: 3, pins: &[
        ("spanner:k=2", c(2048, 2927, 0x82ea_a074_dc6a_3ce4, NO_MAPPING)),
        ("spanner:k=8", c(2048, 1622, 0xdd5d_2618_78ce_14b1, NO_MAPPING)),
        ("spanner:k=128", c(2048, 1525, 0x9b77_578f_48da_effe, NO_MAPPING)),
        (KERNELS, k((32, 0x3e0a_517f_1dfc_0000, 0xbe85_032b_1692_2db9),
                    0xaa76_8618_262b_02fd, 0x05fc_a4d2_aadd_6fb7, (58_384, 0x94b1_3d33_e843_2c6f),
                    0x8e0d_530e_dbc1_7d4c)),
    ]},
    Group { graph: Graph::Ba4000, params: "", seed: 3, pins: &[
        ("spanner:k=2", c(4000, 14717, 0xf61c_76e4_db4f_3bdc, NO_MAPPING)),
        ("spanner:k=8", c(4000, 5216, 0xb006_f0f3_ffe6_803b, NO_MAPPING)),
        ("spanner:k=128", c(4000, 4124, 0x6c05_c4b1_a7c3_dcb8, NO_MAPPING)),
        (KERNELS, k((31, 0x3e05_c8d5_f184_0000, 0x34c8_c11c_83e9_ad05),
                    0x2456_ae2e_837e_e7ac, 0xe43f_6cdd_16a4_cfd8, (1010, 0xd3fb_b163_a789_66bd),
                    0xd77a_ce53_58b4_1169)),
    ]},
    Group { graph: Graph::Sparse, params: "", seed: 3, pins: &[
        ("spanner:k=2", c(3000, 3299, 0x81c0_0619_c445_c4c4, NO_MAPPING)),
        ("spanner:k=8", c(3000, 3286, 0x74d7_f872_81fd_da5d, NO_MAPPING)),
        ("spanner:k=128", c(3000, 2885, 0x8f0b_3ecf_9762_7051, NO_MAPPING)),
        (KERNELS, k((100, 0x3e11_2384_cb4e_0000, 0x3241_5ad5_efda_9b68),
                    0x3ccd_c25c_a0da_2737, 0xe3eb_fba3_d166_5284, (1, 0x0bdb_1bb0_1254_3d42),
                    0xd1db_8764_3355_f8b9)),
    ]},
    Group { graph: Graph::BaPr, params: "", seed: 0, pins: &[
        (KERNELS, k((30, 0x3e0f_2616_cee6_0000, 0xed0c_4a05_e7f5_95df),
                    0x2456_ae2e_837e_e7ac, 0x94e5_7439_a041_050e, (908, 0x0f36_c87d_3416_5f45),
                    0x9dda_f55d_046e_ea0d)),
    ]},
    Group { graph: Graph::BaPrSample, params: "", seed: 0, pins: &[
        (KERNELS, k((85, 0x3e10_c155_de21_0000, 0x40b7_a263_bb28_426e),
                    0x089d_5f21_689c_4365, 0xbc56_02fc_ff64_bbfd, (120, 0x5464_1826_02f0_2f35),
                    0x708a_e87e_f93a_d04f)),
    ]},
    Group { graph: Graph::Sinks, params: "", seed: 0, pins: &[
        (KERNELS, k((24, 0x3dff_5b81_2680_0000, 0x885c_96b0_5efd_e22d),
                    0x73dc_d47b_6c26_36cc, 0x7769_3914_8e4d_c75b, (0, 0),
                    0xc24c_9d50_0c10_6717)),
    ]},
    Group { graph: Graph::Empty, params: "", seed: 0, pins: &[
        (KERNELS, k((0, 0, 0xcbf2_9ce4_8422_2325),
                    0xaf63_bd4c_8601_b7df, 0xcbf2_9ce4_8422_2325, (0, 0xcbf2_9ce4_8422_2325),
                    0xe4bc_4fd9_252b_e94f)),
    ]},
    Group { graph: Graph::SingleVertex, params: "", seed: 0, pins: &[
        (KERNELS, k((1, 0, 0xc293_bd4c_8601_b7df),
                    0x0832_8707_b4eb_6e3a, 0x2be2_dec3_6717_05da, (0, 0xaf63_bd4c_8601_b7df),
                    0xe4b8_e9d9_2529_0626)),
    ]},
    Group { graph: Graph::Ba255, params: "", seed: 0, pins: &[
        (KERNELS, k((36, 0x3e0b_3b93_3040_0000, 0x9f8f_f93e_488a_6267),
                    0xd80a_c558_736b_b572, 0x1fa2_0a32_1640_25c5, (145, 0x371d_ffb9_01bb_4f64),
                    0xd6fe_9ab9_40d4_e0a0)),
    ]},
    Group { graph: Graph::Ba256, params: "", seed: 0, pins: &[
        (KERNELS, k((39, 0x3e10_20b8_5390_0000, 0x4127_2dd0_f2c7_a99c),
                    0x8606_2c4c_2008_322c, 0x5cf6_4590_e363_e1d6, (119, 0x48bf_0c18_e8e2_61a4),
                    0x0ab6_efce_f649_9267)),
    ]},
    Group { graph: Graph::Ba257, params: "", seed: 0, pins: &[
        (KERNELS, k((39, 0x3e0e_5900_4360_0000, 0xe153_2867_c7e5_0744),
                    0xc4b2_d65a_6df0_223a, 0x4f84_7449_b4b7_813a, (173, 0xe905_1e19_e264_ae9a),
                    0x042d_6889_8651_163b)),
    ]},
    Group { graph: Graph::MixedWindows, params: "", seed: 0, pins: &[
        (KERNELS, k((64, 0x3e0d_9581_25e0_0000, 0xecf3_3477_e384_815e),
                    0xf0af_3965_04db_d21e, 0xbd13_600f_a2ea_0dc0, (81_833, 0x7973_6c1a_6f5e_b4de),
                    0xba00_4443_adb2_fd98)),
    ]},
    Group { graph: Graph::InOutSkewed, params: "", seed: 0, pins: &[
        (KERNELS, k((29, 0x3e08_5c66_bf90_0000, 0x4cd7_85a4_49d2_8432),
                    0xd42d_71c0_5a9a_8f59, 0x2fd3_feb4_e938_9c1b, (0, 0),
                    0xb1b8_8a6c_d598_76a2)),
    ]},
    Group { graph: Graph::Directed, params: "", seed: 0, pins: &[
        (KERNELS, k((23, 0x3e05_92d7_cd00_0000, 0xb18b_cd25_31c8_b056),
                    0xcd76_7d26_4658_b99c, 0xf53e_d891_0d99_5964, (0, 0),
                    0xd20f_cf79_2ff0_4825)),
    ]},
    Group { graph: Graph::BaPlanted, params: "", seed: 7, pins: &[
        ("spanner:k=4,lowdeg,uniform:p=0.5", c(471, 442, 0x11b7_3a6b_a0a1_f5fc, 0x4293_8b47_defa_4407)),
        ("spanner:k=4,lowdeg,cut:k=2", c(471, 806, 0x1b91_606f_cd66_0eaf, 0x4293_8b47_defa_4407)),
        ("spanner:k=4,lowdeg,uniform:p=0.6", c(471, 355, 0xd65b_aa8c_f858_df59, 0x4293_8b47_defa_4407)),
    ]},
    Group { graph: Graph::BaPlanted, params: "", seed: 9, pins: &[
        ("spectral:p=0.4:reweight=true", c(800, 1408, 0x7fdb_b315_fe57_7e38, NO_MAPPING)),
    ]},
    Group { graph: Graph::Star, params: "", seed: 1, pins: &[
        ("lowdeg,lowdeg", c(0, 0, 0xa8c7_f832_281a_39c5, 0x3f21_140a_eb90_6c6f)),
        ("lowdeg", c(1, 0, 0x89cd_3129_1d2a_efa4, 0xb2c0_b5e3_aa63_c3bc)),
    ]},
];

// --- axes ----------------------------------------------------------------------

/// One way of running a case. A new way of running the engine is one more
/// arm here, and every case it accepts runs through it.
#[derive(Clone, Copy, Debug)]
pub enum Axis {
    /// `Pipeline::apply` on the heap graph at `t` threads, or the kernels on
    /// it and (up to [`TWIN_EDGES`] edges) on its encoded twin built in
    /// memory.
    Threads(usize),
    /// The graph mapped zero-copy from a v1 `.sgr`: every section borrowed.
    Mmap,
    /// A v3 `.sgr` decoded on the heap and mapped: the kernels read both
    /// twins' encoded rows, a scheme (which reads only raw graphs) the mapped
    /// twin decoded.
    Encoded,
    /// `distributed_compress` at `r` ranks (one-stage cases with a plan).
    Ranks(usize),
    /// The union of `s` federation shards (one-stage federable cases).
    Shards(usize),
    /// Every telemetry flag flipped from its default — metrics off, tracing
    /// and allocation profiling on — for the kernels or a session run.
    Telemetry,
    /// The same flags flipped for a daemon's `compress`.
    TelemetryServed,
    /// A session run, cold and then served from its stage cache.
    Session,
    /// An in-process daemon's `compress`, cold and then from its cache.
    Served,
    /// The sequential oracles of `tests/oracle/`, stage by stage (every
    /// compress case none of whose stages is in
    /// [`oracle::WITHOUT_ORACLE`], on graphs up to [`ORACLE_EDGES`]). No
    /// oracle uses the pool: it runs once.
    Oracle,
}

impl Axis {
    fn accepts(self, case: &Case) -> bool {
        let compress = case.spec != KERNELS;
        let edges = graph(case.graph).num_edges();
        match self {
            Axis::Threads(_) => true,
            Axis::Oracle => {
                let stages = if compress { case.resolved().stages } else { Vec::new() };
                compress
                    && edges <= ORACLE_EDGES
                    && stages.iter().all(|s| !oracle::WITHOUT_ORACLE.contains(&&*s.name))
            }
            // Larger graphs pin values: the thread axis alone runs them.
            _ if edges > AXIS_EDGES => false,
            Axis::Mmap | Axis::Encoded | Axis::Telemetry => true,
            Axis::Session | Axis::Served | Axis::TelemetryServed => compress,
            Axis::Ranks(_) => {
                compress && case.scheme().is_some_and(|s| s.plan(&graph(case.graph)).is_some())
            }
            Axis::Shards(_) => {
                compress
                    && case
                        .scheme()
                        .is_some_and(|s| federation_plan(&graph(case.graph), s.as_ref()).is_ok())
            }
        }
    }

    /// The outcomes of `case` on this axis, each with what produced it.
    fn run(self, case: &Case) -> Vec<(&'static str, Outcome)> {
        let g = graph(case.graph);
        match self {
            Axis::Threads(_) => match case.spec {
                KERNELS if g.num_edges() <= TWIN_EDGES => vec![
                    ("direct", kernels(g.as_ref(), &g)),
                    ("encoded", kernels(&EncodedCsr::from_graph(&g), &g)),
                ],
                _ => vec![("direct", case.direct(&g))],
            },
            Axis::Mmap => vec![("mmap", case.direct(&mapped(case.graph)))],
            Axis::Encoded => {
                let twins = encoded_twins(&sgr_file(case.graph, true));
                match case.spec {
                    KERNELS => twins.map(|(label, e)| (label, kernels(&e, &e.to_csr()))).to_vec(),
                    // Both twins decode the same bytes: the mapped one suffices.
                    _ => vec![("mmap", case.direct(&twins[1].1.to_csr()))],
                }
            }
            Axis::Ranks(r) => {
                let scheme = case.scheme().expect("one stage");
                let dist = distributed_compress(&g, scheme.as_ref(), r, case.seed).expect("runs");
                vec![("ranks", outcome(&dist.result.graph, dist.result.vertex_mapping.as_deref()))]
            }
            Axis::Shards(s) => {
                let scheme = case.scheme().expect("one stage");
                vec![("union", shard_union(&g, scheme.as_ref(), s, case.seed))]
            }
            Axis::Telemetry => match case.spec {
                KERNELS => vec![("kernels", kernels(g.as_ref(), &g))],
                _ => vec![("session", session_runs(case, &g, 1)[0])],
            },
            Axis::TelemetryServed => vec![("served", served_runs(case, 1)[0])],
            Axis::Session => {
                let [cold, hit] = session_runs(case, &g, 2)[..] else { unreachable!() };
                vec![("cold", cold), ("hit", hit)]
            }
            Axis::Served => {
                let [cold, hit] = served_runs(case, 2)[..] else { unreachable!() };
                vec![("cold", cold), ("hit", hit)]
            }
            Axis::Oracle => vec![("oracle", oracle_run(case, &g))],
        }
    }
}

/// Flips every telemetry flag from its default while alive — for a whole
/// pass of [`Axis::Telemetry`] or [`Axis::TelemetryServed`] — and restores the defaults (metrics on,
/// tracing and profiling off) when dropped.
struct TelemetryFlipped;

impl TelemetryFlipped {
    fn new() -> Self {
        slimgraph::obs::set_metrics_enabled(false);
        slimgraph::obs::trace::set_trace_enabled(true);
        slimgraph::obs::alloc::set_profiling(true);
        TelemetryFlipped
    }
}

impl Drop for TelemetryFlipped {
    fn drop(&mut self) {
        slimgraph::obs::set_metrics_enabled(true);
        slimgraph::obs::trace::set_trace_enabled(false);
        slimgraph::obs::alloc::set_profiling(false);
        slimgraph::obs::trace::reset();
    }
}

/// The outcome of the union of `shards` federation shards of `scheme` on
/// `g`: their edge deletions applied, or their vertex removals (with the
/// old→new map, even when no vertex goes).
pub fn shard_union(
    g: &CsrGraph,
    scheme: &dyn slimgraph::CompressionScheme,
    shards: usize,
    seed: u64,
) -> Outcome {
    let (mut edges, mut vertices) = (Vec::new(), None::<Vec<VertexId>>);
    for shard in 0..shards {
        match shard_compress(g, scheme, shard, shards, seed).expect("runs") {
            ShardOutcome::Edges(ids) => edges.extend(ids),
            ShardOutcome::Vertices(ids) => vertices.get_or_insert_default().extend(ids),
        }
    }
    let Some(vertices) = vertices else { return outcome(&apply_edge_deletions(g, &edges), None) };
    let (merged, mapping) = apply_vertex_removals(g, &vertices);
    outcome(&merged, Some(&mapping))
}

/// `case` through the oracles, stage by stage: stage `i` at
/// `Pipeline::stage_seed`, with the parameters its registry scheme resolved
/// to, the stages' vertex maps composed as the pipeline composes them.
fn oracle_run(case: &Case, g: &CsrGraph) -> Outcome {
    let registry = SchemeRegistry::with_defaults();
    let (mut out, mut mapping) = (g.clone(), None::<oracle::Mapping>);
    for (index, stage) in case.resolved().stages.iter().enumerate() {
        let params = registry.create(&stage.name, &stage.params).expect("builds").params();
        let seed = Pipeline::stage_seed(case.seed, index);
        let (next, map) = oracle::scheme(&out, &stage.name, &params, seed);
        mapping = match (mapping, map) {
            (so_far, None) => so_far,
            (None, map) => map,
            (Some(first), Some(map)) => {
                Some(first.iter().map(|old| old.and_then(|mid| map[mid as usize])).collect())
            }
        };
        out = next;
    }
    outcome(&out, mapping.as_deref())
}

/// `runs` session runs of `case` in one fresh session; every run after the
/// first must be served from the cache whole.
fn session_runs(case: &Case, g: &Arc<CsrGraph>, runs: usize) -> Vec<Outcome> {
    let catalog = Arc::new(GraphCatalog::new());
    let handle = catalog.insert_arc("g", Arc::clone(g), "corpus").expect("fresh name");
    let registry = Arc::new(SchemeRegistry::with_defaults());
    let session = SgSession::with_cache(catalog, registry, Arc::new(StageCache::new()));
    let spec = PipelineSpec::parse(case.spec).expect("spec parses");
    (0..runs)
        .map(|i| {
            let run = session.run_with_base(&handle, &spec, &case.base(), case.seed).expect("runs");
            assert!(i == 0 || run.stages_executed() == 0, "{case}: run {i} missed the cache");
            outcome(&run.graph, run.vertex_mapping.as_deref().map(Vec::as_slice))
        })
        .collect()
}

/// `runs` compresses of `case` by one in-process daemon: cold, then from the
/// daemon's stage cache. The response carries no mapping.
fn served_runs(case: &Case, runs: usize) -> Vec<Outcome> {
    let (addr, daemon) = spawn(quiet());
    let mut client = Client::connect(&addr).expect("connect");
    let load = Client::request_for("load")
        .with("name", Json::str("g"))
        .with("path", Json::str(sgr_file(case.graph, false)));
    ok(&client.request(&load).expect("load"));
    let spec = case.resolved().render();
    let outcomes = (0..runs)
        .map(|_| {
            let request = compress_request("g", &spec, case.seed);
            let response = client.request(&request).expect("compress");
            let count = |key| ok(&response).get(key).and_then(Json::as_u64).expect(key) as usize;
            let checksum = response.get("checksum").and_then(Json::as_str).expect("checksum");
            let digest = u64::from_str_radix(checksum, 16).expect("a hex digest");
            Outcome::Compress { graph: (count("vertices"), count("edges"), digest), mapping: None }
        })
        .collect();
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
    outcomes
}

/// The most edges a graph may have for any axis but [`Axis::Threads`] and
/// [`Axis::Oracle`].
const AXIS_EDGES: usize = 5_000;

/// The most edges a graph may have for [`Axis::Oracle`], which runs each
/// case once and sequentially: the R-MAT hub graphs' rows take ≈ 3 s in a
/// debug build.
const ORACLE_EDGES: usize = 100_000;

/// The most edges a kernel case's graph may have for [`Axis::Threads`] to
/// run the kernels on its encoded twin too: all but the two R-MAT hub
/// graphs, whose encoded triangle and PageRank passes would double the
/// thread axis's cost.
const TWIN_EDGES: usize = 20_000;

/// Thread counts every axis but [`Axis::Threads`] and [`Axis::Oracle`] runs
/// at.
const THREADS: [usize; 2] = [1, 4];

/// Runs every case `axis` accepts at each of [`THREADS`] (an
/// [`Axis::Threads`] axis at its own count, [`Axis::Oracle`] once) and
/// asserts each outcome agrees with the case's pin; a failure names the
/// case, the axis and the thread count.
pub fn check(axis: Axis) {
    check_where(axis, |_| true);
}

/// [`check`] over the cases `rows` selects: a suite splits an axis among its
/// tests. Panics if the selection compares nothing.
pub fn check_where(axis: Axis, rows: impl Fn(&Case) -> bool) {
    let cases: Vec<(Case, Outcome)> =
        corpus().filter(|(case, _)| rows(case) && axis.accepts(case)).collect();
    let counts: &[usize] = match axis {
        Axis::Threads(t) => &[t],
        Axis::Oracle => &[1],
        _ => &THREADS,
    };
    let mut compared = 0;
    for &t in counts {
        let outcomes = rayon::with_num_threads(t, || {
            let flips = matches!(axis, Axis::Telemetry | Axis::TelemetryServed);
            let _flipped = flips.then(TelemetryFlipped::new);
            run_all(axis, &cases)
        });
        for ((case, pin), outcomes) in cases.iter().zip(outcomes) {
            for (variant, got) in outcomes {
                assert!(
                    got.agrees_with(*pin),
                    "{case} on axis {axis:?} ({variant}) at {t} threads moved off its pin:\n \
                     got {got:?}\n want {pin:?}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "axis {axis:?}: the selection compared no outcome");
}

/// Every case of the table `axis` accepts.
pub fn accepted(axis: Axis) -> Vec<Case> {
    corpus().map(|(case, _)| case).filter(|case| axis.accepts(case)).collect()
}

/// Runs the cases on a few threads of the harness's own. The rayon count
/// holds for every one of them, so at one rayon thread each case still runs
/// sequentially — on its own core.
fn run_all(axis: Axis, cases: &[(Case, Outcome)]) -> Vec<Vec<(&'static str, Outcome)>> {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<(&'static str, Outcome)>>> =
        cases.iter().map(|_| Mutex::default()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((case, _)) = cases.get(i) else { break };
                *slots[i].lock().expect("one writer") = axis.run(case);
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("one writer")).collect()
}
