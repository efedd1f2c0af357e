//! Heap-loaded vs mmap-loaded equivalence: a graph served zero-copy out of
//! an `.sgr` mapping must be indistinguishable — bit for bit — from the
//! same graph decoded onto the heap, for every registered compression
//! scheme, for pipelines, and for the stage-2 algorithms, at any thread
//! count.
//!
//! This is the acceptance gate of the `sg-store` subsystem: algorithms and
//! kernels consume the CSR through the same `CsrGraph` API regardless of
//! where the arrays live, and every kernel decision is deterministic in
//! `(seed, element id)`, so a borrowed-section graph and an owned-section
//! graph must yield identical edges, weights (compared as raw bits), and
//! float scores. The suite runs each comparison under `SG_THREADS = 1` and
//! `4` via the rayon shim's programmatic knob.

use slimgraph::algos::{bfs, cc, pagerank};
use slimgraph::core::{PipelineSpec, SchemeParams, SchemeRegistry};
use slimgraph::graph::{generators, CsrGraph};
use slimgraph::store::{load_sgr, save_sgr, MmapGraph};
use std::path::PathBuf;
use std::sync::Mutex;

/// The worker-count override is process-global; tests in this binary run
/// concurrently, so every test serializes on this lock.
static KNOB: Mutex<()> = Mutex::new(());

/// Thread counts each heap-vs-mmap comparison runs under.
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn with_threads(f: impl Fn(usize)) {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    for &t in &THREAD_COUNTS {
        rayon::set_num_threads(t);
        f(t);
    }
    rayon::set_num_threads(0);
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("slimgraph-storage-equivalence");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Writes `g` to `.sgr` and returns (heap-loaded, mmap-loaded) twins.
fn twins(g: &CsrGraph, name: &str) -> (CsrGraph, CsrGraph) {
    let path = tmp(name);
    save_sgr(g, &path).expect("save");
    let heap = load_sgr(&path).expect("heap load");
    let mapped = MmapGraph::open(&path).expect("mmap load");
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    assert!(mapped.is_zero_copy(), "mmap loader must borrow every section");
    (heap, mapped.into_graph())
}

fn unweighted() -> CsrGraph {
    generators::barabasi_albert(1500, 4, 0x5106)
}

fn weighted() -> CsrGraph {
    generators::with_random_weights(&generators::erdos_renyi(1200, 6000, 0x5107), 0.5, 4.5, 11)
}

fn weight_bits(g: &CsrGraph) -> Option<Vec<u32>> {
    g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn loaders_agree_bit_for_bit() {
    for (g, name) in [(unweighted(), "base-u.sgr"), (weighted(), "base-w.sgr")] {
        let (heap, mapped) = twins(&g, name);
        assert_eq!(heap.edge_slice(), mapped.edge_slice());
        assert_eq!(heap.edge_slice(), g.edge_slice());
        assert_eq!(weight_bits(&heap), weight_bits(&mapped));
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(heap.neighbors(v), mapped.neighbors(v));
        }
    }
}

#[test]
fn every_registry_scheme_is_identical_on_mmap_graphs() {
    let registry = SchemeRegistry::with_defaults();
    let (heap_u, mapped_u) = (unweighted(), "schemes-u.sgr");
    let (heap_w, mapped_w) = (weighted(), "schemes-w.sgr");
    let (hu, mu) = twins(&heap_u, mapped_u);
    let (hw, mw) = twins(&heap_w, mapped_w);
    with_threads(|t| {
        for name in registry.names() {
            let scheme = registry.create(name, &SchemeParams::new()).expect("known scheme");
            for (label, h, m) in [("unweighted", &hu, &mu), ("weighted", &hw, &mw)] {
                let a = scheme.apply(h, 42);
                let b = scheme.apply(m, 42);
                assert_eq!(
                    a.graph.edge_slice(),
                    b.graph.edge_slice(),
                    "scheme {name} on {label} graph diverged at {t} threads"
                );
                assert_eq!(
                    weight_bits(&a.graph),
                    weight_bits(&b.graph),
                    "scheme {name} weights diverged on {label} at {t} threads"
                );
            }
        }
    });
}

#[test]
fn pipelines_are_identical_on_mmap_graphs() {
    let registry = SchemeRegistry::with_defaults();
    let pipeline = PipelineSpec::parse("spanner:k=4,lowdeg,uniform:p=0.6")
        .and_then(|s| s.build(&registry))
        .expect("pipeline builds");
    let (h, m) = twins(&unweighted(), "pipeline.sgr");
    with_threads(|t| {
        let a = pipeline.apply(&h, 7);
        let b = pipeline.apply(&m, 7);
        assert_eq!(
            a.result.graph.edge_slice(),
            b.result.graph.edge_slice(),
            "pipeline diverged at {t} threads"
        );
    });
}

#[test]
fn stage2_algorithms_are_identical_on_mmap_graphs() {
    let (h, m) = twins(&unweighted(), "algos.sgr");
    let root = (0..h.num_vertices() as u32).max_by_key(|&v| h.degree(v)).unwrap_or(0);
    with_threads(|t| {
        // BFS: depths + reached must match exactly; parents can race
        // between equal-depth candidates even run-to-run (documented in
        // tests/parallel_equivalence.rs), so the mmap tree is checked with
        // the Graph500 validator instead.
        let ba = bfs::bfs_parallel(&h, root);
        let bb = bfs::bfs_parallel(&m, root);
        assert_eq!(ba.depth, bb.depth, "BFS depths diverged at {t} threads");
        assert_eq!(ba.reached, bb.reached);
        assert!(bfs::validate_bfs_tree(&m, root, &bb), "mmap BFS tree invalid");

        let pa = pagerank::pagerank_default(&h);
        let pb = pagerank::pagerank_default(&m);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pa.scores), bits(&pb.scores), "PageRank diverged at {t} threads");

        let ca = cc::connected_components(&h);
        let cb = cc::connected_components(&m);
        assert_eq!(ca.labels, cb.labels, "CC labels diverged at {t} threads");
        assert_eq!(ca.num_components, cb.num_components);
    });
}
