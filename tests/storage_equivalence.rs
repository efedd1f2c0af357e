//! Heap-loaded vs mmap-loaded equivalence: a graph served zero-copy out of
//! an `.sgr` mapping must be indistinguishable — bit for bit — from the same
//! graph on the heap, for every registered compression scheme, for chains,
//! and for the stage-2 kernels, at 1 and 4 threads. The last three tests
//! split the contract harness's `Mmap` axis (`tests/contract/`) among them:
//! every case of the table on the mapped graph against its pin.

mod contract;

use contract::{check_where, graph, mapped, sgr_file, Axis, Graph};
use slimgraph::serve::graph_digest;
use slimgraph::store::load_sgr;

/// The heap loader and the mapping both give back the graph that was
/// written: same rows, same edges, same weight bits.
#[test]
fn loaders_agree_bit_for_bit() {
    for g in [Graph::ErPlanted, Graph::ErPlantedWeighted, Graph::Directed, Graph::Empty] {
        let original = graph(g);
        let loaded = load_sgr(sgr_file(g, false)).expect("heap load");
        for (label, twin) in [("heap", loaded), ("mmap", mapped(g))] {
            assert_eq!(twin.csr_offsets(), original.csr_offsets(), "{g:?} ({label}): row offsets");
            for v in 0..original.num_vertices() as u32 {
                assert_eq!(twin.neighbors(v), original.neighbors(v), "{g:?} ({label}): row {v}");
            }
            assert_eq!(graph_digest(&twin), graph_digest(&original), "{g:?} ({label}): digest");
        }
    }
}

#[test]
fn every_registry_scheme_is_identical_on_mmap_graphs() {
    check_where(Axis::Mmap, |case| !case.is_kernels() && !case.is_chain());
}

#[test]
fn pipelines_are_identical_on_mmap_graphs() {
    check_where(Axis::Mmap, |case| case.is_chain());
}

#[test]
fn stage2_algorithms_are_identical_on_mmap_graphs() {
    check_where(Axis::Mmap, |case| case.is_kernels());
}
