//! The contract suite for the axes no other suite owns: federation shards,
//! the session cache and the daemon, every case each accepts against the
//! one pinned table (`tests/contract/mod.rs`). The other axes run in the
//! suites named for them (see the module's header). One test per axis, so
//! `cargo test --test contract_equivalence -- served` runs one axis.

mod contract;

use contract::{check, Axis, Graph, KERNELS};

#[test]
fn shards() {
    for s in [1, 2, 4] {
        check(Axis::Shards(s));
    }
}

#[test]
fn session() {
    check(Axis::Session);
}

#[test]
fn served() {
    check(Axis::Served);
}

/// A newly registered scheme fails here until it is pinned: each sweep of
/// the table holds one row per registry scheme.
#[test]
fn the_sweeps_pin_every_registered_scheme() {
    let registry = slimgraph::SchemeRegistry::with_defaults();
    for graph in [Graph::ErPlanted, Graph::ErPlantedWeighted] {
        let sweep = contract::TABLE.iter().find(|g| g.graph == graph).expect("a sweep");
        let names = sweep.pins.iter().map(|&(spec, _)| spec).filter(|&spec| spec != KERNELS);
        assert!(registry.names().eq(names), "{graph:?}: one row per registry scheme");
    }
}
