//! The contract suite for the axes no other suite owns: federation shards,
//! the session cache, the daemon and the sequential oracles, every case
//! each accepts against the one pinned table (`tests/contract/mod.rs`). The
//! other axes run in the suites named for them (see the module's header).
//! One test per axis, so `cargo test --test contract_equivalence -- served`
//! runs one axis.

mod contract;
mod oracle;

use contract::{check, Axis, Graph, KERNELS};
use std::collections::BTreeSet;

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

/// Every compress case whose stages all have an oracle (`tests/oracle/`),
/// run through the oracles against its pin: when a pin breaks, this says
/// whether the engine or the pin left the paper. Fails too if a registered
/// scheme that should have an oracle has no row here. Prints its own time
/// (`-- --nocapture`).
#[test]
fn oracle() {
    let start = std::time::Instant::now();
    let cases = contract::accepted(Axis::Oracle);
    let stages = cases.iter().flat_map(|case| case.spec.split(','));
    let covered: BTreeSet<&str> = stages.filter_map(|stage| stage.split(':').next()).collect();
    for name in slimgraph::SchemeRegistry::with_defaults().names() {
        assert!(
            oracle::WITHOUT_ORACLE.contains(&name) || covered.contains(name),
            "scheme `{name}` has an oracle but no row of the table on axis Oracle"
        );
    }
    check(Axis::Oracle);
    eprintln!("axis Oracle: {} cases in {:.2?}", cases.len(), start.elapsed());
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
