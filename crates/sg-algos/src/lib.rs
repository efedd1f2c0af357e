//! # sg-algos — GAPBS-equivalent graph algorithms
//!
//! Stage 2 of the Slim Graph pipeline runs graph algorithms over compressed
//! graphs to measure the impact of compression. The paper integrates with the
//! GAP Benchmark Suite and extends it with matchings, spanning trees, and
//! other kernels; this crate is the Rust equivalent, parallelized with rayon.
//!
//! Algorithms (paper Table 1 plus the §3.2 extensions):
//!
//! * [`bfs`] — breadth-first search (parent + depth vectors),
//! * [`sssp`] — single-source shortest paths (Dijkstra and Δ-stepping),
//! * [`pagerank`] — pull-based PageRank producing a probability distribution,
//! * [`cc`] — connected components,
//! * [`tc`] — triangle counting/listing (total, per-vertex, streaming),
//! * [`bc`] — Brandes betweenness centrality (exact or sampled sources),
//! * [`mst`] — minimum spanning tree/forest (Kruskal),
//! * [`matching`] — maximal cardinality matching (greedy, randomized),
//! * [`coloring`] — greedy coloring in degeneracy order (coloring number),
//! * [`kcore`] — core decomposition, degeneracy, arboricity bounds,
//! * [`mis`] — maximal independent set,
//! * [`diameter`] — exact (small graphs) and double-sweep estimates,
//! * [`spanning`] — BFS spanning trees of clusters.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod coloring;
pub mod diameter;
pub mod kcore;
pub mod matching;
pub mod mis;
pub mod mst;
pub mod pagerank;
pub mod spanning;
pub mod sssp;
pub mod tc;
pub mod union_find;

/// Serialises the unit tests that turn rayon's process-global thread knob,
/// so one never runs at a count another set.
#[cfg(test)]
static THREAD_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());
