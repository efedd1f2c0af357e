//! # sg-metrics — the Slim Graph analytics subsystem (§5)
//!
//! Metrics for assessing the accuracy of lossy graph compression, one per
//! output class of graph algorithms:
//!
//! * scalar outputs (e.g. #connected components) → [`scalar`] relative change,
//! * vector outputs that impose an ordering (BC, per-vertex TC) →
//!   [`reordered`] counts of reordered pairs,
//! * distribution outputs (PageRank) → [`divergences`], with
//!   Kullback–Leibler selected as the paper's tool of choice,
//! * BFS (vector of predecessors — neither an ordering nor a distribution)
//!   → [`bfs_critical`] critical-edge preservation,
//! * whole-graph structure → [`degree_dist`] degree-distribution comparison
//!   (the visual instrument of Figures 7 and 8).
//!
//! [`report`] runs one metric of each class as the before/after accuracy
//! report `slimgraph analyze` and the daemon's `analyze` op print; its
//! [`AccuracyBaseline`] is the original's side of that report, computed once
//! for any number of comparisons.

pub mod bfs_critical;
pub mod degree_dist;
pub mod divergences;
pub mod projection;
pub mod reordered;
pub mod report;
pub mod scalar;

pub use bfs_critical::{critical_edge_count, critical_edge_preservation, critical_edges};
pub use degree_dist::{
    compare_degree_distribution_baseline, compare_degree_distributions, DegreeDistComparison,
};
pub use divergences::{hellinger, jensen_shannon, kl_divergence, total_variation};
pub use projection::project_scores;
pub use reordered::{reordered_neighbor_fraction, reordered_pair_fraction};
pub use report::{accuracy_report, max_degree_vertex, AccuracyBaseline, AccuracyReport};
pub use scalar::{relative_change, relative_error};
