//! # sg-tune — pipeline auto-tuning for Slim Graph
//!
//! The paper's thesis is that lossy compression schemes must be selected
//! by their *measured* accuracy/size trade-off at a given edge budget, not
//! by construction. This crate closes that loop as a subsystem: given a
//! graph, an edge budget, and a quality target like
//! `pagerank-kl<=0.05`, it searches the space of scheme chains
//! ([`sg_core::PipelineSpec`]s over the [`sg_core::SchemeRegistry`]) and
//! per-stage parameters for the **smallest graph that still meets the
//! target** — "give me the smallest graph whose PageRank KL stays under
//! x bits".
//!
//! The pieces:
//!
//! * [`objective`] — [`Target`]: a bound on one [`MetricKind`] (PageRank
//!   KL, reordered per-vertex triangle ordering, degree-distribution L1,
//!   scalar deltas). The metrics are `sg-metrics`' own
//!   ([`sg_metrics::Metric`], re-exported here as [`MetricKind`]), scored
//!   against one [`sg_metrics::AccuracyBaseline`] of the uncompressed graph
//!   for the whole run — the numbers `analyze` reports for the same spec.
//! * [`candidates`] — deterministic enumeration of chains (bounded depth,
//!   full registry or a user subset) and per-stage parameter grids, plus
//!   grid *refinement*: each round halves the parameter step around the
//!   survivors (the deterministic cousin of successive halving).
//! * [`pareto`] — the non-dominated [`ParetoFront`] over
//!   `(edges, metric)` of everything evaluated.
//! * [`search`] — the loop: screen, refine, pick the winner, and
//!   *re-validate* it with a fresh standalone run.
//!
//! ## Determinism
//!
//! A tuning run is a pure function of `(graph, TuneConfig)`. Candidate
//! order is fixed by enumeration; every candidate runs with the master
//! seed as its pipeline seed (common random numbers — and the key that
//! lets grid neighbors share chain prefixes through the session's
//! [`sg_core::StageCache`]); candidates are evaluated in parallel through
//! the rayon shim, whose `collect` assembles results in input order, and
//! cache hits are bit-identical to cold runs. Frontier, winner, and every
//! reported float are bit-identical at any `SG_THREADS` (pinned by
//! `tests/tune_determinism.rs`). The only interleaving-dependent outputs
//! are the [`TuneOutcome::stages_executed`] perf counters, which are
//! excluded from the JSON rendering.
//!
//! ## Warm starting
//!
//! [`TuneConfig::warm_start`] seeds round 0 with extra specs — typically
//! the frontier of a previous run (`slimgraph tune --warm-start
//! frontier.json` parses a prior `--json` outcome). Warm specs are
//! screened and refined like generated candidates, so a warm run can
//! never lose to the run that produced the frontier.
//!
//! ## Example
//!
//! ```
//! use sg_core::SchemeRegistry;
//! use sg_graph::generators;
//! use sg_tune::{tune, MetricKind, Target, TuneConfig};
//! use std::sync::Arc;
//!
//! let g = generators::barabasi_albert(300, 4, 1);
//! let registry = Arc::new(SchemeRegistry::with_defaults());
//! let target = Target { metric: MetricKind::DegreeL1, max: 0.8 };
//! let mut cfg = TuneConfig::new(g.num_edges() * 3 / 4, target, 42);
//! cfg.schemes = Some(vec!["uniform".into(), "spanner".into()]);
//! let outcome = tune(&g, &registry, &cfg).unwrap();
//! if let Some(winner) = &outcome.winner {
//!     // The spec re-runs standalone to exactly these numbers.
//!     assert!(winner.edges <= cfg.budget_edges);
//!     assert!(winner.metric <= target.max);
//! }
//! ```

pub mod candidates;
pub mod objective;
pub mod pareto;
pub mod search;

pub use candidates::{axis_for, enumerate_chains, Axis, Scale};
pub use objective::Target;
pub use pareto::{ParetoFront, ParetoPoint};
pub use search::{tune, Evaluated, TuneConfig, TuneOutcome};
pub use sg_metrics::Metric as MetricKind;
