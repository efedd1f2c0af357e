//! # sg-core — the Slim Graph programming model and execution engine
//!
//! This crate implements the paper's three core elements:
//!
//! 1. **Programming model** ([`kernel`], [`context`]): developers express
//!    lossy compression as small *compression kernels* whose scope is an
//!    edge, a vertex, a triangle, or an arbitrary subgraph. Kernels access
//!    local graph structure through their argument views and global state
//!    (sampling parameters, atomic deletion, `considered` flags) through the
//!    [`context::SgContext`] container — the paper's `SG` object.
//! 2. **Execution engine** ([`engine`]): kernels are executed in parallel by
//!    the engine, which then *materializes* the compressed graph. The
//!    subgraph path additionally builds vertex→subgraph [`mapping`]s (the
//!    paper's §4.5.2), for which [`ldd`] provides the low-diameter
//!    decomposition used by spanners.
//! 3. **Compression schemes** ([`schemes`]): the paper's scheme zoo — random
//!    uniform sampling, spectral sparsification (both Υ variants), the
//!    Triangle Reduction family (p-x, Edge-Once, Count-Triangles,
//!    max-weight, collapse), low-degree vertex removal, O(k)-spanners, and
//!    SWeG-style lossy ϵ-summarization with corrections.
//!
//! The scheme layer is *open*: [`scheme::CompressionScheme`] is an
//! object-safe trait, [`scheme::SchemeRegistry`] resolves schemes by name,
//! and [`pipeline::Pipeline`] chains them into multi-stage compression
//! runs — the paper's kernel-combining model.
//!
//! On top of the one-shot [`Pipeline::apply`] path sits the **session
//! execution API** — the programming model of the serving layer:
//!
//! * [`catalog::GraphCatalog`] — named, ref-counted graph handles, loaded
//!   at most once (heap, `.sgr` mmap via `sg-store`, or inserted from
//!   memory);
//! * [`session::SgSession`] — executes [`spec::PipelineSpec`]s
//!   stage-by-stage against a handle, exposing every stage's intermediate
//!   graph;
//! * [`cache::StageCache`] — content-addressed on
//!   `(graph id, chain-prefix hash, seed)`, so requests sharing a chain
//!   prefix recompute only the divergent suffix, bit-identically to a
//!   cold run.

pub mod atomic_bitset;
pub mod cache;
pub mod catalog;
pub mod context;
pub mod engine;
pub mod kernel;
pub mod ldd;
pub mod mapping;
pub mod pipeline;
pub mod scheme;
pub mod schemes;
pub mod session;
pub mod spec;

pub use cache::{CacheStats, StageCache, StageKey};
pub use catalog::{graph_approx_bytes, GraphCatalog, GraphFormat, GraphHandle, GraphId};
pub use context::{DetRand, SgContext};
pub use engine::{decide_edge, decide_vertex, materialize_edges, CompressionResult, Engine};
pub use pipeline::{run_stage, Pipeline, PipelineResult, StageReport};
pub use scheme::{CompressionScheme, DistPlan, SchemeParams, SchemeRegistry};
pub use session::{SessionRun, SgSession, StageOutcome};
pub use spec::{PipelineSpec, StageSpec};
