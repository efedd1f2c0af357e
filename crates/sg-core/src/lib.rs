//! # sg-core — the Slim Graph programming model and execution engine
//!
//! This crate implements the paper's three core elements:
//!
//! 1. **Programming model** ([`kernel`], [`context`]): developers express
//!    lossy compression as small *compression kernels* whose scope is an
//!    edge, a vertex, a triangle, or an arbitrary subgraph. Kernels access
//!    local graph structure through their argument views and read-only
//!    global state (the graph, per-element randomness) through the
//!    [`context::SgContext`] container — the paper's `SG` object. A kernel
//!    never writes `SG`: it returns its deletions (`SG.del`), as a decision
//!    per edge or vertex, or as a per-chunk list from a subgraph kernel,
//!    which the engine ORs together — order-free.
//! 2. **Execution engine** ([`engine`]): a scheme describes itself once, as
//!    a [`Plan`] (its kernel, by class); [`run_plan`] executes it in
//!    parallel and *materializes* the compressed graph, and `sg-dist`'s
//!    ranks and federation shards run the same plan. The subgraph path
//!    additionally builds vertex→subgraph [`mapping`]s (the paper's
//!    §4.5.2), for which [`ldd`] provides the low-diameter decomposition
//!    used by spanners.
//! 3. **Compression schemes** ([`schemes`]): the paper's scheme zoo — random
//!    uniform sampling, spectral sparsification (both Υ variants), the
//!    Triangle Reduction family (p-x, Edge-Once, Count-Triangles,
//!    max-weight, collapse), low-degree vertex removal, O(k)-spanners, and
//!    SWeG-style lossy ϵ-summarization with corrections.
//!
//! The scheme layer is *open*: [`scheme::CompressionScheme`] is an
//! object-safe trait, [`scheme::SchemeRegistry`] resolves schemes by name,
//! and a [`spec::PipelineSpec`] builds into a [`pipeline::Pipeline`] that
//! chains them — the paper's kernel-combining model. One stage loop runs
//! every chain: [`Pipeline::apply`] from stage 0, and the **session
//! execution API** (the serving layer's model) from a cached prefix:
//!
//! * [`catalog::GraphCatalog`] — named, ref-counted graph handles, loaded
//!   at most once (heap, `.sgr` mmap via `sg-store`, or inserted from
//!   memory);
//! * [`session::SgSession`] — runs a [`spec::PipelineSpec`] against a
//!   handle from its longest cached prefix, exposing every stage's
//!   intermediate graph;
//! * [`cache::StageCache`] — content-addressed on
//!   `(graph id, chain-prefix hash, seed)`, so requests sharing a chain
//!   prefix recompute only the divergent suffix, bit-identically to a
//!   cold run.

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
pub use engine::{
    decide_edge, decide_vertex, materialize_edges, run_plan, CompressionResult, Plan,
};
pub use pipeline::{Pipeline, PipelineResult, StageReport};
pub use scheme::{CompressionScheme, SchemeParams, SchemeRegistry};
pub use session::{SessionRun, SgSession, StageOutcome};
pub use spec::{PipelineSpec, StageSpec};
