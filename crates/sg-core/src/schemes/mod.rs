//! The Slim Graph compression-scheme zoo (§4, Table 2).
//!
//! | Scheme | Kernel class | Preserves best |
//! |--------|--------------|----------------|
//! | [`uniform`] random uniform sampling | edge | triangle count |
//! | [`spectral`] spectral sparsification | edge | graph spectra |
//! | [`triangle_reduction`] Triangle Reduction family | triangle | several (CC, MST, matchings, …) |
//! | [`low_degree`] degree-≤1 vertex removal | vertex | betweenness centrality |
//! | [`spanner`](mod@spanner) O(k)-spanners | subgraph | distances |
//! | [`summarization`] lossy ϵ-summaries (SWeG-style) | subgraph | common-neighbor counts |
//! | [`cut_sparsify`](mod@cut_sparsify) Nagamochi–Ibaraki cut sparsifier (§4.6 extension) | edge | cut values ≤ k |

pub mod cut_sparsify;
pub mod low_degree;
pub mod spanner;
pub mod spectral;
pub mod summarization;
pub mod triangle_reduction;
pub mod uniform;

pub use cut_sparsify::{cut_sparsify, forest_indices, CutSparsifyKernel};
pub use low_degree::{remove_low_degree, LowDegreeKernel};
pub use spanner::{spanner, SpannerKernel};
pub use spectral::{spectral_sparsify, SpectralKernel, UpsilonVariant};
pub use summarization::{summarize, summarize_to_graph, SummarizationConfig, Summary};
pub use triangle_reduction::{
    decide_triangle, edge_once_commit, for_sampled_triangles, plain_tr_deletions,
    triangle_collapse, triangle_key, triangle_reduce, Discipline, EdgeChoice, TrConfig,
};
pub use uniform::{uniform_sample, UniformKernel};
