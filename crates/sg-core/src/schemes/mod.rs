//! The Slim Graph compression-scheme zoo (§4, Table 2): each module holds
//! a scheme's kernel; the scheme itself — its registry name, parameters
//! and [`crate::Plan`] — is the matching type in [`crate::scheme`]
//! (`Uniform`, `Spectral`, `TriangleReduction`, …), and that type is how a
//! scheme is run.
//!
//! | Scheme | Kernel class | Preserves best |
//! |--------|--------------|----------------|
//! | [`uniform`] random uniform sampling | edge | triangle count |
//! | [`spectral`] spectral sparsification | edge | graph spectra |
//! | [`triangle_reduction`] Triangle Reduction family | triangle | several (CC, MST, matchings, …) |
//! | [`low_degree`] degree-≤1 vertex removal | vertex | betweenness centrality |
//! | [`spanner`] O(k)-spanners | subgraph | distances |
//! | [`summarization`] lossy ϵ-summaries (SWeG-style) | subgraph | common-neighbor counts |
//! | [`cut_sparsify`] Nagamochi–Ibaraki cut sparsifier (§4.6 extension) | edge | cut values ≤ k |

pub mod cut_sparsify;
pub mod low_degree;
pub mod spanner;
pub mod spectral;
pub mod summarization;
pub mod triangle_reduction;
pub mod uniform;

pub use cut_sparsify::{forest_indices, CutSparsifyKernel};
pub use low_degree::LowDegreeKernel;
pub use spanner::SpannerKernel;
pub use spectral::{SpectralKernel, UpsilonVariant};
pub use summarization::{summarize, SummarizationConfig, Summary};
pub use triangle_reduction::{
    decide_triangle, edge_once_commit, for_sampled_triangles, plain_tr_deletions, triangle_key,
    Discipline, EdgeChoice, TrConfig,
};
pub use uniform::UniformKernel;
