//! # sg-graph — graph substrate for the Slim Graph reproduction
//!
//! This crate provides the in-memory graph infrastructure that every other
//! crate in the workspace builds on:
//!
//! * [`EdgeList`] — a mutable edge-list staging area with canonicalization
//!   (self-loop removal, deduplication, undirected ordering),
//! * [`CsrGraph`] — an immutable Compressed-Sparse-Row graph with canonical
//!   edge identifiers shared by both directions of an undirected edge (the
//!   property the Slim Graph deletion bitmaps rely on),
//! * [`generators`] — seeded synthetic workload generators (R-MAT,
//!   Erdős–Rényi, Barabási–Albert, Watts–Strogatz, grids, planted triangles)
//!   together with presets mirroring the paper's dataset table,
//! * [`io`] — plain-text and binary edge-list readers/writers,
//! * [`storage`] — [`Section`], the borrowed-or-owned array backing that
//!   lets `sg-store` load graphs zero-copy from a file mapping,
//! * [`view`] — [`NeighborCursor`] and the [`GraphView`] trait, the single
//!   row-iteration API shared by raw and encoded graphs,
//! * [`encoded`] — [`EncodedCsr`], Stream VByte / bitmap compressed
//!   adjacency that kernels traverse without materializing raw CSR,
//! * [`properties`] — degree statistics and histograms,
//! * [`partition`] — edge partitioning used by the simulated distributed
//!   pipeline.
//!
//! The representation follows GAPBS (the substrate used in the paper): an
//! offsets array of length `n + 1` and a flat adjacency array. Undirected
//! graphs store both directions; each directed *slot* carries the canonical
//! id of its undirected edge so that concurrent compression kernels agree on
//! deletion state.

pub mod csr;
pub mod edge_list;
pub mod encoded;
pub mod generators;
pub mod io;
pub mod partition;
pub mod prng;
pub mod properties;
pub mod storage;
pub mod types;
pub mod view;

pub use csr::{CsrGraph, CsrParts};
pub use edge_list::EdgeList;
pub use encoded::{EncodedAdjacency, EncodedAdjacencyParts, EncodedCsr};
pub use storage::Section;
pub use types::{EdgeId, VertexId, Weight};
pub use view::{GraphView, NeighborCursor};
