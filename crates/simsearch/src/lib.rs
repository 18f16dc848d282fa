//! Similarity-search substrate for LargeEA.
//!
//! The paper leans on two pieces of similarity machinery, both rebuilt here:
//!
//! - [`topk`] — exact blocked top-k nearest-neighbour search over dense
//!   embedding matrices (the Faiss substitute). The paper runs Faiss in
//!   flat/exact mode over segment pairs; [`topk::segmented_topk`] reproduces
//!   that segment-at-a-time structure, which is what bounds memory to
//!   `O(k · |E_s|)` instead of `O(|E_s| · |E_t|)`.
//! - [`sparse_sim`] — [`SparseSimMatrix`], the top-k row-sparse similarity
//!   matrix every channel produces and the fusion step combines
//!   (`M = M_s + M_n`), with mutual-top-1 extraction for the name-based
//!   data augmentation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod io;
pub mod ivf;
pub mod kmeans;
pub mod sparse_sim;
pub mod topk;

pub use ivf::IvfIndex;
pub use sparse_sim::SparseSimMatrix;
pub use topk::{
    resident_bytes, segmented_topk, segmented_topk_streamed, topk_search, topk_search_counted,
    topk_search_in, Metric,
};
