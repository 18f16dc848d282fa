//! Linear-algebra and training substrate for the LargeEA reproduction.
//!
//! The paper trains GNN-based entity-alignment models with TensorFlow on a
//! GPU. This crate is that substrate rebuilt in pure Rust:
//!
//! - [`Matrix`] — dense row-major `f32` matrix with parallel blocked kernels,
//!   and [`Rows`], a borrowed view of some of its rows;
//! - [`SparseMatrix`] — CSR sparse matrix with `spmm` (the GNN propagation
//!   primitive) and construction from COO triplets;
//! - [`autograd`] — a reverse-mode tape ([`Tape`]/[`Var`]) covering exactly
//!   the operations the EA models need (matmul, spmm, gather, row-wise L1/L2,
//!   ReLU, reflections, reductions), validated against finite differences;
//! - [`optim`] — Adam and SGD over a [`ParamStore`];
//! - [`init`] — seeded Xavier/normal initialisers;
//! - the hot kernels run on the persistent worker pool from
//!   `largeea-common` (DESIGN.md §S0.6) and also have `*_in(&Pool)`
//!   variants for explicit widths;
//! - [`kernels`] — runtime-ISA-dispatched SIMD micro-kernels (AVX2/NEON)
//!   behind a bit-identical scalar reference (DESIGN.md §S0.11);
//!   `LARGEEA_NO_SIMD=1` forces the scalar path.
//!
//! Determinism: all randomness is seeded, all parallel reductions are
//! per-block with a fixed combination order, and SIMD kernels reproduce
//! the scalar reference bit-for-bit, so training runs are exactly
//! reproducible on any host.

#![warn(missing_docs)]
// `kernels` is the single module allowed `std::arch` intrinsics; everything
// else stays unsafe-free (the module opts in with `#![allow(unsafe_code)]`).
#![deny(unsafe_code)]

pub mod autograd;
pub mod init;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod sparse;

pub use autograd::{IndexList, SpOp, Tape, Var};
pub use kernels::{active_isa, Isa};
pub use matrix::{dot, l1_distance, Matrix, Rows};
pub use optim::{Adam, AdamConfig, ParamStore, Sgd};
pub use sparse::SparseMatrix;
