//! GNN-based entity-alignment models for LargeEA's structure channel.
//!
//! The paper treats mini-batch training as a black box (§2.2.2): any EA
//! model that can learn structural entity embeddings plugs in. This crate
//! provides that black box:
//!
//! - [`BatchGraph`] — the per-mini-batch training context: both subgraphs
//!   merged into one local id space, with the normalised adjacency and the
//!   triple-level message structure GNNs consume;
//! - [`GcnAlign`] — the structural variant of GCN-Align (Wang et al. 2018):
//!   a two-layer GCN trained with a margin-based alignment loss;
//! - [`Rrea`] — Relational Reflection EA (Mao et al. 2020): neighbour
//!   messages transformed by relation-specific reflections
//!   `M_r x = x − 2(x·r)r`, which keeps embeddings on the unit sphere;
//! - [`baselines`] — reduced but architecture-faithful re-implementations of
//!   the paper's competitors (RDGCN, MultiKE, BERT-INT) for Table 2;
//! - [`negative`] — nearest-neighbour and random negative sampling;
//! - [`trainer`] — the Adam training loop with the paper's triplet loss
//!   `Σ [f_p(h_s, h_t) + γ − f_n]₊`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod batch_graph;
pub mod gcn_align;
pub mod negative;
pub mod rrea;
pub mod scoring;
pub mod trainer;

pub use batch_graph::BatchGraph;
pub use gcn_align::GcnAlign;
pub use rrea::Rrea;
pub use trainer::{train, train_hooked, EaModel, ForwardPass, ModelKind, TrainConfig, TrainReport};
