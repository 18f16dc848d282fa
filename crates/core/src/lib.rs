//! # LargeEA — aligning entities for large-scale knowledge graphs
//!
//! A pure-Rust reproduction of *LargeEA: Aligning Entities for Large-scale
//! Knowledge Graphs* (Ge, Liu, Chen, Zheng, Gao — VLDB 2021). LargeEA
//! aligns the entities of two KGs with two cooperating channels:
//!
//! - the **structure channel** (§2.2) partitions both KGs into `K`
//!   mini-batches with METIS-CPS, trains a GNN-based EA model (GCN-Align or
//!   RREA) inside each batch independently, and assembles the block-sparse
//!   structural similarity matrix `M_s`;
//! - the **name channel** (§2.3) computes the training-free name similarity
//!   `M_n = M_se + γ·M_st` (semantic embeddings + thresholded string
//!   similarity) and generates *pseudo seeds* by mutual-nearest-neighbour
//!   data augmentation;
//! - **fusion** combines the two: `M = M_s + M_n`.
//!
//! The crate-level entry point is [`pipeline::LargeEa`]:
//!
//! ```
//! use largeea_core::pipeline::{LargeEa, LargeEaConfig};
//! use largeea_kg::{KgPair, KnowledgeGraph, EntityId};
//!
//! // two toy KGs with one shared entity name
//! let mut s = KnowledgeGraph::new("EN");
//! s.add_entity_with_label("en/1", "Paris");
//! let mut t = KnowledgeGraph::new("FR");
//! t.add_entity_with_label("fr/1", "Paris");
//! let pair = KgPair::new(s, t, vec![(EntityId(0), EntityId(0))]);
//! let seeds = pair.split_seeds(0.0, 1); // unsupervised
//!
//! let report = LargeEa::new(LargeEaConfig::default()).run(&pair, &seeds);
//! assert_eq!(report.eval.evaluated, seeds.test.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod augment;
pub mod checkpoint;
pub mod eval;
pub mod fusion;
pub mod mem;
pub mod name_channel;
pub mod pipeline;
pub mod report;
pub mod spill;
pub mod structure_channel;
pub mod throughput;

pub use augment::{augment_seeds, AugmentReport};
pub use checkpoint::{registered_failpoints, Checkpoint, CkptError, Payload, RunMeta, Stage};
pub use eval::{evaluate, EvalResult};
pub use fusion::fuse;
pub use mem::{BudgetExceeded, MemBudget};
pub use name_channel::{NameChannel, NameChannelConfig, NameChannelOutput};
pub use pipeline::{
    ExecOptions, LargeEa, LargeEaConfig, LargeEaReport, PartitionStrategy, RunCtx, RunError,
};
pub use spill::SpillStore;
pub use structure_channel::{StructureChannel, StructureChannelConfig, StructureChannelOutput};
pub use throughput::{derived_throughputs, filter_pass_pcts, Throughput};
