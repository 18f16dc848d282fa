//! # largeea — LargeEA reproduced in pure Rust
//!
//! Facade crate for the workspace reproducing *LargeEA: Aligning Entities
//! for Large-scale Knowledge Graphs* (VLDB 2021). Every subsystem is
//! re-exported under one roof so downstream users depend on a single crate:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`common`] | `largeea-common` | zero-dependency substrate: PRNG, JSON emitter, test harness, bench timer |
//! | [`kg`] | `largeea-kg` | KG storage, alignment pairs, OpenEA IO |
//! | [`partition`] | `largeea-partition` | multilevel partitioner, METIS-CPS, VPS, mini-batches |
//! | [`tensor`] | `largeea-tensor` | matrices, autograd, Adam |
//! | [`text`] | `largeea-text` | name normalisation, hash encoder, MinHash-LSH, Levenshtein |
//! | [`sim`] | `largeea-sim` | top-k search, sparse similarity matrices |
//! | [`models`] | `largeea-models` | GCN-Align, RREA, baselines, trainer |
//! | [`data`] | `largeea-data` | IDS15K/IDS100K/DBP1M-shaped synthetic benchmarks |
//! | [`core`] | `largeea-core` | the LargeEA framework: channels, DA, fusion, metrics |
//!
//! ## One-minute tour
//!
//! ```
//! use largeea::core::pipeline::{LargeEa, LargeEaConfig};
//! use largeea::core::structure_channel::StructureChannelConfig;
//! use largeea::data::Preset;
//! use largeea::models::{ModelKind, TrainConfig};
//!
//! // a small deterministic benchmark with the IDS15K(EN-FR) shape
//! let pair = Preset::Ids15kEnFr.spec(0.01).generate();
//! let seeds = pair.split_seeds(0.2, 42);
//!
//! let cfg = LargeEaConfig {
//!     structure: StructureChannelConfig {
//!         k: 2,
//!         model: ModelKind::GcnAlign,
//!         train: TrainConfig { epochs: 10, dim: 16, ..TrainConfig::default() },
//!         ..StructureChannelConfig::default()
//!     },
//!     ..LargeEaConfig::default()
//! };
//! let report = LargeEa::new(cfg).run(&pair, &seeds);
//! assert_eq!(report.eval.evaluated, seeds.test.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// Install the instrumented allocator for every binary that links the
// facade: the `largeea` CLI, its integration tests, and doctests. It is the
// one memory ledger — what `--mem-budget` admits against and what `trace
// heap` renders. The attribute itself is safe code; the audited `unsafe
// impl` lives in `largeea_common::alloc`.
#[global_allocator]
static ALLOC: largeea_common::alloc::CountingAlloc = largeea_common::alloc::CountingAlloc;

pub use largeea_common as common;
pub use largeea_core as core;
pub use largeea_data as data;
pub use largeea_kg as kg;
pub use largeea_models as models;
pub use largeea_partition as partition;
pub use largeea_sim as sim;
pub use largeea_tensor as tensor;
pub use largeea_text as text;
