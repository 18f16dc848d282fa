//! Knowledge-graph substrate for the LargeEA reproduction.
//!
//! This crate provides the storage layer every other crate builds on:
//!
//! - [`EntityId`] / [`RelationId`] — index newtypes interned per KG;
//! - [`Interner`] — string ↔ id interning with stable iteration order, over
//!   one [`Names`] arena (read through [`NameSlice`] views);
//! - [`Triple`] — a `(head, relation, tail)` edge;
//! - [`KnowledgeGraph`] — entity names, relation names, triple store and a
//!   lazily built CSR [`Adjacency`] over the undirected entity graph;
//! - [`KgPair`] — a source/target KG pair with ground-truth alignment and a
//!   train/test seed split, the unit of work for entity alignment;
//! - [`io`] — OpenEA-style text serialisation so real benchmark dumps can be
//!   dropped in;
//! - [`stats`] — degree and size statistics used by the experiment harness.
//!
//! Everything is plain data: no interior mutability, no global state, and
//! deterministic iteration everywhere so experiments are reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod io;
pub mod pair;
pub mod stats;
pub mod triple;

pub use adjacency::Adjacency;
pub use error::KgError;
pub use graph::KnowledgeGraph;
pub use ids::{EntityId, RelationId};
pub use interner::Interner;
pub use largeea_common::names::{NameSlice, Names};
pub use pair::{AlignmentSeeds, KgPair};
pub use stats::KgStats;
pub use triple::Triple;
