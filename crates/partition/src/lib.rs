//! Graph partitioning substrate for LargeEA's structure channel.
//!
//! The paper partitions each KG with METIS and steers the target-side
//! partition with edge re-weighting (METIS-CPS, §2.2.1). This crate rebuilds
//! the whole stack from scratch:
//!
//! - [`graph`] — the weighted undirected [`PartGraph`] the partitioner
//!   consumes (built from a KG's triples; parallel edges accumulate weight);
//! - [`coarsen`] — heavy-edge-matching coarsening (Karypis–Kumar multilevel
//!   scheme, phase 1);
//! - [`initial`] — recursive-bisection initial partitioning with greedy
//!   graph growing + Fiduccia–Mattheyses refinement (phase 2);
//! - [`refine`] — greedy k-way boundary refinement during uncoarsening
//!   (phase 3);
//! - [`kway`] — the public [`partition_kway`] driver plus quality metrics
//!   (edge cut, balance);
//! - [`cps`] — METIS-CPS: partition `G_s`, then re-weight `G_t` (phase 1:
//!   virtual star edges with weight `w′ ≫ 1` inside each seed group;
//!   phase 2: zero weight across groups) and partition it, then pair
//!   subgraphs by seed overlap;
//! - [`vps`](mod@vps) — the vanilla partition strategy baseline;
//! - [`batches`] — mini-batch assembly, retention/edge-cut metrics
//!   (Table 5, Figure 7) and overlapping mini-batches (Appendix C).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batches;
pub mod coarsen;
pub mod cps;
pub mod graph;
pub mod initial;
pub mod kway;
pub mod refine;
pub mod vps;

pub use batches::{MiniBatch, MiniBatches};
pub use cps::{metis_cps, metis_cps_traced, CpsConfig};
pub use graph::PartGraph;
pub use kway::{edge_cut, partition_kway, partition_kway_traced, PartitionConfig, Partitioning};
pub use vps::vps;
