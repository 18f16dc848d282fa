//! # largeea-common — the zero-dependency engineering substrate
//!
//! Every other crate in the workspace builds on this one, and this one
//! builds on nothing but `std`. It exists so the whole reproduction of
//! *LargeEA* (Ge et al., VLDB 2021) compiles and tests **fully offline**:
//! no crates.io registry, no network, no vendored third-party code.
//!
//! Eleven subsystems (DESIGN.md §S0, §S0.5, §S0.6, §S0.7, §S1):
//!
//! | Module | Replaces | Provides |
//! |--------|----------|----------|
//! | [`rng`] | `rand` | SplitMix64-seeded xoshiro256** PRNG: `seed_from_u64`, `gen_range`, `gen`, `gen_bool`, `shuffle`, `choose` |
//! | [`json`] | `serde`/`serde_json` | [`json::Json`] value tree + [`json::ToJson`] trait, byte-compatible with the previous `serde_json` row output |
//! | [`check`] | `proptest` | [`check::for_each_case`] deterministic randomized-input harness with seed-replay failure reporting |
//! | [`mod@bench`] | `criterion` | warmup + median wall-clock micro-benchmark timer |
//! | [`pool`] | `rayon`/`crossbeam` | persistent [`pool::Pool`] of worker threads: scoped chunked jobs, shared-cursor stealing, bit-identical results at any width |
//! | [`obs`] | `tracing`/`metrics` | thread-safe [`obs::Recorder`]: hierarchical spans, counters and gauges, JSON [`obs::Trace`] export, `LARGEEA_LOG` echo |
//! | [`failpoint`] | `fail` crate | named deterministic fault-injection points (`LARGEEA_FAILPOINTS`), branch-on-disabled-flag no-ops in normal runs |
//! | [`fsio`] | `tempfile`+`crc32fast` | atomic durable writes (temp → fsync → rename) and CRC32-checksummed framed reads — torn writes are detected, never silently loaded |
//! | [`alloc`] | `jemalloc`-style stats / `dhat` | [`alloc::CountingAlloc`] instrumented `#[global_allocator]`: per-thread byte/count/peak accounting with span attribution and pool-worker transfer |
//! | [`names`] | `Vec<String>` | [`names::Names`] string arena (one `String`, `u32` ends) and its `Copy` view [`names::NameSlice`] |
//! | [`units`] | `humansize` | [`fmt_bytes`] human-readable byte formatting shared by every memory report |
//!
//! ## Determinism contract
//!
//! Everything here is deterministic given its seed: the PRNG has no
//! entropy source, the test harness derives one sub-seed per case from the
//! test's fixed seed, and JSON emission is a pure function of the value.
//! A fixed seed therefore reproduces an experiment bit-for-bit on every
//! platform (the PRNG is defined purely over `u64` wrapping arithmetic).

#![deny(missing_docs)]
// `deny`, not `forbid`: the workspace's two audited unsafe items live here —
// `pool`'s lifetime erasure (scoped jobs on persistent threads) and
// `alloc`'s `GlobalAlloc` impl (delegation to the system allocator plus
// counter arithmetic). Both carry SAFETY comments; everything else stays
// safe code.
#![deny(unsafe_code)]

pub mod alloc;
pub mod bench;
pub mod check;
pub mod failpoint;
pub mod fsio;
pub mod json;
pub mod names;
pub mod obs;
pub mod pool;
pub mod rng;
pub mod units;

pub use json::{Json, ToJson};
pub use rng::{Rng, SliceRandom};
pub use units::fmt_bytes;
