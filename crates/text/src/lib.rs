//! Text substrate for LargeEA's name channel.
//!
//! The paper's name channel (NFF, §2.3) needs three text capabilities, each
//! of which it delegates to a heavyweight external component. This crate
//! rebuilds all three in pure Rust:
//!
//! | Paper component | Here |
//! |-----------------|------|
//! | BERT + max-pooling → semantic name embeddings | [`HashEncoder`]: deterministic subword feature-hashing encoder with the same max-pooling contract |
//! | datasketch MinHash-LSH → candidate filtering | [`MinHasher`] + [`LshIndex`] |
//! | python-Levenshtein → string similarity | [`levenshtein`](fn@levenshtein) (banded DP) |
//!
//! Everything is deterministic given its seed and requires no training or
//! model downloads — which mirrors the paper's design goal of a *training
//! free* name channel. Pairwise hot paths (MinHash sketching, Levenshtein,
//! Jaccard) have parallel batch variants in [`batch`] running on the
//! persistent worker pool.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod hash_encoder;
pub mod hashing;
pub mod jaccard;
pub mod levenshtein;
pub mod lsh;
pub mod minhash;
pub mod normalize;
pub mod tokenize;

pub use hash_encoder::HashEncoder;
pub use jaccard::{jaccard, shingles};
pub use levenshtein::{levenshtein, levenshtein_bounded, levenshtein_similarity};
pub use lsh::LshIndex;
pub use minhash::{MinHasher, Signature, Signatures};
pub use normalize::normalize_name;
pub use tokenize::{char_ngrams, tokens};
