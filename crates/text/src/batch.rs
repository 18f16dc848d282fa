//! Parallel batch helpers for pairwise string work.
//!
//! The NFF string matrix is O(n²) string operations; these helpers fan the
//! per-item work out over the persistent pool (DESIGN.md §S0.6). Every
//! function keeps its items in input order (signatures are written in place
//! into one caller-side buffer, similarities collected per block in block
//! order), and every item is computed independently, so outputs are
//! bit-identical for any thread count. The `*_in` variants take an explicit [`Pool`] so tests can pin
//! the width; the plain variants use [`Pool::global`].

use crate::levenshtein::levenshtein_similarity;
use crate::minhash::{MinHasher, Signatures};
use largeea_common::names::NameSlice;
use largeea_common::pool::Pool;

/// Strings a batch entry point reads by index: a slice or `Vec` of
/// strings, or a [`NameSlice`] of an arena (a KG's labels, read in place).
/// `Copy`, so every task of a parallel pass can hold it.
pub trait Texts: Copy + Sync {
    /// Number of strings.
    fn count(&self) -> usize;
    /// String `i`.
    fn text(&self, i: usize) -> &str;
}

impl<S: AsRef<str> + Sync> Texts for &[S] {
    fn count(&self) -> usize {
        self.len()
    }
    fn text(&self, i: usize) -> &str {
        self[i].as_ref()
    }
}

impl<S: AsRef<str> + Sync> Texts for &Vec<S> {
    fn count(&self) -> usize {
        self.len()
    }
    fn text(&self, i: usize) -> &str {
        self[i].as_ref()
    }
}

impl Texts for NameSlice<'_> {
    fn count(&self) -> usize {
        self.len()
    }
    fn text(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// MinHash signatures of `texts` (already-normalised labels), in input
/// order, parallel over text blocks: one buffer allocated here and filled
/// in place through [`MinHasher::signature_into`], so no task allocates.
pub fn minhash_signatures(hasher: &MinHasher, texts: impl Texts, shingle_k: usize) -> Signatures {
    minhash_signatures_in(hasher, texts, shingle_k, Pool::global())
}

/// [`minhash_signatures`] on an explicit pool.
pub fn minhash_signatures_in(
    hasher: &MinHasher,
    texts: impl Texts,
    shingle_k: usize,
    pool: &Pool,
) -> Signatures {
    let mut sigs = Signatures::buffer(hasher, texts.count());
    let perms = hasher.num_perms();
    pool.rows_mut(sigs.as_mut_slice(), perms, 64, |block, first| {
        for (i, sig) in block.chunks_exact_mut(perms).enumerate() {
            hasher.signature_into(texts.text(first + i), shingle_k, sig);
        }
    });
    sigs
}

/// Normalised Levenshtein similarity for each `(a, b)` pair, in pair
/// order, parallel over pair blocks.
pub fn levenshtein_similarities<A: AsRef<str> + Sync, B: AsRef<str> + Sync>(
    pairs: &[(A, B)],
) -> Vec<f64> {
    levenshtein_similarities_in(pairs, Pool::global())
}

/// [`levenshtein_similarities`] on an explicit pool.
pub fn levenshtein_similarities_in<A: AsRef<str> + Sync, B: AsRef<str> + Sync>(
    pairs: &[(A, B)],
    pool: &Pool,
) -> Vec<f64> {
    pool.map_blocks(pairs.len(), 16, |range| {
        range
            .map(|i| levenshtein_similarity(pairs[i].0.as_ref(), pairs[i].1.as_ref()))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_match_sequential_path() {
        let mh = MinHasher::new(32, 7);
        let texts: Vec<String> = (0..200).map(|i| format!("entity number {i}")).collect();
        let par = minhash_signatures(&mh, &texts, 3);
        assert_eq!(par.len(), texts.len());
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(par.get(i), mh.signature_of(t, 3), "text {i}");
        }
        assert!(minhash_signatures(&mh, &[""; 0][..], 3).is_empty());
    }

    #[test]
    fn levenshtein_batch_matches_single_calls() {
        let pairs: Vec<(String, String)> = (0..100)
            .map(|i| (format!("label {i}"), format!("label {}", i / 2)))
            .collect();
        let sims = levenshtein_similarities(&pairs);
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(sims[i], levenshtein_similarity(a, b));
        }
    }

    #[test]
    fn explicit_widths_agree() {
        let mh = MinHasher::new(16, 3);
        let texts: Vec<String> = (0..300).map(|i| format!("name-{i}")).collect();
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        assert_eq!(
            minhash_signatures_in(&mh, &texts, 2, &p1),
            minhash_signatures_in(&mh, &texts, 2, &p4)
        );
        let pairs: Vec<(String, String)> =
            texts.iter().map(|t| (t.clone(), format!("{t}x"))).collect();
        assert_eq!(
            levenshtein_similarities_in(&pairs, &p1),
            levenshtein_similarities_in(&pairs, &p4)
        );
    }
}
