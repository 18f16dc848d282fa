//! MinHash signatures — the datasketch substitute used by STNS to avoid
//! all-pairs Levenshtein.

use crate::hashing::{fnv1a, mix, mix_keyed, seed_key};
use std::collections::BTreeSet;

/// A MinHash signature: one minimum per permutation.
pub type Signature = Vec<u64>;

/// The signatures of many texts in one flat buffer, `num_perms` values per
/// text: one allocation however many texts, made by the caller of the
/// parallel fill ([`crate::batch::minhash_signatures`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signatures {
    num_perms: usize,
    data: Vec<u64>,
}

impl Signatures {
    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.data.len() / self.num_perms
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Signature `i`.
    pub fn get(&self, i: usize) -> &[u64] {
        &self.data[i * self.num_perms..(i + 1) * self.num_perms]
    }

    /// The signatures in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.data.chunks_exact(self.num_perms)
    }

    /// `n` signatures' worth of buffer for `hasher`, and the signature
    /// length: what a parallel fill writes into.
    pub(crate) fn buffer(hasher: &MinHasher, n: usize) -> Self {
        Self {
            num_perms: hasher.num_perms(),
            data: vec![0; n * hasher.num_perms()],
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.data
    }
}

/// Computes MinHash signatures whose component-wise equality rate is an
/// unbiased estimator of Jaccard similarity.
///
/// Implemented as one base hash per shingle re-mixed with `num_perms`
/// independent finalisers (the standard "one hash, many mixes" scheme).
///
/// ```
/// use largeea_text::{shingles, MinHasher};
///
/// let mh = MinHasher::new(128, 7);
/// let a = mh.signature(&shingles("london", 3));
/// let b = mh.signature(&shingles("londres", 3));
/// let c = mh.signature(&shingles("reykjavik", 3));
/// assert!(mh.estimate(&a, &b) > mh.estimate(&a, &c));
/// ```
#[derive(Debug, Clone)]
pub struct MinHasher {
    num_perms: usize,
    /// One [`seed_key`] per permutation.
    keys: Vec<u64>,
}

impl MinHasher {
    /// Creates a hasher with `num_perms` permutations derived from `seed`.
    pub fn new(num_perms: usize, seed: u64) -> Self {
        assert!(num_perms >= 2, "need at least 2 permutations");
        let keys = (0..num_perms as u64)
            .map(|i| seed_key(mix(i.wrapping_add(0x5851F42D4C957F2D), seed)))
            .collect();
        Self { num_perms, keys }
    }

    /// Number of permutations (signature length).
    pub fn num_perms(&self) -> usize {
        self.num_perms
    }

    /// The signature of a shingle set. An empty set yields the all-`MAX`
    /// signature, which matches nothing that is non-empty.
    pub fn signature(&self, shingles: &BTreeSet<String>) -> Signature {
        let mut sig = vec![u64::MAX; self.num_perms];
        for sh in shingles {
            self.absorb(&mut sig, sh.as_bytes());
        }
        sig
    }

    /// The signature of `text`'s character `k`-shingles: a fresh
    /// [`MinHasher::signature_into`].
    pub fn signature_of(&self, text: &str, k: usize) -> Signature {
        let mut sig = vec![0; self.num_perms];
        self.signature_into(text, k, &mut sig);
        sig
    }

    /// Writes the signature of `text`'s character `k`-shingles into `sig`
    /// (`num_perms` long), computed directly from the string — no
    /// `BTreeSet`, no per-shingle `String`, no allocation at all.
    ///
    /// Bit-identical to `signature(&shingles(text, k))`: a signature keeps
    /// component-wise minima, which are invariant to shingle order and
    /// duplicates, and each shingle hashes the same UTF-8 bytes the
    /// set-based path would. This is the STNS sketching hot path — the
    /// set-based construction allocated one `String` plus a tree node per
    /// shingle per entity name.
    pub fn signature_into(&self, text: &str, k: usize, sig: &mut [u64]) {
        assert!(k >= 1, "shingle size must be >= 1");
        assert_eq!(sig.len(), self.num_perms, "signature length");
        sig.fill(u64::MAX);
        if text.is_empty() {
            return;
        }
        let n_chars = text.chars().count();
        if n_chars <= k {
            self.absorb(sig, text.as_bytes());
            return;
        }
        // Each shingle is the borrowed bytes from a char start to the start
        // of the char `k` further on (or the end of `text`).
        for (start, _) in text.char_indices().take(n_chars - k + 1) {
            let end = (text[start..].char_indices().nth(k)).map_or(text.len(), |(j, _)| start + j);
            self.absorb(sig, &text.as_bytes()[start..end]);
        }
    }

    /// Folds one shingle's hash into the running component-wise minima.
    /// Branchless (`min`, not a compare-and-store), so the slot loop has no
    /// data-dependent branch to mispredict; the minima are the same.
    #[inline]
    fn absorb(&self, sig: &mut [u64], shingle: &[u8]) {
        let base = fnv1a(shingle);
        for (slot, &key) in sig.iter_mut().zip(&self.keys) {
            *slot = (*slot).min(mix_keyed(base, key));
        }
    }

    /// Estimates Jaccard similarity from two signatures.
    pub fn estimate(&self, a: &[u64], b: &[u64]) -> f64 {
        assert_eq!(a.len(), b.len(), "signature length mismatch");
        let eq = a.iter().zip(b).filter(|(x, y)| x == y).count();
        eq as f64 / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::{jaccard, shingles};

    #[test]
    fn identical_sets_estimate_one() {
        let mh = MinHasher::new(64, 7);
        let s = shingles("entity alignment", 3);
        let a = mh.signature(&s);
        assert_eq!(mh.estimate(&a, &a), 1.0);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let mh = MinHasher::new(256, 11);
        let pairs = [
            ("london", "londres"),
            ("new york city", "york new"),
            ("completely different", "nothing alike at all"),
        ];
        for (x, y) in pairs {
            let sx = shingles(x, 3);
            let sy = shingles(y, 3);
            let truth = jaccard(&sx, &sy);
            let est = mh.estimate(&mh.signature(&sx), &mh.signature(&sy));
            assert!(
                (truth - est).abs() < 0.15,
                "{x} vs {y}: true {truth:.3} est {est:.3}"
            );
        }
    }

    #[test]
    fn empty_set_matches_nothing() {
        let mh = MinHasher::new(32, 3);
        let empty = mh.signature(&BTreeSet::new());
        let full = mh.signature(&shingles("paris", 3));
        assert_eq!(mh.estimate(&empty, &full), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MinHasher::new(16, 5).signature(&shingles("x y z", 2));
        let b = MinHasher::new(16, 5).signature(&shingles("x y z", 2));
        let c = MinHasher::new(16, 6).signature(&shingles("x y z", 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn too_few_perms_rejected() {
        MinHasher::new(1, 0);
    }

    #[test]
    fn signature_of_matches_set_based_signature() {
        let mh = MinHasher::new(64, 9);
        for text in [
            "",
            "a",
            "ab",
            "abc",
            "aaaaaa", // duplicate shingles
            "new york city",
            "münchen żółć", // multi-byte chars
        ] {
            for k in [1, 2, 3, 5] {
                assert_eq!(
                    mh.signature_of(text, k),
                    mh.signature(&shingles(text, k)),
                    "text={text:?} k={k}"
                );
            }
        }
    }
}
