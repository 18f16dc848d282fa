//! MinHash signatures — the datasketch substitute used by STNS to avoid
//! all-pairs Levenshtein.

use crate::hashing::{fnv1a, mix, mix_keyed, seed_key};
use std::collections::BTreeSet;

/// A MinHash signature: one minimum per permutation.
pub type Signature = Vec<u64>;

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

    /// The signature of `text`'s character `k`-shingles, computed directly
    /// from the string — no `BTreeSet`, no per-shingle `String`.
    ///
    /// Bit-identical to `signature(&shingles(text, k))`: a signature keeps
    /// component-wise minima, which are invariant to shingle order and
    /// duplicates, and each shingle hashes the same UTF-8 bytes the
    /// set-based path would. This is the STNS sketching hot path — the
    /// set-based construction allocated one `String` plus a tree node per
    /// shingle per entity name.
    pub fn signature_of(&self, text: &str, k: usize) -> Signature {
        assert!(k >= 1, "shingle size must be >= 1");
        let mut sig = vec![u64::MAX; self.num_perms];
        if text.is_empty() {
            return sig;
        }
        // Byte offset of each char start, plus the end sentinel, so every
        // shingle is a borrowed subslice of `text`.
        let starts: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(text.len()))
            .collect();
        let n_chars = starts.len() - 1;
        if n_chars <= k {
            self.absorb(&mut sig, text.as_bytes());
        } else {
            for w in starts.windows(k + 1) {
                self.absorb(&mut sig, &text.as_bytes()[w[0]..w[k]]);
            }
        }
        sig
    }

    /// Folds one shingle's hash into the running component-wise minima.
    #[inline]
    fn absorb(&self, sig: &mut [u64], shingle: &[u8]) {
        let base = fnv1a(shingle);
        for (slot, &key) in sig.iter_mut().zip(&self.keys) {
            let h = mix_keyed(base, key);
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Estimates Jaccard similarity from two signatures.
    pub fn estimate(&self, a: &Signature, b: &Signature) -> f64 {
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
