//! Deterministic subword hash encoder — the BERT substitute for SENS.
//!
//! The paper's SENS function feeds each entity name through BERT and
//! max-pools the token embeddings into one fixed-dimension vector. For this
//! reproduction the encoder must (i) map each name to a fixed-dimension
//! vector with no training, (ii) place names that share subword material —
//! the signal that makes cross-lingual pairs like "London"/"Londres" align —
//! close together, and (iii) keep unrelated names apart.
//!
//! Feature hashing achieves all three: every token contributes its whole
//! form plus its character n-grams; each feature is hashed to a handful of
//! signed coordinates (a sparse random projection, which preserves inner
//! products in expectation by the Johnson–Lindenstrauss argument); token
//! vectors are L2-normalised and max-pooled exactly as the paper pools BERT
//! token embeddings.

use crate::batch::Texts;
use crate::hashing::{fnv1a, mix};
use crate::normalize::normalize_into;
use crate::tokenize::tokens;
use largeea_common::pool::Pool;
use largeea_tensor::Matrix;

/// Subword feature-hashing name encoder. See the [module docs](self).
///
/// ```
/// use largeea_text::HashEncoder;
///
/// let enc = HashEncoder::new(64, 42);
/// let emb = enc.encode_batch(&["London", "Londres", "Beijing"][..]);
/// let cos = |a: &[f32], b: &[f32]| -> f32 {
///     a.iter().zip(b).map(|(x, y)| x * y).sum()
/// };
/// // shared-root translation is closer than an unrelated name
/// assert!(cos(emb.row(0), emb.row(1)) > cos(emb.row(0), emb.row(2)));
/// ```
#[derive(Debug, Clone)]
pub struct HashEncoder {
    dim: usize,
    seed: u64,
    hashes_per_feature: usize,
}

/// The character n-gram sizes every token contributes beside its whole form.
const NGRAM_SIZES: [usize; 3] = [2, 3, 4];

impl HashEncoder {
    /// Creates an encoder with the given embedding dimension and seed.
    /// Tokens contribute their n-grams of size 2–4, each feature 4 signed
    /// coordinates.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(
            dim >= 8,
            "embedding dimension must be at least 8, got {dim}"
        );
        Self {
            dim,
            seed,
            hashes_per_feature: 4,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scatters one feature into `acc` as `hashes_per_feature` signed
    /// coordinates, weighted by `w`.
    fn scatter(&self, feature: &[u8], w: f32, acc: &mut [f32]) {
        let base = mix(fnv1a(feature), self.seed);
        for j in 0..self.hashes_per_feature {
            let h = mix(
                base,
                self.seed ^ (j as u64).wrapping_mul(0xA24BAED4963EE407),
            );
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            acc[idx] += sign * w;
        }
    }

    /// Encodes one raw entity label into a `dim`-length vector.
    ///
    /// Pipeline: normalise → per-token subword hashing → token L2-norm →
    /// max-pool over tokens (sign-aware: takes the value of largest
    /// magnitude per dimension, which keeps the signed projections useful).
    /// An empty name encodes to the zero vector.
    pub fn encode(&self, raw_name: &str) -> Vec<f32> {
        let mut pooled = vec![0.0f32; self.dim];
        self.encode_into(raw_name, &mut pooled, &mut Scratch::default());
        pooled
    }

    /// [`HashEncoder::encode`] into a caller's row, with buffers the caller
    /// keeps from one name to the next (the normalised name among them).
    fn encode_into(&self, raw_name: &str, pooled: &mut [f32], scratch: &mut Scratch) {
        let Scratch {
            name,
            token_vec,
            padded,
            starts,
        } = scratch;
        normalize_into(raw_name, name);
        pooled.fill(0.0);
        token_vec.resize(self.dim, 0.0);
        for tok in tokens(name) {
            token_vec.fill(0.0);
            self.scatter(tok.as_bytes(), 2.0, token_vec); // whole token, up-weighted

            // Every n-gram of [`char_ngrams`](crate::char_ngrams) is a
            // window of `^tok$`'s bytes between two char boundaries.
            padded.clear();
            padded.push(b'^');
            padded.extend_from_slice(tok.as_bytes());
            padded.push(b'$');
            starts.clear();
            starts.push(0);
            starts.extend(tok.char_indices().map(|(i, _)| i + 1));
            starts.extend([padded.len() - 1, padded.len()]);
            for n in NGRAM_SIZES {
                if starts.len() - 1 <= n {
                    self.scatter(padded, 1.0, token_vec);
                    continue;
                }
                for w in starts.windows(n + 1) {
                    self.scatter(&padded[w[0]..w[n]], 1.0, token_vec);
                }
            }
            let norm = token_vec.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                let inv = 1.0 / norm;
                for (p, &t) in pooled.iter_mut().zip(token_vec.iter()) {
                    let v = t * inv;
                    if v.abs() > p.abs() {
                        *p = v;
                    }
                }
            }
        }
    }

    /// Encodes a batch of labels into a row-per-name matrix with
    /// L2-normalised rows (the paper's `h_e ← h_e / (‖h_e‖₂ + ε)`).
    /// Parallel over name blocks on the global pool.
    pub fn encode_batch(&self, names: impl Texts) -> Matrix {
        self.encode_batch_in(names, Pool::global())
    }

    /// [`HashEncoder::encode_batch`] on an explicit pool, so tests can pin
    /// the width. Each row is encoded independently and rows never span
    /// task boundaries, so results are bit-identical for any thread count.
    pub fn encode_batch_in(&self, names: impl Texts, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(names.count(), self.dim);
        let dim = self.dim;
        pool.rows_mut(out.as_mut_slice(), dim, 64, |block, first_row| {
            let mut scratch = Scratch::default();
            for (ri, row) in block.chunks_mut(dim).enumerate() {
                self.encode_into(names.text(first_row + ri), row, &mut scratch);
            }
        });
        out.l2_normalize_rows(1e-12);
        out
    }
}

/// Buffers [`HashEncoder::encode_into`] reuses across names.
#[derive(Default)]
struct Scratch {
    /// The normalised name.
    name: String,
    /// The token's vector.
    token_vec: Vec<f32>,
    /// The token between its `^`/`$` markers.
    padded: Vec<u8>,
    /// The byte offset of each char of `padded` (plus its length).
    starts: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn enc() -> HashEncoder {
        HashEncoder::new(128, 42)
    }

    #[test]
    fn identical_names_identical_vectors() {
        let e = enc();
        assert_eq!(e.encode("Paris"), e.encode("Paris"));
        // normalisation folds case/diacritics before hashing
        assert_eq!(e.encode("PARIS"), e.encode("paris"));
    }

    #[test]
    fn translated_variant_closer_than_unrelated() {
        let e = enc();
        let london = e.encode("London");
        let londres = e.encode("Londres");
        let tokyo = e.encode("Beijing");
        assert!(
            cosine(&london, &londres) > cosine(&london, &tokyo) + 0.1,
            "shared-root variant should be much closer: {} vs {}",
            cosine(&london, &londres),
            cosine(&london, &tokyo)
        );
    }

    #[test]
    fn multiword_shares_token_signal() {
        let e = enc();
        let a = e.encode("New York City");
        let b = e.encode("City of New York");
        let c = e.encode("Banana Bread Recipe");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn empty_name_is_zero() {
        let e = enc();
        assert!(e.encode("").iter().all(|&x| x == 0.0));
        assert!(e.encode("()").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn batch_rows_are_unit_normalised() {
        let e = enc();
        let m = e.encode_batch(&["Paris", "Berlin", "Londres"][..]);
        for r in 0..3 {
            let n: f32 = m.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "row {r} norm {n}");
        }
    }

    #[test]
    fn batch_matches_single_up_to_normalisation() {
        let e = enc();
        let m = e.encode_batch(&["Tour Eiffel"][..]);
        let mut single = e.encode("Tour Eiffel");
        let n: f32 = single.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut single {
            *x /= n + 1e-12;
        }
        for (a, b) in m.row(0).iter().zip(&single) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let a = HashEncoder::new(64, 1).encode("Paris");
        let b = HashEncoder::new(64, 2).encode("Paris");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn tiny_dim_rejected() {
        HashEncoder::new(4, 0);
    }
}
