//! Seeded string hashing shared by the encoder, MinHash and LSH.
//!
//! FNV-1a for byte streams plus a SplitMix64 finaliser for deriving families
//! of independent hash functions from one seed. Deterministic across
//! platforms and runs — a requirement for reproducible experiments.

/// FNV-1a over a byte slice (64-bit).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finaliser: decorrelates a hash against a seed, producing the
/// `seed`-th member of a hash family.
#[inline]
pub fn mix(h: u64, seed: u64) -> u64 {
    mix_keyed(h, seed_key(seed))
}

/// The seed's share of [`mix`], for callers that mix many hashes with one
/// seed: `mix(h, seed) == mix_keyed(h, seed_key(seed))`.
#[inline]
pub fn seed_key(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
}

/// [`mix`] with the seed already passed through [`seed_key`].
#[inline]
pub fn mix_keyed(h: u64, key: u64) -> u64 {
    let mut z = h ^ key;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes a string with the `seed`-th member of the family.
#[inline]
pub fn hash_str(s: &str, seed: u64) -> u64 {
    mix(fnv1a(s.as_bytes()), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") = offset basis
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn hash_str_deterministic_and_seed_sensitive() {
        assert_eq!(hash_str("paris", 1), hash_str("paris", 1));
        assert_ne!(hash_str("paris", 1), hash_str("paris", 2));
        assert_ne!(hash_str("paris", 1), hash_str("parys", 1));
    }

    #[test]
    fn mix_spreads_small_inputs() {
        // consecutive inputs should not produce consecutive outputs
        let a = mix(1, 0);
        let b = mix(2, 0);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
