//! Property-based tests for the text substrate (BERT/datasketch/Levenshtein
//! substitutes).

use largeea::common::check::{for_each_case, string_from, unicode_string};
use largeea::text::hashing::{fnv1a, hash_str, mix};
use largeea::text::jaccard::{jaccard, shingles};
use largeea::text::{
    char_ngrams, levenshtein, levenshtein_bounded, levenshtein_similarity, normalize_name, tokens,
    HashEncoder, LshIndex, MinHasher,
};

#[test]
fn levenshtein_is_a_metric() {
    for_each_case(0x7E01, 128, |rng| {
        let a = unicode_string(rng, 0, 24);
        let b = unicode_string(rng, 0, 24);
        let c = unicode_string(rng, 0, 24);
        // identity
        assert_eq!(levenshtein(&a, &a), 0);
        // symmetry
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // triangle inequality
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    });
}

#[test]
fn levenshtein_bounded_by_longer_string() {
    for_each_case(0x7E02, 128, |rng| {
        let a = unicode_string(rng, 0, 24);
        let b = unicode_string(rng, 0, 24);
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d <= la.max(lb));
        assert!(d >= la.abs_diff(lb));
        let sim = levenshtein_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&sim));
    });
}

#[test]
fn bounded_levenshtein_agrees_with_exact() {
    for_each_case(0x7E03, 128, |rng| {
        let a = string_from(rng, "abcde", 0, 16);
        let b = string_from(rng, "abcde", 0, 16);
        let max_d = rng.gen_range(0..10usize);
        let exact = levenshtein(&a, &b);
        let bounded = levenshtein_bounded(&a, &b, max_d);
        if exact <= max_d {
            assert_eq!(bounded, Some(exact));
        } else {
            assert_eq!(bounded, None);
        }
    });
}

#[test]
fn normalization_is_idempotent_and_case_folded() {
    for_each_case(0x7E04, 128, |rng| {
        let raw = unicode_string(rng, 0, 32);
        let once = normalize_name(&raw);
        assert_eq!(normalize_name(&once), once.clone());
        // every *foldable* character is folded (some uppercase code points,
        // e.g. U+1D400 𝐀, have no lowercase mapping and pass through)
        assert!(once.chars().all(|c| c.to_lowercase().next() == Some(c)));
        // no double spaces, no outer whitespace
        assert!(!once.contains("  "));
        assert_eq!(once.trim(), &once);
    });
}

#[test]
fn jaccard_symmetry_and_bounds() {
    for_each_case(0x7E05, 128, |rng| {
        let a = string_from(rng, "abcdef ", 0, 20);
        let b = string_from(rng, "abcdef ", 0, 20);
        let sa = shingles(&a, 3);
        let sb = shingles(&b, 3);
        let j = jaccard(&sa, &sb);
        assert!((0.0..=1.0).contains(&j));
        assert_eq!(j, jaccard(&sb, &sa));
        assert_eq!(jaccard(&sa, &sa), 1.0);
    });
}

#[test]
fn minhash_estimate_tracks_jaccard() {
    for_each_case(0x7E06, 128, |rng| {
        let a = string_from(rng, "abcdefgh", 6, 24);
        let b = string_from(rng, "abcdefgh", 6, 24);
        let mh = MinHasher::new(256, 7);
        let (sa, sb) = (shingles(&a, 2), shingles(&b, 2));
        let truth = jaccard(&sa, &sb);
        let est = mh.estimate(&mh.signature(&sa), &mh.signature(&sb));
        // 256 permutations: standard error ≈ sqrt(j(1-j)/256) ≤ 0.032
        assert!((truth - est).abs() < 0.17, "true {truth} est {est}");
    });
}

#[test]
fn encoder_is_deterministic_and_bounded() {
    for_each_case(0x7E07, 128, |rng| {
        let name = unicode_string(rng, 0, 32);
        let enc = HashEncoder::new(64, 3);
        let a = enc.encode(&name);
        let b = enc.encode(&name);
        assert_eq!(a.clone(), b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|x| x.is_finite()));
        // max-pooled unit token vectors: coordinates within [-1, 1]
        assert!(a.iter().all(|x| x.abs() <= 1.0 + 1e-5));
    });
}

#[test]
fn lsh_self_query_always_hits() {
    for_each_case(0x7E08, 128, |rng| {
        let name = string_from(rng, "abcdefghijklmnopqrstuvwxyz", 4, 20);
        let mh = MinHasher::new(64, 5);
        let mut idx = LshIndex::with_threshold(64, 0.5);
        let sig = mh.signature(&shingles(&name, 3));
        idx.insert(42, &sig);
        assert!(idx.candidates(&sig).contains(&42));
    });
}

/// The encoder as it was written before it stopped allocating: one `String`
/// per n-gram from `char_ngrams`, hashed with `hash_str`.
fn encode_via_char_ngrams(raw_name: &str, dim: usize, seed: u64) -> Vec<f32> {
    let scatter = |feature: &str, w: f32, acc: &mut [f32]| {
        let base = hash_str(feature, seed);
        for j in 0..4u64 {
            let h = mix(base, seed ^ j.wrapping_mul(0xA24BAED4963EE407));
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            acc[(h % dim as u64) as usize] += sign * w;
        }
    };
    let name = normalize_name(raw_name);
    let mut pooled = vec![0.0f32; dim];
    for tok in tokens(&name) {
        let mut token_vec = vec![0.0f32; dim];
        scatter(tok, 2.0, &mut token_vec);
        for n in [2, 3, 4] {
            for g in char_ngrams(tok, n) {
                scatter(&g, 1.0, &mut token_vec);
            }
        }
        let norm = token_vec.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (p, &t) in pooled.iter_mut().zip(&token_vec) {
                let v = t * (1.0 / norm);
                if v.abs() > p.abs() {
                    *p = v;
                }
            }
        }
    }
    pooled
}

#[test]
fn encoder_bits_equal_the_char_ngram_formulation() {
    for_each_case(0x7E09, 192, |rng| {
        // multi-byte chars, several tokens, tokens shorter than an n-gram
        let raw = unicode_string(rng, 0, 40);
        let (dim, seed) = (rng.gen_range(8..200usize), rng.gen::<u64>());
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let enc = HashEncoder::new(dim, seed);
        let want = bits(encode_via_char_ngrams(&raw, dim, seed));
        assert_eq!(bits(enc.encode(&raw)), want, "{raw:?}");
        // the batch path writes the same vector before normalising rows;
        // a second name in the block exercises the reused buffers
        let batch = enc.encode_batch(&["x y", &raw][..]);
        let mut expect =
            largeea::tensor::Matrix::from_vec(1, dim, encode_via_char_ngrams(&raw, dim, seed));
        expect.l2_normalize_rows(1e-12);
        assert_eq!(bits(batch.row(1).to_vec()), bits(expect.row(0).to_vec()));
    });
}

#[test]
fn minhash_equals_the_unhoisted_seed_formula() {
    for_each_case(0x7E0A, 128, |rng| {
        let text = unicode_string(rng, 0, 24);
        let (perms, seed) = (rng.gen_range(2..40usize), rng.gen::<u64>());
        let k = rng.gen_range(1..5usize);
        // per permutation: its seed, then the minimum over shingles of
        // `mix(fnv1a(shingle), seed)` — every multiply where it used to be
        let set = shingles(&text, k);
        let want: Vec<u64> = (0..perms as u64)
            .map(|i| {
                let perm_seed = mix(i.wrapping_add(0x5851F42D4C957F2D), seed);
                let hashes = set.iter().map(|sh| mix(fnv1a(sh.as_bytes()), perm_seed));
                hashes.min().unwrap_or(u64::MAX)
            })
            .collect();
        let mh = MinHasher::new(perms, seed);
        assert_eq!(mh.signature_of(&text, k), want, "{text:?} k={k}");
        assert_eq!(mh.signature(&set), want, "{text:?} k={k}");
    });
}
