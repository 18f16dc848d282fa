//! Locality-sensitive hashing over MinHash signatures (banding scheme).
//!
//! STNS only needs candidate pairs whose Jaccard similarity clears a
//! threshold θ; LSH banding finds them without comparing all `|E_s|·|E_t|`
//! pairs. With `b` bands of `r` rows the probability a pair of similarity
//! `s` collides in at least one band is `1 − (1 − s^r)^b`, an S-curve whose
//! inflection sits near `(1/b)^{1/r}`; [`LshIndex::with_threshold`] picks
//! `(b, r)` to put that inflection at θ, like datasketch does.

use crate::hashing::mix;

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// An LSH index over MinHash signatures, in flat arrays: an insert appends
/// one entry per band (entry `e` is insert `e / bands`, band `e % bands`),
/// chained from its band's table of `slots` heads by the low bits of its
/// key, which is already a [`mix`]ed hash. No allocation per bucket. An
/// index [`LshIndex::reserve`]d for its inserts holds exactly
/// [`LshIndex::max_bytes`]; one that grows doubles its arrays and relinks
/// every entry each time the inserts outnumber the slots.
#[derive(Debug)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    /// Per insert: its id.
    ids: Vec<u32>,
    /// Per entry: its band key, and the next entry of its chain or [`NIL`].
    keys: Vec<u64>,
    next: Vec<u32>,
    /// `bands` tables of `slots` chain heads; `slots` is a power of two.
    heads: Vec<u32>,
    slots: usize,
}

impl LshIndex {
    /// Creates an index with an explicit banding layout.
    /// `bands * rows` must equal the signature length used at insert time.
    fn new(bands: usize, rows: usize) -> Self {
        assert!(bands >= 1 && rows >= 1, "bands and rows must be positive");
        Self {
            bands,
            rows,
            ids: Vec::new(),
            keys: Vec::new(),
            next: Vec::new(),
            heads: vec![NIL; bands],
            slots: 1,
        }
    }

    /// Picks the banding layout whose collision S-curve has its threshold
    /// closest to `theta`, among all factorisations of `num_perms`.
    pub fn with_threshold(num_perms: usize, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must lie in [0,1]");
        let mut best = (1usize, num_perms, f64::INFINITY);
        for rows in 1..=num_perms {
            if !num_perms.is_multiple_of(rows) {
                continue;
            }
            let bands = num_perms / rows;
            let t = (1.0 / bands as f64).powf(1.0 / rows as f64);
            let err = (t - theta).abs();
            if err < best.2 {
                best = (bands, rows, err);
            }
        }
        Self::new(best.0, best.1)
    }

    /// Banding layout `(bands, rows)`.
    pub fn layout(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// The bytes an empty index [`LshIndex::reserve`]d for `n` inserts
    /// holds, to the byte: per insert its id and `bands` entries of a key
    /// and a link, and `bands` head tables of `n` rounded up to a power of
    /// two slots. What a caller keeping a memory budget asks for before it
    /// builds one.
    pub fn max_bytes(&self, n: usize) -> usize {
        let entry = std::mem::size_of::<u64>() + std::mem::size_of::<u32>();
        n * (std::mem::size_of::<u32>() + self.bands * entry)
            + self.bands * n.next_power_of_two() * std::mem::size_of::<u32>()
    }

    /// Sizes the index for `n` more inserts at once, so they grow no array
    /// and relink nothing.
    pub fn reserve(&mut self, n: usize) {
        let total = self.ids.len() + n;
        self.ids.reserve_exact(n);
        self.keys.reserve_exact(n * self.bands);
        self.next.reserve_exact(n * self.bands);
        self.resize_slots(total.next_power_of_two().max(self.slots));
    }

    /// Gives every band's table `slots` heads and relinks every entry.
    fn resize_slots(&mut self, slots: usize) {
        if slots == self.slots {
            return;
        }
        self.slots = slots;
        self.heads.clear();
        self.heads.reserve_exact(self.bands * slots);
        self.heads.resize(self.bands * slots, NIL);
        for e in 0..self.keys.len() {
            self.link(e);
        }
    }

    /// Where band `band`'s chain for `key` starts in `heads`.
    fn slot(&self, band: usize, key: u64) -> usize {
        band * self.slots + (key as usize & (self.slots - 1))
    }

    /// Puts entry `e` at the front of its chain.
    fn link(&mut self, e: usize) {
        let slot = self.slot(e % self.bands, self.keys[e]);
        self.next[e] = std::mem::replace(&mut self.heads[slot], e as u32);
    }

    /// Inserts `id` with its signature. When the inserts outnumber the
    /// slots, every band's table doubles and all entries are relinked.
    pub fn insert(&mut self, id: u32, sig: &[u64]) {
        let keys = band_keys(self.bands, self.rows, sig);
        if self.ids.len() == self.slots {
            self.resize_slots(2 * self.slots);
        }
        self.ids.push(id);
        for key in keys {
            assert!(self.keys.len() < NIL as usize, "LSH index is full");
            self.keys.push(key);
            self.next.push(NIL);
            self.link(self.keys.len() - 1);
        }
    }

    /// All ids that share at least one band bucket with `sig`, deduplicated,
    /// in ascending order.
    pub fn candidates(&self, sig: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        for (band, key) in band_keys(self.bands, self.rows, sig).enumerate() {
            let mut e = self.heads[self.slot(band, key)];
            while e != NIL {
                if self.keys[e as usize] == key {
                    out.push(self.ids[e as usize / self.bands]);
                }
                e = self.next[e as usize];
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One key per band: the band's `rows` signature values hashed together
/// under the band's own seed.
fn band_keys(bands: usize, rows: usize, sig: &[u64]) -> impl Iterator<Item = u64> + '_ {
    assert_eq!(
        sig.len(),
        bands * rows,
        "signature length {} != bands*rows {}",
        sig.len(),
        bands * rows
    );
    sig.chunks(rows).enumerate().map(|(b, chunk)| {
        let mut h = 0xcbf29ce484222325u64;
        for &v in chunk {
            h = mix(h ^ v, b as u64 + 1);
        }
        h
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::seed_key;
    use crate::jaccard::shingles;
    use crate::minhash::{MinHasher, Signature};
    use largeea_common::check::for_each_case;
    use largeea_common::rng::Rng;
    use std::collections::HashMap;

    #[test]
    fn threshold_layout_multiplies_back() {
        let idx = LshIndex::with_threshold(128, 0.5);
        let (b, r) = idx.layout();
        assert_eq!(b * r, 128);
        let t = (1.0 / b as f64).powf(1.0 / r as f64);
        assert!((t - 0.5).abs() < 0.2, "threshold landed at {t}");
    }

    #[test]
    fn near_duplicates_are_candidates() {
        let mh = MinHasher::new(128, 9);
        let mut idx = LshIndex::with_threshold(128, 0.5);
        let names = ["london", "londres", "londonn", "reykjavik", "yokohama"];
        for (i, n) in names.iter().enumerate() {
            idx.insert(i as u32, &mh.signature(&shingles(n, 3)));
        }
        let cands = idx.candidates(&mh.signature(&shingles("london", 3)));
        assert!(cands.contains(&0));
        assert!(cands.contains(&2), "londonn should collide: {cands:?}");
        assert!(!cands.contains(&3), "reykjavik should not collide");
    }

    #[test]
    fn identical_strings_always_collide() {
        let mh = MinHasher::new(64, 1);
        let mut idx = LshIndex::with_threshold(64, 0.8);
        let sig = mh.signature(&shingles("exact match", 3));
        idx.insert(42, &sig);
        assert_eq!(idx.candidates(&sig), vec![42]);
    }

    #[test]
    fn candidates_deduplicated_and_sorted() {
        let mh = MinHasher::new(32, 2);
        let mut idx = LshIndex::new(8, 4);
        let sig = mh.signature(&shingles("aaa", 2));
        idx.insert(7, &sig);
        idx.insert(3, &sig);
        let c = idx.candidates(&sig);
        assert_eq!(c, vec![3, 7]);
    }

    /// The index as it was before it went flat: one `Vec` of ids per
    /// `(band, key)` bucket behind a `HashMap`.
    struct BucketMap {
        layout: (usize, usize),
        buckets: HashMap<(usize, u64), Vec<u32>>,
    }

    impl BucketMap {
        fn insert(&mut self, id: u32, sig: &Signature) {
            for key in band_keys(self.layout.0, self.layout.1, sig).enumerate() {
                self.buckets.entry(key).or_default().push(id);
            }
        }

        fn candidates(&self, sig: &Signature) -> Vec<u32> {
            let mut out: Vec<u32> = band_keys(self.layout.0, self.layout.1, sig)
                .enumerate()
                .filter_map(|key| self.buckets.get(&key))
                .flatten()
                .copied()
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    #[test]
    fn flat_index_answers_like_the_bucket_map() {
        for_each_case(0x15B, 96, |rng| {
            let (bands, rows) = (rng.gen_range(1..7usize), rng.gen_range(1..4usize));
            let mut flat = LshIndex::new(bands, rows);
            let mut oracle = BucketMap {
                layout: (bands, rows),
                buckets: HashMap::new(),
            };
            // Few distinct values, so whole bands collide all the time. With
            // one row per band the key of band `b` is a bijection of
            // `v ^ seed_key(b + 1)`: a value offered to band `b` as
            // `x ^ seed_key(b' + 1)` gets the key band `b'` gives
            // `x ^ seed_key(b + 1)` — one 64-bit key in two bands, which
            // only collides if the index forgets which band it came from.
            let value = |rng: &mut Rng| {
                let x = rng.gen_range(0..4u64);
                match rows {
                    1 => x ^ seed_key(rng.gen_range(0..bands as u64) + 1),
                    _ => x,
                }
            };
            let mut seen: Vec<Signature> = vec![vec![u64::MAX; bands * rows]]; // an empty name's
            for _ in 0..rng.gen_range(1..80usize) {
                let sig = match rng.gen_range(0..4u32) {
                    0 => seen[rng.gen_range(0..seen.len())].clone(), // exact duplicate
                    _ => (0..bands * rows).map(|_| value(rng)).collect(),
                };
                if rng.gen_range(0..3u32) > 0 {
                    let id = rng.gen_range(0..1000u32); // out of order, repeats allowed
                    flat.insert(id, &sig);
                    oracle.insert(id, &sig);
                }
                assert_eq!(flat.candidates(&sig), oracle.candidates(&sig));
                seen.push(sig);
            }
            for sig in &seen {
                assert_eq!(flat.candidates(sig), oracle.candidates(sig));
            }
        });
    }

    #[test]
    fn a_reserved_index_answers_like_a_grown_one_in_exactly_its_bytes() {
        let mh = MinHasher::new(32, 4);
        let names: Vec<String> = (0..300).map(|i| format!("name {}", i % 97)).collect();
        let sigs: Vec<Signature> = names.iter().map(|n| mh.signature_of(n, 3)).collect();
        let mut grown = LshIndex::new(8, 4);
        let mut reserved = LshIndex::new(8, 4);
        reserved.reserve(sigs.len());
        for (i, sig) in sigs.iter().enumerate() {
            grown.insert(i as u32, sig);
            reserved.insert(i as u32, sig);
        }
        for sig in &sigs {
            assert_eq!(reserved.candidates(sig), grown.candidates(sig));
        }
        let held = reserved.ids.capacity() * 4
            + reserved.keys.capacity() * 8
            + reserved.next.capacity() * 4
            + reserved.heads.capacity() * 4;
        assert_eq!(held, reserved.max_bytes(sigs.len()));
        assert_eq!(reserved.slots, grown.slots, "the same tables either way");
    }

    #[test]
    #[should_panic(expected = "signature length")]
    fn wrong_signature_length_panics() {
        let mut idx = LshIndex::new(4, 4);
        idx.insert(0, &[1, 2, 3]);
    }
}
