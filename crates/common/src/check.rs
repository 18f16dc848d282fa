//! Deterministic randomized-input test harness, replacing `proptest`.
//!
//! `proptest` gave the repo three things: random input generation, many
//! cases per property, and a reproduction path on failure. This harness
//! keeps all three with a fraction of the machinery and zero dependencies:
//!
//! - **Case generation** — [`for_each_case`]`(seed, cases, |rng| …)` runs
//!   the property closure once per case with a fresh [`Rng`] whose seed is
//!   derived from the test's fixed seed and the case index (SplitMix64
//!   mixing), so cases are independent and the whole run is deterministic.
//! - **Failure reporting** — a panicking case is caught, the harness
//!   prints the failing case index and its *case seed*, and the panic is
//!   re-raised so the test still fails.
//! - **Seed replay** — re-run exactly the failing input with
//!   [`replay`]`(CASE_SEED, …)` using the printed seed. There is no
//!   shrinking: inputs here are small by construction (the closures bound
//!   their own sizes), so replaying the one failing case is enough to
//!   debug.
//!
//! - **Hostile input** — [`mutate`] damages a well-formed byte string the
//!   way real files get damaged (cut short, bytes overwritten, separators
//!   lost or doubled, NULs, broken UTF-8, one enormous line), so a reader's
//!   test can demand a typed error or a success, never a panic.
//!
//! ```
//! use largeea_common::check::for_each_case;
//!
//! for_each_case(0xC0FFEE, 64, |rng| {
//!     let n = rng.gen_range(1..100usize);
//!     let mut v: Vec<usize> = (0..n).collect();
//!     rng.shuffle(&mut v);
//!     v.sort_unstable();
//!     assert_eq!(v, (0..n).collect::<Vec<_>>());
//! });
//! ```

use crate::rng::{splitmix64, Rng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Derives the per-case seed for case `case` of a run seeded with `seed`.
///
/// Exposed so a failure printed as "case seed `S`" can also be recomputed
/// from `(seed, case)` if only the index was recorded.
///
/// ```
/// let s = largeea_common::check::case_seed(1, 0);
/// assert_ne!(s, largeea_common::check::case_seed(1, 1));
/// assert_ne!(s, largeea_common::check::case_seed(2, 0));
/// ```
pub fn case_seed(seed: u64, case: u64) -> u64 {
    let mut state = seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Runs `property` once per case with an independent deterministic [`Rng`].
///
/// Case `i` sees the stream of `Rng::seed_from_u64(case_seed(seed, i))`.
/// On panic, prints the case index and case seed to stderr, then re-raises
/// the panic. Reproduce a reported failure with
/// [`replay`]`(<printed case seed>, property)`.
///
/// ```
/// largeea_common::check::for_each_case(7, 16, |rng| {
///     let x = rng.gen_range(0.0f64..1.0);
///     assert!((0.0..1.0).contains(&x));
/// });
/// ```
pub fn for_each_case<F>(seed: u64, cases: u64, property: F)
where
    F: Fn(&mut Rng),
{
    for case in 0..cases {
        let cs = case_seed(seed, case);
        let mut rng = Rng::seed_from_u64(cs);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!(
                "property failed at case {case}/{cases} (case seed {cs:#018x}); \
                 reproduce with largeea_common::check::replay({cs:#018x}, ..)"
            );
            resume_unwind(panic);
        }
    }
}

/// Runs `property` once on exactly the input stream of the case whose
/// *case seed* (as printed by a [`for_each_case`] failure) is `cs`.
///
/// ```
/// use largeea_common::check::{case_seed, replay};
/// use largeea_common::rng::Rng;
/// // the stream replay(cs, ..) feeds the property is the cs-seeded stream
/// let mut expect = Rng::seed_from_u64(case_seed(1, 3));
/// let first = expect.next_u64();
/// replay(case_seed(1, 3), |rng| assert_eq!(rng.next_u64(), first));
/// ```
pub fn replay<F>(cs: u64, property: F)
where
    F: Fn(&mut Rng),
{
    property(&mut Rng::seed_from_u64(cs));
}

/// Draws a string of `min_len..=max_len` chars uniformly from `alphabet`
/// (the replacement for proptest's `"[a-z]{1,8}"`-style regex strategies).
///
/// # Panics
/// Panics if `alphabet` is empty or `min_len > max_len`.
///
/// ```
/// let mut rng = largeea_common::rng::Rng::seed_from_u64(0);
/// let s = largeea_common::check::string_from(&mut rng, "ab", 2, 4);
/// assert!((2..=4).contains(&s.chars().count()));
/// assert!(s.chars().all(|c| c == 'a' || c == 'b'));
/// ```
pub fn string_from(rng: &mut Rng, alphabet: &str, min_len: usize, max_len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    assert!(!chars.is_empty(), "string_from: empty alphabet");
    assert!(min_len <= max_len, "string_from: min_len > max_len");
    let len = rng.gen_range(min_len..=max_len);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// Draws a string of `min_len..=max_len` arbitrary Unicode scalar values
/// (the replacement for proptest's `".{0,24}"` strategy).
///
/// ```
/// let mut rng = largeea_common::rng::Rng::seed_from_u64(0);
/// let s = largeea_common::check::unicode_string(&mut rng, 0, 24);
/// assert!(s.chars().count() <= 24);
/// ```
pub fn unicode_string(rng: &mut Rng, min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..=max_len);
    (0..len).map(|_| unicode_char(rng)).collect()
}

fn unicode_char(rng: &mut Rng) -> char {
    loop {
        // Bias towards ASCII half the time, as proptest's `.` does, so
        // properties still exercise the common paths densely.
        let cp = if rng.gen_bool(0.5) {
            rng.gen_range(0x20u32..0x7F)
        } else {
            rng.gen_range(0u32..=0x10FFFF)
        };
        if let Some(c) = char::from_u32(cp) {
            return c;
        }
    }
}

/// Applies one seeded mutation to `bytes`, a well-formed input of some
/// byte-level reader whose fields are cut by `separators` (e.g. `b"\t\n"`):
/// truncate it, overwrite a few bytes with noise, insert or drop a
/// separator, plant a NUL / a byte no UTF-8 text contains / a dangling
/// UTF-8 lead or continuation byte / a carriage return, repeat a stretch,
/// or blow one spot up with a run of up to `max_run` equal bytes.
///
/// ```
/// use largeea_common::check::mutate;
/// let mut rng = largeea_common::rng::Rng::seed_from_u64(3);
/// let mut text = b"a\tb\nc\td\n".to_vec();
/// for _ in 0..20 {
///     mutate(&mut rng, &mut text, b"\t\n", 64);
/// }
/// assert!(text.len() <= 10 + 20 * 64);
/// ```
pub fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, separators: &[u8], max_run: usize) {
    const PLANTS: [u8; 5] = [0x00, 0xFF, 0xC3, 0x80, b'\r'];
    let at = rng.gen_range(0..=bytes.len());
    let upto = |rng: &mut Rng, n: usize| (at + rng.gen_range(0..=n)).min(bytes.len());
    let separator = |rng: &mut Rng| separators[rng.gen_range(0..separators.len())];
    match rng.gen_range(0..7u32) {
        0 => bytes.truncate(at),
        1 => {
            let noise: Vec<u8> = (0..rng.gen_range(1..8))
                .map(|_| rng.next_u64() as u8)
                .collect();
            bytes.splice(at..upto(rng, 8), noise);
        }
        2 if !separators.is_empty() => bytes.insert(at, separator(rng)),
        3 => {
            // the next separator at or after `at`, if there is one
            if let Some(i) = bytes[at..].iter().position(|b| separators.contains(b)) {
                bytes.remove(at + i);
            }
        }
        4 => bytes.insert(at, PLANTS[rng.gen_range(0..PLANTS.len())]),
        5 => {
            let again = bytes[at..upto(rng, 64)].to_vec();
            bytes.splice(at..at, again);
        }
        _ => {
            let run = vec![rng.gen_range(b'a'..=b'z'); rng.gen_range(0..=max_run)];
            bytes.splice(at..at, run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_is_seeded_and_reaches_every_kind_of_damage() {
        let base = b"k1\tv1\nk2\tv2\n".to_vec();
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut out = Vec::new();
            for _ in 0..400 {
                let mut bytes = base.clone();
                mutate(&mut rng, &mut bytes, b"\t\n", 32);
                out.push(bytes);
            }
            out
        };
        let outs = run(5);
        assert_eq!(outs, run(5), "same seed, same damage");
        let tabs = |b: &[u8]| b.iter().filter(|&&c| c == b'\t').count();
        assert!(outs
            .iter()
            .any(|b| b.len() < base.len() && base.starts_with(b)));
        assert!(outs.iter().any(|b| tabs(b) > 2) && outs.iter().any(|b| tabs(b) < 2));
        assert!(outs.iter().any(|b| b.contains(&0)));
        assert!(outs.iter().any(|b| std::str::from_utf8(b).is_err()));
        assert!(outs.iter().any(|b| b.len() >= base.len() + 24));
        // nothing to cut fields with, nothing to mutate: still no panic
        let mut rng = Rng::seed_from_u64(1);
        let mut empty = Vec::new();
        for _ in 0..100 {
            mutate(&mut rng, &mut empty, b"", 0);
            empty.truncate(4);
        }
    }

    #[test]
    fn runs_exactly_n_cases_with_distinct_seeds() {
        use std::cell::Cell;
        let count = Cell::new(0u64);
        let mut first_draws = Vec::new();
        for_each_case(9, 20, |rng| {
            count.set(count.get() + 1);
            // can't push from Fn closure without interior mutability of Vec;
            // draw recorded via count only
            let _ = rng.next_u64();
        });
        assert_eq!(count.get(), 20);
        for case in 0..20 {
            first_draws.push(Rng::seed_from_u64(case_seed(9, case)).next_u64());
        }
        let mut dedup = first_draws.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), first_draws.len(), "case streams must differ");
    }

    #[test]
    fn replay_reproduces_the_failing_case_stream() {
        // the stream case 13 of run-seed 0xDEAD sees…
        let cs = case_seed(0xDEAD, 13);
        let mut expect = Rng::seed_from_u64(cs);
        let expected: Vec<u64> = (0..8).map(|_| expect.next_u64()).collect();
        // …is exactly what replay(cs, ..) feeds the property
        replay(cs, |rng| {
            for e in &expected {
                assert_eq!(rng.next_u64(), *e);
            }
        });
    }

    #[test]
    fn failing_case_panics_through() {
        let result = std::panic::catch_unwind(|| {
            for_each_case(1, 10, |rng| {
                assert!(rng.gen_range(0..100u32) < 200, "never");
                panic!("boom");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn string_helpers_respect_bounds() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            let s = string_from(&mut rng, "abc ", 0, 12);
            assert!(s.chars().count() <= 12);
            let u = unicode_string(&mut rng, 1, 6);
            assert!((1..=6).contains(&u.chars().count()));
        }
    }
}
