//! Deterministic bounded-exponential-backoff retry (DESIGN.md §S0.7).
//!
//! A transient I/O hiccup mid-run should cost one retried write, not a
//! multi-hour job. This module supplies the retry *executor* used by every
//! durable-write site ([`crate::fsio`], the spill store, checkpoint
//! artifacts): bounded attempts, exponential backoff with seeded jitter,
//! and a [`Transience`] classification that decides what is worth retrying
//! at all.
//!
//! ## Determinism contract
//!
//! The backoff clock is **virtual**: attempts never sleep, they *account*
//! backoff in abstract ticks (1 tick ≈ 1 ms nominal — a deployment wrapper
//! may map ticks to real sleeps; the in-tree pipeline never does, so tests
//! replay bit-identically with no wall-clock dependence). Jitter is a pure
//! function of `(policy seed, site name, attempt)` via splitmix64 — no
//! shared PRNG state — so the tick totals are identical at any thread
//! width and on every replay of the same seed.
//!
//! ## Classification
//!
//! Only [`Transience::Transient`] errors are retried. For `io::Error` the
//! classification is by kind: `Interrupted`, `TimedOut` and `WouldBlock`
//! are transient (the `transient` [`crate::failpoint`] action injects an
//! `Interrupted` error precisely so it lands in this class); everything
//! else — `NotFound`, `InvalidData`, a full disk — is fatal and surfaces
//! immediately.
//!
//! ```
//! use largeea_common::retry::{self, RetryPolicy};
//! use std::io;
//!
//! let mut left = 2; // fail twice, then succeed
//! let (out, stats) = retry::retry_io(&RetryPolicy::default(), "doc.site", |_attempt| {
//!     if left > 0 {
//!         left -= 1;
//!         Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
//!     } else {
//!         Ok(42)
//!     }
//! });
//! assert_eq!(out.unwrap(), 42);
//! assert_eq!(stats.retries, 2);
//! assert!(stats.backoff_ticks > 0 && !stats.gave_up);
//! ```

use crate::obs::Recorder;
use crate::rng::splitmix64;
use std::io;

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transience {
    /// The operation may succeed if simply re-executed (interrupted write,
    /// timeout, injected `transient` failpoint). Retried up to the policy
    /// bound.
    Transient,
    /// Retrying cannot help (corrupt data, missing file, logic error,
    /// exhausted budget). Surfaces immediately.
    Fatal,
}

/// Classification attached to error types so the executor — and callers
/// making degrade-vs-abort decisions — can ask any error which class it is
/// in without knowing its concrete shape.
pub trait Retryable {
    /// This error's [`Transience`] class.
    fn transience(&self) -> Transience;
}

impl Retryable for io::Error {
    fn transience(&self) -> Transience {
        io_transience(self)
    }
}

/// [`Transience`] of an `io::Error`, by kind: `Interrupted` / `TimedOut` /
/// `WouldBlock` are transient, everything else is fatal.
pub fn io_transience(e: &io::Error) -> Transience {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            Transience::Transient
        }
        _ => Transience::Fatal,
    }
}

/// Bounded-exponential-backoff schedule (virtual ticks, seeded jitter).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` ⇒ never retry).
    pub max_attempts: u32,
    /// Backoff after the first failure, in virtual ticks; doubles per
    /// failed attempt.
    pub base_ticks: u64,
    /// Ceiling on the exponential component of a single backoff.
    pub cap_ticks: u64,
    /// Seed for the deterministic jitter (mixed with the site name and the
    /// attempt number — never shared mutable state).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 4 attempts, 8-tick base, 64-tick cap — the schedule documented in
    /// DESIGN.md §S0.7 and exercised by the chaos sweep.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_ticks: 8,
            cap_ticks: 64,
            jitter_seed: 0x5EED_BACC_0FF5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, zero backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_ticks: 0,
            cap_ticks: 0,
            jitter_seed: 0,
        }
    }

    /// Backoff to account after the `attempt`-th failure (1-based):
    /// `min(base · 2^(attempt-1), cap) + jitter(seed, site, attempt)`,
    /// with jitter uniform in `[0, base)`.
    pub fn backoff_ticks(&self, site: &str, attempt: u32) -> u64 {
        let shift = u64::from(attempt.saturating_sub(1)).min(32);
        let exp = self
            .base_ticks
            .saturating_mul(1u64 << shift)
            .min(self.cap_ticks);
        if self.base_ticks == 0 {
            return exp;
        }
        let mut s = self.jitter_seed ^ fnv1a(site) ^ (u64::from(attempt) << 48);
        exp + splitmix64(&mut s) % self.base_ticks
    }
}

/// FNV-1a hash of a site name — a stable, allocation-free way to give each
/// site its own jitter stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a retried operation cost: folded into the trace as the
/// `retry.attempts` / `retry.backoff_ticks` / `retry.gave_up` counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RetryStats {
    /// Failed attempts that were followed by a retry.
    pub retries: u64,
    /// Total virtual backoff accounted across those retries.
    pub backoff_ticks: u64,
    /// Whether the operation still failed after the last allowed attempt.
    pub gave_up: bool,
}

impl RetryStats {
    /// Emits the `retry.*` counters for a non-trivial outcome (a clean
    /// first-attempt success records nothing, keeping fault-free traces
    /// byte-identical to pre-retry ones).
    pub fn record_into(&self, rec: &Recorder) {
        if self.retries > 0 {
            rec.add("retry.attempts", self.retries);
            rec.add("retry.backoff_ticks", self.backoff_ticks);
        }
        if self.gave_up {
            rec.add("retry.gave_up", 1);
        }
    }

    /// Accumulates another operation's stats into this one.
    pub fn absorb(&mut self, other: &RetryStats) {
        self.retries += other.retries;
        self.backoff_ticks += other.backoff_ticks;
        self.gave_up |= other.gave_up;
    }
}

/// Runs `op` under `policy`, retrying [`Transience::Transient`] failures
/// with bounded exponential backoff. `op` receives the 1-based attempt
/// number. Returns the final result plus the [`RetryStats`] the caller
/// should fold into its recorder.
pub fn with_retry<T, E: Retryable>(
    policy: &RetryPolicy,
    site: &str,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> (Result<T, E>, RetryStats) {
    let mut stats = RetryStats::default();
    let max = policy.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match op(attempt) {
            Ok(v) => return (Ok(v), stats),
            Err(e) => {
                if e.transience() == Transience::Fatal {
                    return (Err(e), stats);
                }
                if attempt >= max {
                    stats.gave_up = true;
                    return (Err(e), stats);
                }
                stats.retries += 1;
                stats.backoff_ticks += policy.backoff_ticks(site, attempt);
                attempt += 1;
            }
        }
    }
}

/// [`with_retry`] specialised to `io::Result`, classifying by
/// [`io_transience`].
pub fn retry_io<T>(
    policy: &RetryPolicy,
    site: &str,
    op: impl FnMut(u32) -> io::Result<T>,
) -> (io::Result<T>, RetryStats) {
    with_retry(policy, site, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient_err() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "injected transient")
    }

    #[test]
    fn first_attempt_success_records_nothing() {
        let (out, stats) = retry_io(&RetryPolicy::default(), "s", |_| Ok(1));
        assert_eq!(out.unwrap(), 1);
        assert_eq!(stats, RetryStats::default());
    }

    #[test]
    fn fatal_errors_are_never_retried() {
        let mut calls = 0;
        let (out, stats) = retry_io::<()>(&RetryPolicy::default(), "s", |_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert_eq!(stats.retries, 0);
        assert!(!stats.gave_up, "fatal is not exhaustion");
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let mut left = 3;
        let policy = RetryPolicy::default();
        let (out, stats) = retry_io(&policy, "s", |attempt| {
            assert!(attempt >= 1);
            if left > 0 {
                left -= 1;
                Err(transient_err())
            } else {
                Ok("done")
            }
        });
        assert_eq!(out.unwrap(), "done");
        assert_eq!(stats.retries, 3);
        assert!(!stats.gave_up);
        let expected: u64 = (1..=3).map(|a| policy.backoff_ticks("s", a)).sum();
        assert_eq!(stats.backoff_ticks, expected);
    }

    #[test]
    fn exhaustion_gives_up_with_the_last_error() {
        let mut calls = 0u32;
        let (out, stats) = retry_io::<()>(&RetryPolicy::default(), "s", |_| {
            calls += 1;
            Err(transient_err())
        });
        assert_eq!(calls, 4, "max_attempts total attempts");
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(stats.retries, 3);
        assert!(stats.gave_up);
    }

    #[test]
    fn none_policy_is_a_single_attempt() {
        let mut calls = 0;
        let (out, stats) = retry_io::<()>(&RetryPolicy::none(), "s", |_| {
            calls += 1;
            Err(transient_err())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert!(stats.gave_up);
        assert_eq!(stats.backoff_ticks, 0);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::default();
        for attempt in 1..=8 {
            let a = p.backoff_ticks("site.a", attempt);
            assert_eq!(a, p.backoff_ticks("site.a", attempt), "pure function");
            let exp = (p.base_ticks << u64::from(attempt - 1)).min(p.cap_ticks);
            assert!(a >= exp && a < exp + p.base_ticks, "jitter in [0, base)");
        }
        // distinct sites draw distinct jitter streams
        assert_ne!(
            p.backoff_ticks("site.a", 1),
            p.backoff_ticks("site.b", 1),
            "site-keyed jitter (true for these names under the default seed)"
        );
    }

    #[test]
    fn io_classification_by_kind() {
        assert_eq!(io_transience(&transient_err()), Transience::Transient);
        assert_eq!(
            io_transience(&io::Error::new(io::ErrorKind::TimedOut, "t")),
            Transience::Transient
        );
        assert_eq!(
            io_transience(&io::Error::other("disk on fire")),
            Transience::Fatal
        );
        assert_eq!(
            io_transience(&io::Error::new(io::ErrorKind::InvalidData, "torn")),
            Transience::Fatal
        );
    }

    #[test]
    fn stats_absorb_and_record() {
        use crate::obs::{ObsConfig, Recorder};
        let mut a = RetryStats {
            retries: 2,
            backoff_ticks: 24,
            gave_up: false,
        };
        a.absorb(&RetryStats {
            retries: 1,
            backoff_ticks: 8,
            gave_up: true,
        });
        assert_eq!(a.retries, 3);
        assert_eq!(a.backoff_ticks, 32);
        assert!(a.gave_up);

        let rec = Recorder::new(ObsConfig::default());
        a.record_into(&rec);
        RetryStats::default().record_into(&rec); // no-op
        let trace = rec.trace();
        assert_eq!(trace.counter("retry.attempts"), 3);
        assert_eq!(trace.counter("retry.backoff_ticks"), 32);
        assert_eq!(trace.counter("retry.gave_up"), 1);
    }
}
