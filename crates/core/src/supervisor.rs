//! Transient-fault supervision: retry, quarantine and graceful degradation
//! (DESIGN.md §S0.7).
//!
//! The pipeline's unit of restartable work is small — one durable write,
//! one mini-batch — so a transient I/O hiccup should cost one retried unit,
//! not a multi-hour DBP1M run. Three nested levels, one retry schedule:
//!
//! 1. **Site**: every store / checkpoint read or write runs under
//!    `retried` (bounded exponential backoff on a virtual clock, seeded
//!    jitter), folding `retry.*` counters into the trace.
//! 2. **Batch**: a structure-channel mini-batch whose I/O exhausts that is
//!    re-executed as a whole (per-batch seeds make the re-run
//!    bit-identical); if it *still* fails and the run allows degradation,
//!    the batch is **quarantined** — recorded in the manifest and the trace
//!    — and the pipeline continues without its similarity block.
//! 3. **Channel**: behind `align --degraded-ok`, a channel lost to I/O
//!    faults degrades the run to the other one, stamped as `degraded.*`
//!    span fields / counters and in [`crate::pipeline::LargeEaReport`].
//!
//! Without `--degraded-ok` the same faults surface typed:
//! [`RunError::Exhausted`] when a transient fault outlived every retry, the
//! original I/O error when it was never retryable; with it but nothing left
//! to degrade *to*, [`RunError::Quarantined`]. `tests/chaos_sweep.rs` holds
//! every registered failpoint × mode to the crash-only invariant.

use crate::checkpoint::CkptError;
use crate::pipeline::RunError;
use largeea_common::obs::Recorder;
use largeea_common::retry::{retry_io, RetryPolicy, Retryable, Transience};
use std::fmt;
use std::io;

/// Site-level supervision: runs one store or checkpoint I/O operation under
/// the run's one retry schedule, `RetryPolicy::default()`, and folds a
/// non-trivial outcome into `rec` as `retry.*` counters. `site` keys the
/// jitter stream and must be a stable logical name (a failpoint name, never
/// a path, which would vary across runs and break trace determinism).
pub(crate) fn retried<T>(
    site: &str,
    rec: &Recorder,
    op: impl FnMut(u32) -> io::Result<T>,
) -> io::Result<T> {
    let (out, stats) = retry_io(&RetryPolicy::default(), site, op);
    stats.record_into(rec);
    out
}

/// A retried unit that failed every allowed attempt — the payload of
/// [`RunError::Exhausted`](crate::pipeline::RunError::Exhausted).
#[derive(Debug)]
pub struct Exhausted {
    /// The logical unit that gave up (`name_channel`, `r0.b2`, …).
    pub site: String,
    /// Total attempts made (including the first).
    pub attempts: u32,
    /// The error the final attempt failed with.
    pub last: Box<RunError>,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries exhausted at {:?} after {} attempts: {}",
            self.site, self.attempts, self.last
        )
    }
}

/// A degraded-mode run with nothing left to degrade *to* — the payload of
/// [`RunError::Quarantined`](crate::pipeline::RunError::Quarantined).
#[derive(Debug)]
pub struct Quarantined {
    /// The units that were lost (channel names and/or batch keys).
    pub units: Vec<String>,
    /// Why the last unit was lost.
    pub why: String,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded run has no usable channel left (quarantined: {}): {}",
            self.units.join(", "),
            self.why
        )
    }
}

/// What a completed run gave up to finish — stamped into the trace
/// (`degraded.*` counters and `pipeline`-span fields) and carried on
/// [`crate::pipeline::LargeEaReport`]. An empty value means a full-fidelity
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradations {
    /// The name channel was lost; fusion ran structure-only.
    pub name_channel: bool,
    /// The structure channel was lost; fusion ran name-only.
    pub structure_channel: bool,
    /// Stage keys of quarantined mini-batches (their similarity blocks are
    /// missing from `M_s`).
    pub quarantined_batches: Vec<String>,
}

impl Degradations {
    /// Whether anything was degraded at all.
    pub fn is_degraded(&self) -> bool {
        self.name_channel || self.structure_channel || !self.quarantined_batches.is_empty()
    }

    /// Every lost unit as a flat list (for reports and error payloads).
    pub fn units(&self) -> Vec<String> {
        let mut u = Vec::new();
        if self.name_channel {
            u.push("name_channel".to_owned());
        }
        if self.structure_channel {
            u.push("structure_channel".to_owned());
        }
        u.extend(self.quarantined_batches.iter().cloned());
        u
    }
}

impl Retryable for RunError {
    /// Only I/O-rooted errors can be transient: an interrupted spill or
    /// checkpoint write is worth re-executing, while budget and
    /// resume-mismatch failures are deterministic — retrying replays the
    /// same failure. `Exhausted` is fatal by construction (its retries are
    /// already spent).
    fn transience(&self) -> Transience {
        match self {
            RunError::Spill(e) => e.transience(),
            RunError::Ckpt(CkptError::Io(e)) => e.transience(),
            _ => Transience::Fatal,
        }
    }
}

/// Whether an error is an I/O *fault* — the class `--degraded-ok` may trade
/// for a quarantined batch or a lost channel. Deterministic failures
/// (budget, resume mismatch) are never degradable: they would recur
/// identically on the surviving work.
pub fn is_io_fault(e: &RunError) -> bool {
    matches!(
        e,
        RunError::Spill(_) | RunError::Ckpt(CkptError::Io(_)) | RunError::Exhausted(_)
    )
}

/// One registered failpoint: its name (what `LARGEEA_FAILPOINTS` arms) and
/// the write site it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointSite {
    /// The failpoint name.
    pub name: &'static str,
    /// Human-readable description of the guarded site.
    pub site: &'static str,
}

/// The authoritative registry of every failpoint in the system — what
/// `largeea failpoints list` prints and what the crash and chaos suites
/// enumerate. Each subsystem contributes the sites it guards, so a write
/// site cannot ship unregistered (and therefore unswept).
pub fn registered_failpoints() -> Vec<FailpointSite> {
    let mut all = crate::checkpoint::failpoints();
    all.push(crate::spill::WRITE_FAILPOINT);
    all.push(FailpointSite {
        name: "live.write",
        site: "live trace snapshot live.trace.json (common::obs sampler)",
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn runerror_transience_follows_the_io_kind() {
        let transient = RunError::Spill(io::Error::new(io::ErrorKind::Interrupted, "flaky"));
        assert_eq!(transient.transience(), Transience::Transient);
        let fatal = RunError::Spill(io::Error::other("disk on fire"));
        assert_eq!(fatal.transience(), Transience::Fatal);
        let ckpt_t = RunError::Ckpt(CkptError::Io(io::Error::new(
            io::ErrorKind::Interrupted,
            "flaky",
        )));
        assert_eq!(ckpt_t.transience(), Transience::Transient);
        let mismatch = RunError::Ckpt(CkptError::Mismatch {
            field: "seed",
            manifest: 1,
            current: 2,
        });
        assert_eq!(mismatch.transience(), Transience::Fatal);
        assert!(!is_io_fault(&mismatch));
        assert!(is_io_fault(&fatal), "fatal I/O is still an I/O fault");
    }

    #[test]
    fn degradations_report_units_in_a_stable_order() {
        let d = Degradations {
            name_channel: true,
            structure_channel: false,
            quarantined_batches: vec!["r0.b1".into(), "r0.b3".into()],
        };
        assert!(d.is_degraded());
        assert_eq!(d.units(), vec!["name_channel", "r0.b1", "r0.b3"]);
        assert!(!Degradations::default().is_degraded());
        assert!(Degradations::default().units().is_empty());
    }

    #[test]
    fn error_payloads_display_their_context() {
        let e = Exhausted {
            site: "r0.b2".into(),
            attempts: 4,
            last: Box::new(RunError::Spill(io::Error::new(
                io::ErrorKind::Interrupted,
                "flaky",
            ))),
        };
        let msg = e.to_string();
        assert!(msg.contains("r0.b2") && msg.contains("4 attempts"), "{msg}");
        let q = Quarantined {
            units: vec!["name_channel".into()],
            why: "spill store: gone".into(),
        };
        assert!(q.to_string().contains("name_channel"), "{}", q);
    }
}
