//! Byte accounting — the stand-in for the paper's GPU-memory metric, and
//! the enforcement point for `--mem-budget` (DESIGN.md §S0.8).
//!
//! The paper reports "maximum GPU memory cost" per channel (Table 6,
//! measured with NVIDIA Nsight). This reproduction trains on the CPU, so
//! the analogous quantity is the peak bytes of live model state, feature
//! matrices and similarity blocks. Components report their allocations to a
//! [`MemTracker`]; the harness reads per-label peaks.
//!
//! For out-of-core runs the tracker additionally maintains a **total**
//! (sum over labels) and an optional hard budget: [`MemTracker::charge`]
//! returns a typed [`BudgetExceeded`] error the moment the tracked total
//! would pass the budget, so the pipeline fails fast instead of thrashing.
//!
//! Updates take `&str` labels and only allocate the label string the first
//! time a label is seen; the per-update hot path is a map lookup, not a
//! `String` allocation (labels here are `'static` literals in practice,
//! but the map must own its keys, so first-touch interns them).

use largeea_common::obs::Recorder;
use std::collections::BTreeMap;

/// Tracks the current and peak bytes of named components, plus the
/// across-label total, against an optional hard budget.
#[derive(Debug, Default, Clone)]
pub struct MemTracker {
    current: BTreeMap<String, usize>,
    peak: BTreeMap<String, usize>,
    total_current: usize,
    total_peak: usize,
    budget: Option<usize>,
}

/// Typed error for a [`MemTracker::charge`] that would exceed the budget.
///
/// Carries enough context to print an actionable message: which label was
/// being charged, how many bytes the charge asked for, what the tracked
/// total reached, and what the budget was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The label being charged when the budget was crossed.
    pub label: String,
    /// The size of the offending charge, in bytes.
    pub requested: usize,
    /// The tracked total after the charge, in bytes.
    pub tracked: usize,
    /// The configured budget, in bytes.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: charging {} to {:?} brings tracked bytes \
             to {} > budget {} — raise --mem-budget or shrink the workload",
            largeea_common::fmt_bytes(self.requested),
            self.label,
            largeea_common::fmt_bytes(self.tracked),
            largeea_common::fmt_bytes(self.budget),
        )
    }
}

impl std::error::Error for BudgetExceeded {}

impl MemTracker {
    /// An empty tracker with no budget (tracking only, never errors).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tracker with an optional budget (`None` = tracking only).
    pub fn with_budget_opt(budget: Option<usize>) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }

    /// Writes `bytes` into `label`'s current slot (allocating the label key
    /// only on first touch), returns the previous value, and refreshes the
    /// per-label and total peaks.
    fn update_current(&mut self, label: &str, bytes: usize) {
        let old = match self.current.get_mut(label) {
            Some(slot) => std::mem::replace(slot, bytes),
            None => {
                self.current.insert(label.to_owned(), bytes);
                0
            }
        };
        self.total_current = self.total_current - old + bytes;
        self.total_peak = self.total_peak.max(self.total_current);
        match self.peak.get_mut(label) {
            Some(p) => *p = (*p).max(bytes),
            None => {
                self.peak.insert(label.to_owned(), bytes);
            }
        }
    }

    /// Sets the live byte count of `label`, updating its peak.
    pub fn set(&mut self, label: &str, bytes: usize) {
        self.update_current(label, bytes);
    }

    /// Adds to the live byte count of `label`, updating its peak; fails
    /// with a typed [`BudgetExceeded`] if the tracked total passes the
    /// budget. The charge is still recorded either way, so the trace of a
    /// failed run shows the peak that broke the budget.
    pub fn charge(&mut self, label: &str, bytes: usize) -> Result<(), BudgetExceeded> {
        self.update_current(label, self.current(label) + bytes);
        match self.budget {
            Some(budget) if self.total_current > budget => Err(BudgetExceeded {
                label: label.to_owned(),
                requested: bytes,
                tracked: self.total_current,
                budget,
            }),
            _ => Ok(()),
        }
    }

    /// Checks the budget without changing any counts: errors if the tracked
    /// total already exceeds the budget. Pair with [`MemTracker::set`] when
    /// a component replaces (rather than grows) its live state and wants
    /// the replacement validated.
    pub fn enforce(&self, label: &str, requested: usize) -> Result<(), BudgetExceeded> {
        match self.budget {
            Some(budget) if self.total_current > budget => Err(BudgetExceeded {
                label: label.to_owned(),
                requested,
                tracked: self.total_current,
                budget,
            }),
            _ => Ok(()),
        }
    }

    /// Reverses (part of) a charge: subtracts `bytes` from `label`'s
    /// current count, saturating at zero. Peaks are kept.
    pub fn uncharge(&mut self, label: &str, bytes: usize) {
        let now = self
            .current
            .get(label)
            .copied()
            .unwrap_or(0)
            .saturating_sub(bytes);
        self.update_current(label, now);
    }

    /// Marks `label` as released (current = 0; peak is kept).
    pub fn release(&mut self, label: &str) {
        self.update_current(label, 0);
    }

    /// The current live bytes of `label` (0 if never set).
    pub fn current(&self, label: &str) -> usize {
        self.current.get(label).copied().unwrap_or(0)
    }

    /// The peak bytes recorded for `label` (0 if never set).
    pub fn peak(&self, label: &str) -> usize {
        self.peak.get(label).copied().unwrap_or(0)
    }

    /// The current tracked total across all labels.
    pub fn total_current(&self) -> usize {
        self.total_current
    }

    /// The peak of the tracked total across all labels. Note this is the
    /// peak of the *sum*, not the sum of per-label peaks: labels that are
    /// never live at the same time do not inflate it.
    pub fn total_peak(&self) -> usize {
        self.total_peak
    }

    /// Folds every per-label peak into `rec` as a `mem.<label>.peak_bytes`
    /// gauge (peak semantics: repeated folds keep the maximum), so time and
    /// memory land in one trace artifact. The total peak is folded as
    /// `mem.tracked.peak_bytes`.
    pub fn record_into(&self, rec: &Recorder) {
        for (label, &bytes) in &self.peak {
            rec.gauge_max(&format!("mem.{label}.peak_bytes"), bytes as f64);
        }
        rec.gauge_max("mem.tracked.peak_bytes", self.total_peak as f64);
    }

    /// Compares the tracked total peak against a *measured* peak from the
    /// instrumented allocator (`--mem-audit`, DESIGN.md §S0.10).
    ///
    /// The tracker counts the big, hand-charged buffers (embeddings,
    /// similarity blocks, spill buffers); the allocator measures every
    /// byte, including ones nobody charges (graph structures, trainer
    /// scratch, the trace arena). The audit therefore allows measured to
    /// exceed tracked by a factor of [`AUDIT_RATIO`] plus
    /// [`AUDIT_SLACK_BYTES`] of flat slack before calling the books broken
    /// in the [`MemAuditError::Untracked`] direction; tracked exceeding
    /// measured by more than the slack is [`MemAuditError::Overcounted`]
    /// (charges that never materialised as allocations).
    pub fn audit(&self, measured_peak: usize) -> Result<(), MemAuditError> {
        let tracked = self.total_peak;
        let allowed = (tracked as f64 * AUDIT_RATIO) as usize + AUDIT_SLACK_BYTES;
        if measured_peak > allowed {
            return Err(MemAuditError::Untracked {
                tracked,
                measured: measured_peak,
                allowed,
            });
        }
        let allowed_tracked = measured_peak + AUDIT_SLACK_BYTES;
        if tracked > allowed_tracked {
            return Err(MemAuditError::Overcounted {
                tracked,
                measured: measured_peak,
                allowed: allowed_tracked,
            });
        }
        Ok(())
    }
}

/// Measured-vs-tracked drift factor the audit tolerates: measured may be up
/// to this multiple of the tracked peak (plus slack) before the audit fails.
/// Untracked overhead — graph indices, trainer scratch, allocator slop — is
/// real but bounded; a forgotten `charge` on a major buffer is not.
pub const AUDIT_RATIO: f64 = 2.0;

/// Flat allowance added on both sides of the audit, covering fixed
/// overheads that don't scale with the workload (the trace arena, thread
/// stacks' heap spill, stdlib one-time allocations).
pub const AUDIT_SLACK_BYTES: usize = 64 << 20;

/// Typed error for a failed `--mem-audit` (see [`MemTracker::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemAuditError {
    /// The instrumented allocator is not installed in this process, so
    /// there is no measured ground truth to audit against.
    Uninstrumented,
    /// Measured heap peak exceeds what the tracked peak can explain — some
    /// allocation is missing its `MemTracker::charge`.
    Untracked {
        /// MemTracker's total peak, in bytes.
        tracked: usize,
        /// The allocator-measured peak, in bytes.
        measured: usize,
        /// The maximum measured peak the tracked peak could explain.
        allowed: usize,
    },
    /// Tracked peak exceeds the measured peak by more than the slack —
    /// charges were recorded for memory that was never actually allocated.
    Overcounted {
        /// MemTracker's total peak, in bytes.
        tracked: usize,
        /// The allocator-measured peak, in bytes.
        measured: usize,
        /// The maximum tracked peak the measured peak could explain.
        allowed: usize,
    },
}

impl std::fmt::Display for MemAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemAuditError::Uninstrumented => write!(
                f,
                "mem-audit: the instrumented allocator is not installed in \
                 this process (no allocation has been counted) — run via the \
                 largeea binary, which installs common::alloc::CountingAlloc"
            ),
            MemAuditError::Untracked {
                tracked,
                measured,
                allowed,
            } => write!(
                f,
                "mem-audit: measured heap peak {} exceeds what the tracked \
                 peak {} explains (allowed up to {}) — an allocation is \
                 missing its MemTracker charge",
                largeea_common::fmt_bytes(*measured),
                largeea_common::fmt_bytes(*tracked),
                largeea_common::fmt_bytes(*allowed),
            ),
            MemAuditError::Overcounted {
                tracked,
                measured,
                allowed,
            } => write!(
                f,
                "mem-audit: tracked peak {} exceeds the measured heap peak \
                 {} by more than the slack (allowed up to {}) — a charge was \
                 recorded for memory never actually allocated",
                largeea_common::fmt_bytes(*tracked),
                largeea_common::fmt_bytes(*measured),
                largeea_common::fmt_bytes(*allowed),
            ),
        }
    }
}

impl std::error::Error for MemAuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_survives_release() {
        let mut t = MemTracker::new();
        t.set("model", 100);
        t.set("model", 300);
        t.set("model", 50);
        assert_eq!(t.peak("model"), 300);
        t.release("model");
        assert_eq!(t.peak("model"), 300);
    }

    #[test]
    fn charge_accumulates() {
        let mut t = MemTracker::new();
        t.charge("sim", 10).unwrap();
        t.charge("sim", 20).unwrap();
        assert_eq!(t.peak("sim"), 30);
    }

    #[test]
    fn unknown_label_is_zero() {
        assert_eq!(MemTracker::new().peak("nope"), 0);
        assert_eq!(MemTracker::new().current("nope"), 0);
    }

    #[test]
    fn audit_tolerates_bounded_drift_and_types_the_failures() {
        let mut t = MemTracker::new();
        t.set("emb", 100 << 20); // tracked peak 100 MiB

        // measured within ratio * tracked + slack → ok
        t.audit(150 << 20).unwrap();
        t.audit((200 << 20) + (64 << 20)).unwrap(); // exactly at the bound
                                                    // just past the bound → Untracked
        let err = t.audit((200 << 20) + (64 << 20) + 1).unwrap_err();
        match err {
            MemAuditError::Untracked {
                tracked,
                measured,
                allowed,
            } => {
                assert_eq!(tracked, 100 << 20);
                assert_eq!(measured, (264 << 20) + 1);
                assert_eq!(allowed, 264 << 20);
            }
            other => panic!("expected Untracked, got {other:?}"),
        }

        // tracked way above measured → Overcounted
        let err = t.audit(10 << 20).unwrap_err();
        assert!(matches!(err, MemAuditError::Overcounted { .. }), "{err:?}");

        // both directions carry actionable messages
        assert!(t.audit(1 << 30).unwrap_err().to_string().contains("charge"));
        assert!(MemAuditError::Uninstrumented
            .to_string()
            .contains("allocator"));
    }

    #[test]
    fn audit_on_empty_tracker_accepts_only_slack() {
        let t = MemTracker::new();
        t.audit(AUDIT_SLACK_BYTES).unwrap();
        assert!(matches!(
            t.audit(AUDIT_SLACK_BYTES + 1),
            Err(MemAuditError::Untracked { .. })
        ));
    }

    #[test]
    fn charge_after_release_restarts_from_zero() {
        let mut t = MemTracker::new();
        t.charge("sim", 40).unwrap();
        t.release("sim");
        t.charge("sim", 10).unwrap();
        // current restarted at 0 + 10, but the peak remembers 40
        assert_eq!(t.peak("sim"), 40);
        t.charge("sim", 35).unwrap();
        assert_eq!(t.peak("sim"), 45, "post-release growth can set a new peak");
    }

    #[test]
    fn set_then_charge_compose() {
        let mut t = MemTracker::new();
        t.set("model", 100);
        t.charge("model", 50).unwrap();
        assert_eq!(t.peak("model"), 150);
        t.set("model", 20);
        assert_eq!(t.peak("model"), 150, "set below peak keeps the peak");
    }

    #[test]
    fn release_of_unknown_label_is_benign() {
        let mut t = MemTracker::new();
        t.release("never_set");
        assert_eq!(t.peak("never_set"), 0);
        assert_eq!(t.total_peak(), 0);
    }

    #[test]
    fn record_into_exports_peaks_as_gauges() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let mut t = MemTracker::new();
        t.set("name_channel", 1000);
        t.set("structure_channel", 2000);
        t.release("name_channel");
        let rec = Recorder::new(ObsConfig::default());
        t.record_into(&rec);
        let trace = rec.trace();
        assert_eq!(trace.gauge("mem.name_channel.peak_bytes"), Some(1000.0));
        assert_eq!(
            trace.gauge("mem.structure_channel.peak_bytes"),
            Some(2000.0)
        );
        // folding a second tracker keeps per-label maxima
        let mut t2 = MemTracker::new();
        t2.set("name_channel", 500);
        t2.set("structure_channel", 9000);
        t2.record_into(&rec);
        let trace = rec.trace();
        assert_eq!(trace.gauge("mem.name_channel.peak_bytes"), Some(1000.0));
        assert_eq!(
            trace.gauge("mem.structure_channel.peak_bytes"),
            Some(9000.0)
        );
    }

    // --- total / budget semantics -----------------------------------------

    #[test]
    fn total_peak_is_the_peak_of_the_sum() {
        let mut t = MemTracker::new();
        t.set("a", 100); // total 100
        t.set("b", 50); // total 150 <- peak of the sum
        t.release("a"); // total 50
        t.set("b", 120); // total 120 (a released: never co-resident)
        assert_eq!(t.total_current(), 120);
        assert_eq!(t.total_peak(), 150);
        // per-label peaks are unchanged by totals
        assert_eq!(t.peak("a"), 100);
        assert_eq!(t.peak("b"), 120);
    }

    #[test]
    fn charge_within_budget_succeeds_and_uncharge_reverses() {
        let mut t = MemTracker::with_budget_opt(Some(1000));
        t.charge("emb", 400).unwrap();
        t.charge("sim", 500).unwrap();
        assert_eq!(t.total_current(), 900);
        t.uncharge("emb", 400);
        assert_eq!(t.total_current(), 500);
        t.charge("emb", 450).unwrap(); // fits again after the uncharge
        assert_eq!(t.total_peak(), 950);
    }

    #[test]
    fn charge_over_budget_is_a_typed_error() {
        let mut t = MemTracker::with_budget_opt(Some(1000));
        t.charge("emb", 800).unwrap();
        let err = t.charge("sim", 300).unwrap_err();
        assert_eq!(err.label, "sim");
        assert_eq!(err.requested, 300);
        assert_eq!(err.tracked, 1100);
        assert_eq!(err.budget, 1000);
        let msg = err.to_string();
        assert!(msg.contains("budget"), "{msg}");
        assert!(msg.contains("--mem-budget"), "{msg}");
        // the failed charge is still visible in the peak, for diagnostics
        assert_eq!(t.total_peak(), 1100);
    }

    #[test]
    fn no_budget_never_errors() {
        let mut t = MemTracker::new();
        t.charge("huge", usize::MAX / 2).unwrap();
        assert_eq!(t.total_peak(), usize::MAX / 2);
    }

    #[test]
    fn uncharge_saturates_at_zero() {
        let mut t = MemTracker::with_budget_opt(Some(100));
        t.charge("x", 30).unwrap();
        t.uncharge("x", 99);
        assert_eq!(t.current("x"), 0);
        assert_eq!(t.total_current(), 0);
        assert_eq!(t.peak("x"), 30);
    }

    #[test]
    fn enforce_checks_without_mutating() {
        let mut t = MemTracker::with_budget_opt(Some(100));
        t.set("x", 80);
        t.enforce("x", 80).unwrap();
        t.set("x", 130);
        let err = t.enforce("x", 130).unwrap_err();
        assert_eq!(err.tracked, 130);
        assert_eq!(t.total_current(), 130, "enforce does not mutate");
        assert!(MemTracker::new().enforce("x", 999).is_ok(), "no budget");
    }

    #[test]
    fn record_into_exports_total_peak() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let mut t = MemTracker::new();
        t.set("a", 70);
        t.set("b", 30);
        let rec = Recorder::new(ObsConfig::default());
        t.record_into(&rec);
        assert_eq!(rec.trace().gauge("mem.tracked.peak_bytes"), Some(100.0));
    }
}
