//! The memory budget — `--mem-budget`, admitted against the one memory
//! ledger this workspace keeps: the counting allocator (DESIGN.md §S0.8).
//!
//! The paper reports "maximum GPU memory cost" per channel (Table 6,
//! measured with NVIDIA Nsight). This reproduction trains on the CPU, so the
//! analogous quantity is measured heap: `largeea_common::alloc` counts every
//! allocation, spans carry its `alloc.peak`, and a run reports its heap
//! window's peak as `heap.measured.peak_bytes`. Nothing is declared by hand.
//!
//! A budget is kept at a few **admission points** — the code that is about
//! to size a SENS segment set, STNS's signatures and index, a batch's
//! training state, a similarity block or the fused matrix. Each asks
//! [`MemBudget::admit`] whether its request fits on top of what is *live*:
//! the growth of the calling thread's live bytes since the run's heap
//! window opened, read after pool credits. A request that does not fit is a
//! typed [`BudgetExceeded`] naming the admission point, so the run fails
//! fast instead of thrashing.

use largeea_common::alloc;

/// Typed error for an admission that does not fit the budget.
///
/// Carries enough context to print an actionable message: which admission
/// point asked, how many bytes it asked for, what was live, and what the
/// budget was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The admission point that was refused (`sens`, `stns`, `train`,
    /// `sim_block`, `fused`).
    pub label: String,
    /// The bytes the admission asked for.
    pub requested: usize,
    /// The run's live heap growth when it asked, in bytes.
    pub live: usize,
    /// The configured budget, in bytes.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded at {:?}: {} requested on top of {} live > budget {} \
             — raise --mem-budget or shrink the workload",
            self.label,
            largeea_common::fmt_bytes(self.requested),
            largeea_common::fmt_bytes(self.live),
            largeea_common::fmt_bytes(self.budget),
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A byte budget over one run's measured heap growth.
#[derive(Debug, Clone, Copy)]
pub struct MemBudget {
    limit: Option<usize>,
    /// The opening thread's live level when the run's heap window opened.
    base: i64,
}

impl MemBudget {
    /// A budget of `limit` bytes (`None`: every admission passes) over the
    /// heap growth of the calling thread from now on. Open it where the
    /// run's heap window opens, on the thread that will ask for admission.
    pub fn open(limit: Option<usize>) -> Self {
        Self {
            limit,
            base: alloc::thread_live(),
        }
    }

    /// Admits `request` more bytes at the admission point `label`: fails
    /// with a typed [`BudgetExceeded`] when the run's live heap growth plus
    /// `request` would pass the budget. Records nothing either way — the
    /// allocator already counts what the caller then allocates.
    pub fn admit(&self, label: &str, request: usize) -> Result<(), BudgetExceeded> {
        let Some(budget) = self.limit else {
            return Ok(());
        };
        let live = (alloc::thread_live() - self.base).max(0) as usize;
        if live.saturating_add(request) > budget {
            return Err(BudgetExceeded {
                label: label.to_owned(),
                requested: request,
                live,
                budget,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // This unit-test binary does not install the counting allocator, so the
    // live growth reads zero and only the request counts.

    #[test]
    fn unbounded_admits_anything() {
        MemBudget::open(None).admit("x", usize::MAX).unwrap();
    }

    #[test]
    fn a_request_past_the_budget_is_a_typed_error() {
        let budget = MemBudget::open(Some(1000));
        budget.admit("sens", 1000).unwrap();
        let err = budget.admit("stns", 1001).unwrap_err();
        assert_eq!(
            err,
            BudgetExceeded {
                label: "stns".to_owned(),
                requested: 1001,
                live: 0,
                budget: 1000,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("\"stns\""), "{msg}");
        assert!(msg.contains("--mem-budget"), "{msg}");
    }
}
