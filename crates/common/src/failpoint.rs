//! Named, deterministic fault-injection points (DESIGN.md §S0.7).
//!
//! A *failpoint* is a named site in crash-sensitive code — almost always a
//! durable-write boundary in [`crate::fsio`] — where a test or an operator
//! can inject a failure on demand. The crash-consistency suite drives the
//! checkpoint/resume subsystem through every registered point: run to
//! injected death, resume, assert the final results are bit-identical to an
//! uninterrupted run.
//!
//! ## Configuration
//!
//! Failpoints are armed either programmatically ([`configure`]) or from the
//! `LARGEEA_FAILPOINTS` environment variable (read once, on first hit):
//!
//! ```text
//! LARGEEA_FAILPOINTS="ckpt.sim=panic@1,ckpt.manifest=err@2,ckpt.fused=partial"
//! ```
//!
//! Each entry is `name=action[@N]`. For the one-shot actions the action
//! fires on exactly the `N`-th hit of that name (1-based; `@1` when
//! omitted) and then disarms, so a configured process dies — or errors — at
//! one deterministic point and nowhere else. Actions:
//!
//! - `err` — the site reports an injected I/O error (a clean failure the
//!   caller can propagate);
//! - `panic` — the site panics (a hard crash before any bytes hit disk);
//! - `partial` — the site performs a *torn write* (a truncated frame at the
//!   final path, bypassing the temp-file/rename discipline) and then
//!   panics, simulating a crash in the middle of a non-atomic write;
//! - `transient` — the site reports a *retryable* injected error
//!   (`ErrorKind::Interrupted`) on the **first `N` hits**, then succeeds
//!   forever. Unlike the one-shot actions, `@N` here is a failure *count*,
//!   not an ordinal: `transient@2` fails hits 1 and 2 and lets hit 3
//!   through, which is exactly the shape a bounded-retry executor
//!   (`common::retry`, DESIGN.md §S0.7) needs to be exercised end-to-end.
//!
//! ## Zero overhead when disabled
//!
//! [`hit`] first checks a process-global `AtomicBool` with a relaxed load;
//! with no failpoints configured that is the entire cost — one branch on a
//! cold flag, no lock, no map lookup, no allocation. Normal runs therefore
//! pay nothing measurable for carrying the instrumentation.
//!
//! ```
//! use largeea_common::failpoint::{self, FpAction};
//!
//! assert_eq!(failpoint::hit("ckpt.sim"), None); // disabled: plain no-op
//! failpoint::configure("ckpt.sim=err@2").unwrap();
//! assert_eq!(failpoint::hit("ckpt.sim"), None); // hit 1 of 2
//! assert_eq!(failpoint::hit("ckpt.sim"), Some(FpAction::Err)); // fires…
//! assert_eq!(failpoint::hit("ckpt.sim"), None); // …then disarms
//! failpoint::clear();
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// What a fired failpoint asks its site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpAction {
    /// Report an injected I/O error (clean, propagatable failure).
    Err,
    /// Panic immediately (hard crash before the write).
    Panic,
    /// Write a torn (truncated, non-atomic) frame, then panic.
    Partial,
    /// Report a retryable (`ErrorKind::Interrupted`) injected error; fires
    /// on the first `N` hits, then the site succeeds forever.
    Transient,
}

impl FpAction {
    fn parse(s: &str) -> Option<FpAction> {
        match s {
            "err" => Some(FpAction::Err),
            "panic" => Some(FpAction::Panic),
            "partial" => Some(FpAction::Partial),
            "transient" => Some(FpAction::Transient),
            _ => None,
        }
    }
}

/// One armed failpoint. One-shot actions fire on the `at`-th hit, then
/// disarm; `Transient` fires on every hit up to and including the `at`-th,
/// then disarms (the site succeeds from then on).
#[derive(Debug)]
struct FpState {
    action: FpAction,
    /// One-shot: 1-based ordinal of the hit that fires.
    /// Transient: number of leading hits that fail.
    at: u64,
    /// Hits observed so far.
    hits: u64,
    /// Whether the action already fired its course (disarmed).
    fired: bool,
}

/// Fast-path flag: `false` ⇒ no failpoint is armed and [`hit`] is a no-op.
static ARMED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<HashMap<String, FpState>> {
    static TABLE: OnceLock<Mutex<HashMap<String, FpState>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Reads `LARGEEA_FAILPOINTS` exactly once per process. A malformed spec
/// warns to stderr rather than silently arming nothing — a typo'd injection
/// test must not quietly pass.
fn env_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("LARGEEA_FAILPOINTS") {
            if let Err(e) = configure(&spec) {
                eprintln!("[failpoint] warning: ignoring LARGEEA_FAILPOINTS: {e}");
            }
        }
    });
}

/// Arms failpoints from a `name=action[@N],…` spec, replacing any previous
/// configuration. See the [module docs](self) for the syntax.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut map = HashMap::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (name, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("{entry:?}: expected name=action[@N]"))?;
        let (action, at) = match rhs.split_once('@') {
            Some((a, n)) => (
                a,
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("{entry:?}: ordinal must be a positive integer"))?,
            ),
            None => (rhs, 1),
        };
        let action = FpAction::parse(action)
            .ok_or_else(|| format!("{entry:?}: unknown action (err|panic|partial|transient)"))?;
        map.insert(
            name.to_owned(),
            FpState {
                action,
                at,
                hits: 0,
                fired: false,
            },
        );
    }
    let armed = !map.is_empty();
    *table().lock().unwrap() = map;
    ARMED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarms every failpoint (back to the zero-overhead state).
pub fn clear() {
    table().lock().unwrap().clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether any failpoint is currently armed.
pub fn armed() -> bool {
    env_init();
    ARMED.load(Ordering::Relaxed)
}

/// Registers a hit of the failpoint `name`. Returns the action to take when
/// this is the hit the failpoint was armed for, `None` otherwise — sites
/// interpret the action; this function never panics itself.
pub fn hit(name: &str) -> Option<FpAction> {
    env_init();
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut t = table().lock().unwrap();
    let st = t.get_mut(name)?;
    if st.fired {
        return None;
    }
    st.hits += 1;
    if st.action == FpAction::Transient {
        // Fail the first `at` hits, then disarm (succeed forever).
        if st.hits >= st.at {
            st.fired = true;
        }
        return Some(FpAction::Transient);
    }
    if st.hits != st.at {
        return None;
    }
    st.fired = true;
    Some(st.action)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; tests in this module serialise on
    // one lock so they cannot observe each other's configurations.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_hits_are_noops() {
        let _g = SERIAL.lock().unwrap();
        clear();
        assert!(!armed());
        assert_eq!(hit("anything"), None);
    }

    #[test]
    fn fires_on_the_nth_hit_then_disarms() {
        let _g = SERIAL.lock().unwrap();
        configure("a=panic@3").unwrap();
        assert_eq!(hit("a"), None);
        assert_eq!(hit("a"), None);
        assert_eq!(hit("a"), Some(FpAction::Panic));
        assert_eq!(hit("a"), None, "disarmed after firing");
        clear();
    }

    #[test]
    fn default_ordinal_is_one_and_names_are_independent() {
        let _g = SERIAL.lock().unwrap();
        configure("a=err, b=partial@2").unwrap();
        assert!(armed());
        assert_eq!(hit("b"), None);
        assert_eq!(hit("a"), Some(FpAction::Err));
        assert_eq!(hit("b"), Some(FpAction::Partial));
        assert_eq!(hit("c"), None, "unconfigured names never fire");
        clear();
        assert!(!armed());
    }

    #[test]
    fn configure_replaces_previous_table() {
        let _g = SERIAL.lock().unwrap();
        configure("a=err").unwrap();
        configure("b=panic").unwrap();
        assert_eq!(hit("a"), None, "old entry gone");
        assert_eq!(hit("b"), Some(FpAction::Panic));
        clear();
    }

    #[test]
    fn transient_fails_first_n_hits_then_succeeds_forever() {
        let _g = SERIAL.lock().unwrap();
        configure("a=transient@2").unwrap();
        assert_eq!(hit("a"), Some(FpAction::Transient));
        assert_eq!(hit("a"), Some(FpAction::Transient));
        assert_eq!(hit("a"), None, "third hit succeeds");
        assert_eq!(hit("a"), None, "…and every hit after");
        clear();
    }

    #[test]
    fn transient_default_count_is_one() {
        let _g = SERIAL.lock().unwrap();
        configure("a=transient").unwrap();
        assert_eq!(hit("a"), Some(FpAction::Transient));
        assert_eq!(hit("a"), None);
        clear();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = SERIAL.lock().unwrap();
        assert!(configure("noequals").is_err());
        assert!(configure("a=explode").is_err());
        assert!(configure("a=err@0").is_err());
        assert!(configure("a=err@x").is_err());
        // a rejected spec must not leave anything armed
        clear();
        assert!(configure("").is_ok());
        assert!(!armed());
    }
}
