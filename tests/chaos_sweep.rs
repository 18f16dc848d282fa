//! Seeded chaos sweep (DESIGN.md §S0.7): every registered failpoint ×
//! every injection mode (`err|panic|partial`), driven against the DBP1M-CI
//! preset, asserting the **crash-only invariant** — each faulted run must
//! land in exactly one of two honest outcomes:
//!
//! 1. **absorbed** — a best-effort site swallows its own error, and the
//!    run completes with results bit-identical to the fault-free oracle;
//! 2. **typed death** — the run fails with a typed [`RunError`] (or an
//!    injected panic), and nothing half-written is ever marked durable: a
//!    resume from the same checkpoint directory reproduces the oracle
//!    bit-identically.
//!
//! Silent wrong answers are the one outcome the sweep exists to rule out.
//! Failpoint state is process-global, so the whole sweep runs inside one
//! `#[test]` (same discipline as `tests/crash_recovery.rs`).

use largeea_common::failpoint;
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, RunError};
use largeea_core::registered_failpoints;
use largeea_core::structure_channel::StructureChannelConfig;
use largeea_data::Preset;
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::{ModelKind, TrainConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const ROUNDS: usize = 1;

fn cfg() -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k: 2,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 4,
                dim: 16,
                ..Default::default()
            },
            top_k: 5,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn fixture() -> (KgPair, AlignmentSeeds) {
    let pair = Preset::Dbp1mCi.spec(0.05).generate();
    let seeds = pair.split_seeds(0.2, 7);
    (pair, seeds)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_chaos_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One checkpointed + spilling run — the execution shape that visits every
/// registered failpoint site.
fn run_in(
    dir: &Path,
    resume: bool,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    rec: &Recorder,
) -> Result<largeea_core::LargeEaReport, RunError> {
    let exec = ExecOptions {
        checkpoint_dir: Some(dir.join("ckpt")),
        resume,
        ..ExecOptions::from_flags(None, Some(dir.join("spill")))
    };
    LargeEa::new(cfg()).run_exec(pair, seeds, ROUNDS, rec, &exec)
}

#[test]
fn chaos_sweep_holds_the_crash_only_invariant() {
    let (pair, seeds) = fixture();
    let registry = registered_failpoints();

    // --- registry coverage ------------------------------------------------
    // the one registry carries every subsystem's sites — the checkpoint's,
    // the spill store's — and the sweep below proves none of them dead: a
    // run that completes under `panic@1` fails it
    for prefix in ["ckpt.", "spill."] {
        assert!(
            registry.iter().any(|fp| fp.name.starts_with(prefix)),
            "no {prefix}* failpoint in registered_failpoints()"
        );
    }

    // --- fault-free oracle ------------------------------------------------
    let base_dir = scratch("baseline");
    let rec = Recorder::new(ObsConfig::default());
    let base = run_in(&base_dir, false, &pair, &seeds, &rec).expect("fault-free oracle");

    // err-mode faults that sites absorb by contract instead of dying: epoch
    // progress is best-effort (resume never depends on it).
    let absorbed_err: &[&str] = &["ckpt.progress"];

    // silence the injected panics while the matrix runs
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for fp in &registry {
        for mode in ["err", "panic", "partial"] {
            let spec = format!("{}={mode}@1", fp.name);
            let tag = spec.replace(['=', '@', '.'], "_");
            let dir = scratch(&tag);
            failpoint::configure(&spec).expect("valid spec");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let rec = Recorder::new(ObsConfig::default());
                run_in(&dir, false, &pair, &seeds, &rec)
            }));
            failpoint::clear();
            match outcome {
                // outcome 1: absorbed — must be bit-identical to the oracle
                Ok(Ok(report)) => {
                    assert_eq!(report.sim, base.sim, "[{spec}] absorbed run's M differs");
                    assert_eq!(
                        report.eval, base.eval,
                        "[{spec}] absorbed run's metrics differ"
                    );
                    match mode {
                        "err" => assert!(
                            absorbed_err.contains(&fp.name),
                            "[{spec}] err at a must-die site was silently absorbed"
                        ),
                        other => panic!("[{spec}] {other} mode cannot complete"),
                    }
                }
                // outcome 3a: typed death
                Ok(Err(e)) => {
                    assert!(
                        matches!(e, RunError::Ckpt(_) | RunError::Spill(_)),
                        "[{spec}] unexpected error class: {e}"
                    );
                }
                // outcome 3b: injected hard crash
                Err(_) => {
                    assert!(
                        mode == "panic" || mode == "partial",
                        "[{spec}] {mode} mode must not panic"
                    );
                }
            }
            // crash-only invariant for every death: nothing half-written
            // was marked durable, so a resume reproduces the oracle
            // bit-identically (absorbed runs resume trivially too).
            let rec = Recorder::new(ObsConfig::default());
            let resumed = run_in(&dir, true, &pair, &seeds, &rec)
                .unwrap_or_else(|e| panic!("[{spec}] resume failed: {e}"));
            assert_eq!(resumed.sim, base.sim, "[{spec}] resumed M differs");
            assert_eq!(resumed.eval, base.eval, "[{spec}] resumed metrics differ");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::panic::set_hook(prev_hook);

    std::fs::remove_dir_all(&base_dir).ok();
}
