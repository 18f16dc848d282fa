//! Seeded chaos sweep (DESIGN.md §S0.7): every registered failpoint ×
//! every injection mode, driven against the DBP1M-CI preset, asserting the
//! **crash-only invariant** — each faulted run must land in exactly one of
//! three honest outcomes:
//!
//! 1. **absorbed** — the run completes with results bit-identical to the
//!    fault-free oracle (transient faults under retry, best-effort sites
//!    that swallow their own errors);
//! 2. **honestly degraded** — with `--degraded-ok`, the run completes on
//!    partial results and says so (`degraded.*` trace markers, quarantine
//!    records in the manifest, `LargeEaReport::degraded`);
//! 3. **typed death** — the run fails with a typed [`RunError`] (or an
//!    injected panic), and nothing half-written is ever marked durable: a
//!    resume from the same checkpoint directory reproduces the oracle
//!    bit-identically.
//!
//! Silent wrong answers are the one outcome the sweep exists to rule out.
//! Failpoint state is process-global, so the whole sweep runs inside one
//! `#[test]` (same discipline as `tests/crash_recovery.rs`).

use largeea_common::failpoint;
use largeea_common::obs::{LiveConfig, ObsConfig, Recorder};
use largeea_core::checkpoint::Checkpoint;
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

/// A recorder with live telemetry on (so the `live.write` failpoint has a
/// site to fire at). `every: 4` keeps snapshot writes frequent at this
/// scale.
fn recorder(live_dir: &Path) -> Recorder {
    let rec = Recorder::new(ObsConfig::default());
    std::fs::create_dir_all(live_dir).unwrap();
    rec.enable_live(LiveConfig {
        every: 4,
        dir: Some(live_dir.to_path_buf()),
        ..LiveConfig::default()
    });
    rec
}

/// One checkpointed + spilling + live-sampling run — the execution shape
/// that visits every registered failpoint site.
fn run_in(
    dir: &Path,
    resume: bool,
    degraded_ok: bool,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    rec: &Recorder,
) -> Result<largeea_core::LargeEaReport, RunError> {
    let exec = ExecOptions {
        checkpoint_dir: Some(dir.join("ckpt")),
        resume,
        degraded_ok,
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
    // the spill store's, the live sampler's — and the sweep below proves
    // none of them dead: `transient@1` must leave evidence at each
    for prefix in ["ckpt.", "spill.", "live."] {
        assert!(
            registry.iter().any(|fp| fp.name.starts_with(prefix)),
            "no {prefix}* failpoint in registered_failpoints()"
        );
    }

    // --- fault-free oracle ------------------------------------------------
    let base_dir = scratch("baseline");
    let rec = recorder(&base_dir.join("live"));
    let base = run_in(&base_dir, false, false, &pair, &seeds, &rec).expect("fault-free oracle");
    assert!(
        !base.degraded.is_degraded(),
        "a fault-free run must not be degraded"
    );
    assert_eq!(
        base.trace.counter("retry.attempts"),
        0,
        "a fault-free run must not record retries"
    );

    // err-mode faults that sites absorb by contract instead of dying:
    // the live sampler swallows snapshot errors into `live.write_errors`,
    // and epoch progress is best-effort (resume never depends on it).
    let absorbed_err: &[&str] = &["live.write", "ckpt.progress"];

    // silence the injected panics while the matrix runs
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for fp in &registry {
        for mode in ["err", "panic", "partial", "transient"] {
            let spec = format!("{}={mode}@1", fp.name);
            let tag = spec.replace(['=', '@', '.'], "_");
            let dir = scratch(&tag);
            failpoint::configure(&spec).expect("valid spec");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let rec = recorder(&dir.join("live"));
                run_in(&dir, false, false, &pair, &seeds, &rec)
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
                    assert!(
                        !report.degraded.is_degraded(),
                        "[{spec}] non-degraded-ok run claims degradation"
                    );
                    match mode {
                        "transient" if fp.name == "live.write" => assert!(
                            report.trace.counter("live.write_errors") >= 1,
                            "[{spec}] swallowed fault left no trace evidence"
                        ),
                        // the ISSUE's acceptance bar: transient@1 on any
                        // spill/checkpoint write is absorbed by retry and
                        // says so in the trace
                        "transient" => assert!(
                            report.trace.counter("retry.attempts") >= 1,
                            "[{spec}] absorbed transient fault recorded no retry"
                        ),
                        "err" => assert!(
                            absorbed_err.contains(&fp.name),
                            "[{spec}] err at a must-die site was silently absorbed"
                        ),
                        other => panic!("[{spec}] {other} mode cannot complete"),
                    }
                }
                // outcome 3a: typed death
                Ok(Err(e)) => {
                    assert_ne!(
                        mode, "transient",
                        "[{spec}] transient@1 must be absorbed: {e}"
                    );
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
            let rec = recorder(&dir.join("live"));
            let resumed = run_in(&dir, true, false, &pair, &seeds, &rec)
                .unwrap_or_else(|e| panic!("[{spec}] resume failed: {e}"));
            assert_eq!(resumed.sim, base.sim, "[{spec}] resumed M differs");
            assert_eq!(resumed.eval, base.eval, "[{spec}] resumed metrics differ");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::panic::set_hook(prev_hook);

    // --- outcome 2: honest degradation under --degraded-ok ----------------
    // (a) losing the whole name channel degrades to structure-only
    {
        let dir = scratch("degraded_name");
        failpoint::configure("spill.write=err@1").unwrap();
        let rec = recorder(&dir.join("live"));
        let report = run_in(&dir, false, true, &pair, &seeds, &rec)
            .expect("--degraded-ok absorbs the lost channel");
        failpoint::clear();
        assert!(report.degraded.name_channel, "name channel must be flagged");
        assert!(report.degraded.is_degraded());
        assert!(report.trace.counter("degraded.name_channel") >= 1);
        assert_eq!(
            report.eval.evaluated,
            seeds.test.len(),
            "a degraded run still evaluates every test pair"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    // (b) a batch whose checkpoint writes keep failing is quarantined —
    // durably, in the manifest — and the pipeline continues without it
    {
        let dir = scratch("degraded_batch");
        failpoint::configure("ckpt.sim=err@1").unwrap();
        let rec = recorder(&dir.join("live"));
        let report = run_in(&dir, false, true, &pair, &seeds, &rec)
            .expect("--degraded-ok quarantines the lost batch");
        failpoint::clear();
        assert!(
            !report.degraded.quarantined_batches.is_empty(),
            "lost batch must be quarantined"
        );
        assert!(report
            .degraded
            .quarantined_batches
            .iter()
            .all(|k| k.starts_with("r0.b")));
        assert!(report.trace.counter("degraded.batches") >= 1);
        // the quarantine record is durable: a reopened checkpoint shows it
        let rec2 = Recorder::new(ObsConfig::default());
        let c = cfg();
        let ckpt = Checkpoint::open(&dir.join("ckpt"), c.run_meta(&seeds, ROUNDS), true, &rec2)
            .expect("reopen checkpoint");
        let quarantined: Vec<&str> = ckpt.quarantined().collect();
        assert_eq!(
            quarantined,
            report
                .degraded
                .quarantined_batches
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            "manifest quarantine records disagree with the report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    std::fs::remove_dir_all(&base_dir).ok();
}
