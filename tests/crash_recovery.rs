//! Crash-consistency suite: for every registered `ckpt.*` failpoint, run
//! the pipeline to injected death, resume, and assert the final fused
//! matrix and eval metrics are **bit-identical** to an uninterrupted run.
//!
//! The determinism guarantees of the substrate (seeded PRNG, bit-identical
//! results at any pool width, independent per-batch training seeds) are the
//! oracle: if resume skips exactly the completed stages and recomputes the
//! rest, the outputs cannot differ by even one bit.
//!
//! Failpoint state is process-global, so the whole matrix runs inside one
//! `#[test]`.

use largeea_common::failpoint;
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_core::checkpoint::CkptError;
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, RunError};
use largeea_core::registered_failpoints;
use largeea_core::structure_channel::StructureChannelConfig;
use largeea_data::Preset;
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::{ModelKind, TrainConfig};
use largeea_sim::SparseSimMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const ROUNDS: usize = 1;

fn cfg() -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k: 2,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 6,
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
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 5);
    (pair, seeds)
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_crash_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The execution regime that checkpoints into `dir`.
fn exec(dir: &Path, resume: bool) -> ExecOptions {
    ExecOptions {
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
        ..ExecOptions::default()
    }
}

/// Runs the checkpointed pipeline in `dir`; returns `(sim, eval)`.
fn run_in(
    dir: &Path,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    resume: bool,
    rec: &Recorder,
) -> Result<(SparseSimMatrix, largeea_core::EvalResult), RunError> {
    let report = LargeEa::new(cfg()).run_exec(pair, seeds, ROUNDS, rec, &exec(dir, resume))?;
    Ok((report.sim, report.eval))
}

#[test]
fn every_failpoint_crashes_then_resumes_bit_identically() {
    let (pair, seeds) = fixture();
    let rec = Recorder::new(ObsConfig::default());

    // --- oracle: an uninterrupted checkpointed run ------------------------
    let base_dir = ckpt_dir("baseline");
    let (base_sim, base_eval) =
        run_in(&base_dir, &pair, &seeds, false, &rec).expect("baseline run");

    // checkpointing itself must not change results — and a run without a
    // checkpoint directory reaches none of the checkpoint's write sites,
    // armed as they all are here
    let ckpt_failpoints: Vec<&str> = registered_failpoints()
        .iter()
        .map(|fp| fp.name)
        .filter(|name| name.starts_with("ckpt."))
        .collect();
    let all_armed: Vec<String> = ckpt_failpoints
        .iter()
        .map(|fp| format!("{fp}=panic"))
        .collect();
    failpoint::configure(&all_armed.join(",")).expect("valid spec");
    let plain = LargeEa::new(cfg())
        .run_exec(&pair, &seeds, ROUNDS, &rec, &ExecOptions::default())
        .expect("plain run");
    failpoint::clear();
    assert_eq!(
        plain.sim, base_sim,
        "checkpointing changed the fused matrix"
    );
    assert_eq!(plain.eval, base_eval, "checkpointing changed the metrics");

    // --- resuming a completed run loads everything ------------------------
    {
        let rec2 = Recorder::new(ObsConfig::default());
        let (sim, eval) = run_in(&base_dir, &pair, &seeds, true, &rec2).expect("warm resume");
        assert_eq!(sim, base_sim);
        assert_eq!(eval, base_eval);
        // name + r0.partition + r0.ms (which short-circuits the per-batch
        // stages) + fused
        assert!(
            rec2.trace().counter("ckpt.resume_skipped_stages") >= 4,
            "a completed run should load, not recompute"
        );
    }

    // --- the crash matrix: one scenario per registered failpoint ----------
    // (spec per failpoint: partial = torn write + death, panic = death
    // before the write, err = clean injected I/O failure)
    let scenarios: &[(&str, &str)] = &[
        ("ckpt.manifest", "ckpt.manifest=partial@2"),
        ("ckpt.name", "ckpt.name=partial"),
        ("ckpt.partition", "ckpt.partition=partial"),
        ("ckpt.emb", "ckpt.emb=partial@2"),
        ("ckpt.sim", "ckpt.sim=panic@2"),
        ("ckpt.ms", "ckpt.ms=partial"),
        ("ckpt.fused", "ckpt.fused=partial"),
        ("ckpt.progress", "ckpt.progress=panic"),
        // a second flavour for the error (non-panic) propagation path
        ("ckpt.emb", "ckpt.emb=err"),
    ];
    // every registered failpoint must have at least one scenario, and no
    // scenario may name an unregistered failpoint
    for (fp, _) in scenarios {
        assert!(
            ckpt_failpoints.contains(fp),
            "scenario uses unregistered {fp:?}"
        );
    }
    for fp in &ckpt_failpoints {
        assert!(
            scenarios.iter().any(|(s, _)| s == fp),
            "registered failpoint {fp:?} has no crash scenario"
        );
    }

    // silence the expected panic reports while the matrix runs
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (fp, spec) in scenarios {
        let dir = ckpt_dir(&spec.replace(['=', '@', '.'], "_"));
        failpoint::configure(spec).expect("valid spec");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let rec = Recorder::new(ObsConfig::default());
            run_in(&dir, &pair, &seeds, false, &rec)
        }));
        failpoint::clear();
        let died = match outcome {
            Err(_) => true, // injected panic / torn write
            // injected clean error, as it comes or after its retries ran out
            Ok(Err(RunError::Ckpt(CkptError::Io(_)) | RunError::Exhausted(_))) => true,
            Ok(Err(e)) => panic!("[{spec}] unexpected checkpoint error: {e}"),
            Ok(Ok(_)) => false,
        };
        assert!(
            died,
            "[{spec}] failpoint {fp} never fired — dead write site?"
        );

        let rec = Recorder::new(ObsConfig::default());
        let (sim, eval) = run_in(&dir, &pair, &seeds, true, &rec)
            .unwrap_or_else(|e| panic!("[{spec}] resume failed: {e}"));
        assert_eq!(sim, base_sim, "[{spec}] resumed fused matrix differs");
        assert_eq!(eval, base_eval, "[{spec}] resumed metrics differ");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::panic::set_hook(prev_hook);

    // --- corrupting a done artifact forces a recompute, not a wrong load --
    {
        let rec = Recorder::new(ObsConfig::default());
        // r0.ms is what a warm resume actually reads (it short-circuits the
        // per-batch stages) — corrupting it forces the block-rebuild path
        let ms = base_dir.join("r0.ms.ckpt");
        let mut raw = std::fs::read(&ms).expect("baseline wrote r0.ms");
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&ms, &raw).unwrap();
        let (sim, eval) = run_in(&base_dir, &pair, &seeds, true, &rec).expect("resume");
        assert_eq!(sim, base_sim, "corrupt artifact leaked into the result");
        assert_eq!(eval, base_eval);
        assert!(rec.trace().counter("ckpt.artifact_corrupt") >= 1);
    }

    // --- a mismatched run is refused with a typed error --------------------
    {
        let rec = Recorder::new(ObsConfig::default());
        let mut other = cfg();
        other.structure.seed ^= 1;
        let resume = exec(&base_dir, true);
        match LargeEa::new(other).run_exec(&pair, &seeds, ROUNDS, &rec, &resume) {
            Err(RunError::Ckpt(CkptError::Mismatch { field, .. })) => {
                assert!(field == "config_hash" || field == "seed", "field {field}");
            }
            other => panic!("expected Mismatch, got {:?}", other.map(|r| r.eval)),
        }
        // different round count: also refused
        match LargeEa::new(cfg()).run_exec(&pair, &seeds, ROUNDS + 1, &rec, &resume) {
            Err(RunError::Ckpt(CkptError::Mismatch { field, .. })) => {
                assert!(field == "config_hash" || field == "rounds", "field {field}");
            }
            other => panic!("expected Mismatch, got {:?}", other.map(|r| r.eval)),
        }
    }
    std::fs::remove_dir_all(&base_dir).ok();
}
