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

use largeea_common::json::Json;
use largeea_common::obs::{FieldValue, ObsConfig, Recorder, TraceSpan};
use largeea_common::{failpoint, fsio};
use largeea_core::checkpoint::{read_manifest, CkptError, MANIFEST_FILE};
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, RunError};
use largeea_core::structure_channel::StructureChannelConfig;
use largeea_core::{registered_failpoints, Payload};
use largeea_data::Preset;
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::{ModelKind, TrainConfig};
use largeea_sim::SparseSimMatrix;
use largeea_tensor::Matrix;
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

/// The stage keys `dir`'s manifest marks done.
fn manifest_stages(dir: &Path) -> Vec<String> {
    let manifest = read_manifest(dir).expect("readable manifest");
    let stages = manifest
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stages");
    stages
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_owned)
        .collect()
}

/// The `stage` field of every `ckpt_load` span under `span`, in order.
fn loaded_stages(span: &TraceSpan, out: &mut Vec<String>) {
    if span.name == "ckpt_load" {
        if let Some(FieldValue::Str(key)) = span.field("stage") {
            out.push(key.clone());
        }
    }
    for child in &span.children {
        loaded_stages(child, out);
    }
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
    // `M_n` and the per-batch blocks are what a run checkpoints; the
    // partition, `M_s` and `M` are rebuilt from them
    let blocks: Vec<String> = manifest_stages(&base_dir)
        .into_iter()
        .filter(|key| key.ends_with(".sim"))
        .collect();
    assert_eq!(blocks.len(), cfg().structure.k, "one block per batch");
    {
        let rec2 = Recorder::new(ObsConfig::default());
        let (sim, eval) = run_in(&base_dir, &pair, &seeds, true, &rec2).expect("warm resume");
        assert_eq!(sim, base_sim);
        assert_eq!(eval, base_eval);
        let t = rec2.trace();
        assert_eq!(
            t.counter("ckpt.resume_skipped_stages"),
            1 + blocks.len() as u64,
            "a completed run should load `name` and every block, not recompute"
        );
        assert_eq!(t.span_count("epoch"), 0, "a warm resume trains nothing");
    }

    // --- a directory written before the retired stages were dropped -------
    // Older writers also checkpointed the partition, each batch's
    // embeddings, `M_s` and `M`. Their keys stay in the manifest, and a
    // resume loads none of them: each retired artifact here holds a wrong
    // value that would change the result if it were read.
    {
        let dir = ckpt_dir("retired_stages");
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&base_dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        let (n_s, n_t) = (pair.source.num_entities(), pair.target.num_entities());
        let empty = SparseSimMatrix::new(n_s, n_t).encode().unwrap();
        let mut retired = vec![
            ("r0.partition".to_owned(), vec![0u8; 24]),
            ("r0.ms".to_owned(), empty.clone()),
            ("fused".to_owned(), empty),
        ];
        for b in 0..blocks.len() {
            let zeros = Matrix::zeros(n_s + n_t, cfg().structure.train.dim);
            retired.push((format!("r0.b{b}.emb"), zeros.encode().unwrap()));
        }
        let mut listed = String::new();
        for (key, payload) in &retired {
            fsio::write_framed(&dir.join(format!("{key}.ckpt")), payload, "test.none").unwrap();
            listed.push_str(&format!("\"{key}\","));
        }
        let manifest = fsio::read_framed(&dir.join(MANIFEST_FILE)).unwrap();
        let manifest = String::from_utf8(manifest).unwrap();
        let old = manifest.replacen("\"stages\":[", &format!("\"stages\":[{listed}"), 1);
        assert_ne!(old, manifest, "the retired keys are listed");
        fsio::write_framed(&dir.join(MANIFEST_FILE), old.as_bytes(), "test.none").unwrap();

        let rec = Recorder::new(ObsConfig::default());
        let (sim, eval) = run_in(&dir, &pair, &seeds, true, &rec).expect("old directory");
        assert_eq!(sim, base_sim, "an old directory resumed to a different M");
        assert_eq!(eval, base_eval);
        let t = rec.trace();
        let mut loaded = Vec::new();
        for span in &t.spans {
            loaded_stages(span, &mut loaded);
        }
        let mut want = vec!["name".to_owned()];
        want.extend(blocks.iter().cloned());
        assert_eq!(loaded, want, "only `name` and the blocks are read");
        assert_eq!(t.counter("ckpt.artifact_corrupt"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- the crash matrix: one scenario per registered failpoint ----------
    // (spec per failpoint: partial = torn write + death, panic = death
    // before the write, err = clean injected I/O failure)
    let scenarios: &[(&str, &str)] = &[
        ("ckpt.manifest", "ckpt.manifest=partial@2"),
        ("ckpt.name", "ckpt.name=partial"),
        ("ckpt.sim", "ckpt.sim=panic@2"),
        ("ckpt.progress", "ckpt.progress=panic"),
        // a second flavour for the error (non-panic) propagation path
        ("ckpt.sim", "ckpt.sim=err@2"),
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
            // injected clean error
            Ok(Err(RunError::Ckpt(CkptError::Io(_)))) => true,
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
        // a block a warm resume would otherwise load: flipping one of its
        // bytes makes that batch train again
        let block = base_dir.join(format!("{}.ckpt", blocks[0]));
        let mut raw = std::fs::read(&block).expect("baseline wrote the block");
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&block, &raw).unwrap();
        let (sim, eval) = run_in(&base_dir, &pair, &seeds, true, &rec).expect("resume");
        assert_eq!(sim, base_sim, "corrupt artifact leaked into the result");
        assert_eq!(eval, base_eval);
        let t = rec.trace();
        assert_eq!(t.counter("ckpt.artifact_corrupt"), 1);
        assert_eq!(
            t.counter("ckpt.resume_skipped_stages"),
            blocks.len() as u64,
            "`name` and the intact blocks still load"
        );
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
