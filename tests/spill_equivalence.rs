//! Store-backing equivalence suite (DESIGN.md §S0.8): the pipeline has one
//! execution path over a store with two backings, so a memory-bounded run
//! whose intermediate blocks wait on disk must be **bit-identical** to the
//! memory-backed one — same fused matrix bytes, same metrics — while its
//! measured peak stays under the budget. This facade test binary runs
//! under the counting allocator `src/lib.rs` installs, so every peak and
//! every admission below is measured, not declared.
//!
//! Failpoint state is process-global and every spill write of every test
//! thread counts towards an armed `spill.write=…@N`, so the crash-mid-spill
//! scenario arms its failpoint under the write half of [`FAILPOINTS`] and
//! the other tests (which never configure one) run under the read half.

use largeea::common::failpoint;
use largeea::common::obs::{ObsConfig, Recorder};
use largeea::core::pipeline::{
    ExecOptions, LargeEa, LargeEaConfig, LargeEaReport, RunError, MEASURED_HEAP_PEAK,
};
use largeea::core::registered_failpoints;
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::data::Preset;
use largeea::models::{ModelKind, TrainConfig};
use largeea::sim::SparseSimMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::RwLock;

static FAILPOINTS: RwLock<()> = RwLock::new(());

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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_ooc_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sim_bytes(m: &SparseSimMatrix) -> Vec<u8> {
    let mut buf = Vec::new();
    largeea::sim::io::write_sparse_sim(m, &mut buf).expect("in-memory serialize");
    buf
}

fn heap_recorder() -> Recorder {
    Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    })
}

/// The run's measured heap peak, as its trace holds it.
fn measured(r: &LargeEaReport) -> usize {
    r.trace
        .gauge(MEASURED_HEAP_PEAK)
        .expect("the facade installs the counting allocator") as usize
}

/// Bounded runs spill, stay under budget, and reproduce the memory-backed
/// fused matrix byte for byte — across several seed splits.
#[test]
fn bounded_runs_are_bit_identical_to_unbounded() {
    let _unarmed = FAILPOINTS.read().unwrap();
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    for seed_split in [5u64, 23, 71] {
        let seeds = pair.split_seeds(0.2, seed_split);
        let base = LargeEa::new(cfg()).run(&pair, &seeds);
        // the memory backing leaves no spill traffic in the trace
        let spans = |name| base.trace.span_count(name);
        assert_eq!(spans("spill_write") + spans("spill_read"), 0);
        let counters = base.trace.counters.iter();
        assert_eq!(
            counters.filter(|(k, _)| k.starts_with("mem.spill")).count(),
            0
        );
        assert_eq!(base.trace.gauge("mem.spill.peak_disk_bytes"), None);

        // First pass: spill with no budget, to measure the out-of-core peak
        // (both passes record alike: the recorder's own tables are heap too).
        let rec = heap_recorder();
        let exec = ExecOptions {
            mem_budget: None,
            spill_dir: Some(tmp(&format!("measure_{seed_split}"))),
            ..ExecOptions::default()
        };
        let spilled = LargeEa::new(cfg())
            .run_exec(&pair, &seeds, 1, &rec, &exec)
            .expect("unbudgeted spill run");
        assert_eq!(
            sim_bytes(&spilled.sim),
            sim_bytes(&base.sim),
            "[split {seed_split}] spilled fused matrix differs byte-wise"
        );
        assert_eq!(spilled.eval, base.eval, "[split {seed_split}]");
        let t = rec.trace();
        assert!(
            t.counter("mem.spill.writes") > 0,
            "[split {seed_split}] the spill path never wrote"
        );
        assert!(
            t.counter("mem.spill.reads") > 0,
            "[split {seed_split}] the spill path never read back"
        );
        assert!(
            !exec.spill_dir.as_ref().unwrap().exists(),
            "[split {seed_split}] spill dir must be cleaned up"
        );

        // Second pass: the measured out-of-core peak plus BOUNDED_MARGIN as
        // the budget must fit, and a bounded run that passes peaks within
        // it. (At this size the peak is a batch's training, which neither
        // backing changes; `dbp1m_ci_…` gates bounded ≤ memory-backed.)
        let budget = measured(&spilled) + BOUNDED_MARGIN;
        let rec = heap_recorder();
        let exec = ExecOptions {
            mem_budget: Some(budget),
            spill_dir: Some(tmp(&format!("bounded_{seed_split}"))),
            ..ExecOptions::default()
        };
        let bounded = LargeEa::new(cfg())
            .run_exec(&pair, &seeds, 1, &rec, &exec)
            .expect("bounded run within its own measured peak plus the margin");
        assert!(measured(&bounded) <= budget);
        assert_eq!(sim_bytes(&bounded.sim), sim_bytes(&base.sim));
        assert_eq!(bounded.eval, base.eval);
    }
}

/// Slack over the measured peak for the bounded pass. Admissions ask for
/// what a stage is about to hold, and at these splits the smallest budget
/// that passes sits about 110 K *below* the 0.42 M peak (the peak is a
/// batch's training transient, of which only Adam's state is asked for),
/// so the margin only absorbs allocation-order noise.
const BOUNDED_MARGIN: usize = 16 << 10;

/// An impossible budget fails fast with the typed error, through the spill
/// path, and still cleans up its working directory.
#[test]
fn impossible_budget_is_a_typed_error_and_cleans_up() {
    let _unarmed = FAILPOINTS.read().unwrap();
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let dir = tmp("impossible");
    let exec = ExecOptions {
        mem_budget: Some(16 << 10), // 16K: below even one embedding segment
        spill_dir: Some(dir.clone()),
        ..ExecOptions::default()
    };
    let rec = Recorder::new(ObsConfig::default());
    let err = LargeEa::new(cfg())
        .run_exec(&pair, &seeds, 1, &rec, &exec)
        .unwrap_err();
    match err {
        RunError::Budget(b) => {
            assert_eq!(b.budget, 16 << 10);
            assert!(b.live + b.requested > b.budget);
        }
        other => panic!("expected a budget error, got {other}"),
    }
    assert!(!dir.exists(), "spill dir must be cleaned up on failure too");
}

/// Crash mid-spill (injected death on the 2nd spill write: the second
/// batch's similarity block), then resume
/// from the durable checkpoint: bit-identical to an uninterrupted run.
/// Spill artifacts are transient working storage — losing them costs
/// recomputation from the last checkpoint stage, never correctness.
#[test]
fn crash_mid_spill_resumes_bit_identically() {
    // the scenario below covers every registered spill failpoint
    for fp in registered_failpoints() {
        if fp.name.starts_with("spill.") {
            assert_eq!(
                fp.name, "spill.write",
                "update this test for new failpoints"
            );
        }
    }
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let base = LargeEa::new(cfg()).run(&pair, &seeds);

    let ckpt_dir = tmp("crash_ckpt");
    let run = |resume: bool, spill_name: &str| {
        let rec = Recorder::new(ObsConfig::default());
        let exec = ExecOptions {
            spill_dir: Some(tmp(spill_name)),
            checkpoint_dir: Some(ckpt_dir.clone()),
            resume,
            ..ExecOptions::default()
        };
        LargeEa::new(cfg()).run_exec(&pair, &seeds, 1, &rec, &exec)
    };

    let armed = FAILPOINTS.write().unwrap();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::configure("spill.write=panic@2").expect("valid spec");
    let outcome = catch_unwind(AssertUnwindSafe(|| run(false, "crash_spill_a")));
    failpoint::clear();
    std::panic::set_hook(prev_hook);
    drop(armed);
    assert!(
        outcome.is_err(),
        "spill.write=panic@2 never fired — dead write site?"
    );

    let resumed = run(true, "crash_spill_b").expect("resume after crash mid-spill");
    assert_eq!(
        sim_bytes(&resumed.sim),
        sim_bytes(&base.sim),
        "resumed fused matrix differs"
    );
    assert_eq!(resumed.eval, base.eval, "resumed metrics differ");
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// The DBP1M-class CI preset completes, bit-identically, under a budget of
/// the memory-backed run's own measured peak.
///
/// SENS encodes each segment when its search loads it in either backing,
/// so the memory-backed run no longer parks every segment (it peaked at
/// 12.1 M that way, against 8.2 M out of core). Measured, it now peaks at
/// 8.4 M and the out-of-core one at 8.2 M (0.98 of it): only the batches'
/// similarity blocks wait on disk instead of in memory. A bounded run
/// admitted against the memory-backed peak must fit under it.
#[test]
fn dbp1m_ci_bounded_run_fits_within_the_in_ram_peak() {
    let _unarmed = FAILPOINTS.read().unwrap();
    let pair = Preset::Dbp1mCi.spec(1.0).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let mut c = cfg();
    c.structure.k = 4;
    c.structure.train.epochs = 4;
    c.name.segments = 8;
    c.name.minhash_perms = 32;

    let base = LargeEa::new(c).run(&pair, &seeds);
    let ram_peak = measured(&base);
    assert!(ram_peak > 0);

    let budget = ram_peak;
    let rec = Recorder::new(ObsConfig::default());
    let exec = ExecOptions {
        mem_budget: Some(budget),
        spill_dir: Some(tmp("dbp1m_ci")),
        ..ExecOptions::default()
    };
    let bounded = LargeEa::new(c)
        .run_exec(&pair, &seeds, 1, &rec, &exec)
        .expect("bounded DBP1M-CI run at the memory-backed peak");
    assert!(
        measured(&bounded) <= budget,
        "peak {} exceeds budget {budget}",
        measured(&bounded)
    );
    assert_eq!(
        sim_bytes(&bounded.sim),
        sim_bytes(&base.sim),
        "bounded DBP1M-CI fused matrix differs byte-wise"
    );
    assert_eq!(bounded.eval, base.eval);
    let t = rec.trace();
    assert!(t.counter("mem.spill.writes") > 0);
    assert!(t.gauge("mem.spill.peak_disk_bytes").unwrap_or(0.0) > 0.0);
}
