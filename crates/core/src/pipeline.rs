//! The end-to-end LargeEA pipeline (paper Figure 2).
//!
//! ```text
//! (G_s, G_t, ψ′) ─► name channel ──► M_n ──┐
//!        │               │                 ├─► M = M_s + M_n ─► EA results
//!        │          data augmentation      │
//!        ▼               ▼                 │
//!  structure channel (ψ′ ∪ ψ′_p) ──► M_s ──┘
//! ```
//!
//! Every stage can be switched off independently, which is exactly what the
//! ablation study (Figure 5) sweeps: `w/o structure`, `w/o name`, `w/o DA`.

use crate::augment::augment_seeds;
use crate::checkpoint::{Checkpoint, CkptError, RunMeta};
use crate::eval::{evaluate, record_quality, top1_hits, EvalResult};
use crate::mem::{BudgetExceeded, MemBudget};
use crate::name_channel::{NameChannel, NameChannelConfig};
use crate::spill::SpillStore;
use crate::structure_channel::{StructureChannel, StructureChannelConfig};
use largeea_common::obs::{ObsConfig, Recorder, Trace};
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_sim::SparseSimMatrix;
use largeea_text::hashing::fnv1a;
use std::io;
use std::path::PathBuf;

pub use crate::structure_channel::Partitioner as PartitionStrategy;

/// The span a whole run is timed by (`trace.total_seconds(PIPELINE_SPAN)`,
/// the paper's `Time` column).
pub const PIPELINE_SPAN: &str = "pipeline";
/// Counter: pseudo seeds data augmentation generated (§3.5); absent when
/// augmentation did not run.
pub const PSEUDO_SEEDS: &str = "augment.pseudo_seeds";
/// Gauge: the accuracy of those pseudo seeds against the ground truth.
pub const PSEUDO_SEED_ACCURACY: &str = "augment.pseudo_seed_accuracy";
/// Gauge: the run's peak net heap growth, measured by the counting
/// allocator; absent when the process does not install
/// `largeea_common::alloc::CountingAlloc`.
pub const MEASURED_HEAP_PEAK: &str = "heap.measured.peak_bytes";

/// Execution-regime options — everything about *how* a run executes that
/// must not change its results. Kept separate from [`LargeEaConfig`] on
/// purpose: the config fingerprint (what checkpoint resume validates)
/// covers only result-affecting knobs, so the same checkpoint can be
/// resumed bounded or unbounded.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Hard cap on the run's measured heap growth (`--mem-budget`): an
    /// admission point whose request would pass it fails the run with a
    /// typed [`RunError::Budget`] ([`MemBudget::admit`]). `None` =
    /// unbounded.
    pub mem_budget: Option<usize>,
    /// Which backing the run's [`SpillStore`] gets. Per-batch similarity
    /// blocks always go through the store (SENS encodes each segment as it
    /// loads it, so no embedding does); with `Some(dir)` they wait on disk
    /// (out-of-core execution), with `None` in memory. Same statements
    /// either way, hence the same bits.
    pub spill_dir: Option<PathBuf>,
    /// Crash-safe checkpoint directory (`--checkpoint-dir`, DESIGN.md
    /// §S0.7): `M_n` and every per-batch similarity block are durably
    /// persisted there as they complete. `None` = [`Checkpoint::disabled`].
    pub checkpoint_dir: Option<PathBuf>,
    /// Adopt the stages `checkpoint_dir` already holds (`--resume`) instead
    /// of starting it over; refused with [`CkptError::Mismatch`] when they
    /// belong to another run.
    pub resume: bool,
}

impl ExecOptions {
    /// Builds the execution regime from CLI-shaped flags. A memory budget
    /// without an explicit spill directory picks a per-process tempdir
    /// (`<tmp>/largeea_spill_<pid>`) instead of refusing the combination —
    /// a budget is a promise to stay bounded, and out-of-core execution is
    /// how that promise is kept. The chosen directory is announced in the
    /// trace (`spill.dir` field on the `pipeline` span), so a run's working
    /// storage is never a mystery.
    pub fn from_flags(mem_budget: Option<usize>, spill_dir: Option<PathBuf>) -> ExecOptions {
        let spill_dir = spill_dir.or_else(|| {
            mem_budget
                .map(|_| std::env::temp_dir().join(format!("largeea_spill_{}", std::process::id())))
        });
        ExecOptions {
            mem_budget,
            spill_dir,
            ..ExecOptions::default()
        }
    }
}

/// What a channel runs against: where it records, what budget it admits
/// against, where its intermediate blocks wait, which checkpoint (and round
/// of it) it persists its stages to. The pipeline builds one per run and
/// lends it to both channels.
#[derive(Debug)]
pub struct RunCtx<'a> {
    /// Telemetry sink.
    pub rec: &'a Recorder,
    /// The `--mem-budget` every admission point asks, over the run's heap
    /// window (read on the thread that opened it).
    pub budget: MemBudget,
    /// Working storage for intermediate blocks (DESIGN.md §S0.8).
    pub store: SpillStore,
    /// Crash-safe checkpoint ([`Checkpoint::disabled`] when the run has
    /// none).
    pub ckpt: Checkpoint,
    /// The bootstrap round that scopes the checkpoint's stage keys.
    pub round: usize,
}

impl<'a> RunCtx<'a> {
    /// The context of a plain run — memory-backed store, no budget, no
    /// checkpoint — in which no [`RunError`] has a source.
    pub fn in_memory(rec: &'a Recorder) -> Self {
        RunCtx {
            rec,
            budget: MemBudget::open(None),
            store: SpillStore::in_memory(),
            ckpt: Checkpoint::disabled(),
            round: 0,
        }
    }
}

/// Everything a bounded pipeline run can fail with.
#[derive(Debug)]
pub enum RunError {
    /// Checkpoint store failure or resume-validation mismatch.
    Ckpt(CkptError),
    /// An admission point's request did not fit the `--mem-budget`.
    Budget(BudgetExceeded),
    /// I/O failure in the spill store (out-of-core working storage).
    Spill(io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Ckpt(e) => write!(f, "checkpoint: {e}"),
            RunError::Budget(e) => write!(f, "{e}"),
            RunError::Spill(e) => write!(f, "spill store: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Ckpt(e) => Some(e),
            RunError::Budget(e) => Some(e),
            RunError::Spill(e) => Some(e),
        }
    }
}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> Self {
        RunError::Ckpt(e)
    }
}

impl From<BudgetExceeded> for RunError {
    fn from(e: BudgetExceeded) -> Self {
        RunError::Budget(e)
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct LargeEaConfig {
    /// Structure-channel settings (K, model, trainer, partitioner).
    pub structure: StructureChannelConfig,
    /// Name-channel settings (NFF).
    pub name: NameChannelConfig,
    /// Ablation: run the structure channel.
    pub use_structure: bool,
    /// Ablation: run the name channel.
    pub use_name: bool,
    /// Ablation: run name-based data augmentation.
    pub use_augmentation: bool,
    /// Optional CSLS hubness correction applied to the fused matrix
    /// (`Some(k)` = local scaling over the k best neighbours, as in the
    /// LargeEA release; `None` = raw fused scores).
    pub csls_k: Option<usize>,
}

impl Default for LargeEaConfig {
    fn default() -> Self {
        Self {
            structure: StructureChannelConfig::default(),
            name: NameChannelConfig::default(),
            use_structure: true,
            use_name: true,
            use_augmentation: true,
            csls_k: None,
        }
    }
}

impl LargeEaConfig {
    /// Fingerprint of everything a resumed run must agree on: every
    /// hyper-parameter (via the `Debug` rendering, which covers both
    /// channels' configs, seeds included), the bootstrap round count, and
    /// the exact seed split (ids of every train/test pair). Two runs with
    /// the same fingerprint are bit-identical, so resuming across matching
    /// fingerprints is always safe — and a mismatch is always refused.
    pub fn fingerprint(&self, seeds: &AlignmentSeeds, rounds: usize) -> u64 {
        let mut bytes = format!("{self:?}|rounds={rounds}").into_bytes();
        for (tag, pairs) in [("|train", &seeds.train), ("|test", &seeds.test)] {
            bytes.extend_from_slice(tag.as_bytes());
            for &(s, t) in pairs.iter() {
                bytes.extend_from_slice(&s.0.to_le_bytes());
                bytes.extend_from_slice(&t.0.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }

    /// The [`RunMeta`] identifying a run of this configuration — what
    /// [`Checkpoint::open`] validates a resume against.
    pub fn run_meta(&self, seeds: &AlignmentSeeds, rounds: usize) -> RunMeta {
        RunMeta {
            config_hash: self.fingerprint(seeds, rounds),
            seed: self.structure.seed,
            rounds: rounds as u64,
        }
    }
}

/// Everything one pipeline run produces: the fused matrix, its accuracy,
/// and the trace that holds every other number of the run (DESIGN.md
/// §S0.5) — the components' seconds (`trace.total_seconds("sens")`, …,
/// [`PIPELINE_SPAN`] end to end), the measured heap peak
/// ([`MEASURED_HEAP_PEAK`]; per channel, the `alloc.peak` of the
/// `name_channel` / `structure_channel` spans), the pseudo seeds
/// ([`PSEUDO_SEEDS`], [`PSEUDO_SEED_ACCURACY`]) and the quality
/// diagnostics.
#[derive(Debug)]
pub struct LargeEaReport {
    /// The final fused similarity matrix `M`.
    pub sim: SparseSimMatrix,
    /// Accuracy over the held-out test pairs.
    pub eval: EvalResult,
    /// Everything `rec` recorded up to the end of the run (empty when it
    /// is disabled).
    pub trace: Trace,
}

/// The LargeEA framework runner.
#[derive(Debug, Clone)]
pub struct LargeEa {
    cfg: LargeEaConfig,
}

impl LargeEa {
    /// Creates a pipeline with `cfg`.
    pub fn new(cfg: LargeEaConfig) -> Self {
        assert!(
            cfg.use_structure || cfg.use_name,
            "at least one channel must be enabled"
        );
        Self { cfg }
    }

    /// Runs the pipeline on `pair` using `seeds.train` as supervision and
    /// evaluating on `seeds.test`. With an empty `seeds.train` and
    /// augmentation on, this is the paper's *unsupervised* mode (§3.5).
    ///
    /// One round of [`LargeEa::run_exec`] with default [`ExecOptions`],
    /// recorded into a fresh default recorder.
    pub fn run(&self, pair: &KgPair, seeds: &AlignmentSeeds) -> LargeEaReport {
        let rec = Recorder::new(ObsConfig::default());
        self.run_exec(pair, seeds, 1, &rec, &ExecOptions::default())
            .expect("memory backing, no budget, no checkpoint: no RunError has a source")
    }

    /// The full entry point: `rounds` bootstrap rounds recorded into `rec`,
    /// under an execution regime ([`ExecOptions`]).
    ///
    /// Bootstrapping (BootEA-style, cited as \[34\] by the paper): after each
    /// round, entity pairs that are *mutually* each other's best match in
    /// the fused matrix join the seed set, and the structure channel
    /// retrains. The name channel runs once (it is seed-free).
    ///
    /// The whole run is a `pipeline` span; a disabled recorder yields an
    /// empty trace.
    ///
    /// With `exec.checkpoint_dir`, every result that costs real work to
    /// redo ([`Stage`](crate::checkpoint::Stage): the name channel's `M_n`,
    /// each round's per-batch similarity blocks) is durably persisted as it
    /// completes, and with `exec.resume` any stage the manifest already
    /// marks done is loaded instead of recomputed; the partition, `M_s` and
    /// `M` are rebuilt from them by the statements of an uninterrupted run.
    /// The checkpoint is opened here, for *this* run
    /// ([`LargeEaConfig::run_meta`]); resuming another run's directory is
    /// refused with [`CkptError::Mismatch`] before any work happens. A
    /// resumed run is bit-identical to an uninterrupted one
    /// (`tests/crash_recovery.rs`).
    ///
    /// With `exec.mem_budget`, the admission points of both channels and of
    /// fusion ask the run's measured heap growth ([`MemBudget`]) and the run
    /// fails fast with a typed [`RunError::Budget`] instead of thrashing.
    /// Per-batch similarity blocks go through one [`SpillStore`] and are
    /// streamed back (SENS encodes each name segment as it loads it);
    /// `exec.spill_dir` only picks where the blocks wait in between (memory
    /// or disk), so both regimes execute the same statements
    /// (`tests/spill_equivalence.rs`).
    pub fn run_exec(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        rounds: usize,
        rec: &Recorder,
        exec: &ExecOptions,
    ) -> Result<LargeEaReport, RunError> {
        assert!(rounds >= 1, "need at least one round");
        // Measured-memory window for the whole run, opened before the
        // pipeline span so the spans close LIFO inside it. Its peak is the
        // run's net heap growth on this thread — pool workers transfer
        // their task deltas back here, so it covers parallel stages too —
        // and the budget admits against the same growth.
        let heap_window = largeea_common::alloc::span_open();
        let budget = MemBudget::open(exec.mem_budget);
        let ckpt = match &exec.checkpoint_dir {
            Some(dir) => Checkpoint::open(dir, self.cfg.run_meta(seeds, rounds), exec.resume, rec)?,
            None => Checkpoint::disabled(),
        };
        let mut ctx = RunCtx {
            rec,
            budget,
            store: match &exec.spill_dir {
                Some(dir) => SpillStore::create(dir).map_err(RunError::Spill)?,
                None => SpillStore::in_memory(),
            },
            ckpt,
            round: 0,
        };
        let mut pipeline_span = rec.span(PIPELINE_SPAN);
        pipeline_span.field("rounds", rounds);
        // Which kernel ISA this run dispatched to (DESIGN.md §S0.11) —
        // recorded so trace diffs attribute perf shifts to the
        // instruction set, not the pipeline.
        pipeline_span.field("kernel.isa", largeea_tensor::active_isa().name());
        if let Some(dir) = &exec.spill_dir {
            pipeline_span.field("spill.dir", dir.display().to_string());
        }

        // --- name channel (once — it does not depend on seeds) -------------
        let name_out = self
            .cfg
            .use_name
            .then(|| NameChannel::new(self.cfg.name).run_in(&pair.source, &pair.target, &mut ctx))
            .transpose()?;

        // --- name-based data augmentation -----------------------------------
        let mut train_seeds = match (&name_out, self.cfg.use_augmentation) {
            (Some(n), true) => {
                let rep = augment_seeds(seeds, &n.m_n, &pair.alignment);
                rec.add(PSEUDO_SEEDS, rep.generated as u64);
                rec.gauge(PSEUDO_SEED_ACCURACY, rep.accuracy);
                rep.seeds
            }
            _ => seeds.clone(),
        };

        // --- structure channel + fusion, bootstrapped ------------------------
        let mut structure_out = None;
        let mut structure_hits;
        let mut sim;
        loop {
            structure_out = if self.cfg.use_structure {
                Some(StructureChannel::new(self.cfg.structure).run_in(
                    pair,
                    &train_seeds,
                    &mut ctx,
                )?)
            } else {
                structure_out // name-only pipelines don't benefit from rounds
            };
            // M_s's own answers on the test rows, read before the in-place
            // fusion below consumes the matrix.
            structure_hits = structure_out
                .as_ref()
                .map(|s| top1_hits(&s.m_s, &seeds.test));
            // Fusion grows the fused matrix by at most `M_n`'s entries.
            let fused_growth = name_out.as_ref().map_or(0, |n| n.m_n.nbytes());
            ctx.budget.admit("fused", fused_growth)?;
            sim = match (&mut structure_out, &name_out) {
                (Some(s), name) => {
                    // Move M_s out and fuse in place, so one fused matrix
                    // is live instead of three copies.
                    let mut fused = std::mem::replace(&mut s.m_s, SparseSimMatrix::new(0, 0));
                    if let Some(n) = name {
                        fused.add_assign(&n.m_n);
                    }
                    fused
                }
                (None, Some(n)) => n.m_n.clone(),
                (None, None) => unreachable!("constructor enforces one channel"),
            };
            if let Some(k) = self.cfg.csls_k {
                sim.csls(k);
            }
            ctx.round += 1;
            if ctx.round >= rounds {
                break;
            }
            // harvest mutually-best pairs from the fused matrix as new seeds
            let harvested = augment_seeds(&train_seeds, &sim, &pair.alignment);
            if harvested.generated == 0 {
                break; // converged: nothing new to learn from
            }
            train_seeds = harvested.seeds;
        }

        // --- quality: the last round's batches and channels, in the trace --
        let eval = evaluate(&sim, &seeds.test);
        if let Some(s) = &structure_out {
            s.batches.record_quality(pair, seeds, rec);
        }
        record_quality(
            rec,
            &pair.source,
            &seeds.test,
            &eval,
            &sim,
            structure_hits.as_deref(),
            name_out.as_ref().map(|n| &n.m_n),
        );
        pipeline_span.finish();
        // Close the measured-memory window (after the pipeline span's own
        // window — LIFO). Its peak is the net growth attributable to this
        // run: pre-existing allocations (interned strings, the generated KG
        // pair) are not in the window. Recorded whenever the counting
        // allocator is installed, whether or not spans attribute heap.
        let measured = largeea_common::alloc::span_close(heap_window)
            .filter(|_| largeea_common::alloc::is_instrumented());
        if let Some(d) = measured {
            rec.gauge_max(MEASURED_HEAP_PEAK, d.peak_bytes as f64);
        }
        if rec.heap_enabled() {
            rec.gauge("heap.live", largeea_common::alloc::heap_live() as f64);
            rec.gauge_max("heap.peak", largeea_common::alloc::heap_peak() as f64);
            // what pool workers kept of their own allocations (DESIGN.md
            // §S0.6): resident in their malloc arenas for the whole run
            let kept = largeea_common::alloc::worker_kept_bytes();
            rec.gauge_max("pool.worker_kept_bytes", kept as f64);
        }
        Ok(LargeEaReport {
            sim,
            eval,
            trace: rec.trace(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_data::Preset;
    use largeea_models::{ModelKind, TrainConfig};

    fn quick() -> LargeEaConfig {
        LargeEaConfig {
            structure: StructureChannelConfig {
                k: 2,
                model: ModelKind::GcnAlign,
                train: TrainConfig {
                    epochs: 25,
                    dim: 32,
                    ..Default::default()
                },
                top_k: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_pipeline_beats_single_channels() {
        let pair = Preset::Ids15kEnFr.spec(0.02).generate();
        let seeds = pair.split_seeds(0.2, 5);

        let full = LargeEa::new(quick()).run(&pair, &seeds);
        let no_name = LargeEa::new(LargeEaConfig {
            use_name: false,
            use_augmentation: false,
            ..quick()
        })
        .run(&pair, &seeds);
        let no_structure = LargeEa::new(LargeEaConfig {
            use_structure: false,
            ..quick()
        })
        .run(&pair, &seeds);

        assert!(
            full.eval.hits1 >= no_name.eval.hits1,
            "full {} < structure-only {}",
            full.eval.hits1,
            no_name.eval.hits1
        );
        assert!(
            full.eval.hits1 >= no_structure.eval.hits1 - 5.0,
            "full {} far below name-only {}",
            full.eval.hits1,
            no_structure.eval.hits1
        );
        assert!(
            full.eval.hits1 > 40.0,
            "full pipeline H@1 {}",
            full.eval.hits1
        );
    }

    #[test]
    fn augmentation_generates_accurate_pseudo_seeds() {
        let pair = Preset::Ids15kEnFr.spec(0.02).generate();
        let seeds = pair.split_seeds(0.0, 6); // unsupervised
        let trace = LargeEa::new(quick()).run(&pair, &seeds).trace;
        let generated = trace.counter(PSEUDO_SEEDS);
        assert!(generated > 50, "only {generated} pseudo seeds");
        let accuracy = trace.gauge(PSEUDO_SEED_ACCURACY).unwrap();
        assert!(accuracy > 0.75, "pseudo-seed accuracy {accuracy}");
    }

    #[test]
    fn trace_carries_timings_and_batch_quality() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 7);
        let r = LargeEa::new(quick()).run(&pair, &seeds);
        let t = &r.trace;
        for stage in [PIPELINE_SPAN, "sens", "train"] {
            assert!(t.total_seconds(stage) > 0.0, "{stage} took no time");
        }
        // sub-stage spans from every instrumented layer are present
        assert!(t.span_count("epoch") > 0, "per-epoch spans from models");
        assert!(
            t.span_count("refine_pass") > 0,
            "per-pass spans from partition"
        );
        assert!(
            t.span_count("sens_block") > 0,
            "per-block spans from the name channel"
        );
        let gauge = |name: &str| r.trace.gauge(name).unwrap_or_else(|| panic!("no {name}"));
        for name in ["train", "test", "total"] {
            let v = gauge(&format!("partition.retention.{name}"));
            assert!((0.0..=1.0).contains(&v), "{name} retention {v}");
        }
        assert!((0.0..=1.0).contains(&gauge("partition.edge_cut_rate")));
        assert_eq!(gauge("eval.hits1"), r.eval.hits1);
    }

    /// The recorded attribution equals a naive recount: each channel's
    /// matrix rebuilt on its own, every test row's top-1 found by a plain
    /// scan (ties → lowest column), each pair classified by hand.
    #[test]
    fn recorded_attribution_equals_a_naive_recount() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 8);
        let cfg = quick();
        let r = LargeEa::new(cfg).run(&pair, &seeds);
        let m_n = NameChannel::new(cfg.name)
            .run(&pair.source, &pair.target)
            .m_n;
        let trained = augment_seeds(&seeds, &m_n, &pair.alignment).seeds;
        let m_s = StructureChannel::new(cfg.structure)
            .run(&pair, &trained)
            .m_s;
        let top1 = |m: &SparseSimMatrix, row: usize| {
            let mut best: Option<(u32, f32)> = None;
            for &(c, v) in m.row(row) {
                if best.is_none_or(|(bc, bv)| v > bv || (v == bv && c < bc)) {
                    best = Some((c, v));
                }
            }
            best.map(|(c, _)| c)
        };
        let mut want = [0u64; 6]; // both, s-only, n-only, neither, rescued, broke
        for &(s, t) in &seeds.test {
            let hit = |m| top1(m, s.idx()) == Some(t.0);
            let (hs, hn, hf) = (hit(&m_s), hit(&m_n), hit(&r.sim));
            want[if hs && hn {
                0
            } else if hs {
                1
            } else if hn {
                2
            } else {
                3
            }] += 1;
            want[4] += u64::from(hf && !hs && !hn);
            want[5] += u64::from(!hf && (hs || hn));
        }
        let got = [
            "both",
            "structure_only",
            "name_only",
            "neither",
            "rescued",
            "broke",
        ]
        .map(|c| r.trace.counter(&format!("fusion.{c}")));
        assert_eq!(got, want);
        let evaluated = r.eval.evaluated as u64;
        assert_eq!(got[..4].iter().sum::<u64>(), evaluated);
        let degree_pairs: u64 = ["0-1", "2-3", "4-7", "8-15", "16+"]
            .iter()
            .map(|b| r.trace.counter(&format!("eval.degree.{b}.pairs")))
            .sum();
        assert_eq!(degree_pairs, evaluated);
        let pct = |n: u64| 100.0 * n as f64 / evaluated as f64;
        assert_eq!(
            r.trace.gauge("eval.structure_hits1"),
            Some(pct(want[0] + want[1]))
        );
        assert_eq!(
            r.trace.gauge("eval.name_hits1"),
            Some(pct(want[0] + want[2]))
        );
    }

    #[test]
    fn tiny_budget_fails_with_typed_error() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 3);
        let exec = ExecOptions {
            mem_budget: Some(1024),
            spill_dir: None,
            ..ExecOptions::default()
        };
        let rec = Recorder::new(ObsConfig::default());
        let err = LargeEa::new(quick())
            .run_exec(&pair, &seeds, 1, &rec, &exec)
            .unwrap_err();
        match err {
            RunError::Budget(b) => {
                // no counting allocator here: the first request alone fails
                assert_eq!(b.label, "stns");
                assert!(b.requested > 1024, "request {} fits", b.requested);
                assert_eq!(b.budget, 1024);
            }
            other => panic!("expected a budget error, got {other}"),
        }
    }

    #[test]
    fn generous_budget_run_matches_unbounded_bitwise() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 9);
        let base = LargeEa::new(quick()).run(&pair, &seeds);
        let exec = ExecOptions {
            mem_budget: Some(1 << 30),
            spill_dir: None,
            ..ExecOptions::default()
        };
        let rec = Recorder::new(ObsConfig::default());
        let r = LargeEa::new(quick())
            .run_exec(&pair, &seeds, 1, &rec, &exec)
            .unwrap();
        assert_eq!(r.sim, base.sim, "budget tracking must not change results");
        assert_eq!(r.eval.hits1, base.eval.hits1);
    }

    #[test]
    fn iterative_rounds_never_hurt_much_and_add_seeds() {
        let pair = Preset::Ids15kEnFr.spec(0.015).generate();
        let seeds = pair.split_seeds(0.15, 31);
        let one = LargeEa::new(quick()).run(&pair, &seeds);
        let rec = Recorder::new(ObsConfig::default());
        let boot = LargeEa::new(quick())
            .run_exec(&pair, &seeds, 2, &rec, &ExecOptions::default())
            .unwrap();
        assert!(
            boot.eval.hits1 >= one.eval.hits1 - 8.0,
            "bootstrapping collapsed: {} vs {}",
            boot.eval.hits1,
            one.eval.hits1
        );
        // two rounds train twice
        let train_seconds = |r: &LargeEaReport| r.trace.total_seconds("train");
        assert!(train_seconds(&boot) > train_seconds(&one));
    }

    #[test]
    fn measured_heap_peak_is_absent_without_the_allocator() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 6);
        // heap attribution on, so only the missing allocator keeps the
        // gauge out
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let r = LargeEa::new(quick())
            .run_exec(&pair, &seeds, 1, &rec, &ExecOptions::default())
            .unwrap();
        assert!(r.trace.gauge("heap.live").is_some(), "the heap gauges ran");
        assert_eq!(r.trace.gauge(MEASURED_HEAP_PEAK), None);
    }

    #[test]
    fn disabled_recorder_yields_empty_trace() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 12);
        let r = LargeEa::new(quick())
            .run_exec(
                &pair,
                &seeds,
                1,
                &Recorder::disabled(),
                &ExecOptions::default(),
            )
            .unwrap();
        assert!(r.trace.spans.is_empty());
        assert!(r.eval.hits1 >= 0.0, "results still computed");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 1);
        let rec = Recorder::disabled();
        let _ = LargeEa::new(quick()).run_exec(&pair, &seeds, 0, &rec, &ExecOptions::default());
    }

    #[test]
    fn csls_option_runs_and_stays_competitive() {
        let pair = Preset::Ids15kEnFr.spec(0.015).generate();
        let seeds = pair.split_seeds(0.2, 23);
        let plain = LargeEa::new(quick()).run(&pair, &seeds);
        let csls = LargeEa::new(LargeEaConfig {
            csls_k: Some(10),
            ..quick()
        })
        .run(&pair, &seeds);
        // CSLS re-scales scores; it must not destroy accuracy
        assert!(
            csls.eval.hits1 >= plain.eval.hits1 - 10.0,
            "csls {} vs plain {}",
            csls.eval.hits1,
            plain.eval.hits1
        );
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn both_channels_off_rejected() {
        LargeEa::new(LargeEaConfig {
            use_structure: false,
            use_name: false,
            ..Default::default()
        });
    }
}
