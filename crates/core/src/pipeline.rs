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

use crate::analysis::{top1_hits, ChannelAttribution};
use crate::augment::augment_seeds;
use crate::checkpoint::{Checkpoint, CkptError, RunMeta, Stage};
use crate::eval::{evaluate, EvalResult};
use crate::mem::{BudgetExceeded, MemAuditError, MemTracker};
use crate::name_channel::{NameChannel, NameChannelConfig};
use crate::spill::SpillStore;
use crate::structure_channel::{StructureChannel, StructureChannelConfig};
use crate::supervisor::{self, Degradations, Exhausted, Quarantined};
use largeea_common::obs::{ObsConfig, Recorder, Trace};
use largeea_common::retry::{RetryPolicy, Retryable, Transience};
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_partition::batches::Retention;
use largeea_sim::SparseSimMatrix;
use largeea_text::hashing::fnv1a;
use std::io;
use std::path::PathBuf;

pub use crate::structure_channel::Partitioner as PartitionStrategy;

/// Execution-regime options — everything about *how* a run executes that
/// must not change its results. Kept separate from [`LargeEaConfig`] on
/// purpose: the config fingerprint (what checkpoint resume validates)
/// covers only result-affecting knobs, so the same checkpoint can be
/// resumed bounded or unbounded.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Hard cap on tracked live bytes (`--mem-budget`): the run fails with
    /// a typed [`RunError::Budget`] the moment the [`MemTracker`] total
    /// would pass it. `None` = unbounded (tracking only).
    pub mem_budget: Option<usize>,
    /// Which backing the run's [`SpillStore`] gets. Per-segment embeddings
    /// and per-batch similarity blocks always go through the store; with
    /// `Some(dir)` they wait on disk (out-of-core execution), with `None`
    /// in memory. Same statements either way, hence the same bits.
    pub spill_dir: Option<PathBuf>,
    /// Audit the memory books (`--mem-audit`): after the run, compare the
    /// [`MemTracker`] tracked peak against the instrumented allocator's
    /// measured peak and fail with a typed [`RunError::Audit`] when the
    /// drift exceeds tolerance (see [`MemTracker::audit`]). Requires the
    /// instrumented allocator to be installed in the process.
    pub mem_audit: bool,
    /// Crash-safe checkpoint directory (`--checkpoint-dir`, DESIGN.md
    /// §S0.7): every pipeline boundary is durably persisted there as it
    /// completes. `None` = [`Checkpoint::disabled`].
    pub checkpoint_dir: Option<PathBuf>,
    /// Adopt the stages `checkpoint_dir` already holds (`--resume`) instead
    /// of starting it over; refused with [`CkptError::Mismatch`] when they
    /// belong to another run.
    pub resume: bool,
    /// Whether the run may *degrade* — quarantine a mini-batch, drop a
    /// channel — instead of failing when an I/O fault outlives the retries
    /// every durable write gets (`align --degraded-ok`, DESIGN.md §S0.7).
    /// The retry schedule itself is one constant, `RetryPolicy::default()`.
    pub degraded_ok: bool,
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

/// What a channel runs against: where it records, what it charges, where
/// its intermediate blocks wait, which checkpoint (and round of it) it
/// persists its stages to, and whether it may degrade. The pipeline builds
/// one per run and lends it to both channels.
#[derive(Debug)]
pub struct RunCtx<'a> {
    /// Telemetry sink.
    pub rec: &'a Recorder,
    /// Byte accounting and the `--mem-budget` enforcement point, shared
    /// across channels. Whoever built the context folds it into the trace
    /// ([`MemTracker::record_into`]).
    pub mem: MemTracker,
    /// Working storage for intermediate blocks (DESIGN.md §S0.8).
    pub store: SpillStore,
    /// Crash-safe checkpoint ([`Checkpoint::disabled`] when the run has
    /// none).
    pub ckpt: Checkpoint,
    /// The bootstrap round that scopes the checkpoint's stage keys.
    pub round: usize,
    /// Whether I/O faults may cost a quarantined batch or a lost channel
    /// instead of the run ([`ExecOptions::degraded_ok`]).
    pub degraded_ok: bool,
}

impl<'a> RunCtx<'a> {
    /// The context of a plain run — memory-backed store, no budget, no
    /// checkpoint, no degradation — in which no [`RunError`] has a source.
    pub fn in_memory(rec: &'a Recorder) -> Self {
        RunCtx {
            rec,
            mem: MemTracker::new(),
            store: SpillStore::in_memory(),
            ckpt: Checkpoint::disabled(),
            round: 0,
            degraded_ok: false,
        }
    }
}

/// Everything a bounded pipeline run can fail with.
#[derive(Debug)]
pub enum RunError {
    /// Checkpoint store failure or resume-validation mismatch.
    Ckpt(CkptError),
    /// The tracked live bytes passed the `--mem-budget`.
    Budget(BudgetExceeded),
    /// I/O failure in the spill store (out-of-core working storage).
    Spill(io::Error),
    /// `--mem-audit` found the memory books broken: the MemTracker peak
    /// and the allocator-measured peak drifted past tolerance (or there
    /// was no instrumented allocator to measure with).
    Audit(MemAuditError),
    /// A transient fault outlived every allowed retry (site-level backoff
    /// *and* batch-level re-execution). Carries the unit that gave up and
    /// the error its final attempt failed with.
    Exhausted(Exhausted),
    /// Degradation was allowed (`--degraded-ok`) but there was nothing
    /// left to degrade *to*: every usable channel was lost to I/O faults.
    Quarantined(Quarantined),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Ckpt(e) => write!(f, "checkpoint: {e}"),
            RunError::Budget(e) => write!(f, "{e}"),
            RunError::Spill(e) => write!(f, "spill store: {e}"),
            RunError::Audit(e) => write!(f, "{e}"),
            RunError::Exhausted(e) => write!(f, "{e}"),
            RunError::Quarantined(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Ckpt(e) => Some(e),
            RunError::Budget(e) => Some(e),
            RunError::Spill(e) => Some(e),
            RunError::Audit(e) => Some(e),
            RunError::Exhausted(e) => Some(e.last.as_ref()),
            RunError::Quarantined(_) => None,
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

impl From<MemAuditError> for RunError {
    fn from(e: MemAuditError) -> Self {
        RunError::Audit(e)
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

/// Everything one pipeline run produces — accuracy, timings and memory, in
/// the shape the paper's tables report them.
///
/// Every `*_seconds` field is *derived from [`LargeEaReport::trace`]* (the
/// sum of the correspondingly-named spans), so the report and the exported
/// trace can never disagree.
#[derive(Debug)]
pub struct LargeEaReport {
    /// The final fused similarity matrix `M`.
    pub sim: SparseSimMatrix,
    /// Accuracy over the held-out test pairs.
    pub eval: EvalResult,
    /// SENS wall-clock seconds (Figure 4) — `Σ` of `sens` spans.
    pub sens_seconds: f64,
    /// STNS wall-clock seconds (Figure 4) — `Σ` of `stns` spans.
    pub stns_seconds: f64,
    /// Mini-batch generation seconds (Figure 4) — `Σ` of `partition` spans
    /// across bootstrap rounds.
    pub partition_seconds: f64,
    /// EA training seconds (Figure 4) — `Σ` of `train` spans across
    /// bootstrap rounds.
    pub training_seconds: f64,
    /// End-to-end seconds (the paper's `Time` column) — the `pipeline`
    /// span's duration.
    pub total_seconds: f64,
    /// The full run trace: every span, counter, gauge and histogram the
    /// pipeline recorded (export with `trace.to_json_string()`).
    pub trace: Trace,
    /// Name-channel peak bytes (Table 6).
    pub name_peak_bytes: usize,
    /// Structure-channel peak bytes (Table 6).
    pub structure_peak_bytes: usize,
    /// Peak of the tracked live-byte *total* across all components — the
    /// quantity `--mem-budget` bounds (also exported as the
    /// `mem.tracked.peak_bytes` gauge).
    pub tracked_peak_bytes: usize,
    /// The *measured* peak net heap growth over the run, from the
    /// instrumented allocator (`heap.measured.peak_bytes` gauge) — the
    /// ground truth `--mem-audit` holds [`LargeEaReport::tracked_peak_bytes`]
    /// against. `None` when the process doesn't install
    /// `largeea_common::alloc::CountingAlloc`.
    pub measured_heap_peak_bytes: Option<usize>,
    /// Pseudo seeds generated by data augmentation (§3.5).
    pub pseudo_seeds: usize,
    /// Accuracy of those pseudo seeds against the ground truth (§3.5).
    pub pseudo_seed_accuracy: f64,
    /// Seed retention of the mini-batches (Table 5), when the structure
    /// channel ran.
    pub retention: Option<Retention>,
    /// Edge-cut rate `R_ec` (Figure 7), when the structure channel ran.
    pub edge_cut_rate: f64,
    /// Which channel(s) solve each test pair, when both ran: the last
    /// round's `M_s` and `M_n` each on their own against the fused `M`.
    pub attribution: Option<ChannelAttribution>,
    /// The name channel's `M_n`.
    pub m_n: Option<SparseSimMatrix>,
    /// What the run gave up to finish (DESIGN.md §S0.7). Empty unless
    /// `--degraded-ok` traded a lost channel or quarantined mini-batch for
    /// completion; the same facts are stamped on the trace as `degraded.*`
    /// counters and `pipeline`-span fields.
    pub degraded: Degradations,
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
    /// One round of [`LargeEa::run_exec`] with default [`ExecOptions`]; a
    /// private default recorder keeps the reported timings real even though
    /// nobody asked for a trace.
    pub fn run(&self, pair: &KgPair, seeds: &AlignmentSeeds) -> LargeEaReport {
        let rec = Recorder::new(ObsConfig::default());
        self.run_exec(pair, seeds, 1, &rec, &ExecOptions::default())
            .expect("memory backing, no budget, no checkpoint: no RunError has a source")
    }

    /// The full entry point: `rounds` bootstrap rounds recorded into `rec`,
    /// under an execution regime ([`ExecOptions`]).
    ///
    /// Bootstrapping (BootEA-style, cited as [34] by the paper): after each
    /// round, entity pairs that are *mutually* each other's best match in
    /// the fused matrix join the seed set, and the structure channel
    /// retrains. The name channel runs once (it is seed-free).
    ///
    /// The whole run is a `pipeline` span; the report's `*_seconds` fields
    /// are read back out of the recorded trace (single source of truth), so
    /// a disabled recorder yields an empty trace and all-zero timings.
    ///
    /// With `exec.checkpoint_dir`, every pipeline boundary ([`Stage`]:
    /// name-channel `M_n`, per-round partition / per-batch embeddings and
    /// sim blocks / `M_s`, the fused `M`) is durably persisted as it
    /// completes, and with `exec.resume` any stage the manifest already
    /// marks done is loaded instead of recomputed. The checkpoint is opened
    /// here, for *this* run ([`LargeEaConfig::run_meta`]); resuming another
    /// run's directory is refused with [`CkptError::Mismatch`] before any
    /// work happens. A resumed run is bit-identical to an uninterrupted one
    /// (`tests/crash_recovery.rs`).
    ///
    /// Every major allocation is charged against one shared [`MemTracker`];
    /// with `exec.mem_budget` the run fails fast with a typed
    /// [`RunError::Budget`] instead of thrashing. Per-segment name
    /// embeddings and per-batch similarity blocks go through one
    /// [`SpillStore`] and are streamed back; `exec.spill_dir` only picks
    /// where they wait in between (memory or disk), so both regimes execute
    /// the same statements (`tests/spill_equivalence.rs`).
    pub fn run_exec(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        rounds: usize,
        rec: &Recorder,
        exec: &ExecOptions,
    ) -> Result<LargeEaReport, RunError> {
        assert!(rounds >= 1, "need at least one round");
        let ckpt = match &exec.checkpoint_dir {
            Some(dir) => Checkpoint::open(dir, self.cfg.run_meta(seeds, rounds), exec.resume, rec)?,
            None => Checkpoint::disabled(),
        };
        let mut ctx = RunCtx {
            rec,
            mem: MemTracker::with_budget_opt(exec.mem_budget),
            store: match &exec.spill_dir {
                Some(dir) => SpillStore::create(dir).map_err(RunError::Spill)?,
                None => SpillStore::in_memory(),
            },
            ckpt,
            round: 0,
            degraded_ok: exec.degraded_ok,
        };
        // Measured-memory window for the whole run, opened before the
        // pipeline span so the spans close LIFO inside it. Its peak is the
        // run's net heap growth on this thread — pool workers transfer
        // their task deltas back here, so it covers parallel stages too.
        let heap_window = largeea_common::alloc::span_open();
        // Test hook for the audit: LARGEEA_HEAP_LEAK=<bytes> holds an
        // uncharged allocation across the run. `with_capacity` counts the
        // bytes without touching the pages, so tests can "leak" gigabytes
        // for free and the audit must notice.
        let _leak: Option<Vec<u8>> = std::env::var("LARGEEA_HEAP_LEAK")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map(Vec::with_capacity);
        let mut pipeline_span = rec.span("pipeline");
        pipeline_span.field("rounds", rounds);
        // Which kernel ISA this run dispatched to (DESIGN.md §S0.11) —
        // recorded so trace diffs attribute perf shifts to the
        // instruction set, not the pipeline.
        pipeline_span.field("kernel.isa", largeea_tensor::active_isa().name());
        if let Some(dir) = &exec.spill_dir {
            pipeline_span.field("spill.dir", dir.display().to_string());
        }
        rec.gauge("progress.rounds_total", rounds as f64);
        let mut degraded = Degradations::default();

        // --- name channel (once — it does not depend on seeds) -------------
        let name_attempt = self
            .cfg
            .use_name
            .then(|| NameChannel::new(self.cfg.name).run_in(&pair.source, &pair.target, &mut ctx));
        let name_out = match name_attempt {
            None => None,
            Some(Ok(out)) => Some(out),
            Some(Err(e)) => {
                // The whole channel is lost. With `--degraded-ok` and a
                // structure channel to carry the run, fusion degrades to
                // structure-only; otherwise the fault is terminal.
                channel_lost(
                    "name_channel",
                    e,
                    ctx.degraded_ok,
                    self.cfg.use_structure,
                    &mut degraded,
                    rec,
                )?;
                ctx.mem.release("name_channel");
                None
            }
        };

        // --- name-based data augmentation -----------------------------------
        let (mut train_seeds, pseudo_seeds, pseudo_seed_accuracy) =
            match (&name_out, self.cfg.use_augmentation) {
                (Some(n), true) => {
                    let rep = augment_seeds(seeds, &n.m_n, &pair.alignment);
                    (rep.seeds, rep.generated, rep.accuracy)
                }
                _ => (seeds.clone(), 0, 0.0),
            };

        // --- structure channel + fusion, bootstrapped ------------------------
        let mut structure_out = None;
        let mut structure_hits;
        let mut use_structure = self.cfg.use_structure;
        let mut sim;
        loop {
            rec.gauge("progress.round", (ctx.round + 1) as f64);
            structure_out = if use_structure {
                match StructureChannel::new(self.cfg.structure).run_in(pair, &train_seeds, &mut ctx)
                {
                    Ok(out) => {
                        for key in &out.quarantined {
                            if !degraded.quarantined_batches.contains(key) {
                                degraded.quarantined_batches.push(key.clone());
                            }
                        }
                        Some(out)
                    }
                    Err(e) => {
                        channel_lost(
                            "structure_channel",
                            e,
                            ctx.degraded_ok,
                            name_out.is_some(),
                            &mut degraded,
                            rec,
                        )?;
                        ctx.mem.release("structure_channel");
                        use_structure = false; // lost for good: don't retrain next round
                        None
                    }
                }
            } else {
                structure_out // name-only pipelines don't benefit from rounds
            };
            // M_s's own answers on the test rows, read before the in-place
            // fusion below consumes the matrix.
            structure_hits = structure_out
                .as_ref()
                .map(|s| top1_hits(&s.m_s, &seeds.test));
            sim = match (&mut structure_out, &name_out) {
                (Some(s), name) => {
                    // Move M_s out and fuse in place, so one fused matrix
                    // is live instead of three copies.
                    let mut fused = std::mem::replace(&mut s.m_s, SparseSimMatrix::new(0, 0));
                    ctx.mem.release("structure_channel"); // M_s moved; transients gone
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
            ctx.mem.release("fused"); // the previous round's fused matrix is replaced
            ctx.mem.set("fused", sim.nbytes());
            ctx.mem.enforce("fused", sim.nbytes())?;
            // end of a bootstrap round: refresh the live working-set gauge
            // and give the sampler a stage-boundary tick
            rec.gauge("mem.tracked.bytes", ctx.mem.total_current() as f64);
            rec.live_tick();
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

        // --- fused matrix M: the run's final durable artifact ----------------
        match ctx.ckpt.load(Stage::Fused, rec) {
            Some(loaded) => {
                sim = loaded;
                ctx.mem.release("fused");
                ctx.mem.set("fused", sim.nbytes());
            }
            None => ctx.ckpt.save(Stage::Fused, &sim, rec)?,
        }

        let eval = evaluate(&sim, &seeds.test);
        let attribution = match (&structure_hits, &name_out) {
            (Some(hs), Some(n)) => {
                let hits = |m| top1_hits(m, &seeds.test);
                Some(ChannelAttribution::from_hits(
                    hs,
                    &hits(&n.m_n),
                    &hits(&sim),
                ))
            }
            _ => None,
        };
        pipeline_span.field("pseudo_seeds", pseudo_seeds);
        pipeline_span.field("hits1", eval.hits1);
        if degraded.is_degraded() {
            // Honest flagging: a degraded run must never masquerade as a
            // full-fidelity one. (Fault-free runs carry none of these
            // fields, keeping their traces byte-identical to older ones.)
            pipeline_span.field("degraded.name_channel", degraded.name_channel);
            pipeline_span.field("degraded.structure_channel", degraded.structure_channel);
            pipeline_span.field(
                "degraded.quarantined_batches",
                degraded.quarantined_batches.len(),
            );
        }
        let total_seconds = pipeline_span.finish();
        let tracked_peak_bytes = ctx.mem.total_peak();
        ctx.mem.record_into(rec);
        // Close the measured-memory window (after the pipeline span's own
        // window — LIFO) and settle the books. The window peak is the net
        // growth attributable to this run, which is the right comparand
        // for the tracker: pre-existing allocations (interned strings, the
        // generated KG pair) are neither tracked nor in the window.
        let measured_heap_peak_bytes = largeea_common::alloc::span_close(heap_window)
            .filter(|_| largeea_common::alloc::is_instrumented())
            .map(|d| d.peak_bytes as usize);
        if rec.heap_enabled() {
            if let Some(measured) = measured_heap_peak_bytes {
                rec.gauge_max("heap.measured.peak_bytes", measured as f64);
            }
            rec.gauge("heap.live", largeea_common::alloc::heap_live() as f64);
            rec.gauge_max("heap.peak", largeea_common::alloc::heap_peak() as f64);
        }
        if exec.mem_audit {
            let measured = measured_heap_peak_bytes.ok_or(MemAuditError::Uninstrumented)?;
            ctx.mem.audit(measured)?;
        }
        // Final live flush AFTER the last metric lands and BEFORE the trace
        // snapshot below: nothing records in between, so the flushed
        // `live.trace.json` is byte-identical to the exported trace.
        rec.flush_live();
        // Single source of truth: the report's timings are the trace's
        // (finish() returns the exact f64 stored in the span).
        let trace = rec.trace();
        Ok(LargeEaReport {
            eval,
            sens_seconds: trace.total_seconds("sens"),
            stns_seconds: trace.total_seconds("stns"),
            partition_seconds: trace.total_seconds("partition"),
            training_seconds: trace.total_seconds("train"),
            total_seconds,
            trace,
            name_peak_bytes: name_out.as_ref().map_or(0, |n| n.peak_bytes),
            structure_peak_bytes: structure_out.as_ref().map_or(0, |s| s.peak_bytes),
            tracked_peak_bytes,
            measured_heap_peak_bytes,
            pseudo_seeds,
            pseudo_seed_accuracy,
            retention: structure_out.as_ref().map(|s| s.batches.retention(seeds)),
            edge_cut_rate: structure_out
                .as_ref()
                .map_or(0.0, |s| s.batches.edge_cut_rate(pair)),
            attribution,
            m_n: name_out.map(|n| n.m_n),
            sim,
            degraded,
        })
    }
}

/// A channel died with `e`. When the run may degrade (`--degraded-ok`, the
/// error is an I/O fault, and the *other* channel can carry the run), the
/// loss is recorded — `degraded.<channel>` trace counter plus the
/// [`Degradations`] ledger — and `Ok(())` lets the pipeline continue.
/// Otherwise the fault is terminal: [`RunError::Quarantined`] when
/// degradation was allowed but nothing usable remains,
/// [`RunError::Exhausted`] when a transient fault outlived its retries, or
/// `e` unchanged for deterministic (never-retryable) failures.
fn channel_lost(
    channel: &'static str,
    e: RunError,
    degraded_ok: bool,
    other_channel_available: bool,
    degraded: &mut Degradations,
    rec: &Recorder,
) -> Result<(), RunError> {
    if degraded_ok && supervisor::is_io_fault(&e) {
        if other_channel_available {
            rec.add(&format!("degraded.{channel}"), 1);
            match channel {
                "name_channel" => degraded.name_channel = true,
                _ => degraded.structure_channel = true,
            }
            return Ok(());
        }
        let mut units = degraded.units();
        units.push(channel.to_owned());
        return Err(RunError::Quarantined(Quarantined {
            units,
            why: e.to_string(),
        }));
    }
    if e.transience() == Transience::Transient {
        return Err(RunError::Exhausted(Exhausted {
            site: channel.to_owned(),
            attempts: RetryPolicy::default().max_attempts,
            last: Box::new(e),
        }));
    }
    Err(e)
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
        let report = LargeEa::new(quick()).run(&pair, &seeds);
        assert!(
            report.pseudo_seeds > 50,
            "only {} pseudo seeds",
            report.pseudo_seeds
        );
        assert!(
            report.pseudo_seed_accuracy > 0.75,
            "pseudo-seed accuracy {}",
            report.pseudo_seed_accuracy
        );
    }

    #[test]
    fn report_carries_timings_and_memory() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 7);
        let r = LargeEa::new(quick()).run(&pair, &seeds);
        assert!(r.total_seconds > 0.0);
        assert!(r.name_peak_bytes > 0);
        assert!(r.structure_peak_bytes > 0);
        assert!(
            r.tracked_peak_bytes >= r.name_peak_bytes.max(r.structure_peak_bytes),
            "the tracked total peak bounds every per-label peak"
        );
        assert!(r.retention.is_some());
        assert!(r.edge_cut_rate >= 0.0 && r.edge_cut_rate <= 1.0);
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
                assert!(
                    b.tracked > 1024,
                    "tracked {} should exceed budget",
                    b.tracked
                );
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
        assert!(r.tracked_peak_bytes > 0 && r.tracked_peak_bytes <= 1 << 30);
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
        assert!(boot.training_seconds > one.training_seconds);
    }

    #[test]
    fn report_seconds_are_exactly_the_trace_spans() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 11);
        let r = LargeEa::new(quick()).run(&pair, &seeds);
        let t = &r.trace;
        // single source of truth: report fields == trace span sums, bitwise
        assert_eq!(r.sens_seconds, t.total_seconds("sens"));
        assert_eq!(r.stns_seconds, t.total_seconds("stns"));
        assert_eq!(r.partition_seconds, t.total_seconds("partition"));
        assert_eq!(r.training_seconds, t.total_seconds("train"));
        assert_eq!(r.total_seconds, t.total_seconds("pipeline"));
        assert!(r.sens_seconds > 0.0 && r.training_seconds > 0.0);
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
        // memory gauges folded in from MemTracker
        assert_eq!(
            t.gauge("mem.name_channel.peak_bytes"),
            Some(r.name_peak_bytes as f64)
        );
        assert_eq!(
            t.gauge("mem.structure_channel.peak_bytes"),
            Some(r.structure_peak_bytes as f64)
        );
    }

    #[test]
    fn mem_audit_without_instrumented_allocator_is_a_typed_error() {
        // This unit-test binary does not install CountingAlloc, so asking
        // for an audit must fail up front with the Uninstrumented variant
        // rather than comparing against all-zero measurements.
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 5);
        let exec = ExecOptions {
            mem_audit: true,
            ..ExecOptions::default()
        };
        let rec = Recorder::new(ObsConfig::default());
        let err = LargeEa::new(quick())
            .run_exec(&pair, &seeds, 1, &rec, &exec)
            .unwrap_err();
        match err {
            RunError::Audit(MemAuditError::Uninstrumented) => {}
            other => panic!("expected Audit(Uninstrumented), got {other}"),
        }
        assert!(err.to_string().contains("allocator"));
    }

    #[test]
    fn measured_heap_peak_is_absent_without_the_allocator() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 6);
        let r = LargeEa::new(quick()).run(&pair, &seeds);
        assert_eq!(r.measured_heap_peak_bytes, None);
    }

    #[test]
    fn disabled_recorder_yields_empty_trace_and_zero_timings() {
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
        assert_eq!(r.total_seconds, 0.0);
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
