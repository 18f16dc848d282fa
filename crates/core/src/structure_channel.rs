//! The structure channel (paper §2.2 and Algorithm 1).
//!
//! Given the (possibly augmented) seed alignment:
//! 1. generate `K` mini-batches with METIS-CPS (or VPS, or no partition);
//! 2. train the chosen GNN-based EA model inside each batch independently;
//! 3. score each batch's source entities against its target entities and
//!    keep the top-k candidates — the block-sparse structural similarity
//!    matrix `M_s`.

use crate::checkpoint::{Checkpoint, Stage};
use crate::pipeline::{RunCtx, RunError};
use crate::supervisor::{self, Exhausted};
use largeea_common::obs::{Level, ObsConfig, Recorder};
use largeea_common::retry::{with_retry, RetryPolicy, Retryable, Transience};
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::scoring::fill_similarity;
use largeea_models::{train_hooked, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::{metis_cps_traced, vps_traced, CpsConfig, MiniBatches};
use largeea_sim::SparseSimMatrix;

/// How mini-batches are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// METIS-CPS (the paper's strategy).
    MetisCps,
    /// Vanilla partition strategy (random baseline).
    Vps,
    /// No partitioning: one batch holding both whole KGs (`w/o p.`).
    None,
}

/// Structure-channel configuration.
#[derive(Debug, Clone, Copy)]
pub struct StructureChannelConfig {
    /// Number of mini-batches `K` (ignored for [`Partitioner::None`]).
    pub k: usize,
    /// Mini-batch generation strategy.
    pub partitioner: Partitioner,
    /// Which EA model trains inside each batch.
    pub model: ModelKind,
    /// Trainer hyper-parameters.
    pub train: TrainConfig,
    /// Candidates retained per source entity in `M_s`.
    pub top_k: usize,
    /// Overlap degree `D_ov` (Appendix C); 1 = disjoint batches.
    pub d_ov: usize,
    /// METIS-CPS virtual-edge weight `w′`.
    pub virtual_edge_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StructureChannelConfig {
    fn default() -> Self {
        Self {
            k: 5,
            partitioner: Partitioner::MetisCps,
            model: ModelKind::Rrea,
            train: TrainConfig::default(),
            top_k: 50,
            d_ov: 1,
            virtual_edge_weight: 1000.0,
            seed: 0x57C,
        }
    }
}

/// Everything the structure channel produces.
#[derive(Debug)]
pub struct StructureChannelOutput {
    /// Block-sparse structural similarity `M_s` (min-max normalised rows).
    pub m_s: SparseSimMatrix,
    /// The mini-batches used (for retention / edge-cut diagnostics).
    pub batches: MiniBatches,
    /// Seconds spent generating mini-batches.
    pub partition_seconds: f64,
    /// Seconds spent training + scoring across all batches.
    pub training_seconds: f64,
    /// Peak bytes across batch trainings (one batch live at a time).
    pub peak_bytes: usize,
    /// Mean final training loss across batches that trained.
    pub final_loss: f64,
    /// Units quarantined under `--degraded-ok` (DESIGN.md §S0.7): batch
    /// keys (`r<R>.b<I>`) whose similarity blocks are missing from `M_s`
    /// because their I/O outlived every retry. Empty on a healthy run.
    pub quarantined: Vec<String>,
}

/// The structure channel runner.
#[derive(Debug, Clone)]
pub struct StructureChannel {
    cfg: StructureChannelConfig,
}

impl StructureChannel {
    /// Creates a channel with `cfg`.
    pub fn new(cfg: StructureChannelConfig) -> Self {
        assert!(cfg.k >= 1, "k must be positive");
        assert!(cfg.top_k >= 1, "top_k must be positive");
        Self { cfg }
    }

    /// Generates mini-batches only (used by the partition-analysis
    /// experiments, Tables 5 / Figures 6–8).
    pub fn make_batches(&self, pair: &KgPair, seeds: &AlignmentSeeds) -> MiniBatches {
        self.make_batches_traced(pair, seeds, &Recorder::disabled())
    }

    /// [`StructureChannel::make_batches`] recording the partitioner's
    /// internals (CPS step spans, per-level/per-pass refinement spans,
    /// `cps.*` counters) into `rec`.
    pub fn make_batches_traced(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        rec: &Recorder,
    ) -> MiniBatches {
        // Work-unit counter behind the partition stage's derived
        // throughput (`throughput::derived_throughputs`): both KGs'
        // triples flow through coarsening, so triples/sec is the
        // scale-independent rate to trend across runs.
        rec.add(
            "partition.input_triples",
            (pair.source.num_triples() + pair.target.num_triples()) as u64,
        );
        let base = match self.cfg.partitioner {
            Partitioner::MetisCps => {
                let mut cps = CpsConfig::new(self.cfg.k).with_seed(self.cfg.seed);
                cps.virtual_edge_weight = self.cfg.virtual_edge_weight;
                metis_cps_traced(pair, seeds, &cps, rec)
            }
            Partitioner::Vps => vps_traced(pair, seeds, self.cfg.k, self.cfg.seed, rec),
            Partitioner::None => MiniBatches::from_assignments(
                pair,
                seeds,
                &vec![0; pair.source.num_entities()],
                &vec![0; pair.target.num_entities()],
                1,
            ),
        };
        if self.cfg.d_ov > 1 {
            base.overlapped(pair, seeds, self.cfg.d_ov)
        } else {
            base
        }
    }

    /// Runs the full channel (Algorithm 1, given already-augmented seeds):
    /// [`StructureChannel::run_in`] a [`RunCtx::in_memory`]. A private
    /// default recorder keeps the reported timings real even though nobody
    /// asked for a trace (spans time whether stored or not).
    pub fn run(&self, pair: &KgPair, seeds: &AlignmentSeeds) -> StructureChannelOutput {
        let rec = Recorder::new(ObsConfig::default());
        self.run_in(pair, seeds, &mut RunCtx::in_memory(&rec))
            .expect("memory backing, no budget, no checkpoint: no RunError has a source")
    }

    /// Runs the channel against `ctx` (DESIGN.md §S0.8).
    ///
    /// Records into `ctx.rec` a `structure_channel` span with `partition`
    /// and `train` children (the reported `partition_seconds` /
    /// `training_seconds` are those spans' durations — single source of
    /// truth, so `0.0` with a disabled recorder), one `minibatch` span per
    /// batch and per-epoch `epoch` spans from the trainer.
    ///
    /// All byte accounting goes through `ctx.mem` (typically the pipeline's
    /// shared budgeted tracker — whoever built the context folds it into
    /// the trace). Each batch's similarity block is put into `ctx.store`
    /// instead of growing `M_s`, and `M_s` is assembled after the training
    /// loop by taking the blocks back **in batch order** — one insert
    /// sequence whatever the store's backing.
    ///
    /// The channel persists its natural boundaries to `ctx.ckpt` as the
    /// `ctx.round`-scoped [`Stage`]s — `Partition` (the mini-batch
    /// assignment), `Emb` (each batch's trained embeddings), `Sim` (each
    /// batch's similarity block) and `Ms` (the round's normalised `M_s`) —
    /// and skips any stage the manifest already marks done. Because
    /// per-batch training is seeded independently (`cfg.seed ^
    /// batch.index`) and `M_s` assembly merges blocks in batch order, a
    /// resumed channel produces a bit-identical `M_s`.
    ///
    /// Transient faults are supervised (DESIGN.md §S0.7): a mini-batch
    /// whose store/checkpoint I/O exhausts site-level retries is
    /// re-executed as a whole under the same schedule (per-batch seeds make
    /// the re-run bit-identical), and with `ctx.degraded_ok` a batch that
    /// *still* fails is quarantined — recorded in the checkpoint manifest,
    /// the `degraded.batches` trace counter and
    /// [`StructureChannelOutput::quarantined`] — instead of failing the run.
    pub fn run_in(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        ctx: &mut RunCtx<'_>,
    ) -> Result<StructureChannelOutput, RunError> {
        let RunCtx {
            rec,
            mem,
            store,
            ckpt,
            round,
            degraded_ok,
        } = ctx;
        let (rec, round, degraded_ok) = (*rec, *round, *degraded_ok);
        let channel_span = rec.span("structure_channel");
        let partition_span = rec.span("partition");
        let batches = ckpt.load_or(Stage::Partition { round }, rec, |_| {
            Ok::<_, RunError>(self.make_batches_traced(pair, seeds, rec))
        })?;
        let partition_seconds = partition_span.finish();

        // A completed round short-circuits the whole training loop.
        if let Some(m_s) = ckpt.load::<SparseSimMatrix>(Stage::Ms { round }, rec) {
            mem.charge("structure_channel", m_s.nbytes())?;
            channel_span.finish();
            return Ok(StructureChannelOutput {
                peak_bytes: mem.peak("structure_channel"),
                m_s,
                batches,
                partition_seconds,
                training_seconds: 0.0,
                final_loss: 0.0,
                quarantined: Vec::new(),
            });
        }

        let mut m_s = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
        mem.charge("structure_channel", m_s.nbytes())?;
        // stages of the stored blocks, in batch order — the merge order below
        let mut stored_blocks: Vec<Stage> = Vec::new();
        let train_span = rec.span("train");
        // Live-telemetry progress gauges: how far along this round's
        // training loop is (`trace tail` reads these for its progress/ETA
        // line; `progress.epochs_total` is per batch).
        rec.gauge("progress.batches_total", batches.batches.len() as f64);
        rec.gauge("progress.epochs_total", self.cfg.train.epochs as f64);
        let mut loss_sum = 0.0f64;
        let mut loss_count = 0usize;
        let mut quarantined: Vec<String> = Vec::new();
        for batch in &batches.batches {
            rec.gauge("progress.batch", (batch.index + 1) as f64);
            // The unit of batch-level supervision. The body below is
            // re-executable as a whole: per-batch seeds are independent
            // (`cfg.seed ^ batch.index`), `m_s` is not touched until every
            // batch is done, and a put replaces what a failed attempt left
            // under the same key, so a failed attempt rolls back to
            // `(mem_before, blocks_before)` and the re-run is bit-identical.
            let sim = Stage::Sim {
                round,
                batch: batch.index,
            };
            let mem_before = mem.current("structure_channel");
            let blocks_before = stored_blocks.len();
            let (res, stats) = with_retry(&RetryPolicy::default(), &sim.unit(), |attempt| {
                if attempt > 1 {
                    mem.set("structure_channel", mem_before);
                    stored_blocks.truncate(blocks_before);
                }
                let mut batch_span = rec.span_at(Level::Detail, "minibatch");
                batch_span.field("batch", batch.index);
                if let Some(block) = ckpt.load(sim, rec) {
                    let held = store
                        .put_sim(&sim.key(), block, rec)
                        .map_err(RunError::Spill)?;
                    stored_blocks.push(sim);
                    mem.charge("structure_channel", held)?;
                    return Ok(None);
                }
                // graph assembly here and the model build below are both
                // `batch_graph` spans: what a batch costs before it trains
                let graph_span = rec.span_at(Level::Detail, "batch_graph");
                let bg = BatchGraph::from_mini_batch(pair, batch);
                drop(graph_span);
                batch_span.field("source_entities", bg.n_source);
                batch_span.field("target_entities", bg.n_target);
                if bg.n_source == 0 || bg.n_target == 0 {
                    return Ok(None);
                }
                // both stay as initialised when the embeddings are loaded
                let (mut batch_loss, mut train_peak) = (None, 0usize);
                let emb = Stage::Emb {
                    round,
                    batch: batch.index,
                };
                let embeddings = ckpt.load_or(emb, rec, |ckpt| {
                    let graph_span = rec.span_at(Level::Detail, "batch_graph");
                    let mut model = self.cfg.model.build(
                        &bg,
                        self.cfg.train.dim,
                        self.cfg.seed ^ batch.index as u64,
                    );
                    drop(graph_span);
                    let mut progress = |epoch: usize, loss: f32| {
                        ckpt.epoch_progress(round, batch.index, epoch, loss, rec);
                    };
                    let report = train_hooked(
                        model.as_mut(),
                        &bg,
                        &self.cfg.train,
                        rec,
                        Some(&mut progress),
                    );
                    if let Some(&last) = report.losses.last() {
                        batch_loss = Some(last);
                        batch_span.field("final_loss", last);
                    }
                    train_peak = report.peak_bytes;
                    Ok::<_, RunError>(report.embeddings)
                })?;
                mem.charge("structure_channel", embeddings.nbytes())?;
                {
                    let mut topk_span = rec.span_at(Level::Detail, "topk");
                    topk_span.field("batch", batch.index);
                    rec.add("topk.scored_pairs", (bg.n_source * bg.n_target) as u64);
                    // fill a fresh block and store it instead of growing
                    // `m_s` — same final content (each (row, col) is unique
                    // within a batch and cross-batch duplicates accumulate
                    // by `+=` either way), and it can be persisted first
                    let mut block = SparseSimMatrix::new(m_s.n_rows(), m_s.n_cols());
                    fill_similarity(&bg, &embeddings, self.cfg.top_k, &mut block, rec);
                    let block_bytes = block.nbytes();
                    mem.charge("structure_channel", block_bytes)?;
                    ckpt.save(sim, &block, rec)?;
                    let held = store
                        .put_sim(&sim.key(), block, rec)
                        .map_err(RunError::Spill)?;
                    stored_blocks.push(sim);
                    mem.uncharge("structure_channel", block_bytes);
                    mem.charge("structure_channel", held)?;
                }
                // the training transient counts against the budget too
                mem.charge("structure_channel", train_peak)?;
                mem.uncharge("structure_channel", train_peak);
                mem.uncharge("structure_channel", embeddings.nbytes());
                Ok(batch_loss)
            });
            stats.record_into(rec);
            match res {
                Ok(Some(last)) => {
                    loss_sum += last as f64;
                    loss_count += 1;
                }
                Ok(None) => {}
                Err(e) => {
                    // roll back the failed final attempt before deciding
                    mem.set("structure_channel", mem_before);
                    stored_blocks.truncate(blocks_before);
                    batch_fault(
                        e,
                        sim.unit(),
                        stats.retries as u32 + 1,
                        degraded_ok,
                        ckpt,
                        &mut quarantined,
                        rec,
                    )?;
                }
            }
            // end of a mini-batch: refresh the working-set gauge and give
            // the sampler a stage-boundary tick
            rec.gauge("mem.tracked.bytes", mem.total_current() as f64);
            rec.live_tick();
        }
        // assemble M_s by taking the blocks back in batch order
        for block in &stored_blocks {
            match store.take_sim(&block.key(), rec).map_err(RunError::Spill) {
                Ok((block, held)) => {
                    let before = m_s.nbytes();
                    merge_block(&mut m_s, &block);
                    mem.charge("structure_channel", m_s.nbytes() - before)?;
                    mem.uncharge("structure_channel", held);
                }
                Err(e) => {
                    // a block written earlier became unreadable: same
                    // fate as a batch that never produced one
                    batch_fault(e, block.unit(), 1, degraded_ok, ckpt, &mut quarantined, rec)?;
                }
            }
        }
        m_s.normalize_global_minmax();
        ckpt.save(Stage::Ms { round }, &m_s, rec)?;
        let training_seconds = train_span.finish();
        channel_span.finish();

        Ok(StructureChannelOutput {
            m_s,
            batches,
            partition_seconds,
            training_seconds,
            peak_bytes: mem.peak("structure_channel"),
            final_loss: if loss_count == 0 {
                0.0
            } else {
                loss_sum / loss_count as f64
            },
            quarantined,
        })
    }
}

/// Decides the fate of a mini-batch whose I/O outlived batch-level retry.
/// With `degraded_ok` and an I/O-fault error the batch is quarantined —
/// `degraded.batches` trace counter, checkpoint-manifest record, an entry in
/// `quarantined` — and `Ok(())` lets the loop continue without its block.
/// Otherwise the fault is terminal: [`RunError::Exhausted`] for transients
/// that were actually retried, the unchanged error for deterministic
/// failures (budget, audit, fatal I/O).
fn batch_fault(
    e: RunError,
    unit: String,
    attempts: u32,
    degraded_ok: bool,
    ckpt: &mut Checkpoint,
    quarantined: &mut Vec<String>,
    rec: &Recorder,
) -> Result<(), RunError> {
    if degraded_ok && supervisor::is_io_fault(&e) {
        rec.add("degraded.batches", 1);
        ckpt.quarantine(&unit, rec)?;
        quarantined.push(unit);
        return Ok(());
    }
    if e.transience() == Transience::Transient {
        return Err(RunError::Exhausted(Exhausted {
            site: unit,
            attempts,
            last: Box::new(e),
        }));
    }
    Err(e)
}

/// Accumulates a persisted per-batch similarity block into `m_s`.
fn merge_block(m_s: &mut SparseSimMatrix, block: &SparseSimMatrix) {
    for r in 0..block.n_rows() {
        for &(c, s) in block.row(r) {
            m_s.insert(r, c, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use largeea_data::Preset;

    fn quick_cfg(k: usize, partitioner: Partitioner) -> StructureChannelConfig {
        StructureChannelConfig {
            k,
            partitioner,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 30,
                dim: 32,
                ..Default::default()
            },
            top_k: 10,
            ..Default::default()
        }
    }

    #[test]
    fn channel_learns_on_synthetic_ids() {
        let pair = Preset::Ids15kEnFr.spec(0.02).generate(); // 300 aligned
        let seeds = pair.split_seeds(0.3, 1);
        let cfg = StructureChannelConfig {
            k: 2,
            partitioner: Partitioner::MetisCps,
            model: ModelKind::Rrea,
            train: TrainConfig {
                epochs: 60,
                dim: 48,
                ..Default::default()
            },
            top_k: 10,
            ..Default::default()
        };
        let out = StructureChannel::new(cfg).run(&pair, &seeds);
        let eval = evaluate(&out.m_s, &seeds.test);
        // structure-only at this tiny scale with K=2 partitioning: well
        // above the ~0.7 % random-hit floor is the meaningful bar
        assert!(
            eval.hits1 > 5.0,
            "structure channel H@1 {} too low",
            eval.hits1
        );
        assert!(out.training_seconds > 0.0);
        assert!(out.peak_bytes > 0);
    }

    #[test]
    fn no_partition_single_batch() {
        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.3, 2);
        let sc = StructureChannel::new(quick_cfg(4, Partitioner::None));
        let batches = sc.make_batches(&pair, &seeds);
        assert_eq!(batches.k(), 1);
        assert_eq!(batches.retention(&seeds).total, 1.0);
    }

    #[test]
    fn cps_retention_beats_vps_on_test_pairs() {
        let pair = Preset::Ids15kEnFr.spec(0.02).generate();
        let seeds = pair.split_seeds(0.2, 3);
        let cps =
            StructureChannel::new(quick_cfg(3, Partitioner::MetisCps)).make_batches(&pair, &seeds);
        let vps_b =
            StructureChannel::new(quick_cfg(3, Partitioner::Vps)).make_batches(&pair, &seeds);
        let (rc, rv) = (cps.retention(&seeds), vps_b.retention(&seeds));
        assert!(
            rc.test > rv.test,
            "CPS test retention {} should beat VPS {}",
            rc.test,
            rv.test
        );
    }

    #[test]
    fn overlap_increases_colocations() {
        let pair = Preset::Ids15kEnFr.spec(0.02).generate();
        let seeds = pair.split_seeds(0.2, 4);
        let mut cfg = quick_cfg(3, Partitioner::MetisCps);
        let disjoint = StructureChannel::new(cfg).make_batches(&pair, &seeds);
        cfg.d_ov = 2;
        let overlapped = StructureChannel::new(cfg).make_batches(&pair, &seeds);
        assert!(overlapped.retention(&seeds).total >= disjoint.retention(&seeds).total);
    }
}
