//! The structure channel (paper §2.2 and Algorithm 1).
//!
//! Given the (possibly augmented) seed alignment:
//! 1. generate `K` mini-batches with METIS-CPS (or VPS, or no partition);
//! 2. train the chosen GNN-based EA model inside each batch independently;
//! 3. score each batch's source entities against its target entities and
//!    keep the top-k candidates — the block-sparse structural similarity
//!    matrix `M_s`.

use crate::checkpoint::Stage;
use crate::pipeline::{RunCtx, RunError};
use largeea_common::obs::{Level, Recorder};
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::scoring::fill_similarity;
use largeea_models::{train_hooked, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::{metis_cps_traced, vps, CpsConfig, MiniBatches};
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
    pub virtual_edge_weight: u32,
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
            virtual_edge_weight: 1000,
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
            Partitioner::Vps => vps(pair, seeds, self.cfg.k, self.cfg.seed, rec),
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
    /// [`StructureChannel::run_in`] a [`RunCtx::in_memory`] that records
    /// nothing.
    pub fn run(&self, pair: &KgPair, seeds: &AlignmentSeeds) -> StructureChannelOutput {
        self.run_in(pair, seeds, &mut RunCtx::in_memory(&Recorder::disabled()))
            .expect("memory backing, no budget, no checkpoint: no RunError has a source")
    }

    /// Runs the channel against `ctx` (DESIGN.md §S0.8).
    ///
    /// Records into `ctx.rec` a `structure_channel` span with `partition`
    /// and `train` children (Figure 4's METIS-CPS and EA-training seconds),
    /// one `minibatch` span per batch (with the batch's `final_loss` when
    /// it trained) and per-epoch `epoch` spans from the trainer.
    ///
    /// Each batch asks `ctx.budget` for its training state (Adam's two
    /// moments, once the model is built) and for its similarity block
    /// before it builds them. The block ([`largeea_sim::SimRows`]: the
    /// batch's own rows, nothing for the others) is put into `ctx.store`
    /// instead of growing `M_s`, and `M_s` is assembled after the training
    /// loop by taking the blocks back **in batch order**, one `insert_row`
    /// per held row — one insert sequence whatever the store's backing.
    ///
    /// Each batch's similarity block is the channel's durable boundary
    /// ([`Stage::Sim`], scoped by `ctx.round`): a block `ctx.ckpt` already
    /// holds goes into the store as it is, and only the other batches
    /// train. The partition and `M_s` are recomputed on every run. Per-batch
    /// training is seeded independently (`cfg.seed ^ batch.index`) and the
    /// blocks merge in batch order, so a resumed channel produces a
    /// bit-identical `M_s`.
    pub fn run_in(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        ctx: &mut RunCtx<'_>,
    ) -> Result<StructureChannelOutput, RunError> {
        let RunCtx {
            rec,
            budget,
            store,
            ckpt,
            round,
        } = ctx;
        let (rec, round) = (*rec, *round);
        let channel_span = rec.span("structure_channel");
        let partition_span = rec.span("partition");
        let batches = self.make_batches_traced(pair, seeds, rec);
        partition_span.finish();

        let mut m_s = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
        // stages of the stored blocks, in batch order — the merge order below
        let mut stored_blocks: Vec<Stage> = Vec::new();
        let train_span = rec.span("train");
        for batch in &batches.batches {
            let sim = Stage::Sim {
                round,
                batch: batch.index,
            };
            let mut batch_span = rec.span_at(Level::Detail, "minibatch");
            batch_span.field("batch", batch.index);
            if let Some(block) = ckpt.load(sim, rec) {
                store
                    .put_sim(&sim.key(), block, rec)
                    .map_err(RunError::Spill)?;
                stored_blocks.push(sim);
                continue;
            }
            // graph assembly here and the model build below are both
            // `batch_graph` spans: what a batch costs before it trains
            let graph_span = rec.span_at(Level::Detail, "batch_graph");
            let bg = BatchGraph::from_mini_batch(pair, batch);
            drop(graph_span);
            batch_span.field("source_entities", bg.n_source);
            batch_span.field("target_entities", bg.n_target);
            if bg.n_source == 0 || bg.n_target == 0 {
                continue;
            }
            let embeddings = {
                let graph_span = rec.span_at(Level::Detail, "batch_graph");
                let mut model = self.cfg.model.build(
                    &bg,
                    self.cfg.train.dim,
                    self.cfg.seed ^ batch.index as u64,
                );
                drop(graph_span);
                // Adam's two moments of every (already live) parameter
                budget.admit("train", 2 * model.store().nbytes())?;
                let mut progress = |epoch: usize, loss: f32| {
                    ckpt.epoch_progress(round, batch.index, epoch, loss);
                };
                let report = train_hooked(
                    model.as_mut(),
                    &bg,
                    &self.cfg.train,
                    rec,
                    Some(&mut progress),
                );
                if let Some(&last) = report.losses.last() {
                    batch_span.field("final_loss", last);
                }
                report.embeddings
            };
            {
                let mut topk_span = rec.span_at(Level::Detail, "topk");
                topk_span.field("batch", batch.index);
                rec.add("topk.scored_pairs", (bg.n_source * bg.n_target) as u64);
                // fill a block of the batch's own rows and store it
                // instead of growing `m_s` — same final content (each
                // (row, col) is unique within a batch and cross-batch
                // duplicates accumulate by `+=` either way), and it can
                // be persisted first
                let entries = bg.n_source * self.cfg.top_k;
                budget.admit("sim_block", entries * std::mem::size_of::<(u32, f32)>())?;
                let shape = (m_s.n_rows(), m_s.n_cols());
                let block = fill_similarity(&bg, &embeddings, self.cfg.top_k, shape, rec);
                ckpt.save(sim, &block, rec)?;
                store
                    .put_sim(&sim.key(), block, rec)
                    .map_err(RunError::Spill)?;
                stored_blocks.push(sim);
            }
        }
        // assemble M_s by taking the blocks back in batch order
        for block in &stored_blocks {
            store
                .take_sim(&block.key(), rec)
                .map_err(RunError::Spill)?
                .merge_into(&mut m_s);
        }
        m_s.normalize_global_minmax();
        train_span.finish();
        channel_span.finish();
        Ok(StructureChannelOutput { m_s, batches })
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
