//! The mini-batch training loop (paper §2.2.2).
//!
//! Every epoch re-records the graph on the one autograd tape the batch
//! owns — [`Tape::reset`] keeps last epoch's value buffers and takes the
//! parameter gradients back into the free list every gradient is leased
//! from, so from the second epoch on a step allocates (almost) nothing and
//! the tape holds the step's values plus the gradients live at once — runs
//! the model forward, scores the batch's seed pairs with the margin-based
//! triplet loss `Σ [f_p(h_s, h_t) + γ − f_n]₊` as one fused node
//! ([`Tape::triplet_l1`]: distances are Manhattan, negatives come from
//! nearest-neighbour sampling refreshed periodically, as in RREA), and
//! takes one Adam step on the parameter gradients it borrows from the tape.

use crate::batch_graph::BatchGraph;
use crate::negative::{sample_negatives, NegStrategy, Negatives};
use largeea_common::obs::{Level, Recorder};
use largeea_tensor::optim::{Adam, AdamConfig, ParamId, ParamStore};
use largeea_tensor::{IndexList, Matrix, Tape, Var};
use std::rc::Rc;

/// The result of one forward pass: the final entity embeddings plus the
/// tape leaves corresponding to each learnable parameter (so the trainer
/// can route gradients back into the [`ParamStore`]).
pub struct ForwardPass {
    /// `n_total × dim` entity embeddings (row-normalised).
    pub embeddings: Var,
    /// `(store id, tape leaf)` for every parameter loaded this pass.
    pub params: Vec<(ParamId, Var)>,
}

/// An EA model trainable by [`train`].
pub trait EaModel {
    /// Number of entities the model embeds.
    fn n_entities(&self) -> usize;
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// The learnable parameters.
    fn store(&self) -> &ParamStore;
    /// Mutable access for the optimiser.
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Builds one forward pass on `tape`.
    fn forward(&self, tape: &mut Tape) -> ForwardPass;
    /// Optional model-specific training objective added to the alignment
    /// loss each epoch (translational models train a triple loss here;
    /// GNN models return `None`). `params` are the leaves of the current
    /// forward pass, in registration order.
    fn auxiliary_loss(
        &self,
        tape: &mut Tape,
        params: &[(ParamId, Var)],
        epoch: usize,
    ) -> Option<Var> {
        let _ = (tape, params, epoch);
        None
    }
}

/// Which structural EA model to instantiate — the paper's two variants
/// (`LargeEA-G` uses GCN-Align, `LargeEA-R` uses RREA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The structural variant of GCN-Align.
    GcnAlign,
    /// Relational Reflection EA.
    Rrea,
    /// MTransE-style translational model (TransE triple loss + alignment
    /// loss) — the representative of the paper's "Translational-based EA"
    /// family (§4).
    MTransE,
}

impl ModelKind {
    /// Instantiates the model for a batch graph.
    pub fn build(self, bg: &BatchGraph, dim: usize, seed: u64) -> Box<dyn EaModel> {
        match self {
            ModelKind::GcnAlign => Box::new(crate::gcn_align::GcnAlign::new(bg, dim, seed)),
            ModelKind::Rrea => Box::new(crate::rrea::Rrea::new(bg, dim, seed)),
            ModelKind::MTransE => Box::new(crate::mtranse::MTransE::new(bg, dim, seed)),
        }
    }

    /// Short display name (`G` / `R` in the paper's variant naming).
    pub fn short_name(self) -> &'static str {
        match self {
            ModelKind::GcnAlign => "G",
            ModelKind::Rrea => "R",
            ModelKind::MTransE => "M",
        }
    }
}

/// Training hyper-parameters. Defaults follow the paper's setup
/// (Adam, 100 epochs per mini-batch).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs per mini-batch.
    pub epochs: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Triplet-loss margin γ.
    pub margin: f32,
    /// Negatives per positive pair and corruption side.
    pub neg_samples: usize,
    /// Regenerate negatives every this many epochs.
    pub neg_refresh: usize,
    /// Negative sampling strategy.
    pub neg_strategy: NegStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            dim: 64,
            lr: 5e-3,
            margin: 3.0,
            neg_samples: 15,
            neg_refresh: 5,
            neg_strategy: NegStrategy::Nearest,
            seed: 0x7EA1,
        }
    }
}

/// Outcome of training one mini-batch.
#[derive(Debug)]
pub struct TrainReport {
    /// Final `n_total × dim` embeddings (forward pass after the last step).
    pub embeddings: Matrix,
    /// Mean loss per epoch (empty if the batch had no training pairs).
    pub losses: Vec<f32>,
    /// Peak bytes of parameters + optimiser state during training
    /// (the GPU-memory stand-in for Table 6).
    pub peak_bytes: usize,
    /// Bytes the autograd tape held on to at the end of training (one
    /// step's activations plus the free list its gradients and backward
    /// temporaries are leased from) — the rest of Table 6's "training
    /// memory".
    pub tape_bytes: usize,
}

/// The triplet batch as four parallel row-index lists `[s, t, neg_t,
/// neg_s]`, one entry per (training pair, negative): each pair repeated
/// once per negative beside its corrupted target and corrupted source.
/// Each list comes grouped by the batch local it names, for the loss's
/// backward, so a resample (not an epoch) pays for the grouping.
fn triplet_rows(bg: &BatchGraph, negs: &Negatives, n_neg: usize) -> [Rc<IndexList>; 4] {
    let rows = bg.train_pairs.len() * n_neg;
    let [mut s_rep, mut t_rep, mut neg_t, mut neg_s] = [(); 4].map(|()| Vec::with_capacity(rows));
    for (pi, &(s, t)) in bg.train_pairs.iter().enumerate() {
        for ni in 0..n_neg {
            s_rep.push(s);
            t_rep.push(t);
            neg_t.push(negs.corrupt_target[pi][ni % negs.corrupt_target[pi].len()]);
            neg_s.push(negs.corrupt_source[pi][ni % negs.corrupt_source[pi].len()]);
        }
    }
    [s_rep, t_rep, neg_t, neg_s].map(|list| Rc::new(IndexList::new(list, bg.n_total())))
}

/// Trains `model` on `bg` and returns the final embeddings.
///
/// A batch without training pairs cannot be trained (the paper's motivation
/// for VPS's even seed split); its embeddings are returned untrained.
pub fn train(model: &mut dyn EaModel, bg: &BatchGraph, cfg: &TrainConfig) -> TrainReport {
    train_traced(model, bg, cfg, &Recorder::disabled())
}

/// [`train`] with telemetry: the whole batch is a `train_batch` span
/// ([`Level::Detail`]) with `epochs`/`pairs`/`tape_bytes` fields; every
/// epoch is an `epoch` span ([`Level::Trace`]) with `epoch`/`loss`/
/// `grad_norm` fields and `forward` / `negatives` (when resampled) / `loss`
/// / `backward` / `step` children. Each negatives regeneration bumps the
/// `train.negatives_resampled` counter (and the sampler's own
/// `negatives.*` counters, see [`sample_negatives`]), per-epoch losses feed the
/// `train.epoch_loss` histogram, and the `train.peak_bytes` /
/// `train.tape_bytes` gauges keep the largest batch's parameter + Adam
/// state and retained tape.
pub fn train_traced(
    model: &mut dyn EaModel,
    bg: &BatchGraph,
    cfg: &TrainConfig,
    rec: &Recorder,
) -> TrainReport {
    train_hooked(model, bg, cfg, rec, None)
}

/// [`train_traced`] with an optional per-epoch hook, called after each Adam
/// step with `(epoch, mean loss)`. The checkpoint subsystem uses this to
/// persist training progress without the trainer knowing anything about
/// checkpoints; the hook must not mutate the model (it only observes), so
/// training with `None` and with a pure observer hook is bit-identical.
pub fn train_hooked(
    model: &mut dyn EaModel,
    bg: &BatchGraph,
    cfg: &TrainConfig,
    rec: &Recorder,
    mut hook: Option<&mut dyn FnMut(usize, f32)>,
) -> TrainReport {
    let mut batch_span = rec.span_at(Level::Detail, "train_batch");
    batch_span.field("epochs", cfg.epochs);
    batch_span.field("pairs", bg.train_pairs.len());
    let adam_cfg = AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    };
    let mut adam = Adam::new(adam_cfg, model.store());
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut peak_bytes = model.store().nbytes() + adam.nbytes();
    // The one tape of this batch: every training step and the final
    // forward record the same forward graph, so each reuses the buffers of
    // the one before.
    let mut tape = Tape::new();

    // A batch without training pairs (or epochs) skips straight to the
    // final forward pass.
    let epochs = if bg.train_pairs.is_empty() {
        0
    } else {
        cfg.epochs
    };
    let mut triplets = None;
    let phase = |name| rec.span_at(Level::Trace, name);
    for epoch in 0..epochs {
        let mut epoch_span = phase("epoch");
        epoch_span.field("epoch", epoch);
        let span = phase("forward");
        tape.reset();
        let fp = model.forward(&mut tape);
        drop(span);
        // Refresh negatives periodically, from the embeddings of this
        // epoch's one forward pass; the loss below joins the same tape.
        if triplets.is_none() || epoch % cfg.neg_refresh.max(1) == 0 {
            let _span = phase("negatives");
            // the last lists go before the next are built (the tape's reset
            // let go of its handles on them)
            drop(triplets.take());
            rec.add("train.negatives_resampled", 1);
            let negs = sample_negatives(
                bg,
                tape.value(fp.embeddings),
                cfg.neg_samples,
                cfg.neg_strategy,
                cfg.seed.wrapping_add(epoch as u64),
                rec,
            );
            triplets = Some(triplet_rows(bg, &negs, cfg.neg_samples.max(1)));
        }
        let [s, t, neg_t, neg_s] = triplets.clone().expect("negatives generated above");

        // [d_pos + γ − d_neg]₊ for both corruption sides
        let span = phase("loss");
        let mut loss = tape.triplet_l1(fp.embeddings, s, t, neg_t, neg_s, cfg.margin);
        if let Some(aux) = model.auxiliary_loss(&mut tape, &fp.params, epoch) {
            loss = tape.add(loss, aux);
        }
        drop(span);

        let span = phase("backward");
        tape.backward(loss);
        drop(span);
        let epoch_loss = tape.scalar(loss);
        losses.push(epoch_loss);

        let mut grads: Vec<Option<&Matrix>> = vec![None; model.store().len()];
        for &(pid, var) in &fp.params {
            grads[pid.index()] = tape.grad(var);
        }
        if rec.is_enabled() {
            // ‖g‖₂ over all parameters — only worth the flops when recorded.
            let sq_sum: f64 = grads
                .iter()
                .flatten()
                .map(|g| {
                    let f = g.frobenius() as f64;
                    f * f
                })
                .sum();
            epoch_span.field("loss", epoch_loss);
            epoch_span.field("grad_norm", sq_sum.sqrt());
            rec.observe("train.epoch_loss", epoch_loss as f64);
        }
        let span = phase("step");
        adam.step(model.store_mut(), &grads);
        drop(span);
        peak_bytes = peak_bytes.max(model.store().nbytes() + adam.nbytes());
        if let Some(h) = hook.as_deref_mut() {
            h(epoch, epoch_loss);
        }
    }
    rec.gauge_max("train.peak_bytes", peak_bytes as f64);

    tape.reset();
    let fp = model.forward(&mut tape);
    let tape_bytes = tape.nbytes();
    batch_span.field("tape_bytes", tape_bytes);
    rec.gauge_max("train.tape_bytes", tape_bytes as f64);
    TrainReport {
        embeddings: tape.into_value(fp.embeddings),
        losses,
        peak_bytes,
        tape_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, EntityId, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    /// A pair of small isomorphic ring graphs with full alignment.
    pub(crate) fn ring_pair(n: usize) -> (KgPair, AlignmentSeeds) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..n {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        for i in 0..n {
            s.add_triple_by_name(&format!("s{i}"), "r", &format!("s{}", (i + 1) % n));
            t.add_triple_by_name(&format!("t{i}"), "q", &format!("t{}", (i + 1) % n));
            // a chord pattern that breaks rotational symmetry
            if i % 3 == 0 {
                s.add_triple_by_name(&format!("s{i}"), "c", &format!("s{}", (i + 2) % n));
                t.add_triple_by_name(&format!("t{i}"), "d", &format!("t{}", (i + 2) % n));
            }
        }
        let alignment: Vec<_> = (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment);
        let seeds = pair.split_seeds(0.5, 7);
        (pair, seeds)
    }

    pub(crate) fn whole_graph(pair: &KgPair, seeds: &AlignmentSeeds) -> BatchGraph {
        let mb = MiniBatches::from_assignments(
            pair,
            seeds,
            &vec![0; pair.source.num_entities()],
            &vec![0; pair.target.num_entities()],
            1,
        );
        BatchGraph::from_mini_batch(pair, &mb.batches[0])
    }

    fn hits_at_1(bg: &BatchGraph, emb: &Matrix, seeds: &AlignmentSeeds) -> f64 {
        // test pairs have identical local ids offset by n_source in ring_pair
        let mut hit = 0;
        let mut total = 0;
        for &(s, t) in &seeds.test {
            let si = s.idx();
            let tl = bg.n_source + t.idx();
            // nearest target local to emb[si]
            let mut best = (usize::MAX, f32::INFINITY);
            for cand in bg.n_source..bg.n_total() {
                let d: f32 = emb
                    .row(si)
                    .iter()
                    .zip(emb.row(cand))
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                if d < best.1 {
                    best = (cand, d);
                }
            }
            if best.0 == tl {
                hit += 1;
            }
            total += 1;
        }
        hit as f64 / total.max(1) as f64
    }

    #[test]
    fn gcn_align_learns_ring_alignment() {
        let (pair, seeds) = ring_pair(24);
        let bg = whole_graph(&pair, &seeds);
        let mut model = ModelKind::GcnAlign.build(&bg, 32, 1);
        let cfg = TrainConfig {
            epochs: 60,
            dim: 32,
            ..Default::default()
        };
        let report = train(model.as_mut(), &bg, &cfg);
        assert!(
            report.losses.first().unwrap() > report.losses.last().unwrap(),
            "loss should decrease: {:?}",
            &report.losses[..3]
        );
        let h1 = hits_at_1(&bg, &report.embeddings, &seeds);
        assert!(h1 >= 0.5, "GCN-Align H@1 {h1} too low on an easy ring");
    }

    #[test]
    fn rrea_learns_ring_alignment() {
        let (pair, seeds) = ring_pair(24);
        let bg = whole_graph(&pair, &seeds);
        let mut model = ModelKind::Rrea.build(&bg, 32, 2);
        let cfg = TrainConfig {
            epochs: 60,
            dim: 32,
            ..Default::default()
        };
        let report = train(model.as_mut(), &bg, &cfg);
        let h1 = hits_at_1(&bg, &report.embeddings, &seeds);
        assert!(h1 >= 0.5, "RREA H@1 {h1} too low on an easy ring");
    }

    #[test]
    fn empty_seed_batch_returns_untrained() {
        let (pair, _) = ring_pair(8);
        let empty = AlignmentSeeds::default();
        let bg = whole_graph(&pair, &empty);
        let mut model = ModelKind::GcnAlign.build(&bg, 16, 3);
        let report = train(model.as_mut(), &bg, &TrainConfig::default());
        assert!(report.losses.is_empty());
        assert_eq!(report.embeddings.rows(), bg.n_total());
    }

    #[test]
    fn training_is_deterministic() {
        let (pair, seeds) = ring_pair(12);
        let bg = whole_graph(&pair, &seeds);
        let cfg = TrainConfig {
            epochs: 5,
            dim: 16,
            ..Default::default()
        };
        let mut m1 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let r1 = train(m1.as_mut(), &bg, &cfg);
        let mut m2 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let r2 = train(m2.as_mut(), &bg, &cfg);
        assert_eq!(r1.embeddings, r2.embeddings);
        assert_eq!(r1.losses, r2.losses);
    }

    #[test]
    fn traced_training_records_epochs_and_matches_untraced() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let (pair, seeds) = ring_pair(12);
        let bg = whole_graph(&pair, &seeds);
        let cfg = TrainConfig {
            epochs: 6,
            dim: 16,
            ..Default::default()
        };
        let mut m1 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let plain = train(m1.as_mut(), &bg, &cfg);
        let rec = Recorder::new(ObsConfig::default());
        let mut m2 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let traced = train_traced(m2.as_mut(), &bg, &cfg, &rec);
        assert_eq!(
            plain.embeddings, traced.embeddings,
            "tracing must not change training"
        );
        let t = rec.trace();
        let batch = t.find("train_batch").expect("batch span");
        assert_eq!(batch.children.len(), 6, "one child span per epoch");
        let e0 = &batch.children[0];
        assert_eq!(e0.name, "epoch");
        assert!(e0.field("loss").is_some() && e0.field("grad_norm").is_some());
        // neg_refresh = 5 → resampled at epochs 0 and 5
        assert_eq!(t.counter("train.negatives_resampled"), 2);
        assert_eq!(t.histogram("train.epoch_loss").unwrap().count, 6);
        assert!(t.gauge("train.peak_bytes").unwrap() > 0.0);
    }

    #[test]
    fn epoch_hook_sees_every_loss_and_does_not_perturb_training() {
        let (pair, seeds) = ring_pair(12);
        let bg = whole_graph(&pair, &seeds);
        let cfg = TrainConfig {
            epochs: 7,
            dim: 16,
            ..Default::default()
        };
        let mut m1 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let plain = train(m1.as_mut(), &bg, &cfg);
        let mut seen: Vec<(usize, f32)> = Vec::new();
        let mut m2 = ModelKind::GcnAlign.build(&bg, 16, 9);
        let mut hook = |e: usize, l: f32| seen.push((e, l));
        let hooked = train_hooked(
            m2.as_mut(),
            &bg,
            &cfg,
            &Recorder::disabled(),
            Some(&mut hook),
        );
        assert_eq!(plain.embeddings, hooked.embeddings, "hook must be passive");
        assert_eq!(seen.len(), 7, "one call per epoch");
        for (i, &(e, l)) in seen.iter().enumerate() {
            assert_eq!(e, i);
            assert_eq!(l, hooked.losses[i], "hook sees the recorded loss");
        }
    }

    #[test]
    fn peak_bytes_counts_params_and_optimizer() {
        let (pair, seeds) = ring_pair(10);
        let bg = whole_graph(&pair, &seeds);
        let mut model = ModelKind::GcnAlign.build(&bg, 16, 4);
        let param_bytes = model.store().nbytes();
        let report = train(
            model.as_mut(),
            &bg,
            &TrainConfig {
                epochs: 2,
                dim: 16,
                ..Default::default()
            },
        );
        assert!(report.peak_bytes >= param_bytes * 3); // params + m + v
    }
}
