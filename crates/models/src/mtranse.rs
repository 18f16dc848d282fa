//! MTransE-style translational EA (Chen et al., IJCAI 2017) — the
//! representative of the paper's "Translational-based EA" family.
//!
//! TransE models a triple `(h, r, t)` as a translation `h + r ≈ t`;
//! MTransE couples two per-KG TransE spaces through the seed alignment. We
//! implement the widely used shared-space variant: one entity table, one
//! relation table over the combined relation vocabulary, a TransE margin
//! loss over the batch's triples (via [`EaModel::auxiliary_loss`]) and the
//! standard alignment loss supplied by the trainer.
//!
//! Translational models see strictly less structure than GNNs (one hop per
//! triple, no aggregation), which is why the paper's strongest baselines
//! are GNN-based; MTransE's role here is to complete the model family and
//! serve as the weakest-structural-signal reference point.

use crate::batch_graph::BatchGraph;
use crate::trainer::{EaModel, ForwardPass};
use largeea_tensor::init::xavier_uniform;
use largeea_tensor::optim::{ParamId, ParamStore};
use largeea_tensor::{Tape, Var};
use std::rc::Rc;

/// MTransE model state for one mini-batch.
pub struct MTransE {
    n: usize,
    dim: usize,
    heads: Rc<Vec<u32>>,
    rels: Rc<Vec<u32>>,
    tails: Rc<Vec<u32>>,
    /// TransE margin.
    pub triple_margin: f32,
    store: ParamStore,
    ent: ParamId,
    rel: ParamId,
}

impl MTransE {
    /// Builds the model for `bg` with embedding size `dim`.
    pub fn new(bg: &BatchGraph, dim: usize, seed: u64) -> Self {
        let heads: Vec<u32> = bg.triples.iter().map(|&(h, _, _)| h).collect();
        let rels: Vec<u32> = bg.triples.iter().map(|&(_, r, _)| r).collect();
        let tails: Vec<u32> = bg.triples.iter().map(|&(_, _, t)| t).collect();
        let mut store = ParamStore::new();
        let ent = store.register("entities", xavier_uniform(bg.n_total(), dim, seed));
        let rel = store.register(
            "relations",
            xavier_uniform(bg.num_relations.max(1), dim, seed.wrapping_add(1)),
        );
        Self {
            n: bg.n_total(),
            dim,
            heads: Rc::new(heads),
            rels: Rc::new(rels),
            tails: Rc::new(tails),
            triple_margin: 1.0,
            store,
            ent,
            rel,
        }
    }
}

impl EaModel for MTransE {
    fn n_entities(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn forward(&self, tape: &mut Tape) -> ForwardPass {
        let ent = tape.param(self.store.get(self.ent));
        let rel = tape.param(self.store.get(self.rel));
        let out = tape.l2_normalize_rows(ent, 1e-9);
        ForwardPass {
            embeddings: out,
            params: vec![(self.ent, ent), (self.rel, rel)],
        }
    }

    /// TransE margin loss over the batch's triples with a deterministic
    /// per-epoch tail corruption: `[γ_t + d(h+r, t) − d(h+r, t′)]₊`.
    fn auxiliary_loss(
        &self,
        tape: &mut Tape,
        params: &[(ParamId, Var)],
        epoch: usize,
    ) -> Option<Var> {
        if self.heads.is_empty() {
            return None;
        }
        let (ent_var, rel_var) = (params[0].1, params[1].1);
        let emb = tape.l2_normalize_rows(ent_var, 1e-9);

        // deterministic corruption: shift each tail by an epoch-dependent
        // odd stride, guaranteed ≠ original for n > 1
        let n = self.n as u32;
        let stride = (2 * (epoch as u32 % (n.saturating_sub(1)).max(1)) + 1) % n.max(2);
        let corrupt: Vec<u32> = self
            .tails
            .iter()
            .map(|&t| (t + stride.max(1)) % n)
            .collect();

        let eh = tape.gather_rows(emb, Rc::clone(&self.heads));
        let er = tape.gather_rows(rel_var, Rc::clone(&self.rels));
        let et = tape.gather_rows(emb, Rc::clone(&self.tails));
        let ec = tape.gather_rows(emb, Rc::new(corrupt));

        let hr = tape.add(eh, er);
        let d_pos = tape.row_l1(hr, et);
        let d_neg = tape.row_l1(hr, ec);
        let m = tape.sub(d_pos, d_neg);
        let m = tape.add_scalar(m, self.triple_margin);
        let m = tape.relu(m);
        Some(tape.mean_all(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train, ModelKind, TrainConfig};
    use largeea_kg::{AlignmentSeeds, EntityId, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    fn ring_bg(n: usize) -> (BatchGraph, AlignmentSeeds) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..n {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        for i in 0..n {
            s.add_triple_by_name(&format!("s{i}"), "r", &format!("s{}", (i + 1) % n));
            t.add_triple_by_name(&format!("t{i}"), "q", &format!("t{}", (i + 1) % n));
            if i % 3 == 0 {
                s.add_triple_by_name(&format!("s{i}"), "c", &format!("s{}", (i + 2) % n));
                t.add_triple_by_name(&format!("t{i}"), "d", &format!("t{}", (i + 2) % n));
            }
        }
        let alignment: Vec<_> = (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment);
        let seeds = pair.split_seeds(0.5, 7);
        let mb = MiniBatches::from_assignments(&pair, &seeds, &vec![0; n], &vec![0; n], 1);
        (BatchGraph::from_mini_batch(&pair, &mb.batches[0]), seeds)
    }

    #[test]
    fn forward_shapes_and_params() {
        let (bg, _) = ring_bg(10);
        let model = MTransE::new(&bg, 16, 1);
        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        assert_eq!(tape.value(fp.embeddings).shape(), (20, 16));
        assert_eq!(fp.params.len(), 2);
    }

    #[test]
    fn auxiliary_loss_is_present_and_finite() {
        let (bg, _) = ring_bg(10);
        let model = MTransE::new(&bg, 16, 2);
        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        let aux = model
            .auxiliary_loss(&mut tape, &fp.params, 0)
            .expect("triples exist");
        let v = tape.scalar(aux);
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn training_reduces_combined_loss() {
        let (bg, _) = ring_bg(18);
        let mut model = ModelKind::MTransE.build(&bg, 32, 3);
        let cfg = TrainConfig {
            epochs: 40,
            dim: 32,
            ..TrainConfig::default()
        };
        let report = train(model.as_mut(), &bg, &cfg);
        let first = report.losses.first().copied().unwrap();
        let last = report.losses.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn empty_triple_list_yields_no_aux_loss() {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        s.add_entity("a");
        t.add_entity("x");
        let pair = KgPair::new(s, t, vec![(EntityId(0), EntityId(0))]);
        let seeds = AlignmentSeeds {
            train: vec![(EntityId(0), EntityId(0))],
            test: vec![],
        };
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0], &[0], 1);
        let bg = BatchGraph::from_mini_batch(&pair, &mb.batches[0]);
        let model = MTransE::new(&bg, 16, 4);
        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        assert!(model.auxiliary_loss(&mut tape, &fp.params, 0).is_none());
    }
}
