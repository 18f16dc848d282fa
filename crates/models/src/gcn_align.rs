//! The structural variant of GCN-Align (Wang et al., EMNLP 2018).
//!
//! Two GCN layers over the batch's combined normalised adjacency:
//!
//! ```text
//! H¹ = ReLU(Â X W¹)        H² = Â H¹ W²        out = norm(H²)
//! ```
//!
//! `X` (the input entity features) is itself learnable, as in GCN-Align's
//! structure embedding. An unaligned entity's own feature reaches the output
//! only through normalised-adjacency paths, so its representation is
//! dominated by its (seed-supervised) neighbourhood — the property that
//! makes structure-only EA generalise past the seeds.

use crate::batch_graph::BatchGraph;
use crate::trainer::{EaModel, ForwardPass};
use largeea_tensor::init::xavier_uniform;
use largeea_tensor::optim::{ParamId, ParamStore};
use largeea_tensor::{SpOp, Tape};
use std::rc::Rc;

/// GCN-Align model state for one mini-batch.
pub struct GcnAlign {
    n: usize,
    dim: usize,
    adj: Rc<SpOp>,
    store: ParamStore,
    x: ParamId,
    w1: ParamId,
    w2: ParamId,
    concat_input: bool,
}

impl GcnAlign {
    /// Builds the model for `bg` with embedding size `dim`.
    pub fn new(bg: &BatchGraph, dim: usize, seed: u64) -> Self {
        let n = bg.n_total();
        Self::with_features(bg, xavier_uniform(n, dim, seed), seed)
    }

    /// Builds the model with explicit initial entity features `x0`
    /// (`n_total × dim`). This is how RDGCN-style baselines inject
    /// name-embedding initialisation; `x0` stays learnable.
    pub fn with_features(bg: &BatchGraph, x0: largeea_tensor::Matrix, seed: u64) -> Self {
        let n = bg.n_total();
        assert_eq!(x0.rows(), n, "feature rows must match batch entities");
        let dim = x0.cols();
        let mut store = ParamStore::new();
        let x = store.register("x", x0);
        let w1 = store.register("w1", xavier_uniform(dim, dim, seed.wrapping_add(1)));
        let w2 = store.register("w2", xavier_uniform(dim, dim, seed.wrapping_add(2)));
        Self {
            n,
            dim,
            adj: bg.adjacency(),
            store,
            x,
            w1,
            w2,
            concat_input: false,
        }
    }

    /// Concatenates the (learnable) input features with the final GCN layer
    /// (`out = norm([X; H²])`) — RDGCN's output convention, which keeps
    /// informative initial features (name embeddings) visible in the final
    /// representation instead of diluting them through propagation.
    pub fn with_concat_output(mut self) -> Self {
        self.concat_input = true;
        self
    }
}

impl EaModel for GcnAlign {
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
        let x = tape.param(self.store.get(self.x));
        let w1 = tape.param(self.store.get(self.w1));
        let w2 = tape.param(self.store.get(self.w2));

        let ax = tape.spmm(&self.adj, x);
        let h1 = tape.matmul(ax, w1);
        let h1 = tape.relu(h1);
        let ah1 = tape.spmm(&self.adj, h1);
        let h2 = tape.matmul(ah1, w2);
        let out = if self.concat_input {
            tape.l2_normalize_rows(&[x, h2], 1e-9)
        } else {
            tape.l2_normalize_rows(&[h2], 1e-9)
        };

        ForwardPass {
            embeddings: out,
            params: vec![(self.x, x), (self.w1, w1), (self.w2, w2)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, EntityId, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    fn bg() -> BatchGraph {
        let mut s = KnowledgeGraph::new("EN");
        s.add_triple_by_name("a", "r", "b");
        s.add_triple_by_name("b", "r", "c");
        let mut t = KnowledgeGraph::new("FR");
        t.add_triple_by_name("x", "q", "y");
        let pair = KgPair::new(s, t, vec![(EntityId(0), EntityId(0))]);
        let seeds = AlignmentSeeds {
            train: vec![(EntityId(0), EntityId(0))],
            test: vec![],
        };
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0, 0, 0], &[0, 0], 1);
        BatchGraph::from_mini_batch(&pair, &mb.batches[0])
    }

    #[test]
    fn forward_shapes_and_normalisation() {
        let bg = bg();
        let model = GcnAlign::new(&bg, 16, 1);
        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        let emb = tape.value(fp.embeddings);
        assert_eq!(emb.shape(), (5, 16));
        for r in 0..5 {
            let n: f32 = emb.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3, "row {r} norm {n}");
        }
        assert_eq!(fp.params.len(), 3);
    }

    #[test]
    fn params_registered() {
        let bg = bg();
        let model = GcnAlign::new(&bg, 8, 2);
        assert_eq!(model.store().len(), 3);
        assert_eq!(model.n_entities(), 5);
        assert_eq!(model.dim(), 8);
    }

    #[test]
    fn forward_is_deterministic() {
        let bg = bg();
        let model = GcnAlign::new(&bg, 8, 3);
        let mut t1 = Tape::new();
        let e1 = model.forward(&mut t1).embeddings;
        let mut t2 = Tape::new();
        let e2 = model.forward(&mut t2).embeddings;
        assert_eq!(t1.value(e1), t2.value(e2));
    }
}
