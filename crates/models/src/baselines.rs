//! Re-implemented competitor baselines for the paper's Table 2.
//!
//! The paper compares LargeEA against five published EA models. GCN-Align
//! and RREA run here exactly as in the structure channel, just *without*
//! partitioning (whole-graph training). The remaining three are closed
//! combinations of the same primitives and are rebuilt in reduced but
//! architecture-faithful form:
//!
//! | Paper baseline | Here | Faithful core |
//! |---------------|------|----------------|
//! | RDGCN (Wu et al. 2019) | [`rdgcn_lite`] | entity embeddings *initialised from name embeddings*, then refined by a GCN over the relational structure |
//! | MultiKE (Zhang et al. 2019) | [`multike_lite`] | independent name view + structure view, unified by weighted combination |
//! | BERT-INT (Tang et al. 2020) | [`bert_int_lite`] | pure name-interaction scoring, no structural propagation; memory dominated by a large interaction model |
//!
//! Every baseline reports wall-clock training time and a peak-bytes figure
//! (the GPU-memory stand-in), so the harness can regenerate Table 2's
//! `Time` and `Mem.` columns alongside accuracy.

use crate::batch_graph::BatchGraph;
use crate::scoring::fill_similarity;
use crate::trainer::{train, ModelKind, TrainConfig};
use largeea_common::obs::Recorder;
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_sim::{topk_search, Metric, SparseSimMatrix};
use largeea_tensor::Matrix;
use std::time::Instant;

/// Output of one standalone baseline run.
#[derive(Debug)]
pub struct BaselineResult {
    /// Source → target similarity matrix (top-k rows, global ids).
    pub sim: SparseSimMatrix,
    /// Wall-clock seconds spent training + scoring.
    pub seconds: f64,
    /// Peak live bytes of model parameters, optimiser state and feature
    /// matrices (the GPU-memory stand-in).
    pub peak_bytes: usize,
}

/// Lowers the *whole* pair into a single batch graph (no partitioning) —
/// how every baseline and the paper's "w/o partition" setting trains.
pub fn whole_graph(pair: &KgPair, seeds: &AlignmentSeeds) -> BatchGraph {
    let mb = largeea_partition::MiniBatches::from_assignments(
        pair,
        seeds,
        &vec![0; pair.source.num_entities()],
        &vec![0; pair.target.num_entities()],
        1,
    );
    BatchGraph::from_mini_batch(pair, &mb.batches[0])
}

fn run_structural(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    kind: ModelKind,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    let start = Instant::now();
    let bg = whole_graph(pair, seeds);
    let mut model = kind.build(&bg, cfg.dim, cfg.seed);
    let report = train(model.as_mut(), &bg, cfg);
    let mut sim = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
    let off = Recorder::disabled();
    fill_similarity(&bg, &report.embeddings, top_k, &mut sim, &off);
    let peak_bytes = report.peak_bytes + report.embeddings.nbytes() + sim.nbytes();
    BaselineResult {
        sim,
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes,
    }
}

/// GCN-Align on the whole pair (the paper's GCNAlign competitor row).
pub fn gcn_align_full(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    run_structural(pair, seeds, ModelKind::GcnAlign, cfg, top_k)
}

/// RREA on the whole pair (the paper's RREA competitor row). On large
/// inputs this is the configuration that exhausts memory in the paper.
pub fn rrea_full(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    run_structural(pair, seeds, ModelKind::Rrea, cfg, top_k)
}

/// The name-interaction model behind [`bert_int_lite`]: a learnable square
/// projection over frozen wide name embeddings,
/// `h = norm(names · W)` — the reduced analogue of fine-tuning BERT's final
/// interaction layer. No structural propagation, as in BERT-INT.
struct NameProj {
    n: usize,
    dim: usize,
    names: Matrix,
    store: largeea_tensor::optim::ParamStore,
    w: largeea_tensor::optim::ParamId,
}

impl NameProj {
    fn new(names: Matrix, seed: u64) -> Self {
        let (n, dim) = names.shape();
        let mut store = largeea_tensor::optim::ParamStore::new();
        // near-identity init: start from the raw name geometry
        let mut w0 = largeea_tensor::init::xavier_uniform(dim, dim, seed);
        w0.scale(0.05);
        for i in 0..dim {
            w0[(i, i)] += 1.0;
        }
        let w = store.register("w_interaction", w0);
        Self {
            n,
            dim,
            names,
            store,
            w,
        }
    }
}

impl crate::trainer::EaModel for NameProj {
    fn n_entities(&self) -> usize {
        self.n
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn store(&self) -> &largeea_tensor::optim::ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut largeea_tensor::optim::ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut largeea_tensor::Tape) -> crate::trainer::ForwardPass {
        let x = tape.constant(&self.names);
        let w = tape.param(self.store.get(self.w));
        let h = tape.matmul(x, w);
        let out = tape.l2_normalize_rows(h, 1e-9);
        crate::trainer::ForwardPass {
            embeddings: out,
            params: vec![(self.w, w)],
        }
    }
}

/// BERT-INT-lite: pure name-interaction alignment. `name_s`/`name_t` are
/// *wide* (BERT-sized) frozen name embeddings; a square interaction
/// projection is fine-tuned on the seeds — the reduced analogue of
/// BERT-INT's fine-tuned interaction model. The wide embeddings and the
/// `dim²` projection (plus its Adam state) are what make this baseline the
/// slowest and most memory-hungry method, as in the paper.
pub fn bert_int_lite(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    name_s: &Matrix,
    name_t: &Matrix,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    let start = Instant::now();
    let bg = whole_graph(pair, seeds);
    let names = name_s.vstack(name_t);
    let names_bytes = names.nbytes();
    let mut model = NameProj::new(names, cfg.seed);
    let report = train(&mut model, &bg, cfg);
    let mut sim = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
    let off = Recorder::disabled();
    fill_similarity(&bg, &report.embeddings, top_k, &mut sim, &off);
    let peak_bytes =
        report.peak_bytes + names_bytes * 2 + report.embeddings.nbytes() + sim.nbytes();
    BaselineResult {
        sim,
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes,
    }
}

/// RDGCN-lite: a GCN over the relational structure whose entity features
/// start from the name embeddings (`[name_s; name_t]`, row order = batch
/// locals) instead of random initialisation.
pub fn rdgcn_lite(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    name_s: &Matrix,
    name_t: &Matrix,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    assert_eq!(
        name_s.cols(),
        cfg.dim,
        "name-embedding dim must equal model dim for RDGCN-lite"
    );
    let start = Instant::now();
    let bg = whole_graph(pair, seeds);
    let x0 = name_s.vstack(name_t);
    let mut model =
        crate::gcn_align::GcnAlign::with_features(&bg, x0, cfg.seed).with_concat_output();
    let report = train(&mut model, &bg, cfg);
    let mut sim = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
    let off = Recorder::disabled();
    fill_similarity(&bg, &report.embeddings, top_k, &mut sim, &off);
    let peak_bytes = report.peak_bytes
        + report.embeddings.nbytes()
        + name_s.nbytes()
        + name_t.nbytes()
        + sim.nbytes();
    BaselineResult {
        sim,
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes,
    }
}

/// MultiKE-lite: a structure view (GCN-Align embeddings) and a name view
/// (name-embedding inner product) combined with equal weights after per-row
/// min-max normalisation.
pub fn multike_lite(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    name_s: &Matrix,
    name_t: &Matrix,
    cfg: &TrainConfig,
    top_k: usize,
) -> BaselineResult {
    let start = Instant::now();
    let structural = run_structural(pair, seeds, ModelKind::GcnAlign, cfg, top_k);
    let name_hits = topk_search(name_s, name_t, top_k, Metric::InnerProduct);
    let name_sim = SparseSimMatrix::from_topk(name_t.rows(), name_hits);
    let mut sv = structural.sim;
    sv.normalize_rows_minmax();
    let mut nv = name_sim;
    nv.normalize_rows_minmax();
    let sim = sv.add(&nv);
    let peak_bytes = structural.peak_bytes + name_s.nbytes() + name_t.nbytes() + sim.nbytes();
    BaselineResult {
        sim,
        seconds: start.elapsed().as_secs_f64(),
        peak_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{EntityId, KnowledgeGraph};

    fn tiny_pair() -> (KgPair, AlignmentSeeds) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..8 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        for i in 0..8 {
            s.add_triple_by_name(&format!("s{i}"), "r", &format!("s{}", (i + 1) % 8));
            t.add_triple_by_name(&format!("t{i}"), "q", &format!("t{}", (i + 1) % 8));
        }
        let alignment: Vec<_> = (0..8u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment);
        let seeds = pair.split_seeds(0.5, 1);
        (pair, seeds)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 5,
            dim: 16,
            ..Default::default()
        }
    }

    #[test]
    fn structural_baselines_produce_rows_for_all_sources() {
        let (pair, seeds) = tiny_pair();
        for f in [gcn_align_full, rrea_full] {
            let r = f(&pair, &seeds, &cfg(), 3);
            assert_eq!(r.sim.n_rows(), 8);
            assert!(r.sim.nnz() > 0);
            assert!(r.seconds >= 0.0);
            assert!(r.peak_bytes > 0);
        }
    }

    #[test]
    fn bert_int_lite_matches_identical_names() {
        // identical name embeddings on both sides → diagonal wins even
        // before fine-tuning (near-identity interaction init)
        let (pair, seeds) = tiny_pair();
        let names = Matrix::from_fn(8, 16, |r, c| ((r * 17 + c * c * 3) % 13) as f32 - 6.0);
        let mut n = names.clone();
        n.l2_normalize_rows(1e-9);
        let r = bert_int_lite(&pair, &seeds, &n, &n, &cfg(), 2);
        for i in 0..8 {
            assert_eq!(r.sim.best(i).unwrap().0 as usize, i, "row {i}");
        }
    }

    #[test]
    fn rdgcn_lite_requires_matching_dims() {
        let (pair, seeds) = tiny_pair();
        let ns = Matrix::zeros(8, 16);
        let nt = Matrix::zeros(8, 16);
        let r = rdgcn_lite(&pair, &seeds, &ns, &nt, &cfg(), 3);
        assert_eq!(r.sim.n_rows(), 8);
    }

    #[test]
    #[should_panic(expected = "name-embedding dim")]
    fn rdgcn_lite_rejects_dim_mismatch() {
        let (pair, seeds) = tiny_pair();
        let ns = Matrix::zeros(8, 4);
        let nt = Matrix::zeros(8, 4);
        rdgcn_lite(&pair, &seeds, &ns, &nt, &cfg(), 3);
    }

    #[test]
    fn multike_lite_combines_views() {
        let (pair, seeds) = tiny_pair();
        // name view: diagonal-identical embeddings
        let mut names = Matrix::from_fn(8, 16, |r, c| ((r * 31 + c * 3) % 7) as f32);
        names.l2_normalize_rows(1e-9);
        let combined = multike_lite(&pair, &seeds, &names, &names, &cfg(), 3);
        let structure_only = gcn_align_full(&pair, &seeds, &cfg(), 3);
        // The ring is rotationally symmetric, so 5-epoch structure alone is
        // noise; adding the (perfect) name view must lift diagonal wins.
        let wins = |sim: &SparseSimMatrix| {
            (0..8)
                .filter(|&i| sim.best(i).map(|(c, _)| c as usize) == Some(i))
                .count()
        };
        assert!(
            wins(&combined.sim) >= wins(&structure_only.sim),
            "combined {} < structure-only {}",
            wins(&combined.sim),
            wins(&structure_only.sim)
        );
        assert!(wins(&combined.sim) >= 3, "combined view below chance");
    }
}
