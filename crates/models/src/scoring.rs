//! Turning trained batch embeddings into (global-id) similarity entries.
//!
//! After a mini-batch trains, the structure channel keeps only the top-k
//! most similar target candidates per source entity (Manhattan similarity,
//! i.e. negative L1 distance) and writes them into the global sparse matrix
//! `M_s` — independent mini-batches thus fill disjoint blocks, which is the
//! memory story of paper §2.2.2.

use crate::batch_graph::BatchGraph;
use largeea_common::obs::Recorder;
use largeea_sim::{topk_search_traced, Metric, SparseSimMatrix};
use largeea_tensor::Matrix;

/// Scores `bg`'s source entities against its target entities with the
/// trained embeddings and writes the top-`k` candidates per source entity
/// into `m_s` (global coordinates). Scores are negative Manhattan
/// distances (larger = more similar). The search's `topk.refined_pairs`
/// counter goes to `rec`.
pub fn fill_similarity(
    bg: &BatchGraph,
    emb: &Matrix,
    k: usize,
    m_s: &mut SparseSimMatrix,
    rec: &Recorder,
) {
    if bg.n_source == 0 || bg.n_target == 0 {
        return;
    }
    let src = emb.gather_rows(&bg.source_locals());
    let tgt = emb.gather_rows(&bg.target_locals());
    let hits = topk_search_traced(&src, &tgt, k, Metric::Manhattan, rec);
    for (local_s, row_hits) in hits.into_iter().enumerate() {
        let global = |(local_t, score): (u32, f32)| (bg.target_ids[local_t as usize].0, score);
        m_s.insert_row(
            bg.source_ids[local_s].idx(),
            row_hits.into_iter().map(global).collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    #[test]
    fn fills_global_coordinates() {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..4 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        let pair = KgPair::new(s, t, vec![]);
        let seeds = AlignmentSeeds::default();
        // batch 1 holds source {2,3} and target {1,3}
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0, 0, 1, 1], &[0, 1, 0, 1], 2);
        let bg = BatchGraph::from_mini_batch(&pair, &mb.batches[1]);
        assert_eq!(bg.n_source, 2);
        assert_eq!(bg.n_target, 2);

        // embeddings: source local 0 (global 2) == target local 1 (global 3)
        let emb = Matrix::from_vec(
            4,
            1,
            vec![
                0.0, // src local 0 (global 2)
                9.0, // src local 1 (global 3)
                5.0, // tgt local 0 (global 1)
                0.0, // tgt local 1 (global 3)
            ],
        );
        let mut m = SparseSimMatrix::new(4, 4);
        fill_similarity(&bg, &emb, 1, &mut m, &Recorder::disabled());
        // global source 2's best is global target 3 at distance 0
        assert_eq!(m.best(2), Some((3, 0.0)));
        // global source 3's best is global target 1 (|9-5| = 4)
        assert_eq!(m.best(3), Some((1, -4.0)));
        // rows outside the batch untouched
        assert!(m.row(0).is_empty());
    }

    #[test]
    fn empty_batch_is_noop() {
        let s = KnowledgeGraph::new("EN");
        let t = KnowledgeGraph::new("FR");
        let pair = KgPair::new(s, t, vec![]);
        let mb = MiniBatches::from_assignments(&pair, &AlignmentSeeds::default(), &[], &[], 1);
        let bg = BatchGraph::from_mini_batch(&pair, &mb.batches[0]);
        let mut m = SparseSimMatrix::new(0, 0);
        fill_similarity(&bg, &Matrix::zeros(0, 4), 5, &mut m, &Recorder::disabled());
        assert_eq!(m.nnz(), 0);
    }
}
