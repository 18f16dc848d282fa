//! Turning trained batch embeddings into (global-id) similarity entries.
//!
//! After a mini-batch trains, the structure channel keeps only the top-k
//! most similar target candidates per source entity (Manhattan similarity,
//! i.e. negative L1 distance) as the batch's block of the global sparse
//! matrix `M_s` — independent mini-batches thus fill disjoint blocks, which
//! is the memory story of paper §2.2.2.

use crate::batch_graph::BatchGraph;
use largeea_common::obs::Recorder;
use largeea_common::pool::Pool;
use largeea_sim::{topk_search_in, Metric, SimRows};
use largeea_tensor::Matrix;

/// Scores `bg`'s source entities against its target entities with the
/// trained embeddings and returns the top-`k` candidates per source entity
/// as the batch's rows of an `n_rows × n_cols` matrix (global
/// coordinates): the block holds the batch's rows and nothing for the
/// others. Scores are negative Manhattan distances (larger = more similar).
/// The two sides are row ranges of `emb`, searched in place; the search's
/// `topk.refined_pairs` counter goes to `rec`.
pub fn fill_similarity(
    bg: &BatchGraph,
    emb: &Matrix,
    k: usize,
    (n_rows, n_cols): (usize, usize),
    rec: &Recorder,
) -> SimRows {
    let mut block = SimRows::new(n_rows, n_cols);
    if bg.n_source == 0 || bg.n_target == 0 {
        return block;
    }
    let src = emb.row_range(0..bg.n_source);
    let tgt = emb.row_range(bg.n_source..bg.n_total());
    let (hits, refined) = topk_search_in(src, tgt, k, Metric::Manhattan, Pool::global());
    rec.add("topk.refined_pairs", refined);
    block.reserve(hits.len());
    // source locals ascend with their global ids, so rows arrive in order
    for (local_s, row_hits) in hits.into_iter().enumerate() {
        let global = |(local_t, score): (u32, f32)| (bg.target_ids[local_t as usize].0, score);
        block.push(
            bg.source_ids[local_s].idx(),
            row_hits.into_iter().map(global).collect(),
        );
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;
    use largeea_sim::SparseSimMatrix;

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
        let block = fill_similarity(&bg, &emb, 1, (4, 4), &Recorder::disabled());
        assert_eq!(block.rows().map(|(r, _)| r).collect::<Vec<_>>(), [2, 3]);
        block.merge_into(&mut m);
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
        let block = fill_similarity(&bg, &Matrix::zeros(0, 4), 5, (0, 0), &Recorder::disabled());
        assert_eq!(block.nnz(), 0);
    }
}
