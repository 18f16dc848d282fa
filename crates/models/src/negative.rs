//! Negative sampling for the triplet loss.
//!
//! RREA's trick — and the paper's stated choice — is *nearest-neighbour*
//! sampling: the hardest negatives are the entities currently closest to
//! the anchor in embedding space. Random sampling is kept as the cheap
//! baseline (ablation D5 in DESIGN.md).

use crate::batch_graph::BatchGraph;
use largeea_common::obs::Recorder;
use largeea_common::pool::Pool;
use largeea_common::rng::{splitmix64, Rng};
use largeea_sim::{topk_search_in, Metric};
use largeea_tensor::Matrix;
use std::ops::Range;

/// How negatives are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegStrategy {
    /// Uniform over the other side's entities.
    Random,
    /// Nearest neighbours of the anchor in the current embedding space.
    Nearest,
}

/// Negatives per training pair: `per_pair` replacement targets and
/// `per_pair` replacement sources each, pair `p`'s in row `p` of one flat
/// buffer (targets first). A pair with fewer distinct candidates repeats
/// them in order to fill its row. All ids are batch locals (targets already
/// offset).
#[derive(Debug, PartialEq, Eq)]
pub struct Negatives {
    per_pair: usize,
    rows: Vec<u32>,
}

impl Negatives {
    /// Room for `pairs` rows of `per_pair` negatives per side.
    fn buffer(pairs: usize, per_pair: usize) -> Self {
        Self {
            per_pair,
            rows: vec![0; pairs * 2 * per_pair],
        }
    }

    /// Negatives per pair and corruption side.
    pub fn per_pair(&self) -> usize {
        self.per_pair
    }

    /// Replacement target locals of pair `p`.
    pub fn corrupt_target(&self, p: usize) -> &[u32] {
        let row = 2 * self.per_pair * p;
        &self.rows[row..row + self.per_pair]
    }

    /// Replacement source locals of pair `p`.
    pub fn corrupt_source(&self, p: usize) -> &[u32] {
        let row = 2 * self.per_pair * p;
        &self.rows[row + self.per_pair..row + 2 * self.per_pair]
    }

    /// Fills every pair's row on the pool: `fill(p, targets, sources)`.
    /// The buffer is allocated here, on the caller (DESIGN.md §S0.6).
    fn fill(
        pairs: usize,
        per_pair: usize,
        min_rows: usize,
        fill: impl Fn(usize, &mut [u32], &mut [u32]) + Sync,
    ) -> Self {
        let mut negs = Self::buffer(pairs, per_pair);
        Pool::global().rows_mut(&mut negs.rows, 2 * per_pair, min_rows, |block, first| {
            for (i, row) in block.chunks_exact_mut(2 * per_pair).enumerate() {
                let (targets, sources) = row.split_at_mut(per_pair);
                fill(first + i, targets, sources);
            }
        });
        negs
    }
}

/// Draws `n_neg` negatives per training pair and corruption side.
///
/// Falls back to the anchor's own side partner when a side has a single
/// entity (degenerate batches) so callers never index an empty list.
///
/// Telemetry: [`NegStrategy::Nearest`]'s two searches add the pairs they
/// scan to `rec`'s `negatives.scored_pairs` counter and the pairs the
/// scan's pre-filter let through to f32 to `negatives.refined_pairs`.
pub fn sample_negatives(
    bg: &BatchGraph,
    embeddings: &Matrix,
    n_neg: usize,
    strategy: NegStrategy,
    seed: u64,
    rec: &Recorder,
) -> Negatives {
    let n_neg = n_neg.max(1);
    match strategy {
        NegStrategy::Random => random_negatives(bg, n_neg, seed),
        NegStrategy::Nearest => nearest_negatives(bg, embeddings, n_neg, seed, rec),
    }
}

fn random_negatives(bg: &BatchGraph, n_neg: usize, seed: u64) -> Negatives {
    // One RNG per pair, seeded from (seed, pair index): the stream a pair
    // sees is independent of how pairs are chunked across threads, so the
    // sample is identical for any pool width (and for the sequential path).
    let pairs = &bg.train_pairs;
    Negatives::fill(pairs.len(), n_neg, 256, |pi, targets, sources| {
        let (s, t) = pairs[pi];
        let mut derive = seed ^ (pi as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = Rng::seed_from_u64(splitmix64(&mut derive));
        draw(
            &mut rng,
            targets,
            bg.n_source as u32,
            bg.n_total() as u32,
            t,
        );
        draw(&mut rng, sources, 0, bg.n_source as u32, s);
    })
}

/// Fills `out` with draws from `lo..hi` other than `exclude`.
fn draw(rng: &mut Rng, out: &mut [u32], lo: u32, hi: u32, exclude: u32) {
    let span = hi.saturating_sub(lo);
    if span <= 1 {
        out.fill(exclude); // degenerate: nothing else to draw
        return;
    }
    for slot in out {
        *slot = loop {
            let c = lo + rng.gen_range(0..span);
            if c != exclude {
                break c;
            }
        };
    }
}

/// Fills `out` with the first of `candidates`, repeating them in order when
/// there are fewer; with none, with `fallback`.
fn fill_cycled(out: &mut [u32], candidates: impl Iterator<Item = u32>, fallback: u32) {
    let n = out
        .iter_mut()
        .zip(candidates)
        .map(|(slot, c)| *slot = c)
        .count();
    if n == 0 {
        out.fill(fallback); // degenerate single-candidate side
        return;
    }
    for i in n..out.len() {
        out[i] = out[i % n];
    }
}

fn nearest_negatives(
    bg: &BatchGraph,
    emb: &Matrix,
    n_neg: usize,
    seed: u64,
    rec: &Recorder,
) -> Negatives {
    if bg.train_pairs.is_empty() {
        return Negatives::buffer(0, n_neg);
    }
    if bg.n_source <= 1 || bg.n_target <= 1 {
        return random_negatives(bg, n_neg, seed);
    }
    // Each side's anchors (gathered, one side at a time) against the other
    // side, a row range of the batch's embeddings searched in place. +2:
    // the true partner may rank first, and one spare for ties.
    let search = |anchor: fn(&(u32, u32)) -> u32, side: Range<usize>| {
        let locals: Vec<u32> = bg.train_pairs.iter().map(anchor).collect();
        let anchors = emb.gather_rows(&locals);
        topk_search_in(
            &anchors,
            emb.row_range(side),
            n_neg + 2,
            Metric::Manhattan,
            Pool::global(),
        )
    };
    let (hits_t, refined_t) = search(|&(s, _)| s, bg.n_source..bg.n_total());
    let (hits_s, refined_s) = search(|&(_, t)| t, 0..bg.n_source);
    let scanned = bg.train_pairs.len() * bg.n_total();
    rec.add("negatives.scored_pairs", scanned as u64);
    rec.add("negatives.refined_pairs", refined_t + refined_s);

    // Assembly is pure per-pair filtering into each pair's own row, so the
    // result matches the sequential loop exactly.
    let offset = bg.n_source as u32;
    Negatives::fill(bg.train_pairs.len(), n_neg, 512, |pi, targets, sources| {
        let (s, t) = bg.train_pairs[pi];
        let near_t = hits_t[pi].iter().map(|&(id, _)| id + offset);
        fill_cycled(targets, near_t.filter(|&c| c != t), t);
        let near_s = hits_s[pi].iter().map(|&(id, _)| id);
        fill_cycled(sources, near_s.filter(|&c| c != s), s);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, EntityId, KgPair, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    fn small_bg() -> BatchGraph {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..6 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        s.add_triple_by_name("s0", "r", "s1");
        t.add_triple_by_name("t0", "r", "t1");
        let alignment: Vec<_> = (0..6u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment.clone());
        let seeds = AlignmentSeeds {
            train: alignment[..3].to_vec(),
            test: alignment[3..].to_vec(),
        };
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0; 6], &[0; 6], 1);
        BatchGraph::from_mini_batch(&pair, &mb.batches[0])
    }

    #[test]
    fn random_negatives_exclude_true_partner() {
        let bg = small_bg();
        let emb = Matrix::zeros(bg.n_total(), 4);
        let negs = sample_negatives(&bg, &emb, 8, NegStrategy::Random, 3, &Recorder::disabled());
        for (pi, &(s, t)) in bg.train_pairs.iter().enumerate() {
            assert!(negs.corrupt_target(pi).iter().all(|&c| c != t));
            assert!(negs.corrupt_source(pi).iter().all(|&c| c != s));
            // ranges respected
            assert!(negs
                .corrupt_target(pi)
                .iter()
                .all(|&c| (c as usize) >= bg.n_source));
            assert!(negs
                .corrupt_source(pi)
                .iter()
                .all(|&c| (c as usize) < bg.n_source));
        }
    }

    #[test]
    fn nearest_negatives_pick_closest_non_partner() {
        let bg = small_bg();
        // embeddings where target local 6+2 is closest to source 0's partner region
        let mut emb = Matrix::zeros(bg.n_total(), 2);
        for i in 0..bg.n_total() {
            emb[(i, 0)] = i as f32;
        }
        // anchor s=0 (value 0); targets are 6..12 with values 6..12; true t=6
        let negs = sample_negatives(&bg, &emb, 2, NegStrategy::Nearest, 1, &Recorder::disabled());
        // nearest non-partner target to s=0 is local 7
        assert_eq!(negs.corrupt_target(0)[0], 7);
    }

    #[test]
    fn counts_respected() {
        let bg = small_bg();
        let emb = Matrix::zeros(bg.n_total(), 4);
        for strat in [NegStrategy::Random, NegStrategy::Nearest] {
            let negs = sample_negatives(&bg, &emb, 3, strat, 5, &Recorder::disabled());
            assert_eq!(negs.per_pair(), 3);
            for pi in 0..bg.train_pairs.len() {
                assert_eq!(negs.corrupt_target(pi).len(), 3);
                assert_eq!(negs.corrupt_source(pi).len(), 3);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let bg = small_bg();
        let emb = Matrix::zeros(bg.n_total(), 4);
        let a = sample_negatives(&bg, &emb, 4, NegStrategy::Random, 11, &Recorder::disabled());
        let b = sample_negatives(&bg, &emb, 4, NegStrategy::Random, 11, &Recorder::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_candidates_than_slots_repeat_in_order() {
        let mut out = [0u32; 5];
        fill_cycled(&mut out, [7, 9].into_iter(), 1);
        assert_eq!(out, [7, 9, 7, 9, 7]);
        fill_cycled(&mut out, std::iter::empty(), 1);
        assert_eq!(out, [1; 5]);
        fill_cycled(&mut out, 10..20, 1);
        assert_eq!(out, [10, 11, 12, 13, 14]);
    }
}
