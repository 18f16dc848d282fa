//! VPS: the vanilla partition strategy baseline (paper §2.2.1).
//!
//! Training seeds are dealt into the `K` batches in equal shares (so no
//! batch is left without training signal); every remaining entity on either
//! side is assigned to a uniformly random batch. `O(|E_s| + |E_t|)` time and
//! space — fast, but oblivious to graph structure, which is exactly the
//! deficiency METIS-CPS fixes.

use crate::batches::MiniBatches;
use largeea_common::obs::{Level, Recorder};
use largeea_common::rng::{Rng, SliceRandom};
use largeea_kg::{AlignmentSeeds, KgPair};

/// Runs VPS on `pair`, producing `k` mini-batches; one `vps` span in `rec`
/// covers the whole assignment.
pub fn vps(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    k: usize,
    seed: u64,
    rec: &Recorder,
) -> MiniBatches {
    assert!(k >= 1, "k must be positive");
    let mut span = rec.span_at(Level::Detail, "vps");
    span.field("k", k);
    span.field("train_seeds", seeds.train.len());
    let mut rng = Rng::seed_from_u64(seed);

    const UNSET: u32 = u32::MAX;
    let mut source_assignment = vec![UNSET; pair.source.num_entities()];
    let mut target_assignment = vec![UNSET; pair.target.num_entities()];

    // Deal shuffled seeds round-robin so each batch gets an equal share.
    let mut train = seeds.train.clone();
    train.shuffle(&mut rng);
    for (i, (s, t)) in train.iter().enumerate() {
        let b = (i % k) as u32;
        source_assignment[s.idx()] = b;
        target_assignment[t.idx()] = b;
    }

    // Everything else is uniform random.
    for slot in source_assignment
        .iter_mut()
        .chain(target_assignment.iter_mut())
    {
        if *slot == UNSET {
            *slot = rng.gen_range(0..k as u32);
        }
    }

    MiniBatches::from_assignments(pair, seeds, &source_assignment, &target_assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{EntityId, KnowledgeGraph};

    fn pair(n: usize) -> (KgPair, AlignmentSeeds) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..n {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        for i in 0..n - 1 {
            s.add_triple_by_name(&format!("s{i}"), "r", &format!("s{}", i + 1));
            t.add_triple_by_name(&format!("t{i}"), "r", &format!("t{}", i + 1));
        }
        let alignment: Vec<_> = (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let p = KgPair::new(s, t, alignment);
        let seeds = p.split_seeds(0.2, 42);
        (p, seeds)
    }

    #[test]
    fn train_seeds_fully_retained() {
        let (p, seeds) = pair(200);
        let mb = vps(&p, &seeds, 4, 1, &Recorder::disabled());
        let r = mb.retention(&seeds);
        assert_eq!(r.train, 1.0, "VPS must co-locate every training seed");
    }

    #[test]
    fn test_retention_near_one_over_k() {
        let (p, seeds) = pair(2000);
        let k = 5;
        let mb = vps(&p, &seeds, k, 3, &Recorder::disabled());
        let r = mb.retention(&seeds);
        // random co-location probability is 1/k
        assert!(
            (r.test - 1.0 / k as f64).abs() < 0.08,
            "test retention {} should be ≈ {}",
            r.test,
            1.0 / k as f64
        );
    }

    #[test]
    fn seeds_dealt_evenly() {
        let (p, seeds) = pair(500);
        let k = 5;
        let mb = vps(&p, &seeds, k, 9, &Recorder::disabled());
        let counts: Vec<usize> = mb.batches.iter().map(|b| b.train_pairs.len()).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "uneven seed deal: {counts:?}");
    }

    #[test]
    fn covers_all_entities() {
        let (p, seeds) = pair(100);
        let mb = vps(&p, &seeds, 3, 5, &Recorder::disabled());
        let ns: usize = mb.batches.iter().map(|b| b.source_entities.len()).sum();
        assert_eq!(ns, 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let (p, seeds) = pair(100);
        let a = vps(&p, &seeds, 3, 5, &Recorder::disabled());
        let b = vps(&p, &seeds, 3, 5, &Recorder::disabled());
        assert_eq!(a.source_membership, b.source_membership);
    }

    #[test]
    fn k1_everything_together() {
        let (p, seeds) = pair(50);
        let mb = vps(&p, &seeds, 1, 0, &Recorder::disabled());
        assert_eq!(mb.retention(&seeds).total, 1.0);
    }
}
