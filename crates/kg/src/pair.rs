//! A source/target KG pair with alignment ground truth — the unit of work
//! for entity alignment.

use crate::graph::KnowledgeGraph;
use crate::ids::EntityId;
use largeea_common::rng::splitmix64;

/// Ground-truth alignment split into training seeds and held-out test pairs.
///
/// The paper follows the IDS convention of using 20 % of the alignment as
/// seeds (`train`) and evaluating on the remaining 80 % (`test`).
#[derive(Debug, Clone, Default)]
pub struct AlignmentSeeds {
    /// Seed alignment ψ′ available to the model.
    pub train: Vec<(EntityId, EntityId)>,
    /// Held-out pairs used only for evaluation.
    pub test: Vec<(EntityId, EntityId)>,
}

impl AlignmentSeeds {
    /// Total number of aligned pairs (train + test).
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether there are no aligned pairs at all.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }
}

/// A pair of knowledge graphs plus their ground-truth entity alignment ψ.
///
/// `alignment` maps source entity ids to target entity ids and is assumed to
/// be 1-to-1 (the EA problem statement). Entities of either KG that appear
/// in no pair are "unknown" entities in the paper's terminology.
#[derive(Debug, Clone)]
pub struct KgPair {
    /// The source KG `G_s`.
    pub source: KnowledgeGraph,
    /// The target KG `G_t`.
    pub target: KnowledgeGraph,
    /// Ground-truth 1-to-1 alignment ψ ⊂ E_s × E_t.
    pub alignment: Vec<(EntityId, EntityId)>,
}

impl KgPair {
    /// Creates a pair, keeping the alignment as given.
    pub fn new(
        source: KnowledgeGraph,
        target: KnowledgeGraph,
        alignment: Vec<(EntityId, EntityId)>,
    ) -> Self {
        Self {
            source,
            target,
            alignment,
        }
    }

    /// Splits the ground truth into `ratio` train seeds and the remainder as
    /// test pairs. The split is a deterministic function of `seed`:
    /// the alignment is shuffled with a SplitMix64-driven Fisher–Yates pass
    /// before cutting, so different seeds give different but reproducible
    /// splits.
    pub fn split_seeds(&self, ratio: f64, seed: u64) -> AlignmentSeeds {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "seed ratio must lie in [0, 1], got {ratio}"
        );
        let mut pairs = self.alignment.clone();
        shuffle(&mut pairs, seed);
        let n_train = (pairs.len() as f64 * ratio).round() as usize;
        let test = pairs.split_off(n_train.min(pairs.len()));
        AlignmentSeeds { train: pairs, test }
    }

    /// The pair with source and target swapped (the paper's `L → EN`
    /// direction). Alignment pairs are flipped accordingly.
    pub fn reversed(&self) -> KgPair {
        KgPair {
            source: self.target.clone(),
            target: self.source.clone(),
            alignment: self.alignment.iter().map(|&(s, t)| (t, s)).collect(),
        }
    }

    /// Checks that the alignment is well-formed: ids in range and 1-to-1.
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_s = vec![false; self.source.num_entities()];
        let mut seen_t = vec![false; self.target.num_entities()];
        for &(s, t) in &self.alignment {
            if s.idx() >= self.source.num_entities() {
                return Err(format!("source id {s:?} out of range"));
            }
            if t.idx() >= self.target.num_entities() {
                return Err(format!("target id {t:?} out of range"));
            }
            if seen_s[s.idx()] {
                return Err(format!("source id {s:?} aligned twice"));
            }
            if seen_t[t.idx()] {
                return Err(format!("target id {t:?} aligned twice"));
            }
            seen_s[s.idx()] = true;
            seen_t[t.idx()] = true;
        }
        Ok(())
    }

    /// Fraction of entities on each side that have no ground-truth
    /// equivalent (the "unknown entities" of DBP1M): `(source, target)`.
    pub fn unknown_fraction(&self) -> (f64, f64) {
        let ns = self.source.num_entities();
        let nt = self.target.num_entities();
        if ns == 0 || nt == 0 {
            return (0.0, 0.0);
        }
        let known = self.alignment.len() as f64;
        (1.0 - known / ns as f64, 1.0 - known / nt as f64)
    }
}

/// Fisher–Yates shuffle driven by SplitMix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0xD6E8FEB86659FD93;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnowledgeGraph;

    fn pair(n: usize) -> KgPair {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        let mut alignment = Vec::new();
        for i in 0..n {
            let es = s.add_entity(&format!("s{i}"));
            let et = t.add_entity(&format!("t{i}"));
            alignment.push((es, et));
        }
        KgPair::new(s, t, alignment)
    }

    #[test]
    fn split_respects_ratio() {
        let p = pair(100);
        let seeds = p.split_seeds(0.2, 42);
        assert_eq!(seeds.train.len(), 20);
        assert_eq!(seeds.test.len(), 80);
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let p = pair(50);
        let a = p.split_seeds(0.3, 7);
        let b = p.split_seeds(0.3, 7);
        let c = p.split_seeds(0.3, 8);
        assert_eq!(a.train, b.train);
        assert_ne!(a.train, c.train, "different seeds should differ");
    }

    #[test]
    fn split_partitions_the_ground_truth() {
        let p = pair(30);
        let seeds = p.split_seeds(0.5, 1);
        let mut all: Vec<_> = seeds.train.iter().chain(&seeds.test).copied().collect();
        all.sort();
        let mut truth = p.alignment.clone();
        truth.sort();
        assert_eq!(all, truth);
    }

    #[test]
    fn split_extremes() {
        let p = pair(10);
        assert_eq!(p.split_seeds(0.0, 0).train.len(), 0);
        assert_eq!(p.split_seeds(1.0, 0).test.len(), 0);
    }

    #[test]
    #[should_panic(expected = "seed ratio")]
    fn split_rejects_bad_ratio() {
        pair(3).split_seeds(1.5, 0);
    }

    #[test]
    fn reversed_flips_pairs() {
        let p = pair(5);
        let r = p.reversed();
        assert_eq!(r.source.name(), "FR");
        assert_eq!(r.target.name(), "EN");
        assert_eq!(r.alignment[0], (p.alignment[0].1, p.alignment[0].0));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_catches_duplicates_and_range() {
        let mut p = pair(3);
        p.alignment.push(p.alignment[0]);
        assert!(p.validate().unwrap_err().contains("aligned twice"));
        let mut p = pair(3);
        p.alignment.push((EntityId(99), EntityId(0)));
        assert!(p.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn unknown_fraction_counts_unaligned() {
        let mut p = pair(4);
        p.source.add_entity("lonely");
        let (us, ut) = p.unknown_fraction();
        assert!((us - 0.2).abs() < 1e-12);
        assert_eq!(ut, 0.0);
    }
}
