//! Mini-batch assembly and quality metrics.
//!
//! A mini-batch pairs one subgraph of `G_s` with one subgraph of `G_t`; the
//! EA model trains inside each batch independently. This module turns
//! partition assignments into [`MiniBatches`], computes the paper's
//! partition-quality numbers — seed retention (Table 5) and edge-cut rate
//! `R_ec` (Figure 7), recorded into the run's trace by
//! [`MiniBatches::record_quality`] — and builds the *overlapping*
//! mini-batches of Appendix C.

use largeea_common::obs::Recorder;
use largeea_kg::{AlignmentSeeds, EntityId, KgPair};

/// One mini-batch: entity membership on both sides plus the alignment pairs
/// fully contained in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatch {
    /// Batch index.
    pub index: usize,
    /// Source-KG entities in this batch (original source ids, ascending).
    pub source_entities: Vec<EntityId>,
    /// Target-KG entities in this batch (original target ids, ascending).
    pub target_entities: Vec<EntityId>,
    /// Training seeds with both endpoints in this batch.
    pub train_pairs: Vec<(EntityId, EntityId)>,
    /// Test pairs with both endpoints in this batch (evaluation bookkeeping
    /// only — never shown to the model).
    pub test_pairs: Vec<(EntityId, EntityId)>,
}

/// A full set of mini-batches plus the per-entity membership lists
/// (an entity belongs to several batches only when overlap `D_ov > 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatches {
    /// The batches.
    pub batches: Vec<MiniBatch>,
    /// `source_membership[e]` = batches containing source entity `e`.
    pub source_membership: Vec<Vec<u32>>,
    /// `target_membership[e]` = batches containing target entity `e`.
    pub target_membership: Vec<Vec<u32>>,
}

/// Seed-retention statistics: the fraction of aligned pairs whose two
/// endpoints share a mini-batch (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retention {
    /// Over train ∪ test.
    pub total: f64,
    /// Over the training seeds.
    pub train: f64,
    /// Over the held-out test pairs.
    pub test: f64,
}

impl MiniBatches {
    /// Assembles batches from per-entity part assignments (`k` parts on each
    /// side; `source_assignment[e]`/`target_assignment[e]` give the batch of
    /// each entity).
    pub fn from_assignments(
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        source_assignment: &[u32],
        target_assignment: &[u32],
        k: usize,
    ) -> Self {
        assert_eq!(source_assignment.len(), pair.source.num_entities());
        assert_eq!(target_assignment.len(), pair.target.num_entities());
        let mut batches: Vec<MiniBatch> = (0..k)
            .map(|index| MiniBatch {
                index,
                source_entities: Vec::new(),
                target_entities: Vec::new(),
                train_pairs: Vec::new(),
                test_pairs: Vec::new(),
            })
            .collect();
        for (e, &b) in source_assignment.iter().enumerate() {
            batches[b as usize].source_entities.push(EntityId(e as u32));
        }
        for (e, &b) in target_assignment.iter().enumerate() {
            batches[b as usize].target_entities.push(EntityId(e as u32));
        }
        for &(s, t) in &seeds.train {
            let (bs, bt) = (source_assignment[s.idx()], target_assignment[t.idx()]);
            if bs == bt {
                batches[bs as usize].train_pairs.push((s, t));
            }
        }
        for &(s, t) in &seeds.test {
            let (bs, bt) = (source_assignment[s.idx()], target_assignment[t.idx()]);
            if bs == bt {
                batches[bs as usize].test_pairs.push((s, t));
            }
        }
        let source_membership = source_assignment.iter().map(|&b| vec![b]).collect();
        let target_membership = target_assignment.iter().map(|&b| vec![b]).collect();
        Self {
            batches,
            source_membership,
            target_membership,
        }
    }

    /// Number of batches `K`.
    pub fn k(&self) -> usize {
        self.batches.len()
    }

    /// Whether source `s` and target `t` share at least one batch.
    pub fn co_located(&self, s: EntityId, t: EntityId) -> bool {
        let sm = &self.source_membership[s.idx()];
        let tm = &self.target_membership[t.idx()];
        sm.iter().any(|b| tm.contains(b))
    }

    /// Seed retention over the split (Table 5).
    pub fn retention(&self, seeds: &AlignmentSeeds) -> Retention {
        let frac = |pairs: &[(EntityId, EntityId)]| {
            if pairs.is_empty() {
                return 1.0;
            }
            pairs
                .iter()
                .filter(|&&(s, t)| self.co_located(s, t))
                .count() as f64
                / pairs.len() as f64
        };
        let train = frac(&seeds.train);
        let test = frac(&seeds.test);
        let n = seeds.len();
        let total = if n == 0 {
            1.0
        } else {
            (train * seeds.train.len() as f64 + test * seeds.test.len() as f64) / n as f64
        };
        Retention { total, train, test }
    }

    /// Edge-cut rate `R_ec` (Figure 7): the fraction of triples (over both
    /// KGs) whose endpoints share no batch.
    pub fn edge_cut_rate(&self, pair: &KgPair) -> f64 {
        let total = pair.source.num_triples() + pair.target.num_triples();
        if total == 0 {
            return 0.0;
        }
        let cut_in = |triples: &[largeea_kg::Triple], membership: &[Vec<u32>]| {
            triples
                .iter()
                .filter(|t| {
                    let hm = &membership[t.head.idx()];
                    let tm = &membership[t.tail.idx()];
                    !hm.iter().any(|b| tm.contains(b))
                })
                .count()
        };
        let cut = cut_in(pair.source.triples(), &self.source_membership)
            + cut_in(pair.target.triples(), &self.target_membership);
        cut as f64 / total as f64
    }

    /// Records the batches' quality against `seeds` into `rec` — gauges
    /// `partition.retention.{train,test,total}` (each only when its set of
    /// pairs is non-empty: a retention over no pairs measures nothing) and
    /// `partition.edge_cut_rate`, counter `partition.batches_without_train`
    /// (batches holding no training pair, which are trained anyway) — and
    /// returns the retention and edge-cut rate it computed, so a printer
    /// computes neither again.
    pub fn record_quality(
        &self,
        pair: &KgPair,
        seeds: &AlignmentSeeds,
        rec: &Recorder,
    ) -> (Retention, f64) {
        let r = self.retention(seeds);
        let cut = self.edge_cut_rate(pair);
        for (name, value, pairs) in [
            ("partition.retention.train", r.train, seeds.train.len()),
            ("partition.retention.test", r.test, seeds.test.len()),
            ("partition.retention.total", r.total, seeds.len()),
        ] {
            if pairs > 0 {
                rec.gauge(name, value);
            }
        }
        rec.gauge("partition.edge_cut_rate", cut);
        let untrained = self.batches.iter().filter(|b| b.train_pairs.is_empty());
        rec.add("partition.batches_without_train", untrained.count() as u64);
        (r, cut)
    }

    /// Builds the overlapping mini-batches of Appendix C: every batch is
    /// merged with its `d_ov − 1` most similar *other* batches (`d_ov = 1`
    /// keeps the batches disjoint). Similarity between batches `i` and `j`
    /// is the number of aligned pairs whose endpoints straddle them —
    /// exactly the pairs overlap could recover.
    pub fn overlapped(&self, pair: &KgPair, seeds: &AlignmentSeeds, d_ov: usize) -> MiniBatches {
        assert!(d_ov >= 1, "d_ov must be at least 1");
        let k = self.k();
        if d_ov == 1 || k <= 1 {
            return self.clone();
        }
        // cross-batch seed counts
        let mut cross = vec![vec![0usize; k]; k];
        for &(s, t) in seeds.train.iter().chain(&seeds.test) {
            for &bs in &self.source_membership[s.idx()] {
                for &bt in &self.target_membership[t.idx()] {
                    if bs != bt {
                        cross[bs as usize][bt as usize] += 1;
                    }
                }
            }
        }
        // for each batch, the (d_ov - 1) most similar others
        let mut groups: Vec<Vec<u32>> = Vec::with_capacity(k);
        for (i, cross_i) in cross.iter().enumerate() {
            let mut sims: Vec<(usize, usize)> = (0..k)
                .filter(|&j| j != i)
                .map(|j| (cross_i[j] + cross[j][i], j))
                .collect();
            sims.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut members = vec![i as u32];
            members.extend(sims.iter().take(d_ov - 1).map(|&(_, j)| j as u32));
            members.sort_unstable();
            groups.push(members);
        }
        // rebuild membership lists and batches
        let mut source_membership = vec![Vec::new(); pair.source.num_entities()];
        let mut target_membership = vec![Vec::new(); pair.target.num_entities()];
        let mut batches: Vec<MiniBatch> = (0..k)
            .map(|index| MiniBatch {
                index,
                source_entities: Vec::new(),
                target_entities: Vec::new(),
                train_pairs: Vec::new(),
                test_pairs: Vec::new(),
            })
            .collect();
        for (new_b, members) in groups.iter().enumerate() {
            for &m in members {
                let src = &self.batches[m as usize];
                batches[new_b]
                    .source_entities
                    .extend_from_slice(&src.source_entities);
                batches[new_b]
                    .target_entities
                    .extend_from_slice(&src.target_entities);
            }
            batches[new_b].source_entities.sort_unstable();
            batches[new_b].source_entities.dedup();
            batches[new_b].target_entities.sort_unstable();
            batches[new_b].target_entities.dedup();
            for &e in &batches[new_b].source_entities {
                source_membership[e.idx()].push(new_b as u32);
            }
            for &e in &batches[new_b].target_entities {
                target_membership[e.idx()].push(new_b as u32);
            }
        }
        // recompute contained pairs per (possibly overlapping) batch
        for b in &mut batches {
            let in_src: std::collections::HashSet<EntityId> =
                b.source_entities.iter().copied().collect();
            let in_tgt: std::collections::HashSet<EntityId> =
                b.target_entities.iter().copied().collect();
            b.train_pairs = seeds
                .train
                .iter()
                .filter(|(s, t)| in_src.contains(s) && in_tgt.contains(t))
                .copied()
                .collect();
            b.test_pairs = seeds
                .test
                .iter()
                .filter(|(s, t)| in_src.contains(s) && in_tgt.contains(t))
                .copied()
                .collect();
        }
        MiniBatches {
            batches,
            source_membership,
            target_membership,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::KnowledgeGraph;

    /// 4 aligned pairs, 2 batches; pair 3 straddles batches.
    fn setup() -> (KgPair, AlignmentSeeds, MiniBatches) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..4 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        s.add_triple_by_name("s0", "r", "s1");
        s.add_triple_by_name("s2", "r", "s3");
        s.add_triple_by_name("s1", "r", "s2"); // crosses the partition below
        t.add_triple_by_name("t0", "r", "t1");
        t.add_triple_by_name("t2", "r", "t3"); // crosses (t3 in batch 0)
        let alignment: Vec<_> = (0..4).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment.clone());
        let seeds = AlignmentSeeds {
            train: alignment[..2].to_vec(),
            test: alignment[2..].to_vec(),
        };
        // source: {0,1},{2,3}; target: {0,1,3},{2} → test pair (2,2) kept in
        // batch? s2→batch1, t2→batch1: kept. (3,3): s3→1, t3→0: lost.
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0, 0, 1, 1], &[0, 0, 1, 0], 2);
        (pair, seeds, mb)
    }

    #[test]
    fn assembly_places_entities_and_pairs() {
        let (_, _, mb) = setup();
        assert_eq!(mb.k(), 2);
        assert_eq!(mb.batches[0].source_entities.len(), 2);
        assert_eq!(mb.batches[0].train_pairs.len(), 2);
        assert_eq!(mb.batches[1].train_pairs.len(), 0);
        assert_eq!(mb.batches[1].test_pairs, vec![(EntityId(2), EntityId(2))]);
    }

    #[test]
    fn retention_matches_hand_count() {
        let (_, seeds, mb) = setup();
        let r = mb.retention(&seeds);
        assert_eq!(r.train, 1.0);
        assert_eq!(r.test, 0.5); // (2,2) kept, (3,3) split
        assert_eq!(r.total, 0.75);
    }

    #[test]
    fn edge_cut_rate_counts_cross_batch_triples() {
        let (pair, _, mb) = setup();
        // source triple s1-s2 crosses; target triple t2-t3 crosses → 2 of 5
        let r = mb.edge_cut_rate(&pair);
        assert!((r - 2.0 / 5.0).abs() < 1e-12, "rate {r}");
    }

    #[test]
    fn co_located_basic() {
        let (_, _, mb) = setup();
        assert!(mb.co_located(EntityId(0), EntityId(1)));
        assert!(!mb.co_located(EntityId(3), EntityId(3)));
    }

    #[test]
    fn overlap_1_is_identity() {
        let (pair, seeds, mb) = setup();
        let ov = mb.overlapped(&pair, &seeds, 1);
        assert_eq!(ov.batches.len(), mb.batches.len());
        assert_eq!(ov.batches[0].source_entities, mb.batches[0].source_entities);
    }

    #[test]
    fn overlap_2_recovers_split_pairs() {
        let (pair, seeds, mb) = setup();
        let before = mb.retention(&seeds);
        let ov = mb.overlapped(&pair, &seeds, 2);
        let after = ov.retention(&seeds);
        assert!(after.total >= before.total);
        // with full overlap of the only 2 batches everything is co-located
        assert_eq!(after.test, 1.0);
        // membership lists now hold multiple batches
        assert!(ov.source_membership.iter().any(|m| m.len() > 1));
    }

    #[test]
    fn empty_seeds_retention_is_one() {
        let (pair, _, mb) = setup();
        let empty = AlignmentSeeds::default();
        let r = mb.retention(&empty);
        assert_eq!(r.total, 1.0);
        assert_eq!(mb.edge_cut_rate(&pair), 2.0 / 5.0);
    }

    #[test]
    fn quality_gauges_skip_an_empty_pair_set() {
        let (pair, seeds, mb) = setup();
        let unsupervised = AlignmentSeeds {
            train: Vec::new(),
            test: seeds.test.clone(),
        };
        let rec = Recorder::new(largeea_common::obs::ObsConfig::default());
        let (r, _) = mb.record_quality(&pair, &unsupervised, &rec);
        let t = rec.trace();
        assert_eq!(r.train, 1.0, "retention() itself is unchanged");
        assert_eq!(t.gauge("partition.retention.train"), None);
        assert_eq!(t.gauge("partition.retention.test"), Some(0.5));
        assert_eq!(t.gauge("partition.retention.total"), Some(0.5));

        let rec = Recorder::new(largeea_common::obs::ObsConfig::default());
        mb.record_quality(&pair, &AlignmentSeeds::default(), &rec);
        let t = rec.trace();
        assert!(t
            .gauges
            .iter()
            .all(|(k, _)| !k.starts_with("partition.retention.")));
        assert_eq!(t.gauge("partition.edge_cut_rate"), Some(2.0 / 5.0));
    }

    #[test]
    #[should_panic(expected = "d_ov must be at least 1")]
    fn overlap_zero_rejected() {
        let (pair, seeds, mb) = setup();
        mb.overlapped(&pair, &seeds, 0);
    }
}
