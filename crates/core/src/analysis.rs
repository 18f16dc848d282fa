//! Post-hoc result analysis: where do the hits come from?
//!
//! Two diagnostics that practitioners run on every EA deployment:
//!
//! - [`accuracy_by_degree`] — H@1 bucketed by source-entity degree. EA on
//!   tail (low-degree) entities is the known weak spot of structural models
//!   (Zeng et al., SIGIR 2020, cited by the paper); this shows whether the
//!   name channel is carrying the tail.
//! - [`attribute_channels`] — for each test pair, which channel would have
//!   ranked it first on its own, and whether fusion kept or broke the hit.
//!   This makes the paper's "channels complement each other" claim
//!   inspectable pair by pair.

use largeea_common::json::{Json, ToJson};
use largeea_kg::{EntityId, KgPair};
use largeea_sim::SparseSimMatrix;

/// H@1 within one degree bucket.
#[derive(Debug, Clone)]
pub struct DegreeBucket {
    /// Human-readable bucket bound, e.g. `"2-3"`.
    pub bucket: String,
    /// Test pairs whose source entity falls in the bucket.
    pub pairs: usize,
    /// H@1 (%) within the bucket.
    pub hits1: f64,
}

/// Buckets the test pairs by undirected source-entity degree
/// (0–1, 2–3, 4–7, 8–15, 16+) and computes H@1 per bucket.
pub fn accuracy_by_degree(
    pair: &KgPair,
    sim: &SparseSimMatrix,
    test_pairs: &[(EntityId, EntityId)],
) -> Vec<DegreeBucket> {
    let adj = pair.source.adjacency();
    const BOUNDS: [(usize, usize, &str); 5] = [
        (0, 1, "0-1"),
        (2, 3, "2-3"),
        (4, 7, "4-7"),
        (8, 15, "8-15"),
        (16, usize::MAX, "16+"),
    ];
    let mut pairs_in = [0usize; 5];
    let mut hits_in = [0usize; 5];
    for &(s, t) in test_pairs {
        let d = adj.degree(s);
        let b = BOUNDS
            .iter()
            .position(|&(lo, hi, _)| d >= lo && d <= hi)
            .expect("buckets cover all degrees");
        pairs_in[b] += 1;
        if sim.best(s.idx()).map(|(c, _)| c) == Some(t.0) {
            hits_in[b] += 1;
        }
    }
    BOUNDS
        .iter()
        .enumerate()
        .map(|(b, &(_, _, label))| DegreeBucket {
            bucket: label.to_owned(),
            pairs: pairs_in[b],
            hits1: if pairs_in[b] == 0 {
                0.0
            } else {
                100.0 * hits_in[b] as f64 / pairs_in[b] as f64
            },
        })
        .collect()
}

impl ToJson for DegreeBucket {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bucket", self.bucket.to_json()),
            ("pairs", self.pairs.to_json()),
            ("hits1", self.hits1.to_json()),
        ])
    }
}

/// Per-pair channel attribution counts over the test set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAttribution {
    /// Both channels alone would rank the true target first.
    pub both: usize,
    /// Only the structure channel would.
    pub structure_only: usize,
    /// Only the name channel would.
    pub name_only: usize,
    /// Neither channel alone would.
    pub neither: usize,
    /// The fused matrix ranks the true target first.
    pub fused_correct: usize,
    /// Pairs where fusion rescued a case neither single channel got.
    pub fusion_rescued: usize,
    /// Pairs some single channel got but fusion lost.
    pub fusion_broke: usize,
}

impl ToJson for ChannelAttribution {
    fn to_json(&self) -> Json {
        Json::obj([
            ("both", self.both.to_json()),
            ("structure_only", self.structure_only.to_json()),
            ("name_only", self.name_only.to_json()),
            ("neither", self.neither.to_json()),
            ("fused_correct", self.fused_correct.to_json()),
            ("fusion_rescued", self.fusion_rescued.to_json()),
            ("fusion_broke", self.fusion_broke.to_json()),
        ])
    }
}

/// For each test pair, whether `m` alone ranks the true target first.
pub fn top1_hits(m: &SparseSimMatrix, test_pairs: &[(EntityId, EntityId)]) -> Vec<bool> {
    let hit = |&(s, t): &(EntityId, EntityId)| m.best(s.idx()).map(|(c, _)| c) == Some(t.0);
    test_pairs.iter().map(hit).collect()
}

/// Attributes every test pair to the channel(s) that solve it.
pub fn attribute_channels(
    m_s: &SparseSimMatrix,
    m_n: &SparseSimMatrix,
    fused: &SparseSimMatrix,
    test_pairs: &[(EntityId, EntityId)],
) -> ChannelAttribution {
    let hits = |m| top1_hits(m, test_pairs);
    ChannelAttribution::from_hits(&hits(m_s), &hits(m_n), &hits(fused))
}

impl ChannelAttribution {
    /// [`attribute_channels`] from each matrix's [`top1_hits`] over the same
    /// test pairs — all a caller needs to keep of a matrix it is about to
    /// consume (the pipeline fuses `M_s` in place).
    pub fn from_hits(structure: &[bool], name: &[bool], fused: &[bool]) -> ChannelAttribution {
        let mut a = ChannelAttribution {
            both: 0,
            structure_only: 0,
            name_only: 0,
            neither: 0,
            fused_correct: 0,
            fusion_rescued: 0,
            fusion_broke: 0,
        };
        for ((&hs, &hn), &hf) in structure.iter().zip(name).zip(fused) {
            match (hs, hn) {
                (true, true) => a.both += 1,
                (true, false) => a.structure_only += 1,
                (false, true) => a.name_only += 1,
                (false, false) => a.neither += 1,
            }
            if hf {
                a.fused_correct += 1;
                if !hs && !hn {
                    a.fusion_rescued += 1;
                }
            } else if hs || hn {
                a.fusion_broke += 1;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::KnowledgeGraph;

    fn setup() -> (KgPair, Vec<(EntityId, EntityId)>) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..4 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        // degrees: s0=2, s1=1, s2=1, s3=0
        s.add_triple_by_name("s0", "r", "s1");
        s.add_triple_by_name("s0", "r", "s2");
        let alignment: Vec<_> = (0..4).map(|i| (EntityId(i), EntityId(i))).collect();
        (KgPair::new(s, t, alignment.clone()), alignment)
    }

    #[test]
    fn degree_buckets_count_and_score() {
        let (pair, tests) = setup();
        let mut sim = SparseSimMatrix::new(4, 4);
        sim.insert(0, 0, 1.0); // hit, degree 2
        sim.insert(1, 2, 1.0); // miss, degree 1
        sim.insert(3, 3, 1.0); // hit, degree 0
        let buckets = accuracy_by_degree(&pair, &sim, &tests);
        let b01 = buckets.iter().find(|b| b.bucket == "0-1").unwrap();
        assert_eq!(b01.pairs, 3); // s1, s2, s3
        assert!((b01.hits1 - 100.0 / 3.0).abs() < 1e-9);
        let b23 = buckets.iter().find(|b| b.bucket == "2-3").unwrap();
        assert_eq!(b23.pairs, 1);
        assert_eq!(b23.hits1, 100.0);
    }

    #[test]
    fn attribution_partitions_the_test_set() {
        let (_, tests) = setup();
        let mut m_s = SparseSimMatrix::new(4, 4);
        m_s.insert(0, 0, 1.0); // structure solves pair 0
        m_s.insert(1, 2, 1.0);
        let mut m_n = SparseSimMatrix::new(4, 4);
        m_n.insert(0, 0, 1.0); // name also solves pair 0
        m_n.insert(1, 1, 1.0); // name solves pair 1
        let fused = m_s.add(&m_n);
        let a = attribute_channels(&m_s, &m_n, &fused, &tests);
        assert_eq!(a.both, 1);
        assert_eq!(a.name_only, 1);
        assert_eq!(a.structure_only, 0);
        assert_eq!(a.neither, 2);
        assert_eq!(
            a.both + a.structure_only + a.name_only + a.neither,
            tests.len()
        );
        // fused: pair 0 correct; pair 1 tie (1.0 each on cols 1,2 → col 1 wins by id)
        assert!(a.fused_correct >= 1);
    }

    #[test]
    fn fusion_rescue_detection() {
        let tests = vec![(EntityId(0), EntityId(0))];
        let mut m_s = SparseSimMatrix::new(1, 2);
        m_s.insert(0, 0, 0.6);
        m_s.insert(0, 1, 0.7); // structure alone: wrong
        let mut m_n = SparseSimMatrix::new(1, 2);
        m_n.insert(0, 0, 0.7);
        m_n.insert(0, 1, 0.6); // name alone: right... → not a rescue case
        let fused = m_s.add(&m_n);
        let a = attribute_channels(&m_s, &m_n, &fused, &tests);
        assert_eq!(a.name_only, 1);
        assert_eq!(a.fusion_rescued, 0);

        // true rescue: both channels wrong alone, fusion right
        let mut m_s = SparseSimMatrix::new(1, 3);
        m_s.insert(0, 0, 0.8);
        m_s.insert(0, 1, 0.9); // wrong
        let mut m_n = SparseSimMatrix::new(1, 3);
        m_n.insert(0, 0, 0.8);
        m_n.insert(0, 2, 0.9); // wrong differently
        let fused = m_s.add(&m_n); // col0: 1.6 beats col1 0.9 and col2 0.9
        let a = attribute_channels(&m_s, &m_n, &fused, &tests);
        assert_eq!(a.neither, 1);
        assert_eq!(a.fusion_rescued, 1);
    }

    #[test]
    fn empty_test_set() {
        let (pair, _) = setup();
        let sim = SparseSimMatrix::new(4, 4);
        let buckets = accuracy_by_degree(&pair, &sim, &[]);
        assert!(buckets.iter().all(|b| b.pairs == 0));
        let a = attribute_channels(&sim, &sim, &sim, &[]);
        assert_eq!(a.fused_correct, 0);
    }
}
