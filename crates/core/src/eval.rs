//! Evaluation metrics: Hits@N and Mean Reciprocal Rank, and the run's
//! answer-quality metrics recorded into its trace.

use largeea_common::json::{Json, ToJson};
use largeea_common::obs::Recorder;
use largeea_kg::{EntityId, KnowledgeGraph};
use largeea_sim::SparseSimMatrix;

/// EA accuracy over a set of held-out pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Hits@1 in percent (the fraction of test pairs whose true target
    /// ranks first).
    pub hits1: f64,
    /// Hits@5 in percent.
    pub hits5: f64,
    /// Mean reciprocal rank (a pair absent from the candidate list
    /// contributes 0 — the sparse-matrix convention).
    pub mrr: f64,
    /// Number of test pairs evaluated.
    pub evaluated: usize,
}

impl EvalResult {
    /// All-zero result over `n` pairs.
    pub fn zero(n: usize) -> Self {
        Self {
            hits1: 0.0,
            hits5: 0.0,
            mrr: 0.0,
            evaluated: n,
        }
    }

    /// Table-style row: `H@1  H@5  MRR`.
    pub fn row(&self) -> String {
        format!("{:5.1} {:5.1} {:5.2}", self.hits1, self.hits5, self.mrr)
    }
}

impl ToJson for EvalResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits1", self.hits1.to_json()),
            ("hits5", self.hits5.to_json()),
            ("mrr", self.mrr.to_json()),
            ("evaluated", self.evaluated.to_json()),
        ])
    }
}

/// Ranks every test pair's true target within its source row of `sim`.
///
/// Ranking is over the row's *stored* candidates (the matrix keeps top-k per
/// row); a true target missing from the row counts as a miss for every
/// metric, matching how sparse candidate lists are scored in the LargeEA
/// release.
pub fn evaluate(sim: &SparseSimMatrix, test_pairs: &[(EntityId, EntityId)]) -> EvalResult {
    if test_pairs.is_empty() {
        return EvalResult::zero(0);
    }
    let mut h1 = 0usize;
    let mut h5 = 0usize;
    let mut rr = 0.0f64;
    for &(s, t) in test_pairs {
        if let Some(rank) = sim.rank(s.idx(), t.0) {
            if rank == 1 {
                h1 += 1;
            }
            if rank <= 5 {
                h5 += 1;
            }
            rr += 1.0 / rank as f64;
        }
    }
    let n = test_pairs.len() as f64;
    EvalResult {
        hits1: 100.0 * h1 as f64 / n,
        hits5: 100.0 * h5 as f64 / n,
        mrr: rr / n,
        evaluated: test_pairs.len(),
    }
}

/// Upper bound (inclusive) and label of each source-degree bucket.
const DEGREE_BUCKETS: [(u32, &str); 5] = [
    (1, "0-1"),
    (3, "2-3"),
    (7, "4-7"),
    (15, "8-15"),
    (u32::MAX, "16+"),
];

/// For each test pair, whether `m` alone ranks the true target first.
pub(crate) fn top1_hits(m: &SparseSimMatrix, test_pairs: &[(EntityId, EntityId)]) -> Vec<bool> {
    let hit = |&(s, t): &(EntityId, EntityId)| m.best(s.idx()).map(|(c, _)| c) == Some(t.0);
    test_pairs.iter().map(hit).collect()
}

/// Records a run's answer quality over `test_pairs` into `rec`
/// (DESIGN.md §S0.5):
///
/// - gauges `eval.{hits1,hits5,mrr}`, copied from `eval`;
/// - gauges `eval.structure_hits1` / `eval.name_hits1`: each channel's own
///   top-1 H@1 (%), when it ran — `structure_hits` is [`top1_hits`] of
///   `M_s`, read before fusion consumed it;
/// - counters `fusion.{both,structure_only,name_only,neither}`, which
///   channel(s) alone rank each pair's target first, and
///   `fusion.{rescued,broke}`, the pairs the fused matrix gets that neither
///   channel got and the pairs a channel got that it loses — when both ran;
/// - counter `eval.degree.<bucket>.pairs` and gauge
///   `eval.degree.<bucket>.hits1`: the fused top-1 H@1 (%) by undirected
///   source-entity degree, buckets `0-1`, `2-3`, `4-7`, `8-15`, `16+`. EA
///   on low-degree entities is structural models' known weak spot; these
///   show whether the name channel carries them.
pub(crate) fn record_quality(
    rec: &Recorder,
    source: &KnowledgeGraph,
    test_pairs: &[(EntityId, EntityId)],
    eval: &EvalResult,
    fused: &SparseSimMatrix,
    structure_hits: Option<&[bool]>,
    m_n: Option<&SparseSimMatrix>,
) {
    rec.gauge("eval.hits1", eval.hits1);
    rec.gauge("eval.hits5", eval.hits5);
    rec.gauge("eval.mrr", eval.mrr);
    let pct = |hits: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            100.0 * hits as f64 / of as f64
        }
    };
    let name_hits = m_n.map(|m| top1_hits(m, test_pairs));
    for (metric, hits) in [
        ("eval.structure_hits1", structure_hits),
        ("eval.name_hits1", name_hits.as_deref()),
    ] {
        if let Some(hits) = hits {
            let n = hits.iter().filter(|&&h| h).count();
            rec.gauge(metric, pct(n, hits.len()));
        }
    }
    let fused_hits = top1_hits(fused, test_pairs);
    if let (Some(hs), Some(hn)) = (structure_hits, &name_hits) {
        // both, structure_only, name_only, neither, rescued, broke
        let mut counts = [0u64; 6];
        for ((&s, &n), &f) in hs.iter().zip(hn).zip(&fused_hits) {
            let solved_by = match (s, n) {
                (true, true) => 0,
                (true, false) => 1,
                (false, true) => 2,
                (false, false) => 3,
            };
            counts[solved_by] += 1;
            if f && !s && !n {
                counts[4] += 1;
            } else if !f && (s || n) {
                counts[5] += 1;
            }
        }
        let metrics = [
            "fusion.both",
            "fusion.structure_only",
            "fusion.name_only",
            "fusion.neither",
            "fusion.rescued",
            "fusion.broke",
        ];
        for (metric, n) in metrics.into_iter().zip(counts) {
            rec.add(metric, n);
        }
    }
    // undirected degree, a self-loop counted once (as `Adjacency::undirected`)
    let mut degree = vec![0u32; source.num_entities()];
    for t in source.triples() {
        degree[t.head.idx()] += 1;
        if !t.is_loop() {
            degree[t.tail.idx()] += 1;
        }
    }
    let mut pairs = [0usize; DEGREE_BUCKETS.len()];
    let mut hits = [0usize; DEGREE_BUCKETS.len()];
    for (&(s, _), &hit) in test_pairs.iter().zip(&fused_hits) {
        let d = degree[s.idx()];
        let b = DEGREE_BUCKETS
            .iter()
            .position(|&(hi, _)| d <= hi)
            .expect("buckets cover all degrees");
        pairs[b] += 1;
        hits[b] += usize::from(hit);
    }
    for (b, (_, label)) in DEGREE_BUCKETS.iter().enumerate() {
        rec.add(&format!("eval.degree.{label}.pairs"), pairs[b] as u64);
        rec.gauge(
            &format!("eval.degree.{label}.hits1"),
            pct(hits[b], pairs[b]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SparseSimMatrix {
        let mut m = SparseSimMatrix::new(3, 3);
        // row 0: true target 0 ranks 1st
        m.insert(0, 0, 0.9);
        m.insert(0, 1, 0.2);
        // row 1: true target 1 ranks 2nd
        m.insert(1, 0, 0.8);
        m.insert(1, 1, 0.5);
        // row 2: true target 2 absent
        m.insert(2, 0, 0.4);
        m
    }

    fn pairs() -> Vec<(EntityId, EntityId)> {
        (0..3).map(|i| (EntityId(i), EntityId(i))).collect()
    }

    #[test]
    fn hits_and_mrr_hand_computed() {
        let r = evaluate(&sim(), &pairs());
        assert!((r.hits1 - 100.0 / 3.0).abs() < 1e-9);
        assert!((r.hits5 - 200.0 / 3.0).abs() < 1e-9);
        assert!((r.mrr - (1.0 + 0.5 + 0.0) / 3.0).abs() < 1e-9);
        assert_eq!(r.evaluated, 3);
    }

    #[test]
    fn empty_test_set() {
        let r = evaluate(&sim(), &[]);
        assert_eq!(r.evaluated, 0);
        assert_eq!(r.hits1, 0.0);
    }

    #[test]
    fn perfect_matrix_scores_100() {
        let mut m = SparseSimMatrix::new(2, 2);
        m.insert(0, 0, 1.0);
        m.insert(1, 1, 1.0);
        let p: Vec<_> = (0..2).map(|i| (EntityId(i), EntityId(i))).collect();
        let r = evaluate(&m, &p);
        assert_eq!(r.hits1, 100.0);
        assert_eq!(r.mrr, 1.0);
    }

    #[test]
    fn row_formatting() {
        let r = EvalResult {
            hits1: 88.4,
            hits5: 92.2,
            mrr: 0.9,
            evaluated: 10,
        };
        assert_eq!(r.row(), " 88.4  92.2  0.90");
    }

    /// `record_quality`'s trace over four test pairs `(i, i)`, with source
    /// degrees s0 = 2, s1 = 1, s2 = 1, s3 = 0.
    fn quality(
        fused: &SparseSimMatrix,
        m_s: Option<&SparseSimMatrix>,
        m_n: Option<&SparseSimMatrix>,
        n_pairs: usize,
    ) -> largeea_common::obs::Trace {
        let mut s = KnowledgeGraph::new("EN");
        for i in 0..4 {
            s.add_entity(&format!("s{i}"));
        }
        s.add_triple_by_name("s0", "r", "s1");
        s.add_triple_by_name("s0", "r", "s2");
        let tests: Vec<_> = (0..n_pairs as u32)
            .map(|i| (EntityId(i), EntityId(i)))
            .collect();
        let rec = Recorder::new(Default::default());
        let structure_hits = m_s.map(|m| top1_hits(m, &tests));
        let eval = evaluate(fused, &tests);
        record_quality(
            &rec,
            &s,
            &tests,
            &eval,
            fused,
            structure_hits.as_deref(),
            m_n,
        );
        rec.trace()
    }

    #[test]
    fn degree_buckets_count_and_score() {
        let mut sim = SparseSimMatrix::new(4, 4);
        sim.insert(0, 0, 1.0); // hit, degree 2
        sim.insert(1, 2, 1.0); // miss, degree 1
        sim.insert(3, 3, 1.0); // hit, degree 0
        let t = quality(&sim, None, None, 4);
        assert_eq!(t.counter("eval.degree.0-1.pairs"), 3); // s1, s2, s3
        let h01 = t.gauge("eval.degree.0-1.hits1").unwrap();
        assert!((h01 - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.counter("eval.degree.2-3.pairs"), 1);
        assert_eq!(t.gauge("eval.degree.2-3.hits1"), Some(100.0));
        assert_eq!(t.counter("eval.degree.16+.pairs"), 0);
        assert_eq!(t.gauge("eval.degree.16+.hits1"), Some(0.0));
        // one channel: no per-channel attribution
        assert_eq!(t.gauge("eval.name_hits1"), None);
        assert!(t.counters.iter().all(|(k, _)| !k.starts_with("fusion.")));
    }

    #[test]
    fn attribution_partitions_the_test_set() {
        let mut m_s = SparseSimMatrix::new(4, 4);
        m_s.insert(0, 0, 1.0); // structure solves pair 0
        m_s.insert(1, 2, 1.0);
        let mut m_n = SparseSimMatrix::new(4, 4);
        m_n.insert(0, 0, 1.0); // name also solves pair 0
        m_n.insert(1, 1, 1.0); // name solves pair 1
        let fused = m_s.add(&m_n);
        let t = quality(&fused, Some(&m_s), Some(&m_n), 4);
        assert_eq!(t.counter("fusion.both"), 1);
        assert_eq!(t.counter("fusion.name_only"), 1);
        assert_eq!(t.counter("fusion.structure_only"), 0);
        assert_eq!(t.counter("fusion.neither"), 2);
        assert_eq!(t.gauge("eval.structure_hits1"), Some(25.0));
        assert_eq!(t.gauge("eval.name_hits1"), Some(50.0));
        // fused: pair 0 correct; pair 1 ties (1.0 on cols 1 and 2) and the
        // lower column id wins, so fusion keeps it
        assert_eq!(t.counter("fusion.broke"), 0);
        assert_eq!(t.gauge("eval.hits1"), Some(50.0));
    }

    #[test]
    fn fusion_rescue_detection() {
        let mut m_s = SparseSimMatrix::new(1, 2);
        m_s.insert(0, 0, 0.6);
        m_s.insert(0, 1, 0.7); // structure alone: wrong
        let mut m_n = SparseSimMatrix::new(1, 2);
        m_n.insert(0, 0, 0.7);
        m_n.insert(0, 1, 0.6); // name alone: right... → not a rescue case
        let fused = m_s.add(&m_n);
        let t = quality(&fused, Some(&m_s), Some(&m_n), 1);
        assert_eq!(t.counter("fusion.name_only"), 1);
        assert_eq!(t.counter("fusion.rescued"), 0);

        // true rescue: both channels wrong alone, fusion right
        let mut m_s = SparseSimMatrix::new(1, 3);
        m_s.insert(0, 0, 0.8);
        m_s.insert(0, 1, 0.9); // wrong
        let mut m_n = SparseSimMatrix::new(1, 3);
        m_n.insert(0, 0, 0.8);
        m_n.insert(0, 2, 0.9); // wrong differently
        let fused = m_s.add(&m_n); // col0: 1.6 beats col1 0.9 and col2 0.9
        let t = quality(&fused, Some(&m_s), Some(&m_n), 1);
        assert_eq!(t.counter("fusion.neither"), 1);
        assert_eq!(t.counter("fusion.rescued"), 1);

        // fusion breaks what the name channel alone got
        let mut m_s = SparseSimMatrix::new(1, 2);
        m_s.insert(0, 1, 0.9);
        let mut m_n = SparseSimMatrix::new(1, 2);
        m_n.insert(0, 0, 0.5);
        let fused = m_s.add(&m_n);
        let t = quality(&fused, Some(&m_s), Some(&m_n), 1);
        assert_eq!(t.counter("fusion.broke"), 1);
    }

    #[test]
    fn empty_test_set_records_zeros() {
        let sim = SparseSimMatrix::new(4, 4);
        let t = quality(&sim, Some(&sim), Some(&sim), 0);
        // every metric is present, at zero
        let zero = |name: String| t.counters.iter().any(|(k, v)| *k == name && *v == 0);
        for (_, label) in DEGREE_BUCKETS {
            assert!(zero(format!("eval.degree.{label}.pairs")), "{label}");
        }
        for c in [
            "both",
            "structure_only",
            "name_only",
            "neither",
            "rescued",
            "broke",
        ] {
            assert!(zero(format!("fusion.{c}")), "{c}");
        }
        assert_eq!(t.gauge("eval.name_hits1"), Some(0.0));
    }
}
