//! The name channel: NFF — name feature fusion (paper §2.3).
//!
//! Two training-free similarity functions over entity labels, fused into
//! `M_n = M_se + γ·M_st`:
//!
//! - **SENS** (semantic name similarity): every label is embedded with the
//!   subword hash encoder (the BERT + max-pooling substitute), embeddings
//!   are split into `K` segments, and Manhattan top-k search runs segment
//!   pair by segment pair — keeping retained memory at `O(k·|E_s|)`;
//! - **STNS** (string name similarity): MinHash-LSH proposes candidate
//!   pairs whose estimated Jaccard clears θ, and only those pairs pay for a
//!   Levenshtein computation.

use crate::checkpoint::Stage;
use crate::mem::MemBudget;
use crate::pipeline::{RunCtx, RunError};
use largeea_common::obs::{Level, ObsConfig, Recorder};
use largeea_common::pool::Pool;
use largeea_kg::{KnowledgeGraph, NameSlice, Names};
use largeea_sim::{resident_bytes, segmented_topk_streamed, Metric, SparseSimMatrix};
use largeea_text::{
    batch, levenshtein_similarity, normalize_into, HashEncoder, LshIndex, MinHasher,
};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Name-channel hyper-parameters (paper defaults in §3.1).
#[derive(Debug, Clone, Copy)]
pub struct NameChannelConfig {
    /// Semantic embedding dimension (the paper uses BERT's hidden size; the
    /// hash encoder defaults to 128, which is past the accuracy plateau).
    pub dim: usize,
    /// Semantic top-k retained per source entity (paper φ = 50).
    pub top_k: usize,
    /// Jaccard threshold θ for the LSH candidate filter (paper 0.5).
    pub theta: f64,
    /// String-similarity fusion weight γ (paper 0.05).
    pub gamma: f32,
    /// Number of segments the embedding matrices are split into for the
    /// segment-at-a-time search (the paper reuses the mini-batch count K).
    pub segments: usize,
    /// MinHash permutations.
    pub minhash_perms: usize,
    /// Character shingle size for MinHash/Jaccard.
    pub shingle_k: usize,
    /// Encoder / sketch seed.
    pub seed: u64,
}

impl Default for NameChannelConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            top_k: 50,
            theta: 0.5,
            gamma: 0.05,
            segments: 4,
            minhash_perms: 128,
            shingle_k: 3,
            seed: 0x5E45,
        }
    }
}

/// Everything the name channel produces.
#[derive(Debug)]
pub struct NameChannelOutput {
    /// Fused name similarity `M_n = M_se + γ·M_st`.
    pub m_n: SparseSimMatrix,
    /// Wall-clock seconds of SENS (encoding + top-k search).
    pub sens_seconds: f64,
    /// Wall-clock seconds of STNS (sketching + Levenshtein).
    pub stns_seconds: f64,
}

/// The name channel runner.
#[derive(Debug, Clone)]
pub struct NameChannel {
    cfg: NameChannelConfig,
}

impl NameChannel {
    /// Creates a channel with `cfg`.
    pub fn new(cfg: NameChannelConfig) -> Self {
        assert!(cfg.top_k >= 1, "top_k must be positive");
        assert!((0.0..=1.0).contains(&cfg.theta), "theta must lie in [0,1]");
        Self { cfg }
    }

    /// Runs NFF over the two KGs' entity labels: [`NameChannel::run_in`] a
    /// [`RunCtx::in_memory`]. A private default recorder keeps the reported
    /// timings real even though nobody asked for a trace (spans time
    /// whether stored or not).
    pub fn run(&self, source: &KnowledgeGraph, target: &KnowledgeGraph) -> NameChannelOutput {
        let rec = Recorder::new(ObsConfig::default());
        self.run_in(source, target, &mut RunCtx::in_memory(&rec))
            .expect("memory backing, no budget, no checkpoint: no RunError has a source")
    }

    /// Runs NFF against `ctx`: recording into `ctx.rec` and admitting
    /// against `ctx.budget`.
    ///
    /// Records a `name_channel` span with `stns`/`sens` children, in that
    /// order (the reported `*_seconds` are those spans' durations — single
    /// source of truth, so `0.0` with a disabled recorder), per-block
    /// `sens_block` spans from the segmented search and `stns.*` candidate
    /// counters.
    ///
    /// STNS runs first, so its signatures and index are never live beside
    /// `M_se`; each stage asks `ctx.budget` for what it is about to hold
    /// (typed [`crate::mem::BudgetExceeded`] when a `--mem-budget` is set).
    /// SENS runs segment at a time (paper §2.3): the search encodes each
    /// segment when it loads it, so it holds at most one query + one base
    /// segment whatever `ctx.store`'s backing.
    ///
    /// `M_n` is the channel's one durable boundary ([`Stage::Name`]): a
    /// `ctx.ckpt` that already holds it answers without any of the above
    /// (no span, zero seconds), otherwise it is saved there once computed.
    pub fn run_in(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        ctx: &mut RunCtx<'_>,
    ) -> Result<NameChannelOutput, RunError> {
        let RunCtx {
            rec, budget, ckpt, ..
        } = ctx;
        let rec = *rec;
        let mut seconds = None;
        let m_n = ckpt.load_or(Stage::Name, rec, |_| {
            let channel_span = rec.span("name_channel");
            let (m_st, stns_seconds) = self.stns(source, target, rec, budget)?;
            // end of STNS: a stage-boundary tick for the live sampler
            // (likewise after SENS below)
            rec.live_tick();
            let (m_se, sens_seconds) = self.sens(source, target, rec, budget)?;
            rec.live_tick();
            // In-place fusion: only the fused matrix stays live.
            let mut m_n = m_se;
            m_n.scaled_add_assign(&m_st, self.cfg.gamma);
            channel_span.finish();
            seconds = Some((sens_seconds, stns_seconds));
            Ok::<_, RunError>(m_n)
        })?;
        let (sens_seconds, stns_seconds) = seconds.unwrap_or_default();
        Ok(NameChannelOutput {
            m_n,
            sens_seconds,
            stns_seconds,
        })
    }

    /// SENS: semantic name similarity via hash-encoder embeddings +
    /// segment-at-a-time Manhattan top-k. The embeddings never exist as
    /// whole matrices: the streamed top-k search asks for one segment of
    /// rows at a time and its loaders encode just those labels
    /// (`HashEncoder::encode_batch` is per-row deterministic, so a segment
    /// equals those rows of a full encoding), each call an `encode` span
    /// with a `rows` field. The query side is encoded once per base
    /// segment; in exchange the search holds one query + one base segment,
    /// the resident set `budget` is asked for, and nothing is stored.
    fn sens(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        rec: &Recorder,
        budget: &MemBudget,
    ) -> Result<(SparseSimMatrix, f64), RunError> {
        let mut span = rec.span("sens");
        span.field("dim", self.cfg.dim);
        span.field("top_k", self.cfg.top_k);
        span.field("segments", self.cfg.segments);
        let segments = self.cfg.segments;
        assert!(segments >= 1, "need at least one segment");
        let n_q = source.num_entities();
        let n_b = target.num_entities();
        // The streamed search holds one query + one base segment resident,
        // plus the sketches of every query row and of that base segment.
        budget.admit("sens", resident_bytes(n_q, n_b, self.cfg.dim, segments))?;
        let encoder = HashEncoder::new(self.cfg.dim, self.cfg.seed);
        let encode = |labels: NameSlice<'_>, rows: Range<usize>| {
            let mut s = rec.span_at(Level::Detail, "encode");
            s.field("rows", rows.len());
            Ok::<_, Infallible>(encoder.encode_batch(labels.rows(rows)))
        };
        let hits = segmented_topk_streamed(
            n_q,
            n_b,
            self.cfg.top_k,
            Metric::Manhattan,
            segments,
            rec,
            |rows| encode(source.labels(), rows),
            |rows| encode(target.labels(), rows),
        )
        .unwrap_or_else(|never| match never {});
        let mut m_se = SparseSimMatrix::from_topk(target.num_entities(), hits);
        // negative distances → [0,1] per row so γ-weighted fusion and the
        // later channel fusion operate on one scale
        m_se.normalize_global_minmax();
        Ok((m_se, span.finish()))
    }

    /// STNS: string name similarity via MinHash-LSH candidates + banded
    /// Levenshtein. The target side's signatures and index are asked of
    /// `budget` before they are built.
    fn stns(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        rec: &Recorder,
        budget: &MemBudget,
    ) -> Result<(SparseSimMatrix, f64), RunError> {
        let mut span = rec.span("stns");
        span.field("theta", self.cfg.theta);
        let pool = Pool::global();
        let (perms, shingle_k, theta) =
            (self.cfg.minhash_perms, self.cfg.shingle_k, self.cfg.theta);
        let hasher = MinHasher::new(perms, self.cfg.seed);
        let mut index = LshIndex::with_threshold(perms, theta);
        let n_t = target.num_entities();
        let signatures = n_t * perms * std::mem::size_of::<u64>();
        budget.admit("stns", signatures + index.max_bytes(n_t))?;
        // the target's normalised labels, in one arena
        let labels_t = target.labels();
        let mut normalized_t = Names::with_capacity(n_t, labels_t.text_len());
        let mut label = String::new();
        for raw in labels_t.iter() {
            normalize_into(raw, &mut label);
            normalized_t
                .push(&label)
                .expect("normalised labels fit in 4 GiB");
        }
        let sigs_t = {
            let mut s = rec.span_at(Level::Detail, "sketch");
            s.field("threads", pool.threads());
            // Signatures in parallel, into one buffer; the index itself
            // needs `&mut`, so inserts stay sequential — one append per band
            // into arrays sized up front.
            let sigs =
                batch::minhash_signatures_in(&hasher, normalized_t.as_slice(), shingle_k, pool);
            index.reserve(sigs.len());
            for (i, sig) in sigs.iter().enumerate() {
                index.insert(i as u32, sig);
            }
            sigs
        };

        // Hot loop, parallel over source rows, in two passes that write
        // only into buffers allocated here (DESIGN.md §S0.6): the first
        // counts each row's candidates that clear the cheap
        // estimated-Jaccard gate, the second revisits the rows that have
        // any and pays Levenshtein for exactly those, into the row's slots
        // of one flat buffer. Each row is
        // computed alone and lands in its own slots, so the matrix and the
        // counters are the sequential loop's for any thread count.
        let mut score_span = rec.span_at(Level::Detail, "score");
        score_span.field("threads", pool.threads());
        let source_labels = source.labels();
        // Hands source row `s`'s gated candidates to `pass`, in ascending id
        // order, with the row's label normalised into the task's `label`;
        // returns how many candidates the index proposed.
        let gated =
            |s: usize, sig: &mut [u64], label: &mut String, pass: &mut dyn FnMut(&str, u32)| {
                normalize_into(source_labels.get(s), label);
                hasher.signature_into(label, shingle_k, sig);
                let cands = index.candidates(sig);
                for &cand in &cands {
                    if hasher.estimate(sig, sigs_t.get(cand as usize)) >= theta {
                        pass(label, cand);
                    }
                }
                cands.len() as u64
            };
        // a statistic, not a result: nothing is published through it
        let lsh_candidates = AtomicU64::new(0);
        let mut ends = vec![0usize; source_labels.len()];
        pool.rows_mut(&mut ends, 1, 32, |block, first| {
            let (mut sig, mut label, mut cands) = (vec![0; perms], String::new(), 0);
            for (i, count) in block.iter_mut().enumerate() {
                cands += gated(first + i, &mut sig, &mut label, &mut |_, _| *count += 1);
            }
            lsh_candidates.fetch_add(cands, Ordering::Relaxed);
        });
        // counts → ends: row `s`'s pairs take slots `ends[s - 1]..ends[s]`
        let mut end = 0;
        for e in &mut ends {
            end += *e;
            *e = end;
        }
        let mut scored = vec![(0u32, 0.0f32); end];
        pool.segments_mut(&mut scored, &ends, 32, |block, rows| {
            let (mut sig, mut label, mut slots) = (vec![0; perms], String::new(), block.iter_mut());
            for s in rows {
                if ends[s] == s.checked_sub(1).map_or(0, |p| ends[p]) {
                    continue; // no gated candidate: nothing to score
                }
                gated(s, &mut sig, &mut label, &mut |label, cand| {
                    let sim = levenshtein_similarity(label, normalized_t.get(cand as usize));
                    *slots.next().expect("the first pass counted this pair") = (cand, sim as f32);
                });
            }
        });
        let mut m_st = SparseSimMatrix::new(source.num_entities(), target.num_entities());
        let mut start = 0;
        for (s, &end) in ends.iter().enumerate() {
            // a similarity of 0 is no match: not stored
            let row = scored[start..end].iter().filter(|&&(_, sim)| sim > 0.0);
            m_st.insert_row(s, row.copied().collect());
            start = end;
        }
        drop(scored);
        let lsh_candidates = lsh_candidates.into_inner();
        let levenshtein_pairs = end as u64;
        let pruned_below_theta = lsh_candidates - levenshtein_pairs;
        score_span.field("pairs", levenshtein_pairs);
        score_span.finish();
        rec.add("stns.lsh_candidates", lsh_candidates);
        rec.add("stns.pruned_below_theta", pruned_below_theta);
        rec.add("stns.levenshtein_pairs", levenshtein_pairs);
        span.field("candidates", lsh_candidates);
        span.field("pruned", pruned_below_theta);
        m_st.truncate_topk(self.cfg.top_k);
        Ok((m_st, span.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillStore;
    use largeea_kg::EntityId;

    fn kgs() -> (KnowledgeGraph, KnowledgeGraph) {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for (i, name) in ["London", "Germany", "Danube", "Venice"].iter().enumerate() {
            s.add_entity_with_label(&format!("en/{i}"), name);
        }
        for (i, name) in ["Londres", "Allemagne", "Danube", "Venise"]
            .iter()
            .enumerate()
        {
            t.add_entity_with_label(&format!("fr/{i}"), name);
        }
        (s, t)
    }

    #[test]
    fn nff_finds_shared_root_translations() {
        let (s, t) = kgs();
        let out = NameChannel::new(NameChannelConfig::default()).run(&s, &t);
        // London→Londres, Danube→Danube, Venice→Venise share roots; the
        // mutual-best pairs should include them
        assert_eq!(out.m_n.best(0).unwrap().0, 0, "London should match Londres");
        assert_eq!(out.m_n.best(2).unwrap().0, 2, "Danube is identical");
        assert_eq!(out.m_n.best(3).unwrap().0, 3, "Venice should match Venise");
    }

    #[test]
    fn stns_exact_match_scores_one() {
        let (s, t) = kgs();
        let nc = NameChannel::new(NameChannelConfig::default());
        let rec = Recorder::disabled();
        let (m_st, _) = nc.stns(&s, &t, &rec, &MemBudget::open(None)).unwrap();
        assert_eq!(m_st.get(2, 2), Some(1.0));
    }

    #[test]
    fn stns_skips_dissimilar_pairs() {
        let (s, t) = kgs();
        let nc = NameChannel::new(NameChannelConfig::default());
        let rec = Recorder::disabled();
        let (m_st, _) = nc.stns(&s, &t, &rec, &MemBudget::open(None)).unwrap();
        // "London" vs "Allemagne" falls below θ = 0.5 → no stored entry
        assert_eq!(m_st.get(0, 1), None);
    }

    #[test]
    fn gamma_weights_string_contribution() {
        let (s, t) = kgs();
        let nc = NameChannel::new(NameChannelConfig {
            gamma: 0.5,
            ..Default::default()
        });
        let fused = nc.run(&s, &t).m_n.get(2, 2).unwrap();
        let rec = Recorder::disabled();
        let (m_se, _) = nc.sens(&s, &t, &rec, &MemBudget::open(None)).unwrap();
        let se = m_se.get(2, 2).unwrap();
        assert!((fused - (se + 0.5)).abs() < 1e-6, "fused {fused} se {se}");
    }

    #[test]
    fn timings_reported_stns_first() {
        let (s, t) = kgs();
        let rec = Recorder::new(ObsConfig::default());
        let out = NameChannel::new(NameChannelConfig::default())
            .run_in(&s, &t, &mut RunCtx::in_memory(&rec))
            .unwrap();
        assert!(out.sens_seconds >= 0.0);
        assert!(out.stns_seconds >= 0.0);
        let trace = rec.trace();
        let children = &trace.find("name_channel").expect("channel span").children;
        let names: Vec<&str> = children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["stns", "sens"]);
    }

    #[test]
    fn rows_capped_at_top_k() {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..30 {
            s.add_entity_with_label(&format!("en/{i}"), &format!("Concept {i}"));
            t.add_entity_with_label(&format!("fr/{i}"), &format!("Concept {i}"));
        }
        let cfg = NameChannelConfig {
            top_k: 3,
            ..Default::default()
        };
        let rec = Recorder::disabled();
        let (m_se, _) = NameChannel::new(cfg)
            .sens(&s, &t, &rec, &MemBudget::open(None))
            .unwrap();
        for r in 0..30 {
            assert!(m_se.row(r).len() <= 3, "row {r} too wide");
        }
    }

    #[test]
    fn streamed_sens_asks_for_its_residents_with_the_sketches_counted() {
        // 200 + 200 long-dimension embeddings in one segment per side, a
        // tiny top-k and few MinHash permutations: the streamed search's
        // residents — both f32 segments, every query sketch and one base
        // segment's — are SENS's request, to the byte. This binary runs
        // without the counting allocator, so nothing is live beside it.
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..200 {
            s.add_entity_with_label(&format!("en/{i}"), &format!("Concept {i}"));
            t.add_entity_with_label(&format!("fr/{i}"), &format!("Notion {i}"));
        }
        let cfg = NameChannelConfig {
            segments: 1,
            top_k: 3,
            minhash_perms: 16,
            ..Default::default()
        };
        // 128 code bytes and a 4-byte slack per sketched row
        let budget = 400 * cfg.dim * std::mem::size_of::<f32>() + 400 * (128 + 4);
        let run = |budget: usize| {
            let dir = std::env::temp_dir().join(format!(
                "largeea_sens_budget_{}_{budget}",
                std::process::id()
            ));
            let rec = Recorder::disabled();
            let mut ctx = RunCtx {
                budget: MemBudget::open(Some(budget)),
                store: SpillStore::create(&dir).unwrap(),
                ..RunCtx::in_memory(&rec)
            };
            NameChannel::new(cfg).run_in(&s, &t, &mut ctx)
        };
        let bounded = run(budget).expect("the residents are the whole budget");
        match run(budget - 1) {
            Err(RunError::Budget(b)) => {
                assert_eq!((b.label.as_str(), b.requested), ("sens", budget));
            }
            other => panic!("expected SENS to be refused, got {other:?}"),
        }
        let in_ram = NameChannel::new(cfg).run(&s, &t);
        assert_eq!(bounded.m_n, in_ram.m_n);
    }

    #[test]
    fn empty_kgs_produce_empty_matrices() {
        let s = KnowledgeGraph::new("EN");
        let t = KnowledgeGraph::new("FR");
        let out = NameChannel::new(NameChannelConfig::default()).run(&s, &t);
        assert_eq!(out.m_n.n_rows(), 0);
        let _ = EntityId(0);
    }
}
