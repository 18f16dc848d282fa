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
use crate::mem::MemTracker;
use crate::pipeline::{RunCtx, RunError};
use crate::spill::SpillStore;
use largeea_common::obs::{Level, ObsConfig, Recorder};
use largeea_common::pool::Pool;
use largeea_kg::KnowledgeGraph;
use largeea_sim::{resident_bytes, segmented_topk_streamed, Metric, SparseSimMatrix};
use largeea_text::{batch, normalize_name, HashEncoder, LshIndex, MinHasher};

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
    /// Peak bytes of the channel's live state.
    pub peak_bytes: usize,
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

    /// Runs NFF against `ctx`: recording into `ctx.rec`, charging
    /// `ctx.mem`, and streaming the SENS embeddings through `ctx.store`.
    ///
    /// Records a `name_channel` span with `sens`/`stns` children (the
    /// reported `*_seconds` are those spans' durations — single source of
    /// truth, so `0.0` with a disabled recorder), per-block `sens_block`
    /// spans from the segmented search and `stns.*` candidate counters.
    ///
    /// Every major allocation is charged against `ctx.mem` (typed
    /// [`crate::mem::BudgetExceeded`] when a `--mem-budget` is set). SENS
    /// runs segment at a time (paper §2.3): embeddings are encoded per
    /// segment, put into the store, and streamed back block pair by block
    /// pair, so the search holds at most one query + one base segment
    /// beside whatever the store's backing keeps resident.
    ///
    /// `M_n` is the channel's one durable boundary ([`Stage::Name`]): a
    /// `ctx.ckpt` that already holds it answers without any of the above
    /// (no span, zero seconds), otherwise it is saved there once computed.
    ///
    /// Does NOT call `ctx.mem.record_into` — whoever built the context owns
    /// the tracker's lifecycle (the pipeline shares one across channels).
    pub fn run_in(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        ctx: &mut RunCtx<'_>,
    ) -> Result<NameChannelOutput, RunError> {
        let RunCtx {
            rec,
            mem,
            store,
            ckpt,
            ..
        } = ctx;
        let rec = *rec;
        let mut seconds = None;
        let m_n = ckpt.load_or(Stage::Name, rec, |_| {
            let channel_span = rec.span("name_channel");
            let (m_se, sens_seconds) = self.sens(source, target, rec, mem, store)?;
            // end of SENS: refresh the working-set gauge and give the live
            // sampler a stage-boundary tick (likewise after STNS below)
            rec.gauge("mem.tracked.bytes", mem.total_current() as f64);
            rec.live_tick();
            let (m_st, stns_seconds) = self.stns(source, target, rec, mem)?;
            rec.gauge("mem.tracked.bytes", mem.total_current() as f64);
            rec.live_tick();
            // In-place fusion: only the fused matrix stays live.
            let m_st_bytes = m_st.nbytes();
            let mut m_n = m_se;
            let before = m_n.nbytes();
            m_n.scaled_add_assign(&m_st, self.cfg.gamma);
            mem.charge("name_channel", m_n.nbytes().saturating_sub(before))?;
            mem.uncharge("name_channel", m_st_bytes);
            channel_span.finish();
            seconds = Some((sens_seconds, stns_seconds));
            Ok::<_, RunError>(m_n)
        })?;
        if seconds.is_none() {
            mem.charge("name_channel", m_n.nbytes())?; // loaded, not grown charge by charge
        }
        let (sens_seconds, stns_seconds) = seconds.unwrap_or_default();
        Ok(NameChannelOutput {
            m_n,
            sens_seconds,
            stns_seconds,
            peak_bytes: mem.peak("name_channel"),
        })
    }

    /// SENS: semantic name similarity via hash-encoder embeddings +
    /// segment-at-a-time Manhattan top-k. The embeddings never exist as
    /// whole matrices: each side is encoded one segment at a time
    /// (`HashEncoder::encode_batch` is per-row deterministic, so segment
    /// slices equal row slices of a full encoding), put into the store
    /// under `sens.q<i>` / `sens.b<i>` keys, and the streamed top-k search
    /// loads at most one query + one base segment at a time.
    fn sens(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        rec: &Recorder,
        mem: &mut MemTracker,
        store: &mut SpillStore,
    ) -> Result<(SparseSimMatrix, f64), RunError> {
        let mut span = rec.span("sens");
        span.field("dim", self.cfg.dim);
        span.field("top_k", self.cfg.top_k);
        span.field("segments", self.cfg.segments);
        let segments = self.cfg.segments;
        assert!(segments >= 1, "need at least one segment");
        let n_q = source.num_entities();
        let n_b = target.num_entities();
        // MUST match `segmented_topk_streamed`'s segment arithmetic so the
        // loader's `range.start / seg` lands on the right stored artifact.
        let q_seg = n_q.div_ceil(segments).max(1);
        let b_seg = n_b.div_ceil(segments).max(1);
        {
            let _s = rec.span_at(Level::Detail, "encode");
            let encoder = HashEncoder::new(self.cfg.dim, self.cfg.seed);
            for (labels, seg, side) in
                [(source.labels(), q_seg, 'q'), (target.labels(), b_seg, 'b')]
            {
                for (idx, start) in (0..labels.len()).step_by(seg).enumerate() {
                    let end = (start + seg).min(labels.len());
                    let m = encoder.encode_batch(&labels[start..end]);
                    mem.charge("name_channel", m.nbytes())?;
                    let held = store
                        .put_matrix(&format!("sens.{side}{idx}"), &m, rec)
                        .map_err(RunError::Spill)?;
                    mem.charge("name_channel", held)?;
                    mem.uncharge("name_channel", m.nbytes());
                }
            }
        }
        // The streamed search holds one query + one base segment resident,
        // plus the sketches of every query row and of that base segment;
        // charge that bound up front (the loaders can't borrow the tracker
        // while both borrow the store).
        let resident = resident_bytes(n_q, n_b, self.cfg.dim, segments);
        mem.charge("name_channel", resident)?;
        let store_ref = &*store;
        let load_q = |r: std::ops::Range<usize>| {
            store_ref.get_matrix(&format!("sens.q{}", r.start / q_seg), rec)
        };
        let load_b = |r: std::ops::Range<usize>| {
            store_ref.get_matrix(&format!("sens.b{}", r.start / b_seg), rec)
        };
        let hits = segmented_topk_streamed(
            n_q,
            n_b,
            self.cfg.top_k,
            Metric::Manhattan,
            segments,
            rec,
            load_q,
            load_b,
        )
        .map_err(RunError::Spill)?;
        mem.uncharge("name_channel", resident);
        for (seg, side, n) in [(q_seg, 'q', n_q), (b_seg, 'b', n_b)] {
            for (idx, _) in (0..n).step_by(seg).enumerate() {
                mem.uncharge("name_channel", store.remove(&format!("sens.{side}{idx}")));
            }
        }
        let mut m_se = SparseSimMatrix::from_topk(target.num_entities(), hits);
        // negative distances → [0,1] per row so γ-weighted fusion and the
        // later channel fusion operate on one scale
        m_se.normalize_global_minmax();
        mem.charge("name_channel", m_se.nbytes())?;
        Ok((m_se, span.finish()))
    }

    /// STNS: string name similarity via MinHash-LSH candidates + banded
    /// Levenshtein.
    fn stns(
        &self,
        source: &KnowledgeGraph,
        target: &KnowledgeGraph,
        rec: &Recorder,
        mem: &mut MemTracker,
    ) -> Result<(SparseSimMatrix, f64), RunError> {
        let mut span = rec.span("stns");
        span.field("theta", self.cfg.theta);
        let pool = Pool::global();
        let hasher = MinHasher::new(self.cfg.minhash_perms, self.cfg.seed);
        let normalized_t: Vec<String> = target.labels().iter().map(|l| normalize_name(l)).collect();
        let mut index = LshIndex::with_threshold(self.cfg.minhash_perms, self.cfg.theta);
        let sigs_t = {
            let mut s = rec.span_at(Level::Detail, "sketch");
            s.field("threads", pool.threads());
            // Signatures in parallel (allocation-free per item); the index
            // itself needs `&mut`, so inserts stay sequential — one append
            // per band into flat arrays, under a third of this span at two
            // threads (12 of 42 ms on DBP1M@0.008).
            let sigs =
                batch::minhash_signatures_in(&hasher, &normalized_t, self.cfg.shingle_k, pool);
            for (i, sig) in sigs.iter().enumerate() {
                index.insert(i as u32, sig);
            }
            sigs
        };
        let sigs_bytes = sigs_t.len() * self.cfg.minhash_perms * std::mem::size_of::<u64>();
        mem.charge("name_channel", sigs_bytes)?;

        // Hot loop, parallel over source rows: each block scores its rows
        // against the read-only index and returns (hits, local counters);
        // blocks merge in row order, so the matrix and the counters are
        // identical to the sequential loop for any thread count.
        let mut score_span = rec.span_at(Level::Detail, "score");
        score_span.field("threads", pool.threads());
        let source_labels = source.labels();
        let blocks = pool.map_blocks(source_labels.len(), 32, |range| {
            let mut hits: Vec<(usize, u32, f32)> = Vec::new();
            let (mut cands, mut pruned, mut pairs) = (0u64, 0u64, 0u64);
            for s in range {
                let label = normalize_name(&source_labels[s]);
                let sig = hasher.signature_of(&label, self.cfg.shingle_k);
                for cand in index.candidates(&sig) {
                    cands += 1;
                    // cheap estimated-Jaccard gate before paying for
                    // Levenshtein
                    if hasher.estimate(&sig, &sigs_t[cand as usize]) < self.cfg.theta {
                        pruned += 1;
                        continue;
                    }
                    pairs += 1;
                    let sim =
                        largeea_text::levenshtein_similarity(&label, &normalized_t[cand as usize]);
                    if sim > 0.0 {
                        hits.push((s, cand, sim as f32));
                    }
                }
            }
            (hits, cands, pruned, pairs)
        });
        let mut lsh_candidates = 0u64;
        let mut pruned_below_theta = 0u64;
        let mut levenshtein_pairs = 0u64;
        let mut m_st = SparseSimMatrix::new(source.num_entities(), target.num_entities());
        for (hits, cands, pruned, pairs) in blocks {
            lsh_candidates += cands;
            pruned_below_theta += pruned;
            levenshtein_pairs += pairs;
            for (s, cand, sim) in hits {
                m_st.insert(s, cand, sim);
            }
        }
        score_span.field("pairs", levenshtein_pairs);
        score_span.finish();
        rec.add("stns.lsh_candidates", lsh_candidates);
        rec.add("stns.pruned_below_theta", pruned_below_theta);
        rec.add("stns.levenshtein_pairs", levenshtein_pairs);
        span.field("candidates", lsh_candidates);
        span.field("pruned", pruned_below_theta);
        m_st.truncate_topk(self.cfg.top_k);
        mem.charge("name_channel", m_st.nbytes())?;
        // Signatures and the LSH index drop at return; give those bytes
        // back so the live total reflects reality.
        mem.uncharge("name_channel", sigs_bytes);
        Ok((m_st, span.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (m_st, _) = nc.stns(&s, &t, &rec, &mut MemTracker::new()).unwrap();
        assert_eq!(m_st.get(2, 2), Some(1.0));
    }

    #[test]
    fn stns_skips_dissimilar_pairs() {
        let (s, t) = kgs();
        let nc = NameChannel::new(NameChannelConfig::default());
        let rec = Recorder::disabled();
        let (m_st, _) = nc.stns(&s, &t, &rec, &mut MemTracker::new()).unwrap();
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
        let (mut mem, mut store) = (MemTracker::new(), SpillStore::in_memory());
        let (m_se, _) = nc.sens(&s, &t, &rec, &mut mem, &mut store).unwrap();
        let se = m_se.get(2, 2).unwrap();
        assert!((fused - (se + 0.5)).abs() < 1e-6, "fused {fused} se {se}");
    }

    #[test]
    fn timings_and_memory_reported() {
        let (s, t) = kgs();
        let out = NameChannel::new(NameChannelConfig::default()).run(&s, &t);
        assert!(out.sens_seconds >= 0.0);
        assert!(out.stns_seconds >= 0.0);
        assert!(out.peak_bytes > 0);
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
        let (mut mem, mut store) = (MemTracker::new(), SpillStore::in_memory());
        let (m_se, _) = NameChannel::new(cfg)
            .sens(&s, &t, &rec, &mut mem, &mut store)
            .unwrap();
        for r in 0..30 {
            assert!(m_se.row(r).len() <= 3, "row {r} too wide");
        }
    }

    #[test]
    fn streamed_sens_fits_its_budget_only_with_the_sketches_counted() {
        // 200 + 200 long-dimension embeddings in one segment per side, a
        // tiny top-k and few MinHash permutations: the streamed search's
        // residents — both f32 segments, every query sketch and one base
        // segment's — are the channel's peak, to the byte.
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
                mem: MemTracker::with_budget_opt(Some(budget)),
                store: SpillStore::create(&dir).unwrap(),
                ..RunCtx::in_memory(&rec)
            };
            let out = NameChannel::new(cfg).run_in(&s, &t, &mut ctx);
            out.map(|out| (out, ctx.mem.peak("name_channel")))
        };
        let (bounded, peak) = run(budget).expect("the residents are the whole budget");
        assert_eq!(peak, budget);
        assert!(matches!(run(budget - 1), Err(RunError::Budget(_))));
        // the memory backing also holds every segment it was handed
        let rec = Recorder::disabled();
        let mut ctx = RunCtx::in_memory(&rec);
        let in_ram = NameChannel::new(cfg).run_in(&s, &t, &mut ctx).unwrap();
        assert_eq!(bounded.m_n, in_ram.m_n);
        assert_eq!(
            ctx.mem.peak("name_channel"),
            budget + 400 * cfg.dim * std::mem::size_of::<f32>()
        );
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
