//! Exact blocked top-k similarity search — the Faiss substitute.

use largeea_common::obs::{Level, Recorder};
use largeea_common::pool::Pool;
use largeea_tensor::kernels::{dot_panel, l1_panel, sad_mask2, sad_panel};
use largeea_tensor::{dot, l1_distance, Matrix, Rows};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{self, AtomicU64};

/// Similarity metric for the search. All variants are expressed as
/// *similarities* (larger is better); distances are negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Negative Manhattan (L1) distance — the paper's metric for both SENS
    /// and the structure channel.
    Manhattan,
    /// Inner product; equals cosine similarity when rows are L2-normalised.
    InnerProduct,
}

impl Metric {
    /// Similarity between two equal-length vectors, via the dispatched
    /// per-pair reductions from `largeea-tensor` ([`l1_distance`] /
    /// [`dot`]). This is the entry point for callers that score scattered
    /// pairs (naive test oracles); the exact scan scores whole
    /// panels through the panel kernels instead, which return the same
    /// bits per pair.
    ///
    /// Length discipline: the per-pair kernels truncate to the shorter
    /// slice, so a mismatched call silently scores a prefix — callers
    /// check dimensionality once up front, and this keeps only a
    /// `debug_assert` so release builds pay no per-pair branch.
    #[inline]
    pub fn similarity(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "similarity length mismatch");
        match self {
            Metric::Manhattan => -l1_distance(a, b),
            Metric::InnerProduct => dot(a, b),
        }
    }

    /// [`Metric::similarity`] of `q` against every row of a row-major
    /// `panel` — bit-identical per pair, one kernel call per panel.
    #[inline]
    fn similarity_panel(self, q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
        match self {
            Metric::Manhattan => {
                l1_panel(q, panel, dim, out);
                out.iter_mut().for_each(|d| *d = -*d);
            }
            Metric::InnerProduct => dot_panel(q, panel, dim, out),
        }
    }
}

/// A bounded max-similarity collector: keeps the `k` best `(id, score)`
/// entries seen, implemented as a small binary min-heap under the **total**
/// order (score, then lowest-id-wins on equal scores).
///
/// Tie discipline (pinned by `ties_prefer_lowest_id_at_any_width`): the
/// retained set is exactly the first `k` of a (descending score, ascending
/// id) sort of everything pushed — independent of push order, thread
/// width, or segmenting. The heap orders ties too (among equal scores the
/// *highest* id is the eviction victim), because a score-only heap leaves
/// the survivor among tied minima at the mercy of eviction history.
pub(crate) struct TopK {
    k: usize,
    heap: Vec<(f32, u32)>, // min-heap under `worse`
}

/// The order every similarity in this crate is ranked by: a NaN ranks
/// below every number (and ties another NaN); any two numbers compare as
/// `<` / `==` do, so −0.0 and +0.0 tie.
pub(crate) fn score_order(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
}

/// Total-order "is `a` worse than `b`": lower score loses (under
/// [`score_order`]); equal scores, higher id loses.
#[inline]
fn worse(a: (f32, u32), b: (f32, u32)) -> bool {
    score_order(a.0, b.0).then(b.1.cmp(&a.1)).is_lt()
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k + 1),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, id: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push((score, id));
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let p = (i - 1) / 2;
                if !worse(self.heap[i], self.heap[p]) {
                    break;
                }
                self.heap.swap(p, i);
                i = p;
            }
        } else if worse(self.heap[0], (score, id)) {
            self.heap[0] = (score, id);
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut min = i;
                if l < self.heap.len() && worse(self.heap[l], self.heap[min]) {
                    min = l;
                }
                if r < self.heap.len() && worse(self.heap[r], self.heap[min]) {
                    min = r;
                }
                if min == i {
                    break;
                }
                self.heap.swap(i, min);
                i = min;
            }
        }
    }

    /// The score a candidate must beat or tie to get in — the worst one
    /// retained — once `k` candidates are held; `None` while any offer
    /// would still be taken.
    #[inline]
    fn bar(&self) -> Option<f32> {
        (self.heap.len() == self.k).then(|| self.heap[0].0)
    }

    /// Drains into `(id, score)` pairs sorted by descending score
    /// (ties broken by ascending id for determinism).
    pub(crate) fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = self.heap.into_iter().map(|(s, i)| (i, s)).collect();
        v.sort_unstable_by(|a, b| score_order(b.1, a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Base rows scored per panel: 64 × 128 floats is 32 KiB, inside a 48 KiB
/// L1d together with the query row and the collector roots.
const PANEL_ROWS: usize = 64;

const _: () = assert!(
    PANEL_ROWS == u64::BITS as usize,
    "a panel's rows index one u64 mask"
);

/// Bit `r` is set iff `sads[r] < bound`. Fixed trip counts and no
/// branches, so the compiler turns it into vector compares.
fn below(sads: &[u32; PANEL_ROWS], bound: u32) -> u64 {
    let mut mask = 0u64;
    for (g, group) in sads.chunks_exact(8).enumerate() {
        let mut m = 0u64;
        for (i, &sad) in group.iter().enumerate() {
            m |= u64::from(sad < bound) << i;
        }
        mask |= m << (g * 8);
    }
    mask
}

/// Bit `r` is set iff `cut <= sads[r] < limit + slack[r]` (the add
/// saturating), for the `slack.len()` rows of a panel: the rows the nearest
/// pass left that the pre-filter cannot rule out. No branches, so the
/// compiler turns it into vector compares.
fn within(sads: &[u32; PANEL_ROWS], cut: u32, limit: u32, slack: &[u32]) -> u64 {
    let test = |sad: u32, slack: u32| (cut <= sad) & (sad < limit.saturating_add(slack));
    let mut mask = 0u64;
    if let Ok(slack) = <&[u32; PANEL_ROWS]>::try_from(slack) {
        // a whole panel: fixed trip counts, as in `below`
        for (g, (sads, slack)) in sads.chunks_exact(8).zip(slack.chunks_exact(8)).enumerate() {
            let mut m = 0u64;
            for i in 0..8 {
                m |= u64::from(test(sads[i], slack[i])) << i;
            }
            mask |= m << (g * 8);
        }
        return mask;
    }
    for (r, (&sad, &slack)) in sads.iter().zip(slack).enumerate() {
        mask |= u64::from(test(sad, slack)) << r;
    }
    mask
}

/// The mask of a panel's first `rows` rows (all of them from
/// [`PANEL_ROWS`] on).
fn live(rows: usize) -> u64 {
    let dead = PANEL_ROWS - rows.min(PANEL_ROWS);
    u64::MAX.checked_shr(dead as u32).unwrap_or(0)
}

/// The most base rows a cold collector warms up on ([`Scan::warm`]): their
/// SADs are 16 KiB of scratch per query, and at the 128-dim name
/// embeddings their codes (512 KiB) stay in L2 while it runs.
const WARM_ROWS: usize = 64 * PANEL_ROWS;

/// Base rows a cold collector of `k` warms up on: `k` panels, so the
/// nearest `k` by code come from a prefix much longer than `k`, and at most
/// [`WARM_ROWS`]. At SENS's `k` = 50 that is 3 200 rows, a whole segment
/// at DBP1M@0.008, so there the warm-up's bar is the segment's nearly
/// final one.
fn warm_rows(k: usize) -> usize {
    k.saturating_mul(PANEL_ROWS).min(WARM_ROWS)
}

/// Cold queries warmed up together: each panel of the warm range is
/// loaded once for all of them, their SAD rows (at most 128 KiB in all)
/// held on the stack.
const COLD_BLOCK: usize = 8;

/// Queries the panel pass walks the range for at a time: their limits sit
/// in a stack array, their codes stay in L1 beside the panel's.
const QUERY_BLOCK: usize = 64;

/// A query without a [`Sketch::limit`] (which never returns this value).
const NO_LIMIT: u32 = u32::MAX;

/// A cut with at least `need` of `sads` below it (`0 < need < sads.len()`),
/// read off a fixed 256-bucket histogram: bucket `b` holds the SADs `s`
/// with `(s − min) >> shift == b`, the smallest shift that fits `[min,
/// max]` in 256 buckets, and the cut is the upper edge of the first bucket
/// at which the count reaches `need` — no sort, no heap, no division.
fn cut_for(sads: &[u32], need: usize) -> u32 {
    let (lo, hi) = (sads.iter()).fold((u32::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let shift = (u32::BITS - (hi - lo).leading_zeros()).saturating_sub(8);
    let mut counts = [0u32; 256];
    for &s in sads {
        // `& 255` only spares the bounds check: the shift already fits
        counts[((s - lo) >> shift) as usize & 255] += 1;
    }
    let mut seen = 0;
    for (b, &count) in (1u64..).zip(&counts) {
        seen += count as usize;
        if seen >= need {
            let edge = u32::try_from(b << shift).unwrap_or(u32::MAX);
            return lo.saturating_add(edge);
        }
    }
    unreachable!("need {need} of {} SADs", sads.len())
}

/// Bytes a Manhattan [`segmented_topk_streamed`] keeps resident while it
/// runs — one query and one base segment in f32, the `Sketch`es of every
/// query row and of that base segment: what SENS asks a memory budget to
/// admit before it starts the scan.
pub fn resident_bytes(n_queries: usize, n_base: usize, dim: usize, num_segments: usize) -> usize {
    let q_seg = n_queries.div_ceil(num_segments).min(n_queries);
    let b_seg = n_base.div_ceil(num_segments).min(n_base);
    let sketch = Sketch::stride_for(dim) + std::mem::size_of::<u32>();
    (q_seg + b_seg) * dim * std::mem::size_of::<f32>() + (n_queries + b_seg) * sketch
}

/// The u8 sketch of a matrix behind the Manhattan scan's lossless
/// pre-filter (DESIGN.md §S0.11).
///
/// Row `x` is stored as codes `c_i` near `x_i/s + 128` (in `[1, 255]`
/// for a number, 0 for a NaN) and a
/// slack `⌈ρ(x)/s⌉ + 1`, where `ρ(x) = Σ|x_i − s·(c_i − 128)|` is the
/// row's exact distance to its own dequantised point. Going through the
/// two dequantised points, the triangle inequality gives, for any two rows
/// sketched under one scale `s`,
///
/// ```text
/// L1(a, b) ≥ s·SAD(c_a, c_b) − ρ(a) − ρ(b)
/// ```
///
/// whatever `s` is and however the codes were chosen: the slack is
/// measured from the codes that were stored, so a poor scale only makes
/// the bound loose, never wrong. Rows with a NaN or an infinity get the
/// slack `u32::MAX`, which no SAD reaches.
struct Sketch {
    stride: usize,
    codes: Vec<u8>,
    slack: Vec<u32>,
    /// Code units per unit of *kernel* distance: `1 / (s·(1 − γ))` with
    /// `γ = (dim/8 + 16)·2⁻²³`. The f32 kernel rounds once per term and
    /// once per add along a chain of at most `dim/8 + 5` non-negative
    /// partial sums, so it never returns less than `(1 − γ)` times the
    /// true distance (an overflow to `+∞` errs upward).
    units: f64,
}

impl Sketch {
    /// Code bytes per row: `dim` padded to the 32 bytes `sad_panel` reads
    /// at a time. The padding is zero on every row, so it adds no SAD.
    fn stride_for(dim: usize) -> usize {
        dim.max(1).next_multiple_of(32)
    }

    /// The scale a scan over `base` sketches both sides with: 127 code
    /// steps span the base's largest magnitude. A base of zeros (or small
    /// enough for the division to underflow) or with an infinity has no
    /// such scale; 1.0 stands in — any positive finite value is sound.
    fn scale_for(base: Rows<'_>) -> f32 {
        let max_abs = (base.as_slice().iter()).fold(0.0f32, |m, &x| m.max(x.abs()));
        let s = max_abs / 127.0;
        if s.is_finite() && s > 0.0 {
            s
        } else {
            1.0
        }
    }

    fn build(m: Rows<'_>, scale: f32, pool: &Pool) -> Sketch {
        assert!(scale.is_finite() && scale > 0.0, "sketch scale {scale}");
        let (dim, s) = (m.cols(), f64::from(scale));
        let inv = 1.0 / s;
        let stride = Self::stride_for(dim);
        let mut codes = vec![0u8; m.rows() * stride];
        pool.rows_mut(&mut codes, stride, 64, |block, first| {
            for (r, out) in block.chunks_mut(stride).enumerate() {
                for (c, &x) in out.iter_mut().zip(m.row(first + r)) {
                    // rounds half up by truncation: `round` and a division
                    // per element are library calls and a `divsd` on
                    // baseline x86-64; NaN casts to code 0, its slack says so
                    *c = ((f64::from(x) * inv).clamp(-127.0, 127.0) + 128.5) as u8;
                }
            }
        });
        let mut slack = vec![0u32; m.rows()];
        pool.rows_mut(&mut slack, 1, 64, |block, first| {
            for (r, out) in block.iter_mut().enumerate() {
                let row = first + r;
                // `s` has 24 significant bits and a code 8, so `s·c` is
                // exact in f64; what the subtractions and the sum round
                // off is far below the `+ 1`.
                let rho: f64 = (m.row(row).iter())
                    .zip(&codes[row * stride..])
                    .map(|(&x, &c)| (f64::from(x) - s * (f64::from(c) - 128.0)).abs())
                    .sum();
                *out = if rho.is_finite() {
                    ((rho / s).ceil() as u32).saturating_add(1)
                } else {
                    u32::MAX
                };
            }
        });
        let gamma = (dim / 8 + 16) as f64 / (1u64 << 23) as f64;
        Sketch {
            stride,
            codes,
            slack,
            units: 1.0 / (s * (1.0 - gamma)),
        }
    }

    fn codes(&self, rows: Range<usize>) -> &[u8] {
        &self.codes[rows.start * self.stride..rows.end * self.stride]
    }

    /// The SAD from which a base row is provably farther from query row
    /// `q` than kernel distance `bar`, before the base row's own slack is
    /// added; `None` when nothing can be proved for this query.
    fn limit(&self, q: usize, bar: f32) -> Option<u32> {
        // a float-to-int cast saturates; each `+ 1` pays for one ceiling's
        // operand having been rounded
        let units = ((f64::from(bar) * self.units).ceil() as u32).saturating_add(1);
        let limit = units.saturating_add(self.slack[q]);
        (bar.is_finite() && limit < u32::MAX).then_some(limit)
    }
}

/// One exact scan of `queries` against `base` — the only place a
/// (query, base-row) pair is scored.
struct Scan<'a> {
    queries: Rows<'a>,
    base: Rows<'a>,
    metric: Metric,
    /// Sketches of `queries` and `base` under one scale; without them
    /// (always, for [`Metric::InnerProduct`]) every pair is scored in f32.
    sketches: Option<(&'a Sketch, &'a Sketch)>,
}

impl Scan<'_> {
    /// Offers every row of `base[b_range]` to the collectors in `tops`,
    /// where `tops[i]` belongs to query row `q_first + i`; base row `b` is
    /// offered under id `id_offset + b` (non-zero when `base` is a
    /// streamed segment of a larger matrix). Returns how many pairs were
    /// scored in f32.
    ///
    /// Without sketches every pair is scored ([`Scan::panels`]). With
    /// them, a collector still short of `k` entries has no bar for the
    /// pre-filter to test against, so it first warms up on the range's
    /// leading [`warm_rows`] rows through [`Scan::warm`], while the full
    /// collectors take those rows in the panel pass; then every collector
    /// takes the rest of the range in it. A collector keeps the first `k`
    /// of a total order whatever order the offers come in, and every row
    /// is either pushed or proved strictly worse than `k` rows already
    /// held, so each collector ends the block holding exactly what it would
    /// without the filter.
    fn block(
        &self,
        q_first: usize,
        b_range: Range<usize>,
        id_offset: usize,
        tops: &mut [TopK],
    ) -> u64 {
        if self.sketches.is_none() {
            return self.panels(q_first, b_range, id_offset, tops, false);
        }
        let k = tops.first().map_or(1, |top| top.k);
        let warm = b_range.start..b_range.end.min(b_range.start + warm_rows(k));
        let refined = self.panels(q_first, warm.clone(), id_offset, tops, true)
            + self.warm(q_first, warm.clone(), id_offset, tops);
        refined + self.panels(q_first, warm.end..b_range.end, id_offset, tops, false)
    }

    /// The panel pass over `base[range]`, which starts on the panel grid.
    ///
    /// Cache blocking: the range is walked in [`PANEL_ROWS`]-row panels,
    /// once per [`QUERY_BLOCK`] queries, and each panel is scored against
    /// every query of the block before the next is touched.
    ///
    /// Pre-filter: once a query's collector is full, a pair whose code SAD
    /// reaches the query's [`Sketch::limit`] plus the base row's slack has
    /// a kernel distance strictly above the collector's bar — `push` would
    /// drop it — and is not scored. [`sad_mask2`] tests a panel for two
    /// such queries at a time (a lone one is paired with itself). A
    /// query's limit is recomputed only after a push, the only thing that
    /// moves its bar. Every other pair gets the panel kernels' bits
    /// (`l1_distance` returns the same ones) and is pushed. A collector
    /// with no bar takes the whole panel in f32 — or, with `skip_cold`,
    /// nothing, if it is still short of `k`.
    fn panels(
        &self,
        q_first: usize,
        range: Range<usize>,
        id_offset: usize,
        tops: &mut [TopK],
        skip_cold: bool,
    ) -> u64 {
        let dim = self.base.cols();
        let mut scores = [0.0f32; PANEL_ROWS];
        let mut refined = 0u64;
        for (q_first, tops) in (q_first..)
            .step_by(QUERY_BLOCK)
            .zip(tops.chunks_mut(QUERY_BLOCK))
        {
            let mut limits = [NO_LIMIT; QUERY_BLOCK];
            for (qi, top) in tops.iter().enumerate() {
                limits[qi] = self.limit(q_first + qi, top);
            }
            for p_start in range.clone().step_by(PANEL_ROWS) {
                let p_rows = p_start..(p_start + PANEL_ROWS).min(range.end);
                let rows = p_rows.len();
                let mut pending = None;
                for qi in 0..tops.len() {
                    let q = q_first + qi;
                    if limits[qi] != NO_LIMIT {
                        let Some(first) = pending.take() else {
                            pending = Some(qi);
                            continue;
                        };
                        let (pair, p_rows) = ([first, qi], p_rows.clone());
                        refined +=
                            self.filter(q_first, &pair, p_rows, id_offset, tops, &mut limits);
                    } else if !(skip_cold && tops[qi].bar().is_none()) {
                        let scores = &mut scores[..rows];
                        let panel = &self.base.as_slice()[p_start * dim..p_rows.end * dim];
                        self.metric
                            .similarity_panel(self.queries.row(q), panel, dim, scores);
                        let top = &mut tops[qi];
                        for (b, &score) in p_rows.clone().zip(scores.iter()) {
                            top.push((id_offset + b) as u32, score);
                        }
                        limits[qi] = self.limit(q, top);
                        refined += rows as u64;
                    }
                }
                if let Some(last) = pending {
                    refined += self.filter(q_first, &[last], p_rows, id_offset, tops, &mut limits);
                }
            }
        }
        refined
    }

    /// The pre-filter over the panel `base[p_rows]` for the one or two
    /// queries `q_first + qi` of `pair` (each with a limit in
    /// `limits[qi]`): what [`sad_mask2`] cannot rule out is scored and
    /// pushed, and a query that pushed gets its limit recomputed.
    fn filter(
        &self,
        q_first: usize,
        pair: &[usize],
        p_rows: Range<usize>,
        id_offset: usize,
        tops: &mut [TopK],
        limits: &mut [u32; QUERY_BLOCK],
    ) -> u64 {
        let (qs, bs) = self.sketches.expect("only a sketched scan filters");
        let (a, b) = (pair[0], pair[pair.len() - 1]);
        let codes = |qi: usize| qs.codes(q_first + qi..q_first + qi + 1);
        let masks = sad_mask2(
            [codes(a), codes(b)],
            bs.codes(p_rows.clone()),
            qs.stride,
            [limits[a], limits[b]],
            &bs.slack[p_rows.clone()],
        );
        let mut refined = 0;
        for (&qi, keep) in pair.iter().zip(masks) {
            if keep != 0 {
                let (q, top) = (q_first + qi, &mut tops[qi]);
                refined += self.push_rows(q, p_rows.start, keep, id_offset, top);
                limits[qi] = self.limit(q, top);
            }
        }
        refined
    }

    /// Fills the cold collectors among `tops` (query rows from `q_first`)
    /// from `base[warm]`, which starts on the panel grid, scoring in f32
    /// only what the pre-filter cannot rule out. [`COLD_BLOCK`] cold
    /// queries at a time get the SADs of every warm row, a panel of codes
    /// at a time for all of them; then each query in turn ([`Scan::fill`])
    /// scores and pushes its rows below [`cut_for`]'s cut (at least as many
    /// as the collector lacks, and the nearest ones by code), which fills
    /// the collector with a bar already close to its final one, and the
    /// other rows meet the pre-filter against that bar.
    fn warm(&self, q_first: usize, warm: Range<usize>, id_offset: usize, tops: &mut [TopK]) -> u64 {
        let (qs, bs) = self.sketches.expect("only a sketched scan warms up");
        let mut sads = [[0u32; WARM_ROWS]; COLD_BLOCK];
        let mut cold = [0usize; COLD_BLOCK];
        let (mut next, mut refined) = (0, 0);
        loop {
            let mut n = 0;
            while n < COLD_BLOCK && next < tops.len() {
                if tops[next].bar().is_none() {
                    cold[n] = next;
                    n += 1;
                }
                next += 1;
            }
            if n == 0 {
                return refined;
            }
            for p_start in warm.clone().step_by(PANEL_ROWS) {
                let p_rows = p_start..(p_start + PANEL_ROWS).min(warm.end);
                let (panel, at) = (bs.codes(p_rows.clone()), p_start - warm.start);
                for (&qi, sads) in cold[..n].iter().zip(&mut sads) {
                    let q_codes = qs.codes(q_first + qi..q_first + qi + 1);
                    sad_panel(q_codes, panel, qs.stride, &mut sads[at..at + p_rows.len()]);
                }
            }
            for (&qi, sads) in cold[..n].iter().zip(&sads) {
                let top = &mut tops[qi];
                refined += self.fill(q_first + qi, warm.clone(), id_offset, top, sads);
            }
        }
    }

    /// [`Scan::warm`] for query `q`, given the SADs of its warm rows
    /// (`sads[r]` for base row `warm.start + r`; what lies past them is
    /// ignored).
    fn fill(
        &self,
        q: usize,
        warm: Range<usize>,
        id_offset: usize,
        top: &mut TopK,
        sads: &[u32; WARM_ROWS],
    ) -> u64 {
        let (_, bs) = self.sketches.expect("only a sketched scan warms up");
        let rows = warm.len();
        let need = top.k - top.heap.len();
        // with nothing to choose between, every row goes in: no SAD reaches
        // `u32::MAX` (`sad_panel` caps the stride at 2²⁴ bytes)
        let cut = if rows > need {
            cut_for(&sads[..rows], need)
        } else {
            u32::MAX
        };
        let panels = || warm.clone().step_by(PANEL_ROWS).zip(sads.as_chunks().0);
        let mut refined = 0;
        for (p_start, p_sads) in panels() {
            let nearest = below(p_sads, cut) & live(warm.end - p_start);
            refined += self.push_rows(q, p_start, nearest, id_offset, top);
        }
        let mut limit = self.limit(q, top);
        for (p_start, p_sads) in panels() {
            let p_rows = p_start..(p_start + PANEL_ROWS).min(warm.end);
            let keep = match limit {
                NO_LIMIT => !below(p_sads, cut) & live(p_rows.len()),
                limit => within(p_sads, cut, limit, &bs.slack[p_rows]),
            };
            let pushed = self.push_rows(q, p_start, keep, id_offset, top);
            if pushed != 0 {
                limit = self.limit(q, top);
            }
            refined += pushed;
        }
        refined
    }

    /// Query `q`'s [`Sketch::limit`] under `top`'s bar; [`NO_LIMIT`] when
    /// the scan has no sketches, the collector no bar, or the bound nothing
    /// to prove.
    fn limit(&self, q: usize, top: &TopK) -> u32 {
        let limit = || self.sketches?.0.limit(q, -top.bar()?);
        limit().unwrap_or(NO_LIMIT)
    }

    /// Scores the base rows `p_start + r` for each bit `r` of `rows`
    /// against query `q` in f32 and pushes them; returns how many. Only a
    /// sketched — Manhattan — scan picks rows one by one.
    fn push_rows(
        &self,
        q: usize,
        p_start: usize,
        rows: u64,
        id_offset: usize,
        top: &mut TopK,
    ) -> u64 {
        debug_assert_eq!(self.metric, Metric::Manhattan);
        if rows == 0 {
            return 0;
        }
        let qrow = self.queries.row(q);
        let picked = || {
            let mut left = rows;
            std::iter::from_fn(move || {
                let r = (left != 0).then(|| left.trailing_zeros() as usize)?;
                left &= left - 1;
                Some(p_start + r)
            })
        };
        // distances first, pushes after: back-to-back kernel calls
        // overlap, a heap sift between them would not let them
        let mut dists = [0.0f32; PANEL_ROWS];
        for (d, b) in dists.iter_mut().zip(picked()) {
            *d = l1_distance(qrow, self.base.row(b));
        }
        for (&d, b) in dists.iter().zip(picked()) {
            top.push((id_offset + b) as u32, -d);
        }
        u64::from(rows.count_ones())
    }

    /// [`Scan::block`] of the whole base for every query row, split over
    /// `pool`; `tops[i]` collects for query row `i`. Returns the pairs
    /// scored in f32.
    fn run(&self, pool: &Pool, id_offset: usize, tops: &mut [TopK]) -> u64 {
        debug_assert_eq!(tops.len(), self.queries.rows());
        // a statistic: nothing is published through it
        let refined = AtomicU64::new(0);
        pool.rows_mut(tops, 1, 32, |tops, first| {
            let n = self.block(first, 0..self.base.rows(), id_offset, tops);
            refined.fetch_add(n, atomic::Ordering::Relaxed);
        });
        refined.into_inner()
    }
}

/// For each row of `queries`, finds the `k` most similar rows of `base`
/// under `metric`. Exact (no approximation), parallel over query blocks.
/// Either side is a whole [`Matrix`] (`&m`) or borrowed rows of one
/// ([`Matrix::row_range`]); nothing is copied.
///
/// Returns one descending-sorted `(base_row, score)` list per query row.
///
/// # Panics
///
/// If `queries.cols() != base.cols()` ("query/base dimensionality
/// mismatch") or `k == 0` — checked up front so no mismatched pair is
/// ever silently prefix-scored (see [`Metric::similarity`]).
pub fn topk_search<'q, 'b>(
    queries: impl Into<Rows<'q>>,
    base: impl Into<Rows<'b>>,
    k: usize,
    metric: Metric,
) -> Vec<Vec<(u32, f32)>> {
    topk_search_in(queries, base, k, metric, Pool::global()).0
}

/// [`topk_search`] on an explicit pool, also returning how many pairs the
/// scan scored in f32 — the ones its lossless pre-filter could not rule
/// out — for the caller's `*.refined_pairs` counter. Each query row's
/// candidate scan is independent and collected in row order, so results are
/// bit-identical for any thread count.
///
/// # Panics
///
/// Same contract as [`topk_search`].
pub fn topk_search_in<'q, 'b>(
    queries: impl Into<Rows<'q>>,
    base: impl Into<Rows<'b>>,
    k: usize,
    metric: Metric,
    pool: &Pool,
) -> (Vec<Vec<(u32, f32)>>, u64) {
    let (queries, base) = (queries.into(), base.into());
    search_in_ram(pool, queries, base, k, metric, 1, &Recorder::disabled())
}

/// Segment-at-a-time top-k search mirroring the paper's SENS memory layout:
/// both matrices are split into `num_segments` row ranges and each query
/// segment is searched against one base segment at a time, every score
/// going straight into its query's bounded collector — so one segment pair
/// is being scanned at any moment while the retained output stays
/// `O(k · |queries|)`.
///
/// Functionally identical to [`topk_search`] (both are exact); exists so the
/// experiment harness can reproduce and account for the paper's memory
/// claim.
///
/// # Panics
///
/// If `queries.cols() != base.cols()` ("query/base dimensionality
/// mismatch"), `k == 0` ("k must be at least 1") or `num_segments == 0`.
pub fn segmented_topk(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    num_segments: usize,
) -> Vec<Vec<(u32, f32)>> {
    let (queries, base) = (queries.into(), base.into());
    let quiet = Recorder::disabled();
    search_in_ram(
        Pool::global(),
        queries,
        base,
        k,
        metric,
        num_segments,
        &quiet,
    )
    .0
}

/// Streamed [`segmented_topk`]: instead of borrowing whole embedding
/// matrices, the caller supplies loaders that materialise one row segment
/// at a time (the name channel's encode the segment's names — DESIGN.md
/// §S0.8), so at most one query segment and one base segment are
/// ever resident.
///
/// Telemetry: each segment pair is a `sens_block` span ([`Level::Trace`])
/// with `q_start`/`q_rows`/`b_start`/`b_rows`/`scored`/`refined` fields
/// (`refined`: the pairs the pre-filter could not rule out, scored in
/// f32), totals land in the `sens.blocks` / `sens.candidates_scored` /
/// `sens.refined_pairs` counters, and every sketch built is a `sketch`
/// span ([`Level::Detail`]).
///
/// Every entry point of this module is this one search — the in-RAM ones
/// hand it loaders that borrow row ranges — and it is exact whatever the
/// segments, so all of them return the same bits. Loader errors abort the
/// search.
///
/// Sketches (Manhattan only): the scale comes from the first base segment
/// — any scale is sound, see `Sketch` — each base segment is sketched
/// when it is loaded, and each query segment the first time it is; the
/// query sketches stay resident for the later base segments
/// ([`resident_bytes`] is the total a budgeted caller asks for).
///
/// # Panics
///
/// If `k == 0` ("k must be at least 1") or `num_segments == 0`, if a
/// loader returns a segment whose row count differs from the requested
/// range, or if a query segment's column count differs from the base
/// segment's ("segment dim mismatch" — the streamed equivalent of the
/// dimensionality check on the in-RAM entry points).
#[allow(clippy::too_many_arguments)] // segmented_topk's, a recorder and two loaders
pub fn segmented_topk_streamed<E>(
    n_queries: usize,
    n_base: usize,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
    load_queries: impl FnMut(Range<usize>) -> Result<Matrix, E>,
    load_base: impl FnMut(Range<usize>) -> Result<Matrix, E>,
) -> Result<Vec<Vec<(u32, f32)>>, E> {
    let sizes = (n_queries, n_base, k, num_segments);
    let found = search(Pool::global(), sizes, metric, rec, load_queries, load_base)?;
    Ok(found.0)
}

/// One descending-sorted `(base_row, score)` list per query row.
type Hits = Vec<Vec<(u32, f32)>>;

/// [`search`] over loaders that borrow row ranges of two in-RAM blocks.
fn search_in_ram(
    pool: &Pool,
    queries: Rows<'_>,
    base: Rows<'_>,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
) -> (Hits, u64) {
    assert_eq!(
        queries.cols(),
        base.cols(),
        "query/base dimensionality mismatch"
    );
    let sizes = (queries.rows(), base.rows(), k, num_segments);
    let (q_rows, b_rows) = (|r| Ok(queries.row_range(r)), |r| Ok(base.row_range(r)));
    search(pool, sizes, metric, rec, q_rows, b_rows)
        .unwrap_or_else(|never: std::convert::Infallible| match never {})
}

/// A segment a loader hands [`search`]: one it owns (streamed in from
/// storage) or one it borrows (rows of a block in RAM).
trait Segment {
    fn view(&self) -> Rows<'_>;
}

impl Segment for Matrix {
    fn view(&self) -> Rows<'_> {
        self.into()
    }
}

impl Segment for Rows<'_> {
    fn view(&self) -> Rows<'_> {
        *self
    }
}

/// The search behind every entry point, over `sizes = (n_queries, n_base,
/// k, num_segments)`; also returns how many pairs were scored in f32.
fn search<E, Q: Segment, B: Segment>(
    pool: &Pool,
    (n_queries, n_base, k, num_segments): (usize, usize, usize, usize),
    metric: Metric,
    rec: &Recorder,
    mut load_queries: impl FnMut(Range<usize>) -> Result<Q, E>,
    mut load_base: impl FnMut(Range<usize>) -> Result<B, E>,
) -> Result<(Hits, u64), E> {
    assert!(k >= 1, "k must be at least 1");
    assert!(num_segments >= 1, "need at least one segment");
    let q_seg = n_queries.div_ceil(num_segments).max(1);
    let b_seg = n_base.div_ceil(num_segments).max(1);
    let mut merged: Vec<TopK> = (0..n_queries).map(|_| TopK::new(k)).collect();
    let (mut blocks, mut scored, mut refined) = (0u64, 0u64, 0u64);
    let sketch = |m: Rows<'_>, scale: f32| {
        let mut span = rec.span_at(Level::Detail, "sketch");
        span.field("rows", m.rows());
        Sketch::build(m, scale, pool)
    };
    let mut scale = None;
    let mut q_sketches: Vec<Sketch> = Vec::new();

    for b_start in (0..n_base).step_by(b_seg) {
        let b_rows = b_start..(b_start + b_seg).min(n_base);
        let b_segment = load_base(b_rows.clone())?;
        let b_block = b_segment.view();
        assert_eq!(b_block.rows(), b_rows.len(), "base segment row count");
        let b_sketch = (metric == Metric::Manhattan).then(|| {
            let scale = *scale.get_or_insert_with(|| Sketch::scale_for(b_block));
            sketch(b_block, scale)
        });
        for (qi, q_start) in (0..n_queries).step_by(q_seg).enumerate() {
            let q_rows = q_start..(q_start + q_seg).min(n_queries);
            let q_segment = load_queries(q_rows.clone())?;
            let q_block = q_segment.view();
            assert_eq!(q_block.rows(), q_rows.len(), "query segment row count");
            assert_eq!(q_block.cols(), b_block.cols(), "segment dim mismatch");
            if let (Some(scale), true) = (scale, qi == q_sketches.len()) {
                q_sketches.push(sketch(q_block, scale));
            }
            let scan = Scan {
                queries: q_block,
                base: b_block,
                metric,
                sketches: b_sketch.as_ref().map(|b| (&q_sketches[qi], b)),
            };
            let mut span = rec.span_at(Level::Trace, "sens_block");
            // score straight into the queries' collectors, whose bars
            // earlier base segments have already raised
            let in_f32 = scan.run(pool, b_start, &mut merged[q_rows.clone()]);
            span.field("q_start", q_start);
            span.field("q_rows", q_rows.len());
            span.field("b_start", b_start);
            span.field("b_rows", b_rows.len());
            let pairs = (q_rows.len() * b_rows.len()) as u64;
            span.field("scored", pairs);
            span.field("refined", in_f32);
            blocks += 1;
            scored += pairs;
            refined += in_f32;
        }
    }
    rec.add("sens.blocks", blocks);
    rec.add("sens.candidates_scored", scored);
    rec.add("sens.refined_pairs", refined);
    let hits = merged.into_iter().map(TopK::into_sorted).collect();
    Ok((hits, refined))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_vec(
            4,
            2,
            vec![
                0.0, 0.0, // 0
                1.0, 0.0, // 1
                0.0, 2.0, // 2
                3.0, 3.0, // 3
            ],
        )
    }

    #[test]
    fn manhattan_nearest_is_self() {
        let b = base();
        let res = topk_search(&b, &b, 1, Metric::Manhattan);
        for (i, hits) in res.iter().enumerate() {
            assert_eq!(hits[0].0 as usize, i);
            assert_eq!(hits[0].1, 0.0);
        }
    }

    #[test]
    fn topk_is_sorted_descending() {
        let q = Matrix::from_vec(1, 2, vec![0.9, 0.1]);
        let res = topk_search(&q, &base(), 3, Metric::Manhattan);
        let hits = &res[0];
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(hits[0].0, 1); // (1,0) is nearest
    }

    #[test]
    fn k_larger_than_base_returns_all() {
        let q = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let res = topk_search(&q, &base(), 10, Metric::Manhattan);
        assert_eq!(res[0].len(), 4);
    }

    #[test]
    fn inner_product_prefers_aligned() {
        let q = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let res = topk_search(&q, &base(), 1, Metric::InnerProduct);
        assert_eq!(res[0][0].0, 3);
    }

    #[test]
    fn segmented_matches_plain_search() {
        // pseudo-random matrices
        let mut s = 1u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let q = Matrix::from_fn(37, 8, |_, _| next());
        let b = Matrix::from_fn(53, 8, |_, _| next());
        for segs in [1, 2, 3, 7] {
            let plain = topk_search(&q, &b, 5, Metric::Manhattan);
            let seg = segmented_topk(&q, &b, 5, Metric::Manhattan, segs);
            assert_eq!(plain, seg, "segments={segs}");
        }
    }

    #[test]
    fn traced_segmented_records_block_spans() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let q = Matrix::from_fn(10, 4, |i, j| (i * 4 + j) as f32);
        let b = Matrix::from_fn(12, 4, |i, j| (i + j) as f32);
        let rec = Recorder::new(ObsConfig::default());
        let traced = search_in_ram(
            Pool::global(),
            (&q).into(),
            (&b).into(),
            3,
            Metric::Manhattan,
            2,
            &rec,
        )
        .0;
        assert_eq!(traced, segmented_topk(&q, &b, 3, Metric::Manhattan, 2));
        let t = rec.trace();
        assert_eq!(t.span_count("sens_block"), 4, "2 × 2 segment pairs");
        assert_eq!(t.span_count("sketch"), 4, "one per segment per side");
        assert_eq!(t.counter("sens.blocks"), 4);
        assert_eq!(t.counter("sens.candidates_scored"), 10 * 12);
        // every query's first 3 offers are scored unfiltered; base rows that
        // far apart leave the filter something to rule out after that
        let refined = t.counter("sens.refined_pairs");
        assert!((10 * 3..10 * 12).contains(&refined), "refined {refined}");
        assert!(t.find("sens_block").unwrap().field_u64("refined").is_some());
    }

    #[test]
    fn streamed_propagates_loader_errors() {
        let err = segmented_topk_streamed(
            10,
            10,
            2,
            Metric::Manhattan,
            2,
            &Recorder::disabled(),
            |_| Err(std::io::Error::other("disk on fire")),
            |r| Ok(Matrix::zeros(r.len(), 3)),
        )
        .unwrap_err();
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let q = Matrix::from_vec(1, 1, vec![0.0]);
        let b = Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let res = topk_search(&q, &b, 3, Metric::Manhattan);
        let ids: Vec<u32> = res[0].iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        topk_search(
            &Matrix::zeros(1, 2),
            &Matrix::zeros(1, 3),
            1,
            Metric::Manhattan,
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn segmented_dim_mismatch_panics() {
        segmented_topk(
            &Matrix::zeros(4, 5),
            &Matrix::zeros(4, 6),
            2,
            Metric::Manhattan,
            2,
        );
    }

    /// The oracle: every pair scored on its own, sorted by (−score, id).
    fn naive_topk(q: &Matrix, b: &Matrix, k: usize, metric: Metric) -> Hits {
        (0..q.rows())
            .map(|qi| {
                let mut scored: Vec<(u32, f32)> = (0..b.rows())
                    .map(|bi| (bi as u32, metric.similarity(q.row(qi), b.row(bi))))
                    .collect();
                scored.sort_by(|a, b| score_order(b.1, a.1).then(a.0.cmp(&b.0)));
                scored.truncate(k);
                scored
            })
            .collect()
    }

    /// Hits as `(id, score bits)`, so a NaN score compares equal to itself.
    fn hit_bits(hits: &Hits) -> Vec<Vec<(u32, u32)>> {
        let bits = |h: &Vec<(u32, f32)>| h.iter().map(|&(id, s)| (id, s.to_bits())).collect();
        hits.iter().map(bits).collect()
    }

    /// Every exact entry point, at several widths / segment counts (the
    /// segmented search streams copies of the segments), against
    /// [`naive_topk`].
    fn assert_all_paths_match_naive(q: &Matrix, b: &Matrix, k: usize, metric: Metric) {
        let ctx = format!(
            "nq={} nb={} dim={} k={k} {metric:?}",
            q.rows(),
            b.rows(),
            b.cols()
        );
        let expect = hit_bits(&naive_topk(q, b, k, metric));
        for width in [1, 2, 4] {
            let (got, _) = topk_search_in(q, b, k, metric, &Pool::new(width));
            assert_eq!(hit_bits(&got), expect, "width={width} {ctx}");
        }
        for segs in [1, 3, 7] {
            let got = segmented_topk(q, b, k, metric, segs);
            assert_eq!(hit_bits(&got), expect, "segments={segs} {ctx}");
        }
    }

    #[test]
    fn ties_prefer_lowest_id_at_any_width() {
        use largeea_common::check::for_each_case;
        // Scores drawn from a handful of distinct values force heavy ties;
        // the collector must keep the lowest ids among equals at every
        // thread width, matching a naive (-score, id) sort.
        for_each_case(0x7195, 40, |rng| {
            let nq = rng.gen_range(1..12usize);
            let nb = rng.gen_range(1..60usize);
            let k = rng.gen_range(1..8usize);
            let dim = rng.gen_range(1..5usize);
            let q = Matrix::from_fn(nq, dim, |_, _| rng.gen_range(0i32..3) as f32);
            let b = Matrix::from_fn(nb, dim, |_, _| rng.gen_range(0i32..3) as f32);
            assert_all_paths_match_naive(&q, &b, k, Metric::Manhattan);
        });
    }

    #[test]
    fn scan_shapes_straddling_the_blocking_match_naive() {
        // Base sizes around the 4-row kernel step and the 64-row panel,
        // dims around the 8-lane step (and the degenerate 0), k both
        // inside and beyond the base. Small-integer entries keep every
        // score exact, so ties are everywhere.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0x5CA9);
        for nb in [0, 1, 3, 4, 5, 63, 64, 65, 129] {
            for dim in [0, 1, 7, 8, 129] {
                let q = Matrix::from_fn(67, dim, |_, _| rng.gen_range(-2i32..3) as f32);
                let b = Matrix::from_fn(nb, dim, |_, _| rng.gen_range(-2i32..3) as f32);
                for metric in [Metric::Manhattan, Metric::InnerProduct] {
                    for k in [3, nb + 2] {
                        assert_all_paths_match_naive(&q, &b, k, metric);
                    }
                }
            }
        }
    }

    /// Rows of every kind the bound has to survive: mixed magnitudes,
    /// denormals, values near f32::MAX (the kernel's sum overflows), and
    /// rows holding an infinity or a NaN.
    fn adversarial_rows(rng: &mut largeea_common::rng::Rng, rows: usize, dim: usize) -> Matrix {
        let kinds: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..8u32)).collect();
        Matrix::from_fn(rows, dim, |r, _| {
            let x = rng.gen::<f64>() as f32 - 0.5;
            match kinds[r] {
                0 => x * 1e-40,
                1 => x * 3e38,
                2 if rng.gen_bool(0.2) => f32::INFINITY,
                3 if rng.gen_bool(0.2) => f32::NEG_INFINITY,
                4 if rng.gen_bool(0.2) => f32::NAN,
                _ => x * 10f32.powi(rng.gen_range(-3..3)),
            }
        })
    }

    /// Row `r` of the two matrices sits on either side of a pair of code
    /// points, each pulled towards the other by up to half a step in every
    /// coordinate: the quantisation errors all point the same way, so
    /// `L1(a_r, b_r) = s·SAD − ρ(a_r) − ρ(b_r)` — the triangle inequality
    /// with nothing to spare.
    fn tight_pairs(
        rng: &mut largeea_common::rng::Rng,
        rows: usize,
        dim: usize,
        s: f32,
    ) -> (Matrix, Matrix) {
        let codes = Matrix::from_fn(2 * rows, dim, |_, _| rng.gen_range(-100i32..101) as f32);
        let mut side = |first: usize, other: usize| {
            Matrix::from_fn(rows, dim, |r, c| {
                let (own, their) = (codes[(first + r, c)], codes[(other + r, c)]);
                let pull = (rng.gen::<f64>() * 0.49) as f32 * (their - own).signum();
                s * (own + pull)
            })
        };
        (side(0, rows), side(rows, 0))
    }

    #[test]
    fn lower_bound_never_exceeds_the_kernel_distance() {
        use largeea_common::check::for_each_case;
        let pool = Pool::new(1);
        for_each_case(0xB0_0D, 200, |rng| {
            let dim = rng.gen_range(0..200usize);
            // fitting, clamping nearly everything, zeroing every code, and
            // the two ends of the float range
            let scale_for = |rng: &mut largeea_common::rng::Rng, b: &Matrix| {
                let fitting = Sketch::scale_for(b.into());
                match rng.gen_range(0..5u32) {
                    0 => fitting,
                    1 => (fitting / 1000.0).max(f32::MIN_POSITIVE),
                    2 => (fitting * 1000.0).min(f32::MAX),
                    3 => f32::MIN_POSITIVE,
                    _ => 1e30,
                }
            };
            let (a, b, scale) = if rng.gen_bool(0.5) {
                let scale = 10f32.powi(rng.gen_range(-6..4));
                let (a, b) = tight_pairs(rng, 8, dim, scale);
                (a, b, scale)
            } else {
                let a = adversarial_rows(rng, 6, dim);
                let b = adversarial_rows(rng, 9, dim);
                let scale = scale_for(rng, &b);
                (a, b, scale)
            };
            let (sa, sb) = (
                Sketch::build((&a).into(), scale, &pool),
                Sketch::build((&b).into(), scale, &pool),
            );
            let (s, gamma) = (
                f64::from(scale),
                (dim / 8 + 16) as f64 / (1u64 << 23) as f64,
            );
            let mut sads = vec![0u32; b.rows()];
            for q in 0..a.rows() {
                sad_panel(
                    sa.codes(q..q + 1),
                    sb.codes(0..b.rows()),
                    sa.stride,
                    &mut sads,
                );
                for (r, &sad) in sads.iter().enumerate() {
                    let d = l1_distance(a.row(q), b.row(r));
                    let ctx = format!("dim={dim} scale={scale:e} q={q} r={r} d={d}");
                    let finite = |m: &Matrix, i: usize| m.row(i).iter().all(|x| x.is_finite());
                    if !finite(&a, q) || !finite(&b, r) {
                        // routed to the exact path: no SAD reaches the slack
                        let slack = if finite(&a, q) {
                            sb.slack[r]
                        } else {
                            sa.slack[q]
                        };
                        assert_eq!(slack, u32::MAX, "{ctx}");
                        continue;
                    }
                    // the bound itself, with ρ/s read back from the slacks
                    // (which only over-state it)
                    let rho = f64::from(sa.slack[q]) + f64::from(sb.slack[r]);
                    let bound = s * (f64::from(sad) - rho) * (1.0 - gamma);
                    assert!(bound <= f64::from(d), "bound {bound} {ctx}");
                    // and the decision built on it: with the bar at this very
                    // distance the pair must be let through
                    if let Some(limit) = sa.limit(q, d) {
                        assert!(sad < limit.saturating_add(sb.slack[r]), "{ctx}");
                    }
                }
            }
        });
    }

    #[test]
    fn a_fitting_scale_rules_out_most_far_pairs() {
        // Not a correctness property — the bound is sound at any scale —
        // but the filter has to earn its keep on well-spread rows.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0xF17);
        let m = Matrix::from_fn(400, 64, |_, _| rng.gen::<f64>() as f32 - 0.5);
        let rec = Recorder::new(largeea_common::obs::ObsConfig::default());
        search_in_ram(
            Pool::global(),
            (&m).into(),
            (&m).into(),
            5,
            Metric::Manhattan,
            2,
            &rec,
        );
        let refined = rec.trace().counter("sens.refined_pairs");
        assert!(refined < 400 * 400 / 4, "refined {refined} of 160000");
    }

    /// What each collector retains, as sorted `(score bits, id)` pairs: the
    /// heap's array order depends on push order, the retained set does not.
    fn retained_bits(tops: &[TopK]) -> Vec<Vec<(u32, u32)>> {
        let bits = |t: &TopK| {
            let mut held: Vec<_> = t.heap.iter().map(|&(s, id)| (s.to_bits(), id)).collect();
            held.sort_unstable();
            held
        };
        tops.iter().map(bits).collect()
    }

    #[test]
    fn filtered_scan_equals_the_unfiltered_one_after_every_panel() {
        use largeea_common::check::for_each_case;
        let pool = Pool::new(1);
        for_each_case(0xF1_17E2, 24, |rng| {
            let (nq, nb) = (rng.gen_range(1..40usize), rng.gen_range(1..400usize));
            // codes of one or two 32-byte chunks, or of 64 to 192 bytes
            // (the structure and name channels' widths)
            let dim = match rng.gen_bool(0.5) {
                true => rng.gen_range(1..40usize),
                false => rng.gen_range(33..193usize),
            };
            let k = rng.gen_range(1..12usize);
            // clustered rows: near ties and far pairs in every panel
            let centre = |rng: &mut largeea_common::rng::Rng| rng.gen_range(-2i32..3) as f32;
            let q = Matrix::from_fn(nq, dim, |_, _| centre(rng) + rng.gen::<f64>() as f32 * 0.01);
            let b = Matrix::from_fn(nb, dim, |_, _| centre(rng) + rng.gen::<f64>() as f32 * 0.01);
            let fitting = Sketch::scale_for((&b).into());
            for scale in [fitting, fitting / 50.0, fitting * 300.0] {
                let sketches = (
                    Sketch::build((&q).into(), scale, &pool),
                    Sketch::build((&b).into(), scale, &pool),
                );
                let scan = |sketches| Scan {
                    queries: (&q).into(),
                    base: (&b).into(),
                    metric: Metric::Manhattan,
                    sketches,
                };
                let (filtered, oracle) = (scan(Some((&sketches.0, &sketches.1))), scan(None));
                let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
                let mut want: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
                // panels as a segment starting off the 64-row grid cuts them
                let first = rng.gen_range(0..nb.min(64));
                let mut refined = 0;
                for panel in std::iter::once(0..first).chain(
                    (first..nb)
                        .step_by(PANEL_ROWS)
                        .map(|p| p..(p + PANEL_ROWS).min(nb)),
                ) {
                    refined += filtered.block(0, panel.clone(), 7, &mut tops);
                    let all = oracle.block(0, panel.clone(), 7, &mut want);
                    assert_eq!(all, (nq * panel.len()) as u64);
                    assert_eq!(
                        retained_bits(&tops),
                        retained_bits(&want),
                        "after {panel:?}: nq={nq} nb={nb} dim={dim} k={k} scale={scale:e}"
                    );
                }
                assert!(refined <= (nq * nb) as u64);
            }
        });
    }

    #[test]
    fn cold_collectors_end_where_the_naive_search_does() {
        use largeea_common::check::for_each_case;
        for_each_case(0xC01D, 40, |rng| {
            let draw_k =
                |rng: &mut largeea_common::rng::Rng, nb: usize| match rng.gen_range(0..4u32) {
                    0 => 1,
                    1 => nb.max(1),
                    2 => nb + rng.gen_range(1..5usize),
                    _ => rng.gen_range(2..60usize),
                };
            // now and then a few queries against a base longer than the
            // longest warm-up prefix, or a small `k` whose prefix ends
            // before the base with more cold queries than one warm-up
            // block in every task of a 4-wide pool
            let (nq, nb, k) = match rng.gen_range(0..6u32) {
                0 => {
                    let nb = WARM_ROWS + rng.gen_range(0..300usize);
                    (rng.gen_range(1..6usize), nb, draw_k(rng, nb))
                }
                1 => {
                    let k = rng.gen_range(1..6usize);
                    let nq = 16 * COLD_BLOCK + rng.gen_range(1..40usize);
                    (nq, warm_rows(k) + rng.gen_range(1..300usize), k)
                }
                _ => {
                    let nb = rng.gen_range(0..300usize);
                    (rng.gen_range(1..40usize), nb, draw_k(rng, nb))
                }
            };
            let dim = rng.gen_range(1..40usize);
            // clustered rows on a coarse grid: exact ties in SAD and in
            // distance, at the histogram's cut as everywhere else
            let point = |rng: &mut largeea_common::rng::Rng| {
                rng.gen_range(-2i32..3) as f32 + rng.gen_range(0..3u32) as f32 * 0.25
            };
            let q = Matrix::from_fn(nq, dim, |_, _| point(rng));
            let b = Matrix::from_fn(nb, dim, |_, _| point(rng));
            let expect = hit_bits(&naive_topk(&q, &b, k, Metric::Manhattan));
            assert_all_paths_match_naive(&q, &b, k, Metric::Manhattan);
            // a first block shorter than `k` (or empty) leaves the
            // collectors cold in the second
            let first = rng.gen_range(0..=nb.min(k + 3));
            let fitting = Sketch::scale_for((&b).into());
            for scale in [fitting, fitting / 50.0, fitting * 300.0] {
                for width in [1, 2, 4] {
                    let pool = Pool::new(width);
                    let (qs, bs) = (
                        Sketch::build((&q).into(), scale, &pool),
                        Sketch::build((&b).into(), scale, &pool),
                    );
                    let scan = Scan {
                        queries: (&q).into(),
                        base: (&b).into(),
                        metric: Metric::Manhattan,
                        sketches: Some((&qs, &bs)),
                    };
                    let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
                    for range in [0..first, first..nb] {
                        pool.rows_mut(&mut tops, 1, 4, |tops, q_first| {
                            scan.block(q_first, range.clone(), 0, tops);
                        });
                    }
                    let got: Hits = tops.into_iter().map(TopK::into_sorted).collect();
                    let ctx = format!("nq={nq} nb={nb} dim={dim} k={k} first={first}");
                    assert_eq!(
                        hit_bits(&got),
                        expect,
                        "{ctx} scale={scale:e} width={width}"
                    );
                }
            }
        });
    }

    #[test]
    fn streamed_scale_from_an_unrepresentative_first_segment_is_still_exact() {
        // The first base segment is three orders of magnitude smaller than
        // the rest, so the scale it sets clamps nearly every later code.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0x5CA1E);
        let q = Matrix::from_fn(33, 12, |_, _| rng.gen::<f64>() as f32 - 0.5);
        let b = Matrix::from_fn(90, 12, |r, _| {
            (rng.gen::<f64>() as f32 - 0.5) * if r < 30 { 1e-3 } else { 1.0 }
        });
        assert_all_paths_match_naive(&q, &b, 4, Metric::Manhattan);
    }

    #[test]
    fn rows_with_nan_or_infinity_score_as_they_always_did() {
        // The special rows are all on the base side, one kind each: an
        // infinite distance ranks last among numbers, a NaN below them all.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0x14F);
        let q = Matrix::from_fn(9, 10, |_, _| rng.gen::<f64>() as f32 - 0.5);
        let b = Matrix::from_fn(150, 10, |r, c| match (r % 50, c) {
            (7, 3) => f32::INFINITY,
            (19, 0) => f32::NEG_INFINITY,
            (31, 5) => f32::NAN,
            _ => rng.gen::<f64>() as f32 - 0.5,
        });
        assert_all_paths_match_naive(&q, &b, 6, Metric::Manhattan);
        assert_all_paths_match_naive(&q, &b, 149, Metric::Manhattan);
    }

    #[test]
    fn a_nan_score_ranks_below_every_number() {
        // Base row 1 scores NaN against every query; query row 1 scores
        // NaN against every base row.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0x4A4);
        let mut row = |r: usize, c: usize, nan: (usize, usize)| {
            let x = rng.gen::<f64>() as f32 - 0.5;
            if (r, c) == nan {
                f32::NAN
            } else {
                x
            }
        };
        let q = Matrix::from_fn(2, 8, |r, c| row(r, c, (1, 5)));
        let b = Matrix::from_fn(5, 8, |r, c| row(r, c, (1, 2)));
        for metric in [Metric::Manhattan, Metric::InnerProduct] {
            for k in [3, 5, 7] {
                let expect = naive_topk(&q, &b, k, metric);
                let numbers: Vec<u32> = (expect[0].iter()).map(|&(id, _)| id).collect();
                assert_eq!(numbers.contains(&1), k >= 5, "{numbers:?}");
                let all_nan = (expect[1].iter()).map(|&(id, s)| (id, s.is_nan()));
                assert!(all_nan.eq((0..k.min(5) as u32).map(|id| (id, true))));
                for width in [1, 2] {
                    let (got, _) = topk_search_in(&q, &b, k, metric, &Pool::new(width));
                    let ctx = format!("k={k} width={width} {metric:?}");
                    assert_eq!(hit_bits(&got), hit_bits(&expect), "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn segmented_k_zero_panics() {
        segmented_topk(
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 3),
            0,
            Metric::Manhattan,
            1,
        );
    }

    #[test]
    fn empty_base_gives_empty_hits() {
        let res = topk_search(
            &Matrix::zeros(2, 4),
            &Matrix::zeros(0, 4),
            3,
            Metric::Manhattan,
        );
        assert!(res.iter().all(Vec::is_empty));
    }
}
