//! Exact blocked top-k similarity search — the Faiss substitute.

use largeea_common::obs::{Level, Recorder};
use largeea_tensor::kernels::{dot_panel, l1_panel, sad_panel};
use largeea_tensor::parallel::Pool;
use largeea_tensor::{dot, l1_distance, Matrix, Rows};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// pairs (IVF probes, naive test oracles); the exact scan scores whole
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

/// Total-order "is `a` worse than `b`": lower score loses; equal scores,
/// higher id loses. (NaN never arises: scores are finite similarities.)
#[inline]
fn worse(a: (f32, u32), b: (f32, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
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
        v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
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

/// Bytes a Manhattan [`segmented_topk_streamed`] keeps resident while it
/// runs — one query and one base segment in f32, the [`Sketch`]es of every
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
/// Row `x` is stored as codes `c_i ∈ [1, 255]` near `x_i/s + 128` and a
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
        let stride = Self::stride_for(dim);
        let mut codes = vec![0u8; m.rows() * stride];
        pool.rows_mut(&mut codes, stride, 64, |block, first| {
            for (r, out) in block.chunks_mut(stride).enumerate() {
                for (c, &x) in out.iter_mut().zip(m.row(first + r)) {
                    // NaN casts to 0, i.e. code 128; its slack says so
                    *c = ((f64::from(x) / s).round().clamp(-127.0, 127.0) as i32 + 128) as u8;
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
    /// Cache blocking: the base range is walked in [`PANEL_ROWS`]-row
    /// panels, and each panel is scored against *every* query of the task
    /// before the next is touched, so the base streams from L2 once per
    /// task rather than once per query.
    ///
    /// Pre-filter: once a query's collector is full, a pair whose code SAD
    /// reaches the query's [`Sketch::limit`] plus the base row's slack has
    /// a kernel distance strictly above the collector's bar — `push` would
    /// drop it — and is not scored. The bar is read once per panel; the
    /// panel's own pushes only raise it, so a stale one lets more through,
    /// never less. Every other pair gets the panel kernels' bits
    /// (`l1_distance` returns the same ones) and is pushed in the same
    /// ascending order, so after every panel each collector holds exactly
    /// what it would without the filter.
    fn block(
        &self,
        q_first: usize,
        b_range: Range<usize>,
        id_offset: usize,
        tops: &mut [TopK],
    ) -> u64 {
        let dim = self.base.cols();
        let mut scores = [0.0f32; PANEL_ROWS];
        let mut sads = [0u32; PANEL_ROWS];
        let mut picked = [0usize; PANEL_ROWS];
        let mut refined = 0u64;
        for p_start in b_range.clone().step_by(PANEL_ROWS) {
            let p_end = (p_start + PANEL_ROWS).min(b_range.end);
            let rows = p_end - p_start;
            let panel = &self.base.as_slice()[p_start * dim..p_end * dim];
            let widest = self.sketches.map_or(0, |(_, bs)| {
                let slack = bs.slack[p_start..p_end].iter();
                slack.copied().max().unwrap_or(0)
            });
            for (qi, top) in tops.iter_mut().enumerate() {
                let q = q_first + qi;
                let qrow = self.queries.row(q);
                let filter = self.sketches.and_then(|(qs, bs)| {
                    let limit = qs.limit(q, -top.bar()?)?;
                    Some((qs, bs, limit))
                });
                let Some((qs, bs, limit)) = filter else {
                    let scores = &mut scores[..rows];
                    self.metric.similarity_panel(qrow, panel, dim, scores);
                    for (b, &score) in (p_start..p_end).zip(scores.iter()) {
                        top.push((id_offset + b) as u32, score);
                    }
                    refined += rows as u64;
                    continue;
                };
                let (q_codes, panel_codes) = (qs.codes(q..q + 1), bs.codes(p_start..p_end));
                sad_panel(q_codes, panel_codes, qs.stride, &mut sads[..rows]);
                // One pass over the whole buffer against the panel's widest
                // slack finds the few rows worth a second look; what a
                // short last panel leaves beyond `rows` is masked off.
                let live = u64::MAX >> (PANEL_ROWS - rows);
                let mut maybe = below(&sads, limit.saturating_add(widest)) & live;
                let mut survivors = 0;
                while maybe != 0 {
                    let r = maybe.trailing_zeros() as usize;
                    maybe &= maybe - 1;
                    if sads[r] < limit.saturating_add(bs.slack[p_start + r]) {
                        // distances first, pushes after: back-to-back
                        // kernel calls overlap, a heap sift between them
                        // would not let them
                        scores[survivors] = l1_distance(qrow, self.base.row(p_start + r));
                        picked[survivors] = p_start + r;
                        survivors += 1;
                    }
                }
                for (&b, &d) in picked.iter().zip(scores.iter()).take(survivors) {
                    top.push((id_offset + b) as u32, -d);
                }
                refined += survivors as u64;
            }
        }
        refined
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
            refined.fetch_add(n, Ordering::Relaxed);
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
    topk_search_in(queries, base, k, metric, Pool::global())
}

/// [`topk_search`], also returning how many pairs the scan scored in f32 —
/// the ones its lossless pre-filter could not rule out — for the caller's
/// `*.refined_pairs` counter.
///
/// # Panics
///
/// Same contract as [`topk_search`].
pub fn topk_search_counted<'q, 'b>(
    queries: impl Into<Rows<'q>>,
    base: impl Into<Rows<'b>>,
    k: usize,
    metric: Metric,
) -> (Vec<Vec<(u32, f32)>>, u64) {
    let quiet = Recorder::disabled();
    let (queries, base) = (queries.into(), base.into());
    search_in_ram(Pool::global(), queries, base, k, metric, 1, &quiet)
}

/// [`topk_search`] on an explicit pool, so tests can pin the width. Each
/// query row's candidate scan is independent and collected in row order,
/// so results are bit-identical for any thread count.
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
) -> Vec<Vec<(u32, f32)>> {
    let (queries, base) = (queries.into(), base.into());
    search_in_ram(pool, queries, base, k, metric, 1, &Recorder::disabled()).0
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
/// at a time (the name channel's hand back what it put into its store —
/// DESIGN.md §S0.8), so at most one query segment and one base segment are
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
/// — any scale is sound, see [`Sketch`] — each base segment is sketched
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
    fn naive_topk(q: &Matrix, b: &Matrix, k: usize, metric: Metric) -> Vec<Vec<(u32, f32)>> {
        (0..q.rows())
            .map(|qi| {
                let mut scored: Vec<(u32, f32)> = (0..b.rows())
                    .map(|bi| (bi as u32, metric.similarity(q.row(qi), b.row(bi))))
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                scored.truncate(k);
                scored
            })
            .collect()
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
        let expect = naive_topk(q, b, k, metric);
        for width in [1, 2, 4] {
            let got = topk_search_in(q, b, k, metric, &Pool::new(width));
            assert_eq!(got, expect, "width={width} {ctx}");
        }
        for segs in [1, 3, 7] {
            let got = segmented_topk(q, b, k, metric, segs);
            assert_eq!(got, expect, "segments={segs} {ctx}");
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

    fn heap_bits(tops: &[TopK]) -> Vec<Vec<(u32, u32)>> {
        let bits = |t: &TopK| t.heap.iter().map(|&(s, id)| (s.to_bits(), id)).collect();
        tops.iter().map(bits).collect()
    }

    #[test]
    fn filtered_scan_equals_the_unfiltered_one_after_every_panel() {
        use largeea_common::check::for_each_case;
        let pool = Pool::new(1);
        for_each_case(0xF1_17E2, 24, |rng| {
            let (nq, nb) = (rng.gen_range(1..40usize), rng.gen_range(1..400usize));
            let (dim, k) = (rng.gen_range(1..40usize), rng.gen_range(1..12usize));
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
                        heap_bits(&tops),
                        heap_bits(&want),
                        "after {panel:?}: nq={nq} nb={nb} dim={dim} k={k} scale={scale:e}"
                    );
                }
                assert!(refined <= (nq * nb) as u64);
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
        // Collectors never see a NaN here (an infinite distance is fine):
        // the special rows are all on the base side, one kind each.
        let mut rng = largeea_common::rng::Rng::seed_from_u64(0x14F);
        let q = Matrix::from_fn(9, 10, |_, _| rng.gen::<f64>() as f32 - 0.5);
        let b = Matrix::from_fn(150, 10, |r, c| match (r % 50, c) {
            (7, 3) => f32::INFINITY,
            (19, 0) => f32::NEG_INFINITY,
            _ => rng.gen::<f64>() as f32 - 0.5,
        });
        assert_all_paths_match_naive(&q, &b, 6, Metric::Manhattan);
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
