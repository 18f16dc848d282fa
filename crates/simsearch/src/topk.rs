//! Exact blocked top-k similarity search — the Faiss substitute.

use largeea_common::obs::{Level, Recorder};
use largeea_tensor::kernels::{dot_panel, l1_panel};
use largeea_tensor::parallel::{par_rows_mut, Pool};
use largeea_tensor::{dot, l1_distance, Matrix};
use std::ops::Range;

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
    /// pairs (IVF probes, the quantized re-rank, naive test oracles); the
    /// exact scan scores whole panels through the panel kernels instead,
    /// which return the same bits per pair.
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
/// `quant` reuses this collector for its shortlist and re-rank phases, so
/// all three search paths (exact, streamed, quantized) share one tie
/// semantics.
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

/// The exact scan — the only place a (query, base-row) pair is scored.
/// Offers every row of `base[b_range]` to the collectors in `tops`, where
/// `tops[i]` belongs to query row `q_first + i`; base row `b` is offered
/// under id `id_offset + b` (non-zero when `base` is a streamed segment
/// of a larger matrix).
///
/// Cache blocking: the base range is walked in [`PANEL_ROWS`]-row panels,
/// and each panel is scored against *every* query of the task before the
/// next is touched, so the base streams from L2 once per task rather than
/// once per query. Each pair's score comes from the panel kernels — the
/// same float sequence as [`Metric::similarity`] — and the collector is
/// order-independent, so blocking changes no output bit.
fn scan_block(
    queries: &Matrix,
    q_first: usize,
    base: &Matrix,
    b_range: Range<usize>,
    id_offset: usize,
    metric: Metric,
    tops: &mut [TopK],
) {
    let dim = base.cols();
    let mut scores = [0.0f32; PANEL_ROWS];
    for p_start in b_range.clone().step_by(PANEL_ROWS) {
        let p_end = (p_start + PANEL_ROWS).min(b_range.end);
        let panel = &base.as_slice()[p_start * dim..p_end * dim];
        let scores = &mut scores[..p_end - p_start];
        for (qi, top) in tops.iter_mut().enumerate() {
            metric.similarity_panel(queries.row(q_first + qi), panel, dim, scores);
            for (b, &score) in (p_start..p_end).zip(scores.iter()) {
                top.push((id_offset + b) as u32, score);
            }
        }
    }
}

/// For each row of `queries`, finds the `k` most similar rows of `base`
/// under `metric`. Exact (no approximation), parallel over query blocks.
///
/// Returns one descending-sorted `(base_row, score)` list per query row.
///
/// # Panics
///
/// If `queries.cols() != base.cols()` ("query/base dimensionality
/// mismatch") or `k == 0` — checked up front so no mismatched pair is
/// ever silently prefix-scored (see [`Metric::similarity`]).
pub fn topk_search(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
) -> Vec<Vec<(u32, f32)>> {
    topk_search_in(queries, base, k, metric, Pool::global())
}

/// [`topk_search`] on an explicit pool, so tests can pin the width. Each
/// query row's candidate scan is independent and collected in row order,
/// so results are bit-identical for any thread count.
///
/// # Panics
///
/// Same contract as [`topk_search`].
pub fn topk_search_in(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    pool: &Pool,
) -> Vec<Vec<(u32, f32)>> {
    assert_eq!(
        queries.cols(),
        base.cols(),
        "query/base dimensionality mismatch"
    );
    assert!(k >= 1, "k must be at least 1");
    let mut tops: Vec<TopK> = (0..queries.rows()).map(|_| TopK::new(k)).collect();
    pool.rows_mut(&mut tops, 1, 64, |tops, q_first| {
        scan_block(queries, q_first, base, 0..base.rows(), 0, metric, tops)
    });
    tops.into_iter().map(TopK::into_sorted).collect()
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
    segmented_topk_traced(
        queries,
        base,
        k,
        metric,
        num_segments,
        &Recorder::disabled(),
    )
}

/// [`segmented_topk`] with telemetry: each segment pair is a `sens_block`
/// span ([`Level::Trace`]) with `q_start`/`q_rows`/`b_start`/`b_rows`/
/// `scored` fields, and totals land in the `sens.blocks` /
/// `sens.candidates_scored` counters.
///
/// # Panics
///
/// Same contract as [`segmented_topk`].
pub fn segmented_topk_traced(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
) -> Vec<Vec<(u32, f32)>> {
    assert_eq!(
        queries.cols(),
        base.cols(),
        "query/base dimensionality mismatch"
    );
    assert!(k >= 1, "k must be at least 1");
    assert!(num_segments >= 1, "need at least one segment");
    let q_seg = queries.rows().div_ceil(num_segments).max(1);
    let b_seg = base.rows().div_ceil(num_segments).max(1);
    let mut merged: Vec<TopK> = (0..queries.rows()).map(|_| TopK::new(k)).collect();
    let mut blocks_done = 0u64;
    let mut total_scored = 0u64;

    for b_start in (0..base.rows()).step_by(b_seg) {
        let b_end = (b_start + b_seg).min(base.rows());
        for q_start in (0..queries.rows()).step_by(q_seg) {
            let q_end = (q_start + q_seg).min(queries.rows());
            let mut span = rec.span_at(Level::Trace, "sens_block");
            // per segment-pair: score straight into the queries' collectors,
            // whose thresholds earlier base segments have already raised
            par_rows_mut(&mut merged[q_start..q_end], 1, 32, |tops, first| {
                scan_block(
                    queries,
                    q_start + first,
                    base,
                    b_start..b_end,
                    0,
                    metric,
                    tops,
                )
            });
            let scored = ((q_end - q_start) * (b_end - b_start)) as u64;
            span.field("q_start", q_start);
            span.field("q_rows", q_end - q_start);
            span.field("b_start", b_start);
            span.field("b_rows", b_end - b_start);
            span.field("scored", scored);
            blocks_done += 1;
            total_scored += scored;
        }
    }
    rec.add("sens.blocks", blocks_done);
    rec.add("sens.candidates_scored", total_scored);
    merged.into_iter().map(TopK::into_sorted).collect()
}

/// Out-of-core [`segmented_topk_traced`]: instead of borrowing whole
/// embedding matrices, the caller supplies loaders that materialise one
/// row segment at a time (typically streaming spilled `LEAM1` frames back
/// in — DESIGN.md §S0.8), so at most one query segment and one base
/// segment are ever resident.
///
/// Both paths walk the same segment pairs and score them through the one
/// private scan shared by every entry point here, so when the loaded
/// segments are row slices of the same matrices every score is computed
/// from identical floats in an identical sequence and the result is
/// **bit-identical** to the in-RAM path (`streamed_matches_in_ram_traced`
/// pins the segment arithmetic). Loader errors abort the search.
///
/// # Panics
///
/// If `k == 0` ("k must be at least 1") or `num_segments == 0`, if a
/// loader returns a segment whose row count differs from the requested
/// range, or if a query segment's column count differs from the base
/// segment's ("segment dim mismatch" — the streamed equivalent of the
/// dimensionality check on the in-RAM entry points).
#[allow(clippy::too_many_arguments)] // mirrors segmented_topk_traced plus two loaders
pub fn segmented_topk_streamed<E>(
    n_queries: usize,
    n_base: usize,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
    mut load_queries: impl FnMut(Range<usize>) -> Result<Matrix, E>,
    mut load_base: impl FnMut(Range<usize>) -> Result<Matrix, E>,
) -> Result<Vec<Vec<(u32, f32)>>, E> {
    assert!(k >= 1, "k must be at least 1");
    assert!(num_segments >= 1, "need at least one segment");
    let q_seg = n_queries.div_ceil(num_segments).max(1);
    let b_seg = n_base.div_ceil(num_segments).max(1);
    let mut merged: Vec<TopK> = (0..n_queries).map(|_| TopK::new(k)).collect();
    let mut blocks_done = 0u64;
    let mut total_scored = 0u64;

    for b_start in (0..n_base).step_by(b_seg) {
        let b_end = (b_start + b_seg).min(n_base);
        let b_block = load_base(b_start..b_end)?;
        assert_eq!(b_block.rows(), b_end - b_start, "base segment row count");
        for q_start in (0..n_queries).step_by(q_seg) {
            let q_end = (q_start + q_seg).min(n_queries);
            let q_block = load_queries(q_start..q_end)?;
            assert_eq!(q_block.rows(), q_end - q_start, "query segment row count");
            assert_eq!(q_block.cols(), b_block.cols(), "segment dim mismatch");
            let mut span = rec.span_at(Level::Trace, "sens_block");
            par_rows_mut(&mut merged[q_start..q_end], 1, 32, |tops, first| {
                let b_rows = 0..b_block.rows();
                scan_block(&q_block, first, &b_block, b_rows, b_start, metric, tops)
            });
            let scored = ((q_end - q_start) * (b_end - b_start)) as u64;
            span.field("q_start", q_start);
            span.field("q_rows", q_end - q_start);
            span.field("b_start", b_start);
            span.field("b_rows", b_end - b_start);
            span.field("scored", scored);
            blocks_done += 1;
            total_scored += scored;
        }
    }
    rec.add("sens.blocks", blocks_done);
    rec.add("sens.candidates_scored", total_scored);
    Ok(merged.into_iter().map(TopK::into_sorted).collect())
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
        let traced = segmented_topk_traced(&q, &b, 3, Metric::Manhattan, 2, &rec);
        assert_eq!(traced, segmented_topk(&q, &b, 3, Metric::Manhattan, 2));
        let t = rec.trace();
        assert_eq!(t.span_count("sens_block"), 4, "2 × 2 segment pairs");
        assert_eq!(t.counter("sens.blocks"), 4);
        assert_eq!(t.counter("sens.candidates_scored"), 10 * 12);
    }

    /// Materialises the row range `r` of `m` as its own matrix — what a
    /// spill loader does when streaming a segment back from disk.
    fn slice_rows(m: &Matrix, r: std::ops::Range<usize>) -> Matrix {
        let ids: Vec<u32> = r.map(|i| i as u32).collect();
        m.gather_rows(&ids)
    }

    #[test]
    fn streamed_matches_in_ram_traced() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let mut s = 9u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        for (nq, nb, segs) in [(37, 53, 4), (8, 8, 1), (20, 5, 3), (5, 41, 7)] {
            let q = Matrix::from_fn(nq, 6, |_, _| next());
            let b = Matrix::from_fn(nb, 6, |_, _| next());
            let rec = Recorder::new(ObsConfig::default());
            let in_ram = segmented_topk_traced(&q, &b, 4, Metric::Manhattan, segs, &rec);
            let rec2 = Recorder::new(ObsConfig::default());
            let streamed = segmented_topk_streamed(
                nq,
                nb,
                4,
                Metric::Manhattan,
                segs,
                &rec2,
                |r| Ok::<_, std::io::Error>(slice_rows(&q, r)),
                |r| Ok(slice_rows(&b, r)),
            )
            .unwrap();
            assert_eq!(streamed, in_ram, "nq={nq} nb={nb} segs={segs}");
            // identical telemetry: same blocks, same candidate count
            assert_eq!(
                rec2.trace().counter("sens.blocks"),
                rec.trace().counter("sens.blocks")
            );
            assert_eq!(
                rec2.trace().counter("sens.candidates_scored"),
                rec.trace().counter("sens.candidates_scored")
            );
        }
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

    /// Every exact entry point, at several widths / segment counts,
    /// against [`naive_topk`].
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
            let streamed = segmented_topk_streamed(
                q.rows(),
                b.rows(),
                k,
                metric,
                segs,
                &Recorder::disabled(),
                |r| Ok::<_, std::io::Error>(slice_rows(q, r)),
                |r| Ok(slice_rows(b, r)),
            )
            .unwrap();
            assert_eq!(streamed, expect, "streamed segments={segs} {ctx}");
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
    #[should_panic(expected = "k must be at least 1")]
    fn streamed_k_zero_panics() {
        let _ = segmented_topk_streamed(
            2,
            2,
            0,
            Metric::Manhattan,
            1,
            &Recorder::disabled(),
            |r| Ok::<_, std::io::Error>(Matrix::zeros(r.len(), 3)),
            |r| Ok(Matrix::zeros(r.len(), 3)),
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
