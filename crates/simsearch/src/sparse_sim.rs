//! Top-k row-sparse similarity matrices.
//!
//! Every LargeEA channel produces one of these: rows are source entities,
//! stored entries are the retained top-k `(target, score)` candidates.
//! Keeping only top-k is what drops memory from `O(|E_s|·|E_t|)` to
//! `O(k·|E_s|)` (paper §2.3) — the entire framework result `M = M_s + M_n`
//! lives in this representation.

use largeea_tensor::Matrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A sparse similarity matrix holding at most a few entries per row,
/// each row sorted by column id.
///
/// ```
/// use largeea_sim::SparseSimMatrix;
///
/// let mut m = SparseSimMatrix::new(2, 3);
/// m.insert(0, 2, 0.9);
/// m.insert(0, 1, 0.4);
/// m.insert(1, 0, 0.7);
/// assert_eq!(m.best(0), Some((2, 0.9)));
/// assert_eq!(m.rank(0, 1), Some(2));
/// // channel fusion is just element-wise addition
/// let fused = m.add(&m);
/// assert_eq!(fused.get(0, 2), Some(1.8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSimMatrix {
    n_cols: usize,
    rows: Vec<Vec<(u32, f32)>>,
}

impl SparseSimMatrix {
    /// An empty `n_rows × n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_cols,
            rows: vec![Vec::new(); n_rows],
        }
    }

    /// Builds from per-row top-k hit lists (as returned by
    /// [`crate::topk::topk_search`]); duplicate columns accumulate.
    pub fn from_topk(n_cols: usize, hits: Vec<Vec<(u32, f32)>>) -> Self {
        let mut m = Self::new(hits.len(), n_cols);
        for (r, row_hits) in hits.into_iter().enumerate() {
            m.insert_row(r, row_hits);
        }
        m
    }

    /// Number of rows (source entities).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (target entities).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Adds `score` at `(row, col)`, accumulating if the entry exists.
    pub fn insert(&mut self, row: usize, col: u32, score: f32) {
        assert!((col as usize) < self.n_cols, "col {col} out of range");
        let r = &mut self.rows[row];
        match r.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(i) => r[i].1 += score,
            Err(i) => r.insert(i, (col, score)),
        }
    }

    /// [`Self::insert`] for a whole batch of `(col, score)` entries of one
    /// `row`, in one merge instead of a search and a shift per entry.
    /// Entry by entry the sums are formed in the order `insert` would form
    /// them: a column's stored score first, then its `hits` left to right.
    pub fn insert_row(&mut self, row: usize, mut hits: Vec<(u32, f32)>) {
        hits.sort_by_key(|&(c, _)| c); // stable: equal columns keep their order
        if let Some(&(c, _)) = hits.last() {
            assert!((c as usize) < self.n_cols, "col {c} out of range");
        }
        let stored = std::mem::take(&mut self.rows[row]);
        let mut merged: Vec<(u32, f32)> = Vec::with_capacity(stored.len() + hits.len());
        let mut stored = stored.into_iter().peekable();
        for (c, s) in hits {
            merged.extend(std::iter::from_fn(|| stored.next_if(|e| e.0 <= c)));
            match merged.last_mut() {
                Some(last) if last.0 == c => last.1 += s,
                _ => merged.push((c, s)),
            }
        }
        merged.extend(stored);
        self.rows[row] = merged;
    }

    /// The stored `(col, score)` entries of `row`, ascending by column.
    pub fn row(&self, row: usize) -> &[(u32, f32)] {
        &self.rows[row]
    }

    /// The stored score at `(row, col)`, if any.
    pub fn get(&self, row: usize, col: u32) -> Option<f32> {
        let r = &self.rows[row];
        r.binary_search_by_key(&col, |&(c, _)| c)
            .ok()
            .map(|i| r[i].1)
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Approximate bytes of the stored entries (memory accounting).
    pub fn nbytes(&self) -> usize {
        self.nnz() * std::mem::size_of::<(u32, f32)>()
            + self.rows.len() * std::mem::size_of::<Vec<(u32, f32)>>()
    }

    /// Element-wise sum with `other` (shapes must match): the paper's
    /// channel fusion `M = M_s + M_n` and NFF's `M_n = M_se + γ·M_st`.
    pub fn add(&self, other: &SparseSimMatrix) -> SparseSimMatrix {
        self.scaled_add(other, 1.0)
    }

    /// `self + gamma · other` element-wise.
    pub fn scaled_add(&self, other: &SparseSimMatrix, gamma: f32) -> SparseSimMatrix {
        assert_eq!(self.n_rows(), other.n_rows(), "row count mismatch");
        assert_eq!(self.n_cols, other.n_cols, "col count mismatch");
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .map(|(a, b)| merge_rows(a, b, gamma))
            .collect();
        SparseSimMatrix {
            n_cols: self.n_cols,
            rows,
        }
    }

    /// In-place [`Self::scaled_add`]: `self += gamma · other`, row by row.
    /// Produces bit-identical entries to the allocating version (both
    /// funnel through [`merge_rows`]) while only ever holding one extra
    /// merged row — the fusion path for memory-bounded runs, where keeping
    /// three full matrices (`self`, `other`, result) would break the
    /// budget.
    pub fn scaled_add_assign(&mut self, other: &SparseSimMatrix, gamma: f32) {
        assert_eq!(self.n_rows(), other.n_rows(), "row count mismatch");
        assert_eq!(self.n_cols, other.n_cols, "col count mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a = merge_rows(a, b, gamma);
        }
    }

    /// In-place element-wise sum (`self += other`), the fusion step for
    /// memory-bounded runs. Bit-identical to [`Self::add`].
    pub fn add_assign(&mut self, other: &SparseSimMatrix) {
        self.scaled_add_assign(other, 1.0);
    }

    /// Scales every stored score in place.
    pub fn scale(&mut self, alpha: f32) {
        for r in &mut self.rows {
            for e in r {
                e.1 *= alpha;
            }
        }
    }

    /// Keeps only the `k` highest-scoring entries per row.
    pub fn truncate_topk(&mut self, k: usize) {
        for r in &mut self.rows {
            if r.len() <= k {
                continue;
            }
            r.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            r.truncate(k);
            r.sort_unstable_by_key(|&(c, _)| c);
        }
    }

    /// Min-max normalises each row's scores into `[0, 1]` (single-entry and
    /// constant rows map to 1). Used before fusing channels whose raw score
    /// scales differ (negative L1 distances vs bounded name similarities).
    pub fn normalize_rows_minmax(&mut self) {
        for r in &mut self.rows {
            if r.is_empty() {
                continue;
            }
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &(_, s) in r.iter() {
                lo = lo.min(s);
                hi = hi.max(s);
            }
            if (hi - lo).abs() < f32::EPSILON {
                for e in r.iter_mut() {
                    e.1 = 1.0;
                }
            } else {
                let inv = 1.0 / (hi - lo);
                for e in r.iter_mut() {
                    e.1 = (e.1 - lo) * inv;
                }
            }
        }
    }

    /// Min-max normalises *all* stored scores into `[0, 1]` with one global
    /// affine map. Unlike [`Self::normalize_rows_minmax`] this preserves
    /// relative confidence *across* rows — a row whose best candidate is
    /// poor stays poor — which matters when fusing channels so that one
    /// channel's noise cannot drown the other's signal.
    pub fn normalize_global_minmax(&mut self) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for r in &self.rows {
            for &(_, s) in r {
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        if !lo.is_finite() || (hi - lo).abs() < f32::EPSILON {
            for r in &mut self.rows {
                for e in r.iter_mut() {
                    e.1 = 1.0;
                }
            }
            return;
        }
        let inv = 1.0 / (hi - lo);
        for r in &mut self.rows {
            for e in r.iter_mut() {
                e.1 = (e.1 - lo) * inv;
            }
        }
    }

    /// Applies Cross-domain Similarity Local Scaling (CSLS, Lample et al.
    /// 2018) in place: `csls(r, c) = 2·sim(r, c) − μ_r − μ_c`, where `μ_r`
    /// / `μ_c` are the means of the row's / column's `k` best stored scores.
    /// CSLS penalises hub candidates that are close to *everything* — the
    /// standard retrieval fix in alignment pipelines (LargeEA's release
    /// applies it before fusion).
    pub fn csls(&mut self, k: usize) {
        assert!(k >= 1, "csls k must be positive");
        let row_mean: Vec<f32> = (0..self.n_rows())
            .map(|r| top_mean(self.rows[r].iter().map(|&(_, s)| s), k))
            .collect();
        // column top-k means via a per-column collection pass
        let mut col_scores: Vec<Vec<f32>> = vec![Vec::new(); self.n_cols];
        for row in &self.rows {
            for &(c, s) in row {
                col_scores[c as usize].push(s);
            }
        }
        let col_mean: Vec<f32> = col_scores
            .into_iter()
            .map(|v| top_mean(v.into_iter(), k))
            .collect();
        for (r, row) in self.rows.iter_mut().enumerate() {
            for e in row.iter_mut() {
                e.1 = 2.0 * e.1 - row_mean[r] - col_mean[e.0 as usize];
            }
        }
    }

    /// Sinkhorn normalisation: alternately rescales rows and columns toward
    /// unit mass for `iterations` rounds, pushing the (non-negative) score
    /// matrix toward a doubly-stochastic transport plan. This is the
    /// soft 1-to-1 matching prior many EA decoders apply before ranking —
    /// an alternative to [`Self::csls`] with a global, rather than local,
    /// view of hubness. Negative scores are clamped to zero first.
    pub fn sinkhorn(&mut self, iterations: usize) {
        for row in &mut self.rows {
            for e in row.iter_mut() {
                e.1 = e.1.max(0.0);
            }
        }
        for _ in 0..iterations {
            // rows → unit sum
            for row in &mut self.rows {
                let sum: f32 = row.iter().map(|&(_, s)| s).sum();
                if sum > f32::EPSILON {
                    let inv = 1.0 / sum;
                    for e in row.iter_mut() {
                        e.1 *= inv;
                    }
                }
            }
            // cols → unit sum
            let mut col_sum = vec![0.0f32; self.n_cols];
            for row in &self.rows {
                for &(c, s) in row {
                    col_sum[c as usize] += s;
                }
            }
            for row in &mut self.rows {
                for e in row.iter_mut() {
                    let cs = col_sum[e.0 as usize];
                    if cs > f32::EPSILON {
                        e.1 /= cs;
                    }
                }
            }
        }
    }

    /// Greedily decodes a 1-to-1 alignment: entries are taken in descending
    /// score order (ties → lowest row, then column), skipping rows/columns
    /// already matched. This is the standard assignment-extraction step when
    /// a downstream application needs hard matches instead of ranked
    /// candidates.
    pub fn greedy_one_to_one(&self) -> Vec<(u32, u32)> {
        // An entry's place in that order, as integers that compare word by
        // word: (score bits that descend as the score ascends, row, col).
        // `row`'s first key past `after` with a free column:
        let first_free = |row: u32, after: Option<(u32, u32, u32)>, col_used: &[bool]| {
            let keys = self.rows[row as usize].iter().map(|&(c, s)| {
                assert!(!s.is_nan(), "similarity scores are finite");
                // `+ 0.0` folds −0.0 into +0.0; flipping the sign bit of a
                // non-negative float, or every bit of a negative one, makes
                // the bit patterns ascend with the values
                let bits = (s + 0.0).to_bits();
                let ascending = if bits >> 31 == 0 {
                    bits | 1 << 31
                } else {
                    !bits
                };
                (!ascending, row, c)
            });
            keys.filter(|&key| Some(key) > after && !col_used[key.2 as usize])
                .min()
        };
        // Nothing is sorted. The heap holds each unmatched row's first key
        // whose column was free when the row was last scanned, so its
        // minimum is the next key the order reaches: every key before it
        // was taken, or lost its row or its column. `O(rows)` extra memory.
        let mut col_used = vec![false; self.n_cols];
        let mut heap: BinaryHeap<_> = (0..self.n_rows() as u32)
            .filter_map(|r| first_free(r, None, &col_used).map(Reverse))
            .collect();
        let mut out = Vec::new();
        while let Some(Reverse(key)) = heap.pop() {
            let (_, r, c) = key;
            if !std::mem::replace(&mut col_used[c as usize], true) {
                out.push((r, c));
            } else if let Some(next) = first_free(r, Some(key), &col_used) {
                heap.push(Reverse(next));
            }
        }
        out.sort_unstable();
        out
    }

    /// The highest-scoring entry of `row` (ties → lowest column id).
    pub fn best(&self, row: usize) -> Option<(u32, f32)> {
        self.rows[row]
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
    }

    /// For every column, the best row pointing at it (ties → lowest row).
    pub fn col_best(&self) -> Vec<Option<(u32, f32)>> {
        let mut best: Vec<Option<(u32, f32)>> = vec![None; self.n_cols];
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, s) in row {
                let slot = &mut best[c as usize];
                let better = match slot {
                    None => true,
                    Some((_, bs)) => s > *bs,
                };
                if better {
                    *slot = Some((r as u32, s));
                }
            }
        }
        best
    }

    /// Pairs `(row, col)` that are mutually each other's best match — the
    /// cycle-consistency rule behind the name-based data augmentation.
    pub fn mutual_top1(&self) -> Vec<(u32, u32)> {
        let col_best = self.col_best();
        let mut out = Vec::new();
        for r in 0..self.n_rows() {
            if let Some((c, _)) = self.best(r) {
                if let Some((br, _)) = col_best[c as usize] {
                    if br as usize == r {
                        out.push((r as u32, c));
                    }
                }
            }
        }
        out
    }

    /// 1-based rank of `col` within `row` by descending score, counting
    /// equal scores with smaller column ids ahead (deterministic). `None`
    /// if the entry is not stored.
    pub fn rank(&self, row: usize, col: u32) -> Option<usize> {
        let target = self.get(row, col)?;
        let ahead = self.rows[row]
            .iter()
            .filter(|&&(c, s)| s > target || (s == target && c < col))
            .count();
        Some(ahead + 1)
    }

    /// Densifies into a [`Matrix`] (tests / tiny inputs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows(), self.n_cols);
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, s) in row {
                m[(r, c as usize)] = s;
            }
        }
        m
    }
}

/// Mean of the `k` largest values of `it` (0.0 when empty).
fn top_mean(it: impl Iterator<Item = f32>, k: usize) -> f32 {
    let mut v: Vec<f32> = it.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite scores"));
    v.truncate(k);
    v.iter().sum::<f32>() / v.len() as f32
}

fn merge_rows(a: &[(u32, f32)], b: &[(u32, f32)], gamma: f32) -> Vec<(u32, f32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((b[j].0, gamma * b[j].1));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + gamma * b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend(b[j..].iter().map(|&(c, s)| (c, gamma * s)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseSimMatrix {
        let mut m = SparseSimMatrix::new(3, 4);
        m.insert(0, 1, 0.9);
        m.insert(0, 2, 0.5);
        m.insert(1, 0, 0.3);
        m.insert(2, 3, 0.8);
        m.insert(2, 1, 0.8);
        m
    }

    #[test]
    fn insert_accumulates() {
        let mut m = SparseSimMatrix::new(1, 2);
        m.insert(0, 1, 0.5);
        m.insert(0, 1, 0.25);
        assert_eq!(m.get(0, 1), Some(0.75));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn rows_stay_column_sorted() {
        let m = sample();
        assert!(m.row(0).windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(m.get(0, 3), None);
    }

    #[test]
    fn add_merges_and_sums() {
        let a = sample();
        let mut b = SparseSimMatrix::new(3, 4);
        b.insert(0, 1, 0.1);
        b.insert(0, 3, 0.2);
        let c = a.add(&b);
        assert!((c.get(0, 1).unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(c.get(0, 3), Some(0.2));
        assert_eq!(c.get(0, 2), Some(0.5));
    }

    #[test]
    fn scaled_add_applies_gamma() {
        let a = SparseSimMatrix::new(1, 2);
        let mut b = SparseSimMatrix::new(1, 2);
        b.insert(0, 0, 1.0);
        let c = a.scaled_add(&b, 0.05);
        assert!((c.get(0, 0).unwrap() - 0.05).abs() < 1e-7);
    }

    #[test]
    fn in_place_scaled_add_is_bit_identical_to_allocating() {
        let a = sample();
        let mut b = SparseSimMatrix::new(3, 4);
        b.insert(0, 1, 0.123);
        b.insert(0, 3, 0.456);
        b.insert(2, 0, 0.789);
        for gamma in [1.0f32, 0.05, -0.5] {
            let allocating = a.scaled_add(&b, gamma);
            let mut in_place = a.clone();
            in_place.scaled_add_assign(&b, gamma);
            assert_eq!(in_place, allocating, "gamma={gamma}");
        }
        let mut summed = a.clone();
        summed.add_assign(&b);
        assert_eq!(summed, a.add(&b));
    }

    #[test]
    fn add_is_commutative() {
        let a = sample();
        let mut b = SparseSimMatrix::new(3, 4);
        b.insert(1, 2, 0.4);
        b.insert(0, 1, 0.1);
        assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn truncate_keeps_best() {
        let mut m = sample();
        m.truncate_topk(1);
        assert_eq!(m.row(0), &[(1, 0.9)]);
        // tie in row 2 broken by lower col id
        assert_eq!(m.row(2), &[(1, 0.8)]);
    }

    #[test]
    fn best_and_rank() {
        let m = sample();
        assert_eq!(m.best(0), Some((1, 0.9)));
        assert_eq!(m.rank(0, 1), Some(1));
        assert_eq!(m.rank(0, 2), Some(2));
        assert_eq!(m.rank(0, 3), None);
        // tie: col 1 ranks ahead of col 3 in row 2
        assert_eq!(m.rank(2, 1), Some(1));
        assert_eq!(m.rank(2, 3), Some(2));
    }

    #[test]
    fn mutual_top1_requires_both_directions() {
        let mut m = SparseSimMatrix::new(2, 2);
        // row 0 best → col 0; row 1 best → col 0 too (stronger)
        m.insert(0, 0, 0.5);
        m.insert(1, 0, 0.9);
        m.insert(1, 1, 0.1);
        let pairs = m.mutual_top1();
        // col 0's best row is 1, so only (1,0) is mutual
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn mutual_top1_happy_path() {
        let mut m = SparseSimMatrix::new(2, 2);
        m.insert(0, 0, 0.9);
        m.insert(0, 1, 0.1);
        m.insert(1, 1, 0.8);
        assert_eq!(m.mutual_top1(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn minmax_normalisation() {
        let mut m = SparseSimMatrix::new(2, 3);
        m.insert(0, 0, -4.0);
        m.insert(0, 1, -2.0);
        m.insert(0, 2, 0.0);
        m.insert(1, 0, 7.0);
        m.normalize_rows_minmax();
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(0, 1), Some(0.5));
        assert_eq!(m.get(0, 2), Some(1.0));
        assert_eq!(m.get(1, 0), Some(1.0)); // singleton row → 1
    }

    #[test]
    fn csls_penalises_hub_columns() {
        // Column 0 is a hub whose *other* neighbours score it even higher
        // (0.95) than row 0 does (0.90); row 0's specific match scores 0.88
        // and is nobody else's neighbour. Raw scores prefer the hub; CSLS
        // must flip row 0's preference to the specific match.
        let mut m = SparseSimMatrix::new(3, 2);
        m.insert(0, 0, 0.90);
        m.insert(0, 1, 0.88);
        m.insert(1, 0, 0.95);
        m.insert(2, 0, 0.95);
        assert_eq!(m.best(0).unwrap().0, 0, "raw scores prefer the hub");
        m.csls(2);
        assert_eq!(
            m.best(0).unwrap().0,
            1,
            "row 0 should prefer its specific match after CSLS"
        );
    }

    #[test]
    fn csls_identity_like_matrix_keeps_diagonal() {
        let mut m = SparseSimMatrix::new(3, 3);
        for r in 0..3 {
            m.insert(r, r as u32, 1.0);
            m.insert(r, ((r + 1) % 3) as u32, 0.2);
        }
        m.csls(2);
        for r in 0..3 {
            assert_eq!(m.best(r).unwrap().0 as usize, r);
        }
    }

    #[test]
    fn sinkhorn_balances_rows_and_columns() {
        let mut m = SparseSimMatrix::new(2, 2);
        m.insert(0, 0, 4.0);
        m.insert(0, 1, 1.0);
        m.insert(1, 0, 1.0);
        m.insert(1, 1, 1.0);
        m.sinkhorn(30);
        // row sums ≈ 1
        for r in 0..2 {
            let s: f32 = m.row(r).iter().map(|&(_, v)| v).sum();
            assert!((s - 1.0).abs() < 0.05, "row {r} sum {s}");
        }
        // column sums ≈ 1
        for c in 0..2u32 {
            let s: f32 = (0..2).filter_map(|r| m.get(r, c)).sum();
            assert!((s - 1.0).abs() < 0.05, "col {c} sum {s}");
        }
        // stronger diagonal survives
        assert!(m.get(0, 0).unwrap() > m.get(0, 1).unwrap());
    }

    #[test]
    fn sinkhorn_resolves_contested_column() {
        // rows 0 and 1 both prefer column 0, but row 1 has no alternative;
        // the transport prior shifts row 0 toward its fallback column
        let mut m = SparseSimMatrix::new(2, 2);
        m.insert(0, 0, 0.9);
        m.insert(0, 1, 0.8);
        m.insert(1, 0, 0.9);
        m.sinkhorn(50);
        assert_eq!(m.best(0).unwrap().0, 1, "row 0 should yield the hub");
        assert_eq!(m.best(1).unwrap().0, 0);
    }

    #[test]
    fn sinkhorn_clamps_negatives() {
        let mut m = SparseSimMatrix::new(1, 2);
        m.insert(0, 0, -1.0);
        m.insert(0, 1, 1.0);
        m.sinkhorn(3);
        assert_eq!(m.get(0, 0), Some(0.0));
        assert!((m.get(0, 1).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn greedy_one_to_one_is_injective_and_score_ordered() {
        let mut m = SparseSimMatrix::new(3, 3);
        m.insert(0, 0, 0.9);
        m.insert(1, 0, 0.95); // wins col 0 over row 0
        m.insert(0, 1, 0.5);
        m.insert(2, 1, 0.4);
        let pairs = m.greedy_one_to_one();
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
        // row 2 lost col 1 to row 0 and has no other candidate
    }

    #[test]
    fn greedy_one_to_one_takes_entries_in_the_comparator_order() {
        use largeea_common::check::for_each_case;
        // The decode as it was before the keys were packed and the sort
        // went: every entry, sorted by a three-way comparator over
        // (score desc, row asc, col asc), walked once.
        fn by_comparator(m: &SparseSimMatrix) -> Vec<(u32, u32)> {
            let mut entries: Vec<(f32, u32, u32)> = Vec::new();
            for r in 0..m.n_rows() {
                entries.extend(m.row(r).iter().map(|&(c, s)| (s, r as u32, c)));
            }
            entries.sort_by(|a, b| {
                (b.0.partial_cmp(&a.0).unwrap())
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            let (mut rows, mut cols) = (vec![false; m.n_rows()], vec![false; m.n_cols()]);
            let mut out = Vec::new();
            for (_, r, c) in entries {
                if !rows[r as usize] && !cols[c as usize] {
                    (rows[r as usize], cols[c as usize]) = (true, true);
                    out.push((r, c));
                }
            }
            out.sort_unstable();
            out
        }
        for_each_case(0x6EED, 64, |rng| {
            let (n_rows, n_cols) = (rng.gen_range(1..20usize), rng.gen_range(1..20usize));
            let mut m = SparseSimMatrix::new(n_rows, n_cols);
            for _ in 0..rng.gen_range(0..120usize) {
                // few distinct scores, both signs, both zeros, both
                // infinities, a denormal: ties and sign edges everywhere
                let score = match rng.gen_range(0..9u32) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => 1e-40,
                    5 => -1e-40,
                    _ => rng.gen_range(-3i32..4) as f32 * 0.25,
                };
                let (r, c) = (rng.gen_range(0..n_rows), rng.gen_range(0..n_cols) as u32);
                if m.get(r, c).is_none() {
                    m.insert(r, c, score);
                }
            }
            assert_eq!(m.greedy_one_to_one(), by_comparator(&m));
        });
        // Contended shapes, where rows lose their column again and again:
        // every row wants the same three columns most and falls back to a
        // few others; fewer columns than rows; some rows empty.
        for_each_case(0xC0DE, 64, |rng| {
            let n_rows = rng.gen_range(4..40usize);
            let n_cols = rng.gen_range(3..n_rows);
            let scores: &[f32] = match rng.gen_range(0..4u32) {
                0 => &[0.5],                     // all equal: row and column break every tie
                1 => &[0.0, -0.0],               // one score, two bit patterns
                2 => &[-1.0, -0.5, -0.25, -0.0], // nothing positive
                _ => &[0.9, 0.8, 0.7, 0.1, -0.1],
            };
            let mut m = SparseSimMatrix::new(n_rows, n_cols);
            for r in (0..n_rows).filter(|r| r % 7 != 3) {
                for c in 0..3 {
                    m.insert(r, c, scores[rng.gen_range(0..scores.len().min(3))]);
                }
                for _ in 0..rng.gen_range(0..6usize) {
                    let c = rng.gen_range(0..n_cols) as u32;
                    if m.get(r, c).is_none() {
                        m.insert(r, c, scores[rng.gen_range(0..scores.len())]);
                    }
                }
            }
            assert_eq!(m.greedy_one_to_one(), by_comparator(&m));
        });
    }

    #[test]
    #[should_panic(expected = "similarity scores are finite")]
    fn greedy_one_to_one_rejects_nan() {
        let mut m = SparseSimMatrix::new(1, 1);
        m.insert(0, 0, f32::NAN);
        m.greedy_one_to_one();
    }

    #[test]
    fn insert_row_equals_inserting_one_by_one() {
        use largeea_common::check::for_each_case;
        for_each_case(0x1205, 96, |rng| {
            let n_cols = rng.gen_range(1..30usize);
            let (n_stored, n_hits) = (rng.gen_range(0..12usize), rng.gen_range(0..40usize));
            let mut entries = |n: usize| -> Vec<(u32, f32)> {
                // repeated columns on purpose: sums must form in hit order
                let entry = |_| {
                    (
                        rng.gen_range(0..n_cols) as u32,
                        rng.gen::<f64>() as f32 - 0.3,
                    )
                };
                (0..n).map(entry).collect()
            };
            let (stored, hits) = (entries(n_stored), entries(n_hits));
            let mut one_by_one = SparseSimMatrix::new(2, n_cols);
            let mut bulk = SparseSimMatrix::new(2, n_cols);
            for &(c, s) in stored.iter().chain(&hits) {
                one_by_one.insert(1, c, s);
            }
            bulk.insert_row(1, stored);
            bulk.insert_row(1, hits);
            let bits = |m: &SparseSimMatrix| -> Vec<(u32, u32)> {
                m.row(1).iter().map(|&(c, s)| (c, s.to_bits())).collect()
            };
            assert_eq!(bits(&bulk), bits(&one_by_one));
            assert!(bulk.row(0).is_empty());
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_row_validates_cols() {
        SparseSimMatrix::new(1, 4).insert_row(0, vec![(1, 0.5), (4, 0.5)]);
    }

    #[test]
    fn greedy_one_to_one_empty() {
        assert!(SparseSimMatrix::new(2, 2).greedy_one_to_one().is_empty());
    }

    #[test]
    fn global_minmax_preserves_cross_row_order() {
        let mut m = SparseSimMatrix::new(2, 3);
        m.insert(0, 0, -2.0);
        m.insert(0, 1, -6.0);
        m.insert(1, 2, -10.0);
        m.normalize_global_minmax();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), Some(0.5));
        assert_eq!(m.get(1, 2), Some(0.0)); // row 1's best stays globally poor
    }

    #[test]
    fn global_minmax_constant_matrix() {
        let mut m = SparseSimMatrix::new(1, 2);
        m.insert(0, 0, 3.0);
        m.insert(0, 1, 3.0);
        m.normalize_global_minmax();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), Some(1.0));
    }

    #[test]
    fn from_topk_builds() {
        let m = SparseSimMatrix::from_topk(3, vec![vec![(2, 0.7), (0, 0.3)], vec![]]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(0), &[(0, 0.3), (2, 0.7)]);
        assert!(m.row(1).is_empty());
    }

    #[test]
    fn to_dense_matches() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(0, 1)], 0.9);
        assert_eq!(d[(1, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_validates_col() {
        SparseSimMatrix::new(1, 1).insert(0, 5, 1.0);
    }
}
