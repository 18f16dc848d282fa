//! Dense row-major `f32` matrix with cache-blocked parallel kernels.

use crate::kernels::{self, Isa};
use largeea_common::pool::Pool;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// Minimum number of output elements before a kernel goes parallel.
const PAR_THRESHOLD: usize = 64 * 64;

/// Minimum multiply-adds per matmul task: [`PAR_THRESHOLD`] output
/// elements of a 64-deep product.
const PAR_WORK: usize = PAR_THRESHOLD * 64;

/// Depth (k) tile for the packed-panel matmul: a KC×NC panel of B stays
/// resident in L1/L2 while MR rows of A stream against it.
const KC: usize = 128;
/// Column (j) tile for the packed-panel matmul.
const NC: usize = 256;
/// Register rows per micro-kernel call.
const MR: usize = 4;

// The unrolled dot / L1 reductions moved to [`crate::kernels`] (where they
// are the normative scalar reference behind runtime ISA dispatch); the
// historical `largeea_tensor::matrix::{dot, l1_distance}` paths stay valid.
pub use crate::kernels::{dot, l1_distance};

/// A dense row-major matrix of `f32`.
///
/// Row-major layout keeps the GNN hot loops (`C[i,:] += A[i,k] * B[k,:]`)
/// sequential in memory; parallelism is over disjoint output-row blocks, so
/// results are bit-identical regardless of thread count.
///
/// ```
/// use largeea_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(a.matmul(&i), a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from an existing buffer (length must be `rows*cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// `self`'s buffer reshaped to `rows × cols` when it holds exactly that
    /// many elements (contents are whatever they were — the caller
    /// overwrites them), a fresh zeroed matrix otherwise. This is how the
    /// autograd tape reuses last step's node buffers.
    pub(crate) fn recycle(mut self, rows: usize, cols: usize) -> Self {
        if self.data.len() != rows * cols {
            return Self::zeros(rows, cols);
        }
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Bytes of the backing buffer — used by the memory accounting that
    /// stands in for the paper's GPU-memory metric.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing slice, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing slice, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self @ other` — cache-blocked and parallel over
    /// output-row blocks on the global pool.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_in(other, Pool::global())
    }

    /// [`Matrix::matmul`] on an explicit pool, so tests can pin the width.
    ///
    /// i-k-j loop order with KC×NC panel blocking: each task packs the
    /// active B panel into contiguous scratch and streams MR rows of A
    /// against it per micro-kernel call. Every output element accumulates
    /// its products strictly in ascending-`k` order — one add per `k` —
    /// so the result is bit-identical to the naive triple loop for any
    /// blocking and any thread count.
    ///
    /// There is deliberately no `a[i,k] == 0.0` skip: the branch defeats
    /// vectorisation of the inner j-loop and loses on dense inputs (see
    /// EXPERIMENTS.md); sparse operands belong in [`crate::SparseMatrix`].
    pub fn matmul_in(&self, other: &Matrix, pool: &Pool) -> Matrix {
        self.matmul_on(other, pool, kernels::active_isa())
    }

    /// [`Matrix::matmul_in`] on an explicit kernel [`Isa`] — the hook
    /// `kernel_bench` and the dispatch tests use to compare instruction
    /// sets. [`Isa::Scalar`] is the normative reference; every ISA is
    /// bit-identical to it by the §S0.11 contract (and falls back to
    /// scalar when the hardware lacks it).
    pub fn matmul_on(&self, other: &Matrix, pool: &Pool, isa: Isa) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, pool, isa, &mut out);
        out
    }

    /// The body of [`Matrix::matmul_on`]: overwrites `out`
    /// (`self.rows × other.cols`) with the product.
    pub(crate) fn matmul_into(&self, other: &Matrix, pool: &Pool, isa: Isa, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul out shape");
        let m = other.cols;
        let k_dim = self.cols;
        if self.rows == 0 || m == 0 {
            return;
        }
        if k_dim == 0 {
            out.fill_zero();
            return;
        }
        let a = &self.data;
        let b = &other.data;
        // sized by work, not by output: a small output over a deep `k`
        // (the backward `Xᵀ·G`) still splits
        let min_rows = (PAR_WORK / k_dim.saturating_mul(m)).max(MR);
        pool.rows_mut(&mut out.data, m, min_rows, |block, first_row| {
            matmul_block(a, b, block, first_row, k_dim, m, isa);
        });
    }

    /// Transposed copy — tiled to keep both source and destination
    /// accesses cache-resident (the naive loop does strided column writes),
    /// parallel over output-row bands on the global pool.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// The body of [`Matrix::transpose`]: overwrites `out`
    /// (`self.cols × self.rows`).
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(out.shape(), (cols, rows), "transpose out shape");
        if rows == 0 || cols == 0 {
            return;
        }
        let src = &self.data;
        let min_rows = (PAR_THRESHOLD / rows).max(TILE);
        Pool::global().rows_mut(&mut out.data, rows, min_rows, |block, first_row| {
            // Output rows are source columns `first_row..`; walk the source
            // in TILE-row strips so each strip is read once per ~TILE
            // output rows while it is still cached.
            for i0 in (0..rows).step_by(TILE) {
                let i1 = (i0 + TILE).min(rows);
                for (ci, out_row) in block.chunks_mut(rows).enumerate() {
                    let c = first_row + ci;
                    for (o, i) in out_row[i0..i1].iter_mut().zip(i0..i1) {
                        *o = src[i * cols + c];
                    }
                }
            }
        });
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` element-wise (axpy), via the dispatched
    /// [`kernels::axpy`] — bit-identical on every ISA.
    pub fn add_scaled_assign(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// L2-normalises each row in place: `x ← x / (‖x‖₂ + ε)`.
    ///
    /// Matches the paper's entity-embedding normalisation (ε guards the
    /// all-zero row).
    pub fn l2_normalize_rows(&mut self, eps: f32) {
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        let min_rows = (PAR_THRESHOLD / cols).max(1);
        Pool::global().rows_mut(&mut self.data, cols, min_rows, |block, _| {
            for row in block.chunks_mut(cols) {
                let norm = dot(row, row).sqrt();
                let inv = 1.0 / (norm + eps);
                for x in row {
                    *x *= inv;
                }
            }
        });
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Manhattan (L1) distance between row `i` of `self` and row `j` of
    /// `other` — the paper's similarity metric for both channels.
    /// Unrolled via [`l1_distance`].
    pub fn manhattan(&self, i: usize, other: &Matrix, j: usize) -> f32 {
        debug_assert_eq!(self.cols, other.cols);
        l1_distance(self.row(i), other.row(j))
    }

    /// Dot product between row `i` of `self` and row `j` of `other`.
    /// Unrolled via [`dot`].
    pub fn row_dot(&self, i: usize, other: &Matrix, j: usize) -> f32 {
        debug_assert_eq!(self.cols, other.cols);
        dot(self.row(i), other.row(j))
    }

    /// Copies the rows of `self` selected by `indices` into a new matrix.
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// The body of [`Matrix::gather_rows`]: overwrites `out`
    /// (`indices.len() × self.cols`).
    pub(crate) fn gather_rows_into(&self, indices: &[u32], out: &mut Matrix) {
        assert_eq!(out.shape(), (indices.len(), self.cols), "gather out shape");
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src as usize));
        }
    }

    /// Vertically stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Borrows rows `range` — a view, not a copy.
    pub fn row_range(&self, range: Range<usize>) -> Rows<'_> {
        Rows::from(self).row_range(range)
    }
}

/// Computes `block = A[first_row.., :] @ B` for one row-aligned output
/// block (`block.len()` is a multiple of `m`). See [`Matrix::matmul_in`]
/// for the blocking scheme and the determinism argument; the micro-kernels
/// are `isa`-dispatched but bit-identical across ISAs (§S0.11).
fn matmul_block(
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    first_row: usize,
    k_dim: usize,
    m: usize,
    isa: Isa,
) {
    let nrows = block.len() / m;
    // The micro-kernels accumulate, so the block starts from zero whatever
    // the (possibly recycled) output buffer held.
    block.fill(0.0);
    // Packing scratch, needed only when B is wider than one NC panel.
    let mut panel = Vec::new();
    for kc in (0..k_dim).step_by(KC) {
        let kc_len = KC.min(k_dim - kc);
        for jc in (0..m).step_by(NC) {
            let nc_len = NC.min(m - jc);
            let packed: &[f32] = if nc_len == m {
                // The whole row band of B is already contiguous.
                &b[kc * m..(kc + kc_len) * m]
            } else {
                panel.resize(KC.min(k_dim) * NC, 0.0f32);
                for (dst, kk) in panel.chunks_mut(nc_len).zip(0..kc_len) {
                    let src = (kc + kk) * m + jc;
                    dst.copy_from_slice(&b[src..src + nc_len]);
                }
                &panel[..kc_len * nc_len]
            };
            let a_strip = |i: usize| &a[i * k_dim + kc..i * k_dim + kc + kc_len];
            let mut r = 0;
            while r + MR <= nrows {
                let rows = &mut block[r * m..(r + MR) * m];
                let (o0, rest) = rows.split_at_mut(m);
                let (o1, rest) = rest.split_at_mut(m);
                let (o2, o3) = rest.split_at_mut(m);
                let i = first_row + r;
                kernels::mk4_on(
                    isa,
                    [a_strip(i), a_strip(i + 1), a_strip(i + 2), a_strip(i + 3)],
                    packed,
                    nc_len,
                    [
                        &mut o0[jc..jc + nc_len],
                        &mut o1[jc..jc + nc_len],
                        &mut o2[jc..jc + nc_len],
                        &mut o3[jc..jc + nc_len],
                    ],
                );
                r += MR;
            }
            while r < nrows {
                let out_row = &mut block[r * m + jc..r * m + jc + nc_len];
                kernels::mk1_on(isa, a_strip(first_row + r), packed, nc_len, out_row);
                r += 1;
            }
        }
    }
}

/// A borrowed `rows × cols` block of row-major floats: a whole [`Matrix`]
/// (`Rows::from(&m)`) or a row range of one ([`Matrix::row_range`]). Code
/// that only reads rows takes this, so its callers hand it part of a matrix
/// without copying that part out.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Every row, row-major.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Rows `range` of this view.
    pub fn row_range(&self, range: Range<usize>) -> Rows<'a> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} of {} rows",
            self.rows
        );
        Rows {
            rows: range.len(),
            cols: self.cols,
            data: &self.data[range.start * self.cols..range.end * self.cols],
        }
    }
}

impl<'a> From<&'a Matrix> for Rows<'a> {
    fn from(m: &'a Matrix) -> Self {
        Rows {
            rows: m.rows,
            cols: m.cols,
            data: &m.data,
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // the second shape is a small output over a deep `k`, split into
        // tasks by work
        for (n, k, m) in [(130, 70, 90), (16, 2000, 16)] {
            let a = Matrix::from_fn(n, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, m, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
            // sequential reference
            let mut expect = Matrix::zeros(n, m);
            for i in 0..n {
                for kk in 0..k {
                    for j in 0..m {
                        expect[(i, j)] += a[(i, kk)] * b[(kk, j)];
                    }
                }
            }
            assert_eq!(a.matmul(&b), expect);
            for width in [1, 2, 4] {
                assert_eq!(a.matmul_in(&b, &Pool::new(width)), expect, "width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        m(2, 3, &[0.; 6]).matmul(&m(2, 3, &[0.; 6]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut a = m(2, 2, &[3., 4., 0., 0.]);
        a.l2_normalize_rows(1e-12);
        assert!((a.row(0).iter().map(|x| x * x).sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(a.row(1), &[0.0, 0.0]); // eps guards zero rows
    }

    #[test]
    fn manhattan_distance() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[2., 0., 3.]);
        assert_eq!(a.manhattan(0, &b, 0), 3.0);
    }

    #[test]
    fn gather_rows_selects() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn stack_operations() {
        let a = m(1, 2, &[1., 2.]);
        let b = m(1, 2, &[3., 4.]);
        assert_eq!(a.vstack(&b).as_slice(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn row_ranges_borrow_the_rows_they_name() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let mid = a.row_range(1..3);
        assert_eq!((mid.rows(), mid.cols()), (2, 2));
        assert_eq!(mid.as_slice(), &[3., 4., 5., 6.]);
        assert_eq!(mid.row(1), a.row(2));
        assert_eq!(mid.row_range(1..2).as_slice(), &[5., 6.]);
        assert_eq!(a.row_range(3..3).rows(), 0);
        let whole = Rows::from(&a);
        assert_eq!(whole.as_slice(), a.as_slice());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m(1, 3, &[1., 1., 1.]);
        let b = m(1, 3, &[1., 2., 3.]);
        a.add_scaled_assign(&b, 2.0);
        assert_eq!(a.as_slice(), &[3., 5., 7.]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn nbytes_tracks_buffer() {
        assert_eq!(Matrix::zeros(10, 10).nbytes(), 400);
    }

    #[test]
    fn from_fn_layout() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.as_slice(), &[0., 1., 2., 10., 11., 12.]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn matmul_bit_identical_across_isas() {
        // Shapes straddle the KC/NC panel edges and the MR row remainder so
        // both micro-kernels and their vector tails are exercised.
        let pool = Pool::new(2);
        for (n, k, m) in [(9, 5, 7), (130, 129, 257), (67, 128, 31)] {
            let a = Matrix::from_fn(n, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, m, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
            let reference = a.matmul_on(&b, &pool, Isa::Scalar);
            for isa in [Isa::Avx2, Isa::Neon] {
                if !isa.available() {
                    continue;
                }
                let got = a.matmul_on(&b, &pool, isa);
                assert_eq!(got, reference, "{} {n}x{k}x{m}", isa.name());
            }
            assert_eq!(a.matmul_in(&b, &pool), reference, "dispatched path");
        }
    }
}
