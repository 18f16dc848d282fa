//! CSR sparse matrix — the GNN propagation primitive.

use crate::matrix::Matrix;
use crate::parallel::Pool;

/// A compressed-sparse-row matrix of `f32`.
///
/// Built once per mini-batch from the KG adjacency (COO triplets, duplicates
/// summed) and then used read-only inside the training loop, so construction
/// favours clarity and `spmm` favours speed.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from COO triplets `(row, col, value)`. Duplicate coordinates
    /// are summed (the standard convention; parallel KG edges accumulate).
    pub fn from_coo(rows: usize, cols: usize, mut coo: Vec<(u32, u32, f32)>) -> Self {
        coo.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(coo.len());
        let mut values: Vec<f32> = Vec::with_capacity(coo.len());
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in coo {
            assert!((r as usize) < rows, "row {r} out of range 0..{rows}");
            assert!((c as usize) < cols, "col {c} out of range 0..{cols}");
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty after first push") += v;
            } else {
                indptr[r as usize + 1] += 1;
                indices.push(c);
                values.push(v);
                last = Some((r, c));
            }
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the backing buffers (memory accounting).
    pub fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let range = self.indptr[r]..self.indptr[r + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Sum of each row, as a length-`rows` vector.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> SparseMatrix {
        let mut coo = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                coo.push((c, r as u32, v));
            }
        }
        SparseMatrix::from_coo(self.cols, self.rows, coo)
    }

    /// Symmetric GCN normalisation `D^{-1/2} (A + I) D^{-1/2}` where `A` is
    /// `self` (must be square). Rows/cols with zero degree stay zero apart
    /// from the self-loop, which keeps isolated entities stable under
    /// propagation.
    pub fn gcn_normalized(&self) -> SparseMatrix {
        assert_eq!(self.rows, self.cols, "gcn_normalized requires square");
        let n = self.rows;
        let mut coo: Vec<(u32, u32, f32)> = Vec::with_capacity(self.nnz() + n);
        for r in 0..n {
            for (c, v) in self.row(r) {
                coo.push((r as u32, c, v));
            }
            coo.push((r as u32, r as u32, 1.0)); // self-loop
        }
        let with_loops = SparseMatrix::from_coo(n, n, coo);
        let deg = with_loops.row_sums();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = with_loops;
        for r in 0..n {
            let range = out.indptr[r]..out.indptr[r + 1];
            for k in range {
                let c = out.indices[k] as usize;
                out.values[k] *= inv_sqrt[r] * inv_sqrt[c];
            }
        }
        out
    }

    /// Row-stochastic normalisation `D^{-1} A` (mean aggregation).
    pub fn row_normalized(&self) -> SparseMatrix {
        let sums = self.row_sums();
        let mut out = self.clone();
        for (r, &s) in sums.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let inv = 1.0 / s;
            for k in out.indptr[r]..out.indptr[r + 1] {
                out.values[k] *= inv;
            }
        }
        out
    }

    /// Sparse × dense product `self @ dense` (parallel over output-row
    /// blocks on the global pool).
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        self.spmm_in(dense, Pool::global())
    }

    /// [`SparseMatrix::spmm`] on an explicit pool, so tests can pin the
    /// width. Output rows are disjoint per task and each row accumulates
    /// its non-zeros in CSR (ascending-column) order, so results are
    /// bit-identical for any thread count.
    pub fn spmm_in(&self, dense: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, pool, &mut out);
        out
    }

    /// The body of [`SparseMatrix::spmm_in`]: overwrites `out`
    /// (`self.rows × dense.cols`).
    pub(crate) fn spmm_into(&self, dense: &Matrix, pool: &Pool, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} @ {:?}",
            self.rows,
            self.cols,
            dense.shape()
        );
        let cols = dense.cols();
        assert_eq!(out.shape(), (self.rows, cols), "spmm out shape");
        if cols == 0 {
            return;
        }
        let indptr = &self.indptr;
        let indices = &self.indices;
        let values = &self.values;
        let min_rows = ((64 * 64) / cols).max(1);
        pool.rows_mut(out.as_mut_slice(), cols, min_rows, |block, first_row| {
            for (ri, out_row) in block.chunks_mut(cols).enumerate() {
                let r = first_row + ri;
                out_row.fill(0.0);
                for k in indptr[r]..indptr[r + 1] {
                    let c = indices[k] as usize;
                    let v = values[k];
                    let src = dense.row(c);
                    for (o, &s) in out_row.iter_mut().zip(src) {
                        *o += v * s;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        SparseMatrix::from_coo(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = SparseMatrix::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 3.0)]);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let d = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let out = s.spmm(&d);
        // dense equivalent
        let dense = Matrix::from_fn(3, 3, |r, c| {
            s.row(r)
                .find(|&(cc, _)| cc as usize == c)
                .map_or(0.0, |(_, v)| v)
        });
        assert_eq!(out, dense.matmul(&d));
    }

    #[test]
    fn spmm_empty_row_is_zero() {
        let s = sample();
        let d = Matrix::from_fn(3, 2, |_, _| 1.0);
        let out = s.spmm(&d);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let s = sample();
        assert_eq!(s.transpose().transpose(), s);
        let t = s.transpose();
        let row0: Vec<_> = t.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = SparseMatrix::identity(3);
        let d = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        assert_eq!(i.spmm(&d), d);
    }

    #[test]
    fn gcn_normalized_rows_of_regular_graph() {
        // path graph 0-1-2 (symmetric)
        let a = SparseMatrix::from_coo(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        );
        let n = a.gcn_normalized();
        // degree+1: [2,3,2]; check diagonal entries
        let d0: f32 = n.row(0).find(|&(c, _)| c == 0).unwrap().1;
        assert!((d0 - 0.5).abs() < 1e-6);
        let d1: f32 = n.row(1).find(|&(c, _)| c == 1).unwrap().1;
        assert!((d1 - 1.0 / 3.0).abs() < 1e-6);
        // symmetry: entry (0,1) equals entry (1,0) = 1/sqrt(2*3)
        let e01: f32 = n.row(0).find(|&(c, _)| c == 1).unwrap().1;
        let e10: f32 = n.row(1).find(|&(c, _)| c == 0).unwrap().1;
        assert!((e01 - e10).abs() < 1e-6);
        assert!((e01 - 1.0 / 6.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn gcn_normalized_isolated_vertex() {
        let a = SparseMatrix::from_coo(2, 2, vec![(0, 0, 0.0)]);
        let n = a.gcn_normalized();
        // isolated vertex keeps a unit self-loop
        let d1: f32 = n.row(1).find(|&(c, _)| c == 1).unwrap().1;
        assert!((d1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn row_normalized_is_stochastic() {
        let s = sample();
        let n = s.row_normalized();
        let sums = n.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert_eq!(sums[1], 0.0); // empty row left untouched
        assert!((sums[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_coo_validates_bounds() {
        SparseMatrix::from_coo(2, 2, vec![(5, 0, 1.0)]);
    }

    #[test]
    fn nbytes_positive() {
        assert!(sample().nbytes() > 0);
    }
}
