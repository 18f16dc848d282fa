//! Reverse-mode tape autograd.
//!
//! The EA models in this workspace (GCN-Align, RREA and the re-implemented
//! baselines) need a small, fixed set of differentiable operations. Rather
//! than hand-deriving each model's gradients we provide a tape: forward
//! calls on [`Tape`] record one operation per node, [`Tape::backward`]
//! walks the tape in reverse accumulating gradients. Matrices are the only
//! tensor rank; "vectors" are `n × 1` matrices.
//!
//! The graph is still defined by running it (define-by-run), once per
//! optimisation step, but the tape is **recycled** rather than rebuilt:
//! [`Tape::reset`] forgets the graph and keeps every node's value buffer,
//! and the next step's node *i* takes over node *i*'s old buffer when the
//! element count matches (and allocates otherwise). Gradients are **leased**:
//! a node's gradient, like every backward temporary, comes from the tape's
//! one free list (matched by element count) when its first contribution
//! arrives and goes back as soon as the node has propagated, so the tape
//! holds the gradients that are live, not one per node. Only parameter
//! leaves keep theirs past [`Tape::backward`] — the optimiser reads them —
//! and hand them back at `reset()`, so every step starts from the same free
//! list: a training loop runs the same graph every step, and after the
//! first a forward + backward pass allocates nothing. Learnable parameters
//! live outside the tape in an [`optim::ParamStore`] and are copied into
//! gradient-requiring leaves each step.
//!
//! Neither changes a result: every operation overwrites its whole output,
//! and a gradient contribution is either written into a fresh lease or —
//! fully formed first, wherever it is itself a sum — added to the live one,
//! the same `slot + delta` the allocating formulation computed.
//!
//! Nor does the pool. The fused nodes' passes are **destination-ordered**:
//! one task owns each output row — of a value or of a gradient — and sums
//! into it in a fixed order (a scatter-add visits a row's sources through
//! the row's [`IndexList`] group, ascending), so every row holds the same
//! bits at any pool width.
//!
//! [`optim::ParamStore`]: crate::optim::ParamStore

use crate::kernels::{self, active_isa, scalar::signum_or_zero};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use largeea_common::pool::Pool;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// Output elements a pool task gets at least — the split `spmm` makes.
const PAR_ELEMS: usize = 64 * 64;

/// Rows a pool task gets at least when a row costs about `cols` elements'
/// work.
fn min_rows(cols: usize) -> usize {
    (PAR_ELEMS / cols.max(1)).max(1)
}

/// Columns a destination-ordered backward pass sums at once, on the stack.
const BLOCK: usize = 64;

/// Columns the triplet loss's backward sums at once: its walk over a row's
/// four parts costs per block, so one block covers RREA's 192-wide rows.
const TRIPLET_BLOCK: usize = 256;

/// A row-index list (a gather list into a matrix of `n_rows` rows) with its
/// positions grouped by the row they name, ascending within a row: the
/// order a scatter-add back into that matrix visits them, so one pass per
/// destination row reproduces the sequential scatter's sums. Build it once
/// per index list — RREA's message lists per model, the triplet lists per
/// negative resample.
#[derive(Debug, Clone)]
pub struct IndexList {
    idx: Vec<u32>,
    /// Row `r`'s positions are `order[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl IndexList {
    /// Groups `idx`, whose every entry is below `n_rows`, by row: one
    /// stable counting sort.
    pub fn new(idx: Vec<u32>, n_rows: usize) -> Self {
        // counts, then each row's first position, then (as cursors) each
        // row's end, which is the next row's start
        let mut starts = vec![0u32; n_rows + 1];
        for &r in &idx {
            assert!((r as usize) < n_rows, "index {r} of {n_rows} rows");
            starts[r as usize] += 1;
        }
        let mut sum = 0;
        for s in &mut starts {
            (*s, sum) = (sum, sum + *s);
        }
        let mut order = vec![0u32; idx.len()];
        for (i, &r) in idx.iter().enumerate() {
            let cursor = &mut starts[r as usize];
            order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Self { idx, starts, order }
    }

    /// Number of rows the list indexes into.
    fn n_rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// The positions naming row `r`, ascending.
    fn positions(&self, r: usize) -> &[u32] {
        &self.order[self.starts[r] as usize..self.starts[r + 1] as usize]
    }
}

impl Deref for IndexList {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.idx
    }
}

/// A sparse operand for [`Tape::spmm`]: the matrix plus its precomputed
/// transpose (needed by the backward pass). Build once per mini-batch.
#[derive(Debug, Clone)]
pub struct SpOp {
    /// Forward operand.
    pub mat: SparseMatrix,
    /// `mat` transposed, used to back-propagate through `spmm`.
    pub trans: SparseMatrix,
}

impl SpOp {
    /// Wraps `mat`, computing its transpose eagerly.
    pub fn new(mat: SparseMatrix) -> Rc<Self> {
        let trans = mat.transpose();
        Rc::new(Self { mat, trans })
    }

    /// Wraps a structurally symmetric matrix without recomputing the
    /// transpose (GCN-normalised adjacency is symmetric).
    pub fn symmetric(mat: SparseMatrix) -> Rc<Self> {
        let trans = mat.clone();
        Rc::new(Self { mat, trans })
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Spmm(Rc<SpOp>, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Tanh(Var),
    GatherRows(Var, Rc<Vec<u32>>),
    L2NormRows {
        /// The normalised parts, side by side: a range of the tape's `parts`.
        parts: Range<usize>,
        eps: f32,
    },
    RowL1(Var, Var),
    RowDot(Var, Var),
    MulBroadcastCol(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    ReflectAggregate {
        agg: Rc<SpOp>,
        h: Var,
        r: Var,
        /// The `messages × 1` by-product node holding each message's `x·r`.
        dots: Var,
        h_rows: Rc<IndexList>,
        r_rows: Rc<IndexList>,
    },
    TripletL1 {
        emb: Var,
        /// The `rows × 2` by-product node holding both hinges of each row.
        hinges: Var,
        s: Rc<IndexList>,
        t: Rc<IndexList>,
        neg_t: Rc<IndexList>,
        neg_s: Rc<IndexList>,
    },
}

struct Node {
    op: Op,
    value: Matrix,
    /// The gradient, on lease from the tape's free list while it is live.
    grad: Option<Matrix>,
    requires_grad: bool,
}

/// The gradient tape. See the [module docs](self) for the usage model.
#[derive(Default)]
pub struct Tape {
    /// `nodes[..live]` is the current graph; `nodes[live..]` are nodes of
    /// the graph before the last [`Tape::reset`], whose buffers the next
    /// pushes take over.
    nodes: Vec<Node>,
    live: usize,
    /// Free list every gradient and backward temporary is leased from,
    /// matched by element count.
    scratch: Vec<Matrix>,
    /// The part lists of the current graph's normalisation nodes, end to
    /// end (cleared, not freed, by [`Tape::reset`]).
    parts: Vec<Var>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the recorded graph but keeps its buffers for the next one
    /// (see the [module docs](self)), letting go of the index lists and
    /// sparse operands its operations shared. Every [`Var`] handed out so
    /// far is invalid afterwards.
    pub fn reset(&mut self) {
        self.release_grads();
        for node in &mut self.nodes[..self.live] {
            node.op = Op::Leaf;
        }
        self.live = 0;
        self.parts.clear();
    }

    /// Returns every gradient still on lease (the leaves') to the free list.
    fn release_grads(&mut self) {
        let grads = self.nodes[..self.live]
            .iter_mut()
            .filter_map(|n| n.grad.take());
        self.scratch.extend(grads);
    }

    /// Bytes of every buffer the tape holds on to: node values, the leaf
    /// gradients still on lease and the free list (every other gradient and
    /// backward temporary of the last step) — the training-time working set
    /// beyond parameters and optimiser state.
    pub fn nbytes(&self) -> usize {
        let nodes = self
            .nodes
            .iter()
            .map(|n| n.value.nbytes() + n.grad.as_ref().map_or(0, Matrix::nbytes));
        nodes.chain(self.scratch.iter().map(Matrix::nbytes)).sum()
    }

    /// The buffer the next pushed node's value goes into: the previous
    /// graph's buffer at that position if it has `rows * cols` elements
    /// (contents stale), a fresh one otherwise.
    fn out(&mut self, rows: usize, cols: usize) -> Matrix {
        let old = self
            .nodes
            .get_mut(self.live)
            .map(|n| std::mem::take(&mut n.value));
        old.unwrap_or_default().recycle(rows, cols)
    }

    fn push(&mut self, op: Op, value: Matrix, requires_grad: bool) -> Var {
        match self.nodes.get_mut(self.live) {
            Some(n) => {
                n.op = op;
                n.value = value;
                n.requires_grad = requires_grad;
            }
            None => self.nodes.push(Node {
                op,
                value,
                grad: None,
                requires_grad,
            }),
        }
        self.live += 1;
        Var(self.live - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    fn leaf(&mut self, value: &Matrix, requires_grad: bool) -> Var {
        let mut out = self.out(value.rows(), value.cols());
        out.as_mut_slice().copy_from_slice(value.as_slice());
        self.push(Op::Leaf, out, requires_grad)
    }

    /// Adds a gradient-requiring leaf holding a copy of `value` (a
    /// learnable parameter).
    pub fn param(&mut self, value: &Matrix) -> Var {
        self.leaf(value, true)
    }

    /// Adds a constant leaf holding a copy of `value` (inputs, fixed
    /// features).
    pub fn constant(&mut self, value: &Matrix) -> Var {
        self.leaf(value, false)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        assert!(v.0 < self.live, "Var from before the last reset()");
        &self.nodes[v.0].value
    }

    /// The forward value of `v`, handed over without a copy as the tape
    /// goes (the rest of its buffers are freed).
    pub fn into_value(mut self, v: Var) -> Matrix {
        assert!(v.0 < self.live, "Var from before the last reset()");
        std::mem::take(&mut self.nodes[v.0].value)
    }

    /// The accumulated gradient of leaf `v`, if [`Tape::backward`] produced
    /// one. An operation's output has handed its gradient back by then and
    /// answers `None`.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[..self.live][v.0].grad.as_ref()
    }

    /// Pushes `f` applied to every element of `a`.
    fn map(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.out(rows, cols);
        for (o, &x) in out.as_mut_slice().iter_mut().zip(self.value(a).as_slice()) {
            *o = f(x);
        }
        let rg = self.rg(a);
        self.push(op, out, rg)
    }

    /// Pushes `f` applied to every element pair of equal-shaped `a`, `b`.
    fn zip(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.out(rows, cols);
        let (xa, xb) = (self.value(a).as_slice(), self.value(b).as_slice());
        for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(xa).zip(xb) {
            *o = f(x, y);
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(op, out, rg)
    }

    /// Dense product. See [`Matrix::matmul`].
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.out(self.value(a).rows(), self.value(b).cols());
        matmul_into(self.value(a), self.value(b), &mut out);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MatMul(a, b), out, rg)
    }

    /// Sparse × dense product (GNN propagation step).
    pub fn spmm(&mut self, s: &Rc<SpOp>, d: Var) -> Var {
        let mut out = self.out(s.mat.rows(), self.value(d).cols());
        s.mat.spmm_into(self.value(d), Pool::global(), &mut out);
        let rg = self.rg(d);
        self.push(Op::Spmm(Rc::clone(s), d), out, rg)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "add shapes");
        self.zip(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "sub shapes");
        self.zip(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "mul shapes");
        self.zip(a, b, Op::MulElem(a, b), |x, y| x * y)
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.map(a, Op::Scale(a, c), |x| x * c)
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.map(a, Op::AddScalar(a), |x| x + c)
    }

    /// Rectified linear unit, element-wise.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map(a, Op::Relu(a), relu)
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map(a, Op::Tanh(a), f32::tanh)
    }

    /// Selects rows by index (embedding lookup). Backward scatter-adds.
    pub fn gather_rows(&mut self, a: Var, indices: Rc<Vec<u32>>) -> Var {
        let mut out = self.out(indices.len(), self.value(a).cols());
        self.value(a).gather_rows_into(&indices, &mut out);
        let rg = self.rg(a);
        self.push(Op::GatherRows(a, indices), out, rg)
    }

    /// Row-wise L2 normalisation `x ← x / (‖x‖ + eps)` of `parts` side by
    /// side (equal row counts): row `r` is `[p₀[r], p₁[r], …]` normalised as
    /// one row. Multi-hop GNN outputs keep each hop in its own column block
    /// this way without a concatenated matrix existing in either direction:
    /// forward writes each part into its block of the output row and
    /// normalises the row in place, backward hands each part its block of
    /// the row's gradient — the bits a concatenated input gives.
    pub fn l2_normalize_rows(&mut self, parts: &[Var], eps: f32) -> Var {
        assert!(!parts.is_empty(), "l2_normalize_rows needs a part");
        let rows = self.value(parts[0]).rows();
        let cols = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = self.out(rows, cols);
        let mut at = 0;
        for &p in parts {
            let x = self.value(p);
            assert_eq!(x.rows(), rows, "l2_normalize_rows part rows");
            for r in 0..rows {
                out.row_mut(r)[at..at + x.cols()].copy_from_slice(x.row(r));
            }
            at += x.cols();
        }
        out.l2_normalize_rows(eps);
        let rg = parts.iter().any(|&p| self.rg(p));
        let first = self.parts.len();
        self.parts.extend_from_slice(parts);
        let op = Op::L2NormRows {
            parts: first..self.parts.len(),
            eps,
        };
        self.push(op, out, rg)
    }

    /// Pushes the `n × 1` column of `f(a, b, row)` over equal-shaped
    /// `a`, `b`.
    fn row_reduce(
        &mut self,
        a: Var,
        b: Var,
        op: Op,
        f: impl Fn(&Matrix, &Matrix, usize) -> f32,
    ) -> Var {
        let rows = self.value(a).rows();
        let mut out = self.out(rows, 1);
        let (ma, mb) = (self.value(a), self.value(b));
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = f(ma, mb, i);
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(op, out, rg)
    }

    /// Per-row Manhattan distance between two equal-shaped matrices,
    /// producing an `n × 1` column.
    pub fn row_l1(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "row_l1 shapes"
        );
        self.row_reduce(a, b, Op::RowL1(a, b), |ma, mb, i| ma.manhattan(i, mb, i))
    }

    /// Per-row dot product, producing an `n × 1` column.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "row_dot shapes"
        );
        self.row_reduce(a, b, Op::RowDot(a, b), |ma, mb, i| ma.row_dot(i, mb, i))
    }

    /// Broadcast-multiplies each row of `a` (`n × d`) by the matching scalar
    /// of column `b` (`n × 1`). Used by RREA's reflection `x − 2(x·r)r`.
    pub fn mul_broadcast_col(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(self.value(b).cols(), 1, "broadcast column must be n×1");
        assert_eq!(rows, self.value(b).rows(), "broadcast row mismatch");
        let mut out = self.out(rows, cols);
        let (ma, mb) = (self.value(a), self.value(b));
        for i in 0..rows {
            let s = mb[(i, 0)];
            for (o, &x) in out.row_mut(i).iter_mut().zip(ma.row(i)) {
                *o = x * s;
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MulBroadcastCol(a, b), out, rg)
    }

    /// One RREA hop as one node: `agg @ reflect(h, r)`, where message `m`
    /// (a column of `agg`) is the relational reflection `x − 2(x·r)r` of
    /// `x = h[h_rows[m]]` through `r = r[r_rows[m]]` (`r` rows are expected
    /// unit-normalised).
    ///
    /// Value and gradients are bit-identical to composing `gather_rows` ×2,
    /// `row_dot`, `mul_broadcast_col`, `scale(2)`, `sub` and `spmm`, but no
    /// `messages × dim` matrix exists in either direction: each output row
    /// sums `v·(x − (r·(x·r))·2)` over its CSR entries in column order, and
    /// backward rebuilds a message's upstream row as it scatters it, one
    /// destination row of `r` (grouped by `r_rows`) and then of `h`
    /// (grouped by `h_rows`) at a time.
    pub fn reflect_aggregate(
        &mut self,
        agg: &Rc<SpOp>,
        h: Var,
        r: Var,
        h_rows: Rc<IndexList>,
        r_rows: Rc<IndexList>,
    ) -> Var {
        let msgs = agg.mat.cols();
        assert!(
            h_rows.len() == msgs && r_rows.len() == msgs,
            "reflect_aggregate needs one h and one r row per agg column"
        );
        let cols = self.value(h).cols();
        assert_eq!(self.value(r).cols(), cols, "reflect_aggregate widths");
        assert!(
            h_rows.n_rows() == self.value(h).rows() && r_rows.n_rows() == self.value(r).rows(),
            "reflect_aggregate's lists must group h's and r's rows"
        );
        let (h_of, r_of) = (&h_rows[..], &r_rows[..]);
        let mut dots = self.out(msgs, 1);
        let (mh, mr) = (self.value(h), self.value(r));
        par_rows(&mut dots, min_rows(cols), |m, d| {
            d[0] = mh.row_dot(h_of[m] as usize, mr, r_of[m] as usize);
        });
        let dots = self.push(Op::Leaf, dots, false);
        let mut out = self.out(agg.mat.rows(), cols);
        let (mh, mr, md) = (self.value(h), self.value(r), self.value(dots));
        let SparseMatrix {
            indptr,
            indices,
            values,
            ..
        } = &agg.mat;
        par_rows(&mut out, min_rows(cols), |row, out_row| {
            out_row.fill(0.0);
            for k in indptr[row]..indptr[row + 1] {
                let (m, v) = (indices[k] as usize, values[k]);
                let d = md[(m, 0)];
                let xr = mh
                    .row(h_of[m] as usize)
                    .iter()
                    .zip(mr.row(r_of[m] as usize));
                for (o, (&x, &rv)) in out_row.iter_mut().zip(xr) {
                    *o += v * (x - (rv * d) * 2.0);
                }
            }
        });
        let rg = self.rg(h) || self.rg(r);
        let op = Op::ReflectAggregate {
            agg: Rc::clone(agg),
            h,
            r,
            dots,
            h_rows,
            r_rows,
        };
        self.push(op, out, rg)
    }

    fn push_scalar(&mut self, op: Op, value: f32, requires_grad: bool) -> Var {
        let mut out = self.out(1, 1);
        out[(0, 0)] = value;
        self.push(op, out, requires_grad)
    }

    /// Sum of all elements, as a `1 × 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.value(a).as_slice().iter().sum();
        let rg = self.rg(a);
        self.push_scalar(Op::SumAll(a), s, rg)
    }

    /// Mean of all elements, as a `1 × 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let s = mean(self.value(a).as_slice());
        let rg = self.rg(a);
        self.push_scalar(Op::MeanAll(a), s, rg)
    }

    /// The margin-based triplet loss over rows of `emb`, both corruption
    /// sides, as one `1 × 1` node:
    ///
    /// ```text
    /// mean_i [d(s_i, t_i) + margin − d(s_i, neg_t_i)]₊
    ///   + mean_i [d(s_i, t_i) + margin − d(neg_s_i, t_i)]₊       d = Manhattan
    /// ```
    ///
    /// The four index lists are parallel (one entry per (pair, negative)
    /// row) and group `emb`'s rows. Value and gradient are bit-identical to
    /// composing `gather_rows` ×4, `row_l1` ×3, `sub`/`add_scalar`/`relu`/
    /// `mean_all` ×2 and `add`, without materialising the four gathered
    /// batches: the distances are scored straight from `emb`'s rows, and
    /// backward writes `emb`'s gradient once, each row summing the four
    /// scatter-adds the composed tape would make into it in that tape's
    /// order (`neg_s`, `neg_t`, `t`, `s` rows).
    pub fn triplet_l1(
        &mut self,
        emb: Var,
        s: Rc<IndexList>,
        t: Rc<IndexList>,
        neg_t: Rc<IndexList>,
        neg_s: Rc<IndexList>,
        margin: f32,
    ) -> Var {
        let rows = s.len();
        assert!(
            t.len() == rows && neg_t.len() == rows && neg_s.len() == rows,
            "triplet_l1 index lists must be parallel"
        );
        let n = self.value(emb).rows();
        assert!(
            [&s, &t, &neg_t, &neg_s].iter().all(|l| l.n_rows() == n),
            "triplet_l1 index lists must group emb's rows"
        );
        let mut hinges = self.out(rows, 2);
        let e = self.value(emb);
        let (s_of, t_of, nt_of, ns_of) = (&s[..], &t[..], &neg_t[..], &neg_s[..]);
        par_rows(&mut hinges, min_rows(e.cols()), |i, hinge| {
            let (si, ti) = (s_of[i] as usize, t_of[i] as usize);
            let d_pos = e.manhattan(si, e, ti);
            let d_neg1 = e.manhattan(si, e, nt_of[i] as usize);
            let d_neg2 = e.manhattan(ns_of[i] as usize, e, ti);
            hinge[0] = relu((d_pos - d_neg1) + margin);
            hinge[1] = relu((d_pos - d_neg2) + margin);
        });
        // each side's mean, summed down its column in row order
        let side_mean = |side: usize| {
            let column = hinges.as_slice().iter().skip(side).step_by(2);
            column.sum::<f32>() / rows.max(1) as f32
        };
        let loss = side_mean(0) + side_mean(1);
        let rg = self.rg(emb);
        let hinges = self.push(Op::Leaf, hinges, false);
        let op = Op::TripletL1 {
            emb,
            hinges,
            s,
            t,
            neg_t,
            neg_s,
        };
        self.push_scalar(op, loss, rg)
    }

    /// Extracts the scalar of a `1 × 1` node (e.g. the loss value).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() expects a 1x1 node");
        m[(0, 0)]
    }

    /// Runs the backward pass from `loss` (must be `1 × 1`), accumulating
    /// gradients into every gradient-requiring node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward() expects a scalar loss"
        );
        self.release_grads();
        let mut seed = self.take_scratch(1, 1);
        seed[(0, 0)] = 1.0;
        self.nodes[loss.0].grad = Some(seed);

        for i in (0..self.live).rev() {
            // a leaf keeps its gradient for the optimiser, until reset()
            if !self.nodes[i].requires_grad || matches!(self.nodes[i].op, Op::Leaf) {
                continue;
            }
            if let Some(g) = self.nodes[i].grad.take() {
                self.propagate(i, &g);
                self.scratch.push(g);
            }
        }
    }

    fn take_scratch(&mut self, rows: usize, cols: usize) -> Matrix {
        let fits = |m: &Matrix| m.as_slice().len() == rows * cols;
        match self.scratch.iter().position(fits) {
            Some(p) => self.scratch.swap_remove(p).recycle(rows, cols),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// `grad(v) += delta`, where `fill` overwrites the `shape`-sized lease it
    /// is handed with the delta. The lease becomes `v`'s gradient if it had
    /// none; otherwise it is added to the live one and handed back, so a
    /// delta that is itself a sum is added as one value.
    fn accumulate_with(
        &mut self,
        v: Var,
        (rows, cols): (usize, usize),
        fill: impl FnOnce(&Tape, &mut Matrix),
    ) {
        if !self.rg(v) {
            return;
        }
        let mut delta = self.take_scratch(rows, cols);
        fill(self, &mut delta);
        match &mut self.nodes[v.0].grad {
            Some(grad) => {
                grad.add_assign(&delta);
                self.scratch.push(delta);
            }
            slot => *slot = Some(delta),
        }
    }

    /// `grad(v) += delta` for a delta whose every element is one value
    /// (formed before it meets the gradient): `fill(tape, grad, add)`
    /// overwrites a fresh lease (`add == false`) or adds each element
    /// straight into the live gradient (`add == true`) — the same sum as
    /// forming the delta matrix first.
    fn accumulate_in_place(&mut self, v: Var, fill: impl FnOnce(&Tape, &mut Matrix, bool)) {
        if !self.rg(v) {
            return;
        }
        let (rows, cols) = self.value(v).shape();
        let (mut grad, add) = match self.nodes[v.0].grad.take() {
            Some(grad) => (grad, true),
            None => (self.take_scratch(rows, cols), false),
        };
        fill(self, &mut grad, add);
        self.nodes[v.0].grad = Some(grad);
    }

    /// `grad(v) += f(g)` element-wise.
    fn accumulate_map(&mut self, v: Var, g: &Matrix, f: impl Fn(f32) -> f32) {
        self.accumulate_in_place(v, |_, grad, add| {
            assert_eq!(grad.shape(), g.shape(), "add_assign shape mismatch");
            put(grad.as_mut_slice(), g.as_slice().iter().map(|&x| f(x)), add);
        });
    }

    fn propagate(&mut self, i: usize, g: &Matrix) {
        match self.nodes[i].op.clone() {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (sa, sb) = (self.value(a).shape(), self.value(b).shape());
                if self.rg(a) {
                    let mut bt = self.take_scratch(sb.1, sb.0);
                    self.value(b).transpose_into(&mut bt);
                    self.accumulate_with(a, sa, |_, out| matmul_into(g, &bt, out));
                    self.scratch.push(bt);
                }
                if self.rg(b) {
                    let mut at = self.take_scratch(sa.1, sa.0);
                    self.value(a).transpose_into(&mut at);
                    self.accumulate_with(b, sb, |_, out| matmul_into(&at, g, out));
                    self.scratch.push(at);
                }
            }
            Op::Spmm(s, d) => {
                self.accumulate_with(d, (s.trans.rows(), g.cols()), |_, out| {
                    s.trans.spmm_into(g, Pool::global(), out)
                });
            }
            Op::Add(a, b) => {
                self.accumulate_map(a, g, |x| x);
                self.accumulate_map(b, g, |x| x);
            }
            Op::Sub(a, b) => {
                self.accumulate_map(a, g, |x| x);
                self.accumulate_map(b, g, |x| -x);
            }
            Op::MulElem(a, b) => {
                self.accumulate_with(a, g.shape(), |t, out| hadamard(g, t.value(b), out));
                self.accumulate_with(b, g.shape(), |t, out| hadamard(g, t.value(a), out));
            }
            Op::Scale(a, c) => self.accumulate_map(a, g, |x| x * c),
            Op::AddScalar(a) => self.accumulate_map(a, g, |x| x),
            Op::Relu(a) => self.accumulate_with(a, g.shape(), |t, out| {
                let y = t.nodes[i].value.as_slice();
                for ((d, &gv), &yv) in out.as_mut_slice().iter_mut().zip(g.as_slice()).zip(y) {
                    *d = if yv <= 0.0 { 0.0 } else { gv };
                }
            }),
            Op::Tanh(a) => self.accumulate_with(a, g.shape(), |t, out| {
                let y = t.nodes[i].value.as_slice();
                for ((d, &gv), &yv) in out.as_mut_slice().iter_mut().zip(g.as_slice()).zip(y) {
                    *d = gv * (1.0 - yv * yv);
                }
            }),
            Op::GatherRows(a, idx) => {
                self.accumulate_with(a, self.value(a).shape(), |_, out| {
                    out.fill_zero();
                    for (gi, &row) in idx.iter().enumerate() {
                        for (d, &s) in out.row_mut(row as usize).iter_mut().zip(g.row(gi)) {
                            *d += s;
                        }
                    }
                });
            }
            Op::L2NormRows { parts, eps } => {
                // Per row of the parts side by side x: n = ‖x‖ and g·x, each
                // one sum in column order from where `Iterator::sum` starts
                // (each part's pass carries both on from the last part's),
                // so the bits of a concatenated row — several rows' chains
                // side by side in the kernel; then s = n + eps and each part
                // gets its block of g/s − x·(g·x)/(n·s²).
                let mut sums = self.take_scratch(g.rows(), 2);
                sums.as_mut_slice().fill(std::iter::empty::<f32>().sum());
                let min = min_rows(g.cols());
                let mut at = 0;
                for j in parts.clone() {
                    let x = self.value(self.parts[j]);
                    let w = x.cols();
                    let pool = Pool::global();
                    pool.rows_mut(sums.as_mut_slice(), 2, min, |block, first| {
                        let gs = &g.as_slice()[first * g.cols() + at..];
                        let xs = &x.as_slice()[first * w..];
                        kernels::norm_dot_rows(xs, w, gs, g.cols(), w, block);
                    });
                    at += w;
                }
                let mut at = 0;
                for j in parts {
                    let p = self.parts[j];
                    let cols = at..at + self.value(p).cols();
                    self.accumulate_in_place(p, |tape, grad, add| {
                        let x = tape.value(p);
                        par_rows(grad, min, |r, d| {
                            let (n, gx_dot) = (sums[(r, 0)].sqrt(), sums[(r, 1)]);
                            let s = n + eps;
                            let coef = if n > 1e-20 { gx_dot / (n * s * s) } else { 0.0 };
                            let gr = g.row(r)[cols.clone()].iter();
                            put(
                                d,
                                gr.zip(x.row(r)).map(|(&gv, &xv)| gv / s - xv * coef),
                                add,
                            );
                        });
                    });
                    at = cols.end;
                }
                self.scratch.push(sums);
            }
            Op::RowL1(a, b) => {
                let shape = self.value(a).shape();
                for (v, negate) in [(a, false), (b, true)] {
                    self.accumulate_with(v, shape, |t, out| {
                        let (ma, mb) = (t.value(a), t.value(b));
                        for r in 0..ma.rows() {
                            let gi = g[(r, 0)];
                            let xy = ma.row(r).iter().zip(mb.row(r));
                            for (d, (&x, &y)) in out.row_mut(r).iter_mut().zip(xy) {
                                let s = gi * signum_or_zero(x - y);
                                *d = if negate { -s } else { s };
                            }
                        }
                    });
                }
            }
            Op::RowDot(a, b) => {
                let shape = self.value(a).shape();
                for (v, other) in [(a, b), (b, a)] {
                    self.accumulate_with(v, shape, |t, out| {
                        let mo = t.value(other);
                        for r in 0..mo.rows() {
                            let gi = g[(r, 0)];
                            for (d, &o) in out.row_mut(r).iter_mut().zip(mo.row(r)) {
                                *d = gi * o;
                            }
                        }
                    });
                }
            }
            Op::MulBroadcastCol(a, b) => {
                self.accumulate_with(a, g.shape(), |t, out| {
                    let mb = t.value(b);
                    for r in 0..g.rows() {
                        let s = mb[(r, 0)];
                        for (d, &gv) in out.row_mut(r).iter_mut().zip(g.row(r)) {
                            *d = gv * s;
                        }
                    }
                });
                self.accumulate_with(b, (g.rows(), 1), |t, out| {
                    let ma = t.value(a);
                    for (r, d) in out.as_mut_slice().iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (&gv, &xv) in g.row(r).iter().zip(ma.row(r)) {
                            acc += gv * xv;
                        }
                        *d = acc;
                    }
                });
            }
            Op::SumAll(a) => {
                let s = g[(0, 0)];
                self.accumulate_with(a, self.value(a).shape(), |_, out| {
                    out.as_mut_slice().fill(s)
                });
            }
            Op::MeanAll(a) => {
                let shape = self.value(a).shape();
                let s = g[(0, 0)] / (shape.0 * shape.1).max(1) as f32;
                self.accumulate_with(a, shape, |_, out| out.as_mut_slice().fill(s));
            }
            Op::ReflectAggregate {
                agg,
                h,
                r,
                dots,
                h_rows,
                r_rows,
            } => {
                // The composed tape, per message i with upstream row gm:
                // `spmm`'s backward forms gm_k = 0 + Σ v·g[head][k] over the
                // message's entries of aggᵀ in column order (rebuilt here as
                // it is needed); the reflected term's gradient is p = (−gm)·2;
                // x·r's is q = Σ_k p_k r_k (summed in column order); then r's
                // row gets p·(x·r) + q·x and x's row gets gm + q·r, each
                // scatter-added into a zeroed matrix in message order and
                // added to any live gradient — r's gather is the later node,
                // so its contribution lands first. Here one pass forms every
                // message's q straight from the g and r rows (the chains of
                // all the messages of a task side by side), then each
                // destination row sums its messages (its `IndexList` group,
                // ascending) from 0.0 a column block at a time, each
                // message's block of gm rebuilt inside the kernel, then
                // joins the gradient.
                let trans = &agg.trans;
                let dim = self.value(h).cols();
                let blocks = || (0..dim).step_by(BLOCK).map(|c| c..(c + BLOCK).min(dim));
                // message i's entries, `q` its q and `dot` its x·r (read
                // toward r); each reader sets the row it reads
                let entries = |i: usize, q: f32, dot: f32| {
                    let entries = trans.indptr[i]..trans.indptr[i + 1];
                    let (heads, weights) =
                        (&trans.indices[entries.clone()], &trans.values[entries]);
                    kernels::HopMsg {
                        heads,
                        weights,
                        dot,
                        q,
                        row: &[],
                    }
                };
                let (h_list, r_list): (&IndexList, &IndexList) = (&h_rows, &r_rows);
                let (h_of, r_of) = (&h_list[..], &r_list[..]);
                let mut q = self.take_scratch(trans.rows(), 1);
                let mr = self.value(r);
                Pool::global().rows_mut(q.as_mut_slice(), 1, min_rows(dim), |qs, first| {
                    qs.fill(0.0);
                    kernels::neg2_dot_rows(qs, (g.as_slice(), g.cols()), dim, |m| {
                        let i = first + m;
                        let row = mr.row(r_of[i] as usize);
                        kernels::HopMsg {
                            row,
                            ..entries(i, 0.0, 0.0)
                        }
                    });
                });
                let msg = |i: usize, dot: f32| entries(i, q[(i, 0)], dot);
                self.accumulate_in_place(r, |tape, grad, add| {
                    let (mh, md) = (tape.value(h), tape.value(dots));
                    par_rows(grad, min_rows(dim), |dst, out| {
                        for cols in blocks() {
                            let mut sum = [0.0f32; BLOCK];
                            let msgs = r_list.positions(dst).iter().map(|&i| {
                                let i = i as usize;
                                let row = &mh.row(h_of[i] as usize)[cols.clone()];
                                kernels::HopMsg {
                                    row,
                                    ..msg(i, md[(i, 0)])
                                }
                            });
                            let g = (&g.as_slice()[cols.start..], g.cols());
                            kernels::reflect_acc::<true>(&mut sum[..cols.len()], g, msgs);
                            put(&mut out[cols], sum.into_iter(), add);
                        }
                    });
                });
                self.accumulate_in_place(h, |tape, grad, add| {
                    let mr = tape.value(r);
                    par_rows(grad, min_rows(dim), |dst, out| {
                        for cols in blocks() {
                            let mut sum = [0.0f32; BLOCK];
                            let msgs = h_list.positions(dst).iter().map(|&i| {
                                let i = i as usize;
                                let row = &mr.row(r_of[i] as usize)[cols.clone()];
                                kernels::HopMsg { row, ..msg(i, 0.0) }
                            });
                            let g = (&g.as_slice()[cols.start..], g.cols());
                            kernels::reflect_acc::<false>(&mut sum[..cols.len()], g, msgs);
                            put(&mut out[cols], sum.into_iter(), add);
                        }
                    });
                });
                self.scratch.push(q);
            }
            Op::TripletL1 {
                emb,
                hinges,
                s,
                t,
                neg_t,
                neg_s,
            } => {
                // What the composed tape computes, in its order. With g1/g2
                // the upstream share masked by each side's hinge:
                //   d_neg2 = row_l1(ens, et) has gradient −g2, d_neg1 =
                //   row_l1(es, ent) has −g1, d_pos = row_l1(es, et) has
                //   g_pos = g2 + g1; then the gathers scatter-add their row
                //   gradients into a zeroed matrix each, in tape-reverse
                //   order: ens, ent, et (d_neg2's part, then d_pos's), es
                //   (d_neg1's part, then d_pos's), each added to the live
                //   gradient as it is formed.
                // So each element of emb's gradient is ((S_s′ + S_t′) + S_t)
                // + S_s after any prior gradient, with S_s′ the sum from 0.0,
                // in row order, of what the neg_s rows naming it contribute
                // (and so on): each destination row forms its four sums (its
                // `IndexList` groups, ascending) a column block at a time and
                // joins them the same way.
                // A row whose hinges are inactive contributes only ±0.0,
                // and adding ±0.0 to a sum that started at +0.0 (so is never
                // −0.0) leaves it unchanged — such rows are skipped.
                let rows = s.len();
                let share = g[(0, 0)] / rows.max(1) as f32;
                self.accumulate_in_place(emb, |tape, grad, add| {
                    let (e, hinge) = (tape.value(emb), tape.value(hinges));
                    let (s_of, t_of, nt_of, ns_of) = (&s[..], &t[..], &neg_t[..], &neg_s[..]);
                    let lists: [&IndexList; 4] = [&neg_s, &neg_t, &t, &s];
                    // row i's masked shares (g_neg1, g_neg2, g_pos), unless
                    // both of its hinges are inactive
                    let shares = |i: usize| {
                        let g1 = if hinge[(i, 0)] <= 0.0 { 0.0 } else { share };
                        let g2 = if hinge[(i, 1)] <= 0.0 { 0.0 } else { share };
                        (g1 != 0.0 || g2 != 0.0).then_some((-g1, -g2, g2 + g1))
                    };
                    let width = e.cols();
                    if width == 0 {
                        return;
                    }
                    let pool = Pool::global();
                    pool.rows_mut(
                        grad.as_mut_slice(),
                        width,
                        min_rows(width),
                        |block, first| {
                            let mut sums = [[0.0f32; TRIPLET_BLOCK]; 4];
                            for (dst, out) in (first..).zip(block.chunks_mut(width)) {
                                for c0 in (0..width).step_by(TRIPLET_BLOCK) {
                                    let cols = c0..(c0 + TRIPLET_BLOCK).min(width);
                                    let [by_ns, by_nt, by_t, by_s] = sums.each_mut().map(|s| {
                                        let s = &mut s[..cols.len()];
                                        s.fill(0.0);
                                        s
                                    });
                                    let row =
                                        |of: &[u32], i: usize| &e.row(of[i] as usize)[cols.clone()];
                                    let [ns_part, nt_part, t_part, s_part] = lists.map(|l| {
                                        let at = l.positions(dst).iter().map(|&i| i as usize);
                                        at.filter_map(move |i| Some((i, shares(i)?)))
                                    });
                                    // each part reads only the rows its terms name
                                    let terms = ns_part.map(|(i, (_, g_neg2, _))| {
                                        [(g_neg2, [row(ns_of, i), row(t_of, i)])]
                                    });
                                    kernels::sign_acc::<false, 1>(by_ns, terms);
                                    let terms = nt_part.map(|(i, (g_neg1, _, _))| {
                                        [(g_neg1, [row(s_of, i), row(nt_of, i)])]
                                    });
                                    kernels::sign_acc::<true, 1>(by_nt, terms);
                                    let terms = t_part.map(|(i, (_, g_neg2, g_pos))| {
                                        let (ens, et, es) =
                                            (row(ns_of, i), row(t_of, i), row(s_of, i));
                                        [(g_neg2, [ens, et]), (g_pos, [es, et])]
                                    });
                                    kernels::sign_acc::<true, 2>(by_t, terms);
                                    let terms = s_part.map(|(i, (g_neg1, _, g_pos))| {
                                        let (es, ent, et) =
                                            (row(s_of, i), row(nt_of, i), row(t_of, i));
                                        [(g_neg1, [es, ent]), (g_pos, [es, et])]
                                    });
                                    kernels::sign_acc::<false, 2>(by_s, terms);
                                    let [by_ns, by_nt, by_t, by_s] = &sums;
                                    for (j, d) in out[cols].iter_mut().enumerate() {
                                        *d = if add {
                                            (((*d + by_ns[j]) + by_nt[j]) + by_t[j]) + by_s[j]
                                        } else {
                                            ((by_ns[j] + by_nt[j]) + by_t[j]) + by_s[j]
                                        };
                                    }
                                }
                            }
                        },
                    );
                });
            }
        }
    }
}

/// Runs `f(r, row)` on every row of `m`, split over the global pool in
/// blocks of at least `min_rows` rows.
fn par_rows(m: &mut Matrix, min_rows: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    Pool::global().rows_mut(m.as_mut_slice(), cols, min_rows, |block, first_row| {
        for (i, row) in block.chunks_mut(cols).enumerate() {
            f(first_row + i, row);
        }
    });
}

/// Writes `values` over `dst`, or adds them to it with `add`.
fn put(dst: &mut [f32], values: impl Iterator<Item = f32>, add: bool) {
    for (d, v) in dst.iter_mut().zip(values) {
        if add {
            *d += v;
        } else {
            *d = v;
        }
    }
}

#[inline]
fn relu(x: f32) -> f32 {
    if x < 0.0 {
        0.0
    } else {
        x
    }
}

/// Mean of a slice (0 for the empty slice).
fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len().max(1) as f32
}

/// `out = a @ b` as [`Matrix::matmul`] computes it.
fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    a.matmul_into(b, Pool::global(), active_isa(), out);
}

fn hadamard(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(param[idx]) against the tape's gradient.
    fn finite_diff_check(build: impl Fn(&mut Tape, Var) -> Var, param: Matrix) {
        let mut tape = Tape::new();
        let p = tape.param(&param);
        let loss = build(&mut tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p).expect("param grad").clone();

        let eps = 1e-3f32;
        for idx in 0..param.as_slice().len() {
            let mut plus = param.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut tp = Tape::new();
            let vp = tp.param(&plus);
            let lp = build(&mut tp, vp);
            let fp = tp.scalar(lp);

            let mut minus = param.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut tm = Tape::new();
            let vm = tm.param(&minus);
            let lm = build(&mut tm, vm);
            let fm = tm.scalar(lm);

            let numeric = (fp - fm) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs().max(got.abs())),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        })
    }

    #[test]
    fn grad_matmul() {
        let w = seeded(3, 2, 7);
        finite_diff_check(
            |t, p| {
                let x = t.constant(&seeded(4, 3, 1));
                let y = t.matmul(x, p);
                t.sum_all(y)
            },
            w,
        );
    }

    #[test]
    fn grad_spmm() {
        let sp = SpOp::new(SparseMatrix::from_coo(
            3,
            3,
            vec![(0, 1, 2.0), (1, 2, -1.0), (2, 0, 0.5)],
        ));
        finite_diff_check(
            |t, p| {
                let y = t.spmm(&sp, p);
                t.sum_all(y)
            },
            seeded(3, 2, 9),
        );
    }

    #[test]
    fn grad_relu_chain() {
        finite_diff_check(
            |t, p| {
                let x = t.constant(&seeded(2, 3, 3));
                let h = t.matmul(x, p);
                let h = t.relu(h);
                t.sum_all(h)
            },
            seeded(3, 2, 11),
        );
    }

    #[test]
    fn grad_tanh() {
        finite_diff_check(
            |t, p| {
                let h = t.tanh(p);
                t.sum_all(h)
            },
            seeded(2, 2, 5),
        );
    }

    #[test]
    fn grad_l2_normalize() {
        finite_diff_check(
            |t, p| {
                let n = t.l2_normalize_rows(&[p], 1e-6);
                let c = t.constant(&seeded(2, 3, 17));
                let m = t.mul_elem(n, c);
                t.sum_all(m)
            },
            seeded(2, 3, 13),
        );
    }

    #[test]
    fn grad_gather_and_row_l1() {
        // Margin-style loss: relu(margin + d_pos); exercises gather + L1.
        finite_diff_check(
            |t, p| {
                let idx_a = Rc::new(vec![0u32, 2]);
                let idx_b = Rc::new(vec![1u32, 3]);
                let a = t.gather_rows(p, idx_a);
                let b = t.gather_rows(p, idx_b);
                let d = t.row_l1(a, b);
                let d = t.add_scalar(d, 0.3);
                let d = t.relu(d);
                t.sum_all(d)
            },
            seeded(4, 3, 19),
        );
    }

    #[test]
    fn grad_row_dot_and_broadcast() {
        // Reflection-ish computation: y = x - 2 (x·r) r
        finite_diff_check(
            |t, p| {
                let r = t.l2_normalize_rows(&[p], 1e-9);
                let x = t.constant(&seeded(3, 4, 23));
                let xd = t.row_dot(x, r);
                let proj = t.mul_broadcast_col(r, xd);
                let proj2 = t.scale(proj, 2.0);
                let y = t.sub(x, proj2);
                let yy = t.mul_elem(y, y);
                t.sum_all(yy)
            },
            seeded(3, 4, 29),
        );
    }

    #[test]
    fn grad_l2_normalize_parts() {
        // the parameter on both sides of a constant, one row normalised
        finite_diff_check(
            |t, p| {
                let c = t.constant(&seeded(3, 2, 41));
                let n = t.l2_normalize_rows(&[p, c, p], 1e-6);
                let w = t.constant(&seeded(3, 6, 43));
                let m = t.mul_elem(n, w);
                t.sum_all(m)
            },
            seeded(3, 2, 37),
        );
    }

    #[test]
    fn grad_mean_all() {
        finite_diff_check(
            |t, p| {
                let y = t.mul_elem(p, p);
                t.mean_all(y)
            },
            seeded(3, 3, 31),
        );
    }

    #[test]
    fn constants_get_no_grad() {
        let mut t = Tape::new();
        let c = t.constant(&seeded(2, 2, 1));
        let p = t.param(&seeded(2, 2, 2));
        let y = t.mul_elem(c, p);
        let l = t.sum_all(y);
        t.backward(l);
        assert!(t.grad(c).is_none());
        assert!(t.grad(p).is_some());
    }

    #[test]
    fn grad_accumulates_over_shared_subexpression() {
        // loss = sum(p) + sum(p) → grad = 2 everywhere
        let mut t = Tape::new();
        let p = t.param(&Matrix::zeros(2, 2));
        let a = t.sum_all(p);
        let b = t.sum_all(p);
        let l = t.add(a, b);
        t.backward(l);
        assert!(t.grad(p).unwrap().as_slice().iter().all(|&g| g == 2.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let p = t.param(&Matrix::zeros(2, 2));
        t.backward(p);
    }

    #[test]
    fn scalar_extracts_value() {
        let mut t = Tape::new();
        let p = t.param(&Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let s = t.sum_all(p);
        assert_eq!(t.scalar(s), 5.0);
    }
}
