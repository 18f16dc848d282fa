//! Property-based checks of the autograd tape: analytic gradients must
//! match central finite differences for randomly composed expressions — on
//! a fresh tape and on one `reset()` and reused across graphs of different
//! shapes — the fused `triplet_l1` and `reflect_aggregate` nodes must equal
//! the compositions of small nodes they replaced bit for bit, a normalised
//! row of several parts must equal one concatenated leaf normalised, bit
//! for bit, and training on the trainer's one recycled tape must equal a
//! fresh-tape-per-epoch reference bit for bit. Each bitwise check holds at
//! pool widths 1, 2 and 4, which it runs itself.

use largeea::common::check::for_each_case;
use largeea::common::obs::Recorder;
use largeea::common::rng::Rng;
use largeea::models::baselines::whole_graph;
use largeea::models::negative::sample_negatives;
use largeea::models::{train, BatchGraph, EaModel, ModelKind, TrainConfig};
use largeea::tensor::optim::{Adam, AdamConfig};
use largeea::tensor::{IndexList, Matrix, SpOp, SparseMatrix, Tape, Var};
use std::cell::RefCell;
use std::rc::Rc;

fn random_param(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Picks one of several expression builders over a 3×3 parameter.
#[derive(Debug, Clone, Copy)]
enum Expr {
    MatmulRelu,
    GatherL1,
    NormalizeDot,
    TanhScale,
    NormalizeParts,
    TripletL1,
    ReflectAggregate,
}

const EXPRS: [Expr; 7] = [
    Expr::MatmulRelu,
    Expr::GatherL1,
    Expr::NormalizeDot,
    Expr::TanhScale,
    Expr::NormalizeParts,
    Expr::TripletL1,
    Expr::ReflectAggregate,
];

/// `idx` grouped over `n_rows` rows, as the fused nodes take it.
fn grouped(idx: &[u32], n_rows: usize) -> Rc<IndexList> {
    Rc::new(IndexList::new(idx.to_vec(), n_rows))
}

fn build(expr: Expr, tape: &mut Tape, p: Var) -> Var {
    match expr {
        Expr::MatmulRelu => {
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| {
                ((r + 2 * c) % 3) as f32 - 1.0
            }));
            let h = tape.matmul(p, c);
            let h = tape.relu(h);
            tape.sum_all(h)
        }
        Expr::GatherL1 => {
            let a = tape.gather_rows(p, Rc::new(vec![0, 2]));
            let b = tape.gather_rows(p, Rc::new(vec![1, 1]));
            let d = tape.row_l1(a, b);
            let d = tape.add_scalar(d, 0.5);
            let d = tape.relu(d);
            tape.sum_all(d)
        }
        Expr::NormalizeDot => {
            let n = tape.l2_normalize_rows(&[p], 1e-6);
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| (r * c) as f32 * 0.1 + 0.2));
            let d = tape.row_dot(n, c);
            tape.sum_all(d)
        }
        Expr::TanhScale => {
            let t = tape.tanh(p);
            let s = tape.scale(t, 1.5);
            tape.mean_all(s)
        }
        Expr::NormalizeParts => {
            // p on both sides of a constant, normalised as one 9-wide row
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| ((r + c) % 2) as f32 - 0.5));
            let n = tape.l2_normalize_rows(&[p, c, p], 1e-6);
            let w = tape.constant(&Matrix::from_fn(3, 9, |r, c| (r + c) as f32 * 0.2 - 0.9));
            let m = tape.mul_elem(n, w);
            tape.sum_all(m)
        }
        Expr::TripletL1 => {
            let (s, t) = (grouped(&[0, 1, 0], 3), grouped(&[1, 2, 1], 3));
            let (neg_t, neg_s) = (grouped(&[2, 0, 2], 3), grouped(&[2, 2, 0], 3));
            tape.triplet_l1(p, s, t, neg_t, neg_s, 0.5)
        }
        Expr::ReflectAggregate => {
            // rows of p reflected through (normalised) rows of p, then mixed:
            // message 1 feeds two output rows, output row 0 takes two messages
            let r = tape.l2_normalize_rows(&[p], 1e-6);
            let coo = vec![(0, 0, 0.5), (0, 2, 0.5), (1, 1, -0.25), (2, 1, 1.0)];
            let agg = SpOp::new(SparseMatrix::from_coo(3, 3, coo));
            let (h_rows, r_rows) = (grouped(&[0, 2, 2], 3), grouped(&[1, 0, 1], 3));
            let y = tape.reflect_aggregate(&agg, p, r, h_rows, r_rows);
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| {
                (r + 2 * c) as f32 * 0.3 - 0.7
            }));
            let m = tape.mul_elem(y, c);
            tape.sum_all(m)
        }
    }
}

/// One random expression over a random 3×3 parameter: the analytic
/// gradient against central finite differences. Every evaluation re-records
/// its graph on `tape` after a `reset()`.
fn gradient_case(rng: &mut Rng, tape: &mut Tape) {
    let p0 = random_param(rng, 3, 3);
    let expr = EXPRS[rng.gen_range(0..EXPRS.len())];
    tape.reset();
    let p = tape.param(&p0);
    let loss = build(expr, tape, p);
    tape.backward(loss);
    let analytic = tape.grad(p).expect("param requires grad").clone();

    let eps = 1e-2f32;
    for idx in 0..9 {
        // skip points near ReLU/L1 kinks where the derivative jumps
        let g = analytic.as_slice()[idx];
        let mut f = |delta: f32| {
            let mut m = p0.clone();
            m.as_mut_slice()[idx] += delta;
            tape.reset();
            let v = tape.param(&m);
            let l = build(expr, tape, v);
            tape.scalar(l)
        };
        let (plus, minus, centre) = (f(eps), f(-eps), f(0.0));
        let numeric = (plus - minus) / (2.0 * eps);
        // kink detection: at a ReLU/L1 kink the second difference is
        // O(eps · slope-jump); in smooth regions it is O(eps²·f″).
        let curvature = (plus + minus - 2.0 * centre).abs();
        if curvature > 0.05 * eps {
            continue;
        }
        assert!(
            (numeric - g).abs() < 5e-2 * (1.0 + numeric.abs().max(g.abs())),
            "{expr:?} idx {idx}: numeric {numeric} analytic {g}"
        );
    }
}

#[test]
fn gradients_match_finite_differences() {
    for_each_case(0xAD01, 48, |rng| gradient_case(rng, &mut Tape::new()));
}

#[test]
fn a_tape_reset_and_reused_for_other_shapes_passes_the_gradient_checks() {
    // One tape for all cases: consecutive cases record different
    // expressions, so node i's recycled buffers meet other shapes, other
    // ops and shorter or longer graphs than they were allocated for.
    let tape = RefCell::new(Tape::new());
    for_each_case(0xAD02, 64, |rng| gradient_case(rng, &mut tape.borrow_mut()));
}

type List = Rc<Vec<u32>>;

/// The triplet loss as the 16 tape nodes `triplet_l1` replaced — the
/// oracle the fused node must reproduce bit for bit.
fn composed_triplet_l1(
    tape: &mut Tape,
    emb: Var,
    [s, t, neg_t, neg_s]: [&List; 4],
    margin: f32,
) -> Var {
    let es = tape.gather_rows(emb, Rc::clone(s));
    let et = tape.gather_rows(emb, Rc::clone(t));
    let d_pos = tape.row_l1(es, et);
    let ent = tape.gather_rows(emb, Rc::clone(neg_t));
    let d_neg1 = tape.row_l1(es, ent);
    let ens = tape.gather_rows(emb, Rc::clone(neg_s));
    let d_neg2 = tape.row_l1(ens, et);
    let m1 = tape.sub(d_pos, d_neg1);
    let m1 = tape.add_scalar(m1, margin);
    let m1 = tape.relu(m1);
    let m2 = tape.sub(d_pos, d_neg2);
    let m2 = tape.add_scalar(m2, margin);
    let m2 = tape.relu(m2);
    let l1 = tape.mean_all(m1);
    let l2 = tape.mean_all(m2);
    tape.add(l1, l2)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn triplet_l1_equals_the_composed_formulation_bitwise() {
    rerun_at_pool_widths("triplet_l1_equals_the_composed_formulation_bitwise");
    for_each_case(0xAD03, 160, |rng| {
        // a few entities, or enough gradient rows that the pool splits them;
        // 300 columns cross the backward's 256-column block
        let (n, dim, p) = if rng.gen_range(0..3u32) == 0 {
            let dim = [64, 192, 300][rng.gen_range(0..3usize)];
            (
                rng.gen_range(130..400usize),
                dim,
                rng.gen_range(0..200usize),
            )
        } else {
            let dim = [1, 7, 8, 192][rng.gen_range(0..4usize)];
            (rng.gen_range(1..40usize), dim, rng.gen_range(0..30usize))
        };
        let n_neg = rng.gen_range(1..4usize);
        let e0 = random_param(rng, n, dim);
        // each pair repeated per negative, as the trainer lays rows out;
        // n is small against p·n_neg, so indices repeat within and across
        // the four lists, and some rows get the anchor as its own negative
        let (mut s, mut t, mut neg_t, mut neg_s) = (vec![], vec![], vec![], vec![]);
        for _ in 0..p {
            let (ps, pt) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            for _ in 0..n_neg {
                s.push(ps);
                t.push(pt);
                neg_t.push(rng.gen_range(0..n as u32));
                neg_s.push(if rng.gen_range(0..4u32) == 0 {
                    ps
                } else {
                    rng.gen_range(0..n as u32)
                });
            }
        }
        let rows = [s, t, neg_t, neg_s].map(Rc::new);
        // no hinge active (zero gradient), every hinge active, and a mix
        let margin = [-1e6, 1e6, rng.gen_range(-1.0f32..3.0)][rng.gen_range(0..3usize)];
        // `emb` is a leaf or an op's output, and its gradient slot is empty
        // or already holds another consumer's contribution when the loss's
        // arrives
        let through_op = rng.gen_range(0..2u32) == 0;
        let second_consumer = rng.gen_range(0..2u32) == 0;

        let run = |fused: bool| {
            let mut tape = Tape::new();
            let leaf = tape.param(&e0);
            // An op's output hands its gradient back once it has propagated;
            // `add` passes the one it received on unchanged, so the zero leaf
            // added to `emb` reads `emb`'s gradient bits.
            let mut emb_grad = leaf;
            let emb = if through_op {
                emb_grad = tape.param(&Matrix::zeros(n, dim));
                let normed = tape.l2_normalize_rows(&[leaf], 1e-9);
                tape.add(normed, emb_grad)
            } else {
                leaf
            };
            let [s, t, neg_t, neg_s] = &rows;
            let mut loss = if fused {
                let [s, t, neg_t, neg_s] = [s, t, neg_t, neg_s].map(|l| grouped(l, n));
                tape.triplet_l1(emb, s, t, neg_t, neg_s, margin)
            } else {
                composed_triplet_l1(&mut tape, emb, [s, t, neg_t, neg_s], margin)
            };
            let value = tape.scalar(loss).to_bits();
            if second_consumer {
                let extra = tape.sum_all(emb);
                loss = tape.add(loss, extra);
            }
            tape.backward(loss);
            let grad = |v| bits(tape.grad(v).expect("emb requires grad"));
            (value, grad(emb_grad), grad(leaf))
        };
        let (fused, composed) = (run(true), run(false));
        assert_eq!(fused.0, composed.0, "loss value, margin {margin}");
        assert_eq!(fused.1, composed.1, "emb gradient, margin {margin}");
        assert_eq!(fused.2, composed.2, "leaf gradient, margin {margin}");
        if margin == -1e6 {
            assert!(
                second_consumer || fused.1.iter().all(|&b| b == 0),
                "inactive hinges must leave +0.0 everywhere"
            );
        }
    });
}

#[test]
fn normalize_concat_equals_the_concatenated_leaf_bitwise() {
    rerun_at_pool_widths("normalize_concat_equals_the_concatenated_leaf_bitwise");
    for_each_case(0xAD05, 120, |rng| {
        // a few rows, or enough that the pool splits them; most counts
        // leave the last group of rows the kernel sums side by side partial
        let n = [rng.gen_range(1..20usize), rng.gen_range(130..300usize)][rng.gen_range(0..2usize)];
        // parts off the multiples of 8 run the kernel's column tail
        let widths: Vec<usize> = (0..rng.gen_range(1..4usize))
            .map(|_| [1, 7, 64, 192][rng.gen_range(0..4usize)])
            .collect();
        let values: Vec<Matrix> = widths.iter().map(|&w| random_param(rng, n, w)).collect();
        // the parts name those values, one of them possibly twice
        let mut order: Vec<usize> = (0..values.len()).collect();
        if rng.gen_range(0..3u32) == 0 {
            order.insert(
                rng.gen_range(0..=order.len()),
                rng.gen_range(0..values.len()),
            );
        }
        let total: usize = order.iter().map(|&j| widths[j]).sum();
        let weights = random_param(rng, n, total);
        // part 0's gradient slot already holds another consumer's
        // contribution when the normalisation's arrives
        let occupied = rng.gen_range(0..2u32) == 0;

        // One node over the parts: the output bits, the weighted sum's bits
        // and each value's gradient.
        let mut tape = Tape::new();
        let leaves: Vec<Var> = values.iter().map(|v| tape.param(v)).collect();
        let parts: Vec<Var> = order.iter().map(|&j| leaves[j]).collect();
        let y = tape.l2_normalize_rows(&parts, 1e-9);
        let w = tape.constant(&weights);
        let weighted = tape.mul_elem(y, w);
        let mut loss = tape.sum_all(weighted);
        let value = (bits(tape.value(y)), tape.scalar(loss).to_bits());
        if occupied {
            let extra = tape.sum_all(leaves[0]);
            loss = tape.add(loss, extra);
        }
        tape.backward(loss);

        // One leaf holding the concatenation: its gradient's column blocks
        // are what each part receives, added up in part order after the
        // other consumer's 1.0.
        let mut cat_tape = Tape::new();
        let cat = Matrix::from_fn(n, total, |r, c| {
            let mut c = c;
            for &j in &order {
                if c < widths[j] {
                    return values[j][(r, c)];
                }
                c -= widths[j];
            }
            unreachable!()
        });
        let leaf = cat_tape.param(&cat);
        let y = cat_tape.l2_normalize_rows(&[leaf], 1e-9);
        let w = cat_tape.constant(&weights);
        let weighted = cat_tape.mul_elem(y, w);
        let loss = cat_tape.sum_all(weighted);
        assert_eq!(value.0, bits(cat_tape.value(y)), "normalised rows");
        assert_eq!(value.1, cat_tape.scalar(loss).to_bits(), "loss value");
        cat_tape.backward(loss);
        let cat_grad = cat_tape.grad(leaf).unwrap();
        let mut expect: Vec<Option<Matrix>> = vec![None; values.len()];
        if occupied {
            expect[0] = Some(Matrix::from_fn(n, widths[0], |_, _| 1.0));
        }
        let mut at = 0;
        for &j in &order {
            let block = Matrix::from_fn(n, widths[j], |r, c| cat_grad[(r, at + c)]);
            expect[j] = Some(match expect[j].take() {
                Some(mut sum) => {
                    sum.add_assign(&block);
                    sum
                }
                None => block,
            });
            at += widths[j];
        }
        for (j, &leaf) in leaves.iter().enumerate() {
            let want = bits(expect[j].as_ref().unwrap());
            assert_eq!(
                bits(tape.grad(leaf).unwrap()),
                want,
                "part {j} of {order:?}"
            );
        }
    });
}

/// One RREA hop as the seven tape nodes `reflect_aggregate` replaced: the
/// reflection `x − 2(x·r)r` of gathered rows, then the aggregation.
fn composed_reflect_aggregate(
    tape: &mut Tape,
    agg: &Rc<SpOp>,
    (h, r): (Var, Var),
    (h_rows, r_rows): (&List, &List),
) -> Var {
    let et = tape.gather_rows(h, Rc::clone(h_rows));
    let rg = tape.gather_rows(r, Rc::clone(r_rows));
    let dot = tape.row_dot(et, rg);
    let proj = tape.mul_broadcast_col(rg, dot);
    let proj2 = tape.scale(proj, 2.0);
    let msg = tape.sub(et, proj2);
    tape.spmm(agg, msg)
}

const WIDTH_CHILD: &str = "LARGEEA_TEST_WIDTH_CHILD";

/// The pool is process-global (`LARGEEA_THREADS`, read once), so a test
/// that must hold at every width calls this first: in the parent it runs
/// the same test in one child process per other width.
fn rerun_at_pool_widths(test: &str) {
    if std::env::var_os(WIDTH_CHILD).is_some() {
        return;
    }
    for width in ["1", "2", "4"] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test])
            .env("LARGEEA_THREADS", width)
            .env(WIDTH_CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "width {width}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn reflect_aggregate_equals_the_composed_formulation_bitwise() {
    rerun_at_pool_widths("reflect_aggregate_equals_the_composed_formulation_bitwise");
    for_each_case(0xAD04, 120, |rng| {
        // a few entities, or enough output rows that the pool splits them
        let n = [rng.gen_range(1..30usize), rng.gen_range(130..400usize)][rng.gen_range(0..2usize)];
        // both operands may be one node (r's scatter lands before h's)
        let same_operand = rng.gen_range(0..4u32) == 0;
        let n_rel = if same_operand {
            n
        } else {
            rng.gen_range(1..6usize)
        };
        // dims past one 64-column block, and message counts that leave the
        // last group of q chains partial, in one pool task or several
        let dim = [1, 7, 8, 64, 65, 130][rng.gen_range(0..6usize)];
        let msgs =
            [rng.gen_range(0..60usize), rng.gen_range(200..600usize)][rng.gen_range(0..2usize)];
        let h0 = random_param(rng, n, dim);
        let r0 = random_param(rng, n_rel, dim);
        let weights = random_param(rng, n, dim);
        // few entities against many messages: indices repeat in both lists;
        // in a quarter of the cases one relation row takes most messages
        let heavy = rng.gen_range(0..4u32) == 0;
        let h_rows: List = Rc::new((0..msgs).map(|_| rng.gen_range(0..n as u32)).collect());
        let mut relation = || {
            if heavy && rng.gen_range(0..10u32) != 0 {
                0
            } else {
                rng.gen_range(0..n_rel as u32)
            }
        };
        let r_rows: List = Rc::new((0..msgs).map(|_| relation()).collect());
        // twice as many entries as messages, so columns hold none, one or
        // several; the last output row stays empty
        let heads = (n as u32 - 1).max(1);
        let coo = (0..2 * msgs)
            .map(|_| {
                let (row, col) = (rng.gen_range(0..heads), rng.gen_range(0..msgs as u32));
                (row, col, rng.gen_range(-1.0f32..1.0))
            })
            .collect();
        let agg = SpOp::new(SparseMatrix::from_coo(n, msgs, coo));
        // the operands are leaves or op outputs, and `h`'s gradient slot may
        // already be occupied when the hop's contribution arrives
        let through_op = rng.gen_range(0..2u32) == 0;
        let second_consumer = rng.gen_range(0..2u32) == 0;

        let run = |fused: bool| {
            let mut tape = Tape::new();
            let (h_leaf, r_leaf) = (tape.param(&h0), tape.param(&r0));
            let (mut h, mut r) = (h_leaf, r_leaf);
            if through_op {
                h = tape.l2_normalize_rows(&[h], 1e-9);
                r = tape.l2_normalize_rows(&[r], 1e-9);
            }
            if same_operand {
                h = r;
            }
            let y = if fused {
                let (h_list, r_list) = (grouped(&h_rows, n), grouped(&r_rows, n_rel));
                tape.reflect_aggregate(&agg, h, r, h_list, r_list)
            } else {
                composed_reflect_aggregate(&mut tape, &agg, (h, r), (&h_rows, &r_rows))
            };
            let value = bits(tape.value(y));
            let w = tape.constant(&weights);
            let weighted = tape.mul_elem(y, w);
            let mut loss = tape.sum_all(weighted);
            if second_consumer {
                let extra = tape.sum_all(h);
                loss = tape.add(loss, extra);
            }
            tape.backward(loss);
            // (an `h` leaf replaced by `r` is unused and has no gradient)
            let grad = |v| tape.grad(v).map(bits);
            (value, grad(h_leaf), grad(r_leaf))
        };
        let (fused, composed) = (run(true), run(false));
        assert_eq!(fused.0, composed.0, "aggregated rows");
        assert_eq!(fused.1, composed.1, "h gradient");
        assert_eq!(fused.2, composed.2, "r gradient");
    });
}

/// `train` as it was before the tape was recycled: a fresh [`Tape`] for
/// every forward pass, the loss composed from small nodes, gradients
/// copied out of the tape.
fn train_on_fresh_tapes(
    model: &mut dyn EaModel,
    bg: &BatchGraph,
    cfg: &TrainConfig,
) -> (Matrix, Vec<f32>) {
    let forward = |model: &dyn EaModel| {
        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        tape.value(fp.embeddings).clone()
    };
    let adam_cfg = AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    };
    let mut adam = Adam::new(adam_cfg, model.store());
    let mut losses = Vec::new();
    let mut negatives = None;
    for epoch in 0..cfg.epochs {
        if negatives.is_none() || epoch % cfg.neg_refresh == 0 {
            negatives = Some(sample_negatives(
                bg,
                &forward(model),
                cfg.neg_samples,
                cfg.neg_strategy,
                cfg.seed.wrapping_add(epoch as u64),
                &Recorder::disabled(),
            ));
        }
        let negs = negatives.as_ref().unwrap();
        let (mut s, mut t, mut neg_t, mut neg_s) = (vec![], vec![], vec![], vec![]);
        for (pi, &(ps, pt)) in bg.train_pairs.iter().enumerate() {
            for ni in 0..cfg.neg_samples {
                s.push(ps);
                t.push(pt);
                neg_t.push(negs.corrupt_target(pi)[ni % negs.corrupt_target(pi).len()]);
                neg_s.push(negs.corrupt_source(pi)[ni % negs.corrupt_source(pi).len()]);
            }
        }
        let [s, t, neg_t, neg_s] = [s, t, neg_t, neg_s].map(Rc::new);

        let mut tape = Tape::new();
        let fp = model.forward(&mut tape);
        let rows = [&s, &t, &neg_t, &neg_s];
        let loss = composed_triplet_l1(&mut tape, fp.embeddings, rows, cfg.margin);
        tape.backward(loss);
        losses.push(tape.scalar(loss));
        let mut grads: Vec<Option<Matrix>> = vec![None; model.store().len()];
        for &(pid, var) in &fp.params {
            grads[pid.index()] = tape.grad(var).cloned();
        }
        let grads: Vec<Option<&Matrix>> = grads.iter().map(Option::as_ref).collect();
        adam.step(model.store_mut(), &grads);
    }
    (forward(model), losses)
}

#[test]
fn recycled_tape_training_equals_a_fresh_tape_per_epoch_bitwise() {
    rerun_at_pool_widths("recycled_tape_training_equals_a_fresh_tape_per_epoch_bitwise");
    // big enough that matmul, spmm and the row kernels split across the
    // pool (≥ 64·64 output elements)
    let pair = largeea::data::Preset::Ids15kEnFr.spec(0.02).generate();
    let seeds = pair.split_seeds(0.3, 11);
    let bg = whole_graph(&pair, &seeds);
    let cfg = TrainConfig {
        epochs: 7, // negatives resampled at 0 and 5
        dim: 24,
        neg_samples: 3,
        ..TrainConfig::default()
    };
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        let mut recycled = kind.build(&bg, cfg.dim, 5);
        let report = train(recycled.as_mut(), &bg, &cfg);
        let mut fresh = kind.build(&bg, cfg.dim, 5);
        let (embeddings, losses) = train_on_fresh_tapes(fresh.as_mut(), &bg, &cfg);
        let loss_bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss_bits(&report.losses), loss_bits(&losses), "{kind:?}");
        assert_eq!(bits(&report.embeddings), bits(&embeddings), "{kind:?}");
        assert!(report.tape_bytes > report.embeddings.nbytes(), "{kind:?}");
    }
}
