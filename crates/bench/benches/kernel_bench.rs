//! Micro-benchmarks for the dense kernels behind every hot stage.
//!
//! Two questions, both referenced from EXPERIMENTS.md ("Kernel notes"):
//!
//! 1. What does the production cache-blocked matmul cost vs the naive
//!    triple loop it replaced?
//! 2. Was the old `aik == 0.0` skip in the i-k-j inner loop worth keeping?
//!    The skip turns the unit-stride AXPY that the compiler can vectorise
//!    into a branchy loop; it only pays when A is mostly zeros. Both
//!    variants are reimplemented here verbatim so the comparison survives
//!    the skip's removal from the production kernel.

//! 3. What does runtime SIMD dispatch (DESIGN.md §S0.11) buy over the
//!    normative scalar kernels? `kernel_dispatch` times each kernel under
//!    `Isa::Scalar` and under the dispatched ISA on identical inputs;
//!    `--require-win` exits non-zero if dot, l1, l1_panel / sad_panel (the
//!    kernels the exact top-k scan runs), matmul or one of the training
//!    step's backward kernels (neg2_dot_rows, norm_dot_rows, reflect_acc,
//!    sign_acc) fail to beat scalar while a SIMD ISA is active, or if the
//!    scan's fused pre-filter kernel (sad_mask2, at the 64-, 128- and
//!    192-byte codes of GCN, SENS and RREA) fails to beat the two
//!    `sad_panel` calls and survivor masks it replaced.

use largeea_common::bench::{Bench, Measurement};
use largeea_common::pool::Pool;
use largeea_common::rng::Rng;
use largeea_tensor::kernels::{self, Isa};
use largeea_tensor::{active_isa, Matrix};

const N: usize = 160;

fn random_dense(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

/// `a` with each entry zeroed with probability `p` — models the sparse-ish
/// activations the old skip was betting on.
fn sparsify(rng: &mut Rng, a: &Matrix, p: f64) -> Matrix {
    let data = a
        .as_slice()
        .iter()
        .map(|&x| if rng.gen_bool(p) { 0.0 } else { x })
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// The pre-PR inner loop, skip included: `if aik == 0.0 { continue; }`.
fn ikj_with_skip(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k_dim, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for kk in 0..k_dim {
            let aik = a[(i, kk)];
            if aik == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[kk * m..(kk + 1) * m];
            let orow = &mut out.as_mut_slice()[i * m..(i + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// Same loop without the skip — a branch-free unit-stride AXPY.
fn ikj_no_skip(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k_dim, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for kk in 0..k_dim {
            let aik = a[(i, kk)];
            let brow = &b.as_slice()[kk * m..(kk + 1) * m];
            let orow = &mut out.as_mut_slice()[i * m..(i + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

fn bench_skip_variants(bench: &mut Bench) {
    let mut rng = Rng::seed_from_u64(7);
    let dense = random_dense(&mut rng, N, N);
    let sparse90 = sparsify(&mut rng, &dense, 0.9);
    let b = random_dense(&mut rng, N, N);
    let mut group = bench.group("matmul_aik_skip");
    group.bench_function("dense_with_skip", |br| {
        br.iter(|| ikj_with_skip(&dense, &b))
    });
    group.bench_function("dense_no_skip", |br| br.iter(|| ikj_no_skip(&dense, &b)));
    group.bench_function("sparse90_with_skip", |br| {
        br.iter(|| ikj_with_skip(&sparse90, &b))
    });
    group.bench_function("sparse90_no_skip", |br| {
        br.iter(|| ikj_no_skip(&sparse90, &b))
    });
    group.finish();
}

fn bench_production_kernels(bench: &mut Bench) {
    let mut rng = Rng::seed_from_u64(8);
    let a = random_dense(&mut rng, N, N);
    let b = random_dense(&mut rng, N, N);
    let tall = random_dense(&mut rng, 4 * N, N);
    let mut group = bench.group("production_kernels");
    group.bench_function("matmul_blocked_160", |br| br.iter(|| a.matmul(&b)));
    group.bench_function("matmul_naive_ikj_160", |br| br.iter(|| ikj_no_skip(&a, &b)));
    group.bench_function("transpose_640x160", |br| br.iter(|| tall.transpose()));
    group.finish();
}

/// Scalar-vs-dispatched timings for one kernel on identical inputs (or,
/// for `sad_mask2`, the composition it replaced against it).
struct Comparison {
    name: &'static str,
    baseline: &'static str,
    scalar: Measurement,
    dispatched: Measurement,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.scalar.median_ns / self.dispatched.median_ns
    }
}

/// Times each dispatchable kernel under `Isa::Scalar` and under the
/// runtime-selected ISA. The inputs are identical and the outputs are
/// bit-identical by contract (DESIGN.md §S0.11) — only the clock differs.
fn bench_dispatch_kernels(bench: &mut Bench) -> Vec<Comparison> {
    let isa = active_isa();
    let mut rng = Rng::seed_from_u64(9);
    const DIM: usize = 128;
    let a: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    // The shape the exact top-k scan hands the panel kernel: 64 base rows
    // of 128 floats (32 KiB, resident in L1d across iterations).
    const PANEL_ROWS: usize = 64;
    let panel: Vec<f32> = (0..PANEL_ROWS * DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut scores = [0.0f32; PANEL_ROWS];
    // The same panel as the scan's pre-filter sees it: one byte per dim.
    let code_q: Vec<u8> = (0..DIM).map(|_| rng.gen_range(0..256u32) as u8).collect();
    let code_panel: Vec<u8> = (0..PANEL_ROWS * DIM)
        .map(|_| rng.gen_range(0..256u32) as u8)
        .collect();
    let mut sads = [0u32; PANEL_ROWS];
    let mm_a = random_dense(&mut rng, N, N);
    let mm_b = random_dense(&mut rng, N, N);
    let pool = Pool::global();

    let mut group = bench.group("kernel_dispatch");
    let mut out = Vec::new();
    // Closures return the computed value so `Bencher::iter`'s black_box
    // keeps the optimiser from deleting the body.
    let mut compare = |group: &mut largeea_common::bench::Group<'_>,
                       name: &'static str,
                       f: &mut dyn FnMut(Isa) -> f32| {
        let scalar = group
            .bench_measured(format!("{name}_scalar"), |br| br.iter(|| f(Isa::Scalar)))
            .expect("measured");
        let dispatched = group
            .bench_measured(format!("{name}_{}", isa.name()), |br| br.iter(|| f(isa)))
            .expect("measured");
        out.push(Comparison {
            name,
            baseline: "scalar",
            scalar,
            dispatched,
        });
    };
    compare(&mut group, "dot", &mut |isa| kernels::dot_on(isa, &a, &b));
    compare(&mut group, "l1", &mut |isa| {
        kernels::l1_distance_on(isa, &a, &b)
    });
    // No `*_on` twin exists for the panel kernel: the scalar side is its
    // reference semantics (a loop over the scalar per-pair kernel), the
    // other side the dispatched call the scan makes.
    compare(&mut group, "l1_panel", &mut |isa| {
        if isa == Isa::Scalar {
            for (s, row) in scores.iter_mut().zip(panel.chunks_exact(DIM)) {
                *s = kernels::scalar::l1_distance(&a, row);
            }
        } else {
            kernels::l1_panel(&a, &panel, DIM, &mut scores);
        }
        scores[PANEL_ROWS - 1]
    });
    compare(&mut group, "sad_panel", &mut |isa| {
        if isa == Isa::Scalar {
            kernels::scalar::sad_panel(&code_q, &code_panel, DIM, &mut sads);
        } else {
            kernels::sad_panel(&code_q, &code_panel, DIM, &mut sads);
        }
        sads[PANEL_ROWS - 1] as f32
    });
    let mut composed = Vec::new();
    for (name, stride) in [
        ("sad_mask2_64", 64),
        ("sad_mask2_128", 128),
        ("sad_mask2_192", 192),
    ] {
        composed.push(sad_mask2_vs_composed(&mut group, name, stride, &mut rng));
    }
    compare(&mut group, "matmul", &mut |isa| {
        mm_a.matmul_on(&mm_b, pool, isa).as_slice()[0]
    });
    // The backward kernels at RREA's width (64): 64 messages' q chains, 64
    // rows' normalisation sums, a destination row's block summing 64
    // messages' terms of both hop directions, and a row summing 64 triplet
    // rows' two-term signs.
    const W: usize = 64;
    let rows: Vec<f32> = (0..PANEL_ROWS * W)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let other: Vec<f32> = (0..PANEL_ROWS * W)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let row = |m: &[f32], r: usize| -> Vec<f32> { m[r * W..(r + 1) * W].to_vec() };
    let row_pairs: Vec<[Vec<f32>; 3]> = (0..PANEL_ROWS)
        .map(|r| {
            [
                row(&rows, r),
                row(&other, r),
                row(&rows, (r + 7) % PANEL_ROWS),
            ]
        })
        .collect();
    let mut acc = vec![0.0f32; 2 * PANEL_ROWS];
    let heads: Vec<u32> = (0..PANEL_ROWS as u32)
        .map(|m| (m * 7) % PANEL_ROWS as u32)
        .collect();
    let weights = vec![0.25f32; PANEL_ROWS];
    // message m: one entry (upstream row `heads[m]` of `rows`), relation
    // row m of `other`
    let msg = |m: usize| kernels::HopMsg {
        heads: &heads[m..m + 1],
        weights: &weights[m..m + 1],
        dot: 0.5,
        q: -0.25,
        row: &other[m * W..(m + 1) * W],
    };
    compare(&mut group, "neg2_dot_rows", &mut |isa| {
        let acc = &mut acc[..PANEL_ROWS];
        if isa == Isa::Scalar {
            kernels::scalar::neg2_dot_rows(acc, (&rows, W), W, msg);
        } else {
            kernels::neg2_dot_rows(acc, (&rows, W), W, msg);
        }
        acc[PANEL_ROWS - 1]
    });
    compare(&mut group, "norm_dot_rows", &mut |isa| {
        if isa == Isa::Scalar {
            kernels::scalar::norm_dot_rows((&rows, W), (&other, W), W, &mut acc);
        } else {
            kernels::norm_dot_rows(&rows, W, &other, W, W, &mut acc);
        }
        acc[2 * PANEL_ROWS - 1]
    });
    let mut sum = [0.0f32; W];
    compare(&mut group, "reflect_acc", &mut |isa| {
        let msgs = (0..PANEL_ROWS).map(msg);
        if isa == Isa::Scalar {
            kernels::scalar::reflect_acc::<true>(&mut sum, (&rows, W), msgs.clone());
            kernels::scalar::reflect_acc::<false>(&mut sum, (&rows, W), msgs);
        } else {
            kernels::reflect_acc::<true>(&mut sum, (&rows, W), msgs.clone());
            kernels::reflect_acc::<false>(&mut sum, (&rows, W), msgs);
        }
        sum[W - 1]
    });
    compare(&mut group, "sign_acc", &mut |isa| {
        let terms = row_pairs
            .iter()
            .map(|[s, t, nt]| [(0.5, [&s[..], &nt[..]]), (-1.0, [&s[..], &t[..]])]);
        if isa == Isa::Scalar {
            kernels::scalar::sign_acc::<false, 2>(&mut sum, terms);
        } else {
            kernels::sign_acc::<false, 2>(&mut sum, terms);
        }
        sum[W - 1]
    });
    group.finish();
    out.extend(composed);

    println!();
    for c in &out {
        println!(
            "kernel.{:<13} {:>8.1} ns {}  {:>8.1} ns {}  ({:.2}x)",
            c.name,
            c.scalar.median_ns,
            c.baseline,
            c.dispatched.median_ns,
            isa.name(),
            c.speedup()
        );
        if c.name.ends_with("_panel") {
            let pairs_per_s = |m: &Measurement| PANEL_ROWS as f64 / (m.median_ns * 1e-9);
            println!(
                "kernel.{:<13} {:>8.1} M pairs/s scalar  {:>8.1} M pairs/s {}",
                c.name,
                pairs_per_s(&c.scalar) / 1e6,
                pairs_per_s(&c.dispatched) / 1e6,
                isa.name()
            );
        }
    }
    out
}

/// The scan's pre-filter for two queries against one 64-row code panel of
/// `stride` bytes, as `sad_mask2` runs it (dispatched) against the
/// composition it replaced: per query a dispatched `sad_panel` into 64
/// stored SADs, a branch-free mask against the limit plus the panel's
/// widest slack, then a per-row re-check of its bits. Limits and slacks
/// are set so a few rows in a hundred survive, as in the scan.
fn sad_mask2_vs_composed(
    group: &mut largeea_common::bench::Group<'_>,
    name: &'static str,
    stride: usize,
    rng: &mut Rng,
) -> Comparison {
    const ROWS: usize = 64;
    let mut codes =
        |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect() };
    let (q0, q1, panel) = (codes(stride), codes(stride), codes(ROWS * stride));
    let slack: Vec<u32> = (0..ROWS)
        .map(|_| rng.gen_range(0..stride as u32 * 4))
        .collect();
    let limit = [stride as u32 * 60; 2];
    let widest = slack.iter().copied().max().unwrap_or(0);
    let mut sads = [0u32; ROWS];
    let mut survivors = |q: &[u8], limit: u32| -> u64 {
        kernels::sad_panel(q, &panel, stride, &mut sads);
        let mut maybe = 0u64;
        for (r, &sad) in sads.iter().enumerate() {
            maybe |= u64::from(sad < limit.saturating_add(widest)) << r;
        }
        let mut keep = 0;
        while maybe != 0 {
            let r = maybe.trailing_zeros() as usize;
            maybe &= maybe - 1;
            if sads[r] < limit.saturating_add(slack[r]) {
                keep |= 1 << r;
            }
        }
        keep
    };
    let old = (survivors(&q0, limit[0]), survivors(&q1, limit[1]));
    let new = kernels::sad_mask2([&q0, &q1], &panel, stride, limit, &slack);
    assert_eq!([old.0, old.1], new, "{name}: the same masks");
    let scalar = group
        .bench_measured(format!("{name}_composed"), |br| {
            br.iter(|| survivors(&q0, limit[0]) ^ survivors(&q1, limit[1]))
        })
        .expect("measured");
    let dispatched = group
        .bench_measured(format!("{name}_{}", active_isa().name()), |br| {
            br.iter(|| {
                let [m0, m1] = kernels::sad_mask2([&q0, &q1], &panel, stride, limit, &slack);
                m0 ^ m1
            })
        })
        .expect("measured");
    Comparison {
        name,
        baseline: "composed",
        scalar,
        dispatched,
    }
}

fn main() {
    let mut bench = Bench::new();
    bench_skip_variants(&mut bench);
    bench_production_kernels(&mut bench);
    let comparisons = bench_dispatch_kernels(&mut bench);
    if std::env::args().any(|arg| arg == "--require-win") && active_isa() != Isa::Scalar {
        let losers: Vec<&str> = comparisons
            .iter()
            .filter(|c| {
                let backward = ["neg2_dot_rows", "norm_dot_rows", "reflect_acc", "sign_acc"];
                let scan = ["dot", "l1", "l1_panel", "sad_panel", "matmul"];
                let scan = scan.contains(&c.name) || c.name.starts_with("sad_mask2");
                (scan || backward.contains(&c.name)) && c.speedup() <= 1.0
            })
            .map(|c| c.name)
            .collect();
        if !losers.is_empty() {
            eprintln!(
                "kernel dispatch ({}) failed to beat scalar on: {}",
                active_isa().name(),
                losers.join(", ")
            );
            std::process::exit(1);
        }
        println!("kernel dispatch win confirmed ({})", active_isa().name());
    }
}
