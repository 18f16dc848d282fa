//! Runtime-dispatched SIMD micro-kernels (DESIGN.md §S0.11).
//!
//! Every kernel here exists in (at least) two bodies: a **scalar reference**
//! in [`scalar`] — the normative implementation, kept in the exact
//! unrolled-accumulator shape the rest of the workspace has always used —
//! and explicit `std::arch` versions (AVX2 on x86-64, NEON on aarch64)
//! selected once per process by [`active_isa`].
//!
//! ## Bit-identity contract
//!
//! The SIMD bodies are *transcriptions* of the scalar ones, not
//! re-derivations: same accumulator-lane layout (lane `j` of the vector
//! accumulator holds exactly what scalar `acc[j]` holds), same pairwise
//! combine tree, same sequential tail loop, and **no FMA contraction**
//! (multiply and add stay separate instructions, matching the scalar
//! `a * b` then `+=`). Under IEEE-754 each lane therefore performs the
//! identical sequence of rounded operations, so every kernel returns a
//! result bit-identical to its scalar reference on every input — including
//! NaN/∞ propagation. [`sad_panel`] and [`sad_mask2`] are exact integer
//! arithmetic and trivially order-independent. This is what lets
//! `LARGEEA_NO_SIMD=1` (and non-x86 hosts) reproduce committed baselines
//! byte-for-byte.
//!
//! The training step's backward kernels ([`neg2_dot_rows`],
//! [`norm_dot_rows`], [`reflect_acc`], [`sign_acc`]) reproduce the
//! autograd's own sums rather than an accumulator tree: a row chain is one
//! sequential sum per row, so the AVX2 body puts rows in lanes (lane `m`
//! is row `m`'s chain, columns added in order after an 8×8 transpose),
//! and a destination-row sum adds its items in order, lanes being columns.
//! They have a scalar and an AVX2 body; NEON hosts run the scalar one.
//!
//! ## Dispatch rules
//!
//! - `LARGEEA_NO_SIMD=1` (any non-empty value other than `0`) forces
//!   [`Isa::Scalar`] regardless of hardware.
//! - Otherwise the best ISA the CPU reports is picked once and cached for
//!   the process lifetime ([`Isa::Avx2`] via `is_x86_feature_detected!`,
//!   [`Isa::Neon`] on aarch64).
//! - The `*_on` variants take an explicit [`Isa`] for benches and tests;
//!   they safely fall back to scalar if the requested ISA is not actually
//!   available on this CPU, so no caller can reach an illegal instruction.
#![allow(unsafe_code)] // the only module in the workspace allowed intrinsics

use std::sync::OnceLock;

/// Instruction set a kernel call dispatches to. `Scalar` is the normative
/// reference; the others are bit-identical transcriptions of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable unrolled-accumulator Rust — the reference semantics.
    Scalar,
    /// x86-64 AVX2 (256-bit lanes; 8×f32 or 32×u8 per step).
    Avx2,
    /// aarch64 NEON (128-bit lanes; two 4×f32 accumulators per step).
    Neon,
}

impl Isa {
    /// Stable lowercase name — what lands in `kernel.isa` trace fields and
    /// the `kernel_isa` BENCH config entry.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    /// Whether this ISA can actually execute on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// The ISA every implicit kernel call dispatches to, detected once per
/// process. `LARGEEA_NO_SIMD=1` pins it to [`Isa::Scalar`].
pub fn active_isa() -> Isa {
    *ACTIVE.get_or_init(|| {
        let forced_off =
            std::env::var_os("LARGEEA_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_off {
            return Isa::Scalar;
        }
        if Isa::Avx2.available() {
            Isa::Avx2
        } else if Isa::Neon.available() {
            Isa::Neon
        } else {
            Isa::Scalar
        }
    })
}

/// Dot product of two `f32` slices, truncated to the shorter length.
/// Dispatched via [`active_isa`]; bit-identical across ISAs.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_on(active_isa(), a, b)
}

/// [`dot`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn dot_on(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// Manhattan (L1) distance between two `f32` slices, truncated to the
/// shorter length. Dispatched via [`active_isa`]; bit-identical across ISAs.
#[inline]
pub fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
    l1_distance_on(active_isa(), a, b)
}

/// [`l1_distance`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn l1_distance_on(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::l1_distance(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::l1_distance(a, b) },
        _ => scalar::l1_distance(a, b),
    }
}

/// `y[i] += alpha * x[i]` over the common prefix (the `scaled_add_assign`
/// primitive). Element-wise — no reduction, so nothing to reassociate —
/// and deliberately *not* dispatched: LLVM already vectorises this loop,
/// and the hand-written AVX2/NEON bodies measured 0.95–0.98× of it
/// (EXPERIMENTS.md "Kernel notes").
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

/// Manhattan distance from one query to every row of a row-major `panel`
/// (`out.len()` rows of `dim` floats): `out[r]` is bit-identical to
/// [`l1_distance`]`(q, row_r)`. This is the kernel the exact top-k scan
/// runs on — the ISA is resolved once per panel instead of once per pair,
/// and the AVX2 body scores four rows per step so four independent
/// accumulators hide the add latency a single row's chain exposes.
///
/// # Panics
///
/// If `q.len() != dim` or `panel.len() != out.len() * dim` — a panel
/// never prefix-scores the way the per-pair kernels truncate.
#[inline]
pub fn l1_panel(q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
    panel_on::<true>(active_isa(), q, panel, dim, out)
}

/// Inner products of one query with every row of a row-major `panel`;
/// same contract (and panics) as [`l1_panel`], against [`dot`].
#[inline]
pub fn dot_panel(q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
    panel_on::<false>(active_isa(), q, panel, dim, out)
}

/// Both panel kernels on an explicit ISA: L1 distances (`L1`) or dot
/// products. Off AVX2 this is the reference semantics — a loop over the
/// per-pair kernel (scalar, or NEON's per-row body).
fn panel_on<const L1: bool>(isa: Isa, q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
    // Also what the AVX2 body's pointer arithmetic relies on.
    assert_eq!(q.len(), dim, "panel query length mismatch");
    assert_eq!(panel.len(), out.len() * dim, "panel shape mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the asserts above established the shape the body assumes.
        Isa::Avx2 if isa.available() => unsafe { avx2::panel::<L1>(q, panel, dim, out) },
        _ => {
            for (r, o) in out.iter_mut().enumerate() {
                let row = &panel[r * dim..(r + 1) * dim];
                *o = if L1 {
                    l1_distance_on(isa, q, row)
                } else {
                    dot_on(isa, q, row)
                };
            }
        }
    }
}

/// Sum of absolute differences between one `u8` code row and every row of
/// a row-major code `panel` (`out.len()` rows of `stride` bytes): the
/// integer half of the exact scan's lossless pre-filter (DESIGN.md §S0.11).
/// Exact integer arithmetic, so every ISA returns the same numbers.
///
/// # Panics
///
/// If `stride` is not a multiple of 32 (the AVX2 body reads whole 32-byte
/// chunks and nothing else) or exceeds 2²⁴ (a row's SAD must fit `u32`),
/// `q.len() != stride`, or `panel.len() != out.len() * stride`.
#[inline]
pub fn sad_panel(q: &[u8], panel: &[u8], stride: usize, out: &mut [u32]) {
    sad_panel_on(active_isa(), q, panel, stride, out)
}

/// [`sad_panel`] on an explicit ISA (scalar unless AVX2 is asked for and
/// available).
fn sad_panel_on(isa: Isa, q: &[u8], panel: &[u8], stride: usize, out: &mut [u32]) {
    // Also what the AVX2 body's pointer arithmetic relies on.
    check_code_stride(stride);
    assert_eq!(q.len(), stride, "sad panel query length mismatch");
    assert_eq!(panel.len(), out.len() * stride, "sad panel shape mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the asserts above established the shape the body assumes.
        Isa::Avx2 if isa.available() => unsafe { avx2::sad_panel(q, panel, stride, out) },
        _ => scalar::sad_panel(q, panel, stride, out),
    }
}

/// A code row's stride as the SAD kernels take it: whole 32-byte chunks
/// (all the AVX2 bodies read), and short enough for a row's SAD to fit
/// `u32`.
fn check_code_stride(stride: usize) {
    assert!(
        stride.is_multiple_of(32) && stride <= 1 << 24,
        "sad panel stride must be a multiple of 32, at most 2^24"
    );
}

/// The exact scan's pre-filter test (DESIGN.md §S0.11) for two queries
/// against one code `panel` (`slack.len()` rows of `stride` bytes, at most
/// 64): bit `r` of mask `j` is set iff `SAD(q[j], row r) <
/// limit[j].saturating_add(slack[r])`, the rows query `j` cannot rule
/// out. Each panel row is loaded once for both queries and its SADs are
/// compared in registers, never stored. Exact integer arithmetic, so every
/// ISA returns the same masks.
///
/// # Panics
///
/// If `stride` breaks [`sad_panel`]'s rule, a query's length is not
/// `stride`, `slack.len() > 64`, or `panel.len() != slack.len() * stride`.
#[inline]
pub fn sad_mask2(
    q: [&[u8]; 2],
    panel: &[u8],
    stride: usize,
    limit: [u32; 2],
    slack: &[u32],
) -> [u64; 2] {
    sad_mask2_on(active_isa(), q, panel, stride, limit, slack)
}

/// [`sad_mask2`] on an explicit ISA (scalar unless AVX2 is asked for and
/// available).
fn sad_mask2_on(
    isa: Isa,
    q: [&[u8]; 2],
    panel: &[u8],
    stride: usize,
    limit: [u32; 2],
    slack: &[u32],
) -> [u64; 2] {
    // Also what the AVX2 body's pointer arithmetic relies on.
    check_code_stride(stride);
    assert!(
        q.iter().all(|q| q.len() == stride),
        "sad mask query length mismatch"
    );
    assert!(slack.len() <= 64, "sad mask takes at most 64 rows");
    assert_eq!(panel.len(), slack.len() * stride, "sad mask shape mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the asserts above established the shape the body assumes.
        Isa::Avx2 if isa.available() => unsafe { avx2::sad_mask2(q, panel, stride, limit, slack) },
        _ => scalar::sad_mask2(q, panel, stride, limit, slack),
    }
}

/// Continues one sequential chain per message, `acc.len()` of them with
/// message `m` given by `msg(m)`: `acc[m] += (−gm_k·2)·row_k` for `k` in
/// `0..width` in column order, where `gm_k = 0 + Σ_e w_e·g[heads_e][k]`
/// is the message's upstream value (its entries in order, formed as in
/// [`reflect_acc`]) and `row` its relation row — the `q` of RREA's hop
/// backward, formed straight from the upstream and relation rows. The
/// messages' `dot` and `q` are not read. Each chain's adds keep their
/// order; the chains run side by side (eight to a register on AVX2, four
/// interleaved in the scalar body), so they overlap instead of each waiting
/// out the add latency alone.
///
/// # Panics
///
/// If a message's `row` is shorter than `width`, its heads and weights
/// differ in length, or a head's row does not fit in `g`.
#[inline]
pub fn neg2_dot_rows<'a>(
    acc: &mut [f32],
    g: (&'a [f32], usize),
    width: usize,
    msg: impl Fn(usize) -> HopMsg<'a>,
) {
    neg2_dot_rows_on(active_isa(), acc, g, width, msg)
}

fn neg2_dot_rows_on<'a>(
    isa: Isa,
    acc: &mut [f32],
    g: (&'a [f32], usize),
    width: usize,
    msg: impl Fn(usize) -> HopMsg<'a>,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the body checks every row's extent before it loads from it.
        Isa::Avx2 if isa.available() => unsafe { avx2::neg2_dot_rows(acc, g, width, msg) },
        _ => scalar::neg2_dot_rows(acc, g, width, msg),
    }
}

/// Continues two sequential chains per row, `‖x‖²` and `g·x`: for row `m`
/// of `acc.len() / 2`, `acc[2m] += x_k·x_k` and `acc[2m + 1] += g_k·x_k`
/// for `k` in column order, where row `m` of `x` is
/// `x[m·x_stride..][..width]` and of `g` is `g[m·g_stride..][..width]` —
/// the row sums of the normalisation's backward. Rows run side by side as
/// in [`neg2_dot_rows`], each row's order kept.
///
/// # Panics
///
/// If `acc.len()` is odd, a stride is below `width`, or `x`/`g` is too
/// short to hold the rows.
#[inline]
pub fn norm_dot_rows(
    x: &[f32],
    x_stride: usize,
    g: &[f32],
    g_stride: usize,
    width: usize,
    acc: &mut [f32],
) {
    norm_dot_rows_on(active_isa(), (x, x_stride), (g, g_stride), width, acc)
}

fn norm_dot_rows_on(
    isa: Isa,
    (x, x_stride): (&[f32], usize),
    (g, g_stride): (&[f32], usize),
    width: usize,
    acc: &mut [f32],
) {
    // Also what the AVX2 body's pointer arithmetic relies on.
    let rows = acc.len() / 2;
    let fits = |len: usize, stride: usize| {
        let end = (rows.saturating_sub(1).checked_mul(stride)).and_then(|at| at.checked_add(width));
        stride >= width && (rows == 0 || end.is_some_and(|end| end <= len))
    };
    assert!(
        acc.len().is_multiple_of(2) && fits(x.len(), x_stride) && fits(g.len(), g_stride),
        "norm_dot_rows shape mismatch"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the assert above established the shape the body assumes.
        Isa::Avx2 if isa.available() => unsafe {
            avx2::norm_dot_rows((x, x_stride), (g, g_stride), width, acc)
        },
        _ => scalar::norm_dot_rows((x, x_stride), (g, g_stride), width, acc),
    }
}

/// One message of [`reflect_acc`]: its entries' rows of the upstream
/// gradient and their weights, its `x·r` and `q`, and the other operand's
/// row (`x` toward `r`, `r` toward `h`).
#[derive(Debug, Clone, Copy)]
pub struct HopMsg<'a> {
    /// The upstream rows the message's entries name.
    pub heads: &'a [u32],
    /// The entries' weights, one per head.
    pub weights: &'a [f32],
    /// The message's `x·r`.
    pub dot: f32,
    /// The message's `q`.
    pub q: f32,
    /// The other operand's row.
    pub row: &'a [f32],
}

/// For each message of `msgs` in turn, forms its upstream row
/// `gm_k = 0 + Σ_e w_e·g[heads_e][k]` (entries in order) and adds its term
/// to `sum`: `(−gm_k·2)·dot + q·row_k` toward `r` (`TO_R`), `gm_k +
/// q·row_k` toward `h` — one destination row's block of RREA's hop
/// backward. Row `h` of the upstream gradient is `g[h·stride..][..n]`
/// for `n = sum.len()`.
///
/// # Panics
///
/// If a message's `row` is shorter than `sum`, its heads and weights
/// differ in length, or a head's row does not fit in `g`.
#[inline]
pub fn reflect_acc<'a, const TO_R: bool>(
    sum: &mut [f32],
    g: (&[f32], usize),
    msgs: impl Iterator<Item = HopMsg<'a>>,
) {
    reflect_acc_on::<TO_R>(active_isa(), sum, g, msgs)
}

fn reflect_acc_on<'a, const TO_R: bool>(
    isa: Isa,
    sum: &mut [f32],
    g: (&[f32], usize),
    msgs: impl Iterator<Item = HopMsg<'a>>,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the body checks every row's extent before it loads from it.
        Isa::Avx2 if isa.available() => unsafe { avx2::reflect_acc::<TO_R>(sum, g, msgs) },
        _ => scalar::reflect_acc::<TO_R>(sum, g, msgs),
    }
}

/// A coefficient and the row pair `[a, b]` whose difference's sign it
/// scales: one term of [`sign_acc`].
pub type SignTerm<'a> = (f32, [&'a [f32]; 2]);

/// For each item of `terms` in turn, `sum[k] += t_1 + … + t_N` with
/// `t_j = c_j·sgn(a_j[k] − b_j[k])` (`−(c_j·sgn(…))` with `NEG`) for the
/// item's terms `(c_j, [a_j, b_j])`, added left to right; `sgn` is 1, −1,
/// or +0.0 for ±0.0 and NaN differences. One destination row's sum over
/// one part of a triplet batch in the margin loss's gradient, walked once.
///
/// # Panics
///
/// If a row of a term is shorter than `sum`.
#[inline]
pub fn sign_acc<'a, const NEG: bool, const N: usize>(
    sum: &mut [f32],
    terms: impl Iterator<Item = [SignTerm<'a>; N]>,
) {
    sign_acc_on::<NEG, N>(active_isa(), sum, terms)
}

fn sign_acc_on<'a, const NEG: bool, const N: usize>(
    isa: Isa,
    sum: &mut [f32],
    terms: impl Iterator<Item = [SignTerm<'a>; N]>,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // the body checks every row's length before it loads from it.
        Isa::Avx2 if isa.available() => unsafe { avx2::sign_acc::<NEG, N>(sum, terms) },
        _ => scalar::sign_acc::<NEG, N>(sum, terms),
    }
}

/// MR=4 packed-panel matmul micro-kernel on an explicit ISA. Four rows of A
/// stream against one packed B panel; every output element accumulates its
/// products strictly in ascending-`k` order, one add per `k`, so all ISAs
/// agree bitwise (see [`Matrix::matmul_in`](crate::Matrix::matmul_in)).
#[inline]
pub(crate) fn mk4_on(isa: Isa, a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::mk4(a, packed, nc_len, o) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::mk4(a, packed, nc_len, o) },
        _ => scalar::mk4(a, packed, nc_len, o),
    }
}

/// Single-row remainder matmul micro-kernel on an explicit ISA.
#[inline]
pub(crate) fn mk1_on(isa: Isa, a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::mk1(a_row, packed, nc_len, out_row) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::mk1(a_row, packed, nc_len, out_row) },
        _ => scalar::mk1(a_row, packed, nc_len, out_row),
    }
}

/// Normative scalar reference kernels. Every SIMD body must reproduce these
/// bit-for-bit; prop-tests in this module and `scripts/verify.sh`'s
/// scalar-forced smoke enforce it.
pub mod scalar {
    /// Unrolled dot product, truncated to the shorter length.
    ///
    /// A plain `zip().map().sum()` is a strict sequential FP reduction the
    /// compiler may not reassociate, so it never vectorises; eight
    /// independent accumulators recover SIMD throughput. The accumulator
    /// split and the pairwise combine are fixed functions of the slice
    /// length — never of thread count or chunking — so the result is
    /// deterministic.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f32; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
            for j in 0..8 {
                acc[j] += xa[j] * xb[j];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += x * y;
        }
        (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
    }

    /// Unrolled L1 (Manhattan) distance, truncated to the shorter length.
    /// Same eight-accumulator scheme (and determinism argument) as [`dot`].
    pub fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f32; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
            for j in 0..8 {
                acc[j] += (xa[j] - xb[j]).abs();
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += (x - y).abs();
        }
        (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
    }

    /// Sum of absolute byte differences of `q` against each `stride`-byte
    /// row of `panel`.
    pub fn sad_panel(q: &[u8], panel: &[u8], stride: usize, out: &mut [u32]) {
        for (r, o) in out.iter_mut().enumerate() {
            let row = &panel[r * stride..(r + 1) * stride];
            *o = q
                .iter()
                .zip(row)
                .map(|(&a, &b)| u32::from(a.abs_diff(b)))
                .sum();
        }
    }

    /// See [`super::sad_mask2`]: each row's two SADs, then its two tests.
    pub fn sad_mask2(
        q: [&[u8]; 2],
        panel: &[u8],
        stride: usize,
        limit: [u32; 2],
        slack: &[u32],
    ) -> [u64; 2] {
        let mut masks = [0u64; 2];
        for (r, &slack) in slack.iter().enumerate() {
            let row = &panel[r * stride..(r + 1) * stride];
            for ((mask, q), limit) in masks.iter_mut().zip(q).zip(limit) {
                let sad: u32 = (q.iter().zip(row))
                    .map(|(&a, &b)| u32::from(a.abs_diff(b)))
                    .sum();
                *mask |= u64::from(sad < limit.saturating_add(slack)) << r;
            }
        }
        masks
    }

    /// Rows a row-chain body runs side by side.
    const CHAINS: usize = 4;

    /// `acc + Σ_k term(k)` for `k` in `0..n`, one add at a time.
    #[inline(always)]
    pub(super) fn chain(acc: f32, n: usize, term: impl Fn(usize) -> f32) -> f32 {
        (0..n).fold(acc, |acc, k| acc + term(k))
    }

    /// `-a * 2.0`, then times `b`: one term of [`neg2_dot_rows`].
    #[inline(always)]
    pub(super) fn neg2_mul(a: f32, b: f32) -> f32 {
        (-a * 2.0) * b
    }

    /// See [`super::neg2_dot_rows`]: four messages' chains interleaved,
    /// then the remainder messages one at a time, 64 columns at a time,
    /// each block's upstream values formed first.
    pub fn neg2_dot_rows<'a>(
        acc: &mut [f32],
        g: (&'a [f32], usize),
        width: usize,
        msg: impl Fn(usize) -> super::HopMsg<'a>,
    ) {
        let groups = acc.len() / CHAINS;
        for (gi, q) in acc[..groups * CHAINS].chunks_exact_mut(CHAINS).enumerate() {
            let msgs: [_; CHAINS] = std::array::from_fn(|m| msg(gi * CHAINS + m));
            let rows: [_; CHAINS] = std::array::from_fn(|m| hop_row(&msgs[m], g, width));
            let mut c = [q[0], q[1], q[2], q[3]];
            for at in (0..width).step_by(64) {
                let n = (width - at).min(64);
                let gm: [_; CHAINS] = std::array::from_fn(|m| upstream_block(&msgs[m], g, at, n));
                for k in 0..n {
                    for (c, (gm, row)) in c.iter_mut().zip(gm.iter().zip(&rows)) {
                        *c += neg2_mul(gm[k], row[at + k]);
                    }
                }
            }
            q.copy_from_slice(&c);
        }
        for (m, q) in (groups * CHAINS..).zip(&mut acc[groups * CHAINS..]) {
            let msg = msg(m);
            let row = hop_row(&msg, g, width);
            for at in (0..width).step_by(64) {
                let n = (width - at).min(64);
                let gm = upstream_block(&msg, g, at, n);
                *q = chain(*q, n, |k| neg2_mul(gm[k], row[at + k]));
            }
        }
    }

    /// Columns `at..at + n` (`n ≤ 64`) of `msg`'s upstream row, each
    /// `0 + Σ_e w_e·g[heads_e][k]` with the entries in order; the rest of
    /// the block is zero.
    pub(super) fn upstream_block(
        msg: &super::HopMsg,
        (g, stride): (&[f32], usize),
        at: usize,
        n: usize,
    ) -> [f32; 64] {
        let mut gm = [0.0f32; 64];
        for (&h, &w) in msg.heads.iter().zip(msg.weights) {
            let up = &g[h as usize * stride + at..][..n];
            for (gm, &u) in gm.iter_mut().zip(up) {
                *gm += w * u;
            }
        }
        gm
    }

    /// Column `k` of `msg`'s upstream row: `0 + Σ_e w_e·g[heads_e][k]`, its
    /// entries in order.
    #[inline(always)]
    pub(super) fn upstream(msg: &super::HopMsg, (g, stride): (&[f32], usize), k: usize) -> f32 {
        (msg.heads.iter().zip(msg.weights))
            .fold(0.0, |gm, (&h, &w)| gm + w * g[h as usize * stride + k])
    }

    /// See [`super::norm_dot_rows`]: four rows' chain pairs interleaved,
    /// then the remainder rows one at a time.
    pub fn norm_dot_rows(
        (x, x_stride): (&[f32], usize),
        (g, g_stride): (&[f32], usize),
        width: usize,
        acc: &mut [f32],
    ) {
        let rows = acc.len() / 2;
        let groups = rows / CHAINS;
        for (gi, sums) in acc[..groups * 2 * CHAINS]
            .chunks_exact_mut(2 * CHAINS)
            .enumerate()
        {
            let row = |m: usize| {
                let r = gi * CHAINS + m;
                (&x[r * x_stride..][..width], &g[r * g_stride..][..width])
            };
            let rows = [row(0), row(1), row(2), row(3)];
            let mut c = [0.0f32; 2 * CHAINS];
            c.copy_from_slice(sums);
            for k in 0..width {
                for (m, (x, g)) in rows.iter().enumerate() {
                    c[2 * m] += x[k] * x[k];
                    c[2 * m + 1] += g[k] * x[k];
                }
            }
            sums.copy_from_slice(&c);
        }
        for r in groups * CHAINS..rows {
            let (x, g) = (&x[r * x_stride..][..width], &g[r * g_stride..][..width]);
            acc[2 * r] = chain(acc[2 * r], width, |k| x[k] * x[k]);
            acc[2 * r + 1] = chain(acc[2 * r + 1], width, |k| g[k] * x[k]);
        }
    }

    /// `msg`'s own row cut to `n` columns, once the message is checked:
    /// its row that long, a weight per head, and every head's row of `g`
    /// (`g[h·stride..][..n]`) inside `g`. Panics where
    /// [`super::reflect_acc`] and [`super::neg2_dot_rows`] say.
    pub(super) fn hop_row<'a>(
        msg: &super::HopMsg<'a>,
        (g, stride): (&[f32], usize),
        n: usize,
    ) -> &'a [f32] {
        assert!(
            msg.row.len() >= n && msg.heads.len() == msg.weights.len(),
            "hop message shape mismatch"
        );
        let fits = |&h: &u32| {
            let end = (h as usize)
                .checked_mul(stride)
                .and_then(|at| at.checked_add(n));
            end.is_some_and(|end| end <= g.len())
        };
        assert!(
            msg.heads.iter().all(fits),
            "hop message head past the upstream gradient"
        );
        &msg.row[..n]
    }

    /// One column of [`super::reflect_acc`]'s term, from the upstream value.
    #[inline(always)]
    pub(super) fn hop_term<const TO_R: bool>(gm: f32, msg: &super::HopMsg, row_k: f32) -> f32 {
        if TO_R {
            (-gm * 2.0) * msg.dot + msg.q * row_k
        } else {
            gm + msg.q * row_k
        }
    }

    /// See [`super::reflect_acc`].
    pub fn reflect_acc<'a, const TO_R: bool>(
        sum: &mut [f32],
        g: (&[f32], usize),
        msgs: impl Iterator<Item = super::HopMsg<'a>>,
    ) {
        let n = sum.len();
        for msg in msgs {
            let row = hop_row(&msg, g, n);
            // 64 columns' upstream values at a time, each its own sum
            let chunks = sum.chunks_mut(64).zip(row.chunks(64));
            for (at, (sum, row)) in (0..n).step_by(64).zip(chunks) {
                let gm = upstream_block(&msg, g, at, sum.len());
                for ((s, &gm), &r) in sum.iter_mut().zip(&gm).zip(row) {
                    *s += hop_term::<TO_R>(gm, &msg, r);
                }
            }
        }
    }

    /// 1, −1, or +0.0 for ±0.0 and NaN.
    #[inline(always)]
    pub(crate) fn signum_or_zero(x: f32) -> f32 {
        if x > 0.0 {
            1.0
        } else if x < 0.0 {
            -1.0
        } else {
            0.0
        }
    }

    /// `c·sgn(a − b)`, negated with `NEG`.
    #[inline(always)]
    pub(super) fn sign_term<const NEG: bool>(c: f32, a: f32, b: f32) -> f32 {
        let t = c * signum_or_zero(a - b);
        if NEG {
            -t
        } else {
            t
        }
    }

    /// See [`super::sign_acc`].
    pub fn sign_acc<'a, const NEG: bool, const N: usize>(
        sum: &mut [f32],
        terms: impl Iterator<Item = [super::SignTerm<'a>; N]>,
    ) {
        let n = sum.len();
        for item in terms {
            let rows = item.map(|(c, [a, b])| {
                assert!(
                    a.len() >= n && b.len() >= n,
                    "sign_acc row shorter than its sum"
                );
                (c, &a[..n], &b[..n])
            });
            for (k, s) in sum.iter_mut().enumerate() {
                let term = |&(c, a, b): &(f32, &[f32], &[f32])| sign_term::<NEG>(c, a[k], b[k]);
                *s += rows[1..].iter().fold(term(&rows[0]), |t, r| t + term(r));
            }
        }
    }

    /// MR=4 register micro-kernel: four A rows against one packed B panel.
    /// The output sub-rows are pre-sliced to exactly `nc_len`, so every
    /// index below is provably in bounds and the j-loop vectorises.
    #[inline]
    pub(crate) fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        for (kk, ((&x0, &x1), (&x2, &x3))) in a0.iter().zip(a1).zip(a2.iter().zip(a3)).enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            for (((c0, c1), (c2, c3)), &bv) in o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut().zip(o3.iter_mut()))
                .zip(brow)
            {
                *c0 += x0 * bv;
                *c1 += x1 * bv;
                *c2 += x2 * bv;
                *c3 += x3 * bv;
            }
        }
    }

    /// Single-row remainder micro-kernel.
    #[inline]
    pub(crate) fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        for (kk, &x) in a_row.iter().enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += x * bv;
            }
        }
    }
}

/// AVX2 transcriptions of [`scalar`]. Lane `j` of each 256-bit accumulator
/// carries exactly what scalar `acc[j]` carries; the horizontal combine
/// spills to an array and reuses the scalar pairwise tree; multiplies and
/// adds stay separate instructions (no FMA), so results are bit-identical.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += a[i] * b[i];
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        // `f32::abs` clears the sign bit; andnot with -0.0 is the same op.
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign, _mm256_sub_ps(va, vb)));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += (a[i] - b[i]).abs();
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// One accumulator step of a panel row: `|q − b|` (`L1`) or `q · b`,
    /// the same operand order and instructions as [`l1_distance`] / [`dot`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn term<const L1: bool>(vq: __m256, vb: __m256) -> __m256 {
        if L1 {
            _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(vq, vb))
        } else {
            _mm256_mul_ps(vq, vb)
        }
    }

    /// One query against `out.len()` panel rows: L1 distances (`L1`) or
    /// dot products. Four rows per step, one accumulator each — lane `j`
    /// of accumulator `r` is scalar `acc[j]` of row `r`, so the four
    /// 16-deep add chains are independent and overlap instead of each
    /// waiting out the add latency alone.
    ///
    /// The horizontal combine is the scalar tree, four rows at once:
    /// `hadd(x, y)` puts `x0+x1, x2+x3, y0+y1, y2+y3` in the low half and
    /// the same of lanes 4–7 in the high half, so two rounds leave
    /// `(l0+l1)+(l2+l3)` of rows 0–3 in the low half and
    /// `(l4+l5)+(l6+l7)` in the high half; adding the halves is the
    /// tree's root. The tail then runs sequentially and is added last,
    /// exactly as in the per-row kernels, which also score the ≤3
    /// remainder rows.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, `q.len() == dim` and
    /// `panel.len() == out.len() * dim`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn panel<const L1: bool>(q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
        let chunks = dim / 8;
        let quads = out.len() / 4;
        for g in 0..quads {
            let rows = &panel[g * 4 * dim..(g + 1) * 4 * dim];
            let p0 = rows.as_ptr();
            let (p1, p2, p3) = (p0.add(dim), p0.add(2 * dim), p0.add(3 * dim));
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for i in 0..chunks {
                let vq = _mm256_loadu_ps(q.as_ptr().add(i * 8));
                a0 = _mm256_add_ps(a0, term::<L1>(vq, _mm256_loadu_ps(p0.add(i * 8))));
                a1 = _mm256_add_ps(a1, term::<L1>(vq, _mm256_loadu_ps(p1.add(i * 8))));
                a2 = _mm256_add_ps(a2, term::<L1>(vq, _mm256_loadu_ps(p2.add(i * 8))));
                a3 = _mm256_add_ps(a3, term::<L1>(vq, _mm256_loadu_ps(p3.add(i * 8))));
            }
            let h = _mm256_hadd_ps(_mm256_hadd_ps(a0, a1), _mm256_hadd_ps(a2, a3));
            let mut sums = [0.0f32; 4];
            _mm_storeu_ps(
                sums.as_mut_ptr(),
                _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1)),
            );
            for (r, sum) in sums.into_iter().enumerate() {
                let row = &rows[r * dim..(r + 1) * dim];
                let mut tail = 0.0f32;
                for i in chunks * 8..dim {
                    tail += if L1 {
                        (q[i] - row[i]).abs()
                    } else {
                        q[i] * row[i]
                    };
                }
                out[g * 4 + r] = sum + tail;
            }
        }
        for r in quads * 4..out.len() {
            let row = &panel[r * dim..(r + 1) * dim];
            out[r] = if L1 { l1_distance(q, row) } else { dot(q, row) };
        }
    }

    /// Four rows per step, one accumulator of four 64-bit lane sums each,
    /// folded by [`four_sums`]. The ≤3 remainder rows take the scalar body.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, `stride % 32 == 0`,
    /// `q.len() == stride` and `panel.len() == out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sad_panel(q: &[u8], panel: &[u8], stride: usize, out: &mut [u32]) {
        let chunks = stride / 32;
        let quads = out.len() / 4;
        let pq = q.as_ptr();
        for g in 0..quads {
            let p0 = panel.as_ptr().add(g * 4 * stride);
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            let mut a2 = _mm256_setzero_si256();
            let mut a3 = _mm256_setzero_si256();
            for i in 0..chunks {
                let vq = _mm256_loadu_si256(pq.add(i * 32) as *const __m256i);
                let at =
                    |r: usize| _mm256_loadu_si256(p0.add(r * stride + i * 32) as *const __m256i);
                a0 = _mm256_add_epi64(a0, _mm256_sad_epu8(vq, at(0)));
                a1 = _mm256_add_epi64(a1, _mm256_sad_epu8(vq, at(1)));
                a2 = _mm256_add_epi64(a2, _mm256_sad_epu8(vq, at(2)));
                a3 = _mm256_add_epi64(a3, _mm256_sad_epu8(vq, at(3)));
            }
            let sums = four_sums(a0, a1, a2, a3);
            _mm_storeu_si128(out.as_mut_ptr().add(g * 4) as *mut __m128i, sums);
        }
        let done = quads * 4;
        super::scalar::sad_panel(q, &panel[done * stride..], stride, &mut out[done..]);
    }

    /// Lane `r` is the sum of `a_r`'s four 64-bit lanes. A row's whole SAD
    /// is below 2³² (the stride is at most 2²⁴), so the upper half of every
    /// lane is zero and two rows interleave into one register of 32-bit
    /// sums; two unpacks line the four rows up and two adds fold the four
    /// lane positions.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn four_sums(a0: __m256i, a1: __m256i, a2: __m256i, a3: __m256i) -> __m128i {
        let r01 = _mm256_or_si256(a0, _mm256_slli_epi64(a1, 32));
        let r23 = _mm256_or_si256(a2, _mm256_slli_epi64(a3, 32));
        let lanes = _mm256_add_epi32(
            _mm256_unpacklo_epi64(r01, r23),
            _mm256_unpackhi_epi64(r01, r23),
        );
        _mm_add_epi32(
            _mm256_castsi256_si128(lanes),
            _mm256_extracti128_si256(lanes, 1),
        )
    }

    /// Four panel rows a step against both queries: eight `vpsadbw`
    /// accumulators (query `j`, row `r`) over the rows' 32-byte chunks,
    /// folded into one register whose lanes 0–3 hold query 0's four SADs
    /// and 4–7 query 1's; each is compared with its bound `limit[j] +
    /// min(slack[r], u32::MAX − limit[j])` — the saturating add — as an
    /// unsigned `max(sad, bound) == sad`, and the compare's sign bits are
    /// the rows' four mask bits per query. The ≤ 3 remainder rows take the
    /// scalar body.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, `stride % 32 == 0`, both
    /// queries are `stride` bytes, `slack.len() <= 64` and
    /// `panel.len() == slack.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sad_mask2(
        q: [&[u8]; 2],
        panel: &[u8],
        stride: usize,
        limit: [u32; 2],
        slack: &[u32],
    ) -> [u64; 2] {
        let chunks = stride / 32;
        let quads = slack.len() / 4;
        let (pq0, pq1) = (q[0].as_ptr(), q[1].as_ptr());
        let [l0, l1] = limit.map(|l| l as i32);
        let lim = _mm256_setr_epi32(l0, l0, l0, l0, l1, l1, l1, l1);
        let room = _mm256_xor_si256(lim, _mm256_set1_epi32(-1));
        let mut masks = [0u64; 2];
        for g in 0..quads {
            let p0 = panel.as_ptr().add(g * 4 * stride);
            let mut a = [_mm256_setzero_si256(); 8];
            for i in 0..chunks {
                let v0 = _mm256_loadu_si256(pq0.add(i * 32) as *const __m256i);
                let v1 = _mm256_loadu_si256(pq1.add(i * 32) as *const __m256i);
                for r in 0..4 {
                    let row = _mm256_loadu_si256(p0.add(r * stride + i * 32) as *const __m256i);
                    a[r] = _mm256_add_epi64(a[r], _mm256_sad_epu8(v0, row));
                    a[4 + r] = _mm256_add_epi64(a[4 + r], _mm256_sad_epu8(v1, row));
                }
            }
            let sads = _mm256_setr_m128i(
                four_sums(a[0], a[1], a[2], a[3]),
                four_sums(a[4], a[5], a[6], a[7]),
            );
            let slack4 = _mm_loadu_si128(slack.as_ptr().add(g * 4) as *const __m128i);
            let slack = _mm256_broadcastsi128_si256(slack4);
            let bound = _mm256_add_epi32(lim, _mm256_min_epu32(slack, room));
            let ruled_out = _mm256_cmpeq_epi32(_mm256_max_epu32(sads, bound), sads);
            let kept = !_mm256_movemask_ps(_mm256_castsi256_ps(ruled_out)) as u64;
            masks[0] |= (kept & 0xF) << (g * 4);
            masks[1] |= ((kept >> 4) & 0xF) << (g * 4);
        }
        let done = quads * 4;
        if done < slack.len() {
            let tail = &panel[done * stride..];
            let rest = super::scalar::sad_mask2(q, tail, stride, limit, &slack[done..]);
            masks[0] |= rest[0] << done;
            masks[1] |= rest[1] << done;
        }
        masks
    }

    /// Transposes the 8×8 tile whose row `m` is `r[m]`: lane `m` of
    /// vector `k` of the result is lane `k` of `r[m]`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        // rows 0–3 (s0..s3) and 4–7 (s4..s7) of columns k | k + 4
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// `acc + t[0] + t[1] + … + t[7]`, one add at a time.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_in_order(acc: __m256, t: [__m256; 8]) -> __m256 {
        t.into_iter().fold(acc, |acc, t| _mm256_add_ps(acc, t))
    }

    /// Eight messages per step, lane `m` of one accumulator holding
    /// message `m`'s chain: each 8-column chunk's terms are formed
    /// message-wise (the upstream chunk in a register, as in
    /// [`reflect_acc`]), transposed so vector `k` holds column `k` of all
    /// eight messages, and added in column order. The tail columns continue
    /// each chain in the scalar body's order, and the ≤ 7 remainder
    /// messages take the scalar body.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn neg2_dot_rows<'a>(
        acc: &mut [f32],
        g: (&'a [f32], usize),
        width: usize,
        msg: impl Fn(usize) -> super::HopMsg<'a>,
    ) {
        use super::scalar::{chain, hop_row, neg2_mul, upstream};
        let (chunks, groups) = (width / 8, acc.len() / 8);
        let (sign, two) = (_mm256_set1_ps(-0.0), _mm256_set1_ps(2.0));
        for gi in 0..groups {
            let msgs: [_; 8] = std::array::from_fn(|m| msg(gi * 8 + m));
            // the checked messages: every load below stays inside their rows
            let rows: [_; 8] = std::array::from_fn(|m| hop_row(&msgs[m], g, width));
            let mut q = _mm256_loadu_ps(acc.as_ptr().add(gi * 8));
            for c in 0..chunks {
                let mut t = [_mm256_setzero_ps(); 8];
                for (t, (msg, row)) in t.iter_mut().zip(msgs.iter().zip(&rows)) {
                    let p = _mm256_mul_ps(_mm256_xor_ps(upstream8(msg, g, c * 8), sign), two);
                    *t = _mm256_mul_ps(p, _mm256_loadu_ps(row.as_ptr().add(c * 8)));
                }
                q = add_in_order(q, transpose8(t));
            }
            _mm256_storeu_ps(acc.as_mut_ptr().add(gi * 8), q);
            let tail = chunks * 8..width;
            for (q, (msg, row)) in acc[gi * 8..(gi + 1) * 8]
                .iter_mut()
                .zip(msgs.iter().zip(&rows))
            {
                *q = chain(*q, tail.len(), |k| {
                    let k = tail.start + k;
                    neg2_mul(upstream(msg, g, k), row[k])
                });
            }
        }
        let done = groups * 8;
        super::scalar::neg2_dot_rows(&mut acc[done..], g, width, |m| msg(done + m));
    }

    /// Columns `at..at + 8` of `msg`'s upstream row, `0 + Σ_e
    /// w_e·g[heads_e][k]` lane by lane, entries in order.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that every head's row
    /// of `g` holds columns `at..at + 8` ([`hop_row`] checked it for
    /// `at + 8` columns or more).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn upstream8(msg: &super::HopMsg, (g, stride): (&[f32], usize), at: usize) -> __m256 {
        let mut gm = _mm256_setzero_ps();
        for (&h, &w) in msg.heads.iter().zip(msg.weights) {
            let up = _mm256_loadu_ps(g.as_ptr().add(h as usize * stride + at));
            gm = _mm256_add_ps(gm, _mm256_mul_ps(_mm256_set1_ps(w), up));
        }
        gm
    }

    /// [`neg2_dot_rows`]'s layout for both of a row's chains: per 8-column
    /// chunk, the `x·x` and `g·x` tiles are transposed and added in column
    /// order into one accumulator each, then stored back interleaved.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, both strides are at least
    /// `width` and `x`/`g` hold `acc.len() / 2` rows at their strides.
    #[target_feature(enable = "avx2")]
    pub unsafe fn norm_dot_rows(
        (x, x_stride): (&[f32], usize),
        (g, g_stride): (&[f32], usize),
        width: usize,
        acc: &mut [f32],
    ) {
        use super::scalar::chain;
        let rows = acc.len() / 2;
        let (chunks, groups) = (width / 8, rows / 8);
        for gi in 0..groups {
            let (px, pg) = (
                x.as_ptr().add(gi * 8 * x_stride),
                g.as_ptr().add(gi * 8 * g_stride),
            );
            let mut pair = [0.0f32; 16];
            pair.copy_from_slice(&acc[gi * 16..(gi + 1) * 16]);
            let (mut sq, mut dot) = (
                _mm256_setr_ps(
                    pair[0], pair[2], pair[4], pair[6], pair[8], pair[10], pair[12], pair[14],
                ),
                _mm256_setr_ps(
                    pair[1], pair[3], pair[5], pair[7], pair[9], pair[11], pair[13], pair[15],
                ),
            );
            for c in 0..chunks {
                let (mut xx, mut gx) = ([_mm256_setzero_ps(); 8], [_mm256_setzero_ps(); 8]);
                for m in 0..8 {
                    let vx = _mm256_loadu_ps(px.add(m * x_stride + c * 8));
                    let vg = _mm256_loadu_ps(pg.add(m * g_stride + c * 8));
                    xx[m] = _mm256_mul_ps(vx, vx);
                    gx[m] = _mm256_mul_ps(vg, vx);
                }
                sq = add_in_order(sq, transpose8(xx));
                dot = add_in_order(dot, transpose8(gx));
            }
            let (mut sqs, mut dots) = ([0.0f32; 8], [0.0f32; 8]);
            _mm256_storeu_ps(sqs.as_mut_ptr(), sq);
            _mm256_storeu_ps(dots.as_mut_ptr(), dot);
            for m in 0..8 {
                let r = gi * 8 + m;
                let tail = chunks * 8..width;
                let (x, g) = (&x[r * x_stride..][tail.clone()], &g[r * g_stride..][tail]);
                acc[2 * r] = chain(sqs[m], x.len(), |k| x[k] * x[k]);
                acc[2 * r + 1] = chain(dots[m], x.len(), |k| g[k] * x[k]);
            }
        }
        let done = groups * 8;
        if done < rows {
            super::scalar::norm_dot_rows(
                (&x[done * x_stride..], x_stride),
                (&g[done * g_stride..], g_stride),
                width,
                &mut acc[2 * done..],
            );
        }
    }

    /// Each message in one pass over the row: per eight columns its
    /// upstream chunk is formed in a register (never stored), its term
    /// added to `sum`; then the scalar body's tail.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn reflect_acc<'a, const TO_R: bool>(
        sum: &mut [f32],
        g: (&[f32], usize),
        msgs: impl Iterator<Item = super::HopMsg<'a>>,
    ) {
        use super::scalar::{hop_row, hop_term, upstream};
        let n = sum.len();
        let body = n / 8 * 8;
        let (sign, two) = (_mm256_set1_ps(-0.0), _mm256_set1_ps(2.0));
        let ps = sum.as_mut_ptr();
        for msg in msgs {
            // the checked message: every load below stays inside its rows
            let row = hop_row(&msg, g, n);
            let (vd, vq) = (_mm256_set1_ps(msg.dot), _mm256_set1_ps(msg.q));
            for at in (0..body).step_by(8) {
                let gm = upstream8(&msg, g, at);
                let qr = _mm256_mul_ps(vq, _mm256_loadu_ps(row.as_ptr().add(at)));
                let t = if TO_R {
                    let p = _mm256_mul_ps(_mm256_xor_ps(gm, sign), two);
                    _mm256_add_ps(_mm256_mul_ps(p, vd), qr)
                } else {
                    _mm256_add_ps(gm, qr)
                };
                _mm256_storeu_ps(ps.add(at), _mm256_add_ps(_mm256_loadu_ps(ps.add(at)), t));
            }
            for k in body..n {
                sum[k] += hop_term::<TO_R>(upstream(&msg, g, k), &msg, row[k]);
            }
        }
    }

    /// `c·sgn(a − b)` on eight lanes, negated with `NEG`: the compare is
    /// false for NaN and ±0.0 differences, which leaves +0.0.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_term<const NEG: bool>(c: __m256, a: *const f32, b: *const f32) -> __m256 {
        let x = _mm256_sub_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
        // ±1.0 carrying x's sign, kept where x is ordered and not ±0.0
        let sign = _mm256_set1_ps(-0.0);
        let unit = _mm256_or_ps(_mm256_and_ps(x, sign), _mm256_set1_ps(1.0));
        let nonzero = _mm256_cmp_ps::<_CMP_NEQ_OQ>(x, _mm256_setzero_ps());
        let t = _mm256_mul_ps(c, _mm256_and_ps(nonzero, unit));
        if NEG {
            _mm256_xor_ps(t, sign)
        } else {
            t
        }
    }

    /// Each item in one pass over the row: eight columns per step, then
    /// the scalar body's tail, so walking `terms` costs once per item.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sign_acc<'a, const NEG: bool, const N: usize>(
        sum: &mut [f32],
        terms: impl Iterator<Item = [super::SignTerm<'a>; N]>,
    ) {
        let n = sum.len();
        let body = n / 8 * 8;
        let ps = sum.as_mut_ptr();
        for item in terms {
            for (_, [a, b]) in &item {
                assert!(
                    a.len() >= n && b.len() >= n,
                    "sign_acc row shorter than its sum"
                );
            }
            let c = item.map(|(c, _)| _mm256_set1_ps(c));
            for at in (0..body).step_by(8) {
                let term = |i: usize| {
                    let [a, b] = item[i].1;
                    sign_term::<NEG>(c[i], a.as_ptr().add(at), b.as_ptr().add(at))
                };
                let t = (1..N).fold(term(0), |t, i| _mm256_add_ps(t, term(i)));
                _mm256_storeu_ps(ps.add(at), _mm256_add_ps(_mm256_loadu_ps(ps.add(at)), t));
            }
            for k in body..n {
                let term =
                    |(c, [a, b]): super::SignTerm| super::scalar::sign_term::<NEG>(c, a[k], b[k]);
                sum[k] += item[1..].iter().fold(term(item[0]), |t, &r| t + term(r));
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    ///
    /// Loop nest is j-chunk outer / kk inner so each 4×8 output tile stays
    /// in registers across the whole depth strip (the scalar reference's
    /// kk-outer nest re-loads and re-stores the output rows every step,
    /// which is store-port-bound). Per output element the f32 adds still
    /// land in ascending-`kk` order, so the result is bit-identical.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        let kc = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
        let chunks = nc_len / 8;
        for j in 0..chunks {
            let off = j * 8;
            let mut c0 = _mm256_loadu_ps(o0.as_ptr().add(off));
            let mut c1 = _mm256_loadu_ps(o1.as_ptr().add(off));
            let mut c2 = _mm256_loadu_ps(o2.as_ptr().add(off));
            let mut c3 = _mm256_loadu_ps(o3.as_ptr().add(off));
            for kk in 0..kc {
                let vb = _mm256_loadu_ps(packed.as_ptr().add(kk * nc_len + off));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[kk]), vb));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[kk]), vb));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[kk]), vb));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[kk]), vb));
            }
            _mm256_storeu_ps(o0.as_mut_ptr().add(off), c0);
            _mm256_storeu_ps(o1.as_mut_ptr().add(off), c1);
            _mm256_storeu_ps(o2.as_mut_ptr().add(off), c2);
            _mm256_storeu_ps(o3.as_mut_ptr().add(off), c3);
        }
        for j in chunks * 8..nc_len {
            for kk in 0..kc {
                let bj = packed[kk * nc_len + j];
                o0[j] += a0[kk] * bj;
                o1[j] += a1[kk] * bj;
                o2[j] += a2[kk] * bj;
                o3[j] += a3[kk] * bj;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    ///
    /// Same j-outer register-accumulating nest as [`mk4`], one row wide.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        let kc = a_row.len();
        let chunks = nc_len / 8;
        for j in 0..chunks {
            let off = j * 8;
            let mut c = _mm256_loadu_ps(out_row.as_ptr().add(off));
            for (kk, &x) in a_row.iter().enumerate().take(kc) {
                let vb = _mm256_loadu_ps(packed.as_ptr().add(kk * nc_len + off));
                c = _mm256_add_ps(c, _mm256_mul_ps(_mm256_set1_ps(x), vb));
            }
            _mm256_storeu_ps(out_row.as_mut_ptr().add(off), c);
        }
        for j in chunks * 8..nc_len {
            for (kk, &x) in a_row.iter().enumerate() {
                out_row[j] += x * packed[kk * nc_len + j];
            }
        }
    }
}

/// NEON transcriptions of [`scalar`]. One 8-wide scalar step maps to two
/// 128-bit accumulators: lanes 0–3 of the low register are scalar
/// `acc[0..4]`, lanes of the high register are `acc[4..8]`; the horizontal
/// combine spills both and reuses the scalar pairwise tree. No FMA
/// (`vmlaq` contraction is avoided; mul and add stay separate), so results
/// are bit-identical to [`scalar`].
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let pa = a.as_ptr().add(i * 8);
            let pb = b.as_ptr().add(i * 8);
            lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(pa), vld1q_f32(pb)));
            hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(pa.add(4)), vld1q_f32(pb.add(4))));
        }
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += a[i] * b[i];
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let pa = a.as_ptr().add(i * 8);
            let pb = b.as_ptr().add(i * 8);
            lo = vaddq_f32(lo, vabsq_f32(vsubq_f32(vld1q_f32(pa), vld1q_f32(pb))));
            hi = vaddq_f32(
                hi,
                vabsq_f32(vsubq_f32(vld1q_f32(pa.add(4)), vld1q_f32(pb.add(4)))),
            );
        }
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += (a[i] - b[i]).abs();
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        let kc = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
        let chunks = nc_len / 4;
        for kk in 0..kc {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            let x0 = vdupq_n_f32(a0[kk]);
            let x1 = vdupq_n_f32(a1[kk]);
            let x2 = vdupq_n_f32(a2[kk]);
            let x3 = vdupq_n_f32(a3[kk]);
            for j in 0..chunks {
                let vb = vld1q_f32(brow.as_ptr().add(j * 4));
                let p0 = o0.as_mut_ptr().add(j * 4);
                let p1 = o1.as_mut_ptr().add(j * 4);
                let p2 = o2.as_mut_ptr().add(j * 4);
                let p3 = o3.as_mut_ptr().add(j * 4);
                vst1q_f32(p0, vaddq_f32(vld1q_f32(p0), vmulq_f32(x0, vb)));
                vst1q_f32(p1, vaddq_f32(vld1q_f32(p1), vmulq_f32(x1, vb)));
                vst1q_f32(p2, vaddq_f32(vld1q_f32(p2), vmulq_f32(x2, vb)));
                vst1q_f32(p3, vaddq_f32(vld1q_f32(p3), vmulq_f32(x3, vb)));
            }
            for j in chunks * 4..nc_len {
                o0[j] += a0[kk] * brow[j];
                o1[j] += a1[kk] * brow[j];
                o2[j] += a2[kk] * brow[j];
                o3[j] += a3[kk] * brow[j];
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        let chunks = nc_len / 4;
        for (kk, &x) in a_row.iter().enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            let vx = vdupq_n_f32(x);
            for j in 0..chunks {
                let p = out_row.as_mut_ptr().add(j * 4);
                let vb = vld1q_f32(brow.as_ptr().add(j * 4));
                vst1q_f32(p, vaddq_f32(vld1q_f32(p), vmulq_f32(vx, vb)));
            }
            for j in chunks * 4..nc_len {
                out_row[j] += x * brow[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;

    /// Every ISA worth testing on this host: scalar always, plus whatever
    /// the hardware offers (the dispatcher falls back to scalar for the
    /// rest, which would make those comparisons vacuous).
    fn isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Neon]
            .into_iter()
            .filter(|i| i.available())
            .collect()
    }

    fn gen_vec(rng: &mut largeea_common::rng::Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                // Mix magnitudes so lane sums land on different exponents —
                // the regime where any reassociation would show up.
                let mag = 10f32.powi(rng.gen_range(-3..4));
                (rng.gen::<f64>() as f32 - 0.5) * mag
            })
            .collect()
    }

    #[test]
    fn active_isa_is_stable_and_named() {
        let isa = active_isa();
        assert_eq!(isa, active_isa(), "cached value must not change");
        assert!(["scalar", "avx2", "neon"].contains(&isa.name()));
        assert!(isa.available());
    }

    #[test]
    fn f32_kernels_bit_identical_across_isas() {
        for_each_case(0x000D_071D, 64, |rng| {
            let n = rng.gen_range(0..300usize);
            let a = gen_vec(rng, n);
            let b = gen_vec(rng, n);
            let d_ref = scalar::dot(&a, &b);
            let l_ref = scalar::l1_distance(&a, &b);
            for isa in isas() {
                let d = dot_on(isa, &a, &b);
                assert_eq!(d.to_bits(), d_ref.to_bits(), "dot {} n={n}", isa.name());
                let l = l1_distance_on(isa, &a, &b);
                assert_eq!(l.to_bits(), l_ref.to_bits(), "l1 {} n={n}", isa.name());
            }
        });
    }

    #[test]
    fn panel_kernels_bit_identical_to_per_row_scalar() {
        for_each_case(0x9A_7E1, 96, |rng| {
            // dim off the multiples of 8 hits the sequential tail; rows off
            // the multiples of 4 hits the per-row remainder.
            let dim = rng.gen_range(0..200usize);
            let rows = rng.gen_range(0..23usize);
            let q = gen_vec(rng, dim);
            let mut panel = gen_vec(rng, rows * dim);
            // Some rows carry NaN or ±∞ — one kind per row, so every NaN a
            // row produces has the same payload and the result cannot
            // depend on which operand the hardware propagates.
            if dim > 0 {
                for r in 0..rows {
                    let special = match rng.gen_range(0..6u32) {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => continue,
                    };
                    for _ in 0..rng.gen_range(1..4usize) {
                        panel[r * dim + rng.gen_range(0..dim)] = special;
                    }
                }
            }
            let row = |r: usize| &panel[r * dim..(r + 1) * dim];
            for isa in isas() {
                let mut out = vec![f32::from_bits(0xDEAD_BEEF); rows];
                panel_on::<true>(isa, &q, &panel, dim, &mut out);
                for (r, o) in out.iter().enumerate() {
                    let want = scalar::l1_distance(&q, row(r));
                    assert_eq!(
                        o.to_bits(),
                        want.to_bits(),
                        "l1 {} dim={dim} rows={rows} r={r}",
                        isa.name()
                    );
                }
                panel_on::<false>(isa, &q, &panel, dim, &mut out);
                for (r, o) in out.iter().enumerate() {
                    let want = scalar::dot(&q, row(r));
                    assert_eq!(
                        o.to_bits(),
                        want.to_bits(),
                        "dot {} dim={dim} rows={rows} r={r}",
                        isa.name()
                    );
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "panel query length mismatch")]
    fn panel_rejects_short_query() {
        l1_panel(&[0.0; 7], &[0.0; 16], 8, &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "panel shape mismatch")]
    fn panel_rejects_ragged_panel() {
        dot_panel(&[0.0; 8], &[0.0; 17], 8, &mut [0.0; 2]);
    }

    #[test]
    fn f32_kernels_truncate_to_shorter_slice() {
        let a: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..9).map(|i| (i * 2) as f32).collect();
        for isa in isas() {
            assert_eq!(
                dot_on(isa, &a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
            assert_eq!(
                l1_distance_on(isa, &b, &a).to_bits(),
                scalar::l1_distance(&b, &a).to_bits(),
                "{}",
                isa.name()
            );
        }
    }

    #[test]
    fn sad_panel_matches_the_scalar_reference_on_every_isa() {
        for_each_case(0x5AD_0B8, 96, |rng| {
            let rows = rng.gen_range(0..24usize);
            let stride = 32 * rng.gen_range(1..10usize);
            // Extremes included: 0 against 255 is the largest per-byte term.
            let mut bytes = |n: usize| -> Vec<u8> {
                (0..n)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => 0,
                        1 => 255,
                        _ => rng.gen_range(0..256u32) as u8,
                    })
                    .collect()
            };
            let q = bytes(stride);
            let panel = bytes(rows * stride);
            let want: Vec<u32> = (0..rows)
                .map(|r| {
                    let row = &panel[r * stride..(r + 1) * stride];
                    q.iter()
                        .zip(row)
                        .map(|(&a, &b)| (i32::from(a) - i32::from(b)).unsigned_abs())
                        .sum()
                })
                .collect();
            for isa in isas() {
                let mut out = vec![0xDEAD_BEEFu32; rows];
                sad_panel_on(isa, &q, &panel, stride, &mut out);
                assert_eq!(out, want, "{} rows={rows} stride={stride}", isa.name());
            }
        });
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn sad_panel_rejects_an_unpadded_stride() {
        sad_panel(&[0; 40], &[0; 80], 40, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "sad panel query length mismatch")]
    fn sad_panel_rejects_short_query() {
        sad_panel(&[0; 32], &[0; 128], 64, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "sad panel shape mismatch")]
    fn sad_panel_rejects_ragged_panel() {
        sad_panel(&[0; 32], &[0; 65], 32, &mut [0; 2]);
    }

    #[test]
    fn sad_mask2_matches_the_scalar_reference_on_every_isa() {
        for_each_case(0x5AD_3A5C, 256, |rng| {
            let rows = rng.gen_range(0..65usize);
            let stride = 32 * rng.gen_range(1..9usize);
            // Codes 0 and 255 give the largest per-byte term; a run of one
            // value makes SADs that land on the bound exactly.
            let mut bytes = |n: usize| -> Vec<u8> {
                (0..n)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => 0,
                        1 => 255,
                        2 => 128,
                        _ => rng.gen_range(0..256u32) as u8,
                    })
                    .collect()
            };
            let (q0, q1, panel) = (bytes(stride), bytes(stride), bytes(rows * stride));
            let sad = |q: &[u8], r: usize| -> u32 {
                let row = &panel[r * stride..(r + 1) * stride];
                (q.iter().zip(row))
                    .map(|(&a, &b)| (i32::from(a) - i32::from(b)).unsigned_abs())
                    .sum()
            };
            // limits at both ends of the range and near the SADs themselves;
            // slacks of a NaN row (u32::MAX) and ones whose sum with the
            // limit overflows
            let mut limit = || match rng.gen_range(0..6u32) {
                0 => 0,
                1 => 1,
                2 => u32::MAX - 1,
                3 => u32::MAX,
                _ => rng.gen_range(0..(stride as u32) * 128),
            };
            let limits = [limit(), limit()];
            let slack: Vec<u32> = (0..rows)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => u32::MAX,
                    1 => u32::MAX - rng.gen_range(0..3u32),
                    2 => 0,
                    _ => rng.gen_range(0..(stride as u32) * 64),
                })
                .collect();
            // the saturating add, in u64
            let want: [u64; 2] = std::array::from_fn(|j| {
                let (q, limit) = ([&q0, &q1][j], u64::from(limits[j]));
                let test = |r: usize| {
                    let bound = (limit + u64::from(slack[r])).min(u64::from(u32::MAX));
                    u64::from(sad(q, r)) < bound
                };
                (0..rows).fold(0u64, |m, r| m | u64::from(test(r)) << r)
            });
            for isa in isas() {
                let got = sad_mask2_on(isa, [&q0, &q1], &panel, stride, limits, &slack);
                let ctx = format!("{} rows={rows} stride={stride} {limits:?}", isa.name());
                assert_eq!(got, want, "{ctx}");
                // the same query twice gives the same mask twice
                let twice = sad_mask2_on(isa, [&q0, &q0], &panel, stride, [limits[0]; 2], &slack);
                assert_eq!(twice, [want[0]; 2], "{ctx}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn sad_mask2_rejects_an_unpadded_stride() {
        sad_mask2([&[0; 40]; 2], &[0; 80], 40, [0; 2], &[0; 2]);
    }

    #[test]
    #[should_panic(expected = "sad mask query length mismatch")]
    fn sad_mask2_rejects_a_short_query() {
        sad_mask2([&[0; 64], &[0; 32]], &[0; 128], 64, [0; 2], &[0; 2]);
    }

    #[test]
    #[should_panic(expected = "sad mask shape mismatch")]
    fn sad_mask2_rejects_a_ragged_panel() {
        sad_mask2([&[0; 32]; 2], &[0; 65], 32, [0; 2], &[0; 2]);
    }

    #[test]
    #[should_panic(expected = "at most 64 rows")]
    fn sad_mask2_rejects_more_rows_than_a_mask_holds() {
        sad_mask2([&[0; 32]; 2], &[0; 65 * 32], 32, [0; 2], &[0; 65]);
    }

    #[test]
    fn special_values_propagate_identically() {
        let a = [f32::NAN, 1.0, f32::INFINITY, -2.5, 0.0, -0.0, 3.0, 4.0, 9.0];
        let b = [2.0, f32::NEG_INFINITY, 0.5, -2.5, 1.0, 7.0, -3.0, 0.0, 1.0];
        for isa in isas() {
            assert_eq!(
                dot_on(isa, &a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
            assert_eq!(
                l1_distance_on(isa, &a, &b).to_bits(),
                scalar::l1_distance(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
        }
    }

    /// Mixed magnitudes with ±0.0, ±∞ and NaN sprinkled in.
    fn gen_special(rng: &mut largeea_common::rng::Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..24u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                _ => {
                    let mag = 10f32.powi(rng.gen_range(-3..4));
                    (rng.gen::<f64>() as f32 - 0.5) * mag
                }
            })
            .collect()
    }

    /// The same bits, or both NaN: a NaN's payload depends on which
    /// operand the hardware propagates, which no kernel promises.
    fn same(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && (got.iter().zip(want))
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    #[test]
    fn backward_row_chains_bit_identical_across_isas() {
        for_each_case(0xB4C_C4A1, 128, |rng| {
            // widths off the multiples of 8 run a tail, row counts off the
            // multiples of 8 (and 4) leave a partial group
            let (rows, width) = (rng.gen_range(0..21usize), rng.gen_range(0..150usize));
            // messages of zero to two entries over a 6-row upstream gradient,
            // both it and the relation rows wider than the chains
            let stride = width + rng.gen_range(0..3usize);
            let g = gen_special(rng, 6 * stride);
            type Msg = (Vec<u32>, Vec<f32>, Vec<f32>);
            let msgs: Vec<Msg> = (0..rows)
                .map(|_| {
                    let entries = rng.gen_range(0..3usize);
                    let heads = (0..entries).map(|_| rng.gen_range(0..6u32)).collect();
                    let len = width + rng.gen_range(0..3usize);
                    (heads, gen_special(rng, entries), gen_special(rng, len))
                })
                .collect();
            let acc0 = gen_special(rng, rows);
            // every chain is one sequential sum from its start, in column
            // order, of terms whose upstream value is summed from 0.0
            let want: Vec<f32> = (msgs.iter().zip(&acc0))
                .map(|((heads, weights, row), &q0)| {
                    (0..width).fold(q0, |q, k| {
                        let mut gm = 0.0;
                        for (&h, &w) in heads.iter().zip(weights) {
                            gm += w * g[h as usize * stride + k];
                        }
                        q + (-gm * 2.0) * row[k]
                    })
                })
                .collect();
            let hop = |m: usize| {
                let (heads, weights, row) = &msgs[m];
                HopMsg {
                    heads,
                    weights,
                    dot: f32::NAN,
                    q: f32::NAN,
                    row,
                }
            };
            for isa in isas() {
                let mut acc = acc0.clone();
                neg2_dot_rows_on(isa, &mut acc, (&g, stride), width, hop);
                assert!(
                    same(&acc, &want),
                    "neg2 {} rows={rows} width={width}",
                    isa.name()
                );
            }

            let (xs, gs) = (
                width + rng.gen_range(0..9usize),
                width + rng.gen_range(0..9usize),
            );
            let x = gen_special(rng, rows * xs);
            let g = gen_special(rng, rows * gs);
            let acc0 = gen_special(rng, 2 * rows);
            let mut want = acc0.clone();
            for m in 0..rows {
                let (xr, gr) = (&x[m * xs..][..width], &g[m * gs..][..width]);
                want[2 * m] = xr.iter().fold(want[2 * m], |s, &v| s + v * v);
                want[2 * m + 1] = gr
                    .iter()
                    .zip(xr)
                    .fold(want[2 * m + 1], |s, (&gv, &xv)| s + gv * xv);
            }
            for isa in isas() {
                let mut acc = acc0.clone();
                norm_dot_rows_on(isa, (&x, xs), (&g, gs), width, &mut acc);
                assert!(
                    same(&acc, &want),
                    "norm {} rows={rows} width={width}",
                    isa.name()
                );
            }
        });
    }

    #[test]
    fn backward_row_terms_bit_identical_across_isas() {
        for_each_case(0xB4C_7E5, 128, |rng| {
            // widths past one and two 64-column strips, and off the
            // multiples of 8
            let n = rng.gen_range(0..150usize);
            let sum0 = gen_special(rng, n);
            // a few messages of zero to two entries over a 6-row upstream
            // gradient whose rows are wider than the sum
            let stride = n + rng.gen_range(0..3usize);
            let g = gen_special(rng, 6 * stride);
            // heads, weights, [dot, q], row
            type Msg = (Vec<u32>, Vec<f32>, [f32; 2], Vec<f32>);
            let msgs: Vec<Msg> = (0..rng.gen_range(0..5usize))
                .map(|_| {
                    let entries = rng.gen_range(0..3usize);
                    let heads = (0..entries).map(|_| rng.gen_range(0..6u32)).collect();
                    let coefs = gen_special(rng, 2);
                    (
                        heads,
                        gen_special(rng, entries),
                        [coefs[0], coefs[1]],
                        gen_special(rng, n),
                    )
                })
                .collect();
            let hop = msgs.iter().map(|(heads, weights, [dot, q], row)| HopMsg {
                heads,
                weights,
                dot: *dot,
                q: *q,
                row,
            });
            // the literal expressions of the fused backward's terms
            for to_r in [true, false] {
                let mut want = sum0.clone();
                for (heads, weights, [d, q], row) in &msgs {
                    for k in 0..n {
                        let mut gm = 0.0;
                        for (&h, &w) in heads.iter().zip(weights) {
                            gm += w * g[h as usize * stride + k];
                        }
                        want[k] += if to_r {
                            (-gm * 2.0) * d + q * row[k]
                        } else {
                            gm + q * row[k]
                        };
                    }
                }
                for isa in isas() {
                    let mut sum = sum0.clone();
                    if to_r {
                        reflect_acc_on::<true>(isa, &mut sum, (&g, stride), hop.clone());
                    } else {
                        reflect_acc_on::<false>(isa, &mut sum, (&g, stride), hop.clone());
                    }
                    assert!(
                        same(&sum, &want),
                        "reflect to_r={to_r} {} n={n}",
                        isa.name()
                    );
                }
            }

            // a few items, each with one or two terms over rows at least
            // as long as the sum
            let items = rng.gen_range(0..5usize);
            let rows: Vec<Vec<f32>> = (0..4 * items)
                .map(|_| {
                    let len = n + rng.gen_range(0..3usize);
                    gen_special(rng, len)
                })
                .collect();
            let coefs = gen_special(rng, 2 * items);
            let term = |i: usize, j: usize| {
                (
                    coefs[2 * i + j],
                    [&rows[4 * i + 2 * j][..], &rows[4 * i + 2 * j + 1][..]],
                )
            };
            let one = (0..items).map(|i| [term(i, 0)]);
            let two = (0..items).map(|i| [term(i, 0), term(i, 1)]);
            let sgn = |v: f32| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            };
            let lit = |neg: bool, (c, [a, b]): SignTerm, k: usize| {
                if neg {
                    -(c * sgn(a[k] - b[k]))
                } else {
                    c * sgn(a[k] - b[k])
                }
            };
            for neg in [false, true] {
                let (mut want1, mut want2) = (sum0.clone(), sum0.clone());
                for i in 0..items {
                    for k in 0..n {
                        want1[k] += lit(neg, term(i, 0), k);
                        want2[k] += lit(neg, term(i, 0), k) + lit(neg, term(i, 1), k);
                    }
                }
                for isa in isas() {
                    let (mut got1, mut got2) = (sum0.clone(), sum0.clone());
                    if neg {
                        sign_acc_on::<true, 1>(isa, &mut got1, one.clone());
                        sign_acc_on::<true, 2>(isa, &mut got2, two.clone());
                    } else {
                        sign_acc_on::<false, 1>(isa, &mut got1, one.clone());
                        sign_acc_on::<false, 2>(isa, &mut got2, two.clone());
                    }
                    let at = format!("{} neg={neg} n={n} items={items}", isa.name());
                    assert!(same(&got1, &want1), "one term {at}");
                    assert!(same(&got2, &want2), "two terms {at}");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "norm_dot_rows shape mismatch")]
    fn norm_dot_rows_rejects_a_stride_past_the_address_space() {
        // (rows − 1)·stride wraps to 0: the rows cannot fit in 16 floats
        norm_dot_rows(&[0.0; 16], 1 << 63, &[0.0; 16], 8, 8, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "hop message shape mismatch")]
    fn neg2_dot_rows_rejects_a_short_row() {
        let (g, row) = ([0.0f32; 8], [0.0f32; 7]);
        let msg = |_| HopMsg {
            heads: &[0],
            weights: &[1.0],
            dot: 0.0,
            q: 0.0,
            row: &row,
        };
        neg2_dot_rows(&mut [0.0; 9], (&g, 8), 8, msg);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn sign_acc_rejects_a_short_row() {
        let (a, b) = ([1.0f32; 64], [0.0f32; 63]);
        sign_acc::<false, 1>(&mut [0.0; 64], [[(1.0, [&a[..], &b[..]])]].into_iter());
    }

    #[test]
    fn sign_maps_zero_and_nan_differences_to_zero() {
        // differences +0.0, −0.0 (twice), NaN (from NaN and from ∞ − ∞),
        // +∞, −∞, ordinary, then the same again past the 8-lane body
        let a = [
            0.0,
            -0.0,
            0.0,
            f32::NAN,
            f32::INFINITY,
            f32::INFINITY,
            1.0,
            -3.0,
        ];
        let b = [-0.0, 0.0, 0.0, 1.0, f32::INFINITY, 2.0, f32::INFINITY, -5.0];
        let (a, b) = ([a, a].concat(), [b, b].concat());
        let want = [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.5];
        for isa in isas() {
            let mut sum = vec![0.0f32; 16];
            sign_acc_on::<false, 1>(isa, &mut sum, [[(0.5, [&a[..], &b[..]])]].into_iter());
            assert_eq!(sum, [want, want].concat(), "{}", isa.name());
            assert!(sum.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
        }
    }
}
