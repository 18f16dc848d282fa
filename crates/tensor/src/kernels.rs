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
//! NaN/∞ propagation. [`sad_panel`] is exact integer arithmetic and
//! trivially order-independent. This is what lets `LARGEEA_NO_SIMD=1`
//! (and non-x86 hosts) reproduce committed baselines byte-for-byte.
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
    assert!(
        stride.is_multiple_of(32) && stride <= 1 << 24,
        "sad panel stride must be a multiple of 32, at most 2^24"
    );
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

    /// Four rows per step, one accumulator of four 64-bit lane sums each.
    /// A row's whole SAD is below 2³² (the stride is at most 2²⁴), so the
    /// upper half of every lane is zero and two rows interleave into one
    /// register of 32-bit
    /// sums; two unpacks line the four rows up and two adds fold the four
    /// lane positions. The ≤3 remainder rows take the scalar body.
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
            let r01 = _mm256_or_si256(a0, _mm256_slli_epi64(a1, 32));
            let r23 = _mm256_or_si256(a2, _mm256_slli_epi64(a3, 32));
            let lanes = _mm256_add_epi32(
                _mm256_unpacklo_epi64(r01, r23),
                _mm256_unpackhi_epi64(r01, r23),
            );
            let sums = _mm_add_epi32(
                _mm256_castsi256_si128(lanes),
                _mm256_extracti128_si256(lanes, 1),
            );
            _mm_storeu_si128(out.as_mut_ptr().add(g * 4) as *mut __m128i, sums);
        }
        let done = quads * 4;
        super::scalar::sad_panel(q, &panel[done * stride..], stride, &mut out[done..]);
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
}
