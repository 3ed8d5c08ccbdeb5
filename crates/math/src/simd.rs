//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them. The CPU
//! analogue is explicit vectorization: AVX2 (x86_64) implementations of the
//! hot loops — the NTT butterflies, the digit → NTT → MAC datapath of the
//! external product, and signed gadget decomposition — selected at runtime
//! behind feature detection, with the scalar lazy kernels as the
//! always-available fallback (and the only tier on any other architecture).
//!
//! Each vector tier is kept by a measured ratio over the scalar lazy kernel
//! it replaces (N = 2048, 36-bit limb unless noted, best of 61 × 40 calls,
//! three process runs, 2-core AVX2+FMA host; EXPERIMENTS.md "One f64 lane
//! from digit to accumulator"):
//!
//! | tier | kernels | applies when | ratio over scalar |
//! |---|---|---|---|
//! | scalar lazy | all | always | 1 (the parity oracle) |
//! | AVX2 + FMA, `f64` lanes | signed-lazy radix-4 forward NTT | `n ≥ 16`, `C + log2(n)·q ≤ 2^50` | 4.8–4.9× |
//! | AVX2 + FMA, `f64` lanes | digit → forward NTT → four MACs, one entry | the same, and `terms·q ≤ 2^52` | 4.0–4.4× over lift + NTT + four `u128` MACs |
//! | AVX2 + FMA, `f64` lanes | inverse NTT (fully reduced) | the forward gate | 2.4–2.6× |
//! | AVX2, integer lanes | forward / inverse NTT | any other `q < 2^61`, `n ≥ 8` | 1.6–1.8× / 1.1–1.3× at 50–60 bits |
//! | AVX2, integer lanes | signed decompose; signed lift | any NTT modulus | 4.7–4.9×; 3.6–4.1× |
//!
//! `C` is the largest input magnitude (`4q` for [`crate::NttTable::forward`],
//! half the gadget base for an external product); the `f64` kernels and the
//! argument that they are exact live in `simd/f64_lanes.rs`. DESIGN.md §2
//! "SIMD dispatch" also lists the tiers that measured too little to keep
//! and what would bring one back.
//!
//! Every vector kernel produces the *same* canonical outputs as its scalar
//! counterpart, so results are bit-identical regardless of which backend
//! runs. The parity proptests in `tests/properties.rs` and the pinned
//! bootstrap digests enforce this.
//!
//! Dispatch can be overridden for testing and benchmarking: set the
//! `HEAP_SIMD` environment variable to `scalar` (or `off`/`0`) before first
//! use, or call [`force_scalar`] at runtime.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::mac::{LazyCoeff, RowPair};

#[cfg(target_arch = "x86_64")]
mod f64_lanes;

/// Which vector datapath is driving the hot kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Scalar lazy kernels (always available).
    Scalar = 1,
    /// 4×u64 lanes via AVX2 on x86_64.
    Avx2 = 2,
}

impl Backend {
    /// Human-readable backend name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// Cached backend selection: 0 = undetected, else the `Backend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Parses a `HEAP_SIMD` value: `Some(backend)` pins it, `None` leaves the
/// choice to feature detection.
///
/// # Errors
///
/// Any other spelling is an error naming the accepted ones — a typo must
/// not silently select the native path.
fn override_from(value: &str) -> Result<Option<Backend>, String> {
    match value.to_ascii_lowercase().as_str() {
        "scalar" | "off" | "0" => Ok(Some(Backend::Scalar)),
        "" | "auto" => Ok(None),
        other => Err(format!(
            "HEAP_SIMD={other:?} not recognised: use scalar|off|0 to force the scalar kernels, \
             auto (or unset) to detect"
        )),
    }
}

fn detect() -> Backend {
    let pinned = std::env::var("HEAP_SIMD").map_or(Ok(None), |v| override_from(&v));
    if let Some(backend) = pinned.unwrap_or_else(|e| panic!("{e}")) {
        return backend;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The backend the dispatched kernels will use.
///
/// # Panics
///
/// Panics at first use if `HEAP_SIMD` is set to an unrecognised value.
pub fn active() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let b = detect();
            BACKEND.store(b as u8, Ordering::Relaxed);
            b
        }
        v if v == Backend::Avx2 as u8 => Backend::Avx2,
        _ => Backend::Scalar,
    }
}

/// Forces the scalar fallback on (`true`) or re-runs detection (`false`).
///
/// Intended for parity tests and benchmarks that need to exercise both
/// datapaths in one process. Takes effect for all subsequent kernel calls.
pub fn force_scalar(on: bool) {
    let b = if on { Backend::Scalar } else { detect() };
    BACKEND.store(b as u8, Ordering::Relaxed);
}

/// NTT operand bound for the vector path: AVX2's only 64-bit compare is
/// signed, and forward-butterfly operands ride in `[0, 4q)`, so every
/// compared value stays below `2^63` only when `q < 2^61`. The 36- and
/// 60-bit production primes are far inside the bound.
const NTT_Q_LIMIT: u64 = 1 << 61;

fn ntt_simd_ok(n: usize, q: u64) -> bool {
    n >= 8 && n.is_power_of_two() && q < NTT_Q_LIMIT
}

/// Largest magnitude an `f64` lane may reach as a product input: the
/// error-free modular product of `simd/f64_lanes.rs` is exact up to here.
const F64_OPERAND_LIMIT: u128 = 1 << 50;

/// Largest magnitude a sum of `f64` MAC terms may reach and stay an exact
/// integer with a bit in hand.
const F64_SUM_LIMIT: u128 = 1 << 52;

/// Whether the `f64`-lane transforms run — and are exact — right now for an
/// `n`-point ring under `q` on inputs of magnitude at most `input_bound`:
/// AVX2 active, FMA present, `n ≥ 16`, and the signed-lazy growth bound
/// `input_bound + log2(n)·q ≤ 2^50`. Every other ring takes the
/// integer-lane or scalar kernels.
pub(crate) fn f64_ntt_ok(n: usize, q: u64, input_bound: u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    let fma = std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    let grown = u128::from(input_bound) + u128::from(n.trailing_zeros()) * u128::from(q);
    active() == Backend::Avx2 && fma && n.is_power_of_two() && n >= 16 && grown <= F64_OPERAND_LIMIT
}

/// [`f64_ntt_ok`] for a chain that also accumulates `terms` products per
/// coefficient in `f64`: the sum of signed terms below `q` must stay an
/// exact integer, `terms·q ≤ 2^52`. This is what `mac_path` gates the
/// narrow accumulators on.
pub(crate) fn f64_mac_ok(n: usize, q: u64, input_bound: u64, terms: usize) -> bool {
    f64_ntt_ok(n, q, input_bound) && terms as u128 * u128::from(q) <= F64_SUM_LIMIT
}

/// Runs the full forward lazy NTT on the active vector backend: lazy
/// residues in `[0, 4q)` in, canonical residues out.
///
/// `ops`/`quots`/`ops_f64` are the bit-reversed twiddle operands, their
/// Shoup quotients and the operands as doubles (same indexing as the scalar
/// kernel's `psi_br`). Returns `false` when no vector backend applies — the
/// caller must then run the scalar kernel.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_forward(
    a: &mut [u64],
    ops: &[u64],
    quots: &[u64],
    ops_f64: &[f64],
    q: u64,
) -> bool {
    if !ntt_simd_ok(a.len(), q) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 (and, for the f64 kernel, FMA) is only selected
            // after runtime detection.
            unsafe {
                if f64_ntt_ok(a.len(), q, 4 * q) {
                    f64_lanes::forward_in_place(a, ops_f64, q);
                } else {
                    avx2::ntt_forward(a, ops, quots, q);
                }
            }
            true
        }
        _ => false,
    }
}

/// Runs the full inverse lazy NTT (including the final `n^{-1}` scaling and
/// canonicalization) on the active vector backend. Returns `false` when no
/// vector backend applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_inverse(
    a: &mut [u64],
    ops: &[u64],
    quots: &[u64],
    q: u64,
    n_inv_op: u64,
    n_inv_quot: u64,
) -> bool {
    if !ntt_simd_ok(a.len(), q) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 (and, for the f64 kernel, FMA) is only selected
            // after runtime detection. The forward gate implies the inverse
            // kernel's own bound, `q < 2^48`.
            unsafe {
                if f64_ntt_ok(a.len(), q, 4 * q) {
                    f64_lanes::ntt_inverse(a, ops, q, n_inv_op);
                } else {
                    avx2::ntt_inverse(a, ops, quots, q, n_inv_op, n_inv_quot);
                }
            }
            true
        }
        _ => false,
    }
}

/// The narrow MAC datapath in one call: loads `digit` into `f64` lanes,
/// transforms it into `operand` (signed-lazy, left in `f64`) and adds its
/// product with every key row into that row's slot of `acc`. Returns
/// `false` — having touched nothing — when the `f64` kernels do not run for
/// this ring right now; the caller's exact scalar loop then adds congruent
/// terms, so a chain may mix both.
///
/// The caller's gate ([`f64_mac_ok`]) bounds the input magnitude and the
/// term count; only the backend and the ring are checked again here.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_mac_digit<T: LazyCoeff, const K: usize>(
    digit: &[T],
    ops_f64: &[f64],
    q: u64,
    operand: &mut [f64],
    rows: [RowPair<'_>; K],
    acc: &mut [f64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if f64_ntt_ok(digit.len(), q, 0) {
        // SAFETY: Avx2 and FMA were detected at runtime (`f64_ntt_ok`).
        unsafe {
            f64_lanes::forward_into(digit, ops_f64, q, operand);
            f64_lanes::mac_rows(operand, rows, q, acc);
        }
        return true;
    }
    false
}

/// Reduces `f64` accumulators (exact integers below `2^52` in magnitude) to
/// canonical residues in `out`. Returns `false` when the `f64` kernels do
/// not run right now.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if f64_ntt_ok(acc.len(), q, 0) {
        // SAFETY: Avx2 and FMA were detected at runtime (`f64_ntt_ok`).
        unsafe { f64_lanes::reduce_acc(acc, q, out) };
        return true;
    }
    false
}

/// Signed gadget decomposition of a coefficient slice into digit-major rows.
/// Returns `false` when no vector backend applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_decompose_signed(
    coeffs: &[u64],
    q: u64,
    base_bits: u32,
    out: &mut [Vec<i64>],
) -> bool {
    // Digits stay below 2^32 when base_bits <= 32, keeping every compared
    // value signed-compare-safe (q itself is < 2^62 by construction).
    if base_bits > 32 {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::decompose_signed(coeffs, q, base_bits, out) };
            true
        }
        _ => false,
    }
}

/// Lifts balanced signed coefficients to canonical residues (`c + q` for
/// negative lanes): the hot inner conversion between gadget decomposition
/// and the spread-digit forward NTT. Lanes outside `(-q, q)` take a scalar
/// `rem_euclid` (same canonical result as `Modulus::from_i64`). Returns
/// `false` when no vector backend applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_from_signed(coeffs: &[i64], q: u64, out: &mut [u64]) -> bool {
    // `-q` and `q` must be signed-compare-safe; every NTT modulus is.
    if q >= (1 << 62) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::from_signed(coeffs, q, out) };
            true
        }
        _ => false,
    }
}

/// Scalar canonical lift for `try_from_signed`'s out-of-range and tail
/// lanes. `rem_euclid` lands in `[0, q)` — the unique canonical residue, so
/// it bit-matches every other correct lift.
#[inline]
pub(crate) fn from_signed_one_scalar(c: i64, q: u64) -> u64 {
    c.rem_euclid(q as i64) as u64
}

/// Scalar signed decomposition of one coefficient into `out[k][i]`,
/// replicating `Gadget::decompose_slice_signed_into` exactly (used by the
/// vector kernels' tail loops).
#[inline]
pub(crate) fn decompose_one_scalar(c: u64, q: u64, base_bits: u32, out: &mut [Vec<i64>], i: usize) {
    let base = 1u64 << base_bits;
    let half = base >> 1;
    let mask = base - 1;
    // Balanced representative: residues above q/2 are negative (matches
    // `Modulus::to_signed`).
    let neg = c > q / 2;
    let mut mag = if neg { q - c } else { c };
    for row in out.iter_mut() {
        let mut digit = mag & mask;
        mag >>= base_bits;
        if digit > half {
            digit = digit.wrapping_sub(base);
            mag += 1;
        }
        let mut d = digit as i64;
        if neg {
            d = -d;
        }
        row[i] = d;
    }
    debug_assert_eq!(mag, 0, "value exceeded gadget range");
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 4×u64-lane kernels. 64-bit lane products are assembled from
    //! `_mm256_mul_epu32` 32×32→64 partial products; conditional subtracts
    //! use the signed `_mm256_cmpgt_epi64` (sound because the dispatch gate
    //! keeps every compared value below `2^63`).

    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn splat(x: u64) -> __m256i {
        _mm256_set1_epi64x(x as i64)
    }

    #[inline(always)]
    unsafe fn loadu(p: *const u64) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut u64, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }

    /// Low 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32))
    }

    /// High 64 bits of the 64×64 lane product.
    #[inline(always)]
    unsafe fn mul_hi(a: __m256i, b: __m256i) -> __m256i {
        let lo_mask = splat(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        let mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, lo_mask)),
            _mm256_and_si256(hl, lo_mask),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
            _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
        )
    }

    /// Shoup lazy product `op*x - hi(quot*x)*q`, lanes in `[0, 2q)`.
    #[inline(always)]
    unsafe fn mul_lazy(x: __m256i, op: __m256i, quot: __m256i, q: __m256i) -> __m256i {
        let hi = mul_hi(quot, x);
        _mm256_sub_epi64(mul_lo(op, x), mul_lo(hi, q))
    }

    /// `x - bound` where `x >= bound` (i.e. `x > bound - 1`), else `x`.
    #[inline(always)]
    unsafe fn fold(x: __m256i, bound: __m256i, bound_m1: __m256i) -> __m256i {
        let ge = _mm256_cmpgt_epi64(x, bound_m1);
        _mm256_sub_epi64(x, _mm256_and_si256(bound, ge))
    }

    /// Expands a pair of adjacent twiddles `{w0, w1}` to `{w0, w0, w1, w1}`.
    #[inline(always)]
    unsafe fn expand_pair(p: *const u64) -> __m256i {
        let wp = _mm_loadu_si128(p as *const __m128i);
        _mm256_permute4x64_epi64(_mm256_castsi128_si256(wp), 0b0101_0000)
    }

    /// Integer-lane forward NTT: 1.6–1.8× the scalar lazy kernel at 50–60 bits.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_forward(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let two_q = splat(2 * q);
        let two_q_m1 = splat(2 * q - 1);

        // Stages with t >= 4: one broadcast twiddle per butterfly group.
        // The inner loop is unrolled 2x (two independent butterfly vectors
        // per iteration) to keep both vpmuludq ports saturated across the
        // long mul_lazy dependency chain.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 4 {
            t >>= 1;
            for i in 0..m {
                let s_op = splat(*op_p.add(m + i));
                let s_qt = splat(*qt_p.add(m + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j + 8 <= j1 + t {
                    let x0 = fold(loadu(p.add(j)), two_q, two_q_m1);
                    let x1 = fold(loadu(p.add(j + 4)), two_q, two_q_m1);
                    let v0 = mul_lazy(loadu(p.add(j + t)), s_op, s_qt, qv);
                    let v1 = mul_lazy(loadu(p.add(j + t + 4)), s_op, s_qt, qv);
                    storeu(p.add(j), _mm256_add_epi64(x0, v0));
                    storeu(p.add(j + 4), _mm256_add_epi64(x1, v1));
                    storeu(
                        p.add(j + t),
                        _mm256_sub_epi64(_mm256_add_epi64(x0, two_q), v0),
                    );
                    storeu(
                        p.add(j + t + 4),
                        _mm256_sub_epi64(_mm256_add_epi64(x1, two_q), v1),
                    );
                    j += 8;
                }
                while j < j1 + t {
                    let x = fold(loadu(p.add(j)), two_q, two_q_m1);
                    let v = mul_lazy(loadu(p.add(j + t)), s_op, s_qt, qv);
                    storeu(p.add(j), _mm256_add_epi64(x, v));
                    storeu(
                        p.add(j + t),
                        _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v),
                    );
                    j += 4;
                }
            }
            m <<= 1;
        }

        // t == 2 stage (m = n/4): two groups per vector. A group is
        // {x0, x1, y0, y1}; 128-bit halves of two adjacent groups regroup
        // into an all-x and an all-y vector.
        {
            let m = n / 4;
            let mut g = 0;
            while g < m {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold(_mm256_permute2x128_si256(v0, v1, 0x20), two_q, two_q_m1);
                let y = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(m + g));
                let wq = expand_pair(qt_p.add(m + g));
                let v = mul_lazy(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                storeu(base, _mm256_permute2x128_si256(lo, hi, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(lo, hi, 0x31));
                g += 2;
            }
        }

        // t == 1 stage (m = n/2): four groups per vector. unpacklo/hi of two
        // adjacent vectors yields x/y vectors in group order {g, g+2, g+1,
        // g+3}; the twiddle load is permuted to the same order. The final
        // [0, 4q) -> [0, q) canonicalization is fused into this stage's
        // stores (identical lane-wise folds, one fewer pass over `a`).
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let x = fold(_mm256_unpacklo_epi64(v0, v1), two_q, two_q_m1);
                let y = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(m + g)), 0b1101_1000);
                let wq = _mm256_permute4x64_epi64(loadu(qt_p.add(m + g)), 0b1101_1000);
                let v = mul_lazy(y, wo, wq, qv);
                let lo = _mm256_add_epi64(x, v);
                let hi = _mm256_sub_epi64(_mm256_add_epi64(x, two_q), v);
                let lo = fold(fold(lo, two_q, two_q_m1), qv, q_m1);
                let hi = fold(fold(hi, two_q, two_q_m1), qv, q_m1);
                storeu(base, _mm256_unpacklo_epi64(lo, hi));
                storeu(base.add(4), _mm256_unpackhi_epi64(lo, hi));
                g += 4;
            }
        }
    }

    /// Integer-lane inverse NTT: 1.1–1.3× the scalar lazy kernel at 50–60 bits.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ntt_inverse(
        a: &mut [u64],
        ops: &[u64],
        quots: &[u64],
        q: u64,
        n_inv_op: u64,
        n_inv_quot: u64,
    ) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let op_p = ops.as_ptr();
        let qt_p = quots.as_ptr();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let two_q = splat(2 * q);
        let two_q_m1 = splat(2 * q - 1);

        // t == 1 stage (h = n/2): same lane regrouping as the forward t == 1
        // stage, GS butterfly.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = p.add(2 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_unpacklo_epi64(v0, v1);
                let v = _mm256_unpackhi_epi64(v0, v1);
                let wo = _mm256_permute4x64_epi64(loadu(op_p.add(h + g)), 0b1101_1000);
                let wq = _mm256_permute4x64_epi64(loadu(qt_p.add(h + g)), 0b1101_1000);
                let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                let z = mul_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_unpacklo_epi64(w, z));
                storeu(base.add(4), _mm256_unpackhi_epi64(w, z));
                g += 4;
            }
        }

        // t == 2 stage (h = n/4): 128-bit half regrouping, two groups per
        // vector.
        {
            let h = n / 4;
            let mut g = 0;
            while g < h {
                let base = p.add(4 * g);
                let v0 = loadu(base);
                let v1 = loadu(base.add(4));
                let u = _mm256_permute2x128_si256(v0, v1, 0x20);
                let v = _mm256_permute2x128_si256(v0, v1, 0x31);
                let wo = expand_pair(op_p.add(h + g));
                let wq = expand_pair(qt_p.add(h + g));
                let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                let z = mul_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), wo, wq, qv);
                storeu(base, _mm256_permute2x128_si256(w, z, 0x20));
                storeu(base.add(4), _mm256_permute2x128_si256(w, z, 0x31));
                g += 2;
            }
        }

        // Stages with t >= 4: broadcast twiddle per group. The last stage
        // (h == 1, one group spanning the whole array) runs separately
        // below with the n^{-1} scaling folded into its twiddles.
        let mut t = 4usize;
        let mut m = n / 4;
        while m > 2 {
            let h = m >> 1;
            for i in 0..h {
                let s_op = splat(*op_p.add(h + i));
                let s_qt = splat(*qt_p.add(h + i));
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = loadu(p.add(j));
                    let v = loadu(p.add(j + t));
                    let w = fold(_mm256_add_epi64(u, v), two_q, two_q_m1);
                    let z = mul_lazy(
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                        s_op,
                        s_qt,
                        qv,
                    );
                    storeu(p.add(j), w);
                    storeu(p.add(j + t), z);
                    j += 4;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final stage (h == 1) with the n^{-1} scaling folded into the
        // twiddles: `w` lanes take n^{-1} directly, `z` lanes take
        // `s * n^{-1} mod q` (quotient recomputed once per call). Both ends
        // are fully canonicalized, so the combined single Shoup product
        // yields the same canonical residue as the scalar kernel's
        // two-step chain — one `mul_lazy` per output vector instead of
        // two, and no intermediate `[0, 2q)` fold on the `w` side.
        {
            let t = n / 2;
            let s = *op_p.add(1);
            let s_ni = ((u128::from(s) * u128::from(n_inv_op)) % u128::from(q)) as u64;
            let s_ni_quot = ((u128::from(s_ni) << 64) / u128::from(q)) as u64;
            let ni_op = splat(n_inv_op);
            let ni_qt = splat(n_inv_quot);
            let sni_op = splat(s_ni);
            let sni_qt = splat(s_ni_quot);
            let mut j = 0;
            while j < t {
                let u = loadu(p.add(j));
                let v = loadu(p.add(j + t));
                let w = mul_lazy(_mm256_add_epi64(u, v), ni_op, ni_qt, qv);
                let z = mul_lazy(
                    _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                    sni_op,
                    sni_qt,
                    qv,
                );
                storeu(p.add(j), fold(w, qv, q_m1));
                storeu(p.add(j + t), fold(z, qv, q_m1));
                j += 4;
            }
        }
    }

    /// Branchless canonical lift of balanced signed coefficients:
    /// `out[i] = c + (c < 0 ? q : 0)` for lanes inside `(-q, q)` (the
    /// gadget-digit fast path); any block with an out-of-range lane falls
    /// back to the scalar `rem_euclid` lift. Requires `q < 2^62` for signed
    /// compares. 3.6–4.1× the scalar lift on gadget digits.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn from_signed(coeffs: &[i64], q: u64, out: &mut [u64]) {
        let n = coeffs.len();
        let cp = coeffs.as_ptr();
        let op = out.as_mut_ptr();
        let qv = splat(q);
        let neg_q = _mm256_set1_epi64x(-(q as i64));
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let c = loadu(cp.add(i) as *const u64);
            let in_range =
                _mm256_and_si256(_mm256_cmpgt_epi64(c, neg_q), _mm256_cmpgt_epi64(qv, c));
            if _mm256_movemask_pd(_mm256_castsi256_pd(in_range)) == 0xf {
                let lift = _mm256_and_si256(qv, _mm256_cmpgt_epi64(zero, c));
                storeu(op.add(i), _mm256_add_epi64(c, lift));
            } else {
                for k in i..i + 4 {
                    out[k] = super::from_signed_one_scalar(coeffs[k], q);
                }
            }
            i += 4;
        }
        while i < n {
            out[i] = super::from_signed_one_scalar(coeffs[i], q);
            i += 1;
        }
    }

    /// Signed digit chain on four magnitudes at once: 4.7–4.9× the scalar loop.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decompose_signed(
        coeffs: &[u64],
        q: u64,
        base_bits: u32,
        out: &mut [Vec<i64>],
    ) {
        let n = coeffs.len();
        let base = 1u64 << base_bits;
        let half = base >> 1;
        let mask = base - 1;
        let half_q = splat(q / 2);
        let qv = splat(q);
        let base_v = splat(base);
        let half_v = splat(half);
        let mask_v = splat(mask);
        let shift = _mm_cvtsi64_si128(base_bits as i64);
        let cp = coeffs.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let c = loadu(cp.add(i));
            // Balanced representative: residues above q/2 negate; the digit
            // chain then runs on the magnitude exactly like the scalar path.
            let neg = _mm256_cmpgt_epi64(c, half_q);
            let mut mag = _mm256_blendv_epi8(c, _mm256_sub_epi64(qv, c), neg);
            for row in out.iter_mut() {
                let dig = _mm256_and_si256(mag, mask_v);
                mag = _mm256_srl_epi64(mag, shift);
                let gt = _mm256_cmpgt_epi64(dig, half_v);
                let dig = _mm256_sub_epi64(dig, _mm256_and_si256(base_v, gt));
                // gt lanes are -1 where the carry fires, so this adds 1.
                mag = _mm256_sub_epi64(mag, gt);
                // Conditional two's-complement negate: (d ^ m) - m.
                let d = _mm256_sub_epi64(_mm256_xor_si256(dig, neg), neg);
                _mm256_storeu_si256(row.as_mut_ptr().add(i) as *mut __m256i, d);
            }
            debug_assert!(
                _mm256_testz_si256(mag, mag) == 1,
                "value exceeded gadget range"
            );
            i += 4;
        }
        while i < n {
            super::decompose_one_scalar(coeffs[i], q, base_bits, out, i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn force_scalar_round_trips() {
        let detected = active();
        force_scalar(true);
        assert_eq!(active(), Backend::Scalar);
        force_scalar(false);
        assert_eq!(active(), detected);
    }

    /// A misspelt `HEAP_SIMD` is an error, never a silent "native".
    #[test]
    fn override_parser_rejects_unknown_spellings() {
        for v in ["scalar", "off", "0", "SCALAR", "Off"] {
            assert_eq!(override_from(v), Ok(Some(Backend::Scalar)), "{v}");
        }
        for v in ["", "auto", "AUTO"] {
            assert_eq!(override_from(v), Ok(None), "{v:?}");
        }
        for v in ["sclar", "1", "avx2", "on", " scalar"] {
            let err = override_from(v).expect_err(v);
            assert!(
                err.contains("scalar|off|0") && err.contains("auto"),
                "{err}"
            );
        }
    }
}
