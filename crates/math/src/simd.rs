//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them. The CPU
//! analogue is explicit vectorization: AVX2 (x86_64) implementations of the
//! hot loops — the Harvey lazy NTT butterflies, the narrow MAC inner loop,
//! its deferred reduction, and signed gadget decomposition — selected at
//! runtime behind feature detection, with the scalar lazy kernels as the
//! always-available fallback (and the only tier on any other architecture).
//!
//! Each vector tier is kept by a measured ratio over the scalar lazy kernel
//! it replaces (N = 2048, best of 61 × 40 calls, 2-core AVX2+FMA host;
//! EXPERIMENTS.md "Kernel tiers, measured"):
//!
//! | tier | kernels | applies when | ratio over scalar |
//! |---|---|---|---|
//! | scalar lazy | all | always | 1 (the parity oracle) |
//! | AVX2 + FMA, `f64` lanes | forward / inverse NTT; narrow MAC | `q < 2^48` | 2.4–2.8× / 2.3–2.4× at 36 bits; 1.4× over the `u128` MAC |
//! | AVX2, integer lanes | forward / inverse NTT | `2^48 ≤ q < 2^61` | 1.6–1.8× / 1.1–1.3× at 50–60 bits |
//! | AVX2, integer lanes | narrow reduction; signed decompose; signed lift | any NTT modulus | 3.1×; 4.7–4.9×; 3.6–4.1× |
//!
//! DESIGN.md §2 "SIMD dispatch" also lists the tiers that measured too
//! little to keep and what would bring one back.
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

/// Bound for the double-precision FMA kernels: the error-free float modular
/// product (two-product + one `round`) is provably exact for `q < 2^48`
/// (all intermediates are integers below `2^53`, and the nearest-integer
/// quotient estimate is off by strictly less than one), so for the
/// 30–47-bit working primes a butterfly costs ~9 FMA-port µops instead of
/// the ~30 integer-emulation µops AVX2 needs for a 64-bit `mul_lazy`. Wider
/// moduli (e.g. the 60-bit parity primes) take the integer NTT kernels.
const F64_Q_LIMIT: u64 = 1 << 48;

fn f64_kernels_ok(q: u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    let fma = std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    q < F64_Q_LIMIT && fma
}

/// Runs the full forward lazy NTT on the active vector backend.
///
/// `ops`/`quots` are the bit-reversed twiddle operands and Shoup quotients
/// (same indexing as the scalar kernel's `psi_br`). Returns `false` when no
/// vector backend applies — the caller must then run the scalar kernel.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_forward(a: &mut [u64], ops: &[u64], quots: &[u64], q: u64) -> bool {
    if !ntt_simd_ok(a.len(), q) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 (and, for the f64 kernel, FMA) is only selected
            // after runtime detection.
            if f64_kernels_ok(q) {
                unsafe { avx2::ntt_forward_f64(a, ops, q) };
            } else {
                unsafe { avx2::ntt_forward(a, ops, quots, q) };
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
            // after runtime detection.
            if f64_kernels_ok(q) {
                unsafe { avx2::ntt_inverse_f64(a, ops, q, n_inv_op) };
            } else {
                unsafe { avx2::ntt_inverse(a, ops, quots, q, n_inv_op, n_inv_quot) };
            }
            true
        }
        _ => false,
    }
}

/// Whether the vector narrow-MAC kernel runs under modulus `q` right now:
/// AVX2 active, FMA present and `q` inside the exact-`f64` bound. This is
/// what `mac_path` gates the `u64` accumulators on — the scalar form of the
/// same product (a `u128` multiply *and* a reduction per term) loses to the
/// wide path's bare multiply, so the narrow path only pays vectorized.
pub(crate) fn narrow_mac_ok(q: u64) -> bool {
    active() == Backend::Avx2 && f64_kernels_ok(q)
}

/// The narrow MAC: `acc[i] += x[i]·ops[i] mod q` as a canonical term in
/// `[0, q)`, for `x` anywhere in the lazy `[0, 4q)` domain and canonical
/// `ops` — no precomputed quotient is read. Where [`narrow_mac_ok`] holds
/// the `f64` kernel takes every full vector; the exact scalar loop takes
/// the rest, which is the ragged tail on a vector host and *everything* if
/// the backend was flipped to scalar after the chain chose its accumulator
/// — the terms are the same canonical residues either way, so a chain may
/// mix both.
pub(crate) fn mac_narrow(x: &[u64], ops: &[u64], q: u64, acc: &mut [u64]) {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if narrow_mac_ok(q) {
        // SAFETY: Avx2 and FMA were detected at runtime (`narrow_mac_ok`).
        done = unsafe { avx2::mac_f64(x, ops, q, acc) };
    }
    for i in done..x.len() {
        acc[i] += ((u128::from(x[i]) * u128::from(ops[i])) % u128::from(q)) as u64;
    }
}

/// Canonically reduces `u64` accumulators into `out` with a single-word
/// Barrett step (`barrett_hi = floor(2^64 / q)`). Returns `false` when no
/// vector backend applies.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_reduce_barrett(acc: &[u64], out: &mut [u64], q: u64, barrett_hi: u64) -> bool {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Avx2 is only selected after runtime detection.
            unsafe { avx2::reduce_barrett(acc, out, q, barrett_hi) };
            true
        }
        _ => false,
    }
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

    // ---- double-precision (FMA) kernels for q < 2^48 ----
    //
    // AVX2 has no 64-bit integer multiply, so the integer `mul_lazy` above
    // costs ~30 µops per 4 lanes. For `q < 2^48` the same exact modular
    // product fits the classical error-free double-precision scheme in ~9:
    //
    //   hi = RN(a*b)            — nearest double to the product
    //   lo = fma(a, b, -hi)     — *exact* two-product error: hi + lo = a*b
    //   k  = round(hi * RN(1/q))— nearest integer to a*b/q (error << 1/2,
    //                             see bound below)
    //   r  = fma(-k, q, hi) + lo — exact integer a*b - k*q in (-q, q)
    //
    // plus one conditional add to land in `[0, q)`. Every intermediate is an
    // integer below 2^53, every rounding is round-to-nearest-even, so the
    // result is the *exact* canonical residue on every IEEE-754 host — no
    // approximation anywhere. Error bound for the k estimate with operands
    // a < q, b < 2q < 2^49: |hi - ab| <= 2q^2 * 2^-54 and
    // |RN(1/q) - 1/q| <= 2^-53/q give |k - ab/q| <= 1/2 + q*2^-52 < 1,
    // hence |r| < q after the single correction.
    //
    // These kernels keep every lane *fully reduced* in `[0, q)` instead of
    // the integer path's lazy `[0, 4q)` — the representatives differ
    // mid-transform, but both paths canonicalize on exit, so the output
    // arrays are bit-identical (which is what the parity suites pin).
    const F64_MAGIC: i64 = 0x4330_0000_0000_0000; // 2^52 as an f64 bit pattern

    /// Exact `u64 -> f64` for lanes below 2^52.
    #[inline(always)]
    unsafe fn to_f64(x: __m256i) -> __m256d {
        let magic = _mm256_set1_epi64x(F64_MAGIC);
        _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(x, magic)),
            _mm256_castsi256_pd(magic),
        )
    }

    /// Exact `f64 -> u64` for integer-valued lanes in `[0, 2^52)`.
    #[inline(always)]
    unsafe fn to_u64(x: __m256d) -> __m256i {
        let magic = _mm256_set1_epi64x(F64_MAGIC);
        _mm256_sub_epi64(
            _mm256_castpd_si256(_mm256_add_pd(x, _mm256_castsi256_pd(magic))),
            magic,
        )
    }

    /// `x - b` where `x >= b`, else `x` (float lanes).
    #[inline(always)]
    unsafe fn cond_sub_pd(x: __m256d, b: __m256d) -> __m256d {
        let ge = _mm256_cmp_pd(x, b, _CMP_GE_OQ);
        _mm256_sub_pd(x, _mm256_and_pd(b, ge))
    }

    /// `x + b` where `x < 0`, else `x` (float lanes).
    #[inline(always)]
    unsafe fn cond_add_neg_pd(x: __m256d, b: __m256d) -> __m256d {
        let lt = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
        _mm256_add_pd(x, _mm256_and_pd(b, lt))
    }

    /// Exact `a*b mod q` in `[0, q)` for integer lanes `a < 2q`, `b < q`,
    /// `q < 2^48` (see the scheme above).
    #[inline(always)]
    unsafe fn mulmod_pd(a: __m256d, b: __m256d, qd: __m256d, inv_q: __m256d) -> __m256d {
        let hi = _mm256_mul_pd(a, b);
        let lo = _mm256_fmsub_pd(a, b, hi);
        let k = _mm256_round_pd(
            _mm256_mul_pd(hi, inv_q),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_add_pd(_mm256_fnmadd_pd(k, qd, hi), lo);
        cond_add_neg_pd(r, qd)
    }

    /// Forward NTT over doubles: converts in place, runs every butterfly
    /// fully reduced, converts back canonical. Same stage/lane structure as
    /// the integer kernel. Requires `q < 2^48` and FMA. 2.4–2.8× scalar.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ntt_forward_f64(a: &mut [u64], ops: &[u64], q: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let pd = p as *mut f64;
        let op_p = ops.as_ptr();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let two_qd = _mm256_set1_pd(2.0 * q as f64);

        // Entry: exact conversion plus [0, 4q) -> [0, q) canonicalization.
        let mut j = 0;
        while j < n {
            let x = to_f64(loadu(p.add(j)));
            let x = cond_sub_pd(cond_sub_pd(x, two_qd), qd);
            _mm256_storeu_pd(pd.add(j), x);
            j += 4;
        }

        // Stages with t >= 4: one broadcast twiddle per butterfly group.
        let mut t = n;
        let mut m = 1usize;
        while m < n / 4 {
            t >>= 1;
            for i in 0..m {
                let wd = _mm256_set1_pd(*op_p.add(m + i) as f64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let x = _mm256_loadu_pd(pd.add(j));
                    let y = _mm256_loadu_pd(pd.add(j + t));
                    let v = mulmod_pd(y, wd, qd, inv_q);
                    let lo = cond_sub_pd(_mm256_add_pd(x, v), qd);
                    let hi = cond_add_neg_pd(_mm256_sub_pd(x, v), qd);
                    _mm256_storeu_pd(pd.add(j), lo);
                    _mm256_storeu_pd(pd.add(j + t), hi);
                    j += 4;
                }
            }
            m <<= 1;
        }

        // t == 2 stage: same 128-bit half regrouping as the integer kernel.
        {
            let m = n / 4;
            let mut g = 0;
            while g < m {
                let base = pd.add(4 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let x = _mm256_permute2f128_pd(v0, v1, 0x20);
                let y = _mm256_permute2f128_pd(v0, v1, 0x31);
                let w0 = *op_p.add(m + g) as f64;
                let w1 = *op_p.add(m + g + 1) as f64;
                let wd = _mm256_set_pd(w1, w1, w0, w0);
                let v = mulmod_pd(y, wd, qd, inv_q);
                let lo = cond_sub_pd(_mm256_add_pd(x, v), qd);
                let hi = cond_add_neg_pd(_mm256_sub_pd(x, v), qd);
                _mm256_storeu_pd(base, _mm256_permute2f128_pd(lo, hi, 0x20));
                _mm256_storeu_pd(base.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
                g += 2;
            }
        }

        // t == 1 stage with the exit conversion fused into its stores;
        // outputs are already canonical.
        {
            let m = n / 2;
            let mut g = 0;
            while g < m {
                let base = pd.add(2 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let x = _mm256_unpacklo_pd(v0, v1);
                let y = _mm256_unpackhi_pd(v0, v1);
                let wd = _mm256_set_pd(
                    *op_p.add(m + g + 3) as f64,
                    *op_p.add(m + g + 1) as f64,
                    *op_p.add(m + g + 2) as f64,
                    *op_p.add(m + g) as f64,
                );
                let v = mulmod_pd(y, wd, qd, inv_q);
                let lo = to_u64(cond_sub_pd(_mm256_add_pd(x, v), qd));
                let hi = to_u64(cond_add_neg_pd(_mm256_sub_pd(x, v), qd));
                storeu(p.add(2 * g), _mm256_unpacklo_epi64(lo, hi));
                storeu(p.add(2 * g + 4), _mm256_unpackhi_epi64(lo, hi));
                g += 4;
            }
        }
    }

    /// Inverse NTT over doubles; the `n^{-1}` scaling is folded into the
    /// final stage's twiddles (`w` lanes take `n^{-1}`, `z` lanes take
    /// `s * n^{-1} mod q`), and the exit conversion is fused into that
    /// stage's stores. Requires `q < 2^48` and FMA. 2.3–2.4× scalar.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ntt_inverse_f64(a: &mut [u64], ops: &[u64], q: u64, n_inv_op: u64) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let pd = p as *mut f64;
        let op_p = ops.as_ptr();
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);

        // Entry: exact conversion plus [0, 2q) -> [0, q) canonicalization.
        let mut j = 0;
        while j < n {
            let x = to_f64(loadu(p.add(j)));
            let x = cond_sub_pd(x, qd);
            _mm256_storeu_pd(pd.add(j), x);
            j += 4;
        }

        // t == 1 stage: GS butterfly on unpacked lanes.
        {
            let h = n / 2;
            let mut g = 0;
            while g < h {
                let base = pd.add(2 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let u = _mm256_unpacklo_pd(v0, v1);
                let v = _mm256_unpackhi_pd(v0, v1);
                let wd = _mm256_set_pd(
                    *op_p.add(h + g + 3) as f64,
                    *op_p.add(h + g + 1) as f64,
                    *op_p.add(h + g + 2) as f64,
                    *op_p.add(h + g) as f64,
                );
                let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                _mm256_storeu_pd(base, _mm256_unpacklo_pd(w, z));
                _mm256_storeu_pd(base.add(4), _mm256_unpackhi_pd(w, z));
                g += 4;
            }
        }

        // t == 2 stage: 128-bit half regrouping.
        {
            let h = n / 4;
            let mut g = 0;
            while g < h {
                let base = pd.add(4 * g);
                let v0 = _mm256_loadu_pd(base);
                let v1 = _mm256_loadu_pd(base.add(4));
                let u = _mm256_permute2f128_pd(v0, v1, 0x20);
                let v = _mm256_permute2f128_pd(v0, v1, 0x31);
                let w0 = *op_p.add(h + g) as f64;
                let w1 = *op_p.add(h + g + 1) as f64;
                let wd = _mm256_set_pd(w1, w1, w0, w0);
                let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                _mm256_storeu_pd(base, _mm256_permute2f128_pd(w, z, 0x20));
                _mm256_storeu_pd(base.add(4), _mm256_permute2f128_pd(w, z, 0x31));
                g += 2;
            }
        }

        // Stages with t >= 4, h > 1.
        let mut t = 4usize;
        let mut m = n / 4;
        while m > 2 {
            let h = m >> 1;
            for i in 0..h {
                let wd = _mm256_set1_pd(*op_p.add(h + i) as f64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = _mm256_loadu_pd(pd.add(j));
                    let v = _mm256_loadu_pd(pd.add(j + t));
                    let w = cond_sub_pd(_mm256_add_pd(u, v), qd);
                    let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), wd, qd, inv_q);
                    _mm256_storeu_pd(pd.add(j), w);
                    _mm256_storeu_pd(pd.add(j + t), z);
                    j += 4;
                }
            }
            t <<= 1;
            m = h;
        }

        // Final stage (h == 1) with n^{-1} folded into the twiddles and the
        // exit conversion fused into the stores. The `w`-side operand
        // `u + v < 2q` stays inside the mulmod bound.
        {
            let t = n / 2;
            let s = *op_p.add(1);
            let s_ni = ((u128::from(s) * u128::from(n_inv_op)) % u128::from(q)) as u64;
            let ni_d = _mm256_set1_pd(n_inv_op as f64);
            let sni_d = _mm256_set1_pd(s_ni as f64);
            let mut j = 0;
            while j < t {
                let u = _mm256_loadu_pd(pd.add(j));
                let v = _mm256_loadu_pd(pd.add(j + t));
                let w = mulmod_pd(_mm256_add_pd(u, v), ni_d, qd, inv_q);
                let z = mulmod_pd(cond_add_neg_pd(_mm256_sub_pd(u, v), qd), sni_d, qd, inv_q);
                storeu(p.add(j), to_u64(w));
                storeu(p.add(j + t), to_u64(z));
                j += 4;
            }
        }
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

    /// Float MAC for `q < 2^48` over the full vectors of `x`; returns how
    /// many coefficients it covered (the caller's scalar loop takes the
    /// rest). Each term is the *exact canonical* `x*op mod q` from
    /// [`mulmod_pd`] (valid for `x < 2^50`, which covers the `[0, 4q)` lazy
    /// domain every call site stays inside), converted back and accumulated
    /// as a plain integer add: the key row is the only key-side operand.
    /// 1.4× the scalar `u128` MAC at 36 bits (8 MACs + one reduction).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mac_f64(x: &[u64], ops: &[u64], q: u64, acc: &mut [u64]) -> usize {
        let n = x.len();
        assert!(ops.len() == n && acc.len() == n, "length mismatch");
        let qd = _mm256_set1_pd(q as f64);
        let inv_q = _mm256_set1_pd(1.0 / q as f64);
        let xp = x.as_ptr();
        let op = ops.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let xd = to_f64(loadu(xp.add(i)));
            let wd = to_f64(loadu(op.add(i)));
            let prod = to_u64(mulmod_pd(xd, wd, qd, inv_q));
            storeu(ap.add(i), _mm256_add_epi64(loadu(ap.add(i)), prod));
            i += 4;
        }
        i
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

    /// Single-word Barrett reduction: 3.1× the scalar divide loop.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn reduce_barrett(acc: &[u64], out: &mut [u64], q: u64, barrett_hi: u64) {
        let n = acc.len();
        let qv = splat(q);
        let q_m1 = splat(q - 1);
        let bh = splat(barrett_hi);
        let ap = acc.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = loadu(ap.add(i));
            // est = floor(x / q) or one less, so x - est*q lands in [0, 2q)
            // and one conditional subtract canonicalizes exactly.
            let est = mul_hi(x, bh);
            let r = _mm256_sub_epi64(x, mul_lo(est, qv));
            storeu(op.add(i), fold(r, qv, q_m1));
            i += 4;
        }
        while i < n {
            let x = acc[i];
            let est = (((x as u128) * (barrett_hi as u128)) >> 64) as u64;
            let mut r = x.wrapping_sub(est.wrapping_mul(q));
            if r >= q {
                r -= q;
            }
            out[i] = r;
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
