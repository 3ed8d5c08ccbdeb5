//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them. The CPU
//! analogue is explicit vectorization: AVX-512F and AVX2 + FMA (x86_64)
//! implementations of the hot loops — the NTT butterflies, the digit → NTT
//! → MAC datapath of the external product, the CMux fold, and signed gadget
//! decomposition — selected at runtime behind feature detection, with the
//! scalar lazy kernels as the always-available fallback (and the only tier
//! on any other architecture).
//!
//! Each vector tier is kept by a measured ratio over the kernel it replaces
//! (N = 2048, 36-bit limb unless noted, best of 61 × 40 calls, three
//! process runs, 2-core AVX-512F host; EXPERIMENTS.md "One f64 lane from
//! digit to accumulator", "Eight lanes" and "Eight lanes against four"):
//!
//! | tier | kernels | applies when | ratio |
//! |---|---|---|---|
//! | scalar lazy | all | always | 1 (the parity oracle) |
//! | `f64` lanes ×4 | signed-lazy radix-4 forward NTT | `n ≥ 16`, `C + log2(n)·q ≤ 2^50` | 4.8–4.9× over scalar |
//! | `f64` lanes ×4 | digit → forward NTT → four MACs, one entry | the same, and `terms·q ≤ 2^52` | 4.0–4.4× over lift + NTT + four `u128` MACs |
//! | `f64` lanes ×4 | CMux fold into the accumulator | the same, and `terms·q ≤ 2^50` | 5.3× over the `u128` fold |
//! | `f64` lanes ×4 | inverse NTT (fully reduced) | the forward gate | 2.4–2.6× over scalar |
//! | `f64` lanes ×8 | forward NTT; digit → NTT → four MACs; fold | the ×4 gates, and AVX-512F | over ×4: 1.4–1.6×; 1.25× (1.0× at N = 2^13, L2-bound); 1.4–2.0×; `job_ms_p50` −14 % / −16 % on `cluster-tiny-full` / `lib-medium-sparse` |
//! | integer lanes ×4 | signed decompose; signed lift | any NTT modulus | 4.7–4.9×; 3.6–4.1× over scalar |
//! | integer lanes | forward / inverse NTT | — | **deleted**: 1.6–1.8× / 1.1–1.3× at 50–60 bits, but no workload has a modulus past the `f64` gate |
//!
//! The 8-lane tier runs the forward transform, the MAC and the fold; the
//! inverse transform and the integer lanes keep their AVX2 bodies, which it
//! runs too. Every other ring and modulus runs the scalar lazy NTT. The
//! integer-lane NTT returns from commit `6ed5204` together with a benchmark
//! workload whose modulus is 46 bits or wider on an AVX2 host, not before.
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
//! `HEAP_SIMD` environment variable before first use to `scalar` (or
//! `off`/`0`) for the scalar kernels, or to `avx2` to stop at the 4-lane
//! tier; or call [`force_scalar`] at runtime.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::mac::{LazyCoeff, RowPair};

#[cfg(target_arch = "x86_64")]
mod f64_lanes;

/// Which vector datapath is driving the hot kernels. Ordered by width, so
/// a `HEAP_SIMD` cap is the smaller of itself and what the host has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Scalar lazy kernels (always available).
    Scalar = 1,
    /// AVX2 and FMA together on x86_64: 4×u64 and 4×f64 lanes. A CPU with
    /// AVX2 but no FMA runs the scalar kernels.
    Avx2 = 2,
    /// AVX-512F on top of AVX2 + FMA: the `f64`-lane forward transform,
    /// MAC and fold run 8 lanes wide; everything else as [`Backend::Avx2`].
    Avx512 = 3,
}

impl Backend {
    /// Human-readable backend name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether this tier runs the `f64`-lane kernels (at either width).
    pub fn has_f64_lanes(self) -> bool {
        self != Backend::Scalar
    }
}

/// Cached backend selection: 0 = undetected, else the `Backend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Parses a `HEAP_SIMD` value: `Some(backend)` caps dispatch at that tier,
/// `None` leaves the choice to feature detection.
///
/// # Errors
///
/// Any other spelling is an error naming the accepted ones — a typo must
/// not silently select the native path.
fn override_from(value: &str) -> Result<Option<Backend>, String> {
    match value.to_ascii_lowercase().as_str() {
        "scalar" | "off" | "0" => Ok(Some(Backend::Scalar)),
        "avx2" => Ok(Some(Backend::Avx2)),
        "" | "auto" => Ok(None),
        other => Err(format!(
            "HEAP_SIMD={other:?} not recognised: use scalar|off|0 to force the scalar kernels, \
             avx2 to stop at the 4-lane tier, auto (or unset) to detect"
        )),
    }
}

/// The widest tier this host supports.
fn native() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The host's widest tier, capped by `HEAP_SIMD`: a cap can narrow the
/// choice, never widen it past what the CPU has.
fn detect() -> Backend {
    let pinned = std::env::var("HEAP_SIMD").map_or(Ok(None), |v| override_from(&v));
    match pinned.unwrap_or_else(|e| panic!("{e}")) {
        Some(cap) => cap.min(native()),
        None => native(),
    }
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
        v if v == Backend::Avx512 as u8 => Backend::Avx512,
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

/// Largest magnitude an `f64` lane may reach as a product input: the
/// error-free modular product of `simd/f64_lanes.rs` is exact up to here.
/// A sum the CMux fold multiplies by its factor is such an input.
pub(crate) const F64_OPERAND_LIMIT: u128 = 1 << 50;

/// Largest magnitude a sum of `f64` MAC terms may reach and stay an exact
/// integer with a bit in hand.
pub(crate) const F64_SUM_LIMIT: u128 = 1 << 52;

/// Whether the `f64`-lane transforms run — and are exact — right now for an
/// `n`-point ring under `q` on inputs of magnitude at most `input_bound`:
/// an `f64`-lane tier active, `n ≥ 16`, and the signed-lazy growth bound
/// `input_bound + log2(n)·q ≤ 2^50`. Every other ring takes the scalar
/// kernels.
pub(crate) fn f64_ntt_ok(n: usize, q: u64, input_bound: u64) -> bool {
    let grown = u128::from(input_bound) + u128::from(n.trailing_zeros()) * u128::from(q);
    active().has_f64_lanes() && n.is_power_of_two() && n >= 16 && grown <= F64_OPERAND_LIMIT
}

/// [`f64_ntt_ok`] for a chain that also accumulates `terms` products per
/// coefficient in `f64`, each a signed term below `q`: the sum must stay an
/// exact integer inside `sum_limit` — [`F64_SUM_LIMIT`] for a chain that
/// ends in a reduction, [`F64_OPERAND_LIMIT`] for one the CMux fold
/// multiplies by its factor. This is what `mac_path` gates the narrow
/// accumulators on.
pub(crate) fn f64_mac_ok(
    n: usize,
    q: u64,
    input_bound: u64,
    terms: usize,
    sum_limit: u128,
) -> bool {
    f64_ntt_ok(n, q, input_bound) && terms as u128 * u128::from(q) <= sum_limit
}

/// Runs `f64_lanes::<tier>::$kernel(args…)` on the active `f64`-lane tier
/// and yields `true`, or yields `false` — having touched nothing — on the
/// scalar one.
#[cfg(target_arch = "x86_64")]
macro_rules! on_f64_tier {
    ($kernel:ident($($arg:expr),* $(,)?)) => {
        match active() {
            // SAFETY: a tier is active only after runtime detection of its
            // features (`detect`).
            Backend::Avx512 => {
                unsafe { f64_lanes::avx512::$kernel($($arg),*) };
                true
            }
            Backend::Avx2 => {
                unsafe { f64_lanes::avx2::$kernel($($arg),*) };
                true
            }
            Backend::Scalar => false,
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
macro_rules! on_f64_tier {
    ($($call:tt)*) => {
        false
    };
}

/// Runs the full forward lazy NTT in `f64` lanes: lazy residues in
/// `[0, 4q)` in, canonical residues out. `ops_f64` holds the bit-reversed
/// twiddle operands as doubles (same indexing as the scalar kernel's
/// `psi_br`). Returns `false` — having touched nothing — when the kernel
/// does not run for this ring right now; the caller must then run the
/// scalar kernel.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_forward(a: &mut [u64], ops_f64: &[f64], q: u64) -> bool {
    f64_ntt_ok(a.len(), q, 4 * q) && on_f64_tier!(forward_in_place(a, ops_f64, q))
}

/// Runs the full inverse lazy NTT (including the final `n^{-1}` scaling and
/// canonicalization) in `f64` lanes, under the forward kernel's gate; both
/// tiers run the one AVX2 body. Returns `false` when it does not run right
/// now.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_inverse(a: &mut [u64], ops: &[u64], q: u64, n_inv_op: u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    if f64_ntt_ok(a.len(), q, 4 * q) {
        // SAFETY: both `f64`-lane tiers have AVX2 and FMA, detected at
        // runtime (`f64_ntt_ok`). The forward gate implies the inverse
        // kernel's own bound, `q < 2^48`.
        unsafe { f64_lanes::ntt_inverse(a, ops, q, n_inv_op) };
        return true;
    }
    false
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
    f64_ntt_ok(digit.len(), q, 0) && on_f64_tier!(mac_digit(digit, ops_f64, q, operand, rows, acc))
}

/// Reduces `f64` accumulators (exact integers below `2^52` in magnitude) to
/// canonical residues in `out`. Returns `false` when the `f64` kernels do
/// not run right now.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) -> bool {
    f64_ntt_ok(acc.len(), q, 0) && on_f64_tier!(reduce_acc(acc, q, out))
}

/// The CMux fold in `f64` lanes: `acc ← canonical(acc + S⁺·f⁺ + S⁻·f⁻)`
/// for exact integer sums `|S| ≤ 2^50` and canonical factors and `acc`.
/// Returns `false` when the `f64` kernels do not run right now.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_fold_acc(
    sums: [&[f64]; 2],
    factors: [&[u64]; 2],
    q: u64,
    acc: &mut [u64],
) -> bool {
    f64_ntt_ok(acc.len(), q, 0) && on_f64_tier!(fold_acc(sums, factors, q, acc))
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
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both tiers are only selected after runtime detection
            // of AVX2 (and more).
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
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both tiers are only selected after runtime detection
            // of AVX2 (and more).
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 4×u64-lane kernels: signed decomposition and the signed lift.
    //! Compares use the signed `_mm256_cmpgt_epi64`, sound because the
    //! dispatch gates keep every compared value below `2^63`. Each kernel
    //! asserts the slice lengths its pointer arithmetic relies on.

    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(x: u64) -> __m256i {
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

    /// Branchless canonical lift of balanced signed coefficients:
    /// `out[i] = c + (c < 0 ? q : 0)` for lanes inside `(-q, q)` (the
    /// gadget-digit fast path); any block with an out-of-range lane falls
    /// back to the scalar `rem_euclid` lift. Requires `q < 2^62` for signed
    /// compares. 3.6–4.1× the scalar lift on gadget digits.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn from_signed(coeffs: &[i64], q: u64, out: &mut [u64]) {
        let n = coeffs.len();
        assert_eq!(out.len(), n, "length mismatch");
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
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decompose_signed(
        coeffs: &[u64],
        q: u64,
        base_bits: u32,
        out: &mut [Vec<i64>],
    ) {
        let n = coeffs.len();
        assert!(out.iter().all(|row| row.len() == n), "length mismatch");
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
            let slots = out.iter_mut().map(|row| &mut row[i]);
            crate::gadget::signed_digits(coeffs[i], q, base_bits, slots);
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
        assert_eq!(Backend::Avx512.name(), "avx512");
    }

    /// Names the tier this process dispatches to (CI's SIMD-parity step
    /// runs it with `--nocapture` ahead of each round); a `HEAP_SIMD` cap
    /// never selects more than the host has.
    #[test]
    fn reports_the_active_backend() {
        let b = active();
        println!("simd::active() = {}", b.name());
        assert!(b <= native(), "{b:?} above the host's {:?}", native());
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
        for v in ["avx2", "AVX2"] {
            assert_eq!(override_from(v), Ok(Some(Backend::Avx2)), "{v}");
        }
        for v in ["", "auto", "AUTO"] {
            assert_eq!(override_from(v), Ok(None), "{v:?}");
        }
        for v in ["sclar", "1", "avx512", "avx", "on", " scalar"] {
            let err = override_from(v).expect_err(v);
            assert!(
                err.contains("scalar|off|0") && err.contains("auto"),
                "{err}"
            );
        }
    }
}
