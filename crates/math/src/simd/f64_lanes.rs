//! AVX2 + FMA kernels on `f64` lanes: the signed-lazy radix-4 forward NTT,
//! the MAC it feeds, the accumulator reduction, and the inverse NTT.
//!
//! AVX2 has no 64-bit integer multiply, so an integer Shoup product costs
//! ~30 µops per 4 lanes. A double holds every integer below `2^53` exactly,
//! and FMA gives the exact low half of a product, so the same modular
//! product takes six instructions ([`mulmod_lazy`]):
//!
//! ```text
//! h = RN(a·w)                        nearest double to the product
//! l = fma(a, w, −h)                  exact: h + l = a·w (error-free transformation)
//! k = fma(h, RN(1/q), 1.5·2^52) − 1.5·2^52
//!                                    an integer within 0.76 of a·w/q (bound below)
//! r = fma(−k, q, h) + l              = a·w − k·q exactly, so |r| < q
//! ```
//!
//! **Why it is exact.** For integers `|a| ≤ 2^50`, `0 ≤ w < q < 2^50`:
//! `h` is an integer (either `a·w` itself or a multiple of an ulp ≥ 1);
//! the roundings of `h` and of `1/q`, each of relative size `2^-53`, put
//! `h·RN(1/q)` within `2.01·2^-53·2^50 < 0.26` of `a·w/q`, and the one
//! rounding of the FMA — to an integer, since an ulp is 1 next to
//! `1.5·2^52` — adds at most `1/2`, so `|a·w − k·q| < 0.76·q`. `h − k·q` is then an integer of
//! magnitude `< q·(1 + 2^-3) < 2^53`, which the FMA returns unrounded, and
//! adding the integer `l` gives `r = a·w − k·q`, again below `2^53`. No step
//! approximates: `r` is a signed representative of `a·w mod q`.
//!
//! **Signed-lazy butterflies.** The forward transform keeps `r` as it comes
//! — no correction into `[0, q)` — and leaves the butterfly's `x ± r`
//! unreduced, so a lane grows by less than `q` per stage: after all
//! `log2 N` stages `|x| ≤ C + log2(N)·q` for inputs `|x| ≤ C`. Every
//! product input therefore stays inside `2^50` exactly when
//! `C + log2(N)·q ≤ 2^50`, which is the gate `simd::f64_ntt_ok` computes;
//! sums of `terms` MAC products stay exact integers while
//! `terms·q ≤ 2^52` (`simd::f64_mac_ok`). One reduction per output
//! coefficient ([`reduce_acc`], or the canonicalising exit of
//! [`forward_in_place`]) lands on the canonical residue, so results are
//! bit-identical to the integer kernels.
//!
//! The register-only helpers are safe `#[target_feature]` functions; the
//! functions that dereference pointers each check the slice lengths their
//! pointer arithmetic relies on.

use core::arch::x86_64::*;

use crate::mac::{LazyCoeff, RowPair};

/// `2^52` as an `f64` bit pattern: OR-ed onto an integer in `[0, 2^52)` it
/// is the double `2^52 + x`.
const MAGIC_UNSIGNED: i64 = 0x4330_0000_0000_0000;

/// `2^52 + 2^51` as an `f64` bit pattern: added to a two's-complement
/// integer in `[−2^51, 2^51)` it is the double `2^52 + 2^51 + x`.
const MAGIC_SIGNED: i64 = 0x4338_0000_0000_0000;

/// `1.5·2^52`: doubles in `[2^52, 2^53)` are the integers, so adding this
/// to `|t| < 2^51` rounds `t` to the nearest one.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// The modulus as the lanes need it.
#[derive(Clone, Copy)]
struct Lanes {
    q: __m256d,
    inv_q: __m256d,
}

impl Lanes {
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn new(q: u64) -> Self {
        Self {
            q: _mm256_set1_pd(q as f64),
            inv_q: _mm256_set1_pd(1.0 / q as f64),
        }
    }
}

/// Exact `u64 → f64` for lanes below `2^52`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn unsigned_to_f64(x: __m256i) -> __m256d {
    let magic = _mm256_set1_epi64x(MAGIC_UNSIGNED);
    _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(x, magic)),
        _mm256_castsi256_pd(magic),
    )
}

/// Exact `i64 → f64` for lanes in `[−2^51, 2^51)` — which covers a `u64`
/// lane below `2^51` read as signed, so one load serves signed digits and
/// unsigned residues alike.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn signed_to_f64(x: __m256i) -> __m256d {
    let magic = _mm256_set1_epi64x(MAGIC_SIGNED);
    _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(x, magic)),
        _mm256_castsi256_pd(magic),
    )
}

/// Exact `f64 → u64` for integer-valued lanes in `[0, 2^52)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn to_u64(x: __m256d) -> __m256i {
    let magic = _mm256_set1_epi64x(MAGIC_UNSIGNED);
    _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(x, _mm256_castsi256_pd(magic))),
        magic,
    )
}

/// `x − b` where `x ≥ b`, else `x`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn cond_sub(x: __m256d, b: __m256d) -> __m256d {
    let ge = _mm256_cmp_pd(x, b, _CMP_GE_OQ);
    _mm256_sub_pd(x, _mm256_and_pd(b, ge))
}

/// `x + b` where `x < 0`, else `x`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn cond_add_neg(x: __m256d, b: __m256d) -> __m256d {
    let lt = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
    _mm256_add_pd(x, _mm256_and_pd(b, lt))
}

/// `round(x/q)` for `|x/q| < 2^51`: the FMA adds `1.5·2^52` to the exact
/// `x·RN(1/q)`, where a double's ulp is 1, so its one rounding *is* the
/// rounding to the nearest integer; subtracting the constant is exact.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn round_scaled(x: __m256d, c: Lanes) -> __m256d {
    let shift = _mm256_set1_pd(ROUND_SHIFT);
    _mm256_sub_pd(_mm256_fmadd_pd(x, c.inv_q, shift), shift)
}

/// `a·w − round(a·w/q)·q`: a signed representative of `a·w mod q` with
/// `|r| < q`, exact for integer lanes `|a| ≤ 2^50`, `0 ≤ w < q < 2^50`
/// (module docs).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn mulmod_lazy(a: __m256d, w: __m256d, c: Lanes) -> __m256d {
    let h = _mm256_mul_pd(a, w);
    let l = _mm256_fmsub_pd(a, w, h);
    let k = round_scaled(h, c);
    _mm256_add_pd(_mm256_fnmadd_pd(k, c.q, h), l)
}

/// [`mulmod_lazy`] corrected into `[0, q)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn mulmod(a: __m256d, w: __m256d, c: Lanes) -> __m256d {
    cond_add_neg(mulmod_lazy(a, w, c), c.q)
}

/// The canonical residue in `[0, q)` of integer lanes `|x| < 2^52`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn canonical(x: __m256d, c: Lanes) -> __m256d {
    cond_add_neg(_mm256_fnmadd_pd(round_scaled(x, c), c.q, x), c.q)
}

/// One radix-4 pass: the stage with `m` butterfly groups and the stage with
/// `2m`, on each quadruple `(j, j+h, j+2h, j+3h)` between one load and one
/// store (`h = n/4m ≥ 4`). The first pass of a transform reads the integer
/// input at `src` instead of `dst`.
///
/// # Safety
///
/// `src` (when `FIRST`) and `dst` must be valid for `n` lanes, `tw` for
/// `4m`; they may alias lane for lane.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn radix4_pass<const FIRST: bool>(
    src: *const i64,
    dst: *mut f64,
    n: usize,
    m: usize,
    tw: *const f64,
    c: Lanes,
) {
    let h = n / (4 * m);
    for i in 0..m {
        let wa = _mm256_broadcast_sd(&*tw.add(m + i));
        let wb0 = _mm256_broadcast_sd(&*tw.add(2 * m + 2 * i));
        let wb1 = _mm256_broadcast_sd(&*tw.add(2 * m + 2 * i + 1));
        let base = 4 * i * h;
        let mut j = base;
        while j < base + h {
            let load = |at: usize| match FIRST {
                true => signed_to_f64(_mm256_loadu_si256(src.add(at) as *const __m256i)),
                false => _mm256_loadu_pd(dst.add(at)),
            };
            let (x0, x1, x2, x3) = (load(j), load(j + h), load(j + 2 * h), load(j + 3 * h));
            let v2 = mulmod_lazy(x2, wa, c);
            let v3 = mulmod_lazy(x3, wa, c);
            let (y0, y2) = (_mm256_add_pd(x0, v2), _mm256_sub_pd(x0, v2));
            let (y1, y3) = (_mm256_add_pd(x1, v3), _mm256_sub_pd(x1, v3));
            let u1 = mulmod_lazy(y1, wb0, c);
            let u3 = mulmod_lazy(y3, wb1, c);
            _mm256_storeu_pd(dst.add(j), _mm256_add_pd(y0, u1));
            _mm256_storeu_pd(dst.add(j + h), _mm256_sub_pd(y0, u1));
            _mm256_storeu_pd(dst.add(j + 2 * h), _mm256_add_pd(y2, u3));
            _mm256_storeu_pd(dst.add(j + 3 * h), _mm256_sub_pd(y2, u3));
            j += 4;
        }
    }
}

/// The last stages, fused in registers on blocks of eight lanes: `t = 2`
/// (128-bit halves regrouped into an all-`x` and an all-`y` vector) and
/// `t = 1` (`unpacklo`/`unpackhi`, whose group order is the twiddles'
/// storage order), preceded by the `t = 4` stage — a lane-wise butterfly of
/// the block's two vectors — when `log2 n` is odd. `CANON` reduces the
/// outputs to `[0, q)` and stores them as `u64`.
///
/// # Safety
///
/// `buf` must be valid for `n` lanes (`n` a multiple of 8) and `tw` for
/// `n`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn last_pass<const WITH_T4: bool, const CANON: bool>(
    buf: *mut f64,
    n: usize,
    tw: *const f64,
    c: Lanes,
) {
    for block in 0..n / 8 {
        let at = buf.add(8 * block);
        let mut v0 = _mm256_loadu_pd(at);
        let mut v1 = _mm256_loadu_pd(at.add(4));
        if WITH_T4 {
            let u = mulmod_lazy(v1, _mm256_broadcast_sd(&*tw.add(n / 8 + block)), c);
            (v0, v1) = (_mm256_add_pd(v0, u), _mm256_sub_pd(v0, u));
        }
        // t = 2: {x0 x1 | x4 x5} against {x2 x3 | x6 x7}, twiddles
        // {w0 w0 | w1 w1}.
        let x = _mm256_permute2f128_pd(v0, v1, 0x20);
        let y = _mm256_permute2f128_pd(v0, v1, 0x31);
        let w = _mm256_castpd128_pd256(_mm_loadu_pd(tw.add(n / 4 + 2 * block)));
        let u = mulmod_lazy(y, _mm256_permute4x64_pd(w, 0b0101_0000), c);
        let (lo, hi) = (_mm256_add_pd(x, u), _mm256_sub_pd(x, u));
        // t = 1: even lanes against odd lanes, groups in storage order.
        let x = _mm256_unpacklo_pd(lo, hi);
        let y = _mm256_unpackhi_pd(lo, hi);
        let u = mulmod_lazy(y, _mm256_loadu_pd(tw.add(n / 2 + 4 * block)), c);
        let (mut lo, mut hi) = (_mm256_add_pd(x, u), _mm256_sub_pd(x, u));
        if CANON {
            lo = _mm256_castsi256_pd(to_u64(canonical(lo, c)));
            hi = _mm256_castsi256_pd(to_u64(canonical(hi, c)));
        }
        let even = _mm256_unpacklo_pd(lo, hi);
        let odd = _mm256_unpackhi_pd(lo, hi);
        _mm256_storeu_pd(at, _mm256_permute2f128_pd(even, odd, 0x20));
        _mm256_storeu_pd(at.add(4), _mm256_permute2f128_pd(even, odd, 0x31));
    }
}

/// The whole transform: `⌊(log2 n − 2)/2⌋` radix-4 passes, then the fused
/// last pass.
///
/// # Safety
///
/// As [`radix4_pass`] and [`last_pass`] for a power-of-two `n ≥ 16` and
/// `tw` valid for `n` lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn forward<const CANON: bool>(
    src: *const i64,
    dst: *mut f64,
    n: usize,
    tw: *const f64,
    c: Lanes,
) {
    let log_n = n.trailing_zeros();
    radix4_pass::<true>(src, dst, n, 1, tw, c);
    let mut m = 4;
    for _ in 1..(log_n - 2) / 2 {
        radix4_pass::<false>(src, dst, n, m, tw, c);
        m *= 4;
    }
    if log_n % 2 == 1 {
        last_pass::<true, CANON>(dst, n, tw, c);
    } else {
        last_pass::<false, CANON>(dst, n, tw, c);
    }
}

fn assert_ring(n: usize, tw: &[f64]) {
    assert!(
        n.is_power_of_two() && n >= 16,
        "ring too small for f64 lanes"
    );
    assert_eq!(tw.len(), n, "twiddle table length mismatch");
}

/// Signed-lazy forward NTT of `input` into `out`, left in `f64`: lanes are
/// exact integers congruent to the transform, `|x| ≤ C + log2(n)·q` for
/// inputs `|x| ≤ C` (module docs). `T` is `i64` or `u64` (read as `i64`).
/// `tw` holds the bit-reversed twiddles in `[0, q)` as doubles.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn forward_into<T: LazyCoeff>(input: &[T], tw: &[f64], q: u64, out: &mut [f64]) {
    let n = input.len();
    assert_ring(n, tw);
    assert_eq!(out.len(), n, "length mismatch");
    let src = input.as_ptr() as *const i64;
    forward::<false>(src, out.as_mut_ptr(), n, tw.as_ptr(), Lanes::new(q));
}

/// Forward NTT in place on lazy residues in `[0, 4q)`, canonical on exit:
/// the same passes, the buffer holding doubles in between.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn forward_in_place(a: &mut [u64], tw: &[f64], q: u64) {
    let n = a.len();
    assert_ring(n, tw);
    let p = a.as_mut_ptr();
    forward::<true>(
        p as *const i64,
        p as *mut f64,
        n,
        tw.as_ptr(),
        Lanes::new(q),
    );
}

/// `acc[slot] += x ⊙ row` for both rows of all `K` pairs, as signed
/// `|r| < q` terms with no fix-up: each operand vector is loaded once and
/// each key vector converted once. `acc` is `acc.len() / x.len()` slots of
/// `x.len()` lanes.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn mac_rows<const K: usize>(
    x: &[f64],
    rows: [RowPair<'_>; K],
    q: u64,
    acc: &mut [f64],
) {
    let n = x.len();
    assert!(
        n >= 4 && n.is_multiple_of(4),
        "operand length must be a multiple of 4"
    );
    let flat = rows.as_flattened();
    for &(slot, row) in flat {
        assert_eq!(row.len(), n, "key row length mismatch");
        assert!(slot < acc.len() / n, "accumulator slot out of range");
    }
    let c = Lanes::new(q);
    let xp = x.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i < n {
        let xv = _mm256_loadu_pd(xp.add(i));
        for &(slot, row) in flat {
            let w = unsigned_to_f64(_mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i));
            let at = ap.add(slot * n + i);
            _mm256_storeu_pd(
                at,
                _mm256_add_pd(_mm256_loadu_pd(at), mulmod_lazy(xv, w, c)),
            );
        }
        i += 4;
    }
}

/// The one deferred reduction: integer-valued accumulators `|x| < 2^52` to
/// canonical residues.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) {
    let n = acc.len();
    assert_eq!(out.len(), n, "length mismatch");
    assert!(
        n.is_multiple_of(4),
        "accumulator length must be a multiple of 4"
    );
    let c = Lanes::new(q);
    let mut i = 0;
    while i < n {
        let r = to_u64(canonical(_mm256_loadu_pd(acc.as_ptr().add(i)), c));
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, r);
        i += 4;
    }
}

/// Inverse NTT over doubles, every lane fully reduced; the `n^{-1}` scaling
/// is folded into the final stage's twiddles (`w` lanes take `n^{-1}`, `z`
/// lanes take `s · n^{-1} mod q`), and the exit conversion is fused into
/// that stage's stores. Exact for `q < 2^48` (operands `< 2q`). 2.4–2.6×
/// the scalar lazy kernel.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn ntt_inverse(a: &mut [u64], ops: &[u64], q: u64, n_inv_op: u64) {
    let n = a.len();
    assert!(
        n.is_power_of_two() && n >= 8,
        "ring too small for f64 lanes"
    );
    assert_eq!(ops.len(), n, "twiddle table length mismatch");
    let p = a.as_mut_ptr();
    let pd = p as *mut f64;
    let op_p = ops.as_ptr();
    let c = Lanes::new(q);

    // Entry: exact conversion plus [0, 2q) -> [0, q) canonicalization.
    let mut j = 0;
    while j < n {
        let x = unsigned_to_f64(_mm256_loadu_si256(p.add(j) as *const __m256i));
        _mm256_storeu_pd(pd.add(j), cond_sub(x, c.q));
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
            let w = cond_sub(_mm256_add_pd(u, v), c.q);
            let z = mulmod(cond_add_neg(_mm256_sub_pd(u, v), c.q), wd, c);
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
            let w = cond_sub(_mm256_add_pd(u, v), c.q);
            let z = mulmod(cond_add_neg(_mm256_sub_pd(u, v), c.q), wd, c);
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
                let w = cond_sub(_mm256_add_pd(u, v), c.q);
                let z = mulmod(cond_add_neg(_mm256_sub_pd(u, v), c.q), wd, c);
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
            let w = mulmod(_mm256_add_pd(u, v), ni_d, c);
            let z = mulmod(cond_add_neg(_mm256_sub_pd(u, v), c.q), sni_d, c);
            _mm256_storeu_si256(p.add(j) as *mut __m256i, to_u64(w));
            _mm256_storeu_si256(p.add(j + t) as *mut __m256i, to_u64(z));
            j += 4;
        }
    }
}
