//! Kernels on `f64` lanes, written once over a private lane type and
//! instantiated at two widths: AVX2 + FMA (4 lanes) and AVX-512F (8 lanes).
//! They cover the signed-lazy radix-4 forward NTT, the MAC it feeds, the
//! accumulator reduction and the CMux fold; the inverse NTT has one AVX2
//! body, which both tiers run.
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
//! coefficient ([`reduce_acc`], [`fold_acc`], or the canonicalising exit of
//! [`forward_in_place`]) lands on the canonical residue, so results are
//! bit-identical to the integer kernels. The fold multiplies a sum by a
//! factor, so it needs the sum inside the product bound: `terms·q ≤ 2^50`.
//!
//! **Two widths, one body.** The lane type's methods are `#[inline(always)]`
//! and carry no target features of their own; the generic kernels are
//! inlined into one `#[target_feature]` entry point per tier (the `tier!`
//! modules), so every intrinsic compiles under that tier's features. Only
//! the fused last pass of the forward transform differs by width: 4 lanes
//! fuse its last two or three stages on blocks of 8 coefficients, 8 lanes
//! its last three or four on blocks of 16, so the radix-4 passes run while
//! their quarter distance is at least one vector.
//!
//! Every function here is `unsafe` because it executes its tier's
//! instructions; the ones that dereference pointers each check the slice
//! lengths their pointer arithmetic relies on.

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

/// One vector of `f64` lanes and the instructions the kernels use on it.
trait Lane: Copy {
    type V: Copy;
    /// Lanes per vector.
    const W: usize;
    /// Stages the fused last pass always covers; it takes one more when
    /// the other stages do not pair up into radix-4 passes.
    const LAST: u32;

    unsafe fn splat(x: f64) -> Self::V;
    unsafe fn load(p: *const f64) -> Self::V;
    unsafe fn store(p: *mut f64, v: Self::V);
    /// Exact `i64 → f64` for lanes in `[−2^51, 2^51)` — which covers a
    /// `u64` lane below `2^51` read as signed, so one load serves signed
    /// digits and unsigned residues alike.
    unsafe fn load_i64(p: *const i64) -> Self::V;
    /// Exact `u64 → f64` for lanes below `2^52`.
    unsafe fn load_u64(p: *const u64) -> Self::V;
    /// Exact `f64 → u64` for integer-valued lanes in `[0, 2^52)`, as bits.
    unsafe fn to_u64(v: Self::V) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c`, `a·b − c` and `c − a·b`, each rounded once.
    unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    unsafe fn fmsub(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    unsafe fn fnmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `x + b` where `x < 0`, else `x`.
    unsafe fn add_if_neg(x: Self::V, b: Self::V) -> Self::V;

    /// The forward transform's last stages on every block, fused in
    /// registers: [`Self::LAST`] of them, or one more when `EXTRA`.
    /// `CANON` reduces the outputs to `[0, q)` and stores them as `u64`.
    ///
    /// `buf` must be valid for `n` lanes and `tw` for `n`.
    unsafe fn last_pass<const EXTRA: bool, const CANON: bool>(
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    );
}

/// The modulus as the lanes need it.
#[derive(Clone, Copy)]
struct Consts<L: Lane> {
    q: L::V,
    inv_q: L::V,
}

impl<L: Lane> Consts<L> {
    #[inline(always)]
    unsafe fn new(q: u64) -> Self {
        Self {
            q: L::splat(q as f64),
            inv_q: L::splat(1.0 / q as f64),
        }
    }
}

/// `round(x/q)` for `|x/q| < 2^51`: the FMA adds `1.5·2^52` to the exact
/// `x·RN(1/q)`, where a double's ulp is 1, so its one rounding *is* the
/// rounding to the nearest integer; subtracting the constant is exact.
#[inline(always)]
unsafe fn round_scaled<L: Lane>(x: L::V, c: Consts<L>) -> L::V {
    let shift = L::splat(ROUND_SHIFT);
    L::sub(L::fmadd(x, c.inv_q, shift), shift)
}

/// `a·w − round(a·w/q)·q`: a signed representative of `a·w mod q` with
/// `|r| < q`, exact for integer lanes `|a| ≤ 2^50`, `0 ≤ w < q < 2^50`
/// (module docs).
#[inline(always)]
unsafe fn mulmod_lazy<L: Lane>(a: L::V, w: L::V, c: Consts<L>) -> L::V {
    let h = L::mul(a, w);
    let l = L::fmsub(a, w, h);
    let k = round_scaled(h, c);
    L::add(L::fnmadd(k, c.q, h), l)
}

/// [`mulmod_lazy`] corrected into `[0, q)`.
#[inline(always)]
unsafe fn mulmod<L: Lane>(a: L::V, w: L::V, c: Consts<L>) -> L::V {
    L::add_if_neg(mulmod_lazy(a, w, c), c.q)
}

/// The canonical residue in `[0, q)` of integer lanes `|x| < 2^52`.
#[inline(always)]
unsafe fn canonical<L: Lane>(x: L::V, c: Consts<L>) -> L::V {
    L::add_if_neg(L::fnmadd(round_scaled(x, c), c.q, x), c.q)
}

/// The lanes at `at`: integers from `src` in a transform's first pass,
/// doubles from `dst` after it.
#[inline(always)]
unsafe fn load_at<L: Lane, const FIRST: bool>(src: *const i64, dst: *mut f64, at: usize) -> L::V {
    match FIRST {
        true => L::load_i64(src.add(at)),
        false => L::load(dst.add(at)),
    }
}

/// One radix-4 pass: the stage with `m` butterfly groups and the stage with
/// `2m`, on each quadruple `(j, j+h, j+2h, j+3h)` between one load and one
/// store (`h = n/4m`, at least one vector). The first pass of a transform
/// reads the integer input at `src` instead of `dst`.
///
/// `src` (when `FIRST`) and `dst` must be valid for `n` lanes, `tw` for
/// `4m`; they may alias lane for lane.
#[inline(always)]
unsafe fn radix4_pass<L: Lane, const FIRST: bool>(
    src: *const i64,
    dst: *mut f64,
    n: usize,
    m: usize,
    tw: *const f64,
    c: Consts<L>,
) {
    let h = n / (4 * m);
    for i in 0..m {
        let wa = L::splat(*tw.add(m + i));
        let wb0 = L::splat(*tw.add(2 * m + 2 * i));
        let wb1 = L::splat(*tw.add(2 * m + 2 * i + 1));
        let base = 4 * i * h;
        let mut j = base;
        while j < base + h {
            let x0 = load_at::<L, FIRST>(src, dst, j);
            let x1 = load_at::<L, FIRST>(src, dst, j + h);
            let x2 = load_at::<L, FIRST>(src, dst, j + 2 * h);
            let x3 = load_at::<L, FIRST>(src, dst, j + 3 * h);
            let v2 = mulmod_lazy(x2, wa, c);
            let v3 = mulmod_lazy(x3, wa, c);
            let (y0, y2) = (L::add(x0, v2), L::sub(x0, v2));
            let (y1, y3) = (L::add(x1, v3), L::sub(x1, v3));
            let u1 = mulmod_lazy(y1, wb0, c);
            let u3 = mulmod_lazy(y3, wb1, c);
            L::store(dst.add(j), L::add(y0, u1));
            L::store(dst.add(j + h), L::sub(y0, u1));
            L::store(dst.add(j + 2 * h), L::add(y2, u3));
            L::store(dst.add(j + 3 * h), L::sub(y2, u3));
            j += L::W;
        }
    }
}

/// The whole transform: `⌊(log2 n − LAST)/2⌋` radix-4 passes, then the
/// fused last pass. With no radix-4 pass (`n = 16` at 8 lanes) the input is
/// converted to doubles first.
///
/// `src` and `dst` must be valid for a power-of-two `n ≥ 16` lanes (they
/// may alias lane for lane), `tw` for `n`.
#[inline(always)]
unsafe fn forward<L: Lane, const CANON: bool>(
    src: *const i64,
    dst: *mut f64,
    n: usize,
    tw: *const f64,
    c: Consts<L>,
) {
    let stages = n.trailing_zeros() - L::LAST;
    if stages < 2 {
        for j in (0..n).step_by(L::W) {
            L::store(dst.add(j), L::load_i64(src.add(j)));
        }
    }
    let mut m = 1;
    for pass in 0..stages / 2 {
        match pass {
            0 => radix4_pass::<L, true>(src, dst, n, m, tw, c),
            _ => radix4_pass::<L, false>(src, dst, n, m, tw, c),
        }
        m *= 4;
    }
    match stages % 2 {
        1 => L::last_pass::<true, CANON>(dst, n, tw, c),
        _ => L::last_pass::<false, CANON>(dst, n, tw, c),
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
#[inline(always)]
unsafe fn forward_into<L: Lane, T: LazyCoeff>(input: &[T], tw: &[f64], q: u64, out: &mut [f64]) {
    let n = input.len();
    assert_ring(n, tw);
    assert_eq!(out.len(), n, "length mismatch");
    let src = input.as_ptr() as *const i64;
    forward::<L, false>(src, out.as_mut_ptr(), n, tw.as_ptr(), Consts::new(q));
}

/// Forward NTT in place on lazy residues in `[0, 4q)`, canonical on exit:
/// the same passes, the buffer holding doubles in between.
#[inline(always)]
unsafe fn forward_in_place<L: Lane>(a: &mut [u64], tw: &[f64], q: u64) {
    let n = a.len();
    assert_ring(n, tw);
    let p = a.as_mut_ptr();
    forward::<L, true>(
        p as *const i64,
        p as *mut f64,
        n,
        tw.as_ptr(),
        Consts::new(q),
    );
}

/// `acc[slot] += x ⊙ row` for both rows of all `K` pairs, as signed
/// `|r| < q` terms with no fix-up: each operand vector is loaded once and
/// each key vector converted once. `acc` is `acc.len() / x.len()` slots of
/// `x.len()` lanes.
#[inline(always)]
unsafe fn mac_rows<L: Lane, const K: usize>(
    x: &[f64],
    rows: [RowPair<'_>; K],
    q: u64,
    acc: &mut [f64],
) {
    let n = x.len();
    assert!(
        n >= L::W && n.is_multiple_of(L::W),
        "operand length must be a multiple of the lane count"
    );
    let flat = rows.as_flattened();
    for &(slot, row) in flat {
        assert_eq!(row.len(), n, "key row length mismatch");
        assert!(slot < acc.len() / n, "accumulator slot out of range");
    }
    let c = Consts::<L>::new(q);
    let xp = x.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i < n {
        let xv = L::load(xp.add(i));
        for &(slot, row) in flat {
            let w = L::load_u64(row.as_ptr().add(i));
            let at = ap.add(slot * n + i);
            L::store(at, L::add(L::load(at), mulmod_lazy(xv, w, c)));
        }
        i += L::W;
    }
}

/// The one deferred reduction: integer-valued accumulators `|x| < 2^52` to
/// canonical residues.
#[inline(always)]
unsafe fn reduce_acc<L: Lane>(acc: &[f64], q: u64, out: &mut [u64]) {
    let n = acc.len();
    assert_eq!(out.len(), n, "length mismatch");
    assert!(
        n.is_multiple_of(L::W),
        "accumulator length must be a multiple of the lane count"
    );
    let c = Consts::<L>::new(q);
    let mut i = 0;
    while i < n {
        let r = L::to_u64(canonical(L::load(acc.as_ptr().add(i)), c));
        L::store(out.as_mut_ptr().add(i) as *mut f64, r);
        i += L::W;
    }
}

/// The CMux fold, `acc ← canonical(acc + S⁺·f⁺ + S⁻·f⁻)`: the sums `S±` are
/// integer-valued `|S| ≤ 2^50`, the factors `f±` and `acc` canonical
/// residues, so both products are exact signed terms below `q` and the sum
/// of three stays below `2^52`.
#[inline(always)]
unsafe fn fold_acc<L: Lane>(sums: [&[f64]; 2], factors: [&[u64]; 2], q: u64, acc: &mut [u64]) {
    let n = acc.len();
    assert!(
        sums.iter().all(|s| s.len() == n) && factors.iter().all(|f| f.len() == n),
        "length mismatch"
    );
    assert!(
        n.is_multiple_of(L::W),
        "accumulator length must be a multiple of the lane count"
    );
    let c = Consts::<L>::new(q);
    let [s0, s1] = sums.map(<[f64]>::as_ptr);
    let [f0, f1] = factors.map(<[u64]>::as_ptr);
    let mut i = 0;
    while i < n {
        let at = acc.as_mut_ptr().add(i);
        let p = mulmod_lazy(L::load(s0.add(i)), L::load_u64(f0.add(i)), c);
        let m = mulmod_lazy(L::load(s1.add(i)), L::load_u64(f1.add(i)), c);
        let x = L::add(L::add(L::load_u64(at), p), m);
        L::store(at as *mut f64, L::to_u64(canonical(x, c)));
        i += L::W;
    }
}

/// The lane methods that are one intrinsic each.
macro_rules! lane_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $intrinsic:ident;)*) => {
        $(
            #[inline(always)]
            unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                $intrinsic($($arg),*)
            }
        )*
    };
}

/// AVX2 + FMA: four lanes.
#[derive(Clone, Copy)]
struct Avx2;

impl Lane for Avx2 {
    type V = __m256d;
    const W: usize = 4;
    const LAST: u32 = 2;

    lane_ops! {
        splat(x: f64) -> __m256d = _mm256_set1_pd;
        load(p: *const f64) -> __m256d = _mm256_loadu_pd;
        store(p: *mut f64, v: __m256d) = _mm256_storeu_pd;
        add(a: __m256d, b: __m256d) -> __m256d = _mm256_add_pd;
        sub(a: __m256d, b: __m256d) -> __m256d = _mm256_sub_pd;
        mul(a: __m256d, b: __m256d) -> __m256d = _mm256_mul_pd;
        fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fmadd_pd;
        fmsub(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fmsub_pd;
        fnmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fnmadd_pd;
    }

    #[inline(always)]
    unsafe fn load_i64(p: *const i64) -> __m256d {
        let magic = _mm256_set1_epi64x(MAGIC_SIGNED);
        let x = _mm256_loadu_si256(p as *const __m256i);
        _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_add_epi64(x, magic)),
            _mm256_castsi256_pd(magic),
        )
    }

    #[inline(always)]
    unsafe fn load_u64(p: *const u64) -> __m256d {
        let magic = _mm256_set1_epi64x(MAGIC_UNSIGNED);
        let x = _mm256_loadu_si256(p as *const __m256i);
        _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(x, magic)),
            _mm256_castsi256_pd(magic),
        )
    }

    #[inline(always)]
    unsafe fn to_u64(v: __m256d) -> __m256d {
        let magic = _mm256_set1_epi64x(MAGIC_UNSIGNED);
        let shifted = _mm256_castpd_si256(_mm256_add_pd(v, _mm256_castsi256_pd(magic)));
        _mm256_castsi256_pd(_mm256_sub_epi64(shifted, magic))
    }

    #[inline(always)]
    unsafe fn add_if_neg(x: __m256d, b: __m256d) -> __m256d {
        let lt = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
        _mm256_add_pd(x, _mm256_and_pd(b, lt))
    }

    /// Blocks of eight lanes: `t = 2` (128-bit halves regrouped into an
    /// all-`x` and an all-`y` vector) and `t = 1` (`unpacklo`/`unpackhi`,
    /// whose group order is the twiddles' storage order), preceded by the
    /// `t = 4` stage — a lane-wise butterfly of the block's two vectors —
    /// when `EXTRA`.
    #[inline(always)]
    unsafe fn last_pass<const EXTRA: bool, const CANON: bool>(
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        for block in 0..n / 8 {
            let at = buf.add(8 * block);
            let mut v0 = _mm256_loadu_pd(at);
            let mut v1 = _mm256_loadu_pd(at.add(4));
            if EXTRA {
                let u = mulmod_lazy(v1, _mm256_set1_pd(*tw.add(n / 8 + block)), c);
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
                lo = Self::to_u64(canonical(lo, c));
                hi = Self::to_u64(canonical(hi, c));
            }
            let even = _mm256_unpacklo_pd(lo, hi);
            let odd = _mm256_unpackhi_pd(lo, hi);
            _mm256_storeu_pd(at, _mm256_permute2f128_pd(even, odd, 0x20));
            _mm256_storeu_pd(at.add(4), _mm256_permute2f128_pd(even, odd, 0x31));
        }
    }
}

/// AVX-512F: eight lanes.
#[derive(Clone, Copy)]
struct Avx512;

impl Lane for Avx512 {
    type V = __m512d;
    const W: usize = 8;
    const LAST: u32 = 3;

    lane_ops! {
        splat(x: f64) -> __m512d = _mm512_set1_pd;
        load(p: *const f64) -> __m512d = _mm512_loadu_pd;
        store(p: *mut f64, v: __m512d) = _mm512_storeu_pd;
        add(a: __m512d, b: __m512d) -> __m512d = _mm512_add_pd;
        sub(a: __m512d, b: __m512d) -> __m512d = _mm512_sub_pd;
        mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd;
        fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmadd_pd;
        fmsub(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmsub_pd;
        fnmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fnmadd_pd;
    }

    #[inline(always)]
    unsafe fn load_i64(p: *const i64) -> __m512d {
        let magic = _mm512_set1_epi64(MAGIC_SIGNED);
        let x = _mm512_loadu_epi64(p);
        _mm512_sub_pd(
            _mm512_castsi512_pd(_mm512_add_epi64(x, magic)),
            _mm512_castsi512_pd(magic),
        )
    }

    #[inline(always)]
    unsafe fn load_u64(p: *const u64) -> __m512d {
        let magic = _mm512_set1_epi64(MAGIC_UNSIGNED);
        let x = _mm512_loadu_epi64(p as *const i64);
        _mm512_sub_pd(
            _mm512_castsi512_pd(_mm512_or_si512(x, magic)),
            _mm512_castsi512_pd(magic),
        )
    }

    #[inline(always)]
    unsafe fn to_u64(v: __m512d) -> __m512d {
        let magic = _mm512_set1_epi64(MAGIC_UNSIGNED);
        let shifted = _mm512_castpd_si512(_mm512_add_pd(v, _mm512_castsi512_pd(magic)));
        _mm512_castsi512_pd(_mm512_sub_epi64(shifted, magic))
    }

    #[inline(always)]
    unsafe fn add_if_neg(x: __m512d, b: __m512d) -> __m512d {
        let lt = _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LT_OQ);
        _mm512_mask_add_pd(x, lt, x, b)
    }

    /// Blocks of sixteen lanes `c0..c15` in two vectors: the `t = 8` stage
    /// (a lane-wise butterfly of the two vectors) when `EXTRA`, then `t = 4`
    /// and `t = 2` on 256- and 128-bit halves regrouped by `shuffle_f64x2`,
    /// and `t = 1` on `unpacklo`/`unpackhi`. Each regrouping permutes the
    /// butterfly groups, so each stage's twiddles are permuted to match,
    /// and two `permutex2var` put the coefficients back in order.
    #[inline(always)]
    unsafe fn last_pass<const EXTRA: bool, const CANON: bool>(
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        // `_mm512_set_epi64` lists lanes from the highest down.
        let t4_twiddles = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
        let t2_twiddles = _mm512_set_epi64(3, 3, 1, 1, 2, 2, 0, 0);
        let first_half = _mm512_set_epi64(13, 5, 12, 4, 9, 1, 8, 0);
        let second_half = _mm512_set_epi64(15, 7, 14, 6, 11, 3, 10, 2);
        for block in 0..n / 16 {
            let at = buf.add(16 * block);
            let mut v0 = _mm512_loadu_pd(at);
            let mut v1 = _mm512_loadu_pd(at.add(8));
            if EXTRA {
                let u = mulmod_lazy(v1, _mm512_set1_pd(*tw.add(n / 16 + block)), c);
                (v0, v1) = (_mm512_add_pd(v0, u), _mm512_sub_pd(v0, u));
            }
            // t = 4: {c0..c3 | c8..c11} against {c4..c7 | c12..c15},
            // twiddles {w0 ×4 | w1 ×4}.
            let x = _mm512_shuffle_f64x2(v0, v1, 0x44);
            let y = _mm512_shuffle_f64x2(v0, v1, 0xEE);
            let w = _mm512_castpd128_pd512(_mm_loadu_pd(tw.add(n / 8 + 2 * block)));
            let u = mulmod_lazy(y, _mm512_permutexvar_pd(t4_twiddles, w), c);
            let (lo, hi) = (_mm512_add_pd(x, u), _mm512_sub_pd(x, u));
            // t = 2: {c0 c1 c8 c9 c4 c5 c12 c13} against {c2 c3 c10 c11 c6
            // c7 c14 c15}: groups 0, 2, 1, 3.
            let x = _mm512_shuffle_f64x2(lo, hi, 0x88);
            let y = _mm512_shuffle_f64x2(lo, hi, 0xDD);
            let w = _mm512_castpd256_pd512(_mm256_loadu_pd(tw.add(n / 4 + 4 * block)));
            let u = mulmod_lazy(y, _mm512_permutexvar_pd(t2_twiddles, w), c);
            let (lo, hi) = (_mm512_add_pd(x, u), _mm512_sub_pd(x, u));
            // t = 1: {c0 c2 c8 c10 c4 c6 c12 c14} against the odd lanes:
            // groups 0, 1, 4, 5, 2, 3, 6, 7 — the twiddles' 128-bit pairs
            // in the order 0, 2, 1, 3.
            let x = _mm512_unpacklo_pd(lo, hi);
            let y = _mm512_unpackhi_pd(lo, hi);
            let w = _mm512_loadu_pd(tw.add(n / 2 + 8 * block));
            let u = mulmod_lazy(y, _mm512_shuffle_f64x2(w, w, 0xD8), c);
            let (mut lo, mut hi) = (_mm512_add_pd(x, u), _mm512_sub_pd(x, u));
            if CANON {
                lo = Self::to_u64(canonical(lo, c));
                hi = Self::to_u64(canonical(hi, c));
            }
            _mm512_storeu_pd(at, _mm512_permutex2var_pd(lo, first_half, hi));
            _mm512_storeu_pd(at.add(8), _mm512_permutex2var_pd(lo, second_half, hi));
        }
    }
}

/// One `#[target_feature]` entry point per kernel for a tier: the generic
/// bodies above, compiled under that tier's features.
macro_rules! tier {
    ($(#[$doc:meta])* $name:ident: $lane:ty, $features:literal) => {
        $(#[$doc])*
        pub(in crate::simd) mod $name {
            use super::*;

            /// Loads `digit` into lanes, transforms it into `operand`
            /// (signed-lazy, left in `f64`) and adds its product with every
            /// key row into that row's slot of `acc`.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn mac_digit<T: LazyCoeff, const K: usize>(
                digit: &[T],
                tw: &[f64],
                q: u64,
                operand: &mut [f64],
                rows: [RowPair<'_>; K],
                acc: &mut [f64],
            ) {
                forward_into::<$lane, T>(digit, tw, q, operand);
                mac_rows::<$lane, K>(operand, rows, q, acc);
            }

            /// [`forward_in_place`](super::forward_in_place) at this width.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn forward_in_place(a: &mut [u64], tw: &[f64], q: u64) {
                super::forward_in_place::<$lane>(a, tw, q);
            }

            /// [`reduce_acc`](super::reduce_acc) at this width.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) {
                super::reduce_acc::<$lane>(acc, q, out);
            }

            /// [`fold_acc`](super::fold_acc) at this width.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn fold_acc(
                sums: [&[f64]; 2],
                factors: [&[u64]; 2],
                q: u64,
                acc: &mut [u64],
            ) {
                super::fold_acc::<$lane>(sums, factors, q, acc);
            }
        }
    };
}

tier!(
    /// The 4-lane tier: AVX2 + FMA.
    avx2: Avx2, "avx2,fma"
);
tier!(
    /// The 8-lane tier: AVX-512F (with AVX2 + FMA, which the inverse
    /// transform and the integer lanes use).
    avx512: Avx512, "avx512f,avx2,fma"
);

/// Inverse NTT over doubles, every lane fully reduced; the `n^{-1}` scaling
/// is folded into the final stage's twiddles (`w` lanes take `n^{-1}`, `z`
/// lanes take `s · n^{-1} mod q`), and the exit conversion is fused into
/// that stage's stores. Exact for `q < 2^48` (operands `< 2q`). 2.4–2.6×
/// the scalar lazy kernel; both tiers run this 4-lane body.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
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
    let c = Consts::<Avx2>::new(q);
    let sub_if_ge = |x: __m256d, b: __m256d| {
        let ge = _mm256_cmp_pd(x, b, _CMP_GE_OQ);
        _mm256_sub_pd(x, _mm256_and_pd(b, ge))
    };
    let butterfly = |u: __m256d, v: __m256d, wd: __m256d| {
        let w = sub_if_ge(_mm256_add_pd(u, v), c.q);
        let z = mulmod(Avx2::add_if_neg(_mm256_sub_pd(u, v), c.q), wd, c);
        (w, z)
    };

    // Entry: exact conversion plus [0, 2q) -> [0, q) canonicalization.
    let mut j = 0;
    while j < n {
        _mm256_storeu_pd(pd.add(j), sub_if_ge(Avx2::load_u64(p.add(j)), c.q));
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
            let (w, z) = butterfly(u, v, wd);
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
            let (w, z) = butterfly(u, v, _mm256_set_pd(w1, w1, w0, w0));
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
                let (w, z) = butterfly(
                    _mm256_loadu_pd(pd.add(j)),
                    _mm256_loadu_pd(pd.add(j + t)),
                    wd,
                );
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
            let z = mulmod(Avx2::add_if_neg(_mm256_sub_pd(u, v), c.q), sni_d, c);
            _mm256_storeu_pd(pd.add(j), Avx2::to_u64(w));
            _mm256_storeu_pd(pd.add(j + t), Avx2::to_u64(z));
            j += 4;
        }
    }
}
