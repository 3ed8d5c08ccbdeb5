//! The lane type the kernels are written over, and its two widths:
//! AVX2 + FMA (4 lanes) and AVX-512F (8 lanes). Each method is one
//! instruction or a short fixed sequence; the forward transform's fused
//! last pass and the inverse's fused first pass are the only kernels that
//! differ by width.

use core::arch::x86_64::*;

use super::{canonical, mulmod_lazy, signed_residue, Consts};

/// `2^52` as an `f64` bit pattern: OR-ed onto an integer in `[0, 2^52)` it
/// is the double `2^52 + x`.
const MAGIC_UNSIGNED: i64 = 0x4330_0000_0000_0000;

/// `2^52 + 2^51` as an `f64` bit pattern: added to a two's-complement
/// integer in `[−2^51, 2^51)` it is the double `2^52 + 2^51 + x`.
const MAGIC_SIGNED: i64 = 0x4338_0000_0000_0000;

/// One vector of `f64` lanes and the instructions the kernels use on it.
pub(super) trait Lane: Copy {
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
    /// Exact `i32 → f64`.
    unsafe fn load_i32(p: *const i32) -> Self::V;
    /// Stores integer-valued lanes in `[−2^31, 2^31)` as `i32`.
    unsafe fn store_i32(p: *mut i32, v: Self::V);
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

    /// The inverse transform's first stages on every block, fused in
    /// registers — [`Self::LAST`] of them, or one more when `EXTRA` — as
    /// the mirror image of [`Self::last_pass`]. Reads residues in `[0, 2q)`
    /// from `src`, centres them to `|x| ≤ (q+1)/2` and leaves `f64` lanes
    /// in `buf`.
    ///
    /// `src` and `buf` must be valid for `n` lanes (they may alias lane for
    /// lane), `tw` for `n`.
    unsafe fn first_pass_inv<const EXTRA: bool>(
        src: *const u64,
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    );
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
pub(super) struct Avx2;

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
    unsafe fn load_i32(p: *const i32) -> __m256d {
        _mm256_cvtepi32_pd(_mm_loadu_si128(p as *const __m128i))
    }

    #[inline(always)]
    unsafe fn store_i32(p: *mut i32, v: __m256d) {
        _mm_storeu_si128(p as *mut __m128i, _mm256_cvtpd_epi32(v));
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

    /// Blocks of eight lanes, [`Self::last_pass`] run backwards: its
    /// regrouping undone on load, `t = 1` on `unpacklo`/`unpackhi` lanes,
    /// `t = 2` on 128-bit halves, then the lane-wise `t = 4` stage when
    /// `EXTRA`.
    #[inline(always)]
    unsafe fn first_pass_inv<const EXTRA: bool>(
        src: *const u64,
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        // Macros, not closures: a closure here would not inherit the
        // entry point's target features, and its intrinsics would not
        // inline.
        macro_rules! gs {
            ($x:expr, $y:expr, $w:expr) => {{
                let (x, y) = ($x, $y);
                (_mm256_add_pd(x, y), mulmod_lazy(_mm256_sub_pd(x, y), $w, c))
            }};
        }
        for block in 0..n / 8 {
            let at = buf.add(8 * block);
            let from = src.add(8 * block) as *const i64;
            let v0 = signed_residue(Self::load_i64(from), c);
            let v1 = signed_residue(Self::load_i64(from.add(4)), c);
            // t = 1: {c0 c2 c4 c6} against {c1 c3 c5 c7}, groups in storage
            // order.
            let even = _mm256_permute2f128_pd(v0, v1, 0x20);
            let odd = _mm256_permute2f128_pd(v0, v1, 0x31);
            let w = _mm256_loadu_pd(tw.add(n / 2 + 4 * block));
            let (x, y) = gs!(
                _mm256_unpacklo_pd(even, odd),
                _mm256_unpackhi_pd(even, odd),
                w
            );
            // t = 2: {c0 c1 | c4 c5} against {c2 c3 | c6 c7}, twiddles
            // {w0 w0 | w1 w1}.
            let w = _mm256_castpd128_pd256(_mm_loadu_pd(tw.add(n / 4 + 2 * block)));
            let w = _mm256_permute4x64_pd(w, 0b0101_0000);
            let (x, y) = gs!(_mm256_unpacklo_pd(x, y), _mm256_unpackhi_pd(x, y), w);
            let mut v0 = _mm256_permute2f128_pd(x, y, 0x20);
            let mut v1 = _mm256_permute2f128_pd(x, y, 0x31);
            if EXTRA {
                (v0, v1) = gs!(v0, v1, _mm256_set1_pd(*tw.add(n / 8 + block)));
            }
            _mm256_storeu_pd(at, v0);
            _mm256_storeu_pd(at.add(4), v1);
        }
    }
}

/// AVX-512F: eight lanes.
#[derive(Clone, Copy)]
pub(super) struct Avx512;

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
    unsafe fn load_i32(p: *const i32) -> __m512d {
        _mm512_cvtepi32_pd(_mm256_loadu_si256(p as *const __m256i))
    }

    #[inline(always)]
    unsafe fn store_i32(p: *mut i32, v: __m512d) {
        _mm256_storeu_si256(p as *mut __m256i, _mm512_cvtpd_epi32(v));
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

    /// Blocks of sixteen lanes, [`Self::last_pass`] run backwards: `t = 1`
    /// on the even and odd lanes gathered by `permutex2var` (twiddle pairs
    /// in the order 0, 2, 1, 3), `t = 2` on `unpacklo`/`unpackhi` (groups
    /// 0, 2, 1, 3), `t = 4` on 256-bit halves gathered by `permutex2var`,
    /// then the lane-wise `t = 8` stage when `EXTRA`.
    #[inline(always)]
    unsafe fn first_pass_inv<const EXTRA: bool>(
        src: *const u64,
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        // `_mm512_set_epi64` lists lanes from the highest down.
        let t4_twiddles = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
        let t2_twiddles = _mm512_set_epi64(3, 3, 1, 1, 2, 2, 0, 0);
        let evens = _mm512_set_epi64(14, 12, 6, 4, 10, 8, 2, 0);
        let odds = _mm512_set_epi64(15, 13, 7, 5, 11, 9, 3, 1);
        let low_quads = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
        let high_quads = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
        macro_rules! gs {
            ($x:expr, $y:expr, $w:expr) => {{
                let (x, y) = ($x, $y);
                (_mm512_add_pd(x, y), mulmod_lazy(_mm512_sub_pd(x, y), $w, c))
            }};
        }
        for block in 0..n / 16 {
            let at = buf.add(16 * block);
            let from = src.add(16 * block) as *const i64;
            let v0 = signed_residue(Self::load_i64(from), c);
            let v1 = signed_residue(Self::load_i64(from.add(8)), c);
            // t = 1: {c0 c2 c8 c10 c4 c6 c12 c14} against the odd lanes.
            let w = _mm512_loadu_pd(tw.add(n / 2 + 8 * block));
            let x = _mm512_permutex2var_pd(v0, evens, v1);
            let y = _mm512_permutex2var_pd(v0, odds, v1);
            let (x, y) = gs!(x, y, _mm512_shuffle_f64x2(w, w, 0xD8));
            // t = 2: {c0 c1 c8 c9 c4 c5 c12 c13} against {c2 c3 c10 c11 c6
            // c7 c14 c15}.
            let w = _mm512_castpd256_pd512(_mm256_loadu_pd(tw.add(n / 4 + 4 * block)));
            let w = _mm512_permutexvar_pd(t2_twiddles, w);
            let (x, y) = gs!(_mm512_unpacklo_pd(x, y), _mm512_unpackhi_pd(x, y), w);
            // t = 4: {c0..c3 | c8..c11} against {c4..c7 | c12..c15}.
            let w = _mm512_castpd128_pd512(_mm_loadu_pd(tw.add(n / 8 + 2 * block)));
            let w = _mm512_permutexvar_pd(t4_twiddles, w);
            let lo = _mm512_permutex2var_pd(x, low_quads, y);
            let hi = _mm512_permutex2var_pd(x, high_quads, y);
            let (x, y) = gs!(lo, hi, w);
            let mut v0 = _mm512_shuffle_f64x2(x, y, 0x44);
            let mut v1 = _mm512_shuffle_f64x2(x, y, 0xEE);
            if EXTRA {
                (v0, v1) = gs!(v0, v1, _mm512_set1_pd(*tw.add(n / 16 + block)));
            }
            _mm512_storeu_pd(at, v0);
            _mm512_storeu_pd(at.add(8), v1);
        }
    }
}
