//! The lane type the kernels are written over, and its three widths: one
//! lane in portable Rust, AVX2 + FMA (4 lanes) and AVX-512F (8 lanes).
//! Each method is one instruction or a short fixed sequence; the forward
//! transform's fused last pass and the inverse's fused first pass are the
//! only kernels that differ by width.

use super::{canonical, mulmod_lazy, signed_residue, Consts};

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

/// The lane methods that are one expression each.
macro_rules! lane_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:expr;)*) => {
        $(
            #[inline(always)]
            unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                $body
            }
        )*
    };
}

#[cfg(target_arch = "x86_64")]
mod x86;
#[cfg(target_arch = "x86_64")]
pub(super) use x86::{Avx2, Avx512};

/// One lane in portable Rust: what `HEAP_SIMD=scalar` and every host
/// without an x86 vector tier run. `f64::mul_add` rounds once whether or
/// not the CPU has an FMA instruction, so every step of the module docs'
/// exactness argument holds lane for lane, and the outputs are the vector
/// tiers' bit for bit.
#[derive(Clone, Copy)]
pub(super) struct Portable;

impl Lane for Portable {
    type V = f64;
    const W: usize = 1;
    const LAST: u32 = 0;

    lane_ops! {
        splat(x: f64) -> f64 = x;
        load(p: *const f64) -> f64 = *p;
        store(p: *mut f64, v: f64) = *p = v;
        load_i64(p: *const i64) -> f64 = *p as f64;
        load_i32(p: *const i32) -> f64 = f64::from(*p);
        store_i32(p: *mut i32, v: f64) = *p = v as i32;
        to_u64(v: f64) -> f64 = f64::from_bits(v as u64);
        add(a: f64, b: f64) -> f64 = a + b;
        sub(a: f64, b: f64) -> f64 = a - b;
        mul(a: f64, b: f64) -> f64 = a * b;
        fmadd(a: f64, b: f64, c: f64) -> f64 = a.mul_add(b, c);
        fmsub(a: f64, b: f64, c: f64) -> f64 = a.mul_add(b, -c);
        fnmadd(a: f64, b: f64, c: f64) -> f64 = (-a).mul_add(b, c);
        add_if_neg(x: f64, b: f64) -> f64 = if x < 0.0 { x + b } else { x };
    }

    /// Pairs of lanes: the `t = 1` stage when `EXTRA`, the radix-4 passes
    /// having covered every other one.
    #[inline(always)]
    unsafe fn last_pass<const EXTRA: bool, const CANON: bool>(
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        for pair in 0..n / 2 {
            let at = buf.add(2 * pair);
            let (mut x, mut y) = (*at, *at.add(1));
            if EXTRA {
                let u = mulmod_lazy(y, *tw.add(n / 2 + pair), c);
                (x, y) = (x + u, x - u);
            }
            if CANON {
                x = Self::to_u64(canonical(x, c));
                y = Self::to_u64(canonical(y, c));
            }
            (*at, *at.add(1)) = (x, y);
        }
    }

    /// Pairs of lanes, centred on load, then the `t = 1` stage when
    /// `EXTRA`.
    #[inline(always)]
    unsafe fn first_pass_inv<const EXTRA: bool>(
        src: *const u64,
        buf: *mut f64,
        n: usize,
        tw: *const f64,
        c: Consts<Self>,
    ) {
        for pair in 0..n / 2 {
            let from = src.add(2 * pair) as *const i64;
            let x = signed_residue(Self::load_i64(from), c);
            let y = signed_residue(Self::load_i64(from.add(1)), c);
            let at = buf.add(2 * pair);
            (*at, *at.add(1)) = match EXTRA {
                true => (x + y, mulmod_lazy(x - y, *tw.add(n / 2 + pair), c)),
                false => (x, y),
            };
        }
    }
}
