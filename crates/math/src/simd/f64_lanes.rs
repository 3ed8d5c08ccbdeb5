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
//! coefficient (`reduce_acc`, `fold_acc`, or the canonicalising exit of
//! `forward_in_place`) lands on the canonical residue, so results are
//! bit-identical to the integer kernels. The fold multiplies a sum by a
//! factor, so it needs the sum inside the product bound: `terms·q ≤ 2^50`.
//!
//! **The inverse transform** is signed-lazy too. Its Gentleman–Sande
//! butterfly sends `u + v` on unreduced and `(u − v)·w` through the
//! product, so the product side is below `q` after every stage while the
//! sum side doubles. The input, residues in `[0, 2q)`, is centred to
//! `|x| ≤ (q+1)/2` on load; after `s` stages since the last reduction
//! every lane is within `2^s·(q+1)/2`, and a stage's product input within
//! twice the bound before it. The fused first pass covers at most four
//! stages, `8(q+1) ≤ 2^50` under the forward gate for every `n ≥ 16`;
//! each radix-4 pass after it first reduces its four inputs back to
//! `(q+1)/2` when its products could pass `2^50` (`4·bound > 2^50`). No
//! preset ring needs that — Medium's eleven stages end at `2^46` — but a
//! modulus near the gate at `N = 2^13` does, every few passes. The last
//! radix-4 pass takes `n^{-1}` as its second stage's twiddle (and
//! `ψ^{-1}·n^{-1}` for the other half) and hands signed residues `|r| < q`
//! to the exit: canonical `u64` for `NttTable::inverse`, or the external
//! product's digits. Those run the balanced chain of
//! `gadget::signed_digits` on `|x|` of the balanced residue and negate at
//! the end: `round((|x| − ½)/B)` is never a tie and leaves each digit in
//! `(−B/2, B/2]`, as the scalar chain's mask-and-carry does, and each
//! digit row is stored as `i32`.
//!
//! **Two widths, one body.** The lane type's methods are `#[inline(always)]`
//! and carry no target features of their own; the generic kernels are
//! inlined into one `#[target_feature]` entry point per tier (the `tier!`
//! modules), so every intrinsic compiles under that tier's features. A
//! closure in a generic body does not inherit them and is not always
//! inlined, and an intrinsic called from it becomes a call, so the generic
//! bodies use local macros and loops instead. Only the fused last pass of
//! the forward transform, and its mirror image, the inverse's first pass,
//! differ by width: 4 lanes fuse two or three stages on blocks of 8
//! coefficients, 8 lanes three or four on blocks of 16, so the radix-4
//! passes run while their quarter distance is at least one vector.
//!
//! Every function here is `unsafe` because it executes its tier's
//! instructions; the ones that dereference pointers each check the slice
//! lengths their pointer arithmetic relies on.

use crate::mac::{LazyCoeff, MAC_PAD};
use crate::simd::F64_OPERAND_LIMIT;

mod lane;

use lane::{Avx2, Avx512, Lane};

/// `1.5·2^52`: doubles in `[2^52, 2^53)` are the integers, so adding this
/// to `|t| < 2^51` rounds `t` to the nearest one.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

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

/// `x − round(x/q)·q` for integer lanes `|x| < 2^52`: the FMA adds
/// `1.5·2^52` to the exact `x·RN(1/q)`, where a double's ulp is 1, so its
/// one rounding *is* the rounding to the nearest integer `k`, and
/// `x − k·q` is a small integer the second FMA returns unrounded. The
/// result is a signed representative with `|r| ≤ (q+1)/2`; on a residue in
/// `(−q, q)` it is the balanced one, `(−q/2, q/2)`.
#[inline(always)]
unsafe fn signed_residue<L: Lane>(x: L::V, c: Consts<L>) -> L::V {
    let shift = L::splat(ROUND_SHIFT);
    let k = L::sub(L::fmadd(x, c.inv_q, shift), shift);
    L::fnmadd(k, c.q, x)
}

/// `a·w − round(a·w/q)·q`: a signed representative of `a·w mod q` with
/// `|r| < q`, exact for integer lanes `|a| ≤ 2^50`, `0 ≤ w < q < 2^50`
/// (module docs).
#[inline(always)]
unsafe fn mulmod_lazy<L: Lane>(a: L::V, w: L::V, c: Consts<L>) -> L::V {
    let h = L::mul(a, w);
    let l = L::fmsub(a, w, h);
    L::add(signed_residue(h, c), l)
}

/// The canonical residue in `[0, q)` of integer lanes `|x| < 2^52`.
#[inline(always)]
unsafe fn canonical<L: Lane>(x: L::V, c: Consts<L>) -> L::V {
    L::add_if_neg(signed_residue(x, c), c.q)
}

/// The lanes of `T` integers at `p`: `i32` digits, or `u64` residues
/// below `2^51`.
macro_rules! load_coeff {
    ($L:ty, $T:ty, $p:expr) => {
        match <$T>::NARROW {
            true => <$L>::load_i32($p as *const i32),
            false => <$L>::load_i64($p as *const i64),
        }
    };
}

/// One radix-4 pass of the forward transform: the stage with `m` butterfly
/// groups and the stage with `2m`, on each quadruple `(j, j+h, j+2h, j+3h)`
/// between one load and one store (`h = n/4m`, at least one vector). The
/// first pass of a transform reads the integer input at `src` instead of
/// `dst`.
///
/// `src` (when `FIRST`) and `dst` must be valid for `n` lanes, `tw` for
/// `4m`; they may alias lane for lane.
#[inline(always)]
unsafe fn radix4_pass<L: Lane, T: LazyCoeff, const FIRST: bool>(
    src: *const T,
    dst: *mut f64,
    n: usize,
    m: usize,
    tw: *const f64,
    c: Consts<L>,
) {
    // A macro, not a closure: closures here would not inherit the entry
    // point's target features, and their intrinsics would not inline.
    macro_rules! load {
        ($at:expr) => {
            match FIRST {
                true => load_coeff!(L, T, src.add($at)),
                false => L::load(dst.add($at)),
            }
        };
    }
    let h = n / (4 * m);
    for i in 0..m {
        let wa = L::splat(*tw.add(m + i));
        let wb0 = L::splat(*tw.add(2 * m + 2 * i));
        let wb1 = L::splat(*tw.add(2 * m + 2 * i + 1));
        let base = 4 * i * h;
        let mut j = base;
        while j < base + h {
            let v2 = mulmod_lazy(load!(j + 2 * h), wa, c);
            let v3 = mulmod_lazy(load!(j + 3 * h), wa, c);
            let (x0, x1) = (load!(j), load!(j + h));
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

/// The whole forward transform: `⌊(log2 n − LAST)/2⌋` radix-4 passes, then
/// the fused last pass. The input is `T` lanes at `src` (`i32`, or 64-bit
/// integers below `2^51` in magnitude); with no radix-4 pass (`n = 16` at 8
/// lanes) it is converted to doubles first.
///
/// `src` and `dst` must be valid for a power-of-two `n ≥ 16` lanes (they
/// may alias lane for lane), `tw` for `n`.
#[inline(always)]
unsafe fn forward<L: Lane, T: LazyCoeff, const CANON: bool>(
    src: *const T,
    dst: *mut f64,
    n: usize,
    tw: *const f64,
    c: Consts<L>,
) {
    let stages = n.trailing_zeros() - L::LAST;
    if stages < 2 {
        for j in (0..n).step_by(L::W) {
            L::store(dst.add(j), load_coeff!(L, T, src.add(j)));
        }
    }
    let mut m = 1;
    for pass in 0..stages / 2 {
        match pass {
            0 => radix4_pass::<L, T, true>(src, dst, n, m, tw, c),
            _ => radix4_pass::<L, T, false>(src, dst, n, m, tw, c),
        }
        m *= 4;
    }
    match stages % 2 {
        1 => L::last_pass::<true, CANON>(dst, n, tw, c),
        _ => L::last_pass::<false, CANON>(dst, n, tw, c),
    }
}

/// One radix-4 pass of the inverse transform: the Gentleman–Sande stage
/// with span `t` and the one with span `2t`, on each quadruple `(j, j+t,
/// j+2t, j+3t)` between one load and one store. Sums are left unreduced;
/// `REDUCE` first brings the four inputs to `|x| ≤ (q+1)/2`. The `EXIT`
/// pass is the transform's last: `scale` holds `n^{-1}` and `ψ^{-1}·n^{-1}`,
/// which replace its second stage's twiddle, and its outputs — signed
/// residues `|r| < q` — go to `put` instead of the buffer.
///
/// `buf` must be valid for `n` lanes, `tw` for `n`.
#[inline(always)]
unsafe fn radix4_inv<L: Lane, const REDUCE: bool, const EXIT: bool>(
    buf: *mut f64,
    n: usize,
    t: usize,
    tw: *const f64,
    c: Consts<L>,
    scale: [L::V; 2],
    put: &impl Fn(usize, L::V),
) {
    let h = n / (2 * t);
    macro_rules! gs {
        ($x:expr, $y:expr, $w:expr) => {{
            let (x, y) = ($x, $y);
            (L::add(x, y), mulmod_lazy(L::sub(x, y), $w, c))
        }};
    }
    macro_rules! load {
        ($at:expr) => {
            match REDUCE {
                true => signed_residue(L::load(buf.add($at)), c),
                false => L::load(buf.add($at)),
            }
        };
    }
    for b in 0..n / (4 * t) {
        let w0 = L::splat(*tw.add(h + 2 * b));
        let w1 = L::splat(*tw.add(h + 2 * b + 1));
        let wb = L::splat(*tw.add(h / 2 + b));
        let mut j = 4 * t * b;
        while j < 4 * t * b + t {
            let (a0, a1) = gs!(load!(j), load!(j + t), w0);
            let (a2, a3) = gs!(load!(j + 2 * t), load!(j + 3 * t), w1);
            if EXIT {
                let [s, sw] = scale;
                put(j, mulmod_lazy(L::add(a0, a2), s, c));
                put(j + t, mulmod_lazy(L::add(a1, a3), s, c));
                put(j + 2 * t, mulmod_lazy(L::sub(a0, a2), sw, c));
                put(j + 3 * t, mulmod_lazy(L::sub(a1, a3), sw, c));
            } else {
                let (y0, y2) = gs!(a0, a2, wb);
                let (y1, y3) = gs!(a1, a3, wb);
                L::store(buf.add(j), y0);
                L::store(buf.add(j + t), y1);
                L::store(buf.add(j + 2 * t), y2);
                L::store(buf.add(j + 3 * t), y3);
            }
            j += L::W;
        }
    }
}

/// The whole inverse transform of the residues in `[0, 2q)` at `src`,
/// worked in `buf`: the fused first pass (centring the input), then
/// `⌊(log2 n − LAST)/2⌋` radix-4 passes, the last of which scales by
/// `n^{-1}` and hands each output vector — signed residues `|r| < q` — to
/// `put`. With no radix-4 pass (`n = 16` at 8 lanes) the scaling is a loop
/// of its own. Sums double per stage; a pass whose products could see more
/// than `2^50` reduces its inputs first (module docs).
///
/// `src` and `buf` must be valid for `n` lanes (they may alias lane for
/// lane); `put` is called once per vector of output coefficients, after
/// the last read of its lanes.
#[inline(always)]
unsafe fn inverse<L: Lane>(
    src: *const u64,
    buf: *mut f64,
    n: usize,
    tw: &[f64],
    q: u64,
    n_inv: u64,
    put: impl Fn(usize, L::V),
) {
    assert_ring(n, tw);
    let c = Consts::<L>::new(q);
    let stages = n.trailing_zeros() - L::LAST;
    let first = L::LAST + stages % 2;
    match stages % 2 {
        1 => L::first_pass_inv::<true>(src, buf, n, tw.as_ptr(), c),
        _ => L::first_pass_inv::<false>(src, buf, n, tw.as_ptr(), c),
    }
    let scaled_tw = u128::from(tw[1] as u64) * u128::from(n_inv) % u128::from(q);
    let scale = [L::splat(n_inv as f64), L::splat(scaled_tw as f64)];
    let passes = stages / 2;
    if passes == 0 {
        for j in (0..n).step_by(L::W) {
            put(j, mulmod_lazy(L::load(buf.add(j)), scale[0], c));
        }
        return;
    }
    // Every lane is bounded by `centred · 2^stages` since the last
    // reduction: the sum side doubles per stage, the product side is `< q`.
    let centred = u128::from(q).div_ceil(2);
    let mut bound = centred << first;
    let mut t = 1 << first;
    for pass in 1..=passes {
        let reduce = 4 * bound > F64_OPERAND_LIMIT;
        let tp = tw.as_ptr();
        match (reduce, pass == passes) {
            (false, false) => radix4_inv::<L, false, false>(buf, n, t, tp, c, scale, &put),
            (true, false) => radix4_inv::<L, true, false>(buf, n, t, tp, c, scale, &put),
            (false, true) => radix4_inv::<L, false, true>(buf, n, t, tp, c, scale, &put),
            (true, true) => radix4_inv::<L, true, true>(buf, n, t, tp, c, scale, &put),
        }
        bound = 4 * if reduce { centred } else { bound };
        t *= 4;
    }
}

fn assert_ring(n: usize, tw: &[f64]) {
    assert!(
        n.is_power_of_two() && n >= 16,
        "ring too small for f64 lanes"
    );
    assert_eq!(tw.len(), n, "twiddle table length mismatch");
}

/// One `#[target_feature]` entry point per kernel for a tier: the generic
/// bodies above, compiled under that tier's features. Each checks the
/// slice lengths its pointer arithmetic relies on.
macro_rules! tier {
    ($(#[$doc:meta])* $name:ident: $lane:ty, $features:literal) => {
        $(#[$doc])*
        pub(in crate::simd) mod $name {
            use super::*;

            type L = $lane;

            /// Signed-lazy forward NTT of `input` into `out`, left in
            /// `f64`: lanes are exact integers congruent to the transform,
            /// `|x| ≤ C + log2(n)·q` for inputs `|x| ≤ C` (module docs).
            /// `tw` holds the bit-reversed twiddles in `[0, q)` as doubles.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn forward_into<T: LazyCoeff>(
                input: &[T],
                tw: &[f64],
                q: u64,
                out: &mut [f64],
            ) {
                let n = input.len();
                assert_ring(n, tw);
                assert_eq!(out.len(), n, "length mismatch");
                let c = Consts::new(q);
                forward::<L, T, false>(input.as_ptr(), out.as_mut_ptr(), n, tw.as_ptr(), c);
            }

            /// Forward NTT in place on lazy residues in `[0, 4q)`,
            /// canonical on exit: the same passes, the buffer holding
            /// doubles in between.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn forward_in_place(a: &mut [u64], tw: &[f64], q: u64) {
                let n = a.len();
                assert_ring(n, tw);
                let p = a.as_mut_ptr();
                forward::<L, u64, true>(p, p as *mut f64, n, tw.as_ptr(), Consts::new(q));
            }

            /// Inverse NTT of residues in `[0, 2q)`, scaled by `n^{-1}`.
            /// With `src` it reads `src` and works in `work`, else it works
            /// in place. With `digits = (out, base_bits)` the canonical
            /// outputs go through the balanced signed digit chain
            /// (`gadget::signed_digits`) into `out`, digit-major (`out[k·n
            /// + i]`, `out.len() / n` digits); else they are written back
            /// to `work` as canonical residues.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn inverse(
                work: &mut [u64],
                src: Option<&[u64]>,
                tw: &[f64],
                q: u64,
                n_inv: u64,
                digits: Option<(&mut [i32], u32)>,
            ) {
                let n = work.len();
                let p = work.as_mut_ptr();
                let from = src.map_or(p as *const u64, |s| {
                    assert_eq!(s.len(), n, "length mismatch");
                    s.as_ptr()
                });
                let buf = p as *mut f64;
                let c = Consts::<L>::new(q);
                let Some((out, base_bits)) = digits else {
                    let put = |at, r| L::store(buf.add(at), L::to_u64(L::add_if_neg(r, c.q)));
                    return super::inverse::<L>(from, buf, n, tw, q, n_inv, put);
                };
                let count = out.len() / n.max(1);
                assert_eq!(out.len(), count * n, "length mismatch");
                assert!(base_bits <= 31, "signed digits of {base_bits} bits do not fit an i32");
                let base = (1u64 << base_bits) as f64;
                let [base, inv_base, half, one, minus_two] =
                    [base, 1.0 / base, 0.5, 1.0, -2.0].map(|x| L::splat(x));
                let shift = L::splat(ROUND_SHIFT);
                let op = out.as_mut_ptr();
                let put = |at, r| {
                    let x = signed_residue(r, c);
                    // −1 where `x < 0`, else 1: the chain runs on `|x|` and
                    // negates its digits, as the scalar one does.
                    let sign = L::add(one, L::sub(L::add_if_neg(x, minus_two), x));
                    let mut mag = L::mul(x, sign);
                    for k in 0..count {
                        // round((mag − ½)/B) is never a tie, and leaves the
                        // digit in (−B/2, B/2].
                        let hi = L::sub(L::fmadd(L::sub(mag, half), inv_base, shift), shift);
                        L::store_i32(op.add(k * n + at), L::mul(L::fnmadd(hi, base, mag), sign));
                        mag = hi;
                    }
                };
                super::inverse::<L>(from, buf, n, tw, q, n_inv, put);
            }

            /// `acc += operand_t ⊙ row` for every member `t` of a tile and
            /// both rows of all `K` pairs, as signed `|r| < q` terms with no
            /// fix-up. Member `t`'s operand starts at `t·(n + MAC_PAD)`, and
            /// its product with `rows[k][p]` goes to slot `firsts[t] + 2k +
            /// p`. `acc` holds its slots block-major — `block` coefficients
            /// of every slot, each run padded by [`MAC_PAD`], then the next
            /// `block` — and the kernel walks it block by block: each key
            /// vector is converted once and multiplied into every member's
            /// slots while they are in L1.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn mac_tile<const K: usize>(
                operands: &[f64],
                firsts: &[usize],
                rows: [[&[u64]; 2]; K],
                q: u64,
                acc: &mut [f64],
                block: usize,
            ) {
                let n = rows[0][0].len();
                let flat = rows.as_flattened();
                assert!(flat.iter().all(|r| r.len() == n), "key row length mismatch");
                let (ostride, stride) = (n + MAC_PAD, block + MAC_PAD);
                assert_eq!(operands.len(), firsts.len() * ostride, "length mismatch");
                assert!(
                    block >= <L as Lane>::W
                        && block.is_multiple_of(<L as Lane>::W)
                        && n.is_multiple_of(block),
                    "block must be a multiple of the lane count dividing the ring"
                );
                let runs = n / block * stride;
                let slots = acc.len() / runs;
                assert_eq!(acc.len(), slots * runs, "length mismatch");
                assert!(
                    firsts.iter().all(|&f| f + 2 * K <= slots),
                    "accumulator slot out of range"
                );
                let c = Consts::<L>::new(q);
                let (xp, ap) = (operands.as_ptr(), acc.as_mut_ptr());
                for b in 0..n / block {
                    let blk = ap.add(b * slots * stride);
                    for i in (0..block).step_by(<L as Lane>::W) {
                        let at = b * block + i;
                        // Loops, not `map`: a closure here is not always
                        // inlined, and a call per vector costs more than
                        // the vector's work.
                        let mut w = [[c.q; 2]; K];
                        for (w, pair) in w.iter_mut().zip(&rows) {
                            for (w, row) in w.iter_mut().zip(pair) {
                                *w = L::load_i64(row.as_ptr().add(at) as *const i64);
                            }
                        }
                        for (t, &first) in firsts.iter().enumerate() {
                            let x = L::load(xp.add(t * ostride + at));
                            let at = blk.add(first * stride + i);
                            for (s, &w) in w.as_flattened().iter().enumerate() {
                                let p = at.add(s * stride);
                                L::store(p, L::add(L::load(p), mulmod_lazy(x, w, c)));
                            }
                        }
                    }
                }
            }

            /// The one deferred reduction: integer-valued accumulators
            /// `|x| < 2^52` to canonical residues.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's features.
            #[target_feature(enable = $features)]
            pub(in crate::simd) unsafe fn reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) {
                let n = acc.len();
                assert_eq!(out.len(), n, "length mismatch");
                assert!(
                    n.is_multiple_of(<L as Lane>::W),
                    "accumulator length must be a multiple of the lane count"
                );
                let c = Consts::<L>::new(q);
                for i in (0..n).step_by(<L as Lane>::W) {
                    let r = L::to_u64(canonical(L::load(acc.as_ptr().add(i)), c));
                    L::store(out.as_mut_ptr().add(i) as *mut f64, r);
                }
            }

            /// The CMux fold, `acc ← canonical(acc + S⁺·f⁺ + S⁻·f⁻)`: the
            /// sums `S±` are integer-valued `|S| ≤ 2^50`, the factors `f±`
            /// and `acc` canonical residues, so both products are exact
            /// signed terms below `q` and the sum of three stays below
            /// `2^52`.
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
                let n = acc.len();
                assert!(
                    sums.iter().all(|s| s.len() == n) && factors.iter().all(|f| f.len() == n),
                    "length mismatch"
                );
                assert!(
                    n.is_multiple_of(<L as Lane>::W),
                    "accumulator length must be a multiple of the lane count"
                );
                let c = Consts::<L>::new(q);
                let [s0, s1] = sums.map(<[f64]>::as_ptr);
                let [f0, f1] = factors.map(|f| f.as_ptr() as *const i64);
                for i in (0..n).step_by(<L as Lane>::W) {
                    let at = acc.as_mut_ptr().add(i);
                    let p = mulmod_lazy(L::load(s0.add(i)), L::load_i64(f0.add(i)), c);
                    let m = mulmod_lazy(L::load(s1.add(i)), L::load_i64(f1.add(i)), c);
                    let x = L::add(L::add(L::load_i64(at as *const i64), p), m);
                    L::store(at as *mut f64, L::to_u64(canonical(x, c)));
                }
            }
        }
    };
}

tier!(
    /// The 4-lane tier: AVX2 + FMA.
    avx2: Avx2, "avx2,fma"
);
tier!(
    /// The 8-lane tier: AVX-512F (with AVX2 + FMA, which its integer
    /// conversions use).
    avx512: Avx512, "avx512f,avx2,fma"
);
