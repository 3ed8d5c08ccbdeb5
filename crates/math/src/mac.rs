//! The lazy-reduction MAC datapath: digit in, accumulated products out.
//!
//! HEAP streams decomposer → NTT → lazy-reduction MAC array (§IV-A, §IV-D,
//! §IV-E) without normalising in between, and one array serves both the
//! external-product unit and the key-switch inner product. The software
//! form is [`MacAcc::mac_digit`]: one coefficient-domain digit polynomial
//! goes in, is transformed under the target limb, and is multiplied into
//! the accumulator slots of every key row it meets. A chain ends in one
//! reduction per output coefficient: [`MacAcc::reduce_into`] writes a
//! slot's residues, and [`MacAcc::fold_into`] — the CMux step — adds two
//! slots, each times its factor, into a canonical accumulator. This module
//! is the only place that knows which of two datapaths a chain runs on —
//! [`mac_path`] and [`fold_path`] pick it per call from what the host, the
//! ring and the moduli allow, and [`MacAcc`] carries the choice so the
//! algorithm loops above it are written once:
//!
//! * **narrow** — one `f64` lane from digit to accumulator (`simd`'s
//!   AVX-512F or AVX2 + FMA kernels): the digit is loaded straight into
//!   doubles, the signed-lazy radix-4 transform leaves it there, every
//!   product is added as a signed term below `q`, and each output
//!   coefficient is reduced once;
//! * **wide** — lift to `[0, q)`, [`NttTable::forward`] (its `f64` kernel
//!   where that kernel's own gate holds, else the scalar lazy NTT), full
//!   products summed in `u128`, one Barrett reduction per output.
//!
//! Both are exact, so they produce the same canonical residues, and both
//! read the key row exactly as it is stored. A narrow chain bounds each
//! slot's sum — a tile of many members shares one chain, but a slot holds
//! only its own member's terms — and panics rather than pass the bound it
//! is exact under, so no call sequence returns a wrong residue from a path
//! picked by hand.

use crate::arith::Modulus;
use crate::ntt::NttTable;
use crate::simd::{F64_OPERAND_LIMIT, F64_SUM_LIMIT};
use crate::{poly, simd};

/// The datapath of one lazy MAC chain. Both produce canonical residues of
/// the same congruence class, so results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacPath {
    /// `f64` lanes from digit to accumulator (4× the scalar wide path at 36
    /// bits). [`mac_path`] and [`fold_path`] know when it is exact; a chain
    /// past its term bound panics.
    Narrow,
    /// `u128` accumulators fed by full products of canonical operands.
    #[default]
    Wide,
}

/// Picks the datapath for a chain of `terms` MACs under each of `tables`,
/// on digits of magnitude at most `input_bound` (half the gadget base for
/// signed digits, the largest source modulus for residues), that ends in
/// [`MacAcc::reduce_into`].
///
/// The narrow path needs its kernels to run, and to be exact, under every
/// modulus of the chain: an `f64`-lane tier active, `n ≥ 16`,
/// `input_bound + log2(n)·q ≤ 2^50` (every product input stays an exact
/// `f64` integer through the signed-lazy transform) and `terms·q ≤ 2^52`
/// (so does the sum). Anything else takes the wide path. Evaluated per
/// call, so it follows [`simd::force_scalar`] flipped on a live key.
pub fn mac_path<'a>(
    tables: impl IntoIterator<Item = &'a NttTable>,
    terms: usize,
    input_bound: u64,
) -> MacPath {
    path_under(tables, terms, input_bound, F64_SUM_LIMIT)
}

/// [`mac_path`] for a chain that ends in [`MacAcc::fold_into`]: the fold
/// multiplies each sum by its factor, so the narrow path also needs the
/// sums inside the product bound, `terms·q ≤ 2^50`.
pub fn fold_path<'a>(
    tables: impl IntoIterator<Item = &'a NttTable>,
    terms: usize,
    input_bound: u64,
) -> MacPath {
    path_under(tables, terms, input_bound, F64_OPERAND_LIMIT)
}

fn path_under<'a>(
    tables: impl IntoIterator<Item = &'a NttTable>,
    terms: usize,
    input_bound: u64,
    sum_limit: u128,
) -> MacPath {
    let narrow =
        |t: &NttTable| simd::f64_mac_ok(t.n(), t.modulus().value(), input_bound, terms, sum_limit);
    if tables.into_iter().all(narrow) {
        MacPath::Narrow
    } else {
        MacPath::Wide
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for u64 {}
}

/// A digit coefficient the MAC datapath takes unreduced: `i64` (balanced
/// gadget digits) or `u64` (residues of another modulus). Sealed — the
/// vector kernel loads a `[T]` as 64-bit integer lanes.
pub trait LazyCoeff: Copy + sealed::Sealed {
    /// Canonical residues of `src` modulo `m`, for the wide path.
    fn lift_into(src: &[Self], m: &Modulus, out: &mut [u64]);
}

impl LazyCoeff for i64 {
    fn lift_into(src: &[Self], m: &Modulus, out: &mut [u64]) {
        poly::from_signed_into(src, m, out);
    }
}

impl LazyCoeff for u64 {
    fn lift_into(src: &[Self], m: &Modulus, out: &mut [u64]) {
        for (o, &c) in out.iter_mut().zip(src) {
            *o = m.reduce_u64(c);
        }
    }
}

/// The two polynomials of one key row under one limb (an RLWE row's `a` and
/// `b`), each with the accumulator slot its products go to.
pub type RowPair<'a> = [(usize, &'a [u64]); 2];

/// Lazy MAC accumulators: `slots` windows of `n` coefficients each, on the
/// path chosen at [`Self::reset`], plus the one operand buffer the digit is
/// transformed in. Buffers are kept across resets, so a warm accumulator
/// never allocates.
#[derive(Debug, Default)]
pub struct MacAcc {
    path: MacPath,
    n: usize,
    /// Narrow: per slot, the sum of the moduli its terms were taken under
    /// since the reset — a bound on that slot's sum, as each term is below
    /// its `q` in magnitude.
    bounds: Vec<u64>,
    /// Narrow: the transformed digit, signed-lazy, and the sums of signed
    /// terms — exact integers in `f64`.
    operand: Vec<f64>,
    narrow: Vec<f64>,
    /// Wide (and a narrow chain whose backend was flipped away): the
    /// transformed digit as canonical residues.
    spread: Vec<u64>,
    wide: Vec<u128>,
}

impl MacAcc {
    /// Zeroes `slots` windows of `n` coefficients on `path`.
    pub fn reset(&mut self, path: MacPath, slots: usize, n: usize) {
        self.path = path;
        self.n = n;
        match path {
            MacPath::Narrow => {
                self.bounds.clear();
                self.bounds.resize(slots, 0);
                self.operand.resize(n, 0.0);
                self.narrow.clear();
                self.narrow.resize(slots * n, 0.0);
            }
            MacPath::Wide => {
                self.wide.clear();
                self.wide.resize(slots * n, 0);
            }
        }
    }

    /// Transforms the coefficient-domain `digit` under `ntt` and adds its
    /// pointwise product with each key row into that row's slot, with no
    /// reduction of the sums. Rows must be canonical residues; `digit` must
    /// respect the `input_bound` the path was chosen for.
    ///
    /// A narrow chain stays exact if [`simd::force_scalar`] flips between
    /// two of its calls: the scalar loop behind the vector kernel adds
    /// terms of the same residue classes, below `q` like the kernel's.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range or if `digit`, a row or `ntt`
    /// differ in length from the `n` of [`Self::reset`], and on a narrow
    /// chain where this call could take a slot's sum past `2^52` (`terms·q`
    /// per slot, the bound [`mac_path`] admits).
    pub fn mac_digit<T: LazyCoeff, const K: usize>(
        &mut self,
        ntt: &NttTable,
        digit: &[T],
        rows: [RowPair<'_>; K],
    ) {
        let n = self.n;
        assert!(digit.len() == n && ntt.n() == n, "length mismatch");
        if self.path == MacPath::Narrow {
            let q = ntt.modulus().value();
            for &(slot, _) in rows.as_flattened() {
                self.bounds[slot] = self.bounds[slot].saturating_add(q);
                self.assert_narrow_within(slot, F64_SUM_LIMIT, "its exact bound");
            }
            if ntt.mac_digit_f64(digit, &mut self.operand, rows, &mut self.narrow) {
                return;
            }
        }
        self.spread.resize(n, 0);
        T::lift_into(digit, ntt.modulus(), &mut self.spread);
        ntt.forward(&mut self.spread);
        for &(slot, row) in rows.as_flattened() {
            let w = slot * n..(slot + 1) * n;
            match self.path {
                MacPath::Narrow => {
                    assert_eq!(row.len(), n, "length mismatch");
                    let terms = self.spread.iter().zip(row);
                    for (acc, (&x, &op)) in self.narrow[w].iter_mut().zip(terms) {
                        *acc += ntt.modulus().mul(x, op) as f64;
                    }
                }
                MacPath::Wide => ntt.pointwise_mac_lazy(&self.spread, row, &mut self.wide[w]),
            }
        }
    }

    /// Refuses a narrow chain whose sum in `slot` may exceed `limit`.
    fn assert_narrow_within(&self, slot: usize, limit: u128, bound: &str) {
        let sum = self.bounds[slot];
        assert!(
            u128::from(sum) <= limit,
            "narrow MAC chain past {bound}: slot {slot} may sum to {sum} (2^{:.1})",
            (sum as f64).log2()
        );
    }

    /// The slot's window of `n` coefficients.
    fn window(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.n..(slot + 1) * self.n
    }

    /// Writes the canonical residues of `slot` to `out` — the single
    /// deferred reduction per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `out.len() != ntt.n()`.
    pub fn reduce_into(&self, slot: usize, ntt: &NttTable, out: &mut [u64]) {
        let w = self.window(slot);
        let q = ntt.modulus().value();
        match self.path {
            MacPath::Narrow => {
                let acc = &self.narrow[w];
                assert_eq!(out.len(), acc.len(), "length mismatch");
                if !simd::try_reduce_acc(acc, q, out) {
                    for (o, &a) in out.iter_mut().zip(acc) {
                        *o = narrow_residue(a, q);
                    }
                }
            }
            MacPath::Wide => ntt.reduce_acc_into(&self.wide[w], out),
        }
    }

    /// The CMux step's one reduction: `acc ← acc + f₀·S₀ + f₁·S₁ mod q`,
    /// where `S_k` is the unreduced sum in `slots[k]` and `f_k` its factor.
    /// `acc` and both factors must be canonical residues. Narrow sums are
    /// folded in `f64` lanes straight from the accumulators, wide ones from
    /// their `u128` sums; either way no product is materialised.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range or a factor or `acc` differs in
    /// length from `ntt.n()`, and on a narrow chain where either slot's
    /// sum may exceed `2^50` (`terms·q` per slot, the bound [`fold_path`]
    /// admits).
    pub fn fold_into(
        &self,
        slots: [usize; 2],
        factors: [&[u64]; 2],
        ntt: &NttTable,
        acc: &mut [u64],
    ) {
        let n = self.n;
        let fits = |x: &[u64]| x.len() == n;
        assert!(
            ntt.n() == n && fits(acc) && factors.iter().all(|f| fits(f)),
            "length mismatch"
        );
        let m = ntt.modulus();
        match self.path {
            MacPath::Narrow => {
                for s in slots {
                    self.assert_narrow_within(s, F64_OPERAND_LIMIT, "the fold's exact bound");
                }
                let sums = slots.map(|s| &self.narrow[self.window(s)]);
                if !simd::try_fold_acc(sums, factors, m.value(), acc) {
                    fold_residues(m, factors, acc, |k, i| {
                        narrow_residue(sums[k][i], m.value())
                    });
                }
            }
            MacPath::Wide => {
                let sums = slots.map(|s| &self.wide[self.window(s)]);
                fold_residues(m, factors, acc, |k, i| m.reduce_u128(sums[k][i]));
            }
        }
    }
}

/// The scalar fold, `acc + f₀·s₀ + f₁·s₁ mod q` from the residues
/// `s_k = residue(k, i)` of the two sums: exact in `u128` for `q < 2^62`.
fn fold_residues(
    m: &Modulus,
    factors: [&[u64]; 2],
    acc: &mut [u64],
    residue: impl Fn(usize, usize) -> u64,
) {
    for (i, a) in acc.iter_mut().enumerate() {
        let term = |k: usize| u128::from(residue(k, i)) * u128::from(factors[k][i]);
        *a = m.reduce_u128(term(0) + term(1) + u128::from(*a));
    }
}

/// The canonical residue of a narrow sum: an exact integer below `2^52` in
/// magnitude.
fn narrow_residue(sum: f64, q: u64) -> u64 {
    (sum as i64).rem_euclid(q as i64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    /// Both paths of the accumulator agree with the eager Barrett chain
    /// over the strict transform. (The narrow path may be *forced* on any
    /// host — only the gate ties it to the vector kernel — so this also
    /// runs its scalar loop.)
    #[test]
    fn both_paths_match_eager_chain() {
        let n = 32;
        let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
        let t = NttTable::new(n, q);
        let rows: Vec<(Vec<i64>, Vec<u64>)> = (0..3u64)
            .map(|r| {
                let digit = (0..n as i64).map(|i| (i * 0x9E37 + r as i64) % 4096 - 2048);
                let ops = (0..n as u64).map(|i| (i * i + 7 * r + 1) % q.value());
                (digit.collect(), ops.collect())
            })
            .collect();
        let mut want = vec![0u64; n];
        for (digit, ops) in &rows {
            let mut x = poly::from_signed(digit, &q);
            t.forward_strict(&mut x, false);
            t.pointwise_acc(&x, ops, &mut want);
        }
        for path in [MacPath::Narrow, MacPath::Wide] {
            let mut acc = MacAcc::default();
            // Slot 0 stays empty: windows must not bleed into each other.
            acc.reset(path, 3, n);
            for (digit, ops) in &rows {
                acc.mac_digit(&t, digit, [[(1, &ops[..]), (2, &ops[..])]]);
            }
            let mut got = vec![1u64; n];
            for slot in [1, 2] {
                acc.reduce_into(slot, &t, &mut got);
                assert_eq!(got, want, "{path:?} slot {slot}");
            }
            acc.reduce_into(0, &t, &mut got);
            assert_eq!(got, vec![0u64; n], "{path:?} slot 0");
        }
    }

    /// The bound is per slot: eight members, each with its own two slots,
    /// take `terms` calls apiece, so the chain makes `8·terms` calls while
    /// every slot stays at the fold's `terms·q ≤ 2^50`. Both paths fold
    /// every member to the same residues; one more term in one slot is
    /// refused.
    #[test]
    fn narrow_bound_is_kept_per_slot() {
        let n = 16;
        let t = NttTable::new(n, Modulus::new(ntt_primes(n as u64, 45, 1)[0]).unwrap());
        let q = t.modulus().value();
        let (members, terms) = (8, ((1u64 << 50) / q) as usize);
        assert!((members * terms) as u128 * u128::from(q) > F64_SUM_LIMIT);
        let digit: Vec<i64> = (0..n as i64).map(|i| i * 977 - 5000).collect();
        let rows: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 31).collect();
        let factors = [&rows[..], &rows[..]];
        let [narrow, wide] = [MacPath::Narrow, MacPath::Wide].map(|path| {
            let mut acc = MacAcc::default();
            acc.reset(path, 2 * members, n);
            for _ in 0..terms {
                for m in 0..members {
                    acc.mac_digit(&t, &digit, [[(2 * m, &rows[..]), (2 * m + 1, &rows[..])]]);
                }
            }
            let mut out = vec![7u64; n * members];
            for (m, o) in out.chunks_mut(n).enumerate() {
                acc.fold_into([2 * m, 2 * m + 1], factors, &t, o);
            }
            if path == MacPath::Narrow {
                acc.mac_digit(&t, &digit, [[(0, &rows[..]), (1, &rows[..])]]);
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    acc.fold_into([0, 1], factors, &t, &mut out[..n])
                }));
                assert!(refused.is_err(), "a slot folded past 2^50");
            }
            out
        });
        assert_eq!(narrow, wide);
    }

    /// The gate on every host: each inequality is what sends a chain wide.
    /// (The narrow side needs a fixed backend, so the `kernel_parity`
    /// suites and `tests/properties.rs` assert it under a lock against
    /// `force_scalar`.)
    #[test]
    fn gate_follows_ring_modulus_input_and_terms() {
        let table = |n: usize, bits| {
            NttTable::new(n, Modulus::new(ntt_primes(n as u64, bits, 1)[0]).unwrap())
        };
        // 60 bits: past the operand bound before any growth.
        assert_eq!(mac_path([&table(32, 60)], 1, 0), MacPath::Wide);
        // n = 8 has no radix-4 pass.
        assert_eq!(mac_path([&table(8, 36)], 1, 0), MacPath::Wide);
        let t = table(32, 36);
        let q = t.modulus().value();
        // 2^50 of input leaves no room to grow; 2^52 / q terms is the last
        // count whose sum stays exact.
        assert_eq!(mac_path([&t], 1, 1 << 50), MacPath::Wide);
        assert_eq!(
            mac_path([&t], ((1u64 << 52) / q) as usize + 1, 0),
            MacPath::Wide
        );
    }
}
