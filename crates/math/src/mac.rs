//! The lazy-reduction MAC datapath: digit in, accumulated products out.
//!
//! HEAP streams decomposer → NTT → lazy-reduction MAC array (§IV-A, §IV-D,
//! §IV-E) without normalising in between, and one array serves both the
//! external-product unit and the key-switch inner product; the key row is
//! the stationary operand and every accumulator of a tile streams past it.
//! The software form is [`MacAcc::mac_tile`]: one coefficient-domain digit
//! polynomial per tile member goes in, is transformed under the target
//! limb, and is multiplied into that member's slots for every key row of
//! the call (a key-switch position is the tile of one). A chain runs under one
//! target limb and ends in one reduction per output coefficient:
//! [`MacAcc::reduce_into`] writes a slot's residues, and
//! [`MacAcc::fold_into`] — the CMux step — adds two slots, each times its
//! factor, into a canonical accumulator. [`MacAcc::reset`] is told the
//! chain's table, its terms per slot, its digit bound and how it ends, and
//! picks one of two datapaths from that and the process's SIMD tier, so
//! the algorithm loops above it never name one:
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
//! read the key row exactly as it is stored. The tier never changes inside
//! a process, so a narrow chain only ever runs the `f64`-lane kernels. It
//! bounds each slot's sum — a tile of many members shares one chain, but a
//! slot holds only its own member's terms — and panics rather than pass
//! the bound it is exact under, so no call sequence returns a wrong residue.

use crate::arith::Modulus;
use crate::ntt::NttTable;
use crate::simd;
use crate::simd::{F64_OPERAND_LIMIT, F64_SUM_LIMIT};

/// The datapath [`MacAcc::reset`] picked for a chain ([`MacAcc::path`]).
/// Both produce canonical residues of the same congruence class, so
/// results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacPath {
    /// `f64` lanes from digit to accumulator (4× the scalar wide path at 36
    /// bits).
    Narrow,
    /// `u128` accumulators fed by full products of canonical operands.
    #[default]
    Wide,
}

/// How a MAC chain ends, which bounds the sums a narrow chain may build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEnd {
    /// [`MacAcc::reduce_into`]: each sum is reduced as it is, so it must
    /// stay an exact `f64` integer, `terms·q ≤ 2^52`.
    Reduce,
    /// [`MacAcc::fold_into`]: each sum is multiplied by a factor first, so
    /// it must also fit the product's bound, `terms·q ≤ 2^50`.
    Fold,
}

pub(crate) mod sealed {
    pub trait Sealed {
        /// Whether the vector kernels load a `[Self]` as 32-bit integer
        /// lanes; the others are read as 64-bit ones.
        const NARROW: bool = false;
    }
    impl Sealed for i32 {
        const NARROW: bool = true;
    }
    impl Sealed for u64 {}
}

/// A digit coefficient the MAC datapath takes unreduced: `i32` (balanced
/// gadget digits) or `u64` (residues of another modulus). Sealed — the
/// vector kernel loads a `[T]` as integer lanes of its width.
pub trait LazyCoeff: Copy + sealed::Sealed {
    /// Canonical residues of `src` modulo `m`, for the wide path.
    fn lift_into(src: &[Self], m: &Modulus, out: &mut [u64]);
}

impl LazyCoeff for i32 {
    fn lift_into(src: &[Self], m: &Modulus, out: &mut [u64]) {
        assert_eq!(out.len(), src.len(), "length mismatch");
        for (o, &c) in out.iter_mut().zip(src) {
            *o = m.from_i64(i64::from(c));
        }
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
/// `b`).
pub type RowPair<'a> = [&'a [u64]; 2];

/// What a narrow chain's `f64`-lane kernel reports if it did not run. The
/// tier is fixed and [`MacAcc::reset`] only picks the narrow path where the
/// kernels run for the chain's table, so this never fires.
const OFF_KERNEL: &str = "narrow MAC chain off its f64-lane kernel";

/// Coefficients per slot per block of the accumulators. A tile's MAC walks
/// one block at a time: one block of every slot (padded), of every
/// member's operand and of the `2K` key rows is
/// `(slots·(BLOCK + MAC_PAD) + (T + 2K)·BLOCK)·8` bytes — 47 KB for the
/// CMux step's tile of 8 (`slots = 32`, `K = 2`). The size assumes a 48 KB
/// L1d, where that block stays resident while each key vector, loaded
/// once, meets every member; a 32 KB L1d does not hold it, and that case
/// is unmeasured. Rings smaller than this are one block. It was sized and
/// measured on one host only, a 2-core AVX-512F Xeon with a 48 KB L1d
/// (its 4-lane tier under `HEAP_SIMD=avx2`): a tile of 8 at `N = 2^11`
/// with fresh key rows took 15.4–17.6 µs blocked, 17.3–20.9 µs with
/// members innermost over the whole ring and 25.2–26.7 µs as one call per
/// member (EXPERIMENTS.md "The CMux tail at full width").
pub(crate) const MAC_BLOCK: usize = 128;

/// Coefficients of padding after each slot's run in a block and after each
/// member's operand: one 64-byte line, so runs of a power-of-two length do
/// not all map to the same few L1 sets (and a store to one slot does not
/// alias a load from the next at a 4 KB distance).
pub(crate) const MAC_PAD: usize = 8;

/// Lazy MAC accumulators: `slots` windows of `n` coefficients each, on the
/// path [`Self::reset`] picked, laid out block-major (the first
/// `MAC_BLOCK` coefficients of every slot, then the next), plus one
/// operand buffer per tile member the digits are transformed in. Buffers
/// are kept across resets, so a warm accumulator never allocates.
#[derive(Debug, Default)]
pub struct MacAcc {
    path: MacPath,
    n: usize,
    /// The modulus of the chain's table.
    q: u64,
    slots: usize,
    /// Coefficients per slot per block: `min(MAC_BLOCK, n)`.
    block: usize,
    /// Distance between two slots' runs in a block: `block + MAC_PAD`.
    stride: usize,
    /// Narrow: per slot, the sum of the moduli its terms were taken under
    /// since the reset — a bound on that slot's sum, as each term is below
    /// `q` in magnitude.
    bounds: Vec<u64>,
    /// The first slot of each member of the current call.
    firsts: Vec<usize>,
    /// Narrow: each member's transformed digit, signed-lazy, and the sums
    /// of signed terms — exact integers in `f64`.
    operands: Vec<f64>,
    narrow: Vec<f64>,
    /// Wide: the transformed digit as canonical residues, and the sums.
    spread: Vec<u64>,
    wide: Vec<u128>,
}

impl MacAcc {
    /// Zeroes `slots` windows for a chain under `ntt` of at most `terms`
    /// MACs per slot, on digits of magnitude at most `input_bound` (half the
    /// gadget base for signed digits, the largest source modulus for
    /// residues), that ends in `end` — and picks the chain's datapath.
    ///
    /// The narrow path needs its kernels to run, and to be exact, for this
    /// chain: an `f64`-lane tier active, `n ≥ 16`, `input_bound +
    /// log2(n)·q ≤ 2^50` (every product input stays an exact `f64` integer
    /// through the signed-lazy transform) and `terms·q` inside `end`'s
    /// bound (so does the sum). Anything else takes the wide path.
    pub fn reset(
        &mut self,
        ntt: &NttTable,
        slots: usize,
        terms: usize,
        input_bound: u64,
        end: ChainEnd,
    ) {
        let (n, q) = (ntt.n(), ntt.modulus().value());
        let sum_limit = match end {
            ChainEnd::Reduce => F64_SUM_LIMIT,
            ChainEnd::Fold => F64_OPERAND_LIMIT,
        };
        let block = n.min(MAC_BLOCK);
        (self.n, self.q, self.slots, self.block) = (n, q, slots, block);
        self.stride = block + MAC_PAD;
        let len = slots * (n / block) * self.stride;
        if simd::f64_mac_ok(n, q, input_bound, terms, sum_limit) {
            self.path = MacPath::Narrow;
            self.bounds.clear();
            self.bounds.resize(slots, 0);
            self.narrow.clear();
            self.narrow.resize(len, 0.0);
        } else {
            self.path = MacPath::Wide;
            self.spread.resize(n, 0);
            self.wide.clear();
            self.wide.resize(len, 0);
        }
    }

    /// The datapath [`Self::reset`] picked for the current chain.
    pub fn path(&self) -> MacPath {
        self.path
    }

    /// One key row against a tile: transforms each member's
    /// coefficient-domain digit under `ntt` and adds its pointwise product
    /// with every row into that member's slots, with no reduction of the
    /// sums. A member is `(first, digit)`; its product with `rows[k][p]`
    /// goes to slot `first + 2k + p`. The narrow path asks the cache for the
    /// rows, transforms all the digits while they arrive, then walks the
    /// accumulators block by block, converting each key vector once for the
    /// whole tile. Rows must be canonical
    /// residues; digits must respect the `input_bound` the chain was reset
    /// for. The table, the lengths and every slot's bound are checked once
    /// per call.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range, if `ntt` is not the chain's table,
    /// or if a digit or a row differs in length from it, and on a narrow
    /// chain where this call could take a slot's sum past `2^52` (`terms·q`
    /// per slot, the most [`Self::reset`] admits).
    pub fn mac_tile<'d, T: LazyCoeff + 'd, const K: usize>(
        &mut self,
        ntt: &NttTable,
        members: impl IntoIterator<Item = (usize, &'d [T])>,
        rows: [RowPair<'_>; K],
    ) {
        self.check_table(ntt);
        let n = self.n;
        assert!(
            rows.as_flattened().iter().all(|r| r.len() == n),
            "key row length mismatch"
        );
        if self.path == MacPath::Narrow {
            // The first block of each row; the hardware prefetcher follows
            // the MAC's sequential walk through the rest.
            for row in rows.as_flattened() {
                simd::prefetch(&row[..self.block]);
            }
        }
        self.firsts.clear();
        for (t, (first, digit)) in members.into_iter().enumerate() {
            assert_eq!(digit.len(), n, "length mismatch");
            assert!(first + 2 * K <= self.slots, "accumulator slot out of range");
            self.firsts.push(first);
            match self.path {
                MacPath::Narrow => {
                    for slot in first..first + 2 * K {
                        self.bounds[slot] = self.bounds[slot].saturating_add(self.q);
                        self.assert_narrow_within(slot, F64_SUM_LIMIT, "its exact bound");
                    }
                    let at = t * (n + MAC_PAD);
                    if self.operands.len() < at + n + MAC_PAD {
                        self.operands.resize(at + n + MAC_PAD, 0.0);
                    }
                    let operand = &mut self.operands[at..at + n];
                    assert!(ntt.forward_f64(digit, operand), "{OFF_KERNEL}");
                }
                MacPath::Wide => {
                    T::lift_into(digit, ntt.modulus(), &mut self.spread);
                    ntt.forward(&mut self.spread);
                    for b in 0..n / self.block {
                        let cols = b * self.block..(b + 1) * self.block;
                        for (s, row) in rows.as_flattened().iter().enumerate() {
                            let w = self.window(first + s, b);
                            let x = &self.spread[cols.clone()];
                            ntt.pointwise_mac_lazy(x, &row[cols.clone()], &mut self.wide[w]);
                        }
                    }
                }
            }
        }
        if self.path == MacPath::Narrow && !self.firsts.is_empty() {
            let operands = &self.operands[..self.firsts.len() * (n + MAC_PAD)];
            let (acc, block) = (&mut self.narrow, self.block);
            let ran = simd::try_mac_tile(operands, &self.firsts, rows, self.q, acc, block);
            assert!(ran, "{OFF_KERNEL}");
        }
    }

    /// Refuses a table other than the one the chain was reset for: its
    /// ring fixes every slice length, and its modulus the narrow gate.
    fn check_table(&self, ntt: &NttTable) {
        assert_eq!(ntt.n(), self.n, "length mismatch");
        assert_eq!(
            ntt.modulus().value(),
            self.q,
            "MAC chain under a modulus it was not reset for"
        );
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

    /// Block `b` of the slot's window.
    fn window(&self, slot: usize, b: usize) -> std::ops::Range<usize> {
        assert!(slot < self.slots, "accumulator slot out of range");
        let at = (b * self.slots + slot) * self.stride;
        at..at + self.block
    }

    /// Writes the canonical residues of `slot` to `out` — the single
    /// deferred reduction per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, if `ntt` is not the chain's table
    /// or if `out` differs in length from it.
    pub fn reduce_into(&self, slot: usize, ntt: &NttTable, out: &mut [u64]) {
        self.check_table(ntt);
        assert_eq!(out.len(), self.n, "length mismatch");
        for (b, out) in out.chunks_exact_mut(self.block).enumerate() {
            let w = self.window(slot, b);
            match self.path {
                MacPath::Narrow => {
                    let ran = simd::try_reduce_acc(&self.narrow[w], self.q, out);
                    assert!(ran, "{OFF_KERNEL}");
                }
                MacPath::Wide => ntt.reduce_acc_into(&self.wide[w], out),
            }
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
    /// Panics if a slot is out of range, if `ntt` is not the chain's table
    /// or a factor or `acc` differs in length from it, and on a narrow
    /// chain where either slot's sum may exceed `2^50` (`terms·q` per slot,
    /// the most [`Self::reset`] admits for [`ChainEnd::Fold`]).
    pub fn fold_into(
        &self,
        slots: [usize; 2],
        factors: [&[u64]; 2],
        ntt: &NttTable,
        acc: &mut [u64],
    ) {
        self.check_table(ntt);
        let fits = |x: &[u64]| x.len() == self.n;
        assert!(
            fits(acc) && factors.iter().all(|f| fits(f)),
            "length mismatch"
        );
        if self.path == MacPath::Narrow {
            for s in slots {
                self.assert_narrow_within(s, F64_OPERAND_LIMIT, "the fold's exact bound");
            }
        }
        let m = ntt.modulus();
        for (b, acc) in acc.chunks_exact_mut(self.block).enumerate() {
            let cols = b * self.block..(b + 1) * self.block;
            let factors = factors.map(|f| &f[cols.clone()]);
            let [w0, w1] = slots.map(|s| self.window(s, b));
            match self.path {
                MacPath::Narrow => {
                    let sums = [&self.narrow[w0], &self.narrow[w1]];
                    let ran = simd::try_fold_acc(sums, factors, self.q, acc);
                    assert!(ran, "{OFF_KERNEL}");
                }
                MacPath::Wide => {
                    // Exact in `u128` for `q < 2^62`.
                    let sums = [&self.wide[w0], &self.wide[w1]];
                    for (i, a) in acc.iter_mut().enumerate() {
                        let term = |k: usize| {
                            u128::from(m.reduce_u128(sums[k][i])) * u128::from(factors[k][i])
                        };
                        *a = m.reduce_u128(term(0) + term(1) + u128::from(*a));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly;
    use crate::prime::ntt_primes;

    fn table(n: usize, bits: u32) -> NttTable {
        NttTable::new(n, Modulus::new(ntt_primes(n as u64, bits, 1)[0]).unwrap())
    }

    /// The path [`MacAcc::reset`] picks for a one-slot chain.
    fn path_of(t: &NttTable, terms: usize, input_bound: u64, end: ChainEnd) -> MacPath {
        let mut acc = MacAcc::default();
        acc.reset(t, 1, terms, input_bound, end);
        acc.path()
    }

    /// The eager Barrett chain over the strict transform: `Σ digit·row`.
    fn eager(t: &NttTable, terms: &[(Vec<i32>, Vec<u64>)]) -> Vec<u64> {
        let mut want = vec![0u64; t.n()];
        for (digit, row) in terms {
            let wide: Vec<i64> = digit.iter().map(|&d| i64::from(d)).collect();
            let mut x = poly::from_signed(&wide, t.modulus());
            t.forward_strict(&mut x, false);
            t.pointwise_acc(&x, row, &mut want);
        }
        want
    }

    /// Whichever path the accumulator picks — narrow for 36 bits on an
    /// `f64`-lane tier, wide for 60 bits on every tier — it lands on the
    /// eager chain's residues, and its windows do not bleed into each
    /// other.
    #[test]
    fn either_path_matches_eager_chain() {
        let n = 32;
        for bits in [36, 60] {
            let t = table(n, bits);
            let q = t.modulus().value();
            let terms: Vec<(Vec<i32>, Vec<u64>)> = (0..3u64)
                .map(|r| {
                    let digit = (0..n as i32).map(|i| (i * 0x9E37 + r as i32) % 4096 - 2048);
                    let ops = (0..n as u64).map(|i| (i * i + 7 * r + 1) % q);
                    (digit.collect(), ops.collect())
                })
                .collect();
            let want = eager(&t, &terms);
            let mut acc = MacAcc::default();
            // Slot 0 stays empty: windows must not bleed into each other.
            acc.reset(&t, 3, terms.len(), 2048, ChainEnd::Reduce);
            let narrow = bits == 36 && simd::active().has_f64_lanes();
            assert_eq!(acc.path() == MacPath::Narrow, narrow, "{bits} bits");
            for (digit, ops) in &terms {
                acc.mac_tile(&t, [(1, &digit[..])], [[&ops[..], &ops[..]]]);
            }
            let mut got = vec![1u64; n];
            for slot in [1, 2] {
                acc.reduce_into(slot, &t, &mut got);
                assert_eq!(got, want, "{bits} bits, slot {slot}");
            }
            acc.reduce_into(0, &t, &mut got);
            assert_eq!(got, vec![0u64; n], "{bits} bits, slot 0");
        }
    }

    /// The bound is per slot: eight members, each with its own two slots,
    /// take `terms` calls apiece, so the chain makes `8·terms` calls while
    /// every slot stays at the fold's `terms·q ≤ 2^50`. Every member folds
    /// to the eager sequence's residues; on a narrow chain one more term in
    /// one slot is refused.
    #[test]
    fn narrow_bound_is_kept_per_slot() {
        let n = 16;
        let t = table(n, 45);
        let m = *t.modulus();
        let q = m.value();
        let (members, terms) = (8, ((1u64 << 50) / q) as usize);
        assert!((members * terms) as u128 * u128::from(q) > F64_SUM_LIMIT);
        let digit: Vec<i32> = (0..n as i32).map(|i| i * 977 - 5000).collect();
        let rows: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 31).collect();
        let factors = [&rows[..], &rows[..]];
        let sum = eager(&t, &[(digit.clone(), rows.clone())]);
        let count = m.reduce_u64(terms as u64);
        let want: Vec<u64> = (0..n)
            .map(|i| {
                let scaled = m.mul(m.mul(sum[i], count), rows[i]);
                m.add(7, m.add(scaled, scaled))
            })
            .collect();

        let mut acc = MacAcc::default();
        acc.reset(&t, 2 * members, terms, 5000, ChainEnd::Fold);
        assert_eq!(
            acc.path() == MacPath::Narrow,
            simd::active().has_f64_lanes()
        );
        for _ in 0..terms {
            for m in 0..members {
                acc.mac_tile(&t, [(2 * m, &digit[..])], [[&rows[..], &rows[..]]]);
            }
        }
        let mut out = vec![7u64; n * members];
        for (m, o) in out.chunks_mut(n).enumerate() {
            acc.fold_into([2 * m, 2 * m + 1], factors, &t, o);
            assert_eq!(o, want, "member {m}");
        }
        if acc.path() == MacPath::Narrow {
            acc.mac_tile(&t, [(0, &digit[..])], [[&rows[..], &rows[..]]]);
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                acc.fold_into([0, 1], factors, &t, &mut out[..n])
            }));
            assert!(refused.is_err(), "a slot folded past 2^50");
        }
    }

    /// The gate: the paper's shape runs narrow exactly where the tier has
    /// `f64` lanes, and each inequality is what sends a chain wide.
    #[test]
    fn reset_picks_the_path_from_tier_ring_modulus_input_terms_and_end() {
        let reduce = ChainEnd::Reduce;
        let t = table(1 << 11, 36);
        let q = t.modulus().value();
        let lanes = if simd::active().has_f64_lanes() {
            MacPath::Narrow
        } else {
            MacPath::Wide
        };
        // The paper's external product: 2·7·2 terms, digits of half 2^18.
        assert_eq!(path_of(&t, 28, 1 << 17, reduce), lanes);
        assert_eq!(path_of(&t, 28, 1 << 17, ChainEnd::Fold), lanes);
        // 60 bits: past the operand bound before any growth.
        assert_eq!(path_of(&table(32, 60), 1, 0, reduce), MacPath::Wide);
        // n = 8 has no radix-4 pass.
        assert_eq!(path_of(&table(8, 36), 1, 0, reduce), MacPath::Wide);
        // 2^50 of input leaves no room to grow.
        assert_eq!(path_of(&t, 1, 1 << 50, reduce), MacPath::Wide);
        // 2^52 / q terms is the last count whose sum stays exact, 2^50 / q
        // the last one whose sum the fold may multiply.
        let (sum_terms, fold_terms) = (((1u64 << 52) / q) as usize, ((1u64 << 50) / q) as usize);
        assert_eq!(path_of(&t, sum_terms, 0, reduce), lanes);
        assert_eq!(path_of(&t, sum_terms + 1, 0, reduce), MacPath::Wide);
        assert_eq!(path_of(&t, fold_terms, 0, ChainEnd::Fold), lanes);
        assert_eq!(
            path_of(&t, fold_terms + 1, 0, ChainEnd::Fold),
            MacPath::Wide
        );
    }
}
