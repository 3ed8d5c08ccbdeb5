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
//! factor, into a canonical accumulator.
//!
//! There is one datapath, `f64` lanes from digit to accumulator at the
//! process's width ([`crate::simd`]): the digit is loaded straight into
//! doubles, the signed-lazy radix-4 transform leaves it there, every
//! product is added as a signed term below `q`, and each output coefficient
//! is reduced once, to the canonical residue the strict eager chain gives.
//! The key row is read exactly as it is stored. [`MacAcc::reset`] is told
//! the chain's table, its terms per slot, its digit bound and how it ends,
//! and refuses a chain whose digits or sums could pass the bounds it is
//! exact under ([`MacAcc::admits`]); every later call bounds each slot's
//! sum — a tile of many members shares one chain, but a slot holds only its
//! own member's terms — and panics rather than pass them, so no call
//! sequence returns a wrong residue.

use crate::ntt::NttTable;
use crate::simd;
use crate::simd::{F64_OPERAND_LIMIT, F64_SUM_LIMIT};

/// How a MAC chain ends, which bounds the sums it may build.
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
/// lane kernels load a `[T]` as integer lanes of its width.
pub trait LazyCoeff: Copy + sealed::Sealed {}

impl LazyCoeff for i32 {}

impl LazyCoeff for u64 {}

/// The two polynomials of one key row under one limb (an RLWE row's `a` and
/// `b`).
pub type RowPair<'a> = [&'a [u64]; 2];

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

/// Lazy MAC accumulators: `slots` windows of `n` coefficients each, laid
/// out block-major (the first `MAC_BLOCK` coefficients of every slot, then
/// the next), plus one operand buffer per tile member the digits are
/// transformed in. Buffers are kept across resets, so a warm accumulator
/// never allocates.
#[derive(Debug, Default)]
pub struct MacAcc {
    n: usize,
    /// The modulus of the chain's table.
    q: u64,
    slots: usize,
    /// Coefficients per slot per block: `min(MAC_BLOCK, n)`.
    block: usize,
    /// Distance between two slots' runs in a block: `block + MAC_PAD`.
    stride: usize,
    /// Per slot, the sum of the moduli its terms were taken under since the
    /// reset — a bound on that slot's sum, as each term is below `q` in
    /// magnitude.
    bounds: Vec<u64>,
    /// The first slot of each member of the current call.
    firsts: Vec<usize>,
    /// Each member's transformed digit, signed-lazy, and the sums of signed
    /// terms — exact integers in `f64`.
    operands: Vec<f64>,
    sums: Vec<f64>,
}

impl MacAcc {
    /// Whether a chain under `ntt` of at most `terms` MACs per slot, on
    /// digits of magnitude at most `input_bound`, that ends in `end` is
    /// exact in `f64` lanes: `input_bound + log2(n)·q ≤ 2^50` (every
    /// product input stays an exact `f64` integer through the signed-lazy
    /// transform) and `terms·q` inside `end`'s bound (so does every sum).
    /// [`Self::reset`] asserts it.
    pub fn admits(ntt: &NttTable, terms: usize, input_bound: u64, end: ChainEnd) -> bool {
        let q = ntt.modulus().value();
        let sum_limit = match end {
            ChainEnd::Reduce => F64_SUM_LIMIT,
            ChainEnd::Fold => F64_OPERAND_LIMIT,
        };
        simd::f64_ntt_ok(ntt.n(), q, input_bound) && terms as u128 * u128::from(q) <= sum_limit
    }

    /// Zeroes `slots` windows for a chain under `ntt` of at most `terms`
    /// MACs per slot, on digits of magnitude at most `input_bound` (half the
    /// gadget base for signed digits, the largest source modulus for
    /// residues), that ends in `end`.
    ///
    /// # Panics
    ///
    /// Panics if the chain is not exact in `f64` lanes ([`Self::admits`]).
    pub fn reset(
        &mut self,
        ntt: &NttTable,
        slots: usize,
        terms: usize,
        input_bound: u64,
        end: ChainEnd,
    ) {
        let (n, q) = (ntt.n(), ntt.modulus().value());
        assert!(
            Self::admits(ntt, terms, input_bound, end),
            "MAC chain past the f64 lanes' bounds: {terms} terms of digits up to \
             {input_bound} under q = {q} at n = {n}, ending in {end:?}"
        );
        let block = n.min(MAC_BLOCK);
        (self.n, self.q, self.slots, self.block) = (n, q, slots, block);
        self.stride = block + MAC_PAD;
        self.bounds.clear();
        self.bounds.resize(slots, 0);
        self.sums.clear();
        self.sums.resize(slots * (n / block) * self.stride, 0.0);
    }

    /// One key row against a tile: transforms each member's
    /// coefficient-domain digit under `ntt` and adds its pointwise product
    /// with every row into that member's slots, with no reduction of the
    /// sums. A member is `(first, digit)`; its product with `rows[k][p]`
    /// goes to slot `first + 2k + p`. Asks the cache for the rows,
    /// transforms all the digits while they arrive, then walks the
    /// accumulators block by block, converting each key vector once for the
    /// whole tile. Rows must be canonical residues; digits must respect the
    /// `input_bound` the chain was reset for. The table, the lengths and
    /// every slot's bound are checked once per call.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range, if `ntt` is not the chain's table,
    /// or if a digit or a row differs in length from it, and where this
    /// call could take a slot's sum past `2^52` (`terms·q` per slot, the
    /// most [`Self::reset`] admits).
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
        // The first block of each row; the hardware prefetcher follows the
        // MAC's sequential walk through the rest.
        for row in rows.as_flattened() {
            simd::prefetch(&row[..self.block]);
        }
        self.firsts.clear();
        for (t, (first, digit)) in members.into_iter().enumerate() {
            assert_eq!(digit.len(), n, "length mismatch");
            assert!(first + 2 * K <= self.slots, "accumulator slot out of range");
            self.firsts.push(first);
            for slot in first..first + 2 * K {
                self.bounds[slot] = self.bounds[slot].saturating_add(self.q);
                self.assert_within(slot, F64_SUM_LIMIT, "its exact bound");
            }
            let at = t * (n + MAC_PAD);
            if self.operands.len() < at + n + MAC_PAD {
                self.operands.resize(at + n + MAC_PAD, 0.0);
            }
            ntt.forward_f64(digit, &mut self.operands[at..at + n]);
        }
        if !self.firsts.is_empty() {
            let operands = &self.operands[..self.firsts.len() * (n + MAC_PAD)];
            let (sums, q, block) = (&mut self.sums, self.q, self.block);
            simd::mac_tile(operands, &self.firsts, rows, q, sums, block);
        }
    }

    /// Refuses a table other than the one the chain was reset for: its
    /// ring fixes every slice length, and its modulus the chain's bounds.
    fn check_table(&self, ntt: &NttTable) {
        assert_eq!(ntt.n(), self.n, "length mismatch");
        assert_eq!(
            ntt.modulus().value(),
            self.q,
            "MAC chain under a modulus it was not reset for"
        );
    }

    /// Refuses a chain whose sum in `slot` may exceed `limit`.
    fn assert_within(&self, slot: usize, limit: u128, bound: &str) {
        let sum = self.bounds[slot];
        assert!(
            u128::from(sum) <= limit,
            "MAC chain past {bound}: slot {slot} may sum to {sum} (2^{:.1})",
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
            simd::reduce_acc(&self.sums[self.window(slot, b)], self.q, out);
        }
    }

    /// The CMux step's one reduction: `acc ← acc + f₀·S₀ + f₁·S₁ mod q`,
    /// where `S_k` is the unreduced sum in `slots[k]` and `f_k` its factor.
    /// `acc` and both factors must be canonical residues. The sums are
    /// folded in `f64` lanes straight from the accumulators; no product is
    /// materialised.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range, if `ntt` is not the chain's table
    /// or a factor or `acc` differs in length from it, and where either
    /// slot's sum may exceed `2^50` (`terms·q` per slot, the most
    /// [`Self::reset`] admits for [`ChainEnd::Fold`]).
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
        for s in slots {
            self.assert_within(s, F64_OPERAND_LIMIT, "the fold's exact bound");
        }
        for (b, acc) in acc.chunks_exact_mut(self.block).enumerate() {
            let cols = b * self.block..(b + 1) * self.block;
            let factors = factors.map(|f| &f[cols.clone()]);
            let sums = slots.map(|s| &self.sums[self.window(s, b)]);
            simd::fold_acc(sums, factors, self.q, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::Modulus;
    use crate::poly;
    use crate::prime::ntt_primes;

    fn table(n: usize, bits: u32) -> NttTable {
        NttTable::new(n, Modulus::new(ntt_primes(n as u64, bits, 1)[0]).unwrap())
    }

    /// Whether [`MacAcc::reset`] takes a one-slot chain; a refusal must
    /// name the bound, and agree with [`MacAcc::admits`].
    fn resets(t: &NttTable, terms: usize, input_bound: u64, end: ChainEnd) -> bool {
        let reset = std::panic::catch_unwind(|| {
            MacAcc::default().reset(t, 1, terms, input_bound, end);
        });
        if let Err(err) = &reset {
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("past the f64 lanes' bounds"), "{msg}");
        }
        assert_eq!(reset.is_ok(), MacAcc::admits(t, terms, input_bound, end));
        reset.is_ok()
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

    /// At 36 bits and at 45 — the widest class every ring up to `2^16`
    /// admits — the chain lands on the eager chain's residues, and its
    /// windows do not bleed into each other.
    #[test]
    fn chain_matches_eager_chain() {
        let n = 32;
        for bits in [36, 45] {
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
    /// to the eager sequence's residues, and one more term in one slot is
    /// refused.
    #[test]
    fn bound_is_kept_per_slot() {
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
        acc.mac_tile(&t, [(0, &digit[..])], [[&rows[..], &rows[..]]]);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            acc.fold_into([0, 1], factors, &t, &mut out[..n])
        }));
        assert!(refused.is_err(), "a slot folded past 2^50");
    }

    /// The gate: the paper's shape resets, and each inequality is what has
    /// `reset` refuse a chain.
    #[test]
    fn reset_refuses_a_chain_past_each_bound() {
        let reduce = ChainEnd::Reduce;
        let t = table(1 << 11, 36);
        let q = t.modulus().value();
        // The paper's external product: 2·7·2 terms, digits of half 2^18.
        assert!(resets(&t, 28, 1 << 17, reduce));
        assert!(resets(&t, 28, 1 << 17, ChainEnd::Fold));
        // 2^50 of input leaves no room to grow.
        assert!(!resets(&t, 1, 1 << 50, reduce));
        // 2^52 / q terms is the last count whose sum stays exact, 2^50 / q
        // the last one whose sum the fold may multiply.
        let (sum_terms, fold_terms) = (((1u64 << 52) / q) as usize, ((1u64 << 50) / q) as usize);
        assert!(resets(&t, sum_terms, 0, reduce));
        assert!(!resets(&t, sum_terms + 1, 0, reduce));
        assert!(resets(&t, fold_terms, 0, ChainEnd::Fold));
        assert!(!resets(&t, fold_terms + 1, 0, ChainEnd::Fold));
    }
}
