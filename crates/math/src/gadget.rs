//! Gadget (digit) decomposition.
//!
//! RGSW external products and key switching decompose a mod-`q` value into
//! `d` signed digits of `base_bits` bits each so that multiplying by a key
//! only amplifies noise by `~base/2` per digit instead of `~q`. HEAP fixes
//! the decomposition degree `d = 2` for both CKKS and TFHE (paper §II-B,
//! §III-C); this module keeps `d` generic so the key-size scaling ablation
//! (§III-C) can sweep it.

use crate::arith::Modulus;
use crate::ntt::NttTable;
use crate::rns::Domain;

/// Signed digit decomposition with respect to a power-of-two base.
///
/// For a residue `x ∈ [0, q)` interpreted in balanced form, produces digits
/// `d_0..d_{k-1}` with `|d_i| <= base/2` and
/// `sum d_i * base^i ≡ x (mod q)`.
///
/// # Examples
///
/// ```
/// use heap_math::arith::Modulus;
/// use heap_math::gadget::Gadget;
///
/// let q = Modulus::new(heap_math::prime::ntt_primes(1 << 4, 36, 1)[0]).unwrap();
/// let g = Gadget::new(18, 2, q);
/// let digits = g.decompose_scalar(123_456_789);
/// assert_eq!(g.recompose(&digits), 123_456_789 % q.value());
/// ```
#[derive(Debug, Clone)]
pub struct Gadget {
    base_bits: u32,
    digits: usize,
    modulus: Modulus,
    /// base^i mod q for recomposition / key generation.
    powers: Vec<u64>,
}

impl Gadget {
    /// Creates a decomposer over `modulus` with `digits` digits of
    /// `base_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if the gadget cannot cover the modulus
    /// (`base_bits * digits < bits(q)`), if `base_bits` is zero or above 32,
    /// or if `digits` is zero.
    pub fn new(base_bits: u32, digits: usize, modulus: Modulus) -> Self {
        assert!(base_bits > 0 && base_bits <= 32, "base_bits out of range");
        assert!(digits > 0, "digits must be positive");
        assert!(
            (base_bits as usize) * digits >= modulus.bits() as usize,
            "gadget does not cover the modulus: {}*{} < {}",
            base_bits,
            digits,
            modulus.bits()
        );
        let base = 1u64 << base_bits;
        let mut powers = Vec::with_capacity(digits);
        let mut p = 1u64 % modulus.value();
        for _ in 0..digits {
            powers.push(p);
            p = modulus.mul(p, modulus.reduce_u64(base));
        }
        Self {
            base_bits,
            digits,
            modulus,
            powers,
        }
    }

    /// The decomposition base `B = 2^base_bits`.
    #[inline]
    pub fn base(&self) -> u64 {
        1u64 << self.base_bits
    }

    /// Number of digits `d`.
    #[inline]
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// `B^i mod q` for each digit index (the gadget vector `g`).
    #[inline]
    pub fn powers(&self) -> &[u64] {
        &self.powers
    }

    /// The modulus this gadget decomposes over.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Decomposes one residue into signed digits, each returned as a mod-`q`
    /// residue so it can feed modular MACs directly.
    pub fn decompose_scalar(&self, x: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.digits];
        self.decompose_scalar_into(x, &mut out);
        out
    }

    /// Decomposes one residue into the provided digit buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.digits()`.
    pub fn decompose_scalar_into(&self, x: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.digits);
        // Work with the balanced representative so digits stay small for
        // values near q (which represent small negative numbers).
        let mut signed = vec![0i64; self.digits];
        self.decompose_scalar_signed_into(x, &mut signed);
        for (slot, &d) in out.iter_mut().zip(&signed) {
            *slot = self.modulus.from_i64(d);
        }
    }

    /// Decomposes one residue into raw signed digits (`|d_i| <= base/2`),
    /// for use across *different* moduli (RNS-hybrid RGSW gadgets reduce the
    /// same signed digit under every prime of the basis).
    pub fn decompose_scalar_signed(&self, x: u64) -> Vec<i64> {
        let mut out = vec![0i64; self.digits];
        self.decompose_scalar_signed_into(x, &mut out);
        out
    }

    /// Signed decomposition into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.digits()`.
    pub fn decompose_scalar_signed_into(&self, x: u64, out: &mut [i64]) {
        assert_eq!(out.len(), self.digits);
        let q = self.modulus.value();
        debug_assert!(x < q);
        signed_digits(x, q, self.base_bits, self.digits, |k, d| out[k] = d);
    }

    /// Signed decomposition of a whole coefficient slice straight into
    /// digit-major buffers: `out[k][i]` receives digit `k` of `coeffs[i]`,
    /// written as the carry chain produces it, with no per-coefficient
    /// temporary and no transpose pass.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.digits()` or any `out[k].len()`
    /// differs from `coeffs.len()`.
    pub fn decompose_slice_signed_into(&self, coeffs: &[u64], out: &mut [Vec<i64>]) {
        assert_eq!(out.len(), self.digits);
        for row in out.iter() {
            assert_eq!(row.len(), coeffs.len());
        }
        let q = self.modulus.value();
        for (i, &c) in coeffs.iter().enumerate() {
            debug_assert!(c < q);
            signed_digits(c, q, self.base_bits, self.digits, |k, d| out[k][i] = d);
        }
    }

    /// The external product's decomposer: the signed digits of one limb,
    /// digit-major as `i32` (`out[k·n + i]` is digit `k` of coefficient
    /// `i`). An evaluation-domain `limb` (residues in `[0, 2q)`) is first
    /// brought back by `ntt`'s inverse transform, in `work`; where the
    /// `f64`-lane kernels run, that transform and the digit chain are one
    /// pass, with no canonical coefficient vector in between. A
    /// coefficient-domain `limb` (canonical residues) is decomposed as it
    /// is. Either way the digits equal [`Self::decompose_slice_signed_into`]
    /// of the canonical coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `ntt` is under another modulus, if `limb`, `work` or the
    /// `digits()` rows of `out` differ in length from `ntt`'s ring, or if
    /// the base is above `2^31` (a balanced digit of `2^31` does not fit an
    /// `i32`).
    pub fn decompose_limb_into(
        &self,
        ntt: &NttTable,
        limb: &[u64],
        domain: Domain,
        work: &mut [u64],
        out: &mut [i32],
    ) {
        let (n, q) = (ntt.n(), self.modulus.value());
        assert_eq!(
            ntt.modulus().value(),
            q,
            "gadget and table under different moduli"
        );
        assert!(
            limb.len() == n && work.len() == n && out.len() == self.digits * n,
            "length mismatch"
        );
        assert!(
            self.base_bits <= 31,
            "signed digits of {} bits do not fit an i32",
            self.base_bits
        );
        let coeffs = match domain {
            Domain::Coeff => limb,
            Domain::Eval => {
                if ntt.inverse_digits_f64(limb, work, self.base_bits, out) {
                    return;
                }
                work.copy_from_slice(limb);
                ntt.inverse(work);
                &*work
            }
        };
        for (i, &c) in coeffs.iter().enumerate() {
            debug_assert!(c < q);
            signed_digits(c, q, self.base_bits, self.digits, |k, d| {
                out[k * n + i] = d as i32;
            });
        }
    }

    /// Recomposes digits back into the original residue (test helper /
    /// specification of correctness).
    pub fn recompose(&self, digits: &[u64]) -> u64 {
        assert_eq!(digits.len(), self.digits);
        let mut acc = 0u64;
        for (d, p) in digits.iter().zip(&self.powers) {
            acc = self.modulus.add(acc, self.modulus.mul(*d, *p));
        }
        acc
    }
}

/// The balanced signed digit chain of one residue `c < q`: digit `k` of
/// `digits` (`|d_k| ≤ base/2`, `Σ d_k·2^(k·base_bits) ≡ c mod q`) goes to
/// `put(k, d_k)`. Every scalar decomposition runs this loop; the `f64`-lane
/// one (`simd/f64_lanes.rs`) runs the same chain on `|c|` and is pinned to
/// it by the parity suites.
#[inline]
pub(crate) fn signed_digits(
    c: u64,
    q: u64,
    base_bits: u32,
    digits: usize,
    mut put: impl FnMut(usize, i64),
) {
    let base = 1u64 << base_bits;
    let half = base >> 1;
    let mask = base - 1;
    // Balanced representative: residues above q/2 are negative (matches
    // `Modulus::to_signed`).
    let neg = c > q / 2;
    let mut mag = if neg { q - c } else { c };
    for k in 0..digits {
        let mut digit = mag & mask;
        mag >>= base_bits;
        if digit > half {
            digit = digit.wrapping_sub(base);
            mag += 1;
        }
        let d = digit as i64;
        put(k, if neg { -d } else { d });
    }
    debug_assert_eq!(mag, 0, "value exceeded gadget range");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn gadget(base_bits: u32, digits: usize) -> Gadget {
        let q = Modulus::new(ntt_primes(1 << 10, 36, 1)[0]).unwrap();
        Gadget::new(base_bits, digits, q)
    }

    #[test]
    fn roundtrip_exhaustive_small_values() {
        let g = gadget(18, 2);
        let q = g.modulus().value();
        for x in [
            0u64,
            1,
            2,
            1000,
            q - 1,
            q - 2,
            q / 2,
            q / 2 + 1,
            (1 << 35) + 7,
        ] {
            let digits = g.decompose_scalar(x);
            assert_eq!(g.recompose(&digits), x, "roundtrip failed for {x}");
        }
    }

    #[test]
    fn digits_are_balanced_small() {
        let g = gadget(18, 2);
        let q = *g.modulus();
        let half = (g.base() / 2) as i64;
        for x in (0..5000u64).map(|i| (i * 769_129 + 31) % q.value()) {
            for d in g.decompose_scalar(x) {
                let s = q.to_signed(d);
                assert!(s.abs() <= half + 1, "digit {s} exceeds bound for x={x}");
            }
        }
    }

    #[test]
    fn three_digit_gadget_roundtrips() {
        let g = gadget(13, 3);
        let q = g.modulus().value();
        for x in (0..2000u64).map(|i| (i * 104_729 + 5) % q) {
            assert_eq!(g.recompose(&g.decompose_scalar(x)), x);
        }
    }

    #[test]
    fn poly_decomposition_layout() {
        let g = gadget(18, 2);
        let q = *g.modulus();
        let poly = vec![5u64, 10, q.value() - 1];
        let mut ds = vec![vec![0i64; poly.len()]; g.digits()];
        g.decompose_slice_signed_into(&poly, &mut ds);
        for (i, &c) in poly.iter().enumerate() {
            let digits: Vec<u64> = ds.iter().map(|d| q.from_i64(d[i])).collect();
            assert_eq!(g.recompose(&digits), c);
        }
    }

    #[test]
    fn slice_decomposition_matches_scalar() {
        let g = gadget(18, 2);
        let q = g.modulus().value();
        let coeffs: Vec<u64> = (0..257u64).map(|i| (i * 769_129 + 31) % q).collect();
        let mut out = vec![vec![0i64; coeffs.len()]; g.digits()];
        g.decompose_slice_signed_into(&coeffs, &mut out);
        let mut scalar = vec![0i64; g.digits()];
        for (i, &c) in coeffs.iter().enumerate() {
            g.decompose_scalar_signed_into(c, &mut scalar);
            for (k, &d) in scalar.iter().enumerate() {
                assert_eq!(out[k][i], d, "coeff {i} digit {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn undersized_gadget_rejected() {
        gadget(10, 2); // 20 bits < 36-bit modulus
    }
}
