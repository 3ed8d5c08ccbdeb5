//! Residue number system (RNS) polynomials and basis conversion.
//!
//! CKKS ciphertext polynomials live in `R_Q` with `Q = prod q_i` far wider
//! than a machine word; the RNS decomposition stores one "limb" per prime
//! `q_i` so all arithmetic is word-sized (paper §II-A). This module provides
//! the limbed polynomial type [`RnsPoly`], its shared precomputation context
//! [`RnsContext`], the `Rescale` primitive, exact CRT recombination (via
//! Garner's algorithm), modulus raising for bootstrapping, and the fast
//! basis conversion used by `ModUp`/`ModDown` in key switching.

use crate::arith::Modulus;
use crate::bigint::BigUint;
use crate::ntt::NttTable;
use crate::poly;

/// Representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Coefficient representation.
    Coeff,
    /// Evaluation (NTT) representation. CKKS keeps ciphertexts here by
    /// default.
    Eval,
}

/// Shared precomputation for a ring dimension and an ordered prime chain
/// `q_0, q_1, ..., q_{L-1}` (optionally followed by special primes — the
/// caller decides how many limbs each polynomial uses).
#[derive(Debug)]
pub struct RnsContext {
    n: usize,
    moduli: Vec<Modulus>,
    ntts: Vec<NttTable>,
    /// `garner_inv[j][i] = q_i^{-1} mod q_j` for `i < j`.
    garner_inv: Vec<Vec<u64>>,
}

impl RnsContext {
    /// Builds a context for ring dimension `n` over the given primes
    /// (each must satisfy `q ≡ 1 mod 2n`; verified by NTT table
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `primes` is empty or contains duplicates, or if any prime
    /// is unusable for the negacyclic NTT at dimension `n`.
    pub fn new(n: usize, primes: &[u64]) -> Self {
        assert!(!primes.is_empty(), "at least one prime required");
        let mut moduli = Vec::with_capacity(primes.len());
        let mut ntts = Vec::with_capacity(primes.len());
        for (i, &p) in primes.iter().enumerate() {
            assert!(
                !primes[..i].contains(&p),
                "duplicate prime {p} in RNS basis"
            );
            let m = Modulus::new(p).expect("invalid prime");
            ntts.push(NttTable::new(n, m));
            moduli.push(m);
        }
        let mut garner_inv = Vec::with_capacity(primes.len());
        for j in 0..moduli.len() {
            let mut row = Vec::with_capacity(j);
            for i in 0..j {
                let qi = moduli[j].reduce_u64(moduli[i].value());
                row.push(moduli[j].inv(qi).expect("distinct primes"));
            }
            garner_inv.push(row);
        }
        Self {
            n,
            moduli,
            ntts,
            garner_inv,
        }
    }

    /// Ring dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of primes in the full chain.
    #[inline]
    pub fn max_limbs(&self) -> usize {
        self.moduli.len()
    }

    /// The prime chain.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Modulus of limb `i`.
    #[inline]
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// NTT table of limb `i`.
    #[inline]
    pub fn ntt(&self, i: usize) -> &NttTable {
        &self.ntts[i]
    }

    /// `prod_{i<limbs} q_i` as an exact big integer.
    pub fn big_modulus(&self, limbs: usize) -> BigUint {
        let words: Vec<u64> = self.moduli[..limbs].iter().map(|m| m.value()).collect();
        BigUint::product_of(&words)
    }

    /// Exact centered CRT recombination of one coefficient given its
    /// residues in the first `residues.len()` limbs.
    ///
    /// Returns the balanced representative as `(negative, magnitude)`.
    pub fn crt_centered(&self, residues: &[u64]) -> (bool, BigUint) {
        let l = residues.len();
        debug_assert!(l <= self.moduli.len());
        // Garner mixed-radix digits.
        let mut digits = vec![0u64; l];
        for j in 0..l {
            let qj = &self.moduli[j];
            let mut c = qj.reduce_u64(residues[j]);
            for (i, &di) in digits.iter().enumerate().take(j) {
                let vi = qj.reduce_u64(di);
                c = qj.mul(qj.sub(c, vi), self.garner_inv[j][i]);
            }
            digits[j] = c;
        }
        // Horner evaluation: value = d_0 + q_0 (d_1 + q_1 (d_2 + ...)).
        let mut value = BigUint::from_u64(digits[l - 1]);
        for j in (0..l - 1).rev() {
            value.mul_u64(self.moduli[j].value());
            value.add_u64(digits[j]);
        }
        let big_q = self.big_modulus(l);
        let mut doubled = value.clone();
        doubled.add_assign(&value);
        if doubled.cmp_big(&big_q) == std::cmp::Ordering::Greater {
            let mut mag = big_q;
            mag.sub_assign(&value);
            (true, mag)
        } else {
            (false, value)
        }
    }
}

/// A polynomial in RNS representation over a prefix of a context's prime
/// chain.
///
/// The limb count doubles as the CKKS "level": `Rescale` drops the last
/// limb. All binary operations require matching limb counts and domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    limbs: Vec<Vec<u64>>,
    domain: Domain,
}

impl RnsPoly {
    /// The all-zero polynomial with `limbs` limbs.
    pub fn zero(ctx: &RnsContext, limbs: usize, domain: Domain) -> Self {
        assert!(limbs >= 1 && limbs <= ctx.max_limbs());
        Self {
            limbs: vec![vec![0u64; ctx.n()]; limbs],
            domain,
        }
    }

    /// Builds a coefficient-domain polynomial from signed coefficients,
    /// reduced into each of the first `limbs` moduli.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != ctx.n()` or `limbs` is out of range.
    pub fn from_signed(ctx: &RnsContext, coeffs: &[i64], limbs: usize) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        assert!(limbs >= 1 && limbs <= ctx.max_limbs());
        let limbs = (0..limbs)
            .map(|i| poly::from_signed(coeffs, ctx.modulus(i)))
            .collect();
        Self {
            limbs,
            domain: Domain::Coeff,
        }
    }

    /// Wraps raw limb data (used by samplers and tests).
    ///
    /// # Panics
    ///
    /// Panics if limb lengths are inconsistent.
    pub fn from_limbs(limbs: Vec<Vec<u64>>, domain: Domain) -> Self {
        assert!(!limbs.is_empty());
        let n = limbs[0].len();
        assert!(limbs.iter().all(|l| l.len() == n), "ragged limbs");
        Self { limbs, domain }
    }

    /// Number of limbs (the level + 1 in CKKS terms).
    #[inline]
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Current representation domain.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Borrow of limb `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// Mutable borrow of limb `i`.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.limbs[i]
    }

    /// All limbs.
    #[inline]
    pub fn limbs(&self) -> &[Vec<u64>] {
        &self.limbs
    }

    /// Mutable borrows of every limb, in order (lengths fixed).
    pub fn limbs_mut(&mut self) -> impl Iterator<Item = &mut [u64]> {
        self.limbs.iter_mut().map(Vec::as_mut_slice)
    }

    /// Converts to evaluation domain in place (no-op if already there).
    pub fn to_eval(&mut self, ctx: &RnsContext) {
        if self.domain == Domain::Eval {
            return;
        }
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            ctx.ntt(i).forward(limb);
        }
        self.domain = Domain::Eval;
    }

    /// Converts to coefficient domain in place (no-op if already there).
    pub fn to_coeff(&mut self, ctx: &RnsContext) {
        if self.domain == Domain::Coeff {
            return;
        }
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            ctx.ntt(i).inverse(limb);
        }
        self.domain = Domain::Coeff;
    }

    /// Overwrites `self` with `other`'s contents, reusing `self`'s limb
    /// allocations when shapes match (the allocation-free hot paths rely on
    /// this instead of `clone`).
    pub fn copy_from(&mut self, other: &RnsPoly) {
        self.domain = other.domain;
        // Reuse limb buffers; only (de)allocate on shape change.
        self.limbs.truncate(other.limbs.len());
        for (dst, src) in self.limbs.iter_mut().zip(&other.limbs) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        for src in &other.limbs[self.limbs.len()..] {
            self.limbs.push(src.clone());
        }
    }

    /// Resets to all-zero limbs in the given domain without reallocating.
    pub fn clear(&mut self, domain: Domain) {
        for limb in &mut self.limbs {
            limb.fill(0);
        }
        self.domain = domain;
    }

    /// Re-tags the representation domain without transforming or touching
    /// coefficient data.
    ///
    /// For hot paths that overwrite every limb wholesale (e.g. the lazy
    /// external product reduces its `u128` accumulators straight into the
    /// output limbs): the write already establishes the new
    /// representation, so a [`Self::clear`] zero-fill beforehand would be
    /// wasted work. The caller asserts the data really is in `domain`.
    #[inline]
    pub fn set_domain(&mut self, domain: Domain) {
        self.domain = domain;
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.limbs.len(), other.limbs.len(), "limb count mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
    }

    /// `self += other` (limb-wise).
    pub fn add_assign(&mut self, other: &RnsPoly, ctx: &RnsContext) {
        self.check_compatible(other);
        for (i, (a, b)) in self.limbs.iter_mut().zip(&other.limbs).enumerate() {
            poly::add_assign(a, b, ctx.modulus(i));
        }
    }

    /// `self -= other` (limb-wise).
    pub fn sub_assign(&mut self, other: &RnsPoly, ctx: &RnsContext) {
        self.check_compatible(other);
        for (i, (a, b)) in self.limbs.iter_mut().zip(&other.limbs).enumerate() {
            poly::sub_assign(a, b, ctx.modulus(i));
        }
    }

    /// Negates in place.
    pub fn neg_assign(&mut self, ctx: &RnsContext) {
        for (i, a) in self.limbs.iter_mut().enumerate() {
            poly::neg_assign(a, ctx.modulus(i));
        }
    }

    /// Pointwise product (both operands must be in evaluation domain).
    ///
    /// # Panics
    ///
    /// Panics on domain/limb mismatch or if either operand is in
    /// coefficient domain.
    pub fn mul_pointwise(&self, other: &RnsPoly, ctx: &RnsContext) -> RnsPoly {
        self.check_compatible(other);
        assert_eq!(self.domain, Domain::Eval, "pointwise product needs Eval");
        let mut limbs: Vec<Vec<u64>> = self.limbs.iter().map(|a| vec![0u64; a.len()]).collect();
        for (i, out) in limbs.iter_mut().enumerate() {
            ctx.ntt(i).pointwise(&self.limbs[i], &other.limbs[i], out);
        }
        RnsPoly {
            limbs,
            domain: Domain::Eval,
        }
    }

    /// `self += a * b` pointwise (all in evaluation domain).
    pub fn mul_acc(&mut self, a: &RnsPoly, b: &RnsPoly, ctx: &RnsContext) {
        a.check_compatible(b);
        self.check_compatible(a);
        assert_eq!(self.domain, Domain::Eval);
        for (i, acc) in self.limbs.iter_mut().enumerate() {
            ctx.ntt(i).pointwise_acc(&a.limbs[i], &b.limbs[i], acc);
        }
    }

    /// Multiplies by a signed scalar (domain-independent).
    pub fn scalar_mul_assign(&mut self, s: i64, ctx: &RnsContext) {
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let m = ctx.modulus(i);
            poly::scalar_mul_assign(a, m.from_i64(s), m);
        }
    }

    /// Applies the automorphism `X ↦ X^g` (coefficient domain only).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in evaluation domain.
    pub fn automorphism(&self, g: usize, ctx: &RnsContext) -> RnsPoly {
        assert_eq!(
            self.domain,
            Domain::Coeff,
            "automorphism needs Coeff domain"
        );
        let limbs = self
            .limbs
            .iter()
            .enumerate()
            .map(|(i, l)| poly::automorphism(l, g, ctx.modulus(i)))
            .collect();
        RnsPoly {
            limbs,
            domain: Domain::Coeff,
        }
    }

    /// Drops the last limb without scaling (modulus reduction).
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn drop_last(&mut self) {
        assert!(self.limbs.len() > 1, "cannot drop the last remaining limb");
        self.limbs.pop();
    }

    /// `Rescale`: divides by the last prime `q_l` (with centered rounding)
    /// and drops that limb, keeping the current domain.
    ///
    /// This is the approximate RNS flooring used throughout RNS-CKKS; the
    /// rounding error per coefficient is at most 1/2 + (limb count) ULP.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn rescale(&mut self, ctx: &RnsContext) {
        assert!(self.limbs.len() > 1, "rescale needs at least two limbs");
        let was_eval = self.domain == Domain::Eval;
        let last_idx = self.limbs.len() - 1;
        let mut last = self.limbs.pop().expect("non-empty");
        if was_eval {
            ctx.ntt(last_idx).inverse(&mut last);
        }
        let q_last = ctx.modulus(last_idx);
        // Centered representative of the dropped limb for rounding.
        let centered: Vec<i64> = last.iter().map(|&c| q_last.to_signed(c)).collect();
        for (j, limb) in self.limbs.iter_mut().enumerate() {
            let qj = ctx.modulus(j);
            let inv = qj
                .inv(qj.reduce_u64(q_last.value()))
                .expect("distinct primes");
            if was_eval {
                // Bring the correction into Eval domain under q_j.
                let mut corr: Vec<u64> = centered.iter().map(|&c| qj.from_i64(c)).collect();
                ctx.ntt(j).forward(&mut corr);
                for (x, c) in limb.iter_mut().zip(&corr) {
                    *x = qj.mul(qj.sub(*x, *c), inv);
                }
            } else {
                for (x, &c) in limb.iter_mut().zip(&centered) {
                    *x = qj.mul(qj.sub(*x, qj.from_i64(c)), inv);
                }
            }
        }
    }

    /// Modulus raising: reinterprets the first limb's centered value in a
    /// larger basis with `target_limbs` limbs (coefficient domain only).
    ///
    /// This is the bootstrap's "raise to Q'" step — the hidden `k·q_0` wrap
    /// term becomes part of the message and must be removed by the
    /// scheme-switched bootstrap.
    ///
    /// # Panics
    ///
    /// Panics unless the polynomial has exactly one limb and is in
    /// coefficient domain.
    pub fn raise_from_single_limb(&self, ctx: &RnsContext, target_limbs: usize) -> RnsPoly {
        assert_eq!(self.limbs.len(), 1, "raise expects an exhausted ciphertext");
        assert_eq!(self.domain, Domain::Coeff);
        assert!(target_limbs >= 1 && target_limbs <= ctx.max_limbs());
        let q0 = ctx.modulus(0);
        let centered: Vec<i64> = self.limbs[0].iter().map(|&c| q0.to_signed(c)).collect();
        RnsPoly::from_signed(ctx, &centered, target_limbs)
    }

    /// Exact centered value of every coefficient as `f64` (decode path).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in evaluation domain.
    pub fn to_centered_f64(&self, ctx: &RnsContext) -> Vec<f64> {
        assert_eq!(self.domain, Domain::Coeff, "decode needs Coeff domain");
        let l = self.limbs.len();
        let n = self.limbs[0].len();
        let mut out = Vec::with_capacity(n);
        let mut residues = vec![0u64; l];
        for c in 0..n {
            for (i, limb) in self.limbs.iter().enumerate() {
                residues[i] = limb[c];
            }
            let (neg, mag) = ctx.crt_centered(&residues);
            let v = mag.to_f64();
            out.push(if neg { -v } else { v });
        }
        out
    }
}

/// Fast conversion of RNS residues from one prime basis to another
/// (`ModUp`/`ModDown` workhorse; HEAP runs it on the external-product MAC
/// datapath, §IV-E).
///
/// Uses the floating-point wrap estimate of Halevi–Polyakov–Shoup, which is
/// exact for the limb counts used here.
#[derive(Debug)]
pub struct BasisConverter {
    from: Vec<Modulus>,
    to: Vec<Modulus>,
    /// `(Q/q_i)^{-1} mod q_i`.
    q_hat_inv: Vec<u64>,
    /// `(Q/q_i) mod t_j`, indexed `[i][j]`.
    q_hat_mod_to: Vec<Vec<u64>>,
    /// `Q mod t_j`.
    q_mod_to: Vec<u64>,
}

impl BasisConverter {
    /// Precomputes conversion constants from basis `from` to basis `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty or the bases share a prime.
    pub fn new(from: &[Modulus], to: &[Modulus]) -> Self {
        assert!(!from.is_empty());
        for t in to {
            assert!(
                from.iter().all(|f| f.value() != t.value()),
                "bases must be disjoint"
            );
        }
        let l = from.len();
        let mut q_hat_inv = Vec::with_capacity(l);
        let mut q_hat_mod_to = Vec::with_capacity(l);
        for i in 0..l {
            // (prod_{k != i} q_k) mod q_i and mod each t_j.
            let mut hat_mod_qi = 1u64;
            for (k, f) in from.iter().enumerate() {
                if k != i {
                    hat_mod_qi = from[i].mul(hat_mod_qi, from[i].reduce_u64(f.value()));
                }
            }
            q_hat_inv.push(from[i].inv(hat_mod_qi).expect("distinct primes"));
            let mut row = Vec::with_capacity(to.len());
            for t in to {
                let mut hat = 1u64;
                for (k, f) in from.iter().enumerate() {
                    if k != i {
                        hat = t.mul(hat, t.reduce_u64(f.value()));
                    }
                }
                row.push(hat);
            }
            q_hat_mod_to.push(row);
        }
        let q_mod_to = to
            .iter()
            .map(|t| {
                let mut acc = 1u64;
                for f in from {
                    acc = t.mul(acc, t.reduce_u64(f.value()));
                }
                acc
            })
            .collect();
        Self {
            from: from.to_vec(),
            to: to.to_vec(),
            q_hat_inv,
            q_hat_mod_to,
            q_mod_to,
        }
    }

    /// Source basis.
    pub fn from_basis(&self) -> &[Modulus] {
        &self.from
    }

    /// Destination basis.
    pub fn to_basis(&self) -> &[Modulus] {
        &self.to
    }

    /// Converts coefficient-domain limbs over `from` into limbs over `to`.
    ///
    /// The input value `x ∈ [0, Q)` is reproduced exactly in the target
    /// basis (same integer representative, *not* centered) whenever
    /// `x < Q·(1 - l·2^-52)`; for `x` within rounding distance of `Q` the
    /// result may be `x - Q` instead (one extra wrap). Key switching
    /// tolerates this off-by-`Q` term: it enters the noise scaled by `1/P`
    /// after `ModDown`, exactly as in the approximate HPS conversion HEAP's
    /// external-product datapath implements.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != from.len()` or lengths are ragged.
    pub fn convert(&self, limbs: &[&[u64]]) -> Vec<Vec<u64>> {
        assert_eq!(limbs.len(), self.from.len());
        let n = limbs[0].len();
        assert!(limbs.iter().all(|l| l.len() == n));
        let l = self.from.len();
        let mut y = vec![0u64; l];
        let mut out = vec![vec![0u64; n]; self.to.len()];
        for c in 0..n {
            let mut frac = 0.0f64;
            for i in 0..l {
                let yi = self.from[i].mul(limbs[i][c], self.q_hat_inv[i]);
                y[i] = yi;
                frac += yi as f64 / self.from[i].value() as f64;
            }
            let v = (frac + 0.5).floor() as u64; // wraps of Q
            for (j, t) in self.to.iter().enumerate() {
                let mut acc = 0u64;
                for (i, &yi) in y.iter().enumerate() {
                    acc = t.mul_add(t.reduce_u64(yi), self.q_hat_mod_to[i][j], acc);
                }
                let wrap = t.mul(t.reduce_u64(v), self.q_mod_to[j]);
                out[j][c] = t.sub(acc, wrap);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{ntt_primes, ntt_primes_excluding};

    fn ctx(log_n: u32, limbs: usize) -> RnsContext {
        let n = 1usize << log_n;
        RnsContext::new(n, &ntt_primes(n as u64, 36, limbs))
    }

    #[test]
    fn from_signed_and_crt_roundtrip() {
        let c = ctx(4, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| (i as i64 - 8) * 1_000_003).collect();
        let p = RnsPoly::from_signed(&c, &coeffs, 3);
        let back = p.to_centered_f64(&c);
        for (a, b) in coeffs.iter().zip(&back) {
            assert_eq!(*a as f64, *b);
        }
    }

    #[test]
    fn eval_coeff_roundtrip() {
        let c = ctx(6, 2);
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64 * 17 - 500).collect();
        let mut p = RnsPoly::from_signed(&c, &coeffs, 2);
        let orig = p.clone();
        p.to_eval(&c);
        assert_ne!(p, orig);
        p.to_coeff(&c);
        assert_eq!(p, orig);
    }

    #[test]
    fn pointwise_mul_matches_integer_product() {
        let c = ctx(4, 3);
        let a_c: Vec<i64> = (0..16).map(|i| i as i64 + 1).collect();
        let b_c: Vec<i64> = (0..16).map(|i| 2 * i as i64 - 5).collect();
        let mut a = RnsPoly::from_signed(&c, &a_c, 3);
        let mut b = RnsPoly::from_signed(&c, &b_c, 3);
        a.to_eval(&c);
        b.to_eval(&c);
        let mut prod = a.mul_pointwise(&b, &c);
        prod.to_coeff(&c);
        let got = prod.to_centered_f64(&c);
        // Schoolbook negacyclic reference over the integers.
        let n = 16usize;
        let mut expect = vec![0f64; n];
        for i in 0..n {
            for j in 0..n {
                let p = (a_c[i] * b_c[j]) as f64;
                if i + j < n {
                    expect[i + j] += p;
                } else {
                    expect[i + j - n] -= p;
                }
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let c = ctx(4, 3);
        let q2 = c.modulus(2).value() as i64;
        // Encode q2 * k so the rescale is exact.
        let coeffs: Vec<i64> = (0..16).map(|i| (i as i64 - 8) * q2).collect();
        for eval in [false, true] {
            let mut p = RnsPoly::from_signed(&c, &coeffs, 3);
            if eval {
                p.to_eval(&c);
            }
            p.rescale(&c);
            assert_eq!(p.limb_count(), 2);
            if eval {
                p.to_coeff(&c);
            }
            let got = p.to_centered_f64(&c);
            for (i, g) in got.iter().enumerate() {
                assert_eq!(*g, (i as i64 - 8) as f64, "coeff {i} (eval={eval})");
            }
        }
    }

    #[test]
    fn rescale_rounds_inexact_values() {
        let c = ctx(4, 2);
        let q1 = c.modulus(1).value() as i64;
        let coeffs: Vec<i64> = (0..16).map(|i| (i as i64) * q1 + q1 / 3).collect();
        let mut p = RnsPoly::from_signed(&c, &coeffs, 2);
        p.rescale(&c);
        let got = p.to_centered_f64(&c);
        for (i, g) in got.iter().enumerate() {
            assert!((g - i as f64).abs() <= 1.0, "coeff {i}: {g}");
        }
    }

    #[test]
    fn raise_reintroduces_wrap_multiples() {
        let c = ctx(4, 3);
        let q0 = c.modulus(0).value();
        // A value that, centered mod q0, is small.
        let coeffs: Vec<i64> = (0..16).map(|i| i as i64 - 8).collect();
        let p = RnsPoly::from_signed(&c, &coeffs, 1);
        let raised = p.raise_from_single_limb(&c, 3);
        assert_eq!(raised.limb_count(), 3);
        let got = raised.to_centered_f64(&c);
        for (a, b) in coeffs.iter().zip(&got) {
            assert_eq!(*a as f64, *b);
        }
        // Large values wrap: q0-1 centered is -1.
        let mut big = vec![0i64; 16];
        big[0] = (q0 - 1) as i64;
        let p = RnsPoly::from_limbs(vec![poly::from_signed(&big, c.modulus(0))], Domain::Coeff);
        let raised = p.raise_from_single_limb(&c, 2);
        assert_eq!(raised.to_centered_f64(&c)[0], -1.0);
    }

    #[test]
    fn basis_conversion_exact() {
        let n = 1u64 << 4;
        let from_p = ntt_primes(n, 36, 2);
        let to_p = ntt_primes_excluding(n, 36, 2, &from_p);
        let from: Vec<Modulus> = from_p.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let to: Vec<Modulus> = to_p.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let conv = BasisConverter::new(&from, &to);
        // Value x = 123456789123 in both source limbs.
        let x: u64 = 123_456_789_123;
        let l0: Vec<u64> = vec![x % from[0].value(); 16];
        let l1: Vec<u64> = vec![x % from[1].value(); 16];
        let out = conv.convert(&[&l0, &l1]);
        assert_eq!(out[0][0], x % to[0].value());
        assert_eq!(out[1][3], x % to[1].value());
    }

    #[test]
    fn basis_conversion_handles_large_values() {
        // Near-Q values must convert exactly (wrap estimate correctness).
        let n = 1u64 << 3;
        let from_p = ntt_primes(n, 20, 3);
        let to_p = ntt_primes_excluding(n, 20, 1, &from_p);
        let from: Vec<Modulus> = from_p.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let to: Vec<Modulus> = to_p.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let conv = BasisConverter::new(&from, &to);
        let q: u128 = from_p.iter().map(|&p| p as u128).product();
        for value in [0u128, 1, q - 1, q / 2, q / 2 + 1, q - 12345] {
            let limbs: Vec<Vec<u64>> = from
                .iter()
                .map(|m| vec![(value % m.value() as u128) as u64; 8])
                .collect();
            let refs: Vec<&[u64]> = limbs.iter().map(|l| l.as_slice()).collect();
            let out = conv.convert(&refs);
            let t0 = to[0].value() as u128;
            let exact = value % t0;
            // One extra wrap (x - Q) is permitted near the Q boundary.
            let minus_q = ((value + t0 * (q / t0 + 1)) - q) % t0;
            let got = out[0][0] as u128;
            assert!(
                got == exact || got == minus_q,
                "value {value}: got {got}, want {exact} or {minus_q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "limb count mismatch")]
    fn mismatched_add_panics() {
        let c = ctx(4, 3);
        let mut a = RnsPoly::zero(&c, 2, Domain::Coeff);
        let b = RnsPoly::zero(&c, 3, Domain::Coeff);
        a.add_assign(&b, &c);
    }

    #[test]
    fn copy_from_reuses_buffers_and_matches_clone() {
        let c = ctx(4, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| i as i64 * 3 - 11).collect();
        let mut src = RnsPoly::from_signed(&c, &coeffs, 3);
        src.to_eval(&c);
        let mut dst = RnsPoly::zero(&c, 3, Domain::Coeff);
        let caps: Vec<usize> = dst.limbs.iter().map(|l| l.capacity()).collect();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let caps_after: Vec<usize> = dst.limbs.iter().map(|l| l.capacity()).collect();
        assert_eq!(caps, caps_after, "same-shape copy must not reallocate");
        // Shape-changing copies still work.
        let small = RnsPoly::zero(&c, 2, Domain::Coeff);
        dst.copy_from(&small);
        assert_eq!(dst, small);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Clear zeroes in place.
        dst.clear(Domain::Eval);
        assert_eq!(dst.domain(), Domain::Eval);
        assert!(dst.limbs().iter().all(|l| l.iter().all(|&x| x == 0)));
    }

    #[test]
    fn automorphism_limbwise() {
        let c = ctx(3, 2);
        let coeffs: Vec<i64> = (0..8).map(|i| i as i64).collect();
        let p = RnsPoly::from_signed(&c, &coeffs, 2);
        let rot = p.automorphism(3, &c);
        let got = rot.to_centered_f64(&c);
        let expect_l0 =
            poly::automorphism(&poly::from_signed(&coeffs, c.modulus(0)), 3, c.modulus(0));
        let expect: Vec<f64> = expect_l0
            .iter()
            .map(|&x| c.modulus(0).to_signed(x) as f64)
            .collect();
        assert_eq!(got, expect);
    }
}
