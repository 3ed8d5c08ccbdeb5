//! CKKS homomorphic operations: encrypt/decrypt, `PtAdd`, `Add`, `PtMult`,
//! `Mult` (+relinearize), `Rescale`, `Rotate`, and `Conjugate` (paper
//! §II-A).
//!
//! All operations are methods on [`CkksContext`]; keys are passed
//! explicitly so a single context can serve many parties.

use rand::Rng;

use heap_math::{poly, sample, Domain, RnsPoly};

use crate::ciphertext::Ciphertext;
use crate::complex::Complex64;
use crate::context::CkksContext;
use crate::key::{GaloisKeys, PublicKey, RelinearizationKey, SecretKey};
use crate::keyswitch::key_switch;

/// Relative scale mismatch tolerated by additive operations.
const SCALE_TOLERANCE: f64 = 1e-9;

impl CkksContext {
    // ------------------------------------------------------------------
    // Encryption / decryption
    // ------------------------------------------------------------------

    /// Encrypts complex slots under the secret key at the top level.
    pub fn encrypt_sk<R: Rng + ?Sized>(
        &self,
        values: &[Complex64],
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        let coeffs = self.encoder().encode(values, self.fresh_scale());
        self.encrypt_coeffs_sk(&coeffs, self.fresh_scale(), self.max_limbs(), sk, rng)
    }

    /// Encrypts real slots under the secret key at the top level.
    pub fn encrypt_real_sk<R: Rng + ?Sized>(
        &self,
        values: &[f64],
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        let v: Vec<Complex64> = values.iter().map(|&x| Complex64::from(x)).collect();
        self.encrypt_sk(&v, sk, rng)
    }

    /// Encrypts raw plaintext coefficients at a chosen limb count and scale
    /// (the bootstrap pipeline and tests need this low-level entry).
    pub fn encrypt_coeffs_sk<R: Rng + ?Sized>(
        &self,
        coeffs: &[i64],
        scale: f64,
        limbs: usize,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        assert_eq!(coeffs.len(), self.n());
        let rns = self.rns();
        let n = self.n();
        let e = sample::gaussian_poly(rng, n);
        let mut c1_limbs = Vec::with_capacity(limbs);
        let mut c0_limbs = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let m = rns.modulus(j);
            let ntt = rns.ntt(j);
            let a = sample::uniform_poly(rng, n, m.value());
            let mut msg = poly::from_signed(coeffs, m);
            let err = poly::from_signed(&e, m);
            poly::add_assign(&mut msg, &err, m);
            ntt.forward(&mut msg);
            // c0 = -a*s + e + m
            let mut c0 = vec![0u64; n];
            ntt.pointwise(&a, sk.eval_limb(j), &mut c0);
            poly::neg_assign(&mut c0, m);
            poly::add_assign(&mut c0, &msg, m);
            c1_limbs.push(a);
            c0_limbs.push(c0);
        }
        Ciphertext::new(
            RnsPoly::from_limbs(c0_limbs, Domain::Eval),
            RnsPoly::from_limbs(c1_limbs, Domain::Eval),
            scale,
        )
    }

    /// Encrypts complex slots under the public key at the top level.
    pub fn encrypt_pk<R: Rng + ?Sized>(
        &self,
        values: &[Complex64],
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        let coeffs = self.encoder().encode(values, self.fresh_scale());
        let rns = self.rns();
        let n = self.n();
        let limbs = self.max_limbs();
        let v = sample::ternary_secret(rng, n);
        let e0 = sample::gaussian_poly(rng, n);
        let e1 = sample::gaussian_poly(rng, n);
        let mut c0_limbs = Vec::with_capacity(limbs);
        let mut c1_limbs = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let m = rns.modulus(j);
            let ntt = rns.ntt(j);
            let mut vj = poly::from_signed(&v, m);
            ntt.forward(&mut vj);
            // c0 = v*pk.b + e0 + m ; c1 = v*pk.a + e1
            let mut m0 = poly::from_signed(&coeffs, m);
            let err0 = poly::from_signed(&e0, m);
            poly::add_assign(&mut m0, &err0, m);
            ntt.forward(&mut m0);
            let mut c0 = vec![0u64; n];
            ntt.pointwise(&vj, &pk.b[j], &mut c0);
            poly::add_assign(&mut c0, &m0, m);
            let mut e1j = poly::from_signed(&e1, m);
            ntt.forward(&mut e1j);
            let mut c1 = vec![0u64; n];
            ntt.pointwise(&vj, &pk.a[j], &mut c1);
            poly::add_assign(&mut c1, &e1j, m);
            c0_limbs.push(c0);
            c1_limbs.push(c1);
        }
        Ciphertext::new(
            RnsPoly::from_limbs(c0_limbs, Domain::Eval),
            RnsPoly::from_limbs(c1_limbs, Domain::Eval),
            self.fresh_scale(),
        )
    }

    /// Decrypts to centered plaintext coefficients (`c0 + c1·s`, unscaled).
    pub fn decrypt_coeffs(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
        let rns = self.rns();
        let l = ct.limbs();
        let mut acc = ct.c0().clone();
        assert_eq!(acc.domain(), Domain::Eval, "ciphertexts live in Eval");
        for j in 0..l {
            let mut prod = vec![0u64; self.n()];
            rns.ntt(j)
                .pointwise(ct.c1().limb(j), sk.eval_limb(j), &mut prod);
            poly::add_assign(acc.limb_mut(j), &prod, rns.modulus(j));
        }
        acc.to_coeff(rns);
        acc.to_centered_f64(rns)
    }

    /// Decrypts and decodes complex slots.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<Complex64> {
        let coeffs = self.decrypt_coeffs(ct, sk);
        self.encoder().decode(&coeffs, ct.scale())
    }

    /// Decrypts and decodes real slot values.
    pub fn decrypt_real(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
        self.decrypt(ct, sk).iter().map(|z| z.re).collect()
    }

    // ------------------------------------------------------------------
    // Additive operations
    // ------------------------------------------------------------------

    fn assert_compatible(&self, a: &Ciphertext, b: &Ciphertext) {
        assert_eq!(
            a.limbs(),
            b.limbs(),
            "align levels before Add (mod_drop_to)"
        );
        let rel = (a.scale() - b.scale()).abs() / a.scale().max(b.scale());
        assert!(
            rel < SCALE_TOLERANCE,
            "scale mismatch: {} vs {}",
            a.scale(),
            b.scale()
        );
    }

    /// Homomorphic addition (`Add`).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_compatible(a, b);
        let mut out = a.clone();
        out.c0_mut().add_assign(b.c0(), self.rns());
        out.c1_mut().add_assign(b.c1(), self.rns());
        out
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_compatible(a, b);
        let mut out = a.clone();
        out.c0_mut().sub_assign(b.c0(), self.rns());
        out.c1_mut().sub_assign(b.c1(), self.rns());
        out
    }

    /// Homomorphic negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        out.c0_mut().neg_assign(self.rns());
        out.c1_mut().neg_assign(self.rns());
        out
    }

    /// Plaintext addition (`PtAdd`): adds encoded `values` at the
    /// ciphertext's scale.
    pub fn add_plain(&self, ct: &Ciphertext, values: &[Complex64]) -> Ciphertext {
        let coeffs = self.encoder().encode(values, ct.scale());
        let mut pt = RnsPoly::from_signed(self.rns(), &coeffs, ct.limbs());
        pt.to_eval(self.rns());
        let mut out = ct.clone();
        out.c0_mut().add_assign(&pt, self.rns());
        out
    }

    /// Plaintext multiplication (`PtMult`): multiplies by `values` encoded
    /// at the fresh scale. The result's scale is the product; follow with
    /// [`Self::rescale`].
    pub fn mul_plain(&self, ct: &Ciphertext, values: &[Complex64]) -> Ciphertext {
        let coeffs = self.encoder().encode(values, self.fresh_scale());
        let mut pt = RnsPoly::from_signed(self.rns(), &coeffs, ct.limbs());
        pt.to_eval(self.rns());
        let c0 = ct.c0().mul_pointwise(&pt, self.rns());
        let c1 = ct.c1().mul_pointwise(&pt, self.rns());
        Ciphertext::new(c0, c1, ct.scale() * self.fresh_scale())
    }

    /// Multiplies by a plain scalar without consuming a level (no rescale
    /// needed when the scalar is an integer).
    pub fn mul_scalar_int(&self, ct: &Ciphertext, k: i64) -> Ciphertext {
        let mut out = ct.clone();
        out.c0_mut().scalar_mul_assign(k, self.rns());
        out.c1_mut().scalar_mul_assign(k, self.rns());
        out
    }

    // ------------------------------------------------------------------
    // Multiplicative operations
    // ------------------------------------------------------------------

    /// Homomorphic multiplication with relinearization (`Mult`).
    ///
    /// The result's scale is the product of the input scales; follow with
    /// [`Self::rescale`] to shrink it back to ~`Delta`.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext, rlk: &RelinearizationKey) -> Ciphertext {
        self.assert_mul_compatible(a, b);
        let rns = self.rns();
        let d0 = a.c0().mul_pointwise(b.c0(), rns);
        let mut d1 = a.c0().mul_pointwise(b.c1(), rns);
        let d1b = a.c1().mul_pointwise(b.c0(), rns);
        d1.add_assign(&d1b, rns);
        let d2 = a.c1().mul_pointwise(b.c1(), rns);
        let (ka, kb) = key_switch(self, &d2, &rlk.ksk);
        let mut c0 = d0;
        c0.add_assign(&kb, rns);
        let mut c1 = d1;
        c1.add_assign(&ka, rns);
        Ciphertext::new(c0, c1, a.scale() * b.scale())
    }

    fn assert_mul_compatible(&self, a: &Ciphertext, b: &Ciphertext) {
        assert_eq!(a.limbs(), b.limbs(), "align levels before Mult");
        assert!(
            a.limbs() >= 2,
            "Mult at the last level would destroy the message; bootstrap first"
        );
    }

    /// Squares a ciphertext (saves one pointwise product vs. `mul`).
    pub fn square(&self, a: &Ciphertext, rlk: &RelinearizationKey) -> Ciphertext {
        let rns = self.rns();
        let d0 = a.c0().mul_pointwise(a.c0(), rns);
        let mut d1 = a.c0().mul_pointwise(a.c1(), rns);
        let d1c = d1.clone();
        d1.add_assign(&d1c, rns);
        let d2 = a.c1().mul_pointwise(a.c1(), rns);
        let (ka, kb) = key_switch(self, &d2, &rlk.ksk);
        let mut c0 = d0;
        c0.add_assign(&kb, rns);
        let mut c1 = d1;
        c1.add_assign(&ka, rns);
        Ciphertext::new(c0, c1, a.scale() * a.scale())
    }

    /// `Rescale`: divides by the last prime and drops one limb.
    pub fn rescale(&self, ct: &Ciphertext) -> Ciphertext {
        assert!(ct.limbs() >= 2, "cannot rescale a single-limb ciphertext");
        let q_last = self.rns().modulus(ct.limbs() - 1).value() as f64;
        let (mut c0, mut c1, scale) = ct.clone().into_parts();
        c0.rescale(self.rns());
        c1.rescale(self.rns());
        Ciphertext::new(c0, c1, scale / q_last)
    }

    /// Drops limbs without scaling, aligning a ciphertext to a lower level.
    pub fn mod_drop_to(&self, ct: &Ciphertext, limbs: usize) -> Ciphertext {
        assert!(limbs >= 1 && limbs <= ct.limbs(), "invalid target limbs");
        let (mut c0, mut c1, scale) = ct.clone().into_parts();
        while c0.limb_count() > limbs {
            c0.drop_last();
            c1.drop_last();
        }
        Ciphertext::new(c0, c1, scale)
    }

    // ------------------------------------------------------------------
    // Automorphisms
    // ------------------------------------------------------------------

    /// Rotates slots left by `r` (`Rotate`), using the matching Galois key.
    ///
    /// # Panics
    ///
    /// Panics if the Galois key for this rotation is missing.
    pub fn rotate(&self, ct: &Ciphertext, r: i64, gks: &GaloisKeys) -> Ciphertext {
        let g = poly::rotation_exponent(r, self.n());
        self.apply_galois(ct, g, gks)
    }

    /// Complex-conjugates every slot (`Conjugate`).
    ///
    /// # Panics
    ///
    /// Panics if the conjugation key is missing.
    pub fn conjugate(&self, ct: &Ciphertext, gks: &GaloisKeys) -> Ciphertext {
        self.apply_galois(ct, poly::conjugation_exponent(self.n()), gks)
    }

    /// Applies the automorphism `X ↦ X^g` followed by key switching.
    pub fn apply_galois(&self, ct: &Ciphertext, g: usize, gks: &GaloisKeys) -> Ciphertext {
        let (c1, c0) = self.apply_galois_pair(ct.c1(), ct.c0(), g, gks);
        Ciphertext::new(c0, c1, ct.scale())
    }

    /// The one `σ_g` + key-switch body, on a bare pair with phase `b + a·s`
    /// given in either domain: returns `(a', b')` in evaluation domain with
    /// phase `σ_g(b + a·s)` under `s`. [`Self::apply_galois`] and the
    /// repacking tree's `EvalAuto` both run it. `σ_g(a)` goes to
    /// [`key_switch`] in the coefficient domain its digits are cut in, so it
    /// is never transformed.
    ///
    /// # Panics
    ///
    /// Panics if `gks` has no key for `g`.
    pub fn apply_galois_pair(
        &self,
        a: &RnsPoly,
        b: &RnsPoly,
        g: usize,
        gks: &GaloisKeys,
    ) -> (RnsPoly, RnsPoly) {
        let key = gks
            .key_for(g)
            .unwrap_or_else(|| panic!("missing Galois key for exponent {g}"));
        let rns = self.rns();
        let [mut a, mut b] = [a.clone(), b.clone()];
        a.to_coeff(rns);
        b.to_coeff(rns);
        let (ka, kb) = key_switch(self, &a.automorphism(g, rns), key);
        let mut out_b = b.automorphism(g, rns);
        out_b.to_eval(rns);
        out_b.add_assign(&kb, rns);
        (ka, out_b)
    }
}
