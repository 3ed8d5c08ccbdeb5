//! RLWE/GLWE ciphertexts over an RNS basis.
//!
//! TFHE's accumulator ciphertexts in the scheme-switched bootstrap live over
//! the *raised* CKKS basis `Q·p` (paper Algorithm 2), so the RLWE type here
//! is RNS-limbed like a CKKS ciphertext. With a single limb it doubles as a
//! classic TFHE GLWE (`h = 1`) for the standalone programmable bootstrap.

use rand::Rng;

use heap_math::{poly, sample, Domain, RnsContext, RnsPoly};

/// A ring secret key shared by RLWE/RGSW material, cached in evaluation
/// form under every limb of a basis.
#[derive(Debug, Clone)]
pub struct RingSecretKey {
    coeffs: Vec<i64>,
    eval: Vec<Vec<u64>>,
}

impl RingSecretKey {
    /// Samples a fresh ternary ring secret over the first `limbs` moduli.
    pub fn generate<R: Rng + ?Sized>(ctx: &RnsContext, limbs: usize, rng: &mut R) -> Self {
        Self::from_coeffs(ctx, limbs, sample::ternary_secret(rng, ctx.n()))
    }

    /// Builds a ring secret from explicit coefficients (the scheme switch
    /// aliases the CKKS secret here).
    pub fn from_coeffs(ctx: &RnsContext, limbs: usize, coeffs: Vec<i64>) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        assert!(limbs >= 1 && limbs <= ctx.max_limbs());
        let eval = (0..limbs)
            .map(|i| {
                let m = ctx.modulus(i);
                let mut l = poly::from_signed(&coeffs, m);
                ctx.ntt(i).forward(&mut l);
                l
            })
            .collect();
        Self { coeffs, eval }
    }

    /// The signed coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Evaluation-domain limb `i`.
    #[inline]
    pub fn eval_limb(&self, i: usize) -> &[u64] {
        &self.eval[i]
    }

    /// Number of limbs this key covers.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.eval.len()
    }
}

/// An RLWE ciphertext `(a, b)` with phase `b + a·s`, both parts in
/// evaluation domain over the same RNS prefix.
#[derive(Debug, Clone)]
pub struct RlweCiphertext {
    /// Mask polynomial.
    pub a: RnsPoly,
    /// Body polynomial.
    pub b: RnsPoly,
}

impl RlweCiphertext {
    /// The all-zero ciphertext.
    pub fn zero(ctx: &RnsContext, limbs: usize) -> Self {
        Self {
            a: RnsPoly::zero(ctx, limbs, Domain::Eval),
            b: RnsPoly::zero(ctx, limbs, Domain::Eval),
        }
    }

    /// Noiseless encryption of a known polynomial (`a = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not in evaluation domain.
    pub fn trivial(ctx: &RnsContext, mut b: RnsPoly) -> Self {
        b.to_eval(ctx);
        let limbs = b.limb_count();
        Self {
            a: RnsPoly::zero(ctx, limbs, Domain::Eval),
            b,
        }
    }

    /// Encrypts a coefficient-domain message polynomial under `sk`.
    pub fn encrypt<R: Rng + ?Sized>(
        ctx: &RnsContext,
        sk: &RingSecretKey,
        msg: &RnsPoly,
        rng: &mut R,
    ) -> Self {
        let limbs = msg.limb_count();
        assert!(limbs <= sk.limbs());
        let n = ctx.n();
        let e = sample::gaussian_poly(rng, n);
        let mut msg_c = msg.clone();
        msg_c.to_coeff(ctx);
        let mut a_limbs = Vec::with_capacity(limbs);
        let mut b_limbs = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let m = ctx.modulus(j);
            let ntt = ctx.ntt(j);
            let aj = sample::uniform_poly(rng, n, m.value());
            let mut mj = msg_c.limb(j).to_vec();
            let ej = poly::from_signed(&e, m);
            poly::add_assign(&mut mj, &ej, m);
            ntt.forward(&mut mj);
            let mut bj = vec![0u64; n];
            ntt.pointwise(&aj, sk.eval_limb(j), &mut bj);
            poly::neg_assign(&mut bj, m);
            poly::add_assign(&mut bj, &mj, m);
            a_limbs.push(aj);
            b_limbs.push(bj);
        }
        Self {
            a: RnsPoly::from_limbs(a_limbs, Domain::Eval),
            b: RnsPoly::from_limbs(b_limbs, Domain::Eval),
        }
    }

    /// Number of limbs.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.a.limb_count()
    }

    /// Overwrites `self` with `other`, reusing both component allocations
    /// when shapes match (see [`RnsPoly::copy_from`]).
    pub fn copy_from(&mut self, other: &RlweCiphertext) {
        self.a.copy_from(&other.a);
        self.b.copy_from(&other.b);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &RlweCiphertext, ctx: &RnsContext) {
        self.a.add_assign(&other.a, ctx);
        self.b.add_assign(&other.b, ctx);
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &RlweCiphertext, ctx: &RnsContext) {
        self.a.sub_assign(&other.a, ctx);
        self.b.sub_assign(&other.b, ctx);
    }

    /// The decryption phase `b + a·s` as a coefficient-domain polynomial.
    pub fn phase(&self, ctx: &RnsContext, sk: &RingSecretKey) -> RnsPoly {
        let limbs = self.limbs();
        let mut acc = self.b.clone();
        for j in 0..limbs {
            let mut prod = vec![0u64; ctx.n()];
            ctx.ntt(j)
                .pointwise(self.a.limb(j), sk.eval_limb(j), &mut prod);
            poly::add_assign(acc.limb_mut(j), &prod, ctx.modulus(j));
        }
        acc.to_coeff(ctx);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(64, &ntt_primes(64, 30, 2))
    }

    #[test]
    fn encrypt_phase_recovers_message() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let msg_coeffs: Vec<i64> = (0..64).map(|i| (i as i64 - 32) * 1000).collect();
        let msg = RnsPoly::from_signed(&c, &msg_coeffs, 2);
        let ct = RlweCiphertext::encrypt(&c, &sk, &msg, &mut rng);
        let phase = ct.phase(&c, &sk).to_centered_f64(&c);
        for (want, got) in msg_coeffs.iter().zip(&phase) {
            assert!((*want as f64 - got).abs() < 64.0, "{want} vs {got}");
        }
    }

    #[test]
    fn trivial_is_exact() {
        let c = ctx();
        let sk = RingSecretKey::generate(&c, 2, &mut StdRng::seed_from_u64(2));
        let msg_coeffs: Vec<i64> = (0..64).map(|i| i as i64).collect();
        let msg = RnsPoly::from_signed(&c, &msg_coeffs, 2);
        let ct = RlweCiphertext::trivial(&c, msg);
        let phase = ct.phase(&c, &sk).to_centered_f64(&c);
        for (want, got) in msg_coeffs.iter().zip(&phase) {
            assert_eq!(*want as f64, *got);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let m1: Vec<i64> = (0..64).map(|i| i as i64 * 500).collect();
        let m2: Vec<i64> = (0..64).map(|i| -(i as i64) * 200).collect();
        let ct1 = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &m1, 2), &mut rng);
        let ct2 = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &m2, 2), &mut rng);
        let mut sum = ct1;
        sum.add_assign(&ct2, &c);
        let phase = sum.phase(&c, &sk).to_centered_f64(&c);
        for (i, got) in phase.iter().enumerate() {
            let want = (m1[i] + m2[i]) as f64;
            assert!((want - got).abs() < 128.0);
        }
    }
}
