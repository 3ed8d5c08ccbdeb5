//! General CKKS ⇄ TFHE scheme switching (paper §III-A).
//!
//! Bootstrapping is one *use* of the switch; the mechanism itself is more
//! general — "the evaluation of non-linear operations using higher-degree
//! polynomials becomes a bottleneck … with the scheme-switching approach,
//! we want to integrate the best of both worlds". This module exposes the
//! two directions as standalone operations on top of [`Bootstrapper`]'s
//! key material:
//!
//! * [`SchemeSwitch::to_lwes`] — extract coefficient LWEs from a CKKS
//!   ciphertext (CKKS → TFHE);
//! * [`SchemeSwitch::from_lwes`] — repack blind-rotation outputs into a
//!   CKKS ciphertext (TFHE → CKKS);
//! * [`SchemeSwitch::eval_nonlinear`] — the round trip with an arbitrary
//!   real function riding the blind rotation (sign/ReLU/sigmoid/…, the
//!   paper's examples), refreshing levels as a side effect.

use heap_ckks::{Ciphertext, CkksContext};
use heap_tfhe::{BlindRotateScratch, LweCiphertext, RlweCiphertext};

use crate::bootstrap::Bootstrapper;

/// Borrowed view over a [`Bootstrapper`] exposing the general switching
/// operations.
#[derive(Debug)]
pub struct SchemeSwitch<'a> {
    boot: &'a Bootstrapper,
}

impl<'a> SchemeSwitch<'a> {
    /// Wraps a bootstrapper's key material.
    pub fn new(boot: &'a Bootstrapper) -> Self {
        Self { boot }
    }

    /// CKKS → TFHE: extracts the coefficients at `indices` as TFHE-ready
    /// LWE ciphertexts (dimension `n_t`, modulus `2N`), each independently
    /// processable — this is where the parallelism comes from.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not at one limb.
    pub fn to_lwes(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
    ) -> Vec<LweCiphertext> {
        let lwes = self.boot.extract_lwes(ctx, ct, indices);
        self.boot.modulus_switch(ctx, &lwes)
    }

    /// Runs blind rotations evaluating `g` (in message space) on each LWE.
    pub fn blind_rotate_eval(
        &self,
        ctx: &CkksContext,
        lwes: &[LweCiphertext],
        input_scale: f64,
        g: impl Fn(f64) -> f64,
    ) -> Vec<RlweCiphertext> {
        let n = ctx.n() as f64;
        let q0 = ctx.q_modulus(0).value() as f64;
        let lut = heap_tfhe::test_polynomial_from_fn(ctx.rns(), ctx.boot_limbs(), |u| {
            let m_in = u as f64 * q0 / (2.0 * n * input_scale);
            (2.0 * n * input_scale * g(m_in)).round() as i64
        });
        let mut scratch = BlindRotateScratch::default();
        lwes.iter()
            .map(|l| {
                self.boot
                    .brk()
                    .blind_rotate_with(ctx.rns(), &lut, l, &mut scratch)
            })
            .collect()
    }

    /// TFHE → CKKS: repacks blind-rotation outputs (constant-coefficient
    /// payloads) back into one full-level CKKS ciphertext, placing result
    /// `i` at coefficient `indices[i]`.
    pub fn from_lwes(
        &self,
        ctx: &CkksContext,
        rotated: &[RlweCiphertext],
        indices: &[usize],
        scale: f64,
    ) -> Ciphertext {
        let leaves = self.boot.to_leaves(ctx, rotated, indices);
        self.boot.finish(ctx, leaves, scale)
    }

    /// The full round trip: evaluates an arbitrary real function on the
    /// selected coefficients while refreshing the ciphertext — sign,
    /// ReLU, sigmoid, exponentiation, comparison-against-constant, …
    pub fn eval_nonlinear(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
        g: impl Fn(f64) -> f64,
    ) -> Ciphertext {
        let lwes = self.to_lwes(ctx, ct, indices);
        let rotated = self.blind_rotate_eval(ctx, &lwes, ct.scale(), g);
        self.from_lwes(ctx, &rotated, indices, ct.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapConfig;
    use heap_ckks::{CkksParams, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, Bootstrapper, StdRng) {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(404);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
        (ctx, sk, boot, rng)
    }

    #[test]
    fn sign_comparison_under_encryption() {
        // Homomorphic comparison against 0 — TFHE's signature strength,
        // impossible in plain CKKS without a deep polynomial.
        let (ctx, sk, boot, mut rng) = setup();
        let switch = SchemeSwitch::new(&boot);
        let delta = ctx.fresh_scale();
        let n = ctx.n();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 60.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let indices: Vec<usize> = (0..n).collect();
        let sign = |x: f64| {
            if x > 0.005 {
                0.1
            } else if x < -0.005 {
                -0.1
            } else {
                0.0
            }
        };
        let out = switch.eval_nonlinear(&ctx, &ct, &indices, sign);
        assert_eq!(out.limbs(), ctx.max_limbs(), "switch refreshes levels");
        let dec = ctx.decrypt_coeffs(&out, &sk);
        let mut correct = 0;
        for (i, m) in msg.iter().enumerate() {
            if sign(*m) == 0.0 {
                continue; // skip the dead-zone inputs
            }
            let got = dec[i] / out.scale();
            if (got - sign(*m)).abs() < 0.05 {
                correct += 1;
            }
        }
        let total = msg.iter().filter(|m| sign(**m) != 0.0).count();
        assert!(
            correct as f64 >= total as f64 * 0.95,
            "{correct}/{total} comparisons correct"
        );
    }

    #[test]
    fn manual_round_trip_matches_eval() {
        let (ctx, sk, boot, mut rng) = setup();
        let switch = SchemeSwitch::new(&boot);
        let delta = ctx.fresh_scale();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta) as i64)
            .collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let indices = [0usize, 8, 16];
        // Manual pipeline.
        let lwes = switch.to_lwes(&ctx, &ct, &indices);
        assert_eq!(lwes.len(), 3);
        assert_eq!(lwes[0].modulus, 2 * ctx.n() as u64);
        let rotated = switch.blind_rotate_eval(&ctx, &lwes, ct.scale(), |x| x);
        let out = switch.from_lwes(&ctx, &rotated, &indices, ct.scale());
        // One-shot pipeline.
        let direct = boot.bootstrap_indices(&ctx, &ct, &indices);
        let a = ctx.decrypt_coeffs(&out, &sk);
        let b = ctx.decrypt_coeffs(&direct, &sk);
        for (&i, _) in indices.iter().zip(0..) {
            assert!(
                (a[i] / out.scale() - b[i] / direct.scale()).abs() < 1e-3,
                "index {i}"
            );
        }
    }
}
