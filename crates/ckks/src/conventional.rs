//! The *conventional* CKKS bootstrapping baseline (paper Fig. 1a).
//!
//! This is the algorithm HEAP replaces — and the workload FAB executes:
//! `ModRaise` → `CoeffToSlot` (homomorphic DFT) → `EvalMod` (sine
//! approximation of the modular reduction) → `SlotToCoeff`. It is
//! implemented here so the paper's central comparison is runnable on one
//! code base: inherently *sequential* (every step depends on the previous
//! ciphertext), consuming 13–15 levels (the paper quotes 15–19 at
//! production parameters), and requiring a *sparse* secret so the wrap
//! count `k` stays inside the sine approximation's range — exactly the
//! security trade-off the paper's scheme switch eliminates (§II, §VI-F3).
//!
//! The `EvalMod` uses the classical construction: scale the phase down by
//! `2^r`, evaluate degree-5 Taylor polynomials of sine *and* cosine, then
//! apply `r` double-angle iterations (1 level each).

use heap_math::ParamSet;
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::complex::Complex64;
use crate::context::CkksContext;
use crate::key::{GaloisKeys, RelinearizationKey, SecretKey};
use crate::linear::{apply_matrix_bsgs, dft_matrices, SlotMatrix};
use crate::params::CkksParams;

/// Configuration of the conventional bootstrap.
#[derive(Debug, Clone, Copy)]
pub struct ConvBootstrapConfig {
    /// Secret-key Hamming weight the pipeline is sized for (bounds the
    /// wrap count `K ≈ h/2 + 2`).
    pub hamming_weight: usize,
    /// Double-angle iterations `r` (the phase is scaled by `2^-r` before
    /// the Taylor step).
    pub doublings: u32,
    /// Baby-step count for the BSGS linear transforms.
    pub baby_steps: usize,
}

impl ConvBootstrapConfig {
    /// Baseline test configuration: `h = 8`, `r = 8`.
    pub fn test() -> Self {
        Self {
            hamming_weight: 8,
            doublings: 8,
            baby_steps: 8,
        }
    }

    /// Levels the pipeline consumes:
    /// 1 (CtS) + 4 (Taylor) + `r` (doublings) + 1 (StC).
    pub fn depth(&self) -> usize {
        6 + self.doublings as usize
    }

    /// The wrap-count bound the sine range must cover.
    pub fn wrap_bound(&self) -> f64 {
        self.hamming_weight as f64 / 2.0 + 2.5
    }
}

/// Parameter preset sized for the conventional baseline: `N = 2^7` with 17
/// limbs of 32 bits — enough budget for the ~14-level pipeline plus a
/// couple of post-bootstrap levels.
pub fn conventional_baseline_params() -> CkksParams {
    CkksParams::new(ParamSet {
        name: "conventional",
        log_n: 7,
        limbs: 17,
        limb_bits: 32,
        aux_bits: 32,
        special_bits: 32,
        scale_bits: 32,
        ..ParamSet::TINY
    })
    .expect("baseline preset is valid")
}

/// Key material and precomputation for the conventional bootstrap.
#[derive(Debug)]
pub struct ConventionalBootstrapper {
    config: ConvBootstrapConfig,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    /// `κ/2 · U^{-1}` — CoeffToSlot folded with the sine prescaling.
    cts_re: SlotMatrix,
    /// `-iκ/2 · U^{-1}` — the imaginary branch.
    cts_im: SlotMatrix,
    /// `κ₂ · U` — SlotToCoeff folded with the sine postscaling.
    stc_re: SlotMatrix,
    /// `iκ₂ · U`.
    stc_im: SlotMatrix,
}

impl ConventionalBootstrapper {
    /// Generates keys and matrices for `sk` (which should be sparse with
    /// the configured Hamming weight).
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        config: ConvBootstrapConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            ctx.max_limbs() > config.depth(),
            "need more than {} limbs, got {}",
            config.depth(),
            ctx.max_limbs()
        );
        let rlk = RelinearizationKey::generate(ctx, sk, rng);
        let (u, uinv) = dft_matrices(ctx);
        let n = ctx.slots() as f64;
        let _ = n;
        let q0 = ctx.q_modulus(0).value() as f64;
        let delta = ctx.fresh_scale();
        let two_pi = 2.0 * std::f64::consts::PI;
        // Prescale: slots after CtS are y = 2π·phase/(q0·2^r).
        let kappa = two_pi * delta / (q0 * 2f64.powi(config.doublings as i32));
        let scale_rows = |m: &SlotMatrix, factor: Complex64| -> SlotMatrix {
            let dim = m.dim();
            let diags: Vec<Vec<Complex64>> = (0..dim)
                .map(|d| m.diagonal(d).iter().map(|&z| z * factor).collect())
                .collect();
            SlotMatrix::from_diagonals(diags)
        };
        let cts_re = scale_rows(&uinv, Complex64::from(0.5 * kappa));
        let cts_im = scale_rows(&uinv, Complex64::new(0.0, -0.5 * kappa));
        // Postscale: recover phase/Δ from sin(2π·phase/q0).
        let kappa2 = q0 / (two_pi * delta);
        let stc_re = scale_rows(&u, Complex64::from(kappa2));
        let stc_im = scale_rows(&u, Complex64::new(0.0, kappa2));

        // Rotation keys: BSGS set for the slot dimension + conjugation.
        let mut rots = u.rotations_bsgs(config.baby_steps);
        rots.extend(uinv.rotations_bsgs(config.baby_steps));
        rots.sort_unstable();
        rots.dedup();
        let gks = GaloisKeys::generate(ctx, sk, &rots, true, rng);
        Self {
            config,
            rlk,
            gks,
            cts_re,
            cts_im,
            stc_re,
            stc_im,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ConvBootstrapConfig {
        &self.config
    }

    /// Runs the full conventional bootstrap on an exhausted (single-limb)
    /// ciphertext, returning a refreshed ciphertext with
    /// `L - depth` limbs.
    ///
    /// # Panics
    ///
    /// Panics if the input has more than one limb.
    pub fn bootstrap(&self, ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
        assert_eq!(ct.limbs(), 1, "conventional bootstrap expects 1 limb");
        let raised = self.mod_raise(ctx, ct);
        let (y_re, y_im) = self.coeff_to_slot(ctx, &raised);
        let s_re = self.eval_mod(ctx, &y_re);
        let s_im = self.eval_mod(ctx, &y_im);
        self.slot_to_coeff(ctx, &s_re, &s_im, ct.scale())
    }

    /// Step 1 — `ModRaise`: reinterpret the exhausted ciphertext at the
    /// full modulus (the message picks up the `k·q_0` wrap term).
    pub fn mod_raise(&self, ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
        let rns = ctx.rns();
        let target = ctx.max_limbs();
        let mut c0 = ct.c0().clone();
        let mut c1 = ct.c1().clone();
        c0.to_coeff(rns);
        c1.to_coeff(rns);
        let mut r0 = c0.raise_from_single_limb(rns, target);
        let mut r1 = c1.raise_from_single_limb(rns, target);
        r0.to_eval(rns);
        r1.to_eval(rns);
        Ciphertext::new(r0, r1, ct.scale())
    }

    /// Step 2 — `CoeffToSlot`: one BSGS transform per branch moves the
    /// (prescaled) coefficients into slots; conjugation sums make the
    /// branches real. Consumes 1 level.
    pub fn coeff_to_slot(
        &self,
        ctx: &CkksContext,
        raised: &Ciphertext,
    ) -> (Ciphertext, Ciphertext) {
        let a = apply_matrix_bsgs(ctx, raised, &self.cts_re, self.config.baby_steps, &self.gks);
        let b = apply_matrix_bsgs(ctx, raised, &self.cts_im, self.config.baby_steps, &self.gks);
        let y_re = ctx.add(&a, &ctx.conjugate(&a, &self.gks));
        let y_im = ctx.add(&b, &ctx.conjugate(&b, &self.gks));
        (y_re, y_im)
    }

    /// Step 3 — `EvalMod`: homomorphic `sin(2π·phase/q0) ≈ 2π·(phase mod
    /// q0)/q0` via degree-5 Taylor + `r` double-angle iterations. Consumes
    /// `4 + r` levels.
    pub fn eval_mod(&self, ctx: &CkksContext, y: &Ciphertext) -> Ciphertext {
        let rlk = &self.rlk;
        let delta = ctx.fresh_scale();
        let l = y.limbs();
        // Powers.
        let y2 = ctx.rescale(&ctx.square(y, rlk)); // l-1
        let y_a = ctx.align_to(y, l - 1, y2.scale()); // l-1
        let y3 = ctx.rescale(&ctx.mul(&y2, &y_a, rlk)); // l-2
        let y4 = ctx.rescale(&ctx.square(&y2, rlk)); // l-2
        let y_b = ctx.align_to(y, l - 2, y4.scale());
        let y5 = ctx.rescale(&ctx.mul(&y4, &y_b, rlk)); // l-3

        // sin ≈ y - y³/6 + y⁵/120 ; cos ≈ 1 - y²/2 + y⁴/24, both aligned
        // at (l-4, Δ).
        let t = l - 4;
        let sin = {
            let t1 = ctx.mul_const_to(y, 1.0, t, delta);
            let t3 = ctx.mul_const_to(&y3, -1.0 / 6.0, t, delta);
            let t5 = ctx.mul_const_to(&y5, 1.0 / 120.0, t, delta);
            ctx.add(&ctx.add(&t1, &t3), &t5)
        };
        let cos = {
            let t2 = ctx.mul_const_to(&y2, -0.5, t, delta);
            let t4 = ctx.mul_const_to(&y4, 1.0 / 24.0, t, delta);
            ctx.add_scalar(&ctx.add(&t2, &t4), 1.0)
        };

        // Double-angle ladder: one level per iteration.
        let (mut s, mut c) = (sin, cos);
        for _ in 0..self.config.doublings {
            let s2 = ctx.mul_scalar_int(&ctx.rescale(&ctx.mul(&s, &c, rlk)), 2);
            let c2 = {
                let ss = ctx.rescale(&ctx.square(&s, rlk));
                ctx.add_scalar(&ctx.mul_scalar_int(&ss, -2), 1.0)
            };
            s = s2;
            c = c2;
        }
        s
    }

    /// Step 4 — `SlotToCoeff`: recombine the real/imaginary branches and
    /// move slots back to coefficients; the sine postscale is folded into
    /// the matrices. Consumes 1 level.
    pub fn slot_to_coeff(
        &self,
        ctx: &CkksContext,
        s_re: &Ciphertext,
        s_im: &Ciphertext,
        message_scale: f64,
    ) -> Ciphertext {
        let a = apply_matrix_bsgs(ctx, s_re, &self.stc_re, self.config.baby_steps, &self.gks);
        let mut b = apply_matrix_bsgs(ctx, s_im, &self.stc_im, self.config.baby_steps, &self.gks);
        // Both branches traverse identical op sequences, so levels match
        // and scales agree to f64 rounding.
        debug_assert_eq!(a.limbs(), b.limbs());
        b.set_scale(a.scale());
        let _ = message_scale;
        ctx.add(&a, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, ConventionalBootstrapper, StdRng) {
        let ctx = CkksContext::new(conventional_baseline_params());
        let mut rng = StdRng::seed_from_u64(31337);
        let config = ConvBootstrapConfig::test();
        let sk = SecretKey::generate_sparse(&ctx, config.hamming_weight, &mut rng);
        let boot = ConventionalBootstrapper::generate(&ctx, &sk, config, &mut rng);
        (ctx, sk, boot, rng)
    }

    #[test]
    fn depth_accounting() {
        let c = ConvBootstrapConfig::test();
        assert_eq!(c.depth(), 14);
        assert!(c.wrap_bound() >= 6.0);
    }

    #[test]
    fn sparse_secret_has_requested_weight() {
        let ctx = CkksContext::new(conventional_baseline_params());
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate_sparse(&ctx, 8, &mut rng);
        assert_eq!(sk.coeffs().iter().filter(|&&c| c != 0).count(), 8);
    }

    #[test]
    fn conventional_bootstrap_recovers_message() {
        let (ctx, sk, boot, mut rng) = setup();
        // Small message (|m| << q0/Δ) so sin(x) ≈ x holds.
        let msg: Vec<f64> = (0..ctx.slots())
            .map(|i| ((i % 9) as f64 - 4.0) / 200.0)
            .collect();
        let full = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
        let exhausted = ctx.mod_drop_to(&full, 1);
        let fresh = boot.bootstrap(&ctx, &exhausted);
        assert!(
            fresh.limbs() >= 2,
            "should leave usable levels, got {}",
            fresh.limbs()
        );
        let dec = ctx.decrypt_real(&fresh, &sk);
        for (i, (m, d)) in msg.iter().zip(&dec).enumerate() {
            assert!((m - d).abs() < 0.01, "slot {i}: got {d}, want {m}");
        }
    }
}
