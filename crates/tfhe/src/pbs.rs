//! Standalone TFHE: programmable bootstrapping, CMux, and the internal
//! product (paper §VII-A).
//!
//! HEAP's discussion section notes the accelerator already contains every
//! unit needed to run TFHE by itself: `BlindRotate` *is* programmable
//! bootstrapping once the test polynomial encodes the target function, the
//! `Extract` is built in, `KeySwitch` is a gadget decomposition plus
//! external products, and `CMux`/`InternalProduct` reduce to external
//! products. This module packages those pieces into a single-limb TFHE
//! context so the claim is executable.
//!
//! Everything here rides the optimized kernel datapaths for free: the
//! blind rotation runs the restructured CMux, and every external product
//! and NTT below it uses the lazy-reduction kernels (bit-identical to the
//! strict references — see `tests/kernel_parity.rs`), so the standalone
//! TFHE path needs no code of its own to benefit.

use rand::Rng;

use heap_math::arith::Modulus;
use heap_math::prime::ntt_primes;
use heap_math::RnsContext;

use crate::blind_rotate::{test_polynomial_from_fn, BlindRotateKey};
use crate::extract::extract_coefficient;
use crate::lwe::{LweCiphertext, LweKeySwitchKey, LweSecretKey};
use crate::rgsw::{external_product, RgswCiphertext, RgswParams};
use crate::rlwe::{RingSecretKey, RlweCiphertext};

/// Parameters for the standalone TFHE scheme.
#[derive(Debug, Clone, Copy)]
pub struct TfheParams {
    /// `log2` of the ring dimension `N`.
    pub log_n: u32,
    /// Bits of the single ring prime.
    pub q_bits: u32,
    /// LWE mask dimension `n_t` (paper: 256–4096, typically 500).
    pub lwe_dim: usize,
    /// RGSW gadget for blind rotation.
    pub rgsw: RgswParams,
    /// Gadget base bits for the LWE key switch.
    pub ks_base_bits: u32,
    /// Digits for the LWE key switch.
    pub ks_digits: usize,
}

impl TfheParams {
    /// A fast test configuration (`N = 2^9`, `n_t = 32`).
    pub fn test_small() -> Self {
        Self {
            log_n: 9,
            q_bits: 30,
            lwe_dim: 32,
            rgsw: RgswParams {
                base_bits: 7,
                digits: 5,
            },
            ks_base_bits: 6,
            ks_digits: 5,
        }
    }
}

/// Single-limb TFHE context: ring, modulus, and derived constants.
#[derive(Debug)]
pub struct TfheContext {
    params: TfheParams,
    ring: RnsContext,
}

impl TfheContext {
    /// Builds the context (generates the ring prime).
    pub fn new(params: TfheParams) -> Self {
        let n = 1u64 << params.log_n;
        let primes = ntt_primes(n, params.q_bits, 1);
        let ring = RnsContext::new(n as usize, &primes);
        Self { params, ring }
    }

    /// The parameter set.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// Ring dimension `N`.
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// The ring context (single limb).
    pub fn ring(&self) -> &RnsContext {
        &self.ring
    }

    /// The ring prime.
    pub fn q(&self) -> &Modulus {
        self.ring.modulus(0)
    }

    /// Encodes a signed phase `u ∈ [-N/2, N/2)` into `Z_q` (the natural
    /// PBS input encoding: `round(q·u / 2N)`).
    pub fn encode_phase(&self, u: i64) -> u64 {
        let two_n = 2 * self.n() as i64;
        let q = self.q().value() as i128;
        let v = ((q * u as i128) / two_n as i128).rem_euclid(q);
        v as u64
    }

    /// Decodes `Z_q` back to the nearest signed phase.
    pub fn decode_phase(&self, x: u64) -> i64 {
        let two_n = 2 * self.n() as u128;
        let q = self.q().value() as u128;
        let scaled = ((x as u128) * two_n + q / 2) / q;
        let s = (scaled % two_n) as i64;
        if s >= self.n() as i64 {
            s - two_n as i64
        } else {
            s
        }
    }
}

/// Key material for programmable bootstrapping.
#[derive(Debug)]
pub struct PbsKeys {
    /// Blind rotation key (`brk` in the paper).
    pub brk: BlindRotateKey,
    /// LWE key switch from ring dimension `N` back to `n_t`.
    pub ksk: LweKeySwitchKey,
}

impl PbsKeys {
    /// Generates PBS keys: the LWE secret `s_t` is the evaluation key
    /// holder's small secret; the ring secret is used inside bootstrapping
    /// only.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &TfheContext,
        lwe_sk: &LweSecretKey,
        ring_sk: &RingSecretKey,
        rng: &mut R,
    ) -> Self {
        let brk = BlindRotateKey::generate(ctx.ring(), lwe_sk, ring_sk, 1, ctx.params.rgsw, rng);
        let ring_as_lwe = LweSecretKey::from_coeffs(ring_sk.coeffs().to_vec());
        let ksk = LweKeySwitchKey::generate(
            &ring_as_lwe,
            lwe_sk,
            ctx.q(),
            ctx.params.ks_base_bits,
            ctx.params.ks_digits,
            rng,
        );
        Self { brk, ksk }
    }
}

/// Programmable bootstrapping: evaluates `g` on the encrypted phase while
/// refreshing noise.
///
/// The input LWE (dimension `n_t`, modulus `q`) must encode its message as
/// `round(q·u/2N)` with `|u| < N/2` (see [`TfheContext::encode_phase`]);
/// the output LWE (same dimension/modulus) encrypts `g(u)` *as a raw value*
/// (not phase-encoded), so chainable pipelines should have `g` re-encode.
pub fn programmable_bootstrap(
    ctx: &TfheContext,
    keys: &PbsKeys,
    ct: &LweCiphertext,
    g: impl Fn(i64) -> i64,
) -> LweCiphertext {
    let two_n = 2 * ctx.n() as u64;
    // ModulusSwitch q -> 2N.
    let small = ct.modulus_switch(two_n);
    // BlindRotate with the LUT.
    let f = test_polynomial_from_fn(ctx.ring(), 1, g);
    let mut acc = keys.brk.blind_rotate(ctx.ring(), &f, &small);
    // Extract the constant coefficient (dimension N, modulus q).
    acc.a.to_coeff(ctx.ring());
    acc.b.to_coeff(ctx.ring());
    let big = extract_coefficient(acc.a.limb(0), acc.b.limb(0), 0, ctx.q());
    // KeySwitch back to n_t.
    keys.ksk.switch(&big, ctx.q())
}

/// `CMux`: homomorphic selection `bit ? ct1 : ct0` for RLWE operands and an
/// RGSW-encrypted selector bit.
pub fn cmux(
    ctx: &RnsContext,
    bit: &RgswCiphertext,
    ct0: &RlweCiphertext,
    ct1: &RlweCiphertext,
    params: &RgswParams,
) -> RlweCiphertext {
    let mut diff = ct1.clone();
    diff.sub_assign(ct0, ctx);
    let mut sel = external_product(&diff, bit, ctx, params);
    sel.add_assign(ct0, ctx);
    sel
}

/// `InternalProduct`: GGSW × GGSW → GGSW, defined row-wise through the
/// external product (paper §VII-A).
///
/// Every RLWE row of `b` is externally multiplied by `a`, so the result
/// encrypts `m_a · m_b` with one extra level of gadget noise.
pub fn internal_product(
    ctx: &RnsContext,
    a: &RgswCiphertext,
    b: &RgswCiphertext,
    params: &RgswParams,
) -> RgswCiphertext {
    let rows_s = b
        .rows_s
        .iter()
        .map(|row| external_product(row, a, ctx, params))
        .collect();
    let rows_1 = b
        .rows_1
        .iter()
        .map(|row| external_product(row, a, ctx, params))
        .collect();
    RgswCiphertext { rows_s, rows_1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::RnsPoly;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phase_encoding_roundtrip() {
        let ctx = TfheContext::new(TfheParams::test_small());
        for u in [-100i64, -1, 0, 1, 77, 200] {
            assert_eq!(ctx.decode_phase(ctx.encode_phase(u)), u);
        }
    }

    #[test]
    fn pbs_evaluates_functions() {
        let ctx = TfheContext::new(TfheParams::test_small());
        let mut rng = StdRng::seed_from_u64(1);
        let lwe_sk = LweSecretKey::generate(&mut rng, ctx.params().lwe_dim);
        let ring_sk = RingSecretKey::generate(ctx.ring(), 1, &mut rng);
        let keys = PbsKeys::generate(&ctx, &lwe_sk, &ring_sk, &mut rng);
        let q = *ctx.q();
        let scale = (q.value() / (4 * ctx.n() as u64)) as i64; // output scaling
        for u in [-60i64, -7, 0, 13, 90] {
            let ct = lwe_sk.encrypt(ctx.encode_phase(u), &q, &mut rng);
            // LUT computes 3u+1, scaled up so key-switch noise is relatively
            // small.
            let out = programmable_bootstrap(&ctx, &keys, &ct, |x| (3 * x + 1) * scale);
            let got = q.to_signed(lwe_sk.phase(&out, &q));
            let want = (3 * u + 1) * scale;
            let err = (got - want).abs();
            // ModulusSwitch rounding shifts the looked-up phase by a few
            // units; the linear LUT amplifies that by its slope (3·scale).
            assert!(
                err < scale * 16,
                "u {u}: got {got}, want {want} (err {err})"
            );
        }
    }

    #[test]
    fn cmux_selects() {
        let ring = RnsContext::new(64, &ntt_primes(64, 30, 1));
        let mut rng = StdRng::seed_from_u64(2);
        let sk = RingSecretKey::generate(&ring, 1, &mut rng);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let m0: Vec<i64> = (0..64).map(|_| 200_000_000).collect();
        let m1: Vec<i64> = (0..64).map(|_| -150_000_000).collect();
        let ct0 =
            RlweCiphertext::encrypt(&ring, &sk, &RnsPoly::from_signed(&ring, &m0, 1), &mut rng);
        let ct1 =
            RlweCiphertext::encrypt(&ring, &sk, &RnsPoly::from_signed(&ring, &m1, 1), &mut rng);
        for bit in [0i64, 1] {
            let b = RgswCiphertext::encrypt_scalar(&ring, &sk, bit, 1, &params, &mut rng);
            let out = cmux(&ring, &b, &ct0, &ct1, &params);
            let phase = out.phase(&ring, &sk).to_centered_f64(&ring);
            let want = if bit == 1 {
                -150_000_000.0
            } else {
                200_000_000.0
            };
            assert!(
                (phase[0] - want).abs() < 30_000_000.0,
                "bit {bit}: {} vs {want}",
                phase[0]
            );
        }
    }

    #[test]
    fn internal_product_multiplies_bits() {
        let ring = RnsContext::new(64, &ntt_primes(64, 30, 1));
        let mut rng = StdRng::seed_from_u64(3);
        let sk = RingSecretKey::generate(&ring, 1, &mut rng);
        // Two chained gadget levels: use a fine gadget so the first level's
        // noise stays far below one digit of the second level.
        let params = RgswParams {
            base_bits: 6,
            digits: 5,
        };
        let msg: Vec<i64> = (0..64).map(|_| 200_000_000).collect();
        let ct =
            RlweCiphertext::encrypt(&ring, &sk, &RnsPoly::from_signed(&ring, &msg, 1), &mut rng);
        for (ba, bb) in [(0i64, 0i64), (0, 1), (1, 0), (1, 1)] {
            let ga = RgswCiphertext::encrypt_scalar(&ring, &sk, ba, 1, &params, &mut rng);
            let gb = RgswCiphertext::encrypt_scalar(&ring, &sk, bb, 1, &params, &mut rng);
            let gab = internal_product(&ring, &ga, &gb, &params);
            let out = external_product(&ct, &gab, &ring, &params);
            let phase = out.phase(&ring, &sk).to_centered_f64(&ring);
            let want = (ba * bb * 200_000_000) as f64;
            assert!(
                (phase[0] - want).abs() < 30_000_000.0,
                "bits ({ba},{bb}): {} vs {want}",
                phase[0]
            );
        }
    }
}
