//! Bit-identity of the key-switch inner product across MAC accumulators.
//!
//! `key_switch` — and through it every rotation, `CkksContext::apply_galois`
//! — runs one extended-basis digit MAC; where the narrow kernels apply
//! (AVX2 + FMA, 36-bit chain) each digit runs from residue to accumulator in
//! `f64` lanes, under `force_scalar` it is lifted, transformed and summed as
//! full products in `u128`. Both must reduce to the same canonical residues
//! — on the same live keys, since the accumulator is chosen per call — and
//! the gate must land on the side the host allows, so a CI host with the
//! kernel is known to exercise it. (On a scalar host both halves take the
//! `u128` path and the bit-identity half is an identity.)
//!
//! The test lives alone in its own integration binary so the process-wide
//! `force_scalar` cannot flip the backend under the native half, and has
//! nobody to restore it for afterwards.

use heap_ckks::keyswitch::key_switch;
use heap_ckks::{CkksContext, CkksParams, GaloisKeys, KeySwitchKey, SecretKey};
use heap_math::poly::rotation_exponent;
use heap_math::{mac_path, simd, MacPath, RnsPoly};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn key_switch_and_galois_forced_scalar_are_bit_identical() {
    // The paper's 36-bit limbs (special and aux primes included) at N = 2^10.
    let params = CkksParams::builder().log_n(10).limbs(3).build().unwrap();
    let ctx = CkksContext::new(params);
    // `digit_mac`'s gate: every chain modulus it accumulates under, one
    // term per digit, digits as large as the largest ciphertext prime.
    let gate = || {
        let chain = (0..ctx.max_limbs()).chain([ctx.special_idx()]);
        let digit_bound = (0..ctx.max_limbs()).map(|i| ctx.rns().modulus(i).value());
        mac_path(
            chain.map(|j| ctx.rns().ntt(j)),
            ctx.max_limbs(),
            digit_bound.max().unwrap(),
        )
    };
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
        .map(|j| sk.eval_limb(j).to_vec())
        .collect();
    let ksk = KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng);
    let d_coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| ((i * 7919) % 2001) as i64 - 1000)
        .collect();
    let mut d = RnsPoly::from_signed(ctx.rns(), &d_coeffs, ctx.max_limbs());
    d.to_eval(ctx.rns());

    let gks = GaloisKeys::generate(&ctx, &sk, &[1, 5], false, &mut rng);
    let exps: Vec<usize> = [1i64, 5]
        .iter()
        .map(|&r| rotation_exponent(r, ctx.n()))
        .collect();
    let msg: Vec<f64> = (0..ctx.slots()).map(|i| (i % 10) as f64 / 50.0).collect();
    let ct = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
    // Collected, so each side runs under the backend it is named for.
    let rotate = || -> Vec<_> {
        exps.iter()
            .map(|&g| ctx.apply_galois(&ct, g, &gks))
            .collect()
    };

    let native = if simd::active().has_f64_lanes() {
        MacPath::Narrow
    } else {
        MacPath::Wide
    };
    assert_eq!(gate(), native);
    let native_ks = key_switch(&ctx, &d, &ksk);
    let native_rot = rotate();

    simd::force_scalar(true);
    assert_eq!(simd::active(), simd::Backend::Scalar);
    assert_eq!(gate(), MacPath::Wide);
    let scalar_ks = key_switch(&ctx, &d, &ksk);
    let scalar_rot = rotate();

    assert!(
        native_ks == scalar_ks,
        "key_switch diverged under forced scalar"
    );
    for (native, scalar) in native_rot.iter().zip(&scalar_rot) {
        assert!(
            native.c0() == scalar.c0() && native.c1() == scalar.c1(),
            "apply_galois diverged under forced scalar"
        );
    }
}
