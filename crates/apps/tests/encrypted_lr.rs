//! End-to-end encrypted logistic-regression training (paper §VI-F1 at
//! reduced scale): CKKS SIMD forward/backward pass, degree-3 sigmoid, and
//! one scheme-switched bootstrap per weight ciphertext per iteration.
//!
//! Weights are slot-broadcast, so their plaintext polynomial is supported
//! on coefficient 0 only — the bootstrap runs with a single extracted LWE
//! (the extreme sparse-packing point of the paper's `n_br` knob).

use heap_apps::lr::{plaintext_step, Dataset, EncryptedLrTrainer};
use heap_ckks::{CkksContext, CkksParams, GaloisKeys, RelinearizationKey, SecretKey};
use heap_core::{BootstrapConfig, Bootstrapper};
use heap_math::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct LrFixture {
    ctx: CkksContext,
    sk: SecretKey,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    boot: Bootstrapper,
    rng: StdRng,
}

fn fixture() -> LrFixture {
    let params = CkksParams::new(ParamSet {
        limbs: 6,
        ..ParamSet::SMALL
    })
    .expect("valid LR test params");
    let ctx = CkksContext::new(params);
    let mut rng = StdRng::seed_from_u64(2024);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let rlk = RelinearizationKey::generate(&ctx, &sk, &mut rng);
    // Rotations for the slot-sum (powers of two).
    let rotations: Vec<i64> = (0..10).map(|k| 1i64 << k).collect();
    let gks = GaloisKeys::generate(&ctx, &sk, &rotations, false, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    LrFixture {
        ctx,
        sk,
        rlk,
        gks,
        boot,
        rng,
    }
}

#[test]
fn encrypted_training_tracks_plaintext_reference() {
    let mut f = fixture();
    let slots = f.ctx.slots();
    let features = 4usize;
    let data = Dataset::synthetic(2 * slots, features, &mut f.rng);

    let trainer = EncryptedLrTrainer::new(&f.ctx, &f.rlk, &f.gks, &f.boot);
    let lr = trainer.learning_rate * 8.0;
    let mut trainer = trainer;
    trainer.learning_rate = lr;

    // Plaintext reference on identical batches.
    let mut plain_w = vec![0.0f64; features];
    let mut enc_w = trainer.initial_weights(features, &f.sk, &mut f.rng);

    let iterations = 2usize;
    for it in 0..iterations {
        let start = it * slots;
        let bx: Vec<Vec<f64>> = (0..slots).map(|k| data.x[start + k].clone()).collect();
        let by: Vec<f64> = (0..slots).map(|k| data.y[start + k]).collect();
        plaintext_step(&mut plain_w, &bx, &by, lr);
        let batch_u = trainer.encrypt_batch(&bx, &by, &f.sk, &mut f.rng);
        enc_w = trainer.iteration(enc_w, &batch_u);
        // Weights come back refreshed at full level.
        assert_eq!(enc_w[0].limbs(), f.ctx.max_limbs());
    }

    let decrypted = trainer.decrypt_weights(&enc_w, &f.sk);
    for (j, (enc, plain)) in decrypted.iter().zip(&plain_w).enumerate() {
        assert!(
            (enc - plain).abs() < 0.12,
            "weight {j}: encrypted {enc} vs plaintext {plain}"
        );
    }

    // The learned model classifies the (separable) synthetic data well.
    let acc = data.accuracy(&decrypted);
    let plain_acc = data.accuracy(&plain_w);
    assert!(plain_acc > 0.8, "plaintext accuracy {plain_acc}");
    assert!(
        acc > 0.75,
        "encrypted accuracy {acc} (plaintext {plain_acc})"
    );
}

#[test]
fn weight_ciphertexts_are_coefficient_sparse() {
    // The slot-broadcast weights encode to a constant polynomial, which is
    // why the end-of-iteration bootstrap only needs one blind rotation.
    let mut f = fixture();
    let ctx = &f.ctx;
    let v = vec![0.07f64; ctx.slots()];
    let ct = ctx.encrypt_real_sk(&v, &f.sk, &mut f.rng);
    let coeffs = ctx.decrypt_coeffs(&ct, &f.sk);
    let scale = ct.scale();
    assert!((coeffs[0] / scale - 0.07).abs() < 1e-4);
    for (i, c) in coeffs.iter().enumerate().skip(1) {
        assert!(
            (c / scale).abs() < 1e-4,
            "coefficient {i} unexpectedly nonzero: {}",
            c / scale
        );
    }
}
