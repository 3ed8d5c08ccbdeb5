//! Encrypted logistic-regression training (paper §VI-F1) at reduced
//! scale: the HELR workload with one scheme-switched bootstrap per weight
//! per iteration, compared against the exact plaintext reference, plus
//! the full-scale Table VI cost from the accelerator model.
//!
//! ```sh
//! cargo run --release --example lr_training
//! ```

use heap::apps::lr::{lr_iteration_trace, plaintext_step, Dataset, EncryptedLrTrainer};
use heap::ckks::{CkksContext, CkksParams, GaloisKeys, RelinearizationKey, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper};
use heap::hw::perf::{BootstrapModel, OpTimings};
use heap::math::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let params = CkksParams::new(ParamSet {
        limbs: 6,
        ..ParamSet::SMALL
    })
    .expect("valid params");
    let ctx = CkksContext::new(params);
    let mut rng = StdRng::seed_from_u64(123);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let rlk = RelinearizationKey::generate(&ctx, &sk, &mut rng);
    let rotations: Vec<i64> = (0..10).map(|k| 1i64 << k).collect();
    let gks = GaloisKeys::generate(&ctx, &sk, &rotations, false, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);

    let slots = ctx.slots();
    let features = 6usize;
    let iterations = 3usize;
    let data = Dataset::synthetic(iterations * slots + slots, features, &mut rng);

    println!("== encrypted LR training (reduced scale) ==");
    println!(
        "N = {}, batch = {slots} samples/iteration, {features} features, {iterations} iterations",
        ctx.n()
    );

    let mut trainer = EncryptedLrTrainer::new(&ctx, &rlk, &gks, &boot);
    trainer.learning_rate = 8.0;
    let lr = trainer.learning_rate;

    let mut plain_w = vec![0.0f64; features];
    let mut enc_w = trainer.initial_weights(features, &sk, &mut rng);

    for it in 0..iterations {
        let start = it * slots;
        let bx: Vec<Vec<f64>> = (0..slots).map(|k| data.x[start + k].clone()).collect();
        let by: Vec<f64> = (0..slots).map(|k| data.y[start + k]).collect();
        plaintext_step(&mut plain_w, &bx, &by, lr);
        let batch_u = trainer.encrypt_batch(&bx, &by, &sk, &mut rng);
        let t = Instant::now();
        enc_w = trainer.iteration(enc_w, &batch_u);
        let w_now = trainer.decrypt_weights(&enc_w, &sk);
        println!(
            "  iter {}: {:?} in {:.2?} (plaintext {:?})",
            it + 1,
            w_now
                .iter()
                .map(|x| (x * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            t.elapsed(),
            plain_w
                .iter()
                .map(|x| (x * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        );
    }

    let final_w = trainer.decrypt_weights(&enc_w, &sk);
    let acc_enc = data.accuracy(&final_w);
    let acc_plain = data.accuracy(&plain_w);
    println!("accuracy: encrypted {acc_enc:.3}, plaintext {acc_plain:.3}");

    println!("\n== full-scale accelerator cost (Table VI path) ==");
    let trace = lr_iteration_trace(196, 256);
    let (total_ms, boot_ms) =
        trace.time_ms(&OpTimings::heap_single_fpga(), &BootstrapModel::paper(), 8);
    println!(
        "model: {:.3} ms/iteration ({:.0}% bootstrapping) — paper reports 7 ms/iteration, ~21% bootstrapping",
        total_ms,
        100.0 * boot_ms / total_ms
    );
}
