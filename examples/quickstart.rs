//! Quickstart: encrypt, compute, rotate, and decrypt with the CKKS scheme.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use heap::ckks::{CkksContext, CkksParams, GaloisKeys, RelinearizationKey, SecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's small-footprint philosophy: N = 2^10 here; swap in
    // `CkksParams::heap_paper()` for the full N = 2^13 / log Q = 216 set.
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(42);

    println!("== HEAP quickstart: CKKS basics ==");
    println!(
        "ring N = {}, slots = {}, L = {} limbs of {} bits",
        ctx.n(),
        ctx.slots(),
        ctx.max_limbs(),
        ctx.params().limb_bits
    );

    let sk = SecretKey::generate(&ctx, &mut rng);
    let rlk = RelinearizationKey::generate(&ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng);

    let a: Vec<f64> = (0..8).map(|i| 0.01 * i as f64).collect();
    let b: Vec<f64> = (0..8).map(|i| 0.1 - 0.01 * i as f64).collect();
    let ca = ctx.encrypt_real_sk(&a, &sk, &mut rng);
    let cb = ctx.encrypt_real_sk(&b, &sk, &mut rng);

    // Add.
    let sum = ctx.decrypt_real(&ctx.add(&ca, &cb), &sk);
    println!(
        "a + b       = {:?}",
        &sum[..4]
            .iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    // Mult + Rescale (consumes one level).
    let prod_ct = ctx.rescale(&ctx.mul(&ca, &cb, &rlk));
    let prod = ctx.decrypt_real(&prod_ct, &sk);
    println!(
        "a * b       = {:?}  (level {} -> {})",
        &prod[..4]
            .iter()
            .map(|x| (x * 1e5).round() / 1e5)
            .collect::<Vec<_>>(),
        ctx.max_limbs() - 1,
        prod_ct.level()
    );

    // Rotate.
    let rot = ctx.decrypt_real(&ctx.rotate(&ca, 1, &gks), &sk);
    println!(
        "rot(a, 1)   = {:?}",
        &rot[..4]
            .iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    // Verify.
    for i in 0..4 {
        assert!((sum[i] - (a[i] + b[i])).abs() < 1e-3);
        assert!((prod[i] - a[i] * b[i]).abs() < 1e-3);
        assert!((rot[i] - a[i + 1]).abs() < 1e-3);
    }
    println!("all results verified against plaintext ✓");
}
