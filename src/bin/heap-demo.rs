//! `heap-demo` — a small CLI tour of the repository.
//!
//! ```sh
//! cargo run --release --bin heap-demo -- info
//! cargo run --release --bin heap-demo -- bootstrap
//! cargo run --release --bin heap-demo -- gates
//! cargo run --release --bin heap-demo -- switch
//! ```

use heap::ckks::{CkksContext, CkksParams, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper};
use heap::hw::perf::BootstrapModel;
use heap::hw::{DesignUtilization, FpgaDevice};
use heap::math::ParamSet;
use heap::tfhe::gates;
use heap::tfhe::lwe::LweSecretKey;
use heap::tfhe::pbs::{PbsKeys, TfheContext, TfheParams};
use heap::tfhe::rlwe::RingSecretKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let cmd = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "info".to_string());
    match cmd.as_str() {
        "info" => info(),
        "bootstrap" => bootstrap(),
        "gates" => gates_demo(),
        "switch" => switch_demo(),
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("usage: heap-demo [info|bootstrap|gates|switch]");
            std::process::exit(2);
        }
    }
}

fn info() {
    println!("HEAP reproduction — parameter sets and device model\n");
    for set in ParamSet::ALL {
        let p = CkksParams::new(set).expect("listed sets are valid");
        println!(
            "  {:<12} N = 2^{:<2} slots = {:<5} L = {:<2} limb = {} bits  logQ = {}  n_t = {}",
            p.name,
            p.log_n,
            p.slots(),
            p.limbs,
            p.limb_bits,
            p.log_q(),
            p.n_t
        );
    }
    let device = FpgaDevice::alveo_u280();
    println!("\nTarget device: {}", device.name);
    for row in DesignUtilization::heap_on(&device).rows() {
        println!(
            "  {:<12} {:>9} / {:<9} ({:.2}%)",
            row.resource,
            row.utilized,
            row.available,
            row.percent()
        );
    }
    let model = BootstrapModel::paper();
    println!(
        "\nModeled bootstrap (fully packed, 8 FPGAs): {:.3} ms",
        model.paper_full_ms()
    );
}

fn bootstrap() {
    println!("Scheme-switched bootstrap demo (N = 2^7 toy ring)\n");
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    let msg = [0.15f64, -0.1, 0.05];
    let ct = ctx.mod_drop_to(&ctx.encrypt_real_sk(&msg, &sk, &mut rng), 1);
    println!("exhausted ciphertext: {} limb(s)", ct.limbs());
    let t = Instant::now();
    let fresh = boot.bootstrap(&ctx, &ct);
    println!(
        "refreshed to {} limbs in {:.2?} ({} blind rotations)",
        fresh.limbs(),
        t.elapsed(),
        ctx.n()
    );
    let dec = ctx.decrypt_real(&fresh, &sk);
    for (m, d) in msg.iter().zip(&dec) {
        println!("  {m:>6.3} -> {d:>8.4}");
    }
}

fn gates_demo() {
    println!("Standalone-TFHE gate bootstrapping (§VII-A)\n");
    let ctx = TfheContext::new(TfheParams::test_small());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = LweSecretKey::generate(&mut rng, ctx.params().lwe_dim);
    let ring_sk = RingSecretKey::generate(ctx.ring(), 1, &mut rng);
    let keys = PbsKeys::generate(&ctx, &sk, &ring_sk, &mut rng);
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let ca = gates::encrypt_bit(&ctx, &sk, a, &mut rng);
        let cb = gates::encrypt_bit(&ctx, &sk, b, &mut rng);
        let t = Instant::now();
        let nand = gates::decrypt_bit(&ctx, &sk, &gates::nand(&ctx, &keys, &ca, &cb));
        let xor = gates::decrypt_bit(&ctx, &sk, &gates::xor(&ctx, &keys, &ca, &cb));
        println!(
            "  {a:>5} {b:>5}:  NAND = {nand:<5}  XOR = {xor:<5}  ({:.1?}/gate)",
            t.elapsed() / 2
        );
    }
}

fn switch_demo() {
    println!("General scheme switching: homomorphic sign under encryption\n");
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    let delta = ctx.fresh_scale();
    let inputs = [-0.09f64, -0.02, 0.03, 0.08];
    let mut coeffs = vec![0i64; ctx.n()];
    for (k, v) in inputs.iter().enumerate() {
        coeffs[k * 32] = (v * delta).round() as i64;
    }
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    let indices: Vec<usize> = (0..inputs.len()).map(|k| k * 32).collect();
    let out = boot.bootstrap_eval(&ctx, &ct, &indices, |x| if x > 0.0 { 0.1 } else { -0.1 });
    let dec = ctx.decrypt_coeffs(&out, &sk);
    for (k, v) in inputs.iter().enumerate() {
        println!("  sign({v:>6.3}) -> {:>7.4}", dec[k * 32] / out.scale());
    }
}
