//! Cross-crate integration: the full HEAP story in one test file —
//! encrypt, compute to exhaustion, scheme-switch bootstrap (single node
//! and sharded over scheduler nodes), keep computing, decrypt; plus the
//! functional-bootstrap check and the hardware model's overlap schedule.

use heap::ckks::{CkksContext, CkksParams, RelinearizationKey, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper, ErrorStats, Parallelism};
use heap::hw::perf::BootstrapModel;
use heap::runtime::{LocalServiceNode, Scheduler, ServiceNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup() -> (
    CkksContext,
    SecretKey,
    RelinearizationKey,
    Bootstrapper,
    StdRng,
) {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(4242);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let rlk = RelinearizationKey::generate(&ctx, &sk, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    (ctx, sk, rlk, boot, rng)
}

#[test]
fn unbounded_depth_computation() {
    // The paper's raison d'être: with the scheme-switched bootstrap, CKKS
    // evaluates circuits deeper than the parameter budget.
    let (ctx, sk, rlk, boot, mut rng) = setup();
    let m = 0.21f64;
    let mut ct = ctx.encrypt_real_sk(&[m; 8], &sk, &mut rng);
    let mut expect = m;
    let mut boots = 0;
    // 6 squarings with only L = 3 (2 levels per refresh cycle).
    for _ in 0..6 {
        if ct.limbs() == 1 {
            ct = boot.bootstrap(&ctx, &ct);
            boots += 1;
            assert_eq!(ct.limbs(), ctx.max_limbs());
        }
        ct = ctx.rescale(&ctx.square(&ct, &rlk));
        expect *= expect;
    }
    assert!(boots >= 2, "should have bootstrapped at least twice");
    let got = ctx.decrypt_real(&ct, &sk)[0];
    assert!(
        (got - expect).abs() < 0.05,
        "after depth 6: got {got}, want {expect}"
    );
}

#[test]
fn cluster_and_single_node_agree() {
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let msg: Vec<f64> = (0..ctx.n())
        .map(|i| ((i % 5) as f64 - 2.0) / 30.0)
        .collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    let single = boot.bootstrap(&ctx, &ct);
    let (ctx, boot) = (Arc::new(ctx), Arc::new(boot));
    let indices: Vec<usize> = (0..ctx.n()).collect();
    let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
    for nodes in [1usize, 3, 8] {
        let sched = Scheduler::new(
            (0..nodes)
                .map(|i| {
                    Box::new(LocalServiceNode::new(i, Parallelism::serial()))
                        as Box<dyn ServiceNode>
                })
                .collect(),
        )
        .unwrap();
        let rotated = sched.execute(&ctx, &boot, &lwes).unwrap();
        let multi = boot.finish(&ctx, boot.to_leaves(&ctx, &rotated, &indices), ct.scale());
        // Deterministic pipeline: identical bits regardless of node count.
        assert_eq!(multi.c0(), single.c0(), "{nodes} nodes");
        assert_eq!(multi.c1(), single.c1(), "{nodes} nodes");
    }
}

#[test]
fn functional_bootstrap_applies_nonlinearity() {
    // §III-A: f inside BlindRotate evaluates sigmoid/ReLU during refresh.
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let n = ctx.n();
    let msg: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 40.0).collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    let indices: Vec<usize> = (0..n).collect();

    let sigmoid = |x: f64| 1.0 / (1.0 + (-8.0 * x).exp()) - 0.5;
    let out = boot.bootstrap_eval(&ctx, &ct, &indices, sigmoid);
    let dec = ctx.decrypt_coeffs(&out, &sk);
    let got: Vec<f64> = dec.iter().map(|d| d / out.scale()).collect();
    let want: Vec<f64> = msg.iter().map(|&m| sigmoid(m)).collect();
    let stats = ErrorStats::from_pairs(&got, &want);
    assert!(
        stats.max_abs < 0.03,
        "sigmoid-in-bootstrap error {:?}",
        stats
    );
}

#[test]
fn precision_survives_repeated_bootstrapping() {
    // Bootstrap noise must not accumulate catastrophically: refresh the
    // same ciphertext several times and watch the drift stay bounded.
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let msg = 0.11f64;
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| if i == 0 { (msg * delta) as i64 } else { 0 })
        .collect();
    let mut ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    for round in 0..3 {
        let fresh = boot.bootstrap_indices(&ctx, &ct, &[0]);
        let got = ctx.decrypt_coeffs(&fresh, &sk)[0] / fresh.scale();
        assert!((got - msg).abs() < 0.02, "round {round}: drift to {got}");
        ct = ctx.mod_drop_to(&fresh, 1);
    }
}

#[test]
fn hardware_model_consistent_with_functional_ledger() {
    // The accelerator model prices the scheduler's communication pattern
    // (one contiguous shard per node): for every cluster size the paper
    // builds, scatter/gather is hidden behind compute.
    let model = BootstrapModel::paper();
    for nodes in 2..=8usize {
        let sched = model.step3_schedule(4096, nodes);
        assert!(sched.communication_hidden(), "{nodes} nodes");
    }
    assert!(model.total_ms(4096, 4) > model.total_ms(4096, 8));
}
