//! Multi-node parallel bootstrapping (paper §V): the same bootstrap with
//! its blind rotations sharded by the runtime `Scheduler` over 1, 2, 4, and
//! 8 in-process nodes, plus the accelerator model's predicted times at the
//! paper's full scale. (`runtime_service` runs the same scheduler over real
//! sockets, where the transfer ledger has something to measure.)
//!
//! ```sh
//! cargo run --release --example multi_node_cluster
//! ```

use heap::ckks::{CkksContext, CkksParams, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper, Parallelism};
use heap::hw::perf::BootstrapModel;
use heap::runtime::{LocalServiceNode, Scheduler, ServiceNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()));
    let mut rng = StdRng::seed_from_u64(99);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Arc::new(Bootstrapper::generate(
        &ctx,
        &sk,
        BootstrapConfig::test_small(),
        &mut rng,
    ));

    let delta = ctx.fresh_scale();
    let msg: Vec<f64> = (0..ctx.n())
        .map(|i| ((i % 9) as f64 - 4.0) / 40.0)
        .collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    println!(
        "== functional cluster execution (N = {} blind rotations) ==",
        ctx.n()
    );
    println!("(wall-clock speedup requires multiple cores; the point here is");
    println!(" the contiguous shard schedule and bit-identical results)");
    let indices: Vec<usize> = (0..ctx.n()).collect();
    let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
    let single = boot.bootstrap(&ctx, &ct);
    for nodes in [1usize, 2, 4, 8] {
        // Divide the host's threads evenly, like HEAP's fixed per-FPGA compute.
        let per_node = Parallelism::with_threads((Parallelism::max().threads / nodes).max(1));
        let sched = Scheduler::new(
            (0..nodes)
                .map(|i| Box::new(LocalServiceNode::new(i, per_node)) as Box<dyn ServiceNode>)
                .collect(),
        )
        .expect("at least one node");
        let t = Instant::now();
        let rotated = sched
            .execute(&ctx, &boot, &lwes)
            .expect("local nodes cannot fail");
        let fresh = boot.finish(&ctx, boot.to_leaves(&ctx, &rotated, &indices), ct.scale());
        let dt = t.elapsed().as_secs_f64();
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        let err = dec
            .iter()
            .zip(&msg)
            .map(|(d, m)| (d / fresh.scale() - m).abs())
            .fold(0.0f64, f64::max);
        println!(
            "  {nodes} node(s): {dt:.2}s, {} shard(s), max err {err:.4}, bit-identical to one node: {}",
            sched.stats().shards,
            fresh.c0() == single.c0() && fresh.c1() == single.c1(),
        );
    }

    println!("\n== accelerator model at paper scale (N = 2^13, fully packed) ==");
    let model = BootstrapModel::paper();
    for nodes in [1usize, 2, 4, 8] {
        let ms = model.total_ms(4096, nodes);
        let sched = model.step3_schedule(4096, nodes);
        println!(
            "  {nodes} FPGA(s): {:.3} ms  (communication hidden: {})",
            ms,
            sched.communication_hidden()
        );
    }
    println!(
        "  paper reports ~1.5 ms for 8 FPGAs; model: {:.3} ms",
        model.paper_full_ms()
    );
}
