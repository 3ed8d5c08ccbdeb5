//! The bootstrapping service runtime end to end: a loopback TCP cluster
//! of two secondary nodes, concurrent clients submitting jobs through
//! the bounded queue and dynamic batcher, and the measured transfer
//! ledger — the software analogue of HEAP's primary/secondary FPGA
//! service (paper §V).
//!
//! ```sh
//! cargo run --release --example runtime_service
//! ```

use heap::core::TransferLedger;
use heap::runtime::{
    insecure_deterministic_setup, serve, BatchPolicy, BootstrapService, JobRequest, ParamPreset,
    Priority, RemoteNode, RuntimeConfig, ServeOptions, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Primary and secondaries regenerate identical keys from the shared
    // (preset, seed) pair — see `insecure_deterministic_setup` for the caveat.
    const SEED: u64 = 42;
    println!("generating keys (preset=tiny, seed={SEED}) ...");
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, SEED);

    // Two in-process servers on real loopback sockets; `heap-node-serve`
    // runs the same `serve` loop as a standalone process.
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let (ctx, boot) = (Arc::clone(&setup.ctx), Arc::clone(&setup.boot));
        std::thread::spawn(move || serve(listener, ctx, boot, ServeOptions::default()));
    }
    println!("secondary nodes listening on {addrs:?}");

    // Connect a RemoteNode per server, sharing one measured ledger.
    let ledger = Arc::new(TransferLedger::default());
    let nodes: Vec<Box<dyn ServiceNode>> = addrs
        .iter()
        .map(|addr| {
            Box::new(
                RemoteNode::connect(addr, &setup.ctx)
                    .expect("connect")
                    .with_ledger(Arc::clone(&ledger)),
            ) as Box<dyn ServiceNode>
        })
        .collect();
    let svc = Arc::new(
        BootstrapService::start_with_nodes(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            nodes,
            RuntimeConfig {
                queue_capacity: 16,
                batch: BatchPolicy {
                    max_lwes: 2 * setup.ctx.n(),
                    // A job waits for co-travellers only while the rotate
                    // stage is busy, and at most this long; on an idle
                    // stage its batch flushes at once.
                    max_delay: Duration::from_millis(5),
                },
                ..RuntimeConfig::default()
            },
        )
        .expect("start service"),
    );

    // Three concurrent clients, each bootstrapping its own ciphertext.
    let handles: Vec<_> = (0..3u64)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let (ctx, sk) = (Arc::clone(&setup.ctx), setup.sk.clone());
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + client);
                let n = ctx.n();
                let delta = ctx.fresh_scale();
                let msg: Vec<f64> = (0..n)
                    .map(|i| (((i as u64 + client) % 9) as f64 - 4.0) / 40.0)
                    .collect();
                let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
                let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
                let handle = svc
                    .submit(JobRequest::Bootstrap { ct }, Priority::Normal)
                    .expect("submit");
                let (result, latency) = handle.wait_timed();
                let fresh = result.expect("bootstrap job").into_ciphertext();
                let dec = ctx.decrypt_coeffs(&fresh, &sk);
                let err = dec
                    .iter()
                    .zip(&msg)
                    .map(|(d, m)| (d / fresh.scale() - m).abs())
                    .fold(0.0f64, f64::max);
                (client, latency, err)
            })
        })
        .collect();
    for h in handles {
        let (client, latency, err) = h.join().expect("client thread");
        println!(
            "client {client}: refreshed in {:.2}s, max err {err:.4}",
            latency.as_secs_f64()
        );
    }

    let stats = svc.stats();
    println!(
        "\nservice: {} submitted, {} completed, {} batches, {} shards across {:?}",
        stats.submitted,
        stats.completed,
        stats.scheduler.batches,
        stats.scheduler.shards,
        svc.scheduler().healthy_names(),
    );
    println!(
        "measured socket traffic: {} LWEs scattered ({} bytes), {} accumulators gathered ({} bytes)",
        ledger.lwe_sent(),
        ledger.lwe_bytes_sent(),
        ledger.rlwe_received(),
        ledger.rlwe_bytes_received(),
    );
    svc.shutdown();
}
