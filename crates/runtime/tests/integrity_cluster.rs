//! Multi-process integrity suite: real `heap-node-serve --fault-plan`
//! processes on 127.0.0.1 exercising the end-to-end integrity and
//! tail-latency defenses over real sockets.
//!
//! Where `chaos_cluster.rs` proves crash-style faults fail over cleanly,
//! this suite proves the two silent failure modes are contained:
//!
//! - a node that *flips a payload bit on the wire* (`--fault-plan flip`)
//!   is caught by the frame CRC — the corruption counter increments and
//!   the delivered batch is still bit-identical to serial execution
//!   (wrong bits are never delivered);
//! - a node that *stalls* (`--fault-plan stall:MS` — correct reply, very
//!   late) no longer sets batch latency: with hedging enabled the shard
//!   is speculatively re-dispatched to the fast node and the batch
//!   completes long before the straggler replies.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, BatchPolicy, BootstrapService, DeterministicSetup, JobRequest,
    NodeTimeouts, ParamPreset, Priority, RemoteNode, RetryPolicy, RuntimeConfig, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 31;

/// Each test spawns two node processes of two threads each, and the hedge
/// test's warm-up asserts that *nothing* was hedged: run side by side on a
/// two-core host, the other test's nodes make its steady node look like a
/// straggler. The tests take turns instead; no threshold is loosened.
static NODES_LOCK: Mutex<()> = Mutex::new(());

fn nodes_lock() -> MutexGuard<'static, ()> {
    // A failed holder poisons the lock; the other still gets its turn.
    NODES_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `heap-node-serve` child killed on drop (tests must not leak
/// processes on assertion failure).
struct NodeProc {
    child: Child,
    addr: String,
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a server on an ephemeral port and waits for its readiness line.
fn spawn_node(extra_args: &[&str]) -> NodeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_heap-node-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--preset",
            "tiny",
            "--insecure-seed",
            &SEED.to_string(),
            "--threads",
            "2",
        ])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn heap-node-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().expect("readiness line").expect("readable");
    let addr = ready
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready}"))
        .to_string();
    NodeProc { child, addr }
}

struct Client {
    setup: DeterministicSetup,
    lwes: Vec<heap_tfhe::LweCiphertext>,
    /// Serial wire encodings of the blind-rotate reference.
    reference: Vec<Vec<u8>>,
}

fn client() -> Client {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, SEED);
    let mut rng = StdRng::seed_from_u64(7);
    let delta = setup.ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..setup.ctx.n())
        .map(|i| (((i % 7) as f64 - 3.0) / 40.0 * delta).round() as i64)
        .collect();
    let ct = setup
        .ctx
        .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);
    let indices: Vec<usize> = (0..8).collect();
    let lwes = setup.boot.modulus_switch(
        &setup.ctx,
        &setup.boot.extract_lwes(&setup.ctx, &ct, &indices),
    );
    let reference = wires(
        &setup,
        &setup
            .boot
            .blind_rotate_batch_par(&setup.ctx, &lwes, Parallelism::serial()),
    );
    Client {
        setup,
        lwes,
        reference,
    }
}

fn wires(setup: &DeterministicSetup, accs: &[heap_tfhe::RlweCiphertext]) -> Vec<Vec<u8>> {
    let moduli: Vec<u64> = (0..setup.ctx.boot_limbs())
        .map(|j| setup.ctx.rns().modulus(j).value())
        .collect();
    accs.iter().map(|acc| acc.to_wire(&moduli)).collect()
}

fn service_over(
    client: &Client,
    procs: &[&NodeProc],
    timeouts: NodeTimeouts,
    retry: RetryPolicy,
) -> BootstrapService {
    let nodes: Vec<Box<dyn ServiceNode>> = procs
        .iter()
        .map(|p| {
            Box::new(
                RemoteNode::connect_with(&p.addr, &client.setup.ctx, timeouts)
                    .expect("connect to node"),
            ) as Box<dyn ServiceNode>
        })
        .collect();
    BootstrapService::start_with_cluster(
        Arc::clone(&client.setup.ctx),
        Arc::clone(&client.setup.boot),
        nodes,
        None,
        RuntimeConfig {
            queue_capacity: 16,
            batch: BatchPolicy::immediate(),
            retry,
            ..RuntimeConfig::default()
        },
    )
    .expect("start service")
}

/// Submits the reference blind-rotate batch and asserts bit-identity.
fn rotate_and_check(svc: &BootstrapService, client: &Client) {
    let accs = svc
        .submit(
            JobRequest::BlindRotate {
                lwes: client.lwes.clone(),
            },
            Priority::Normal,
        )
        .expect("submit")
        .wait()
        .expect("blind-rotate job")
        .into_accumulators();
    assert_eq!(
        wires(&client.setup, &accs),
        client.reference,
        "wrong bits delivered"
    );
}

/// Acceptance: a node silently flipping payload bits on the wire is
/// *detected* — the CRC-layer corruption counter increments, the node
/// fails over, and the delivered batch is bit-identical to serial
/// execution. Wrong bits are never delivered.
#[test]
fn wire_flip_is_counted_at_crc_layer_and_never_delivered() {
    let _turn = nodes_lock();
    let flipper = spawn_node(&["--fault-plan", "flip*4"]);
    let steady = spawn_node(&[]);
    let client = client();
    let timeouts = NodeTimeouts {
        connect: Duration::from_secs(5),
        read: Duration::from_secs(30),
        write: Duration::from_secs(5),
    };
    let svc = service_over(
        &client,
        &[&flipper, &steady],
        timeouts,
        RetryPolicy::test_no_readmission(),
    );
    rotate_and_check(&svc, &client);
    let stats = svc.stats().scheduler;
    assert!(stats.corruption_crc >= 1, "{stats:?}");
    assert_eq!(stats.corruption_attest, 0, "{stats:?}");
    assert!(stats.node_failures >= 1, "{stats:?}");
    assert!(stats.breaker_opens >= 1, "{stats:?}");
    assert_eq!(svc.scheduler().healthy_count(), 1);
    svc.shutdown();
}

/// Acceptance: with hedging on, a stalling node (correct reply, seconds
/// late) does not set batch latency — the straggling shard is
/// re-dispatched to the fast node, the hedge wins, and nothing is
/// counted as a failure (the reply was valid, just late).
#[test]
fn stalled_node_is_hedged_and_does_not_set_batch_latency() {
    const STALL_MS: u64 = 10_000;
    let _turn = nodes_lock();
    // One pass first so the warmup batch seeds every node's latency
    // EWMA, then the long stall.
    let plan = format!("pass,stall:{STALL_MS}");
    let straggler = spawn_node(&["--fault-plan", &plan]);
    let steady = spawn_node(&[]);
    let client = client();
    let timeouts = NodeTimeouts {
        connect: Duration::from_secs(5),
        // The read deadline must exceed the stall: a stall is a *slow
        // success*, not a timeout — only the hedge may beat it.
        read: Duration::from_secs(2 * STALL_MS / 1000),
        write: Duration::from_secs(5),
    };
    let retry = RetryPolicy {
        hedge_after: Some(1.5),
        hedge_min_latency: Duration::from_millis(50),
        hedge_min_samples: 1,
        ..RetryPolicy::test_no_readmission()
    };
    let svc = service_over(&client, &[&straggler, &steady], timeouts, retry);

    // Warmup: both nodes serve, EWMAs get samples, nothing hedges.
    rotate_and_check(&svc, &client);
    let warm = svc.stats().scheduler;
    assert_eq!(warm.hedges_issued, 0, "{warm:?}");

    // The stalled batch: bounded by hedge + recompute, not the stall.
    let t0 = Instant::now();
    rotate_and_check(&svc, &client);
    let elapsed = t0.elapsed();
    let stats = svc.stats().scheduler;
    assert!(stats.hedges_issued >= 1, "{stats:?}");
    assert!(stats.hedges_won >= 1, "{stats:?}");
    assert_eq!(
        stats.node_failures, 0,
        "a stall is not a failure: {stats:?}"
    );
    assert!(
        elapsed < Duration::from_millis(STALL_MS * 8 / 10),
        "batch latency {elapsed:?} was set by the {STALL_MS}ms straggler"
    );
    svc.shutdown();
}
