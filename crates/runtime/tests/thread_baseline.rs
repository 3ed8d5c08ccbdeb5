//! Threads return to baseline (ROADMAP item 4(d), first step).
//!
//! The scheduler runs one detached thread per attempt — a stalled loser
//! must never block a batch — plus one prober. This pins the other half
//! of that bargain: no thread outlives its attempt, and `drop` takes the
//! prober with it. A prober that misses its wake-up, or an attempt thread
//! parked on a round nobody will ever notify, shows up here as a count
//! that never comes back down.
//!
//! One `#[test]` in its own binary: libtest runs a file's tests
//! concurrently, and the count must be quiet.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, ChaosNode, FaultPlan, LocalServiceNode, ParamPreset, RetryPolicy,
    Scheduler, ServiceNode,
};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// The count once it has stopped moving: a thread stays listed in `/proc`
/// for a moment after `join` has returned, and the fixture's key
/// generation joins worker threads right before the baseline is read.
fn quiet_threads() -> usize {
    let mut last = threads();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = threads();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// A chaos node over a serial in-process node. The plans use every fault
/// that ends by itself; `stall` and `hang` sleep by design.
fn chaos(index: usize, plan: &str) -> Box<dyn ServiceNode> {
    Box::new(ChaosNode::new(
        Box::new(LocalServiceNode::new(index, Parallelism::serial())),
        plan.parse::<FaultPlan>().expect("plan"),
    ))
}

#[test]
fn threads_return_to_baseline_after_a_chaos_run() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 31);
    let ct = {
        let coeffs = vec![0i64; setup.ctx.n()];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let delta = setup.ctx.fresh_scale();
        setup
            .ctx
            .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng)
    };
    let lwes = setup.boot.modulus_switch(
        &setup.ctx,
        &setup
            .boot
            .extract_lwes(&setup.ctx, &ct, &[0, 1, 2, 3, 4, 5]),
    );

    let baseline = quiet_threads();
    let sched = Scheduler::with_policy(
        vec![
            chaos(0, "fail,pass*2,flip,delay:1*3,drop,pass,truncate*2"),
            chaos(1, "delay:1,drop*2,pass*3,fail,flip,pass*2,truncate"),
            chaos(2, "pass,truncate,delay:1*2,fail*3,pass*2,drop,flip"),
        ],
        Some(Box::new(LocalServiceNode::new(9, Parallelism::serial()))),
        RetryPolicy::test_fast(),
    )
    .expect("scheduler");
    assert_eq!(threads(), baseline + 1, "the prober is the only new thread");
    for batch in 0..40 {
        let accs = sched
            .execute(&setup.ctx, &setup.boot, &lwes)
            .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        assert_eq!(accs.len(), lwes.len(), "batch {batch}");
        // Every tenth batch, let the prober bring the fleet back (probes
        // consume plan actions too), so later batches meet the plans'
        // tails and readmission is part of what the count must survive.
        let deadline = Instant::now() + Duration::from_secs(10);
        while batch % 10 == 9 && sched.healthy_count() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let stats = sched.stats();
    assert!(
        stats.node_failures >= 3,
        "the plans were exercised: {stats:?}"
    );
    assert!(stats.readmissions >= 1, "the prober ran: {stats:?}");
    drop(sched);

    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), baseline, "threads outlived the scheduler");
}
