//! A service's threads return to baseline once it is shut down and dropped.
//!
//! The service runs exactly the stage workers its `PipelineConfig` asks
//! for — no batcher thread: whichever waiting thread sees the pipeline
//! machine's wake time pass sends the wake — plus the scheduler's prober
//! and its short-lived per-attempt threads. `shutdown` drains the pipeline
//! and joins every worker; dropping the service takes the prober with it.
//! A worker that never learns the pipeline has drained shows up here as a
//! count that never comes back down (or as a `shutdown` that never
//! returns).
//!
//! One `#[test]` in its own binary: libtest runs a file's tests
//! concurrently, and the count must be quiet.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, BootstrapService, JobRequest, LocalServiceNode, ParamPreset,
    PipelineConfig, Priority, RuntimeConfig,
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

/// Waits up to two seconds for the count to reach `want`.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    threads()
}

#[test]
fn service_threads_return_to_baseline_after_shutdown() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 41);
    let ct = {
        let coeffs = vec![0i64; setup.ctx.n()];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let delta = setup.ctx.fresh_scale();
        setup
            .ctx
            .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng)
    };

    let baseline = quiet_threads();
    let svc = BootstrapService::start_with_nodes(
        Arc::clone(&setup.ctx),
        Arc::clone(&setup.boot),
        vec![Box::new(LocalServiceNode::new(0, Parallelism::serial()))],
        RuntimeConfig {
            pipeline: PipelineConfig::workers(2),
            ..RuntimeConfig::default()
        },
    )
    .expect("start service");
    assert_eq!(
        threads(),
        baseline + 2 * 3 + 1,
        "two workers per stage and the prober"
    );
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let request = JobRequest::Bootstrap { ct: ct.clone() };
            svc.submit(request, Priority::Normal).expect("submit")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("bootstrap");
    }
    assert_eq!(svc.stats().completed, 6);

    svc.shutdown();
    assert_eq!(
        settles_at(baseline + 1),
        baseline + 1,
        "a stage worker outlived shutdown"
    );
    drop(svc);
    assert_eq!(
        settles_at(baseline),
        baseline,
        "threads outlived the service"
    );
}
