//! Telemetry consistency under concurrency and faults.
//!
//! The registry a metrics endpoint scrapes, the typed
//! `RuntimeStats`/`SchedulerStats` snapshots, the structured event log,
//! and the `FaultPlan` outcomes a chaos node actually consumed are four
//! views of the same run. After a threaded chaos run they must agree
//! *exactly* — the counters read the same atomics, so any drift is a
//! wiring bug, not jitter.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, BatchPolicy, BootstrapService, ChaosNode, FaultPlan, JobRequest,
    LocalServiceNode, ParamPreset, Priority, RetryPolicy, RuntimeConfig, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: usize = 4;
const JOBS_PER_THREAD: usize = 3;

#[test]
fn chaos_run_counters_agree_across_all_views() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 77);
    let ctx = &setup.ctx;

    // One chaos node that fails its first dispatches, one healthy node,
    // and a local fallback. No readmission: the prober never consumes
    // plan actions, so the chaos state stays exactly attributable.
    let chaos = ChaosNode::new(
        Box::new(LocalServiceNode::new(0, Parallelism::serial())),
        "fail*3".parse::<FaultPlan>().expect("plan"),
    );
    let chaos_state = chaos.state();
    let nodes: Vec<Box<dyn ServiceNode>> = vec![
        Box::new(chaos),
        Box::new(LocalServiceNode::new(1, Parallelism::serial())),
    ];
    let svc = Arc::new(
        BootstrapService::start_with_cluster(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            nodes,
            Some(Box::new(LocalServiceNode::new(7, Parallelism::serial()))),
            RuntimeConfig {
                queue_capacity: THREADS * JOBS_PER_THREAD,
                batch: BatchPolicy::immediate(),
                retry: RetryPolicy::test_no_readmission(),
                ..RuntimeConfig::default()
            },
        )
        .expect("start service"),
    );

    let mut rng = StdRng::seed_from_u64(5);
    let delta = ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta).round() as i64)
        .collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);

    // Threaded submissions: the counters must stay exact under real
    // contention, not just in a single-threaded replay.
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (svc, ct) = (Arc::clone(&svc), ct.clone());
            std::thread::spawn(move || {
                for _ in 0..JOBS_PER_THREAD {
                    svc.submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
                        .expect("submit")
                        .wait()
                        .expect("bootstrap");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let total = (THREADS * JOBS_PER_THREAD) as u64;
    let stats = svc.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, 0);

    // View 1 vs view 2: scraped registry counters == typed stats struct,
    // field for field.
    let snap = svc.metrics().snapshot();
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter '{name}' not registered"))
    };
    assert_eq!(counter("heap_jobs_submitted_total"), stats.submitted);
    assert_eq!(counter("heap_jobs_completed_total"), stats.completed);
    assert_eq!(counter("heap_jobs_failed_total"), stats.failed);
    let sched = &stats.scheduler;
    assert_eq!(counter("heap_scheduler_batches_total"), sched.batches);
    assert_eq!(counter("heap_scheduler_shards_total"), sched.shards);
    assert_eq!(
        counter("heap_scheduler_reassignments_total"),
        sched.reassignments
    );
    assert_eq!(
        counter("heap_scheduler_node_failures_total"),
        sched.node_failures
    );
    assert_eq!(
        counter("heap_scheduler_breaker_opens_total"),
        sched.breaker_opens
    );
    assert_eq!(
        counter("heap_scheduler_readmissions_total"),
        sched.readmissions
    );
    assert_eq!(
        counter("heap_scheduler_fallback_shards_total"),
        sched.fallback_shards
    );

    // View 3: the fault plan's consumed failures are the *only* failure
    // source, and every failed shard was reassigned exactly once.
    assert_eq!(
        sched.node_failures as usize,
        chaos_state.failures_consumed(),
        "node_failures must equal injected failures"
    );
    assert_eq!(sched.reassignments, sched.node_failures);
    assert!(
        sched.node_failures >= 1,
        "the chaos plan must actually have fired"
    );

    // View 4: structured events mirror the transition counters.
    let events = svc.events();
    assert_eq!(
        events.count_kind("breaker_open") as u64,
        sched.breaker_opens
    );
    assert_eq!(events.count_kind("readmission") as u64, sched.readmissions);
    assert!(
        events.count_kind("retry") >= 1,
        "failed shards must have produced retry events"
    );

    // Hot-path histograms: one queue-wait sample per job, one linger and
    // one size sample per collected batch, one round-trip per shard.
    let hist = |name: &str| {
        snap.histogram(name)
            .unwrap_or_else(|| panic!("histogram '{name}' not registered"))
    };
    assert_eq!(hist("heap_queue_wait_ns").count, total);
    assert_eq!(hist("heap_batch_linger_ns").count, sched.batches);
    assert_eq!(hist("heap_batch_size_lwes").count, sched.batches);
    assert_eq!(hist("heap_shard_round_trip_ns").count, sched.shards);

    svc.shutdown();
}

#[test]
fn service_metrics_endpoint_serves_stage_histograms() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 78);
    let ctx = &setup.ctx;
    let svc = BootstrapService::start_with_cluster(
        Arc::clone(&setup.ctx),
        Arc::clone(&setup.boot),
        vec![Box::new(LocalServiceNode::new(0, Parallelism::serial())) as Box<dyn ServiceNode>],
        None,
        RuntimeConfig {
            queue_capacity: 2,
            batch: BatchPolicy::immediate(),
            retry: RetryPolicy::test_no_readmission(),
            ..RuntimeConfig::default()
        },
    )
    .expect("start service");
    let addr = svc.serve_metrics("127.0.0.1:0").expect("bind metrics");

    let mut rng = StdRng::seed_from_u64(6);
    let delta = ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| (((i % 3) as f64 - 1.0) / 40.0 * delta).round() as i64)
        .collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);
    svc.submit(JobRequest::Bootstrap { ct }, Priority::Normal)
        .expect("submit")
        .wait()
        .expect("bootstrap");

    let body = scrape(&addr.to_string(), "/metrics");
    // Service counters and the paper's Algorithm 2 stage histograms are
    // exposed from the same endpoint.
    assert!(body.contains("heap_jobs_completed_total 1"), "{body}");
    for stage in heap_core::PIPELINE_STAGES {
        let metric = heap_core::stage_metric_name(stage);
        assert!(
            body.contains(&format!("{metric}_count")),
            "stage '{stage}' missing from exposition:\n{body}"
        );
    }
    // Every stage actually ran for a full bootstrap.
    assert!(
        body.contains("heap_stage_blind_rotate_ns_count 1"),
        "{body}"
    );
    assert!(body.contains("heap_stage_repack_ns_count 1"), "{body}");

    let json = scrape(&addr.to_string(), "/metrics.json");
    assert!(json.contains("\"heap_jobs_completed_total\""), "{json}");

    svc.shutdown();
}

/// Minimal HTTP/1.0-style scrape of a metrics endpoint; returns the body.
fn scrape(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}
