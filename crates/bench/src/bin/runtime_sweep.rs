//! Throughput/latency sweep of the bootstrapping service runtime over a
//! real loopback TCP cluster, emitting `BENCH_runtime.json`.
//!
//! For every (node count, batch size) configuration the harness starts
//! `heap-runtime` servers on ephemeral loopback ports (in-process threads
//! speaking the same frame protocol as `heap-node-serve`), connects
//! `RemoteNode`s, and pushes a fixed job mix through the full service
//! stack — bounded queue, dynamic batcher, staged streaming pipeline,
//! least-loaded scheduler. It reports jobs/sec plus p50/p99
//! submit-to-complete latency, so the batching trade (larger batches
//! amortize transport, smaller ones cut queueing delay) is visible in
//! one table.
//!
//! Row groups:
//!
//! - `scaling` — full `Bootstrap` jobs across node counts and batch
//!   caps, so every Algorithm 2 stage column populates in every row.
//! - `degraded`/`healed` — a 2-node cluster where one node starts on a
//!   `fail*N` fault plan (throughput while the breaker trips, shards
//!   reassign, and the prober readmits it), then the same cluster after
//!   the plan is exhausted.
//! - `pipeline` — the same `Bootstrap` mix at increasing per-stage
//!   worker counts, showing the staged pipeline overlapping batch k+1's
//!   prep with batch k's blind rotation.
//! - `direct`/`sessions` — the same blind-rotate workload submitted
//!   in-process versus through ≥100 multiplexed TCP sessions (one
//!   socket per client, tagged jobs, out-of-order completion), so the
//!   session layer's overhead is a single table comparison.
//!
//! Every sample also carries per-stage latency columns from the
//! telemetry stage histograms (mean microseconds per batch call of each
//! Algorithm 2 stage, over that configuration's window) and the queue
//! wait p50 (`null` when nothing waited — never a sentinel number).
//!
//! ```sh
//! cargo run --release -p heap-bench --bin runtime_sweep
//! ```

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heap_core::{TransferLedger, PIPELINE_STAGES};
use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, keyed_setup, serve, serve_keyless, BatchPolicy, BootstrapService,
    DeterministicSetup, EvalKeySet, FaultPlan, JobRequest, KeyPackage, KeyedSetup, NodeKeyStore,
    NodeTimeouts, ParamPreset, PipelineConfig, Priority, RemoteNode, RetryPolicy, RuntimeConfig,
    ServeOptions, ServiceNode, SessionClient, SubmitOptions, TenantId,
};
use heap_telemetry::HistogramSnapshot;
use heap_tfhe::LweCiphertext;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Blind-rotate jobs pushed through the service per configuration.
const JOBS: usize = 24;
/// LWEs per blind-rotate job.
const LWES_PER_JOB: usize = 8;
/// Client threads submitting concurrently (non-session rows).
const CLIENTS: usize = 4;
/// Concurrent multiplexed sessions in the `sessions` row.
const SESSIONS: usize = 100;

/// What each client thread submits in a configuration.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// `JobRequest::BlindRotate` jobs (the throughput mix).
    BlindRotate,
    /// Full `JobRequest::Bootstrap` jobs — every pipeline stage runs.
    /// The payload is `jobs_per_client` bootstraps per client.
    Bootstrap { jobs_per_client: usize },
}

struct Sample {
    mode: &'static str,
    nodes: usize,
    max_lwes: usize,
    /// Per-stage pipeline workers (prep/rotate/finish all equal here).
    workers: usize,
    /// Concurrent submitters (threads or sessions).
    clients: usize,
    secs: f64,
    jobs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Queue-wait p50 in µs (telemetry `heap_queue_wait_ns`), `None`
    /// when the histogram recorded nothing.
    queue_p50_us: Option<f64>,
    /// Mean µs per batch call of each pipeline stage during this
    /// configuration's window, in [`PIPELINE_STAGES`] order (0 when a
    /// stage did not run). Aggregated across the client and the
    /// in-process servers, which share one bootstrapper.
    stage_mean_us: Vec<(&'static str, f64)>,
}

/// Starts one loopback server (optionally on a fault plan), returning
/// its address.
fn spawn_server(setup: &DeterministicSetup, fault_plan: Option<FaultPlan>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let (ctx, boot) = (Arc::clone(&setup.ctx), Arc::clone(&setup.boot));
    let opts = ServeOptions {
        parallelism: Parallelism::with_threads(2),
        fault_plan,
        ..ServeOptions::default()
    };
    std::thread::spawn(move || serve(listener, ctx, boot, opts));
    addr
}

/// Starts `count` healthy loopback servers, returning their addresses.
fn spawn_servers(setup: &DeterministicSetup, count: usize) -> Vec<String> {
    (0..count).map(|_| spawn_server(setup, None)).collect()
}

fn connect_nodes(setup: &DeterministicSetup, addrs: &[String]) -> Vec<Box<dyn ServiceNode>> {
    addrs
        .iter()
        .map(|addr| {
            Box::new(RemoteNode::connect(addr, &setup.ctx).expect("connect"))
                as Box<dyn ServiceNode>
        })
        .collect()
}

fn lwes_for(n: usize, n_t: usize, seed: usize) -> Vec<LweCiphertext> {
    let two_n = 2 * n as u64;
    (0..LWES_PER_JOB)
        .map(|i| LweCiphertext {
            a: (0..n_t)
                .map(|j| ((seed * 131 + i * 31 + j * 7) as u64) % two_n)
                .collect(),
            b: ((seed * 13 + i) as u64) % two_n,
            modulus: two_n,
        })
        .collect()
}

fn job_lwes(setup: &DeterministicSetup, seed: usize) -> Vec<LweCiphertext> {
    lwes_for(setup.ctx.n(), setup.boot.config().n_t, seed)
}

fn bootstrap_ct(setup: &DeterministicSetup) -> heap_ckks::Ciphertext {
    let mut rng = StdRng::seed_from_u64(101);
    let delta = setup.ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..setup.ctx.n())
        .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta).round() as i64)
        .collect();
    setup
        .ctx
        .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng)
}

fn print_sample(s: &Sample) {
    let blind_rotate_us = s
        .stage_mean_us
        .iter()
        .find(|(name, _)| *name == "blind_rotate")
        .map_or(0.0, |&(_, us)| us);
    println!(
        "{:>9} {:>6} {:>8} {:>8} {:>8} {:>8.3} {:>10.2} {:>9.2} {:>9.2} {:>9} {:>9.1}",
        s.mode,
        s.nodes,
        s.max_lwes,
        s.workers,
        s.clients,
        s.secs,
        s.jobs_per_sec,
        s.p50_ms,
        s.p99_ms,
        s.queue_p50_us
            .map_or("-".to_string(), |us| format!("{us:.1}")),
        blind_rotate_us
    );
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx].as_secs_f64() * 1e3
}

/// Snapshots every stage histogram (for `since()` deltas per config).
fn stage_snapshots(setup: &DeterministicSetup) -> Vec<(&'static str, HistogramSnapshot)> {
    PIPELINE_STAGES
        .iter()
        .map(|&s| {
            let h = setup.boot.stage_metrics().stage(s).expect("known stage");
            (s, h.snapshot())
        })
        .collect()
}

/// Drains a window's worth of stage histogram deltas into mean-µs rows.
fn stage_deltas(
    setup: &DeterministicSetup,
    before: Vec<(&'static str, HistogramSnapshot)>,
) -> Vec<(&'static str, f64)> {
    before
        .into_iter()
        .map(|(s, before)| {
            let h = setup.boot.stage_metrics().stage(s).expect("known stage");
            let delta = h.snapshot().since(&before);
            let us = if delta.count == 0 {
                0.0
            } else {
                delta.mean() / 1e3
            };
            (s, us)
        })
        .collect()
}

fn queue_p50_us(svc: &BootstrapService) -> Option<f64> {
    svc.metrics()
        .snapshot()
        .histogram("heap_queue_wait_ns")
        .and_then(|h| h.try_quantile(0.5))
        .map(|ns| ns as f64 / 1e3)
}

/// Runs the fixed job mix through one service configuration.
fn run_config(
    setup: &DeterministicSetup,
    addrs: &[String],
    max_lwes: usize,
    workers: usize,
    mode: &'static str,
    mix: Mix,
    retry: RetryPolicy,
) -> Sample {
    let nodes = connect_nodes(setup, addrs);
    let node_count = nodes.len();
    let svc = Arc::new(
        BootstrapService::start_with_nodes(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            nodes,
            RuntimeConfig {
                queue_capacity: JOBS.max(CLIENTS * 8),
                batch: BatchPolicy {
                    max_lwes,
                    max_delay: Duration::from_millis(2),
                },
                pipeline: PipelineConfig::workers(workers),
                retry,
                ..RuntimeConfig::default()
            },
        )
        .expect("start service"),
    );
    // Bootstrap jobs reuse one pre-encrypted ciphertext (key setup is
    // client work, not service work).
    let boot_ct = matches!(mix, Mix::Bootstrap { .. }).then(|| bootstrap_ct(setup));
    let stage_before = stage_snapshots(setup);
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let svc = Arc::clone(&svc);
            // Inputs are synthesized inside the timed region on purpose:
            // submission cost is part of the service picture, and an LWE
            // is cheap next to its blind rotation.
            let jobs: Vec<JobRequest> = match (mix, &boot_ct) {
                (Mix::Bootstrap { jobs_per_client }, Some(ct)) => (0..jobs_per_client)
                    .map(|_| JobRequest::Bootstrap { ct: ct.clone() })
                    .collect(),
                _ => (0..JOBS / CLIENTS)
                    .map(|j| JobRequest::BlindRotate {
                        lwes: job_lwes(setup, c * 1000 + j),
                    })
                    .collect(),
            };
            std::thread::spawn(move || {
                jobs.into_iter()
                    .map(|request| {
                        let handle = svc.submit(request, Priority::Normal).expect("submit");
                        let (result, latency) = handle.wait_timed();
                        result.expect("job failed");
                        latency
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = threads
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let queue_p50_us = queue_p50_us(&svc);
    let stage_mean_us = stage_deltas(setup, stage_before);
    svc.shutdown();
    latencies.sort_unstable();
    Sample {
        mode,
        nodes: node_count,
        max_lwes,
        workers,
        clients: CLIENTS,
        secs,
        jobs_per_sec: latencies.len() as f64 / secs,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        queue_p50_us,
        stage_mean_us,
    }
}

/// The `sessions` row: the blind-rotate workload of [`run_direct`]
/// submitted through `SESSIONS` concurrent multiplexed TCP sessions
/// against one service (clients connect before the clock starts; the
/// timed region is submit-to-complete over the sockets).
fn run_sessions(setup: &DeterministicSetup, addrs: &[String]) -> Sample {
    let nodes = connect_nodes(setup, addrs);
    let node_count = nodes.len();
    let svc = Arc::new(
        BootstrapService::start_with_nodes(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            nodes,
            RuntimeConfig {
                queue_capacity: SESSIONS * 2,
                batch: BatchPolicy {
                    max_lwes: 4 * LWES_PER_JOB,
                    max_delay: Duration::from_millis(2),
                },
                ..RuntimeConfig::default()
            },
        )
        .expect("start service"),
    );
    let server =
        heap_runtime::SessionServer::serve("127.0.0.1:0", Arc::clone(&svc)).expect("sessions bind");
    let addr = server.addr().to_string();
    let clients: Vec<_> = (0..SESSIONS)
        .map(|_| SessionClient::connect(addr.as_str(), &setup.ctx).expect("session connect"))
        .collect();
    let stage_before = stage_snapshots(setup);
    let t0 = Instant::now();
    let threads: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(c, client)| {
            let lwes = job_lwes(setup, c);
            std::thread::spawn(move || {
                let opts = SubmitOptions {
                    tenant: TenantId(c as u64 % 8),
                    ..SubmitOptions::default()
                };
                let t = Instant::now();
                let job = client
                    .submit(&JobRequest::BlindRotate { lwes }, opts)
                    .expect("session submit");
                job.wait().expect("session job");
                t.elapsed()
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = threads
        .into_iter()
        .map(|t| t.join().expect("session thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let queue_p50_us = queue_p50_us(&svc);
    let stage_mean_us = stage_deltas(setup, stage_before);
    drop(server);
    svc.shutdown();
    latencies.sort_unstable();
    Sample {
        mode: "sessions",
        nodes: node_count,
        max_lwes: 4 * LWES_PER_JOB,
        workers: 1,
        clients: SESSIONS,
        secs,
        jobs_per_sec: latencies.len() as f64 / secs,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        queue_p50_us,
        stage_mean_us,
    }
}

/// The `direct` row paired with [`run_sessions`]: the identical 1-job-
/// per-client blind-rotate workload submitted in-process (no sockets,
/// no session framing), so the session layer's cost is the delta.
fn run_direct(setup: &DeterministicSetup, addrs: &[String]) -> Sample {
    let nodes = connect_nodes(setup, addrs);
    let node_count = nodes.len();
    let svc = Arc::new(
        BootstrapService::start_with_nodes(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            nodes,
            RuntimeConfig {
                queue_capacity: SESSIONS * 2,
                batch: BatchPolicy {
                    max_lwes: 4 * LWES_PER_JOB,
                    max_delay: Duration::from_millis(2),
                },
                ..RuntimeConfig::default()
            },
        )
        .expect("start service"),
    );
    let stage_before = stage_snapshots(setup);
    let t0 = Instant::now();
    let threads: Vec<_> = (0..SESSIONS)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let lwes = job_lwes(setup, c);
            std::thread::spawn(move || {
                let opts = SubmitOptions {
                    tenant: TenantId(c as u64 % 8),
                    ..SubmitOptions::default()
                };
                let handle = svc
                    .submit_opts(JobRequest::BlindRotate { lwes }, opts)
                    .expect("submit");
                let (result, latency) = handle.wait_timed();
                result.expect("job failed");
                latency
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let queue_p50_us = queue_p50_us(&svc);
    let stage_mean_us = stage_deltas(setup, stage_before);
    svc.shutdown();
    latencies.sort_unstable();
    Sample {
        mode: "direct",
        nodes: node_count,
        max_lwes: 4 * LWES_PER_JOB,
        workers: 1,
        clients: SESSIONS,
        secs,
        jobs_per_sec: latencies.len() as f64 / secs,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        queue_p50_us,
        stage_mean_us,
    }
}

/// One row of the key-distribution traffic table: a keyed client drives
/// `batches` blind-rotate batches against a fresh keyless node, and the
/// row records the key bytes its transfer ledger counted plus the reuse
/// counters the node's key cache accumulated.
struct KeyTrafficRow {
    mode: &'static str,
    batches: u64,
    /// Encoded container size shipped on the cold upload.
    container_bytes: u64,
    key_bytes_sent: u64,
    key_bytes_received: u64,
    /// Sent key bytes amortized over the row's batches (offer/ack
    /// framing included).
    key_bytes_per_batch: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Runs one key-traffic row: fresh in-process keyless server, keyed
/// client shipping `pkg`, ledger-counted key bytes, cache counters read
/// back from the shared [`NodeKeyStore`].
fn run_key_traffic(
    mode: &'static str,
    setup: &KeyedSetup,
    pkg: &Arc<KeyPackage>,
    batches: u64,
) -> KeyTrafficRow {
    let store = NodeKeyStore::new(None);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let (ctx, server_store) = (Arc::clone(&setup.ctx), store.clone());
    std::thread::spawn(move || {
        serve_keyless(
            listener,
            ctx,
            ServeOptions {
                parallelism: Parallelism::with_threads(2),
                key_store: Some(server_store),
                ..ServeOptions::default()
            },
        )
    });
    let ledger = Arc::new(TransferLedger::default());
    let node = RemoteNode::connect_with_ledger(
        &addr,
        &setup.ctx,
        NodeTimeouts::default(),
        Arc::clone(&ledger),
    )
    .expect("connect")
    .with_key(Arc::clone(pkg));
    let lwes = lwes_for(setup.ctx.n(), setup.boot.config().n_t, 7);
    for _ in 0..batches {
        node.try_blind_rotate_batch(&setup.ctx, &setup.boot, &lwes)
            .expect("keyed batch");
    }
    node.shutdown();
    let snap = store.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let key_bytes_sent = ledger.key_bytes_sent();
    KeyTrafficRow {
        mode,
        batches,
        container_bytes: pkg.bytes.len() as u64,
        key_bytes_sent,
        key_bytes_received: ledger.key_bytes_received(),
        key_bytes_per_batch: key_bytes_sent as f64 / batches as f64,
        cache_hits: counter("heap_keycache_hits_total"),
        cache_misses: counter("heap_keycache_misses_total"),
    }
}

fn print_key_row(r: &KeyTrafficRow) {
    println!(
        "{:>12} {:>8} {:>12} {:>12} {:>10} {:>13.1} {:>6} {:>7}",
        r.mode,
        r.batches,
        r.container_bytes,
        r.key_bytes_sent,
        r.key_bytes_received,
        r.key_bytes_per_batch,
        r.cache_hits,
        r.cache_misses
    );
}

fn main() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 42);
    let host_cores = heap_parallel::available_threads();
    let mut node_counts = vec![1usize, 2, 4];
    node_counts.retain(|&k| k <= host_cores.max(1) * 4);
    let max_servers = *node_counts.iter().max().expect("non-empty");
    let addrs = spawn_servers(&setup, max_servers);
    let n = setup.ctx.n();

    println!(
        "runtime_sweep: {} sessions, {} clients, host cores = {}",
        SESSIONS, CLIENTS, host_cores
    );
    println!();
    println!(
        "{:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "mode",
        "nodes",
        "max_lwes",
        "workers",
        "clients",
        "secs",
        "jobs/sec",
        "p50 ms",
        "p99 ms",
        "qwait us",
        "br us"
    );
    let mut samples = Vec::new();
    // Scaling rows submit full Bootstrap jobs (1 per client) so every
    // stage column — mod-switch, extract, blind rotate, repack, rescale
    // — populates in every row, not just the blind-rotate column.
    for &k in &node_counts {
        for &max_lwes in &[n, 4 * n] {
            let s = run_config(
                &setup,
                &addrs[..k],
                max_lwes,
                1,
                "scaling",
                Mix::Bootstrap { jobs_per_client: 1 },
                RetryPolicy::default(),
            );
            print_sample(&s);
            samples.push(s);
        }
    }

    // Degraded pair: a 2-node cluster whose first node fails its first
    // requests (breaker opens, shards reassign, prober readmits), then
    // the same cluster after the fault plan is exhausted (healed).
    let degraded_addrs = vec![
        spawn_server(&setup, Some("fail*4".parse().expect("plan"))),
        spawn_server(&setup, None),
    ];
    for mode in ["degraded", "healed"] {
        let s = run_config(
            &setup,
            &degraded_addrs,
            4 * LWES_PER_JOB,
            1,
            mode,
            Mix::BlindRotate,
            RetryPolicy::default(),
        );
        print_sample(&s);
        samples.push(s);
    }

    // Pipeline rows: the same Bootstrap mix at increasing per-stage
    // worker depth. With >1 worker per stage the streaming pipeline
    // preps batch k+1 while batch k blind-rotates, so jobs/sec should
    // rise with depth on multi-core hosts (on a single core the rows
    // record the overlap's scheduling cost honestly instead).
    let k = 2.min(max_servers);
    for workers in [1usize, 2, 3] {
        let s = run_config(
            &setup,
            &addrs[..k],
            n,
            workers,
            "pipeline",
            Mix::Bootstrap { jobs_per_client: 2 },
            RetryPolicy::default(),
        );
        print_sample(&s);
        samples.push(s);
    }

    // Tail-latency pair: a 2-node cluster where one node stalls every
    // request (correct replies, hundreds of ms late). `hedge_off` shows
    // the straggler setting batch p99; `hedge_on` re-dispatches the
    // straggling shard to the fast node once it exceeds 1.5× the fast
    // node's latency EWMA, so p99 tracks the recompute, not the stall.
    // Fresh servers per row so both rows see a full stall plan.
    let mut tail_rows = Vec::new();
    for (mode, retry) in [
        ("hedge_off", RetryPolicy::default()),
        (
            "hedge_on",
            RetryPolicy {
                hedge_after: Some(1.5),
                hedge_min_latency: Duration::from_millis(20),
                hedge_min_samples: 1,
                ..RetryPolicy::default()
            },
        ),
    ] {
        let stall_addrs = vec![
            spawn_server(&setup, Some("stall:500*500".parse().expect("plan"))),
            spawn_server(&setup, None),
        ];
        let s = run_config(
            &setup,
            &stall_addrs,
            LWES_PER_JOB,
            1,
            mode,
            Mix::BlindRotate,
            retry,
        );
        print_sample(&s);
        tail_rows.push(s);
    }

    // Session pair: identical workload in-process vs through 100
    // multiplexed TCP sessions.
    let s = run_direct(&setup, &addrs[..k]);
    print_sample(&s);
    samples.push(s);
    let s = run_sessions(&setup, &addrs[..k]);
    print_sample(&s);
    samples.push(s);

    // Key-distribution traffic: a keyed client against fresh keyless
    // nodes. `strict_cold` ships the non-seeded container (the baseline
    // a seedless encoding would pay every cold start), `seeded_cold`
    // the seed-expandable one, `seeded_warm` amortizes one upload over
    // 8 batches riding the node's key cache.
    let keyed = keyed_setup(ParamPreset::Tiny, 42);
    let strict_pkg = {
        let set = EvalKeySet::from_wire(&keyed.ctx, &keyed.key.bytes).expect("decode container");
        // `from_wire` drops the reseed, so this re-package is strict.
        Arc::new(set.package(&keyed.ctx))
    };
    let key_rows = vec![
        run_key_traffic("strict_cold", &keyed, &strict_pkg, 1),
        run_key_traffic("seeded_cold", &keyed, &keyed.key, 1),
        run_key_traffic("seeded_warm", &keyed, &keyed.key, 8),
    ];
    println!();
    println!(
        "{:>12} {:>8} {:>12} {:>12} {:>10} {:>13} {:>6} {:>7}",
        "key mode",
        "batches",
        "container B",
        "key B sent",
        "key B rcv",
        "key B/batch",
        "hits",
        "misses"
    );
    for r in &key_rows {
        print_key_row(r);
    }
    println!(
        "key distribution reduction vs strict-per-batch: {:.1}x cold, {:.1}x warm",
        key_rows[0].key_bytes_per_batch / key_rows[1].key_bytes_per_batch,
        key_rows[0].key_bytes_per_batch / key_rows[2].key_bytes_per_batch
    );

    fn sample_json(s: &Sample) -> String {
        let stages: Vec<String> = s
            .stage_mean_us
            .iter()
            .map(|(name, us)| format!("\"{name}\": {us:.1}"))
            .collect();
        format!(
            "    {{\"mode\": \"{}\", \"nodes\": {}, \"max_lwes\": {}, \"workers\": {}, \
             \"clients\": {}, \"secs\": {:.6}, \
             \"jobs_per_sec\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"queue_wait_p50_us\": {}, \"stage_mean_us\": {{{}}}}}",
            s.mode,
            s.nodes,
            s.max_lwes,
            s.workers,
            s.clients,
            s.secs,
            s.jobs_per_sec,
            s.p50_ms,
            s.p99_ms,
            s.queue_p50_us
                .map_or("null".to_string(), |us| format!("{us:.1}")),
            stages.join(", ")
        )
    }
    let rows: Vec<String> = samples.iter().map(sample_json).collect();
    let tail_json: Vec<String> = tail_rows.iter().map(sample_json).collect();
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"jobs\": {JOBS},\n  \
         \"lwes_per_job\": {LWES_PER_JOB},\n  \"clients\": {CLIENTS},\n  \
         \"sessions\": {SESSIONS},\n  \
         \"transport\": \"loopback TCP (in-process servers, heap-node-serve protocol)\",\n  \
         \"note\": \"latency is submit-to-complete; larger max_lwes trades p50 latency for \
         throughput; node scaling is bounded by host_cores; scaling rows submit full \
         Bootstrap jobs so every stage column populates; degraded = 1 of 2 nodes on a \
         fail*4 fault plan (breaker + reassignment overhead), healed = same cluster after \
         readmission; pipeline rows sweep per-stage worker depth of the streaming pipeline \
         (overlap wins need >1 host core — single-core hosts record scheduling cost); \
         direct vs sessions = identical workload in-process vs through 100 multiplexed \
         TCP sessions; stage_mean_us = mean microseconds per batch call of each Algorithm 2 \
         stage during the window (client + in-process servers combined; 0 when the stage \
         did not run), queue_wait_p50_us = median submit-to-dispatch \
         queue wait (null when nothing was recorded)\",\n  \
         \"samples\": [\n{}\n  ],\n  \
         \"tail_note\": \"tail_latency rows run the same BlindRotate workload against a \
         2-node cluster where one node stalls (stall:500*500 — correct replies, 500ms \
         late) with hedged dispatch off vs on (hedge_after=1.5x the fastest peer EWMA); \
         compare p50_ms/p99_ms across the two rows to see the straggler removed from the \
         tail\",\n  \
         \"tail_latency\": [\n{}\n  ],\n  \
         \"key_note\": \"key_traffic rows measure key-distribution bytes on the client's \
         transfer ledger against a fresh keyless node each row (KeyOffer/KeyNeed/KeyUpload/\
         KeyAck framing included): strict_cold = non-seeded container uploaded once, \
         seeded_cold = seed-expandable container uploaded once, seeded_warm = one upload \
         amortized over 8 batches riding the node's LRU key cache; cache_hits/cache_misses \
         are the node's keycache counters for the row's workload\",\n  \
         \"key_traffic\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        tail_json.join(",\n"),
        key_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"mode\": \"{}\", \"batches\": {}, \"container_bytes\": {}, \
                     \"key_bytes_sent\": {}, \"key_bytes_received\": {}, \
                     \"key_bytes_per_batch\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}}}",
                    r.mode,
                    r.batches,
                    r.container_bytes,
                    r.key_bytes_sent,
                    r.key_bytes_received,
                    r.key_bytes_per_batch,
                    r.cache_hits,
                    r.cache_misses
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json");
}
