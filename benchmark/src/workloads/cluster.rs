//! `cluster-tiny-full` and `cluster-small-open`: the service runtime over
//! two keyless `heap-node-serve` processes keyed by wire.
//!
//! The same cluster used two opposite ways. `cluster-tiny-full` is the
//! paper's deployment — the primary extracts and repacks, the secondaries
//! rotate — under a closed loop of fully-packed bootstraps that saturates
//! both cores, so it shows whether a kernel gain reaches the job and what
//! queue, batch, wire and scheduler cost on top. `cluster-small-open`
//! sends two-LWE blind-rotate jobs on a fixed schedule at about half the
//! nodes' capacity: compute is the smaller part of each job, the rest is
//! the batcher's linger, dispatch and framing, and batches never coalesce —
//! a batching or codec change that helps big jobs but taxes small ones
//! shows here and not on the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::api::{
    keyed_setup, BootstrapService, Ciphertext, JobOutput, JobRequest, KeyedSetup, NodeTimeouts,
    ParamPreset, RemoteNode, RlweCiphertext, RuntimeConfig, SeedableRng, ServiceNode, StdRng,
    SubmitOptions, TenantId, TransferLedger,
};
use crate::layers::{self, time_us, CoreJob};
use crate::procs::NodeProc;
use crate::stats::median;
use crate::trace::{self, Explained, Tracer};
use crate::workloads::{
    boot_inputs, bootstrap_error, check_rotations, error_limit, failed, is_traced, lwe_inputs,
    node_stat, staged_job, timed_setups, write_trace, BootInput, JobRecord, LweInputs, Outcome,
    Region, RegionSummary, RunOpts, WARMUP_JOBS,
};

/// Secondary node processes.
const NODES: usize = 2;
/// Closed-loop client threads of `cluster-tiny-full`.
const CLIENTS: usize = 2;
/// Set-ups per untraced run (well under a second each).
pub const SETUPS: usize = 5;
/// Distinct bootstrap inputs cycled through.
const INPUTS: usize = 8;
/// Open-loop arrival rate of `cluster-small-open`, jobs per second: about
/// half of what the two single-thread nodes sustain on this job size.
const OPEN_RATE: f64 = 100.0;
/// LWEs per open-loop job.
const OPEN_LWES: usize = 2;
/// Tenants the open-loop jobs are spread over.
const TENANTS: u64 = 4;
/// LWEs the open-loop jobs walk through, two at a time.
const OPEN_POOL: usize = 512;
/// Open-loop outputs kept and decrypted after the region (evenly spaced
/// over the run); one in [`COMPARE_EVERY`] of them is also compared bit
/// for bit with a local rotation.
const OPEN_RETAINED: usize = 600;
const COMPARE_EVERY: usize = 4;
/// Socket deadline of every node connection: a hung node fails its shard
/// within this, and the job is counted as failed.
const NODE_DEADLINE: Duration = Duration::from_secs(20);

/// A running two-node cluster with the service in front of it.
///
/// Field order is drop order: the service shuts down (and closes its node
/// connections) before the node processes are killed.
pub struct Cluster {
    svc: Arc<BootstrapService>,
    ledger: Arc<TransferLedger>,
    setup: KeyedSetup,
    boots: Vec<BootInput>,
    lwes: LweInputs,
    nodes: Vec<NodeProc>,
}

pub fn connect(
    addr: &str,
    setup: &KeyedSetup,
    ledger: &Arc<TransferLedger>,
) -> Result<RemoteNode, String> {
    RemoteNode::connect_with_ledger(
        addr,
        &setup.ctx,
        NodeTimeouts::uniform(NODE_DEADLINE),
        Arc::clone(ledger),
    )
    .map(|node| node.with_key(Arc::clone(&setup.key)))
    .map_err(|e| format!("connect {addr}: {e}"))
}

impl Cluster {
    fn set_up(seed: u64, warm_full: bool) -> Result<Self, String> {
        let setup = keyed_setup(ParamPreset::Tiny, seed);
        let nodes = (0..NODES)
            .map(|_| NodeProc::spawn(&[]))
            .collect::<Result<Vec<_>, _>>()?;
        let ledger = Arc::new(TransferLedger::default());
        let remotes = nodes
            .iter()
            .map(|n| connect(&n.addr, &setup, &ledger).map(|r| Box::new(r) as Box<dyn ServiceNode>))
            .collect::<Result<Vec<_>, _>>()?;
        let svc = BootstrapService::start_with_nodes(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            remotes,
            RuntimeConfig::default(),
        )
        .map_err(|e| format!("start service: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x696e_7075_7473);
        let n = setup.ctx.n();
        let boots = boot_inputs(&setup.ctx, &setup.sk, n, INPUTS, &mut rng);
        let lwes = lwe_inputs(&setup.ctx, &setup.sk, &setup.boot, OPEN_POOL, &mut rng);
        let cluster = Self {
            svc: Arc::new(svc),
            ledger,
            setup,
            boots,
            lwes,
            nodes,
        };
        // Either warm-up shape sends a shard to each node, so both hold
        // the key before the timed region.
        for i in 0..WARMUP_JOBS {
            let request = if warm_full {
                cluster.full_request(i)
            } else {
                cluster.open_request(i)
            };
            cluster
                .svc
                .submit_opts(request, SubmitOptions::default())
                .and_then(|h| h.wait())
                .map_err(|e| format!("warm-up job: {e}"))?;
        }
        Ok(cluster)
    }

    fn pids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.pid).collect()
    }

    fn full_request(&self, job: usize) -> JobRequest {
        JobRequest::Bootstrap {
            ct: self.boots[job % self.boots.len()].ct.clone(),
        }
    }

    fn open_range(&self, job: usize) -> std::ops::Range<usize> {
        let at = (job * OPEN_LWES) % self.lwes.lwes.len();
        at..at + OPEN_LWES
    }

    fn open_request(&self, job: usize) -> JobRequest {
        JobRequest::BlindRotate {
            lwes: self.lwes.lwes[self.open_range(job)].to_vec(),
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.ledger.total_bytes_sent() + self.ledger.total_bytes_received()
    }
}

/// Records one job's root span and its parts if the region is traced and
/// it is this job's turn; returns whether it did.
fn record_job(
    tracer: Option<&Tracer>,
    job: usize,
    (start, end): (Instant, Instant),
    parts: &[(&'static str, Instant, Instant)],
) -> bool {
    let Some(t) = tracer.filter(|_| is_traced(job)) else {
        return false;
    };
    let root = t.record("job", job as u64, None, start, end);
    for &(name, s, e) in parts {
        t.record(name, job as u64, Some(root), s, e);
    }
    true
}

/// Closed loop: [`CLIENTS`] threads each submit a fully-packed bootstrap
/// and wait for it before sending the next.
fn closed_loop(
    c: &Cluster,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (
    RegionSummary,
    Vec<JobRecord>,
    Vec<(usize, usize, Ciphertext)>,
) {
    let region = Region::begin(seconds, &c.pids());
    let next = AtomicU64::new(0);
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut records = Vec::new();
                    let mut outputs = Vec::new();
                    while region.open() {
                        let job = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let t0 = Instant::now();
                        let submitted = c
                            .svc
                            .submit_opts(c.full_request(job), SubmitOptions::default());
                        let t_sub = Instant::now();
                        let result = submitted.and_then(|h| h.wait());
                        let t1 = Instant::now();
                        let traced = record_job(
                            tracer,
                            job,
                            (t0, t1),
                            &[("runtime.submit", t0, t_sub), ("runtime.wait", t_sub, t1)],
                        );
                        let ok = match result {
                            Ok(JobOutput::Bootstrapped(ct)) => {
                                outputs.push((records.len(), job % c.boots.len(), ct));
                                true
                            }
                            _ => false,
                        };
                        records.push(JobRecord {
                            start: region.at(t0),
                            end: region.at(t1),
                            ok,
                            traced,
                        });
                    }
                    (records, outputs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut records = Vec::new();
    let mut outputs = Vec::new();
    for (r, o) in per_thread {
        let base = records.len();
        outputs.extend(o.into_iter().map(|(i, which, ct)| (base + i, which, ct)));
        records.extend(r);
    }
    let summary = region.finish(&records, c.setup.ctx.n() as f64);
    (summary, records, outputs)
}

/// Decrypts every bootstrap output; returns the largest error among the
/// jobs that pass and marks the others failed.
fn verify_full(
    c: &Cluster,
    records: &mut [JobRecord],
    outputs: &[(usize, usize, Ciphertext)],
) -> f64 {
    let (ctx, sk) = (&c.setup.ctx, &c.setup.sk);
    let limit = error_limit(ctx, &c.setup.boot);
    let mut worst = 0f64;
    for (record, which, out) in outputs {
        let err = bootstrap_error(ctx, sk, out, &c.boots[*which].msg);
        if err > limit || out.limbs() != ctx.max_limbs() {
            records[*record].ok = false;
        } else {
            worst = worst.max(err);
        }
    }
    worst
}

struct OpenRun {
    summary: RegionSummary,
    records: Vec<JobRecord>,
    retained: Vec<(usize, Vec<RlweCiphertext>)>,
    gen_late_ms_max: f64,
}

/// Open loop: one generator submits job `i` at `i / OPEN_RATE` seconds
/// whatever the service is doing; latency counts from that due time, so a
/// stall is charged to every job it delays.
fn open_loop(c: &Cluster, seconds: f64, tracer: Option<&Tracer>) -> OpenRun {
    let total = (seconds * OPEN_RATE) as usize;
    let keep_every = (total / OPEN_RETAINED).max(1);
    let region = Region::begin(seconds, &c.pids());
    let (tx, rx) = mpsc::channel();
    let (records, retained, gen_late_ms_max) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let tx = tx;
            let mut late_max = 0f64;
            for job in 0..total {
                let due = region.t0 + Duration::from_secs_f64(job as f64 / OPEN_RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t_sub = Instant::now();
                let opts = SubmitOptions {
                    tenant: TenantId(job as u64 % TENANTS),
                    ..SubmitOptions::default()
                };
                let handle = c.svc.submit_opts(c.open_request(job), opts);
                let t_ret = Instant::now();
                late_max = late_max.max(t_sub.saturating_duration_since(due).as_secs_f64() * 1e3);
                if tx.send((job, due, t_sub, t_ret, handle)).is_err() {
                    break;
                }
            }
            late_max
        });
        let collector = scope.spawn(|| {
            let mut records = Vec::with_capacity(total);
            let mut retained = Vec::new();
            for (job, due, t_sub, t_ret, handle) in rx {
                // `wait_timed` reports the job's own submit-to-complete
                // time, so waiting on the handles in order costs nothing.
                let (result, end) = match handle {
                    Ok(h) => {
                        let (result, latency) = h.wait_timed();
                        (result, t_sub + latency)
                    }
                    Err(e) => (Err(e), t_ret),
                };
                let traced = record_job(
                    tracer,
                    job,
                    (due, end),
                    &[
                        ("bench.gen_late", due, t_sub),
                        ("runtime.submit", t_sub, t_ret),
                        ("runtime.service", t_ret, end.max(t_ret)),
                    ],
                );
                let ok = match result {
                    Ok(JobOutput::Accumulators(accs)) => {
                        if job % keep_every == 0 {
                            retained.push((job, accs));
                        }
                        true
                    }
                    _ => false,
                };
                records.push(JobRecord {
                    start: region.at(due),
                    end: region.at(end),
                    ok,
                    traced,
                });
            }
            (records, retained)
        });
        let (records, retained) = collector.join().expect("collector thread");
        let late_max = generator.join().expect("generator thread");
        (records, retained, late_max)
    });
    let summary = region.finish(&records, OPEN_LWES as f64);
    OpenRun {
        summary,
        records,
        retained,
        gen_late_ms_max,
    }
}

/// Checks the retained open-loop outputs; returns the largest decrypted
/// error and marks the jobs that fail their check.
fn verify_open(c: &Cluster, run: &mut OpenRun, violations: &mut Vec<String>) -> f64 {
    let s = &c.setup;
    let mut worst = 0f64;
    for (i, (job, accs)) in run.retained.iter().enumerate() {
        let range = c.open_range(*job);
        let checked = check_rotations(
            &s.ctx,
            &s.sk,
            &s.boot,
            &c.lwes.lwes[range.clone()],
            &c.lwes.msg[range],
            accs,
            i % COMPARE_EVERY == 0,
        );
        // Every job has a record, refused ones too, so the job number
        // indexes them directly.
        match checked {
            Ok(err) => worst = worst.max(err),
            Err(why) => {
                run.records[*job].ok = false;
                if violations.len() < 5 {
                    violations.push(format!("job {job}: {why}"));
                }
            }
        }
    }
    worst
}

/// Key bytes the ledger saw against the `heap-hw` model. Each node's one
/// cold upload is the only key traffic beyond one offer per shard, and it
/// must match the model to the byte.
fn key_bytes_model_ratio(c: &Cluster, violations: &mut Vec<String>) -> f64 {
    let model = layers::key_wire_model(&c.setup.ctx, &c.setup.boot);
    let warm_shards = c.ledger.key_frames_sent() - 2 * NODES as u64;
    let expected =
        NODES as u64 * model.cold_key_bytes_sent(true) + warm_shards * model.warm_key_bytes_sent();
    let measured = c.ledger.key_bytes_sent();
    if measured != expected {
        violations.push(format!(
            "{measured} key bytes sent, the hw model says {expected}"
        ));
    }
    measured as f64 / expected as f64
}

pub fn run_full(opts: RunOpts) -> Result<Outcome, String> {
    let (c, setup_s) = timed_setups(opts, SETUPS, || Cluster::set_up(opts.seed, true))?;
    if opts.trace {
        return trace_full(&c, opts);
    }
    let (summary, mut records, outputs) = closed_loop(&c, opts.seconds, None);
    let max_err = verify_full(&c, &mut records, &outputs);
    let mut violations = Vec::new();
    key_bytes_model_ratio(&c, &mut violations);
    Ok(Outcome {
        attempted: summary.attempted,
        failed: failed(&records),
        violations,
        e2e: summary.end_to_end(setup_s, max_err),
        samples: summary.samples,
        ..Outcome::default()
    })
}

pub fn run_open(opts: RunOpts) -> Result<Outcome, String> {
    let (c, setup_s) = timed_setups(opts, SETUPS, || Cluster::set_up(opts.seed, false))?;
    if opts.trace {
        return trace_open(&c, opts);
    }
    let mut run = open_loop(&c, opts.seconds, None);
    let mut violations = Vec::new();
    let max_err = verify_open(&c, &mut run, &mut violations);
    key_bytes_model_ratio(&c, &mut violations);
    Ok(Outcome {
        attempted: run.summary.attempted,
        failed: failed(&run.records),
        violations,
        e2e: run.summary.end_to_end(setup_s, max_err),
        samples: run.summary.samples,
        ..Outcome::default()
    })
}

/// The `runtime` numbers read from outside the service: one shard's round
/// trip, what of it is not the node's own rotation time, and a bare ping.
struct WireCosts {
    shard_rtt_ms: f64,
    shard_overhead_ms: f64,
    ping_rtt_us: f64,
}

/// Total nanoseconds the node has spent inside its blind-rotate stage, from
/// its own telemetry; `None` if the node does not report the name.
fn node_rotate_ns(probe: &RemoteNode) -> Result<Option<u64>, String> {
    let stats = probe.fetch_stats().map_err(|e| format!("stats: {e}"))?;
    Ok(node_stat(&stats, "heap_stage_blind_rotate_ns_sum"))
}

/// Round trips of one `shard`-LWE request to node 0. The overhead is the
/// round trip minus the node's own rotation time for the same requests, so
/// it holds framing, both codecs, the socket and the key offer — and no
/// run-to-run noise of the rotation itself (0 if the node does not report
/// its stage time).
fn wire_costs(c: &Cluster, shard: usize, budget: Duration) -> Result<WireCosts, String> {
    let s = &c.setup;
    // A connection of its own, so the service's sockets and ledger are
    // left alone; the node already caches the key.
    let probe = connect(&c.nodes[0].addr, s, &Arc::new(TransferLedger::default()))?;
    let lwes = &c.lwes.lwes[..shard];
    let mut failed = None;
    let mut calls = 0u32;
    let mut total = Duration::ZERO;
    let before = node_rotate_ns(&probe)?;
    let shard_rtt_ms = time_us(budget, || {
        let t0 = Instant::now();
        if let Err(e) = probe.try_blind_rotate_batch(&s.ctx, &s.boot, lwes) {
            failed = Some(e.to_string());
        }
        total += t0.elapsed();
        calls += 1;
    }) / 1e3;
    let after = node_rotate_ns(&probe)?;
    let shard_overhead_ms = match (before, after) {
        (Some(b), Some(a)) => (total.as_secs_f64() * 1e3 - (a - b) as f64 / 1e6) / f64::from(calls),
        _ => 0.0,
    };
    let ping_rtt_us = time_us(budget, || {
        if let Err(e) = probe.ping() {
            failed = Some(e.to_string());
        }
    });
    probe.shutdown();
    match failed {
        Some(e) => Err(format!("probe node: {e}")),
        None => Ok(WireCosts {
            shard_rtt_ms,
            shard_overhead_ms,
            ping_rtt_us,
        }),
    }
}

/// Node-side key-cache hit ratio, over a stats connection of its own.
fn cache_hit_ratio(c: &Cluster) -> Result<f64, String> {
    let (mut hits, mut misses) = (0u64, 0u64);
    for node in &c.nodes {
        let probe = connect(&node.addr, &c.setup, &Arc::new(TransferLedger::default()))?;
        let stats = probe.fetch_stats().map_err(|e| format!("stats: {e}"))?;
        probe.shutdown();
        hits += node_stat(&stats, "heap_keycache_hits_total").unwrap_or(0);
        misses += node_stat(&stats, "heap_keycache_misses_total").unwrap_or(0);
    }
    Ok(hits as f64 / (hits + misses).max(1) as f64)
}

/// The service's own registry, read through its public snapshot; a name
/// the registry does not carry reads as 0.
fn registry_layers(c: &Cluster, out: &mut Outcome) {
    let snap = c.svc.metrics().snapshot();
    // The histograms are log2-bucketed, so a quantile is up to 2x coarse;
    // sum / count is exact.
    let mean_ms = |name: &str| {
        snap.histogram(name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.mean() / 1e6)
    };
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let l = &mut out.layers;
    l.insert("runtime.queue_wait_ms_mean", mean_ms("heap_queue_wait_ns"));
    l.insert(
        "runtime.batch_linger_ms_mean",
        mean_ms("heap_batch_linger_ns"),
    );
    l.insert(
        "runtime.batch_lwes_mean",
        snap.histogram("heap_batch_size_lwes")
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.mean()),
    );
    l.insert(
        "runtime.shards_total",
        counter("heap_scheduler_shards_total"),
    );
    l.insert(
        "runtime.retries_total",
        counter("heap_scheduler_reassignments_total"),
    );
    l.insert("runtime.hedges_total", counter("heap_hedges_issued_total"));
}

/// One fully-packed bootstrap driven by hand: prep here, one shard to each
/// node in parallel, finish here — the service's work without the service.
fn manual_job(
    c: &Cluster,
    probes: &[RemoteNode],
    tracer: &Tracer,
    job: u64,
    input: &BootInput,
) -> Result<(Ciphertext, u64), String> {
    let (ctx, boot) = (&*c.setup.ctx, &*c.setup.boot);
    let indices: Vec<usize> = (0..ctx.n()).collect();
    staged_job(
        ctx,
        boot,
        tracer,
        job,
        &input.ct,
        &indices,
        |stage, lwes| {
            let chunk = lwes.len().div_ceil(probes.len());
            let shards: Vec<Result<Vec<RlweCiphertext>, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = probes
                    .iter()
                    .zip(lwes.chunks(chunk))
                    .map(|(probe, shard)| {
                        scope.spawn(move || {
                            tracer.scope("runtime.shard_rtt", job, Some(stage), |_| {
                                probe
                                    .try_blind_rotate_batch(ctx, boot, shard)
                                    .map_err(|e| format!("manual shard: {e}"))
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread"))
                    .collect()
            });
            shards
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map(|s| s.concat())
        },
    )
}

fn common_layers(
    c: &Cluster,
    out: &mut Outcome,
    opts: RunOpts,
    traced: &RegionSummary,
    records: &[JobRecord],
    wire_bytes_per_job: f64,
    budget: Duration,
) -> Result<layers::Units, String> {
    let s = &c.setup;
    let shard = s.ctx.n() / NODES;
    let units = layers::unit_costs(&s.ctx, &s.sk, &s.boot, &c.lwes, shard, opts.seed, budget);
    units.record(out);
    let keys = layers::key_costs(&s.ctx, &s.boot, Some(&s.key.bytes), budget);
    let wire = wire_costs(c, shard, budget)?;
    registry_layers(c, out);
    keys.record(out);
    let ratio = key_bytes_model_ratio(c, &mut out.violations);
    let l = &mut out.layers;
    l.insert("hw.key_bytes_model_ratio", ratio);
    l.insert("keys.cache_hit_ratio", cache_hit_ratio(c)?);
    l.insert("runtime.shard_rtt_ms", wire.shard_rtt_ms);
    l.insert("runtime.shard_overhead_ms", wire.shard_overhead_ms);
    l.insert("runtime.ping_rtt_us", wire.ping_rtt_us);
    l.insert("runtime.wire_bytes_per_job", wire_bytes_per_job);
    traced.record_health(out, records);
    Ok(units)
}

fn trace_full(c: &Cluster, opts: RunOpts) -> Result<Outcome, String> {
    let share = opts.seconds / 3.0;
    let budget = Duration::from_secs_f64(share / 20.0);
    let tracer = Tracer::new(1 << 14);
    let bytes0 = c.wire_bytes();
    let (traced, mut records, outputs) = closed_loop(c, 2.0 * share, Some(&tracer));
    let wire_bytes_per_job = (c.wire_bytes() - bytes0) as f64 / traced.completed.max(1) as f64;
    verify_full(c, &mut records, &outputs);
    let mut out = Outcome {
        attempted: traced.attempted,
        failed: failed(&records),
        samples: traced.samples,
        ..Outcome::default()
    };

    // One client at a time through the service, then the same job by hand:
    // the difference is what queue, batcher and scheduler add.
    let rounds = (share as usize).clamp(3, 9);
    let mut service_ms = Vec::new();
    let mut submit_us = Vec::new();
    for job in 0..rounds {
        let t0 = Instant::now();
        let handle = c
            .svc
            .submit_opts(c.full_request(job), SubmitOptions::default())
            .map_err(|e| format!("single-client submit: {e}"))?;
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        handle
            .wait()
            .map_err(|e| format!("single-client job: {e}"))?;
        service_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let probes = c
        .nodes
        .iter()
        .map(|n| connect(&n.addr, &c.setup, &Arc::new(TransferLedger::default())))
        .collect::<Result<Vec<_>, _>>()?;
    let manual = Tracer::new(1 << 10);
    let mut ep_count = 0;
    for job in 0..rounds {
        let input = &c.boots[job % c.boots.len()];
        let (ct, eps) = manual_job(c, &probes, &manual, job as u64, input)?;
        let err = bootstrap_error(&c.setup.ctx, &c.setup.sk, &ct, &input.msg);
        if err > error_limit(&c.setup.ctx, &c.setup.boot) {
            out.violations
                .push(format!("hand-driven job {job} decrypts {err} off"));
        }
        if job == 0 {
            ep_count = eps;
        }
    }
    for probe in &probes {
        probe.shutdown();
    }
    let manual_spans = manual.spans();
    let manual_ms: Vec<f64> = manual_spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();

    let units = common_layers(
        c,
        &mut out,
        opts,
        &traced,
        &records,
        wire_bytes_per_job,
        budget,
    )?;
    let tree = trace::budget(&manual_spans);
    let n = c.setup.ctx.n();
    // The hand-driven job has no one-call form to compare against; the
    // stages are held against the traced job span itself.
    let whole_ms = tree["job"].total_ns as f64 / 1e6 / tree["job"].calls as f64;
    let mut explained = layers::record_core(
        &mut out,
        &CoreJob {
            ctx: &c.setup.ctx,
            boot: &c.setup.boot,
            tree: &tree,
            units: &units,
            n_br: n,
            ep_count,
            whole_ms,
            lanes: NODES,
        },
    );
    // Blind rotation has child spans here (the two shards, whose times add
    // up under it), so its unit rows hang under the shards.
    let (path, rows) = &mut explained[0];
    *path = "job/core.blind_rotate/runtime.shard_rtt".to_string();
    rows.push(Explained {
        name: "runtime.shard_overhead (wire + codec)",
        count: NODES as f64,
        unit_us: out.layers["runtime.shard_overhead_ms"] * 1e3,
    });
    let l = &mut out.layers;
    l.insert("runtime.submit_call_us", median(&submit_us));
    l.insert("runtime.manual_pipeline_ms", median(&manual_ms));
    l.insert(
        "runtime.service_overhead_ms",
        median(&service_ms) - median(&manual_ms),
    );
    out.tree = format!(
        "service job, {CLIENTS} clients (spans around submit and wait, every other job):\n{}\nthe same job driven by hand, one at a time:\n{}",
        trace::render(&trace::budget(&tracer.spans()), "job", &[]),
        trace::render(&tree, "job", &explained),
    );
    write_trace("cluster-tiny-full", &tracer, &mut out)?;
    Ok(out)
}

fn trace_open(c: &Cluster, opts: RunOpts) -> Result<Outcome, String> {
    let share = opts.seconds / 3.0;
    let budget = Duration::from_secs_f64(share / 20.0);
    let mut violations = Vec::new();
    let tracer = Tracer::new(1 << 16);
    let bytes0 = c.wire_bytes();
    let mut traced = open_loop(c, 2.0 * share, Some(&tracer));
    let wire_bytes_per_job =
        (c.wire_bytes() - bytes0) as f64 / traced.summary.completed.max(1) as f64;
    verify_open(c, &mut traced, &mut violations);
    let mut out = Outcome {
        attempted: traced.summary.attempted,
        failed: failed(&traced.records),
        violations,
        samples: traced.summary.samples,
        ..Outcome::default()
    };
    common_layers(
        c,
        &mut out,
        opts,
        &traced.summary,
        &traced.records,
        wire_bytes_per_job,
        budget,
    )?;
    // One LWE per node is what each job's shard really is.
    let one = wire_costs(c, OPEN_LWES / NODES, budget)?;
    let tree = trace::budget(&tracer.spans());
    let submit_us = tree
        .get("job/runtime.submit")
        .map_or(0.0, |n| n.total_ns as f64 / 1e3 / n.calls.max(1) as f64);
    // Queue wait runs from submit to the batch's flush, so it already
    // holds the linger.
    let explained = vec![(
        "job/runtime.service".to_string(),
        vec![
            Explained {
                name: "runtime.queue_wait_mean (linger included)",
                count: 1.0,
                unit_us: out.layers["runtime.queue_wait_ms_mean"] * 1e3,
            },
            Explained {
                name: "runtime.shard_rtt (1 LWE to each node)",
                count: 1.0,
                unit_us: one.shard_rtt_ms * 1e3,
            },
        ],
    )];
    out.tree = trace::render(&tree, "job", &explained);
    let l = &mut out.layers;
    l.insert("runtime.submit_call_us", submit_us);
    l.insert("bench.gen_late_ms_max", traced.gen_late_ms_max);
    write_trace("cluster-small-open", &tracer, &mut out)?;
    Ok(out)
}
