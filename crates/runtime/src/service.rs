//! The bootstrapping service: submission API + staged streaming pipeline.
//!
//! [`BootstrapService`] is the primary node. Client threads call
//! [`BootstrapService::submit`] and block on the returned [`JobHandle`].
//! Dispatch is a *pipeline*, not a monolithic loop: a batcher thread
//! drains the bounded fair queue through the dynamic batcher, then each
//! Algorithm-2 stage group runs in its own worker pool connected by
//! bounded channels —
//!
//! ```text
//! submit → fair queue → batcher ─ch─ prep workers  (extract + mod-switch)
//!                                 ─ch─ rotate workers (scheduler shards
//!                                        blind rotations across nodes)
//!                                 ─ch─ finish workers (repack + rescale)
//! ```
//!
//! so the prep of batch `k+1` overlaps the blind rotation of batch `k`
//! and the repack of batch `k-1` — the paper's parallelized-bootstrapping
//! shape, with the scheduler's retry/breaker/fallback semantics intact in
//! the rotate stage. Bounded channels propagate backpressure batch by
//! batch all the way to the submission queue; shutdown closes stage by
//! stage in topological order so every accepted job still completes.
//!
//! When [`RuntimeConfig::admission`] is set, submissions are gated by an
//! SLO deadline model: projected completion (accepted-but-unfinished
//! rotations × a measured per-rotation EWMA) beyond the SLO yields a
//! typed [`RuntimeError::Rejected`] with a retry hint instead of silently
//! queueing work that cannot meet its deadline.

use std::net::SocketAddr;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_parallel::Parallelism;
use heap_telemetry::{EventLog, Exposition, Gauge, MetricsServer, Registry};
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::batch::{collect_batch, BatchPolicy};
use crate::channel::Channel;
use crate::job::{
    JobHandle, JobId, JobOutput, JobRequest, JobState, PendingJob, Priority, TenantId,
};
use crate::node::{check_lwes_fit, LocalServiceNode, ServiceNode};
use crate::policy::{self, RetryPolicy};
use crate::queue::{FairnessPolicy, SubmissionQueue};
use crate::scheduler::Scheduler;
use crate::telemetry::{RuntimeStats, ServiceTelemetry};
use crate::RuntimeError;

/// Worker-pool shape of the staged pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Extract + modulus-switch workers (CPU-bound primary work).
    pub prep_workers: usize,
    /// Blind-rotate dispatch workers; each drives one in-flight
    /// mega-batch through the scheduler, so >1 keeps the node fleet busy
    /// while another batch's shards are still in flight.
    pub rotate_workers: usize,
    /// Repack + rescale workers (CPU-bound primary work).
    pub finish_workers: usize,
    /// Capacity of each inter-stage channel, in batches. Small values
    /// bound memory and propagate backpressure promptly.
    pub channel_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            prep_workers: 1,
            rotate_workers: 1,
            finish_workers: 1,
            channel_capacity: 4,
        }
    }
}

impl PipelineConfig {
    /// `n` workers in every stage with a matching channel budget.
    pub fn workers(n: usize) -> Self {
        Self {
            prep_workers: n,
            rotate_workers: n,
            finish_workers: n,
            channel_capacity: n.max(2),
        }
    }
}

/// SLO-aware admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Target submit-to-complete deadline. A submission whose projected
    /// completion (current backlog × measured per-rotation EWMA) exceeds
    /// this is refused with [`RuntimeError::Rejected`].
    pub slo: Duration,
}

/// Floor for the `retry_after` hint carried by a rejection.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Submission queue capacity; blocking submits beyond it apply
    /// backpressure, non-blocking ones get [`RuntimeError::QueueFull`].
    pub queue_capacity: usize,
    /// When the dynamic batcher flushes.
    pub batch: BatchPolicy,
    /// Retry, circuit-breaker, and degradation policy for the scheduler.
    pub retry: RetryPolicy,
    /// Worker pools and channel capacities of the staged pipeline.
    pub pipeline: PipelineConfig,
    /// Weighted deficit-round-robin sharing between tenants.
    pub fairness: FairnessPolicy,
    /// SLO admission control; `None` admits everything capacity allows.
    pub admission: Option<SloPolicy>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            batch: BatchPolicy::default(),
            retry: RetryPolicy::default(),
            pipeline: PipelineConfig::default(),
            fairness: FairnessPolicy::default(),
            admission: None,
        }
    }
}

/// Who a submission is for. [`Default`] is the anonymous tenant at
/// [`Priority::Normal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Scheduling priority within the tenant's sub-queue.
    pub priority: Priority,
    /// Fair-queue tenant the job drains from.
    pub tenant: TenantId,
}

impl From<Priority> for SubmitOptions {
    fn from(priority: Priority) -> Self {
        Self {
            priority,
            tenant: TenantId::default(),
        }
    }
}

/// A batch after primary-side prep: one mega-batch of rotations plus
/// each job's slice of it.
struct PreparedBatch {
    jobs: Vec<PendingJob>,
    mega: Vec<LweCiphertext>,
    ranges: Vec<Range<usize>>,
}

/// A batch after the rotate stage, carrying the accumulators.
struct RotatedBatch {
    jobs: Vec<PendingJob>,
    rotated: Vec<RlweCiphertext>,
    ranges: Vec<Range<usize>>,
}

/// What travels between pipeline stages: a batch in some state of
/// completion, whose jobs must all be settled whatever happens to it.
trait StageItem: Send + 'static {
    fn jobs(&self) -> &[PendingJob];
}

impl StageItem for Vec<PendingJob> {
    fn jobs(&self) -> &[PendingJob] {
        self
    }
}

impl StageItem for PreparedBatch {
    fn jobs(&self) -> &[PendingJob] {
        &self.jobs
    }
}

impl StageItem for RotatedBatch {
    fn jobs(&self) -> &[PendingJob] {
        &self.jobs
    }
}

/// Join handles of every pipeline thread, in shutdown order.
struct PipelineThreads {
    batcher: std::thread::JoinHandle<()>,
    prep: Vec<std::thread::JoinHandle<()>>,
    rotate: Vec<std::thread::JoinHandle<()>>,
    finish: Vec<std::thread::JoinHandle<()>>,
}

/// A running bootstrapping service (the primary node).
pub struct BootstrapService {
    ctx: Arc<CkksContext>,
    boot: Arc<Bootstrapper>,
    queue: Arc<SubmissionQueue>,
    scheduler: Arc<Scheduler>,
    telemetry: Arc<ServiceTelemetry>,
    next_id: AtomicU64,
    admission: Option<SloPolicy>,
    /// Measured blind-rotation cost (EWMA of batch wall-clock ÷ batch
    /// rotations, in ns) — the admission model's unit rate. Zero until
    /// the first batch completes.
    ns_per_lwe: Arc<AtomicU64>,
    prep_in: Arc<Inbox<Vec<PendingJob>>>,
    rotate_in: Arc<Inbox<PreparedBatch>>,
    finish_in: Arc<Inbox<RotatedBatch>>,
    threads: Mutex<Option<PipelineThreads>>,
    metrics_server: Mutex<Option<MetricsServer>>,
}

impl BootstrapService {
    /// Starts a service backed by a single in-process node using every
    /// hardware thread.
    pub fn start(
        ctx: Arc<CkksContext>,
        boot: Arc<Bootstrapper>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        Self::start_with_nodes(
            ctx,
            boot,
            vec![Box::new(LocalServiceNode::new(0, Parallelism::max()))],
            config,
        )
    }

    /// Starts a service over an explicit node set (local, remote, or
    /// mixed). Fails with [`RuntimeError::NoNodes`] when `nodes` is
    /// empty and [`RuntimeError::Invalid`] on a degenerate config.
    pub fn start_with_nodes(
        ctx: Arc<CkksContext>,
        boot: Arc<Bootstrapper>,
        nodes: Vec<Box<dyn ServiceNode>>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        Self::start_with_cluster(ctx, boot, nodes, None, config)
    }

    /// Starts a service over an explicit node set plus an optional local
    /// fallback node, used by the scheduler when no regular node is
    /// dispatchable.
    pub fn start_with_cluster(
        ctx: Arc<CkksContext>,
        boot: Arc<Bootstrapper>,
        nodes: Vec<Box<dyn ServiceNode>>,
        fallback: Option<Box<dyn ServiceNode>>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        if config.queue_capacity == 0 {
            return Err(RuntimeError::Invalid("queue capacity must be at least 1"));
        }
        let p = config.pipeline;
        if p.prep_workers == 0 || p.rotate_workers == 0 || p.finish_workers == 0 {
            return Err(RuntimeError::Invalid(
                "every pipeline stage needs at least one worker",
            ));
        }
        if p.channel_capacity == 0 {
            return Err(RuntimeError::Invalid(
                "pipeline channels need capacity for at least one batch",
            ));
        }
        if config.fairness.quantum_lwes == 0 {
            return Err(RuntimeError::Invalid("fairness quantum must be at least 1"));
        }
        let queue = Arc::new(SubmissionQueue::with_fairness(
            config.queue_capacity,
            &config.fairness,
        ));
        let telemetry = Arc::new(ServiceTelemetry::new());
        let scheduler = Arc::new(Scheduler::with_telemetry(
            nodes,
            fallback,
            config.retry,
            telemetry.scheduler.clone(),
        )?);
        let depth = &telemetry.pipeline;
        let prep_in = Inbox::new(p.channel_capacity, &depth.prep_depth);
        let rotate_in = Inbox::new(p.channel_capacity, &depth.rotate_depth);
        let finish_in = Inbox::new(p.channel_capacity, &depth.finish_depth);
        let ns_per_lwe = Arc::new(AtomicU64::new(0));

        let batcher = {
            let (queue, telemetry, next) = (
                Arc::clone(&queue),
                Arc::clone(&telemetry),
                Arc::clone(&prep_in),
            );
            let policy = config.batch;
            std::thread::Builder::new()
                .name("heap-batcher".into())
                .spawn(move || {
                    while let Some(batch) = collect_batch(&queue, &policy, Some(&telemetry.batcher))
                    {
                        next.send(&telemetry, batch);
                    }
                })
                .expect("spawn batcher")
        };
        let prep = spawn_stage("prep", p.prep_workers, &telemetry, &prep_in, {
            let (ctx, boot, telemetry, next) = (
                Arc::clone(&ctx),
                Arc::clone(&boot),
                Arc::clone(&telemetry),
                Arc::clone(&rotate_in),
            );
            move |jobs| next.send(&telemetry, prep_batch(&ctx, &boot, jobs))
        });
        let rotate = spawn_stage("rotate", p.rotate_workers, &telemetry, &rotate_in, {
            let (ctx, boot, scheduler, telemetry, rate, next) = (
                Arc::clone(&ctx),
                Arc::clone(&boot),
                Arc::clone(&scheduler),
                Arc::clone(&telemetry),
                Arc::clone(&ns_per_lwe),
                Arc::clone(&finish_in),
            );
            move |prepared| {
                if let Some(rotated) =
                    rotate_batch(&ctx, &boot, &scheduler, &telemetry, &rate, prepared)
                {
                    next.send(&telemetry, rotated);
                }
            }
        });
        let finish = spawn_stage("finish", p.finish_workers, &telemetry, &finish_in, {
            let (ctx, boot, telemetry) =
                (Arc::clone(&ctx), Arc::clone(&boot), Arc::clone(&telemetry));
            move |rotated| finish_batch(&ctx, &boot, &telemetry, rotated)
        });

        Ok(Self {
            ctx,
            boot,
            queue,
            scheduler,
            telemetry,
            next_id: AtomicU64::new(0),
            admission: config.admission,
            ns_per_lwe,
            prep_in,
            rotate_in,
            finish_in,
            threads: Mutex::new(Some(PipelineThreads {
                batcher,
                prep,
                rotate,
                finish,
            })),
            metrics_server: Mutex::new(None),
        })
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    pub fn submit(
        &self,
        request: JobRequest,
        priority: Priority,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_opts(request, priority.into())
    }

    /// Non-blocking submit; [`RuntimeError::QueueFull`] when at capacity.
    pub fn try_submit(
        &self,
        request: JobRequest,
        priority: Priority,
    ) -> Result<JobHandle, RuntimeError> {
        self.try_submit_opts(request, priority.into())
    }

    /// [`BootstrapService::submit`] with an explicit tenant. When
    /// admission control is configured, an over-SLO projection returns
    /// [`RuntimeError::Rejected`] *instead of blocking*.
    pub fn submit_opts(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
    ) -> Result<JobHandle, RuntimeError> {
        let (job, handle) = self.prepare(request, opts)?;
        let cost = job.cost;
        self.queue.submit(job)?;
        self.accepted(cost);
        Ok(handle)
    }

    /// [`BootstrapService::try_submit`] with an explicit tenant.
    pub fn try_submit_opts(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
    ) -> Result<JobHandle, RuntimeError> {
        let (job, handle) = self.prepare(request, opts)?;
        let cost = job.cost;
        self.queue.try_submit(job)?;
        self.accepted(cost);
        Ok(handle)
    }

    /// Session-server submit: `register` runs after validation and
    /// admission but *before* the job is queued, so the caller can index
    /// the completion slot (and install its notifier) without racing the
    /// pipeline. Blocking, like [`BootstrapService::submit`].
    pub(crate) fn submit_registered(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
        register: impl FnOnce(JobId, &Arc<JobState>),
    ) -> Result<JobId, RuntimeError> {
        let (job, handle) = self.prepare(request, opts)?;
        let cost = job.cost;
        register(handle.id(), &job.state);
        self.queue.submit(job)?;
        self.accepted(cost);
        Ok(handle.id())
    }

    fn accepted(&self, cost: usize) {
        self.telemetry.jobs.submitted.inc();
        self.telemetry.pipeline.inflight_jobs.add(1);
        self.telemetry.pipeline.inflight_lwes.add(cost as i64);
    }

    fn prepare(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
    ) -> Result<(PendingJob, JobHandle), RuntimeError> {
        let cost = self.validate(&request)?;
        self.admit(cost)?;
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let state = JobState::new();
        let handle = JobHandle {
            id,
            state: Arc::clone(&state),
        };
        Ok((
            PendingJob {
                id,
                priority: opts.priority,
                tenant: opts.tenant,
                request,
                cost,
                state,
            },
            handle,
        ))
    }

    /// SLO admission ([`policy::slo_overrun`] is the deadline model):
    /// over-SLO projections are refused with a typed retry hint. Until
    /// the first batch lands there is no measurement and everything
    /// capacity allows is admitted.
    fn admit(&self, cost: usize) -> Result<(), RuntimeError> {
        let Some(SloPolicy { slo }) = self.admission else {
            return Ok(());
        };
        let rate = self.ns_per_lwe.load(Ordering::Relaxed);
        let backlog = self.telemetry.pipeline.inflight_lwes.get().max(0) as u64 + cost as u64;
        let Some(projected) = policy::slo_overrun(slo, backlog, rate) else {
            return Ok(());
        };
        self.telemetry.jobs.rejected.inc();
        self.telemetry.events.record(
            "admission_rejected",
            "service",
            &format!("projected {projected:?} > slo {slo:?}"),
        );
        Err(RuntimeError::Rejected {
            retry_after: (projected - slo).max(MIN_RETRY_AFTER),
        })
    }

    /// Shape checks at the door, so the pipeline never panics on client
    /// data. Returns the job's blind-rotation cost.
    fn validate(&self, request: &JobRequest) -> Result<usize, RuntimeError> {
        match request {
            JobRequest::Bootstrap { ct } => {
                if ct.limbs() != 1 {
                    return Err(RuntimeError::Invalid(
                        "bootstrap expects an exhausted (single-limb) ciphertext",
                    ));
                }
                Ok(self.ctx.n())
            }
            JobRequest::BlindRotate { lwes } => {
                if lwes.is_empty() {
                    return Err(RuntimeError::Invalid("empty LWE batch"));
                }
                check_lwes_fit(&self.ctx, &self.boot, lwes).map_err(RuntimeError::Invalid)?;
                Ok(lwes.len())
            }
        }
    }

    /// The CKKS context the service was started with.
    pub(crate) fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The `(modulus, dimension)` its blind-rotate jobs' LWEs must have.
    pub(crate) fn lwe_shape(&self) -> (u64, usize) {
        crate::node::lwe_shape(&self.ctx, &self.boot)
    }

    /// The scheduler (node health, names).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Snapshot of the service counters (the same atomics the metrics
    /// registry exposes).
    pub fn stats(&self) -> RuntimeStats {
        self.telemetry.jobs.snapshot(self.scheduler.stats())
    }

    /// The service's metric registry (jobs, batcher, scheduler counters
    /// and histograms, pipeline gauges).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// The structured fault-event log (retries, breaker transitions,
    /// readmissions, admission rejections).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.telemetry.events
    }

    /// An exposition covering the full service: its own registry, the
    /// bootstrapper's per-stage pipeline histograms, and the event log.
    pub fn exposition(&self) -> Exposition {
        Exposition::new()
            .with_registry(&self.telemetry.registry)
            .with_registry(self.boot.stage_metrics().registry())
            .with_events(&self.telemetry.events)
    }

    /// Serves [`BootstrapService::exposition`] over HTTP at `addr`
    /// (`GET /metrics` Prometheus text, `GET /metrics.json` JSON). Pass
    /// port 0 for an ephemeral port; the bound address is returned. The
    /// endpoint stops at [`BootstrapService::shutdown`]. Starting a
    /// second endpoint replaces (and stops) the first.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let server = MetricsServer::serve(addr, self.exposition())?;
        let bound = server.addr();
        *self
            .metrics_server
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(server);
        Ok(bound)
    }

    /// Stops accepting jobs, then drains and joins the pipeline stage by
    /// stage in topological order — every job accepted before the close
    /// still completes. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        self.metrics_server
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        let threads = self
            .threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        let Some(threads) = threads else {
            return;
        };
        // A panicked worker already completed every job it could reach
        // with an error (see `run_stage`); don't propagate panics here.
        let _ = threads.batcher.join();
        self.prep_in.ch.close();
        for t in threads.prep {
            let _ = t.join();
        }
        self.rotate_in.ch.close();
        for t in threads.rotate {
            let _ = t.join();
        }
        self.finish_in.ch.close();
        for t in threads.finish {
            let _ = t.join();
        }
    }
}

impl Drop for BootstrapService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Completes one job and settles its in-flight accounting — under the
/// job's slot lock, so a woken waiter always sees the settled counters.
/// A job that already completed is left alone (and counted once).
fn settle(
    telemetry: &ServiceTelemetry,
    state: &JobState,
    cost: usize,
    result: Result<JobOutput, RuntimeError>,
) {
    let outcome = match &result {
        Ok(_) => &telemetry.jobs.completed,
        Err(_) => &telemetry.jobs.failed,
    };
    state.complete_and(result, || {
        outcome.inc();
        telemetry.pipeline.inflight_jobs.add(-1);
        telemetry.pipeline.inflight_lwes.add(-(cost as i64));
    });
}

/// A stage's inbox: the bounded channel its workers drain, and the gauge
/// that mirrors the channel's depth after every send and receive.
struct Inbox<T> {
    ch: Channel<T>,
    depth: Arc<Gauge>,
}

impl<T: StageItem> Inbox<T> {
    fn new(capacity: usize, depth: &Arc<Gauge>) -> Arc<Self> {
        Arc::new(Self {
            ch: Channel::new(capacity),
            depth: Arc::clone(depth),
        })
    }

    /// Hands a batch to the stage. If the inbox closed first (shutdown
    /// race), every job of the batch fails with a typed error instead.
    fn send(&self, telemetry: &ServiceTelemetry, item: T) {
        if let Err(item) = self.ch.send(item) {
            for job in item.jobs() {
                settle(telemetry, &job.state, job.cost, Err(RuntimeError::Shutdown));
            }
        }
        self.depth.set(self.ch.len() as i64);
    }

    /// The next batch; `None` once the inbox is closed and drained.
    fn recv(&self) -> Option<T> {
        let item = self.ch.recv()?;
        self.depth.set(self.ch.len() as i64);
        Some(item)
    }
}

/// Spawns one stage's worker pool: `workers` threads named
/// `heap-{stage}-{i}`, each draining `inbox` through `body` under
/// [`run_stage`].
fn spawn_stage<T: StageItem>(
    stage: &'static str,
    workers: usize,
    telemetry: &Arc<ServiceTelemetry>,
    inbox: &Arc<Inbox<T>>,
    body: impl Fn(T) + Clone + Send + 'static,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers)
        .map(|i| {
            let (telemetry, inbox, body) = (Arc::clone(telemetry), Arc::clone(inbox), body.clone());
            std::thread::Builder::new()
                .name(format!("heap-{stage}-{i}"))
                .spawn(move || {
                    while let Some(item) = inbox.recv() {
                        run_stage(&telemetry, item, &body);
                    }
                })
                .expect("spawn pipeline stage worker")
        })
        .collect()
}

/// Runs one stage body panic-safely: if `body` panics, every job of the
/// batch that is still pending is completed with a typed error, so a
/// poisoned batch never wedges its clients or the counters.
fn run_stage<T: StageItem>(telemetry: &ServiceTelemetry, item: T, body: impl FnOnce(T)) {
    let states: Vec<_> = item
        .jobs()
        .iter()
        .map(|j| (Arc::clone(&j.state), j.cost))
        .collect();
    if catch_unwind(AssertUnwindSafe(|| body(item))).is_err() {
        let panicked = RuntimeError::AllNodesFailed("pipeline stage panicked".into());
        for (state, cost) in states {
            settle(telemetry, &state, cost, Err(panicked.clone()));
        }
    }
}

/// Primary role, steps 1–2: extract + modulus-switch per bootstrap job,
/// then concatenate every job's LWEs into one mega-batch.
fn prep_batch(ctx: &CkksContext, boot: &Bootstrapper, jobs: Vec<PendingJob>) -> PreparedBatch {
    let all_indices: Vec<usize> = (0..ctx.n()).collect();
    let mut mega: Vec<LweCiphertext> = Vec::new();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let start = mega.len();
        match &job.request {
            JobRequest::Bootstrap { ct } => {
                let lwes = boot.extract_lwes(ctx, ct, &all_indices);
                mega.extend(boot.modulus_switch(ctx, &lwes));
            }
            JobRequest::BlindRotate { lwes } => mega.extend(lwes.iter().cloned()),
        }
        ranges.push(start..mega.len());
    }
    PreparedBatch { jobs, mega, ranges }
}

/// Step 3, sharded across nodes (the only stage that travels). Updates
/// the admission model's per-rotation EWMA on success; on failure every
/// job of the batch fails with the scheduler's error and nothing moves on.
fn rotate_batch(
    ctx: &Arc<CkksContext>,
    boot: &Arc<Bootstrapper>,
    scheduler: &Scheduler,
    telemetry: &ServiceTelemetry,
    ns_per_lwe: &AtomicU64,
    prepared: PreparedBatch,
) -> Option<RotatedBatch> {
    let t0 = Instant::now();
    let rotated = match scheduler.execute(ctx, boot, &prepared.mega) {
        Ok(rotated) => rotated,
        Err(e) => {
            for job in &prepared.jobs {
                settle(telemetry, &job.state, job.cost, Err(e.clone()));
            }
            return None;
        }
    };
    if !prepared.mega.is_empty() {
        let sample = (t0.elapsed().as_nanos() as u64) / prepared.mega.len() as u64;
        let old = ns_per_lwe.load(Ordering::Relaxed);
        ns_per_lwe.store(policy::ewma_fold(old, sample).max(1), Ordering::Relaxed);
    }
    Some(RotatedBatch {
        jobs: prepared.jobs,
        rotated,
        ranges: prepared.ranges,
    })
}

/// Primary role, steps 4–5: repack + rescale per job from its slice.
fn finish_batch(
    ctx: &CkksContext,
    boot: &Bootstrapper,
    telemetry: &ServiceTelemetry,
    batch: RotatedBatch,
) {
    let all_indices: Vec<usize> = (0..ctx.n()).collect();
    for (job, range) in batch.jobs.into_iter().zip(batch.ranges) {
        let accs = &batch.rotated[range];
        let output = match &job.request {
            JobRequest::Bootstrap { ct } => {
                let leaves = boot.to_leaves(ctx, accs, &all_indices);
                JobOutput::Bootstrapped(boot.finish(ctx, leaves, ct.scale()))
            }
            JobRequest::BlindRotate { .. } => JobOutput::Accumulators(accs.to_vec()),
        };
        settle(telemetry, &job.state, job.cost, Ok(output));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::{insecure_deterministic_setup, DeterministicSetup, ParamPreset};
    use std::sync::OnceLock;
    use std::time::Duration;

    fn setup() -> &'static DeterministicSetup {
        static SETUP: OnceLock<DeterministicSetup> = OnceLock::new();
        SETUP.get_or_init(|| insecure_deterministic_setup(ParamPreset::Tiny, 12))
    }

    fn exhausted_ct(s: &DeterministicSetup, seed: u64) -> (heap_ckks::Ciphertext, Vec<f64>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = s.ctx.n();
        let delta = s.ctx.fresh_scale();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 40.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = s.ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &s.sk, &mut rng);
        (ct, msg)
    }

    fn service(nodes: usize) -> BootstrapService {
        service_with(nodes, RuntimeConfig::default())
    }

    fn service_with(nodes: usize, config: RuntimeConfig) -> BootstrapService {
        let s = setup();
        let boxed: Vec<Box<dyn ServiceNode>> = (0..nodes)
            .map(|i| {
                Box::new(LocalServiceNode::new(i, Parallelism::with_threads(2)))
                    as Box<dyn ServiceNode>
            })
            .collect();
        BootstrapService::start_with_nodes(Arc::clone(&s.ctx), Arc::clone(&s.boot), boxed, config)
            .unwrap()
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let s = setup();
        match BootstrapService::start_with_nodes(
            Arc::clone(&s.ctx),
            Arc::clone(&s.boot),
            Vec::new(),
            RuntimeConfig::default(),
        ) {
            Err(RuntimeError::NoNodes) => {}
            other => panic!("expected NoNodes, got {:?}", other.err()),
        }
        for broken in [
            RuntimeConfig {
                queue_capacity: 0,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                pipeline: PipelineConfig {
                    rotate_workers: 0,
                    ..PipelineConfig::default()
                },
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                pipeline: PipelineConfig {
                    channel_capacity: 0,
                    ..PipelineConfig::default()
                },
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                fairness: FairnessPolicy {
                    quantum_lwes: 0,
                    weights: Vec::new(),
                },
                ..RuntimeConfig::default()
            },
        ] {
            match BootstrapService::start(Arc::clone(&s.ctx), Arc::clone(&s.boot), broken) {
                Err(RuntimeError::Invalid(_)) => {}
                other => panic!("expected Invalid, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn service_bootstrap_matches_direct_call_bitwise() {
        let s = setup();
        let (ct, _) = exhausted_ct(s, 3);
        let direct = s.boot.bootstrap(&s.ctx, &ct);
        let svc = service(2);
        let handle = svc
            .submit(JobRequest::Bootstrap { ct }, Priority::Normal)
            .unwrap();
        let (result, latency) = handle.wait_timed();
        let fresh = result.unwrap().into_ciphertext();
        assert_eq!(fresh.c0(), direct.c0());
        assert_eq!(fresh.c1(), direct.c1());
        assert!(latency > Duration::ZERO);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn concurrent_clients_all_get_correct_results() {
        let s = setup();
        let svc = Arc::new(service(3));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let (ct, msg) = exhausted_ct(setup(), 100 + i);
                    let h = svc
                        .submit(JobRequest::Bootstrap { ct }, Priority::Normal)
                        .unwrap();
                    (h.wait().unwrap().into_ciphertext(), msg)
                })
            })
            .collect();
        for h in handles {
            let (fresh, msg) = h.join().unwrap();
            let dec = s.ctx.decrypt_coeffs(&fresh, &s.sk);
            for i in 0..s.ctx.n() {
                let got = dec[i] / fresh.scale();
                assert!((got - msg[i]).abs() < 0.02, "coeff {i}");
            }
        }
        assert_eq!(svc.stats().completed, 4);
    }

    #[test]
    fn blind_rotate_job_matches_direct_batch() {
        let s = setup();
        let (ct, _) = exhausted_ct(s, 8);
        let indices: Vec<usize> = (0..8).collect();
        let lwes = s
            .boot
            .modulus_switch(&s.ctx, &s.boot.extract_lwes(&s.ctx, &ct, &indices));
        let direct = s
            .boot
            .blind_rotate_batch_par(&s.ctx, &lwes, Parallelism::serial());
        let svc = service(2);
        let handle = svc
            .submit(JobRequest::BlindRotate { lwes }, Priority::High)
            .unwrap();
        let accs = handle.wait().unwrap().into_accumulators();
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        assert_eq!(accs.len(), direct.len());
        for (a, d) in accs.iter().zip(&direct) {
            assert_eq!(a.to_wire(&moduli), d.to_wire(&moduli));
        }
    }

    #[test]
    fn invalid_requests_rejected_at_submit() {
        let s = setup();
        let svc = service(1);
        assert_eq!(
            svc.submit(JobRequest::BlindRotate { lwes: vec![] }, Priority::Normal)
                .err(),
            Some(RuntimeError::Invalid("empty LWE batch"))
        );
        let bad = heap_tfhe::LweCiphertext::trivial(0, s.boot.config().n_t, 12345);
        assert_eq!(
            svc.submit(
                JobRequest::BlindRotate { lwes: vec![bad] },
                Priority::Normal
            )
            .err(),
            Some(RuntimeError::Invalid("LWE modulus does not match the key"))
        );
        // A wrong dimension would trip the rotation's assert and fail
        // every job coalesced into the same batch; it is refused here.
        let two_n = 2 * s.ctx.n() as u64;
        let short = heap_tfhe::LweCiphertext::trivial(0, s.boot.config().n_t - 1, two_n);
        assert_eq!(
            svc.submit(
                JobRequest::BlindRotate { lwes: vec![short] },
                Priority::Normal
            )
            .err(),
            Some(RuntimeError::Invalid(
                "LWE dimension does not match the key"
            ))
        );
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn shutdown_drains_pending_then_rejects() {
        let s = setup();
        let svc = service(1);
        let (ct, _) = exhausted_ct(s, 21);
        let handle = svc
            .submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
            .unwrap();
        svc.shutdown();
        // The in-flight job still completed.
        assert!(handle.wait().is_ok());
        assert_eq!(
            svc.submit(JobRequest::Bootstrap { ct }, Priority::Normal)
                .err(),
            Some(RuntimeError::Shutdown)
        );
    }

    #[test]
    fn deep_pipeline_matches_single_worker_results() {
        let s = setup();
        let (ct, _) = exhausted_ct(s, 33);
        let direct = s.boot.bootstrap(&s.ctx, &ct);
        let svc = service_with(
            2,
            RuntimeConfig {
                pipeline: PipelineConfig::workers(3),
                batch: BatchPolicy::immediate(),
                ..RuntimeConfig::default()
            },
        );
        let handles: Vec<_> = (0..4)
            .map(|_| {
                svc.submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
                    .unwrap()
            })
            .collect();
        for h in handles {
            let fresh = h.wait().unwrap().into_ciphertext();
            assert_eq!(fresh.c0(), direct.c0());
            assert_eq!(fresh.c1(), direct.c1());
        }
        assert_eq!(svc.stats().completed, 4);
    }

    #[test]
    fn slo_admission_rejects_with_typed_retry_hint() {
        let s = setup();
        // Impossible SLO: once the first job has measured the rotation
        // rate, everything else must be refused while backlog exists.
        let svc = service_with(
            1,
            RuntimeConfig {
                admission: Some(SloPolicy {
                    slo: Duration::from_nanos(1),
                }),
                ..RuntimeConfig::default()
            },
        );
        let (ct, _) = exhausted_ct(s, 5);
        // First job: no measurement yet, admitted, completes.
        let h = svc
            .submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
            .unwrap();
        assert!(h.wait().is_ok());
        // Rate is now measured and any projection exceeds 1ns.
        let lwes = s
            .boot
            .modulus_switch(&s.ctx, &s.boot.extract_lwes(&s.ctx, &ct, &[0, 1]));
        match svc.submit(JobRequest::BlindRotate { lwes }, Priority::Normal) {
            Err(RuntimeError::Rejected { retry_after }) => {
                assert!(retry_after >= Duration::from_millis(1));
            }
            other => panic!("expected Rejected, got {:?}", other.err()),
        }
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 1, "rejected job was never queued");
        assert_eq!(
            svc.metrics().snapshot().counter("heap_jobs_rejected_total"),
            Some(1)
        );
    }

    /// A stage that panics after one of its jobs was already settled *and
    /// collected* must fail only the job that is still pending: each job
    /// leaves the in-flight gauges exactly once.
    #[test]
    fn stage_panic_after_a_job_was_collected_settles_every_job_once() {
        let telemetry = ServiceTelemetry::new();
        let (jobs, mut handles): (Vec<_>, Vec<_>) = (0..2)
            .map(|i| {
                let state = JobState::new();
                let handle = JobHandle {
                    id: JobId(i),
                    state: Arc::clone(&state),
                };
                telemetry.pipeline.inflight_jobs.add(1);
                telemetry.pipeline.inflight_lwes.add(3);
                let job = PendingJob {
                    id: JobId(i),
                    priority: Priority::Normal,
                    tenant: TenantId::default(),
                    request: JobRequest::BlindRotate { lwes: Vec::new() },
                    cost: 3,
                    state,
                };
                (job, handle)
            })
            .unzip();
        let first = handles.remove(0);
        run_stage(&telemetry, jobs, |jobs: Vec<PendingJob>| {
            let output = JobOutput::Accumulators(Vec::new());
            settle(&telemetry, &jobs[0].state, jobs[0].cost, Ok(output));
            assert!(first.wait().is_ok());
            panic!("stage body dies after job 0 was collected");
        });
        assert!(matches!(
            handles.remove(0).wait(),
            Err(RuntimeError::AllNodesFailed(_))
        ));
        let stats = telemetry.jobs.snapshot(Default::default());
        assert_eq!((stats.completed, stats.failed), (1, 1));
        assert_eq!(telemetry.pipeline.inflight_jobs.get(), 0);
        assert_eq!(telemetry.pipeline.inflight_lwes.get(), 0);
    }

    #[test]
    fn inflight_gauges_return_to_zero_after_drain() {
        let s = setup();
        let svc = service(2);
        let (ct, _) = exhausted_ct(s, 44);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                svc.submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.gauge("heap_jobs_inflight"), Some(0));
        assert_eq!(snap.gauge("heap_lwes_inflight"), Some(0));
    }
}
