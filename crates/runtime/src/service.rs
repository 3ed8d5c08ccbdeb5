//! The bootstrapping service: the submission API and the executor of the
//! primary's pipeline.
//!
//! [`BootstrapService`] is the primary node. Client threads call
//! [`BootstrapService::submit`] and block on the returned [`JobHandle`].
//! Every decision in between is made by one pure machine,
//! [`crate::batch::Pipeline`]; this file carries it out:
//!
//! ```text
//! submit ─▶ Pipeline: fair queue → forming batch → prep → rotate → finish
//!                                                   │       │        │
//!                      prep workers (extract + mod-switch)  │        │
//!                      rotate workers (the scheduler shards rotations)
//!                      finish workers (repack + rescale, settle each job)
//! ```
//!
//! so the prep of batch `k+1` overlaps the blind rotation of batch `k`
//! and the repack of batch `k-1` — the paper's parallelized-bootstrapping
//! shape. The executor is one `Mutex` over the machine and the batches'
//! data, one `Condvar`, and the worker threads [`PipelineConfig`] asks
//! for; whichever waiting thread sees the machine's wake time pass sends
//! the wake. Stage bodies run under `catch_unwind` outside the lock, and
//! results reach their waiters outside it too.
//!
//! With [`RuntimeConfig::admission`] set, a submission whose projected
//! completion (accepted-but-unfinished rotations × a measured
//! per-rotation EWMA) overruns the SLO gets a typed
//! [`RuntimeError::Rejected`] with a retry hint.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_parallel::Parallelism;
use heap_telemetry::{EventLog, Exposition, MetricsServer, Registry};
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::batch::{BatchPolicy, Command, Event, Pipeline, FINISH, PREP, ROTATE};
use crate::job::{
    JobHandle, JobId, JobOutput, JobRequest, JobState, PendingJob, Priority, TenantId,
};
use crate::node::{check_lwes_fit, LocalServiceNode, ServiceNode};
use crate::policy::RetryPolicy;
use crate::queue::{FairnessPolicy, Job};
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
    /// Batches each stage buffers ahead of its workers. Small values
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
    /// `n` workers in every stage with a matching buffer budget.
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
    /// Worker pools and stage buffers of the staged pipeline.
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

/// A batch's data as it passes the stages.
#[derive(Default)]
struct Work {
    jobs: Vec<PendingJob>,
    mega: Vec<LweCiphertext>,
    ranges: Vec<Range<usize>>,
    rotated: Vec<RlweCiphertext>,
}

/// Everything under the one lock: the machine, and the data it names by id.
struct Core {
    machine: Pipeline,
    /// Jobs submitted and not yet flushed into a batch.
    queued: HashMap<u64, PendingJob>,
    /// Flushed batches waiting between stages.
    batches: HashMap<u64, Work>,
    /// Batches the machine started, per stage, until a worker takes one.
    ready: [VecDeque<u64>; 3],
    /// The stage workers, until `shutdown` joins them.
    workers: Vec<JoinHandle<()>>,
    /// Answers of `Parked` to blocking submitters, first tries and retries.
    #[cfg(test)]
    parked: usize,
}

/// What the submitters, the workers and the handle share.
struct Shared {
    ctx: Arc<CkksContext>,
    boot: Arc<Bootstrapper>,
    scheduler: Scheduler,
    telemetry: ServiceTelemetry,
    core: Mutex<Core>,
    cv: Condvar,
}

/// Every update under the lock leaves the data valid at every step (stage
/// bodies run outside it), so a panicking holder poisons nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running bootstrapping service (the primary node).
pub struct BootstrapService {
    shared: Arc<Shared>,
    next_id: AtomicU64,
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
        let p = config.pipeline;
        let workers = [p.prep_workers, p.rotate_workers, p.finish_workers];
        let invalid = |why| Err(RuntimeError::Invalid(why));
        if config.queue_capacity == 0 {
            return invalid("queue capacity must be at least 1");
        }
        if workers.contains(&0) {
            return invalid("every pipeline stage needs at least one worker");
        }
        if p.channel_capacity == 0 {
            return invalid("pipeline stages need room to buffer at least one batch");
        }
        if config.fairness.quantum_lwes == 0 {
            return invalid("fairness quantum must be at least 1");
        }
        let shared = Arc::new(Shared::new(ctx, boot, nodes, fallback, &config)?);
        let names = ["prep", "rotate", "finish"];
        let spawn = |(stage, i): (usize, usize)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("heap-{}-{i}", names[stage]))
                .spawn(move || shared.work(stage))
                .expect("spawn pipeline stage worker")
        };
        let pools = (0..3).flat_map(|stage| (0..workers[stage]).map(move |i| (stage, i)));
        lock(&shared.core).workers = pools.map(spawn).collect();
        Ok(Self {
            shared,
            next_id: AtomicU64::new(0),
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
    /// [`RuntimeError::Rejected`] *instead of blocking* — judged when the
    /// job would be queued, so a submitter parked on a full queue is
    /// judged against the backlog it would actually join.
    pub fn submit_opts(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
    ) -> Result<JobHandle, RuntimeError> {
        let cost = self.validate(&request)?;
        self.enqueue(request, opts, cost, true, |_, _| {})
    }

    /// [`BootstrapService::try_submit`] with an explicit tenant.
    pub fn try_submit_opts(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
    ) -> Result<JobHandle, RuntimeError> {
        let cost = self.validate(&request)?;
        self.enqueue(request, opts, cost, false, |_, _| {})
    }

    /// Session-server submit: `register` runs after validation and
    /// *before* the job can be queued, so the caller can index the
    /// completion slot (and install its notifier) without racing the
    /// pipeline; on an `Err` the job was never queued. Blocking, like
    /// [`BootstrapService::submit`].
    pub(crate) fn submit_registered(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
        register: impl FnOnce(JobId, &Arc<JobState>),
    ) -> Result<JobId, RuntimeError> {
        let cost = self.validate(&request)?;
        let handle = self.enqueue(request, opts, cost, true, register)?;
        Ok(handle.id())
    }

    /// Admits and books a validated job in one machine transition; a
    /// blocking submitter on a full queue waits and tries again.
    fn enqueue(
        &self,
        request: JobRequest,
        opts: SubmitOptions,
        cost: usize,
        block: bool,
        register: impl FnOnce(JobId, &Arc<JobState>),
    ) -> Result<JobHandle, RuntimeError> {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let state = JobState::new();
        register(id, &state);
        let job = Job {
            id: id.0,
            tenant: opts.tenant,
            priority: opts.priority,
            cost,
            submitted: state.submitted_at(),
        };
        let shared = &self.shared;
        let mut core = lock(&shared.core);
        let pending = PendingJob {
            id,
            request,
            state: Arc::clone(&state),
        };
        core.queued.insert(id.0, pending);
        loop {
            match shared.step(&mut core, Event::Submit(job, block)).pop() {
                Some(Command::Accepted) => {
                    shared.telemetry.jobs.submitted.inc();
                    return Ok(JobHandle { id, state });
                }
                Some(Command::Refused(e)) => {
                    core.queued.remove(&id.0);
                    if matches!(e, RuntimeError::Rejected { .. }) {
                        shared.telemetry.jobs.rejected.inc();
                    }
                    return Err(e);
                }
                _ => {
                    #[cfg(test)]
                    let () = core.parked += 1;
                    core = shared.wait(core);
                }
            }
        }
    }

    /// Shape checks at the door, so the pipeline never panics on client
    /// data. Returns the job's blind-rotation cost.
    fn validate(&self, request: &JobRequest) -> Result<usize, RuntimeError> {
        let (ctx, boot) = (&self.shared.ctx, &self.shared.boot);
        match request {
            JobRequest::Bootstrap { ct } => {
                if ct.limbs() != 1 {
                    return Err(RuntimeError::Invalid(
                        "bootstrap expects an exhausted (single-limb) ciphertext",
                    ));
                }
                Ok(ctx.n())
            }
            JobRequest::BlindRotate { lwes } => {
                if lwes.is_empty() {
                    return Err(RuntimeError::Invalid("empty LWE batch"));
                }
                check_lwes_fit(ctx, boot, lwes).map_err(RuntimeError::Invalid)?;
                Ok(lwes.len())
            }
        }
    }

    /// The CKKS context the service was started with.
    pub(crate) fn context(&self) -> &Arc<CkksContext> {
        &self.shared.ctx
    }

    /// The `(modulus, dimension)` its blind-rotate jobs' LWEs must have.
    pub(crate) fn lwe_shape(&self) -> (u64, usize) {
        crate::node::lwe_shape(&self.shared.ctx, &self.shared.boot)
    }

    /// The scheduler (node health, names).
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// Snapshot of the service counters (the same atomics the metrics
    /// registry exposes).
    pub fn stats(&self) -> RuntimeStats {
        let scheduler = self.shared.scheduler.stats();
        self.shared.telemetry.jobs.snapshot(scheduler)
    }

    /// The service's metric registry (jobs, batcher, scheduler counters
    /// and histograms, pipeline gauges).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.shared.telemetry.registry
    }

    /// The structured fault-event log (retries, breaker transitions,
    /// readmissions, admission rejections).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.shared.telemetry.events
    }

    /// An exposition covering the full service: its own registry, the
    /// bootstrapper's per-stage pipeline histograms, and the event log.
    pub fn exposition(&self) -> Exposition {
        Exposition::new()
            .with_registry(&self.shared.telemetry.registry)
            .with_registry(self.shared.boot.stage_metrics().registry())
            .with_events(&self.shared.telemetry.events)
    }

    /// Serves [`BootstrapService::exposition`] over HTTP at `addr`
    /// (`GET /metrics` Prometheus text, `GET /metrics.json` JSON). Pass
    /// port 0 for an ephemeral port; the bound address is returned. The
    /// endpoint stops at [`BootstrapService::shutdown`]. Starting a
    /// second endpoint replaces (and stops) the first.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let server = MetricsServer::serve(addr, self.exposition())?;
        let bound = server.addr();
        *lock(&self.metrics_server) = Some(server);
        Ok(bound)
    }

    /// Stops accepting jobs, lets every job accepted before the close
    /// complete, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        let workers = {
            let mut core = lock(&shared.core);
            shared.step(&mut core, Event::Close);
            std::mem::take(&mut core.workers)
        };
        lock(&self.metrics_server).take();
        // A panicking stage body is caught and settles its batch; the
        // machine itself does not panic, so neither does a worker.
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for BootstrapService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// The executor with no workers yet.
    fn new(
        ctx: Arc<CkksContext>,
        boot: Arc<Bootstrapper>,
        nodes: Vec<Box<dyn ServiceNode>>,
        fallback: Option<Box<dyn ServiceNode>>,
        config: &RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let telemetry = ServiceTelemetry::new();
        let scheduler = telemetry.scheduler.clone();
        let scheduler = Scheduler::with_telemetry(nodes, fallback, config.retry, scheduler)?;
        let core = Core {
            machine: Pipeline::new(config),
            queued: HashMap::new(),
            batches: HashMap::new(),
            ready: Default::default(),
            workers: Vec::new(),
            #[cfg(test)]
            parked: 0,
        };
        Ok(Self {
            ctx,
            boot,
            scheduler,
            telemetry,
            core: Mutex::new(core),
            cv: Condvar::new(),
        })
    }

    /// Feeds the machine one event and carries out, under the lock, what
    /// it answers there: flushed batches gather their jobs, started ones
    /// wait for a worker, gauges mirror the machine's counts. Returns the
    /// rest — an admission verdict, settlements — for the caller.
    fn step(&self, core: &mut Core, event: Event) -> Vec<Command> {
        let mut rest = Vec::new();
        let t = &self.telemetry;
        let commands = core.machine.on(Instant::now(), event);
        // A lone `Parked` moved nothing a waiter reads; waking them would
        // send each parked submitter's retry to wake the others in turn.
        let moved = commands != [Command::Parked];
        for command in commands {
            match command {
                Command::Flush {
                    batch,
                    waits,
                    lwes,
                    linger,
                } => {
                    let gather = |&(id, wait): &(u64, Duration)| {
                        t.batcher.queue_wait_ns.record_duration(wait);
                        core.queued.remove(&id).expect("a flushed job is queued")
                    };
                    let jobs = waits.iter().map(gather).collect();
                    t.batcher.batch_linger_ns.record_duration(linger);
                    t.batcher.batch_size_lwes.record(lwes as u64);
                    let work = Work {
                        jobs,
                        ..Work::default()
                    };
                    core.batches.insert(batch, work);
                }
                Command::Run(stage, batch) => core.ready[stage].push_back(batch),
                Command::Log(kind, why) => {
                    t.events.record(kind, "service", &why);
                }
                other => rest.push(other),
            }
        }
        t.pipeline.set(&core.machine.gauges());
        if moved {
            self.cv.notify_all();
        }
        rest
    }

    /// Waits for the next transition or the machine's wake time, and sends
    /// the wake once that time has passed.
    fn wait<'a>(&self, core: MutexGuard<'a, Core>) -> MutexGuard<'a, Core> {
        let armed = core.machine.wake_at();
        let timeout = armed.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        });
        let mut core = self
            .cv
            .wait_timeout(core, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        if core
            .machine
            .wake_at()
            .is_some_and(|at| at <= Instant::now())
        {
            self.step(&mut core, Event::Wake);
        }
        core
    }

    /// One stage worker: runs what the machine starts for `stage` until it
    /// has drained.
    fn work(&self, stage: usize) {
        let mut core = lock(&self.core);
        loop {
            let Some(b) = core.ready[stage].pop_front() else {
                if core.machine.drained() {
                    return;
                }
                core = self.wait(core);
                continue;
            };
            let mut work = core
                .batches
                .remove(&b)
                .expect("a started batch has its data");
            drop(core);
            let body = AssertUnwindSafe(|| self.run(stage, b, &mut work));
            let result = catch_unwind(body).unwrap_or_else(|_| {
                Err(RuntimeError::AllNodesFailed(
                    "pipeline stage panicked".into(),
                ))
            });
            let goes_on = result.is_ok() && stage != FINISH;
            core = lock(&self.core);
            let settled = self.step(&mut core, Event::Done(stage, b, result));
            if goes_on {
                core.batches.insert(b, work);
            } else if !settled.is_empty() {
                drop(core);
                settle(&self.telemetry, &work, settled, None);
                core = lock(&self.core);
            }
        }
    }

    /// Stage `stage`'s body on one batch.
    fn run(&self, stage: usize, b: u64, work: &mut Work) -> Result<(), RuntimeError> {
        let (ctx, boot) = (&self.ctx, &self.boot);
        let all_indices: Vec<usize> = (0..ctx.n()).collect();
        match stage {
            // Primary role, steps 1–2: extract + modulus-switch per
            // bootstrap job, concatenated into one mega-batch.
            PREP => {
                for job in &work.jobs {
                    let start = work.mega.len();
                    match &job.request {
                        JobRequest::Bootstrap { ct } => {
                            let lwes = boot.extract_lwes(ctx, ct, &all_indices);
                            work.mega.extend(boot.modulus_switch(ctx, &lwes));
                        }
                        JobRequest::BlindRotate { lwes } => work.mega.extend(lwes.iter().cloned()),
                    }
                    work.ranges.push(start..work.mega.len());
                }
            }
            // Step 3, sharded across nodes (the only stage that travels).
            ROTATE => {
                work.rotated = self.scheduler.execute(ctx, boot, &work.mega)?;
                work.mega = Vec::new();
            }
            // Primary role, steps 4–5: repack + rescale per job from its
            // slice, each job settled as soon as its output exists.
            _ => {
                for (job, range) in work.jobs.iter().zip(&work.ranges) {
                    let accs = &work.rotated[range.clone()];
                    let output = match &job.request {
                        JobRequest::Bootstrap { ct } => {
                            let leaves = boot.to_leaves(ctx, accs, &all_indices);
                            JobOutput::Bootstrapped(boot.finish(ctx, leaves, ct.scale()))
                        }
                        JobRequest::BlindRotate { .. } => JobOutput::Accumulators(accs.to_vec()),
                    };
                    let settled = self.step(&mut lock(&self.core), Event::Output(b, job.id.0));
                    settle(&self.telemetry, work, settled, Some(output));
                }
            }
        }
        Ok(())
    }
}

/// Carries out the machine's settlements for jobs of `work`: `output` for
/// an `Ok`, the error otherwise. The counters move under the job's slot
/// lock, so a woken waiter always sees them settled; the gauges already
/// mirror the machine.
fn settle(
    telemetry: &ServiceTelemetry,
    work: &Work,
    settled: Vec<Command>,
    mut output: Option<JobOutput>,
) {
    for command in settled {
        let Command::Settle(id, result) = command else {
            unreachable!("only settlements are left for the worker")
        };
        let job = work
            .jobs
            .iter()
            .find(|j| j.id.0 == id)
            .expect("a job of the batch");
        let result = result.map(|()| output.take().expect("an output to settle with"));
        let outcome = match &result {
            Ok(_) => &telemetry.jobs.completed,
            Err(_) => &telemetry.jobs.failed,
        };
        job.state.complete_and(result, || outcome.inc());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::{insecure_deterministic_setup, DeterministicSetup, ParamPreset};
    use crate::telemetry::PipelineCounts;
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

    /// A blocking submitter's thread: its submit's verdict, then its job's.
    type Submitter = std::thread::JoinHandle<Result<Result<JobOutput, RuntimeError>, RuntimeError>>;

    /// Blocking submitters of one two-rotation job each, in front of a
    /// one-job queue, unit stage buffers and a first rotation held for
    /// `hold_ms`. The pipeline takes at most six jobs (the queue, the
    /// flushed batch, one buffered and one running batch in prep and in
    /// rotate) while the rotation is held; the rest park.
    fn held_rotation(
        hold_ms: u64,
        admission: Option<SloPolicy>,
        submitters: usize,
    ) -> (Arc<BootstrapService>, Vec<Submitter>) {
        let s = setup();
        let local = LocalServiceNode::new(0, Parallelism::with_threads(2));
        let plan = format!("delay:{hold_ms}").parse().unwrap();
        let node = crate::ChaosNode::new(Box::new(local), plan);
        let config = RuntimeConfig {
            queue_capacity: 1,
            batch: BatchPolicy::immediate(),
            pipeline: PipelineConfig {
                channel_capacity: 1,
                ..PipelineConfig::default()
            },
            admission,
            ..RuntimeConfig::default()
        };
        let (ctx, boot) = (Arc::clone(&s.ctx), Arc::clone(&s.boot));
        let nodes: Vec<Box<dyn ServiceNode>> = vec![Box::new(node)];
        let svc = Arc::new(BootstrapService::start_with_nodes(ctx, boot, nodes, config).unwrap());
        // 1 µs per rotation: until a rotation is measured, an SLO of 50 ms
        // admits a backlog of up to 50,000 rotations.
        lock(&svc.shared.core).machine.pin_rate(1_000);
        let lwes = rotation_inputs(63, 2);
        let threads = (0..submitters)
            .map(|_| {
                let (svc, lwes) = (Arc::clone(&svc), lwes.clone());
                std::thread::spawn(move || {
                    let handle = svc.submit(JobRequest::BlindRotate { lwes }, Priority::Normal);
                    handle.map(|h| h.wait())
                })
            })
            .collect();
        (svc, threads)
    }

    /// Admission and booking are one transition, judged again each time a
    /// parked submitter retries: when the held rotation ends, its measured
    /// rate puts every later booking far past the SLO.
    #[test]
    fn parked_submitters_are_admitted_against_the_backlog_they_join() {
        const SUBMITTERS: usize = 10;
        let slo = SloPolicy {
            slo: Duration::from_millis(50),
        };
        let (svc, submitters) = held_rotation(600, Some(slo), SUBMITTERS);
        let (mut admitted, mut rejected) = (0, 0);
        for t in submitters {
            match t.join().unwrap() {
                Ok(done) => {
                    assert!(done.is_ok(), "{:?}", done.err());
                    admitted += 1;
                }
                Err(RuntimeError::Rejected { .. }) => rejected += 1,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(admitted <= 6, "{admitted} admitted, the rest parked");
        assert_eq!(admitted + rejected, SUBMITTERS);
        let stats = svc.stats();
        assert_eq!(
            (stats.submitted, stats.rejected),
            (admitted as u64, rejected as u64)
        );
    }

    /// A parked submitter tries again only after a transition that moved
    /// something: while the held rotation moves nothing, the four parked
    /// behind it sleep instead of waking each other.
    #[test]
    fn parked_submitters_sleep_while_nothing_moves() {
        const SUBMITTERS: usize = 10;
        let t0 = Instant::now();
        let (svc, submitters) = held_rotation(1_000, None, SUBMITTERS);
        let parked = || lock(&svc.shared.core).parked;
        while svc.stats().submitted < 6 {
            assert!(
                t0.elapsed() < Duration::from_millis(500),
                "pipeline never filled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));
        let before = parked();
        std::thread::sleep(Duration::from_millis(300));
        let during = parked() - before;
        assert!(
            t0.elapsed() < Duration::from_millis(950),
            "the hold ended first"
        );
        assert_eq!(during, 0, "parked submitters retried during the hold");
        for t in submitters {
            assert!(t.join().unwrap().unwrap().is_ok());
        }
        // Afterwards each transition wakes the parked once: a handful of
        // retries per job, not a spin.
        let total = parked();
        assert!(total <= 20 * SUBMITTERS, "{total} parked answers");
    }

    /// The executor's half of a finish body that settled job 1 and then
    /// panicked: job 1 keeps its output, job 2 gets the error, each is
    /// counted once, and the gauges return to 0. No workers run; the test
    /// steps the machine as they would.
    #[test]
    fn finish_panic_after_an_output_settles_every_job_once() {
        let s = setup();
        let node = LocalServiceNode::new(0, Parallelism::serial());
        let config = RuntimeConfig {
            batch: BatchPolicy {
                max_delay: Duration::from_secs(10),
                ..BatchPolicy::default()
            },
            ..RuntimeConfig::default()
        };
        let (ctx, boot) = (Arc::clone(&s.ctx), Arc::clone(&s.boot));
        let shared = Shared::new(ctx, boot, vec![Box::new(node)], None, &config).unwrap();
        let mut core = lock(&shared.core);
        let handles: Vec<_> = (0..3u64)
            .map(|id| {
                let state = JobState::new();
                let request = JobRequest::BlindRotate { lwes: Vec::new() };
                let pending = PendingJob {
                    id: JobId(id),
                    request,
                    state: Arc::clone(&state),
                };
                core.queued.insert(id, pending);
                let job = Job {
                    id,
                    tenant: TenantId::default(),
                    priority: Priority::Normal,
                    cost: 3,
                    submitted: state.submitted_at(),
                };
                let verdict = shared.step(&mut core, Event::Submit(job, true));
                assert_eq!(verdict, [Command::Accepted]);
                JobHandle {
                    id: JobId(id),
                    state,
                }
            })
            .collect();
        // Job 0 rotates alone; jobs 1 and 2 share the batch that flushes
        // when its rotation ends.
        let run = |core: &mut Core, stage: usize, b: u64, result| {
            assert_eq!(core.ready[stage].pop_front(), Some(b));
            shared.step(core, Event::Done(stage, b, result))
        };
        run(&mut core, PREP, 0, Ok(()));
        run(&mut core, ROTATE, 0, Ok(()));
        let output = JobOutput::Accumulators(Vec::new());
        let settled = shared.step(&mut core, Event::Output(0, 0));
        settle(&shared.telemetry, &core.batches[&0], settled, Some(output));
        assert!(run(&mut core, FINISH, 0, Ok(())).is_empty());
        run(&mut core, PREP, 1, Ok(()));
        run(&mut core, ROTATE, 1, Ok(()));
        let work = core.batches.remove(&1).unwrap();
        let ids: Vec<u64> = work.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, [1, 2]);
        let output = JobOutput::Accumulators(Vec::new());
        let settled = shared.step(&mut core, Event::Output(1, 1));
        settle(&shared.telemetry, &work, settled, Some(output));
        let panicked = RuntimeError::AllNodesFailed("pipeline stage panicked".into());
        let settled = run(&mut core, FINISH, 1, Err(panicked.clone()));
        assert_eq!(settled, [Command::Settle(2, Err(panicked.clone()))]);
        settle(&shared.telemetry, &work, settled, None);
        let results: Vec<_> = handles.into_iter().map(|h| h.wait().err()).collect();
        assert_eq!(results, [None, None, Some(panicked)]);
        let stats = shared.telemetry.jobs.snapshot(Default::default());
        assert_eq!((stats.completed, stats.failed), (2, 1));
        assert_eq!(core.machine.gauges(), PipelineCounts::default());
        let snap = shared.telemetry.registry.snapshot();
        assert_eq!(snap.gauge("heap_jobs_inflight"), Some(0));
        assert_eq!(snap.gauge("heap_lwes_inflight"), Some(0));
        assert_eq!(snap.gauge("heap_pipeline_rotating_batches"), Some(0));
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

    /// One local node behind `plan`, and a batcher that lingers for
    /// co-travellers up to 10 s while rotation is busy, so only an
    /// idle-stage flush can finish a job promptly.
    fn chaos_service(plan: &str) -> BootstrapService {
        let s = setup();
        let local = LocalServiceNode::new(0, Parallelism::with_threads(2));
        let node = crate::ChaosNode::new(Box::new(local), plan.parse().expect("fault plan"));
        let config = RuntimeConfig {
            batch: BatchPolicy {
                max_delay: Duration::from_secs(10),
                ..BatchPolicy::default()
            },
            retry: RetryPolicy::test_fast(),
            ..RuntimeConfig::default()
        };
        BootstrapService::start_with_nodes(
            Arc::clone(&s.ctx),
            Arc::clone(&s.boot),
            vec![Box::new(node)],
            config,
        )
        .unwrap()
    }

    /// `count` mod-switched extractions of one fresh exhausted ciphertext.
    fn rotation_inputs(seed: u64, count: usize) -> Vec<LweCiphertext> {
        let s = setup();
        let (ct, _) = exhausted_ct(s, seed);
        let indices: Vec<usize> = (0..count).collect();
        s.boot
            .modulus_switch(&s.ctx, &s.boot.extract_lwes(&s.ctx, &ct, &indices))
    }

    fn rotating_batches(svc: &BootstrapService) -> Option<i64> {
        svc.metrics()
            .snapshot()
            .gauge("heap_pipeline_rotating_batches")
    }

    /// The count a leaked rotate claim would leave behind is back to 0,
    /// and a lone job flushes at once instead of lingering `max_delay`.
    fn assert_rotate_stage_released(svc: &BootstrapService) {
        assert_eq!(rotating_batches(svc), Some(0));
        let lwes = rotation_inputs(77, 2);
        let t0 = Instant::now();
        let result = svc
            .submit(JobRequest::BlindRotate { lwes }, Priority::Normal)
            .unwrap()
            .wait();
        assert!(result.is_ok(), "{:?}", result.err());
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "lone job took {:?}",
            t0.elapsed()
        );
        assert_eq!(rotating_batches(svc), Some(0));
    }

    #[test]
    fn failed_rotation_releases_the_rotate_stage() {
        let svc = chaos_service("fail");
        let lwes = rotation_inputs(60, 2);
        let failed = svc
            .submit(JobRequest::BlindRotate { lwes }, Priority::Normal)
            .unwrap()
            .wait();
        assert!(
            matches!(failed, Err(RuntimeError::AllNodesFailed(_))),
            "{failed:?}"
        );
        // The sole node's breaker opened; its plan is spent, so the
        // prober readmits it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.scheduler().healthy_count() == 0 {
            assert!(Instant::now() < deadline, "node never readmitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_rotate_stage_released(&svc);
    }

    #[test]
    fn stage_panic_releases_the_rotate_stage() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = setup();
        let svc = chaos_service("");
        // A two-limb ciphertext trips the extraction's single-limb assert
        // in the prep stage. `validate` refuses it at the door, so it goes
        // straight into the queue.
        let mut rng = StdRng::seed_from_u64(61);
        let coeffs = vec![0; s.ctx.n()];
        let ct = s
            .ctx
            .encrypt_coeffs_sk(&coeffs, s.ctx.fresh_scale(), 2, &s.sk, &mut rng);
        let (request, opts) = (JobRequest::Bootstrap { ct }, SubmitOptions::default());
        let handle = svc.enqueue(request, opts, s.ctx.n(), true, |_, _| {});
        match handle.unwrap().wait() {
            Err(RuntimeError::AllNodesFailed(why)) => assert!(why.contains("panicked"), "{why}"),
            other => panic!("expected the stage panic's error, got {other:?}"),
        }
        assert_rotate_stage_released(&svc);
    }

    /// While rotation is busy, jobs that queue behind it share one batch,
    /// flushed when the rotation ends, not at `max_delay`.
    #[test]
    fn busy_rotation_coalesces_the_jobs_queued_behind_it() {
        let s = setup();
        let inputs: Vec<Vec<LweCiphertext>> = rotation_inputs(62, 14)
            .chunks(2)
            .map(<[_]>::to_vec)
            .collect();
        let svc = Arc::new(chaos_service("delay:300"));
        let t0 = Instant::now();
        let first = svc
            .submit(
                JobRequest::BlindRotate {
                    lwes: inputs[0].clone(),
                },
                Priority::Normal,
            )
            .unwrap();
        // Its batch flushed at once (the stage was idle) and now rotates
        // for 300 ms.
        while rotating_batches(&svc) != Some(1) {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "first batch never flushed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Three threads submit two jobs each: inputs 1–2, 3–4, 5–6.
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let (svc, inputs) = (Arc::clone(&svc), inputs.clone());
                std::thread::spawn(move || {
                    (1 + 2 * t..3 + 2 * t)
                        .map(|i| {
                            let lwes = inputs[i].clone();
                            let request = JobRequest::BlindRotate { lwes };
                            (i, svc.submit(request, Priority::Normal).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut handles = vec![(0, first)];
        for t in submitters {
            handles.extend(t.join().unwrap());
        }
        let outputs: Vec<_> = handles
            .into_iter()
            .map(|(i, h)| (i, h.wait().unwrap().into_accumulators()))
            .collect();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "took {:?}",
            t0.elapsed()
        );

        let snap = svc.metrics().snapshot();
        let sizes = snap.histogram("heap_batch_size_lwes").unwrap();
        assert_eq!(
            (sizes.count, sizes.sum),
            (2, 14),
            "the six shared one batch"
        );
        assert_eq!(snap.histogram("heap_batch_linger_ns").unwrap().count, 2);
        assert_eq!(snap.gauge("heap_pipeline_rotating_batches"), Some(0));
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        let wire = |accs: &[RlweCiphertext]| -> Vec<Vec<u8>> {
            accs.iter().map(|a| a.to_wire(&moduli)).collect()
        };
        for (i, accs) in outputs {
            let direct = s
                .boot
                .blind_rotate_batch_par(&s.ctx, &inputs[i], Parallelism::serial());
            assert_eq!(wire(&accs), wire(&direct), "job {i}");
        }
    }
}
