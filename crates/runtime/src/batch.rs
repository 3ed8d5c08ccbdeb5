//! The primary's pipeline as one pure machine: [`Pipeline::on`]`(now,
//! event) → commands` decides admission, fair queueing, when a batch
//! flushes, which stage runs what, settlement and drain, reading no clock
//! but the `now` it is handed. It holds job ids, costs, tenants and
//! timestamps, never a ciphertext; `service.rs` is its executor.
//!
//! - **Admission** is one transition: refused once closed, refused with a
//!   retry hint when [`crate::policy::slo_overrun`] projects the machine's
//!   own backlog past the SLO, parked (blocking) or refused (`QueueFull`)
//!   on a full queue, and otherwise queued and booked at once. A parked
//!   submitter submits again after later transitions, judged afresh.
//! - **Batching** is work-conserving and peek-based: the fair queue drains
//!   into one forming batch, and a job that would push it past
//!   [`BatchPolicy::max_lwes`] stays queued (only the opener may exceed
//!   it). The batch flushes at the first of: it holds `max_lwes`; a rotate
//!   slot is free (fewer batches between their flush and the end of their
//!   rotation than rotate workers); its opener has waited `max_delay`
//!   since submission.
//! - **Stages** (prep, rotate, finish) each buffer at most
//!   `channel_capacity` batches and run at most their worker count; a done
//!   batch keeps its worker until the next buffer has room, so
//!   backpressure travels batch by batch to the queue.
//! - **Settlement and drain**: each accepted job settles once, with its
//!   output or its failed stage's error; `Close` refuses new jobs and lets
//!   every accepted one through before [`Pipeline::drained`].

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::policy;
use crate::queue::{FairQueue, Head, Job};
use crate::service::RuntimeConfig;
use crate::telemetry::PipelineCounts;
use crate::RuntimeError;

/// When to flush a forming batch. The third flush event, a free rotate
/// worker, needs no setting: the pipeline's shape decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once the batch holds this many blind rotations.
    pub max_lwes: usize,
    /// The longest a batch waits for co-travellers while rotation is
    /// busy, counted from its oldest job's submission.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_lwes: 512,
            max_delay: Duration::from_millis(5),
        }
    }
}

impl BatchPolicy {
    /// One job per batch, for deterministic batch boundaries.
    pub fn immediate() -> Self {
        Self {
            max_lwes: 1,
            max_delay: Duration::ZERO,
        }
    }
}

/// The primary's stage groups, in pipeline order: Algorithm 2's steps
/// 1–2, 3 (the only one that travels) and 4–5.
pub(crate) const PREP: usize = 0;
pub(crate) const ROTATE: usize = 1;
pub(crate) const FINISH: usize = 2;

/// Floor for the `retry_after` hint carried by a rejection.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);

/// What the executor tells the machine.
#[derive(Debug)]
pub(crate) enum Event {
    /// Admit and book a job. A blocking submitter (`true`) is parked on a
    /// full queue instead of refused.
    Submit(Job, bool),
    /// Stage `.0`'s body for batch `.1` ended: `Ok`, or the error every
    /// job of the batch still unsettled settles with.
    Done(usize, u64, Result<(), RuntimeError>),
    /// The finish stage holds the output of job `.1` of batch `.0`.
    Output(u64, u64),
    /// [`Pipeline::wake_at`] has passed.
    Wake,
    /// Refuse new jobs; drain every accepted one.
    Close,
}

/// What the machine asks of the executor, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum Command {
    /// The submitted job is queued and booked.
    Accepted,
    /// The queue is full and nothing else moved: the blocking submitter
    /// submits again after the next transition that does.
    Parked,
    Refused(RuntimeError),
    /// A batch flushed: its jobs in order with their queue waits (submit
    /// until the forming batch took the job), its rotations, and how long
    /// it formed.
    Flush {
        batch: u64,
        waits: Vec<(u64, Duration)>,
        lwes: usize,
        linger: Duration,
    },
    /// Run stage `.0`'s body on batch `.1`.
    Run(usize, u64),
    /// Settle job `.0`: with the output the finish stage holds, or an error.
    Settle(u64, Result<(), RuntimeError>),
    /// An event for the log: kind, why.
    Log(&'static str, String),
}

/// One stage group: its buffer, and the batches holding one of its
/// workers — running, or done and waiting for room downstream.
#[derive(Default)]
struct Stage {
    inbox: VecDeque<u64>,
    busy: usize,
    done: VecDeque<u64>,
}

/// A flushed batch, until its last stage ends.
struct Batch {
    /// Its jobs in order: id, cost, settled.
    jobs: Vec<(u64, usize, bool)>,
    lwes: usize,
    /// It holds a rotate slot: from its flush to the end of its rotation.
    rotating: bool,
    /// When its rotation started.
    started: Instant,
}

/// The batch the fair queue drains into.
struct Forming {
    /// Its jobs in order, each with its queue wait, ended as it was taken.
    jobs: Vec<(Job, Duration)>,
    cost: usize,
    opened: Instant,
    deadline: Instant,
}

/// The primary's pipeline; see module docs.
pub(crate) struct Pipeline {
    policy: BatchPolicy,
    workers: [usize; 3],
    capacity: usize,
    slo: Option<Duration>,
    queue: FairQueue,
    forming: Option<Forming>,
    /// A flushed batch waiting for room in the prep buffer.
    flushed: Option<u64>,
    stages: [Stage; 3],
    batches: HashMap<u64, Batch>,
    next_batch: u64,
    /// Batches holding a rotate slot.
    rotating: usize,
    /// Accepted and unsettled: jobs, and their rotations (the backlog the
    /// SLO projects).
    jobs: usize,
    backlog: u64,
    /// EWMA of measured rotation time per LWE ([`policy::ewma_fold`]);
    /// zero until a rotation has been measured.
    ns_per_lwe: u64,
    closed: bool,
}

impl Pipeline {
    pub(crate) fn new(config: &RuntimeConfig) -> Self {
        let p = config.pipeline;
        Self {
            policy: config.batch,
            workers: [p.prep_workers, p.rotate_workers, p.finish_workers],
            capacity: p.channel_capacity,
            slo: config.admission.map(|a| a.slo),
            queue: FairQueue::new(config.queue_capacity, &config.fairness),
            forming: None,
            flushed: None,
            stages: Default::default(),
            batches: HashMap::new(),
            next_batch: 0,
            rotating: 0,
            jobs: 0,
            backlog: 0,
            ns_per_lwe: 0,
            closed: false,
        }
    }

    /// When the executor must send [`Event::Wake`]: the forming batch's
    /// deadline. `None` waits for the next event.
    pub(crate) fn wake_at(&self) -> Option<Instant> {
        self.forming.as_ref().map(|f| f.deadline)
    }

    /// Closed, every accepted job settled and every batch through.
    pub(crate) fn drained(&self) -> bool {
        self.closed && self.jobs == 0 && self.batches.is_empty()
    }

    /// What the executor's gauges mirror: each stage's buffered batches,
    /// the batches holding a rotate slot, and the accepted-but-unsettled
    /// jobs and rotations.
    pub(crate) fn gauges(&self) -> PipelineCounts {
        let [prep, rotate, finish] = self.stages.each_ref().map(|s| s.inbox.len() as i64);
        PipelineCounts {
            prep_depth: prep,
            rotate_depth: rotate,
            finish_depth: finish,
            rotating_batches: self.rotating as i64,
            inflight_jobs: self.jobs as i64,
            inflight_lwes: self.backlog as i64,
        }
    }

    /// Sets the per-rotation rate as if rotations had measured it.
    #[cfg(test)]
    pub(crate) fn pin_rate(&mut self, ns_per_lwe: u64) {
        self.ns_per_lwe = ns_per_lwe;
    }

    pub(crate) fn on(&mut self, now: Instant, event: Event) -> Vec<Command> {
        let mut cmds = Vec::new();
        match event {
            Event::Submit(job, block) => self.submit(job, block, &mut cmds),
            Event::Done(stage, batch, result) => self.done(now, stage, batch, result, &mut cmds),
            Event::Output(batch, job) => self.settle(batch, job, Ok(()), &mut cmds),
            Event::Wake => {}
            Event::Close => self.closed = true,
        }
        for stage in [FINISH, ROTATE, PREP] {
            self.advance(stage, now, &mut cmds);
        }
        while self.flushed.is_none() && self.form(now, &mut cmds) {
            self.advance(PREP, now, &mut cmds);
        }
        cmds
    }

    fn submit(&mut self, job: Job, block: bool, cmds: &mut Vec<Command>) {
        if self.closed {
            return cmds.push(Command::Refused(RuntimeError::Shutdown));
        }
        let backlog = self.backlog + job.cost as u64;
        let overrun = |slo| policy::slo_overrun(slo, backlog, self.ns_per_lwe).map(|p| (slo, p));
        if let Some((slo, projected)) = self.slo.and_then(overrun) {
            let why = format!("projected {projected:?} > slo {slo:?}");
            cmds.push(Command::Log("admission_rejected", why));
            let retry_after = (projected - slo).max(MIN_RETRY_AFTER);
            return cmds.push(Command::Refused(RuntimeError::Rejected { retry_after }));
        }
        if self.queue.is_full() {
            let full = RuntimeError::QueueFull;
            return cmds.push(if block {
                Command::Parked
            } else {
                Command::Refused(full)
            });
        }
        self.queue.push(job);
        self.jobs += 1;
        self.backlog = backlog;
        cmds.push(Command::Accepted);
    }

    fn done(
        &mut self,
        now: Instant,
        stage: usize,
        b: u64,
        result: Result<(), RuntimeError>,
        cmds: &mut Vec<Command>,
    ) {
        let batch = self.batches.get_mut(&b).expect("a running batch");
        // The rotate slot is free once the rotation ends, however it ends,
        // or once the batch dies before reaching it.
        if batch.rotating && (stage == ROTATE || result.is_err()) {
            batch.rotating = false;
            self.rotating -= 1;
        }
        match result {
            Ok(()) if stage == FINISH => {}
            Ok(()) => {
                if stage == ROTATE {
                    let ns = now.saturating_duration_since(batch.started).as_nanos() as u64;
                    let sample = ns / batch.lwes.max(1) as u64;
                    self.ns_per_lwe = policy::ewma_fold(self.ns_per_lwe, sample).max(1);
                }
                return self.stages[stage].done.push_back(b);
            }
            Err(e) => {
                let unsettled = batch.jobs.iter().filter(|j| !j.2).map(|j| j.0);
                for id in unsettled.collect::<Vec<_>>() {
                    self.settle(b, id, Err(e.clone()), cmds);
                }
            }
        }
        self.stages[stage].busy -= 1;
        self.batches.remove(&b);
    }

    fn settle(
        &mut self,
        b: u64,
        id: u64,
        result: Result<(), RuntimeError>,
        cmds: &mut Vec<Command>,
    ) {
        let batch = self.batches.get_mut(&b).expect("a running batch");
        let Some(job) = batch.jobs.iter_mut().find(|j| j.0 == id && !j.2) else {
            return;
        };
        job.2 = true;
        self.jobs -= 1;
        self.backlog -= job.1 as u64;
        cmds.push(Command::Settle(id, result));
    }

    /// Starts what stage `s` has workers for, refilling its buffer from
    /// upstream (a done batch, or the flushed one for prep) as it drains.
    fn advance(&mut self, s: usize, now: Instant, cmds: &mut Vec<Command>) {
        loop {
            let stage = &mut self.stages[s];
            if stage.busy < self.workers[s] {
                if let Some(b) = stage.inbox.pop_front() {
                    stage.busy += 1;
                    if s == ROTATE {
                        self.batches.get_mut(&b).expect("a live batch").started = now;
                    }
                    cmds.push(Command::Run(s, b));
                    continue;
                }
            }
            if stage.inbox.len() >= self.capacity {
                return;
            }
            let upstream = match s {
                PREP => self.flushed.take(),
                _ => {
                    let up = &mut self.stages[s - 1];
                    up.done.pop_front().inspect(|_| up.busy -= 1)
                }
            };
            let Some(b) = upstream else { return };
            self.stages[s].inbox.push_back(b);
        }
    }

    /// Opens a batch on the queue's head if none is forming, takes what
    /// fits, and flushes on the first of the three events; true once it
    /// flushed.
    fn form(&mut self, now: Instant, cmds: &mut Vec<Command>) -> bool {
        let max = self.policy.max_lwes;
        if self.forming.is_none() {
            let Head::Job(first) = self.queue.take(usize::MAX) else {
                return false;
            };
            // The delay clock starts at the opener's submission, not at
            // batch open: a job that already waited `max_delay` in a
            // backed-up queue has spent its linger budget.
            self.forming = Some(Forming {
                deadline: first.submitted + self.policy.max_delay,
                opened: now,
                cost: first.cost,
                jobs: vec![(first, now.saturating_duration_since(first.submitted))],
            });
        }
        let f = self.forming.as_mut().expect("a forming batch");
        let mut oversized = false;
        while f.cost < max && !oversized {
            match self.queue.take(max - f.cost) {
                Head::Job(job) => {
                    f.cost += job.cost;
                    f.jobs
                        .push((job, now.saturating_duration_since(job.submitted)));
                }
                Head::Oversized => oversized = true,
                Head::Empty => break,
            }
        }
        // Short of the cap with nothing left that fits, the batch waits
        // only while every rotate worker is taken, and not past its deadline.
        let idle = self.rotating < self.workers[ROTATE];
        if !(f.cost >= max || oversized || idle || now >= f.deadline || self.closed) {
            return false;
        }
        let f = self.forming.take().expect("a forming batch");
        let b = self.next_batch;
        self.next_batch += 1;
        cmds.push(Command::Flush {
            batch: b,
            waits: f.jobs.iter().map(|(j, wait)| (j.id, *wait)).collect(),
            lwes: f.cost,
            linger: now.saturating_duration_since(f.opened),
        });
        let jobs = f.jobs.iter().map(|(j, _)| (j.id, j.cost, false)).collect();
        let batch = Batch {
            jobs,
            lwes: f.cost,
            rotating: true,
            started: now,
        };
        self.batches.insert(b, batch);
        self.rotating += 1;
        self.flushed = Some(b);
        true
    }
}

#[cfg(test)]
mod tests {
    //! The machine's cells, one per rule in DESIGN §10's table, on a
    //! virtual clock; then the whole-primary simulator.
    use super::*;
    use crate::job::{Priority, TenantId};
    use crate::service::{PipelineConfig, SloPolicy};

    const MS: Duration = Duration::from_millis(1);

    /// A machine on a virtual clock that starts at `t0`.
    struct Cell {
        m: Pipeline,
        t0: Instant,
    }

    fn cell(max_lwes: usize, max_delay: Duration, pipeline: PipelineConfig) -> Cell {
        let config = RuntimeConfig {
            queue_capacity: 4,
            batch: BatchPolicy {
                max_lwes,
                max_delay,
            },
            pipeline,
            ..RuntimeConfig::default()
        };
        Cell {
            m: Pipeline::new(&config),
            t0: Instant::now(),
        }
    }

    /// One job per batch; one worker, a one-batch buffer per stage and a
    /// one-job queue.
    fn narrow() -> Cell {
        let pipeline = PipelineConfig {
            channel_capacity: 1,
            ..PipelineConfig::default()
        };
        let mut c = cell(1, Duration::ZERO, pipeline);
        c.m.queue = FairQueue::new(1, &Default::default());
        c
    }

    impl Cell {
        fn on(&mut self, ms: u64, event: Event) -> Vec<Command> {
            let cmds = self.m.on(self.t0 + Duration::from_millis(ms), event);
            for s in [PREP, ROTATE, FINISH] {
                let stage = &self.m.stages[s];
                assert!(stage.inbox.len() <= self.m.capacity, "stage {s} buffer");
                assert!(stage.busy <= self.m.workers[s], "stage {s} workers");
            }
            cmds
        }

        /// Job `id` of `cost`, submitted at `ms` (non-blocking unless `block`).
        fn submit(&mut self, ms: u64, id: u64, cost: usize, block: bool) -> Vec<Command> {
            let job = Job {
                id,
                tenant: TenantId::default(),
                priority: Priority::Normal,
                cost,
                submitted: self.t0 + Duration::from_millis(ms),
            };
            self.on(ms, Event::Submit(job, block))
        }

        /// Job 100 opens batch 0 and holds the one rotate slot until the
        /// cell sends its rotation's `Done`.
        fn busy(&mut self) {
            let cmds = self.submit(0, 100, 1, false);
            assert_eq!(flushes(&cmds), [vec![100]]);
        }
    }

    fn flushes(cmds: &[Command]) -> Vec<Vec<u64>> {
        let ids = |waits: &Vec<(u64, Duration)>| waits.iter().map(|w| w.0).collect();
        let flush = |c: &Command| match c {
            Command::Flush { waits, .. } => Some(ids(waits)),
            _ => None,
        };
        cmds.iter().filter_map(flush).collect()
    }

    fn runs(cmds: &[Command]) -> Vec<(usize, u64)> {
        let run = |c: &Command| match *c {
            Command::Run(s, b) => Some((s, b)),
            _ => None,
        };
        cmds.iter().filter_map(run).collect()
    }

    fn settles(cmds: &[Command]) -> Vec<(u64, bool)> {
        let settle = |c: &Command| match c {
            Command::Settle(id, result) => Some((*id, result.is_ok())),
            _ => None,
        };
        cmds.iter().filter_map(settle).collect()
    }

    #[test]
    fn flushes_on_size() {
        let mut c = cell(6, 10_000 * MS, PipelineConfig::default());
        c.busy();
        for id in 1..3 {
            assert!(flushes(&c.submit(0, id, 2, false)).is_empty());
        }
        // 2 + 2 + 2 = 6 reaches the cap while rotation is busy.
        assert_eq!(flushes(&c.submit(0, 3, 2, false)), [vec![1, 2, 3]]);
        assert!(flushes(&c.submit(0, 4, 2, false)).is_empty());
    }

    #[test]
    fn idle_rotation_flushes_a_lone_job_at_once() {
        let mut c = cell(3, 10_000 * MS, PipelineConfig::default());
        let cmds = c.submit(0, 0, 1, false);
        assert_eq!(cmds[0], Command::Accepted);
        assert_eq!(
            flushes(&cmds),
            [vec![0]],
            "short of the cap, nothing to wait for"
        );
        assert_eq!(runs(&cmds), [(PREP, 0)]);
    }

    #[test]
    fn a_rotation_ending_flushes_the_batch_with_its_co_travellers() {
        let mut c = cell(1000, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(50, 1, 1, false);
        c.submit(60, 2, 1, false);
        assert_eq!(runs(&c.on(70, Event::Done(PREP, 0, Ok(())))), [(ROTATE, 0)]);
        assert_eq!(c.m.wake_at(), Some(c.t0 + 10_050 * MS));
        let cmds = c.on(100, Event::Done(ROTATE, 0, Ok(())));
        assert_eq!(
            flushes(&cmds),
            [vec![1, 2]],
            "flushed at the wake, not the deadline"
        );
        assert!(cmds.contains(&Command::Run(FINISH, 0)));
    }

    #[test]
    fn busy_throughout_waits_for_max_delay() {
        let mut c = cell(1000, 10 * MS, PipelineConfig::default());
        c.busy();
        c.submit(0, 1, 1, false);
        assert_eq!(c.m.wake_at(), Some(c.t0 + 10 * MS));
        assert!(flushes(&c.on(9, Event::Wake)).is_empty());
        assert_eq!(flushes(&c.on(10, Event::Wake)), [vec![1]]);
        assert_eq!(c.m.wake_at(), None);
    }

    /// The deadline anchors at the opener's submission: a job that already
    /// waited out `max_delay` before its batch opened flushes at once.
    #[test]
    fn delay_clock_anchors_to_first_job_enqueue_not_batch_open() {
        let mut c = cell(1000, 200 * MS, PipelineConfig::default());
        c.busy();
        let job = Job {
            id: 1,
            tenant: TenantId::default(),
            priority: Priority::Normal,
            cost: 1,
            submitted: c.t0,
        };
        let cmds = c.on(250, Event::Submit(job, true));
        assert_eq!(flushes(&cmds), [vec![1]]);
    }

    #[test]
    fn oversized_job_flushes_alone() {
        let mut c = cell(8, 10_000 * MS, PipelineConfig::default());
        c.busy();
        assert_eq!(flushes(&c.submit(0, 1, 999, false)), [vec![1]]);
        assert!(flushes(&c.submit(0, 2, 1, false)).is_empty());
    }

    /// Peek-based admission: the cap-sized follower stays queued and opens
    /// (and fills) the next batch.
    #[test]
    fn large_follower_never_overshoots_the_cap() {
        let mut c = cell(8, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(0, 1, 1, false);
        assert_eq!(flushes(&c.submit(0, 2, 8, false)), [vec![1], vec![2]]);
    }

    #[test]
    fn exact_fit_follower_is_admitted() {
        let mut c = cell(8, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(0, 1, 3, false);
        assert_eq!(flushes(&c.submit(0, 2, 5, false)), [vec![1, 2]]);
    }

    #[test]
    fn flush_reports_waits_linger_and_size() {
        let mut c = cell(4, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(2, 1, 2, false);
        let cmds = c.submit(5, 2, 2, false);
        let flush = cmds.iter().find(|c| matches!(c, Command::Flush { .. }));
        let expect = Command::Flush {
            batch: 1,
            waits: vec![(1, Duration::ZERO), (2, Duration::ZERO)],
            lwes: 4,
            linger: 3 * MS,
        };
        assert_eq!(flush, Some(&expect));
    }

    /// A job's queue wait is submit → the forming batch taking it: the
    /// batch's linger after that is its `linger`, not the job's wait. Job 1
    /// opens a batch that lingers to its deadline and job 2 joins it on
    /// arrival, so neither waited in the queue; job 4, held in the queue
    /// while the flushed batch 2 waits for room in the prep buffer, waited
    /// until a batch opened on it.
    #[test]
    fn queue_wait_ends_when_the_batch_takes_the_job() {
        let waits = |cmds: Vec<Command>| {
            cmds.into_iter().find_map(|c| match c {
                Command::Flush { waits, linger, .. } => Some((waits, linger)),
                _ => None,
            })
        };
        let mut c = cell(3, 10 * MS, PipelineConfig::default());
        c.busy();
        c.submit(2, 1, 1, false);
        c.submit(5, 2, 1, false);
        let lingered = (vec![(1, Duration::ZERO), (2, Duration::ZERO)], 10 * MS);
        assert_eq!(waits(c.on(12, Event::Wake)), Some(lingered));

        let mut c = narrow();
        for id in 1..=4 {
            c.submit(id - 1, id, 1, false);
        }
        let queued = (vec![(4, 4 * MS)], Duration::ZERO);
        assert_eq!(waits(c.on(7, Event::Done(PREP, 0, Ok(())))), Some(queued));
    }

    /// A closed machine flushes what is forming, refuses new jobs and
    /// drains every accepted one before it reports drained.
    #[test]
    fn close_flushes_the_forming_batch_and_drains() {
        let mut c = cell(100, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(0, 1, 1, false);
        c.submit(0, 2, 1, false);
        assert_eq!(flushes(&c.on(1, Event::Close)), [vec![1, 2]]);
        assert_eq!(
            c.submit(2, 3, 1, true),
            [Command::Refused(RuntimeError::Shutdown)]
        );
        let mut settled = Vec::new();
        for b in 0..2 {
            assert!(!c.m.drained());
            c.on(3, Event::Done(PREP, b, Ok(())));
            c.on(4, Event::Done(ROTATE, b, Ok(())));
            for id in [[100, 0], [1, 2]][b as usize] {
                settled.extend(settles(&c.on(5, Event::Output(b, id))));
            }
            c.on(6, Event::Done(FINISH, b, Ok(())));
        }
        assert_eq!(settled, [(100, true), (1, true), (2, true)]);
        assert!(c.m.drained());
        assert_eq!(c.m.gauges(), PipelineCounts::default());
    }

    /// One worker and one buffered batch per stage: a finished body keeps
    /// its worker until the next buffer has room, the flushed batch waits
    /// for the prep buffer, and the queue behind it fills.
    #[test]
    fn stages_hold_their_buffer_and_worker_bounds() {
        let mut c = narrow();
        for id in 0..4 {
            assert_eq!(c.submit(0, id, 1, true)[0], Command::Accepted, "job {id}");
        }
        assert_eq!(c.m.stages[PREP].inbox, [1]);
        assert_eq!(
            c.m.flushed,
            Some(2),
            "the batcher waits for the prep buffer"
        );
        assert_eq!(c.submit(0, 4, 1, true), [Command::Parked]);
        assert_eq!(
            c.submit(0, 4, 1, false),
            [Command::Refused(RuntimeError::QueueFull)]
        );
        let cmds = c.on(1, Event::Done(PREP, 0, Ok(())));
        assert_eq!(runs(&cmds), [(ROTATE, 0), (PREP, 1)]);
        assert_eq!(flushes(&cmds), [vec![3]]);
        assert_eq!(c.m.stages[PREP].inbox, [2]);
        // Prep finishes batch 1 with the rotate buffer empty: it moves on.
        assert!(runs(&c.on(2, Event::Done(PREP, 1, Ok(())))).contains(&(PREP, 2)));
        assert_eq!(c.m.stages[ROTATE].inbox, [1]);
        // Batch 2 is done too, but rotate's buffer is full: it keeps its
        // prep worker, so batch 3 waits in the buffer.
        assert!(runs(&c.on(3, Event::Done(PREP, 2, Ok(())))).is_empty());
        assert_eq!(
            (c.m.stages[PREP].busy, &c.m.stages[PREP].done),
            (1, &[2].into())
        );
        assert_eq!(c.submit(3, 4, 1, true)[0], Command::Accepted);
    }

    /// Admission and booking are one transition, evaluated again on each
    /// retry: a submitter parked on a full queue is judged against the
    /// backlog it finally joins.
    #[test]
    fn admission_is_booked_with_the_job_and_judged_on_every_retry() {
        let mut c = narrow();
        c.m.slo = Some(5 * MS);
        c.m.pin_rate(1_000_000);
        for id in 0..4 {
            assert_eq!(c.submit(0, id, 1, true)[0], Command::Accepted);
        }
        // Backlog 4 + 1 fits the 5 ms SLO, but the queue is full.
        assert_eq!(c.submit(0, 4, 1, true), [Command::Parked]);
        assert_eq!(c.submit(0, 5, 1, true), [Command::Parked]);
        c.on(1, Event::Done(PREP, 0, Ok(())));
        assert_eq!(c.submit(1, 4, 1, true)[0], Command::Accepted);
        let retry = c.submit(1, 5, 1, true);
        let retry_after = MS;
        let refused = Command::Refused(RuntimeError::Rejected { retry_after });
        assert_eq!(retry.last(), Some(&refused), "6 ms projected: {retry:?}");
        assert!(matches!(&retry[0], Command::Log("admission_rejected", _)));
        let counts = c.m.gauges();
        assert_eq!((counts.inflight_jobs, counts.inflight_lwes), (5, 5));
    }

    /// A body that dies after one job of its batch was settled settles
    /// only the rest, each once, and the in-flight counts return to zero.
    #[test]
    fn a_failing_stage_settles_only_its_unsettled_jobs() {
        let mut c = cell(10, 10_000 * MS, PipelineConfig::default());
        c.busy();
        c.submit(0, 1, 3, false);
        c.submit(0, 2, 3, false);
        c.on(1, Event::Done(PREP, 0, Ok(())));
        assert_eq!(settles(&c.on(2, Event::Done(ROTATE, 0, Ok(())))), []);
        assert_eq!(settles(&c.on(2, Event::Output(0, 100))), [(100, true)]);
        c.on(2, Event::Done(FINISH, 0, Ok(())));
        c.on(3, Event::Done(PREP, 1, Ok(())));
        c.on(4, Event::Done(ROTATE, 1, Ok(())));
        assert_eq!(settles(&c.on(5, Event::Output(1, 1))), [(1, true)]);
        let panicked = RuntimeError::AllNodesFailed("pipeline stage panicked".into());
        let cmds = c.on(6, Event::Done(FINISH, 1, Err(panicked.clone())));
        assert_eq!(cmds, [Command::Settle(2, Err(panicked))]);
        // A rotation that fails settles its batch and frees its slot.
        c.submit(7, 3, 1, false);
        let failed = RuntimeError::AllNodesFailed("no dispatchable nodes".into());
        c.on(8, Event::Done(PREP, 2, Ok(())));
        let cmds = c.on(9, Event::Done(ROTATE, 2, Err(failed.clone())));
        assert_eq!(cmds, [Command::Settle(3, Err(failed))]);
        assert_eq!(c.m.gauges(), PipelineCounts::default());
    }

    /// The SLO's unit rate is the EWMA of each rotation's time per LWE,
    /// from its start to its end; a failed rotation measures nothing.
    #[test]
    fn rotation_rate_is_the_ewma_of_measured_rotations() {
        let mut c = cell(4, 10_000 * MS, PipelineConfig::default());
        c.submit(0, 0, 4, false);
        c.on(10, Event::Done(PREP, 0, Ok(())));
        c.on(30, Event::Done(ROTATE, 0, Ok(())));
        assert_eq!(c.m.ns_per_lwe, 5_000_000);
        c.submit(31, 1, 4, false);
        c.on(31, Event::Done(PREP, 1, Ok(())));
        c.on(71, Event::Done(ROTATE, 1, Ok(())));
        assert_eq!(c.m.ns_per_lwe, (3 * 5_000_000 + 10_000_000) / 4);
        c.submit(72, 2, 4, false);
        c.on(72, Event::Done(PREP, 2, Ok(())));
        let e = RuntimeError::AllNodesFailed("down".into());
        c.on(90, Event::Done(ROTATE, 2, Err(e)));
        assert_eq!(c.m.ns_per_lwe, 6_250_000);
    }

    // The whole primary on one virtual clock: clients' `SubmitReq`s enter
    // through `SessionDoor`s, the machine above batches and stages them,
    // each rotation runs as a `BatchMachine` over `policy::tests`' fleet of
    // `NodeDoor` pipes, prep and finish take their drawn service times, and
    // every command is checked against what the simulator itself knows. A
    // failing seed prints its spec; `primary_scenario(seed)` replays it.

    use crate::conn::tests::{accs_for, lwes, ACC_Q, SHAPE};
    use crate::conn::{Out, SessionDoor};
    use crate::policy::tests::{fleet_nodes, Fleet, FleetSpec};
    use crate::proto::{decode_job_done, Frame, FrameKind, JobKind, SubmitReq};
    use crate::queue::FairnessPolicy;
    use heap_tfhe::{lwe_batch_to_wire, rlwe_batch_to_wire, LweCiphertext, RlweCiphertext};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// One client job: when, on which session, its rotations, its tenant
    /// and priority, and whether its submitter blocks on a full queue.
    #[derive(Debug, Clone)]
    struct JobSpec {
        ms: u64,
        session: usize,
        lwes: usize,
        tenant: u64,
        priority: Priority,
        block: bool,
    }

    #[derive(Debug)]
    struct PrimarySpec {
        fleet: FleetSpec,
        config: RuntimeConfig,
        sessions: usize,
        jobs: Vec<JobSpec>,
        /// Prep and finish time per LWE, in ms.
        stage_ms: [u64; 2],
        /// The `.1`-th run of stage `.0` panics.
        panic: Option<(usize, usize)>,
        /// When the service shuts down (at the end if `None`).
        shutdown: Option<u64>,
    }

    impl PrimarySpec {
        fn draw(seed: u64) -> Self {
            let mut fleet = FleetSpec::draw(seed);
            fleet.batches.clear();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
            let sessions = rng.gen_range(1..=3);
            let job = (0u64..80, 1usize..=4, 0u64..3, 0usize..3);
            let jobs = prop::collection::vec(job, 1..9).generate(&mut rng);
            let jobs = jobs
                .into_iter()
                .map(|(ms, lwes, tenant, p)| JobSpec {
                    ms,
                    session: rng.gen_range(0..sessions),
                    lwes,
                    tenant,
                    priority: [Priority::Low, Priority::Normal, Priority::High][p],
                    block: rng.gen_bool(0.8),
                })
                .collect();
            let config = RuntimeConfig {
                queue_capacity: rng.gen_range(1..=4),
                batch: BatchPolicy {
                    max_lwes: rng.gen_range(1..=8),
                    max_delay: MS * rng.gen_range(0..20),
                },
                pipeline: PipelineConfig {
                    prep_workers: rng.gen_range(1..=2),
                    rotate_workers: rng.gen_range(1..=2),
                    finish_workers: rng.gen_range(1..=2),
                    channel_capacity: rng.gen_range(1..=2),
                },
                fairness: FairnessPolicy {
                    quantum_lwes: rng.gen_range(1..=4),
                    weights: vec![(TenantId(1), 2)],
                },
                admission: rng.gen_bool(0.3).then(|| SloPolicy {
                    slo: MS * rng.gen_range(5..100),
                }),
                ..RuntimeConfig::default()
            };
            Self {
                fleet,
                config,
                sessions,
                jobs,
                stage_ms: [rng.gen_range(0..3), rng.gen_range(0..3)],
                panic: rng
                    .gen_bool(0.1)
                    .then(|| (rng.gen_range(0..3), rng.gen_range(0..3))),
                shutdown: rng.gen_bool(0.2).then(|| rng.gen_range(0..100)),
            }
        }
    }

    enum PEv {
        Submit(usize),
        Machine(Event),
        Wake,
    }

    /// What became of one client job.
    #[derive(Debug, Clone, PartialEq)]
    enum Fate {
        Unsent,
        Parked,
        Refused(RuntimeError),
        Accepted,
        Done(Result<Vec<u8>, RuntimeError>),
    }

    /// A flushed batch as the simulator tracks it.
    struct SimWork {
        jobs: Vec<u64>,
        lwes: Vec<LweCiphertext>,
        rotated: Vec<RlweCiphertext>,
        /// The fleet's index for its rotation, and when that started.
        rotation: Option<(usize, Duration)>,
        failed: Option<RuntimeError>,
        rotating: bool,
    }

    struct Primary<'a> {
        spec: &'a PrimarySpec,
        seed: u64,
        t0: Instant,
        m: Pipeline,
        fleet: Fleet<'a>,
        doors: Vec<SessionDoor>,
        queue: BTreeMap<(Duration, u64), PEv>,
        seq: u64,
        armed: Option<Instant>,
        lwes: Vec<Vec<LweCiphertext>>,
        fates: Vec<Fate>,
        parked: Vec<usize>,
        /// When each job was first seen in the forming batch.
        taken: HashMap<u64, Duration>,
        batches: HashMap<u64, SimWork>,
        /// Bodies running, and runs started, per stage.
        running: [usize; 3],
        started: [usize; 3],
        /// The simulator's own count of rotate slots held, backlog, rate.
        rotating: usize,
        backlog: u64,
        ns_per_lwe: u64,
        now: Duration,
        /// Flushes, and flushes with more than one job.
        flushes: (usize, usize),
    }

    fn panicked() -> RuntimeError {
        RuntimeError::AllNodesFailed("pipeline stage panicked".into())
    }

    impl<'a> Primary<'a> {
        fn why(&self) -> String {
            format!(
                "primary_scenario({}) at {:?}: {:?}",
                self.seed, self.now, self.spec
            )
        }

        fn at(&mut self, when: Duration, ev: PEv) {
            self.seq += 1;
            self.queue.insert((when, self.seq), ev);
        }

        fn job(&self, id: usize) -> Job {
            let j = &self.spec.jobs[id];
            Job {
                id: id as u64,
                tenant: TenantId(j.tenant),
                priority: j.priority,
                cost: j.lwes,
                submitted: self.t0 + MS * j.ms as u32,
            }
        }

        /// A client sends job `id` through its session's door.
        fn send(&mut self, id: usize) {
            let j = &self.spec.jobs[id];
            let body = lwe_batch_to_wire(&self.lwes[id]);
            let req = SubmitReq {
                tag: id as u64,
                tenant: j.tenant,
                priority: Some(j.priority),
                kind: Some(JobKind::BlindRotate),
                body: &body,
            };
            let frame = Frame {
                kind: FrameKind::SubmitReq,
                payload: req.encode(),
            };
            let outs = self.doors[j.session].on_frame(&frame);
            let why = self.why();
            match outs.as_slice() {
                [Out::Submit(req)] => assert_eq!(req.body, &body[..], "{why}"),
                other => panic!("{why}: the door answered {} outputs", other.len()),
            }
            self.submit(id);
        }

        /// The executor's submit: one transition, parked or answered.
        fn submit(&mut self, id: usize) {
            let (job, block) = (self.job(id), self.spec.jobs[id].block);
            let seen = |m: &Pipeline| (m.gauges(), m.wake_at(), m.drained());
            let before = seen(&self.m);
            let cmds = self.feed(Event::Submit(job, block));
            // The executor wakes no waiter for a lone `Parked`.
            if cmds == [Command::Parked] {
                assert_eq!(seen(&self.m), before, "{}: a lone Parked moved", self.why());
            }
            let fate = match cmds
                .iter()
                .find(|c| matches!(c, Command::Accepted | Command::Parked | Command::Refused(_)))
            {
                Some(Command::Accepted) => Fate::Accepted,
                Some(Command::Parked) => Fate::Parked,
                Some(Command::Refused(e)) => Fate::Refused(e.clone()),
                other => panic!("{}: no verdict: {other:?}", self.why()),
            };
            if let Fate::Refused(e) = &fate {
                let session = self.spec.jobs[id].session;
                let outs = self.doors[session].refused(id as u64, e);
                assert!(
                    matches!(outs[0], Out::Frame(FrameKind::SubmitAck, _)),
                    "{}",
                    self.why()
                );
            }
            if fate == Fate::Parked && !self.parked.contains(&id) {
                self.parked.push(id);
            }
            self.fates[id] = fate;
        }

        /// One transition, every command checked and carried out.
        fn feed(&mut self, event: Event) -> Vec<Command> {
            let why = self.why();
            let now = self.t0 + self.now;
            let backlog = self.backlog;
            let booking = match &event {
                Event::Submit(job, _) => Some(job.cost as u64),
                _ => None,
            };
            let cmds = self.m.on(now, event);
            for cmd in &cmds {
                match cmd {
                    Command::Accepted => {
                        let cost = booking.expect("a submit");
                        if let Some(slo) = self.spec.config.admission.map(|a| a.slo) {
                            let over = policy::slo_overrun(slo, backlog + cost, self.ns_per_lwe);
                            assert!(over.is_none(), "{why}: booked past the SLO: {over:?}");
                        }
                        self.backlog += cost;
                    }
                    Command::Flush {
                        batch,
                        waits,
                        lwes,
                        linger,
                    } => self.flushed(*batch, waits, *lwes, *linger),
                    Command::Run(stage, b) => self.run(*stage, *b),
                    Command::Settle(id, result) => self.settled(*id, result.clone()),
                    Command::Parked | Command::Refused(_) | Command::Log(..) => {}
                }
            }
            for (job, _) in self.m.forming.iter().flat_map(|f| &f.jobs) {
                self.taken.entry(job.id).or_insert(self.now);
            }
            self.check();
            cmds
        }

        fn flushed(&mut self, b: u64, waits: &[(u64, Duration)], lwes: usize, linger: Duration) {
            let why = self.why();
            let policy = self.spec.config.batch;
            let ids: Vec<u64> = waits.iter().map(|w| w.0).collect();
            let mega: Vec<_> = ids
                .iter()
                .flat_map(|&id| self.lwes[id as usize].clone())
                .collect();
            assert_eq!(mega.len(), lwes, "{why}");
            assert!(
                lwes <= policy.max_lwes || ids.len() == 1,
                "{why}: overshoot"
            );
            // Flushed at once on opening, or by its opener's deadline.
            let opener = self.job(ids[0] as usize).submitted;
            let now = self.t0 + self.now;
            assert!(
                linger.is_zero() || now <= opener + policy.max_delay,
                "{why}: lingered"
            );
            // A job's queue wait ends when the forming batch takes it: at an
            // earlier transition, or at this one.
            for &(id, wait) in waits {
                let taken = self.taken.remove(&id).unwrap_or(self.now);
                assert_eq!(
                    wait,
                    self.t0 + taken - self.job(id as usize).submitted,
                    "{why}"
                );
            }
            self.flushes.0 += 1;
            self.flushes.1 += usize::from(ids.len() > 1);
            self.rotating += 1;
            let work = SimWork {
                jobs: ids,
                lwes: mega,
                rotated: Vec::new(),
                rotation: None,
                failed: None,
                rotating: true,
            };
            self.batches.insert(b, work);
        }

        /// A stage starts a batch: its body's outcome is scheduled.
        fn run(&mut self, stage: usize, b: u64) {
            let why = self.why();
            self.running[stage] += 1;
            let workers = self.m.workers[stage];
            assert!(
                self.running[stage] <= workers,
                "{why}: stage {stage} over its workers"
            );
            let nth = self.started[stage];
            self.started[stage] += 1;
            let dies = self.spec.panic == Some((stage, nth));
            let work = &self.batches[&b];
            let per_lwe = |ms: u64| MS * ms as u32;
            match stage {
                PREP => {
                    let took = per_lwe(self.spec.stage_ms[0]) * work.lwes.len() as u32;
                    let result = if dies { Err(panicked()) } else { Ok(()) };
                    self.at(self.now + took, PEv::Machine(Event::Done(PREP, b, result)));
                }
                ROTATE if dies => {
                    let done = Event::Done(ROTATE, b, Err(panicked()));
                    self.at(self.now + MS, PEv::Machine(done));
                }
                ROTATE => {
                    let lwes = work.lwes.clone();
                    let fb = self.fleet.arrive(self.now, lwes);
                    self.batches.get_mut(&b).expect("flushed").rotation = Some((fb, self.now));
                    self.rotated(b);
                }
                _ => {
                    // Each job's output when it is ready; a dying body
                    // dies before the second half of its jobs.
                    let jobs = work.jobs.clone();
                    let cut = if dies { jobs.len() / 2 } else { jobs.len() };
                    let mut t = self.now;
                    for &id in &jobs[..cut] {
                        t += per_lwe(self.spec.stage_ms[1]) * self.lwes[id as usize].len() as u32;
                        self.at(t, PEv::Machine(Event::Output(b, id)));
                    }
                    let result = if dies { Err(panicked()) } else { Ok(()) };
                    self.at(t, PEv::Machine(Event::Done(FINISH, b, result)));
                }
            }
        }

        /// If batch `b`'s rotation has settled in the fleet, its `Done`.
        fn rotated(&mut self, b: u64) {
            let work = &self.batches[&b];
            let Some((fb, started)) = work.rotation else {
                return;
            };
            let Some((at, result, _)) = self.fleet.outcome(fb) else {
                return;
            };
            let result = match result {
                Ok(shards) => {
                    let rotated = shards.iter().flatten().cloned().collect();
                    let lwes = work.lwes.len() as u64;
                    let sample = (*at - started).as_nanos() as u64 / lwes;
                    self.ns_per_lwe = policy::ewma_fold(self.ns_per_lwe, sample).max(1);
                    self.batches.get_mut(&b).expect("flushed").rotated = rotated;
                    Ok(())
                }
                Err(why) => Err(RuntimeError::AllNodesFailed(why.clone())),
            };
            self.batches.get_mut(&b).expect("flushed").rotation = None;
            self.at(self.now, PEv::Machine(Event::Done(ROTATE, b, result)));
        }

        fn settled(&mut self, id: u64, result: Result<(), RuntimeError>) {
            let why = self.why();
            assert_eq!(
                self.fates[id as usize],
                Fate::Accepted,
                "{why}: job {id} settled twice"
            );
            let (b, work) = (self.batches.iter())
                .find(|(_, w)| w.jobs.contains(&id))
                .expect("a settled job is in a batch");
            let body;
            let outcome = match &result {
                Ok(()) => {
                    let start: usize = (work.jobs.iter())
                        .take_while(|&&j| j != id)
                        .map(|&j| self.lwes[j as usize].len())
                        .sum();
                    let accs = &work.rotated[start..start + self.lwes[id as usize].len()];
                    body = rlwe_batch_to_wire(accs, &[ACC_Q]);
                    Ok((JobKind::BlindRotate, body.as_slice()))
                }
                Err(e) => {
                    assert_eq!(work.failed.as_ref(), Some(e), "{why}: batch {b}");
                    Err(e.clone())
                }
            };
            let session = self.spec.jobs[id as usize].session;
            let outs = self.doors[session].on_done(id, &outcome);
            let Some(Out::Frame(FrameKind::JobDone, payload)) = outs.first() else {
                panic!("{why}: no JobDone for {id}")
            };
            let (tag, done) = decode_job_done(payload).expect("a JobDone decodes");
            assert_eq!(tag, id, "{why}");
            let done = done.map(|(kind, body)| {
                assert_eq!(kind, JobKind::BlindRotate, "{why}");
                body.to_vec()
            });
            self.backlog -= self.lwes[id as usize].len() as u64;
            self.fates[id as usize] = Fate::Done(done);
        }

        /// The properties every transition keeps.
        fn check(&self) {
            let why = self.why();
            for s in [PREP, ROTATE, FINISH] {
                let inbox = self.m.stages[s].inbox.len();
                assert!(inbox <= self.m.capacity, "{why}: stage {s} buffers {inbox}");
            }
            if let Some(f) = &self.m.forming {
                let rotate_workers = self.m.workers[ROTATE];
                assert!(
                    self.rotating >= rotate_workers,
                    "{why}: lingers beside a free rotate slot"
                );
                let deadline =
                    self.job(f.jobs[0].0.id as usize).submitted + self.spec.config.batch.max_delay;
                assert!(
                    self.t0 + self.now < deadline,
                    "{why}: lingers past its deadline"
                );
                assert!(
                    f.cost < self.spec.config.batch.max_lwes,
                    "{why}: a full batch lingers"
                );
            }
        }

        /// After each transition: parked submitters try again, in order,
        /// until none moves; and the machine's wake is armed.
        fn after(&mut self) {
            loop {
                let parked = std::mem::take(&mut self.parked);
                let mut moved = false;
                for id in parked {
                    self.submit(id);
                    moved |= self.fates[id] != Fate::Parked;
                }
                if !moved {
                    break;
                }
            }
            let wake = self.m.wake_at();
            if let Some(at) = wake.filter(|_| wake != self.armed) {
                self.at(at - self.t0, PEv::Wake);
            }
            self.armed = wake;
        }

        fn handle(&mut self, ev: PEv) {
            match ev {
                PEv::Submit(id) => self.send(id),
                PEv::Wake if self.m.wake_at() == Some(self.t0 + self.now) => {
                    self.feed(Event::Wake);
                }
                PEv::Wake => {}
                PEv::Machine(event) => {
                    match &event {
                        Event::Done(stage, b, result) => {
                            let work = self.batches.get_mut(b).expect("flushed");
                            self.running[*stage] -= 1;
                            if work.rotating && (*stage == ROTATE || result.is_err()) {
                                work.rotating = false;
                                self.rotating -= 1;
                            }
                            work.failed = result.clone().err();
                        }
                        Event::Close => {}
                        _ => {}
                    }
                    let done = match &event {
                        Event::Done(s, b, r) if *s == FINISH || r.is_err() => Some(*b),
                        _ => None,
                    };
                    self.feed(event);
                    if let Some(b) = done {
                        self.batches.remove(&b);
                    }
                }
            }
            self.after();
        }
    }

    /// How a scenario ended: jobs done well, failed, refused; flushes
    /// with co-travellers.
    #[derive(Debug, Default, Clone, Copy)]
    struct PrimaryOutcome {
        served: usize,
        failed: usize,
        refused: usize,
        coalesced: usize,
    }

    fn run_primary(seed: u64, spec: &PrimarySpec) -> PrimaryOutcome {
        let (shared, stubs) = fleet_nodes(&spec.fleet);
        let mut p = Primary {
            spec,
            seed,
            t0: Instant::now(),
            m: Pipeline::new(&spec.config),
            fleet: Fleet::new(&spec.fleet, &shared, &stubs),
            doors: (0..spec.sessions)
                .map(|_| SessionDoor::new(SHAPE))
                .collect(),
            queue: BTreeMap::new(),
            seq: 0,
            armed: None,
            lwes: (spec.jobs.iter().enumerate())
                .map(|(i, j)| lwes(j.lwes, seed.wrapping_mul(31).wrapping_add(i as u64)))
                .collect(),
            fates: vec![Fate::Unsent; spec.jobs.len()],
            parked: Vec::new(),
            taken: HashMap::new(),
            batches: HashMap::new(),
            running: [0; 3],
            started: [0; 3],
            rotating: 0,
            backlog: 0,
            ns_per_lwe: 0,
            now: Duration::ZERO,
            flushes: (0, 0),
        };
        for door in &mut p.doors {
            let hello = Frame {
                kind: FrameKind::Hello,
                payload: SHAPE.encode(),
            };
            assert!(matches!(
                door.on_frame(&hello)[..],
                [Out::Frame(FrameKind::HelloAck, _)]
            ));
        }
        for (id, job) in spec.jobs.iter().enumerate() {
            p.at(MS * job.ms as u32, PEv::Submit(id));
        }
        let close = spec.shutdown.unwrap_or(100);
        p.at(MS * close as u32, PEv::Machine(Event::Close));
        loop {
            let primary = p.queue.first_key_value().map(|(k, _)| k.0);
            let fleet = p.fleet.next_at();
            match (primary, fleet) {
                (None, None) => break,
                (Some(at), Some(f)) if f < at => {
                    p.now = f;
                    p.fleet.step();
                }
                (None, Some(f)) => {
                    p.now = f;
                    p.fleet.step();
                }
                _ => {
                    let ((at, _), ev) = p.queue.pop_first().expect("due");
                    p.now = at;
                    p.handle(ev);
                    continue;
                }
            }
            // A rotation the fleet settled reports to the machine.
            let rotating: Vec<u64> = (p.batches.iter())
                .filter(|(_, w)| w.rotation.is_some())
                .map(|(&b, _)| b)
                .collect();
            for b in rotating {
                p.rotated(b);
            }
        }
        let why = p.why();
        assert!(p.m.drained(), "{why}: never drained");
        assert_eq!(p.m.gauges(), PipelineCounts::default(), "{why}");
        assert_eq!((p.running, p.rotating, p.backlog), ([0; 3], 0, 0), "{why}");
        let mut o = PrimaryOutcome::default();
        for (id, fate) in p.fates.iter().enumerate() {
            match fate {
                Fate::Done(Ok(body)) => {
                    let want = rlwe_batch_to_wire(&accs_for(&p.lwes[id]), &[ACC_Q]);
                    assert_eq!(body, &want, "{why}: job {id}");
                    o.served += 1;
                }
                Fate::Done(Err(_)) => o.failed += 1,
                Fate::Refused(_) => o.refused += 1,
                other => panic!("{why}: job {id} ended {other:?}"),
            }
        }
        for door in &mut p.doors {
            assert!(
                matches!(door.on_eof()[..], [Out::Close(None)]),
                "{why}: owed JobDones"
            );
        }
        p.fleet.check();
        o.coalesced = p.flushes.1;
        o
    }

    fn primary_scenario(seed: u64) -> PrimaryOutcome {
        run_primary(seed, &PrimarySpec::draw(seed))
    }

    #[test]
    fn primary_scenarios_settle_every_accepted_job_once() {
        let start = Instant::now();
        let mut total = PrimaryOutcome::default();
        for seed in 0..10_000 {
            let o = primary_scenario(seed);
            total.served += o.served;
            total.failed += o.failed;
            total.refused += o.refused;
            total.coalesced += o.coalesced;
        }
        let took = start.elapsed();
        println!("10000 primary scenarios in {took:?}: {total:?}");
        assert!(
            total.failed > 10 && total.refused > 10 && total.coalesced > 10,
            "{total:?}"
        );
        assert!(took < Duration::from_secs(10), "{took:?}");
    }
}
