//! Bounded fair submission queue with backpressure.
//!
//! Producers ([`crate::BootstrapService::submit`]) block when the queue is
//! at capacity — heavy traffic slows clients down instead of growing an
//! unbounded backlog — or use the non-blocking `try_` path and handle
//! [`RuntimeError::QueueFull`] themselves. Consumers (the batcher thread)
//! pop through a *weighted deficit round-robin* over per-tenant
//! sub-queues: each tenant keeps its own priority heap (priority desc,
//! submission order within a class), and the DRR ring decides which
//! tenant's head drains next. Every visit tops a backlogged tenant's
//! deficit up by `quantum × weight` blind rotations and serves while the
//! deficit covers the head job's cost, so long-run service is
//! proportional to weight and a flooding tenant cannot starve the rest.
//! With a single tenant the ring degenerates to the old global priority
//! queue.
//!
//! The deadline-bounded pop (what the dynamic batcher's flush timer is
//! built from) still supports peek-based budget admission: an oversized
//! head stays queued and is reported as [`Popped::Oversized`].

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::job::{PendingJob, Priority, TenantId};
use crate::RuntimeError;

/// How the fair queue shares service between tenants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessPolicy {
    /// Deficit replenished per DRR visit, in blind rotations (scaled by
    /// the tenant's weight). Smaller quanta interleave tenants more
    /// finely; larger ones favor batch locality.
    pub quantum_lwes: usize,
    /// Per-tenant weights; tenants not listed get weight 1. A weight-2
    /// tenant drains twice the rotations of a weight-1 tenant under
    /// contention.
    pub weights: Vec<(TenantId, u32)>,
}

impl Default for FairnessPolicy {
    fn default() -> Self {
        Self {
            quantum_lwes: 64,
            weights: Vec::new(),
        }
    }
}

/// Heap entry: priority first, then FIFO within a priority class.
struct Entry {
    priority: Priority,
    seq: u64,
    job: PendingJob,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; among equals, *lower* seq wins.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// One tenant's backlog plus its DRR accounting.
struct TenantQueue {
    heap: BinaryHeap<Entry>,
    /// Rotations this tenant may drain before yielding the ring.
    deficit: u64,
    weight: u32,
}

struct Inner {
    tenants: HashMap<TenantId, TenantQueue>,
    /// DRR visit order over tenants with queued jobs.
    ring: VecDeque<TenantId>,
    total: usize,
    next_seq: u64,
    closed: bool,
}

/// Outcome of a deadline-bounded pop.
pub(crate) enum Popped {
    /// A job was available (or arrived) in time.
    Job(PendingJob),
    /// The DRR-selected head job costs more than the caller's remaining
    /// budget; it stays queued (peek-based admission). Skipping past it
    /// would violate both priority order and fairness, so the caller
    /// should flush and come back.
    Oversized,
    /// The deadline passed with the queue empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

/// What the DRR scan found, under the lock.
enum Head {
    Job(PendingJob),
    Oversized,
    Empty,
}

/// The bounded fair queue; see module docs.
pub(crate) struct SubmissionQueue {
    inner: Mutex<Inner>,
    /// Signals consumers: a job arrived or the queue closed.
    ready: Condvar,
    /// Signals producers: capacity freed up.
    space: Condvar,
    capacity: usize,
    quantum: u64,
    weights: HashMap<TenantId, u32>,
}

impl SubmissionQueue {
    /// Default fairness (tests; the service always passes its policy).
    #[cfg(test)]
    pub fn new(capacity: usize) -> Self {
        Self::with_fairness(capacity, &FairnessPolicy::default())
    }

    pub fn with_fairness(capacity: usize, fairness: &FairnessPolicy) -> Self {
        assert!(capacity >= 1, "queue needs capacity for at least one job");
        assert!(fairness.quantum_lwes >= 1, "quantum must be at least 1");
        Self {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                ring: VecDeque::new(),
                total: 0,
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
            quantum: fairness.quantum_lwes as u64,
            weights: fairness.weights.iter().copied().collect(),
        }
    }

    /// Queued (not yet dispatched) job count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").total
    }

    /// Tenants the queue currently holds state for.
    #[cfg(test)]
    fn tenant_entries(&self) -> usize {
        self.inner.lock().expect("queue poisoned").tenants.len()
    }

    /// Blocking submit: waits for capacity (backpressure).
    pub fn submit(&self, job: PendingJob) -> Result<(), RuntimeError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        while inner.total >= self.capacity && !inner.closed {
            inner = self.space.wait(inner).expect("queue poisoned");
        }
        self.push_locked(inner, job)
    }

    /// Non-blocking submit: fails fast when at capacity.
    pub fn try_submit(&self, job: PendingJob) -> Result<(), RuntimeError> {
        let inner = self.inner.lock().expect("queue poisoned");
        if !inner.closed && inner.total >= self.capacity {
            return Err(RuntimeError::QueueFull);
        }
        self.push_locked(inner, job)
    }

    fn push_locked(
        &self,
        mut inner: std::sync::MutexGuard<'_, Inner>,
        job: PendingJob,
    ) -> Result<(), RuntimeError> {
        if inner.closed {
            return Err(RuntimeError::Shutdown);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let tenant = job.tenant;
        let weight = self.weights.get(&tenant).copied().unwrap_or(1).max(1);
        let tq = inner.tenants.entry(tenant).or_insert_with(|| TenantQueue {
            heap: BinaryHeap::new(),
            deficit: 0,
            weight,
        });
        let was_idle = tq.heap.is_empty();
        tq.heap.push(Entry {
            priority: job.priority,
            seq,
            job,
        });
        if was_idle {
            inner.ring.push_back(tenant);
        }
        inner.total += 1;
        self.ready.notify_one();
        Ok(())
    }

    /// One weighted-DRR scan: finds the next tenant whose deficit covers
    /// its head job and pops it, topping deficits up ring-visit by
    /// ring-visit. A lone backlogged tenant is served immediately (there
    /// is nobody to be fair against).
    fn take_locked(&self, inner: &mut Inner, budget: usize) -> Head {
        loop {
            let Some(&tenant) = inner.ring.front() else {
                return Head::Empty;
            };
            let tq = inner.tenants.get_mut(&tenant).expect("ring tenant exists");
            let Some(head) = tq.heap.peek() else {
                inner.ring.pop_front();
                continue;
            };
            let cost = head.job.cost as u64;
            if tq.deficit < cost {
                if inner.ring.len() == 1 {
                    tq.deficit = cost;
                } else {
                    tq.deficit += self.quantum * u64::from(tq.weight);
                    inner.ring.rotate_left(1);
                }
                continue;
            }
            if head.job.cost > budget {
                return Head::Oversized;
            }
            let e = tq.heap.pop().expect("peeked entry vanished");
            tq.deficit -= cost;
            if tq.heap.is_empty() {
                // Standard DRR: an idling tenant forfeits its deficit, so
                // it cannot bank service while absent — and with nothing
                // left to remember, its entry goes too: tenant ids arrive
                // off the wire, and a map that only grows is one retained
                // heap per id a peer ever sent.
                inner.tenants.remove(&tenant);
                inner.ring.pop_front();
            }
            inner.total -= 1;
            self.space.notify_one();
            return Head::Job(e.job);
        }
    }

    /// Blocks until a job is available; `None` once closed and drained.
    pub fn pop_wait(&self) -> Option<PendingJob> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            match self.take_locked(&mut inner, usize::MAX) {
                Head::Job(job) => return Some(job),
                Head::Oversized => unreachable!("unbounded budget"),
                Head::Empty => {}
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Pops the next fair-queue job, waiting at most until `deadline`,
    /// but only if its cost fits within `budget` — an oversized head is
    /// *peeked*, left queued, and reported as [`Popped::Oversized`]. This
    /// is how the batcher respects its size cap without ever dequeuing a
    /// job it cannot admit.
    pub fn pop_deadline_within(&self, deadline: Instant, budget: usize) -> Popped {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            match self.take_locked(&mut inner, budget) {
                Head::Job(job) => return Popped::Job(job),
                Head::Oversized => return Popped::Oversized,
                Head::Empty => {}
            }
            if inner.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::TimedOut;
            }
            let (guard, timeout) = self
                .ready
                .wait_timeout(inner, deadline - now)
                .expect("queue poisoned");
            inner = guard;
            if timeout.timed_out() && inner.total == 0 {
                return if inner.closed {
                    Popped::Closed
                } else {
                    Popped::TimedOut
                };
            }
        }
    }

    /// Closes the queue: submits fail, consumers drain what remains.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobRequest, JobState};
    use std::sync::Arc;
    use std::time::Duration;

    fn job(id: u64, priority: Priority) -> PendingJob {
        job_for(id, priority, TenantId::default(), 1)
    }

    fn job_for(id: u64, priority: Priority, tenant: TenantId, cost: usize) -> PendingJob {
        PendingJob {
            id: JobId(id),
            priority,
            tenant,
            request: JobRequest::BlindRotate { lwes: vec![] },
            cost,
            state: JobState::new(),
        }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = SubmissionQueue::new(8);
        q.submit(job(0, Priority::Low)).unwrap();
        q.submit(job(1, Priority::Normal)).unwrap();
        q.submit(job(2, Priority::High)).unwrap();
        q.submit(job(3, Priority::Normal)).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop_wait().unwrap().id.0).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn try_submit_reports_backpressure() {
        let q = SubmissionQueue::new(2);
        q.try_submit(job(0, Priority::Normal)).unwrap();
        q.try_submit(job(1, Priority::Normal)).unwrap();
        assert!(matches!(
            q.try_submit(job(2, Priority::Normal)),
            Err(RuntimeError::QueueFull)
        ));
        q.pop_wait().unwrap();
        q.try_submit(job(2, Priority::Normal)).unwrap();
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let q = Arc::new(SubmissionQueue::new(1));
        q.submit(job(0, Priority::Normal)).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.submit(job(1, Priority::Normal)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_wait().unwrap().id.0, 0);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_wait().unwrap().id.0, 1);
    }

    #[test]
    fn deadline_pop_times_out_then_delivers() {
        let q = SubmissionQueue::new(4);
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(matches!(
            q.pop_deadline_within(deadline, usize::MAX),
            Popped::TimedOut
        ));
        q.submit(job(5, Priority::Normal)).unwrap();
        match q.pop_deadline_within(Instant::now() + Duration::from_secs(5), usize::MAX) {
            Popped::Job(j) => assert_eq!(j.id.0, 5),
            _ => panic!("expected job"),
        }
    }

    #[test]
    fn budgeted_pop_leaves_oversized_head_queued() {
        let q = SubmissionQueue::new(4);
        let mut big = job(0, Priority::Normal);
        big.cost = 10;
        q.submit(big).unwrap();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(matches!(
            q.pop_deadline_within(deadline, 9),
            Popped::Oversized
        ));
        assert_eq!(q.len(), 1, "oversized head must stay queued");
        match q.pop_deadline_within(Instant::now() + Duration::from_millis(5), 10) {
            Popped::Job(j) => assert_eq!(j.id.0, 0),
            _ => panic!("expected the job once the budget fits"),
        }
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = SubmissionQueue::new(4);
        q.submit(job(0, Priority::Normal)).unwrap();
        q.close();
        assert!(matches!(
            q.submit(job(1, Priority::Normal)),
            Err(RuntimeError::Shutdown)
        ));
        assert!(q.pop_wait().is_some());
        assert!(q.pop_wait().is_none());
        assert!(matches!(
            q.pop_deadline_within(Instant::now() + Duration::from_millis(5), usize::MAX),
            Popped::Closed
        ));
    }

    #[test]
    fn drr_interleaves_backlogged_tenants() {
        // Two equal-weight tenants, each flooding: drains must alternate
        // in quantum-sized runs rather than FIFO by submission order.
        let q = SubmissionQueue::with_fairness(
            64,
            &FairnessPolicy {
                quantum_lwes: 1,
                weights: Vec::new(),
            },
        );
        let (a, b) = (TenantId(1), TenantId(2));
        for i in 0..6 {
            q.submit(job_for(i, Priority::Normal, a, 1)).unwrap();
        }
        for i in 6..12 {
            q.submit(job_for(i, Priority::Normal, b, 1)).unwrap();
        }
        let tenants: Vec<u64> = (0..12).map(|_| q.pop_wait().unwrap().tenant.0).collect();
        // First four pops must cover both tenants (no 6-deep head start
        // for the earlier submitter).
        assert!(
            tenants[..4].contains(&1) && tenants[..4].contains(&2),
            "{tenants:?}"
        );
        assert_eq!(tenants.iter().filter(|&&t| t == 1).count(), 6);
        assert_eq!(tenants.iter().filter(|&&t| t == 2).count(), 6);
    }

    #[test]
    fn drr_respects_weights_two_to_one() {
        let (a, b) = (TenantId(1), TenantId(2));
        let q = SubmissionQueue::with_fairness(
            128,
            &FairnessPolicy {
                quantum_lwes: 1,
                weights: vec![(a, 2), (b, 1)],
            },
        );
        for i in 0..30 {
            q.submit(job_for(i, Priority::Normal, a, 1)).unwrap();
            q.submit(job_for(100 + i, Priority::Normal, b, 1)).unwrap();
        }
        // While both stay backlogged, the first 18 pops split ~2:1.
        let first: Vec<u64> = (0..18).map(|_| q.pop_wait().unwrap().tenant.0).collect();
        let a_share = first.iter().filter(|&&t| t == 1).count();
        assert_eq!(
            a_share, 12,
            "weight-2 tenant gets 2/3 of service: {first:?}"
        );
    }

    #[test]
    fn lone_tenant_is_served_without_deficit_stalls() {
        // A single backlogged tenant must not spin waiting for quanta,
        // even when its job cost dwarfs the quantum.
        let q = SubmissionQueue::with_fairness(
            4,
            &FairnessPolicy {
                quantum_lwes: 1,
                weights: Vec::new(),
            },
        );
        q.submit(job_for(0, Priority::Normal, TenantId(9), 4096))
            .unwrap();
        assert_eq!(q.pop_wait().unwrap().id.0, 0);
    }

    /// Tenant ids come straight from `SubmitReq` frames: a tenant with
    /// nothing queued must cost nothing.
    #[test]
    fn idle_tenants_leave_no_entry_behind() {
        let q = SubmissionQueue::new(4);
        let mut popped = 0;
        for i in 0..10_000 {
            q.submit(job_for(i, Priority::Normal, TenantId(i), 1))
                .unwrap();
            if q.len() == 4 {
                popped += (0..4).filter_map(|_| q.pop_wait()).count();
            }
        }
        assert_eq!(popped, 10_000);
        assert_eq!(q.tenant_entries(), 0);
    }

    #[test]
    fn idle_tenant_forfeits_banked_deficit() {
        let (a, b) = (TenantId(1), TenantId(2));
        let q = SubmissionQueue::with_fairness(
            64,
            &FairnessPolicy {
                quantum_lwes: 1,
                weights: Vec::new(),
            },
        );
        // Tenant a drains fully (deficit resets on idle), then both
        // return: service still interleaves instead of a burning banked
        // credit from its earlier round.
        q.submit(job_for(0, Priority::Normal, a, 1)).unwrap();
        q.pop_wait().unwrap();
        for i in 0..4 {
            q.submit(job_for(10 + i, Priority::Normal, a, 1)).unwrap();
            q.submit(job_for(20 + i, Priority::Normal, b, 1)).unwrap();
        }
        let first_four: Vec<u64> = (0..4).map(|_| q.pop_wait().unwrap().tenant.0).collect();
        assert!(
            first_four.contains(&1) && first_four.contains(&2),
            "{first_four:?}"
        );
    }
}
