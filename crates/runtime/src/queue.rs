//! The fair submission queue, as plain data.
//!
//! The pipeline machine ([`crate::batch`]) owns one and is its only user:
//! it bounds it at `queue_capacity` jobs (a blocking submitter parks on a
//! full queue, a non-blocking one gets [`crate::RuntimeError::QueueFull`])
//! and drains it into forming batches. Each tenant keeps its own priority
//! heap (priority desc, submission order within a class), and a *weighted
//! deficit round-robin* ring decides which tenant's head drains next.
//! Every visit tops a backlogged tenant's deficit up by `quantum × weight`
//! blind rotations and serves while the deficit covers the head job's
//! cost, so long-run service is proportional to weight and a flooding
//! tenant cannot starve the rest. With a single tenant the ring
//! degenerates to one global priority queue.
//!
//! Admission into a batch is peek-based: [`FairQueue::take`] pops the
//! DRR-selected head only if its cost fits the caller's budget; an
//! oversized head stays queued and is reported as [`Head::Oversized`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

use crate::job::{Priority, TenantId};

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

/// What the pipeline machine knows of an accepted job: whose it is, what
/// it costs and when it was submitted — no request and no result slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Job {
    pub id: u64,
    pub tenant: TenantId,
    pub priority: Priority,
    /// Blind rotations it contributes to a batch (`N` for a fully-packed
    /// bootstrap, the batch length for raw rotations).
    pub cost: usize,
    pub submitted: Instant,
}

/// One tenant's backlog plus its DRR accounting.
struct TenantQueue {
    /// Priority first, then FIFO within a priority class (the sequence
    /// numbers are unique, so the job itself never compares).
    heap: BinaryHeap<(Priority, Reverse<u64>, Job)>,
    /// Rotations this tenant may drain before yielding the ring.
    deficit: u64,
    weight: u32,
}

/// What a DRR scan found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Head {
    Job(Job),
    /// The DRR-selected head costs more than the budget; it stays queued.
    /// Skipping past it would violate both priority order and fairness.
    Oversized,
    Empty,
}

/// The bounded fair queue; see module docs.
pub(crate) struct FairQueue {
    tenants: HashMap<TenantId, TenantQueue>,
    /// DRR visit order over tenants with queued jobs.
    ring: VecDeque<TenantId>,
    total: usize,
    next_seq: u64,
    capacity: usize,
    quantum: u64,
    weights: HashMap<TenantId, u32>,
}

impl FairQueue {
    pub fn new(capacity: usize, fairness: &FairnessPolicy) -> Self {
        assert!(capacity >= 1, "queue needs capacity for at least one job");
        assert!(fairness.quantum_lwes >= 1, "quantum must be at least 1");
        Self {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            total: 0,
            next_seq: 0,
            capacity,
            quantum: fairness.quantum_lwes as u64,
            weights: fairness.weights.iter().copied().collect(),
        }
    }

    /// Queued job count.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_full(&self) -> bool {
        self.total >= self.capacity
    }

    /// Queues `job`; the caller has checked [`FairQueue::is_full`].
    pub fn push(&mut self, job: Job) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let weight = self.weights.get(&job.tenant).copied().unwrap_or(1).max(1);
        let tq = self
            .tenants
            .entry(job.tenant)
            .or_insert_with(|| TenantQueue {
                heap: BinaryHeap::new(),
                deficit: 0,
                weight,
            });
        if tq.heap.is_empty() {
            self.ring.push_back(job.tenant);
        }
        tq.heap.push((job.priority, Reverse(seq), job));
        self.total += 1;
    }

    /// One weighted-DRR scan: finds the next tenant whose deficit covers
    /// its head job and pops it if it fits `budget`, topping deficits up
    /// ring-visit by ring-visit. A lone backlogged tenant is served
    /// immediately (there is nobody to be fair against).
    pub fn take(&mut self, budget: usize) -> Head {
        loop {
            let Some(&tenant) = self.ring.front() else {
                return Head::Empty;
            };
            let tq = self.tenants.get_mut(&tenant).expect("ring tenant exists");
            let cost = tq.heap.peek().expect("a ring tenant has a job").2.cost;
            if tq.deficit < cost as u64 {
                if self.ring.len() == 1 {
                    tq.deficit = cost as u64;
                } else {
                    tq.deficit += self.quantum * u64::from(tq.weight);
                    self.ring.rotate_left(1);
                }
                continue;
            }
            if cost > budget {
                return Head::Oversized;
            }
            let job = tq.heap.pop().expect("peeked entry").2;
            tq.deficit -= cost as u64;
            if tq.heap.is_empty() {
                // Standard DRR: an idling tenant forfeits its deficit, so
                // it cannot bank service while absent — and with nothing
                // left to remember, its entry goes too: tenant ids arrive
                // off the wire, and a map that only grows is one retained
                // heap per id a peer ever sent.
                self.tenants.remove(&tenant);
                self.ring.pop_front();
            }
            self.total -= 1;
            return Head::Job(job);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! One cell per DRR rule, on the plain data (DESIGN §10 lists them).
    use super::*;

    pub(crate) fn job_for(id: u64, priority: Priority, tenant: TenantId, cost: usize) -> Job {
        Job {
            id,
            tenant,
            priority,
            cost,
            submitted: Instant::now(),
        }
    }

    fn job(id: u64, priority: Priority) -> Job {
        job_for(id, priority, TenantId::default(), 1)
    }

    /// A one-rotation quantum, so tenants interleave job by job.
    fn quantum_one(capacity: usize, weights: Vec<(TenantId, u32)>) -> FairQueue {
        let fairness = FairnessPolicy {
            quantum_lwes: 1,
            weights,
        };
        FairQueue::new(capacity, &fairness)
    }

    fn pop(q: &mut FairQueue) -> Job {
        match q.take(usize::MAX) {
            Head::Job(job) => job,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = FairQueue::new(8, &FairnessPolicy::default());
        for (id, p) in [
            (0, Priority::Low),
            (1, Priority::Normal),
            (2, Priority::High),
        ] {
            q.push(job(id, p));
        }
        q.push(job(3, Priority::Normal));
        let order: Vec<u64> = (0..4).map(|_| pop(&mut q).id).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
        assert_eq!(q.take(usize::MAX), Head::Empty);
    }

    #[test]
    fn full_at_capacity_until_a_take() {
        let mut q = FairQueue::new(2, &FairnessPolicy::default());
        q.push(job(0, Priority::Normal));
        assert!(!q.is_full());
        q.push(job(1, Priority::Normal));
        assert!(q.is_full());
        pop(&mut q);
        assert!(!q.is_full());
    }

    #[test]
    fn budgeted_take_leaves_oversized_head_queued() {
        let mut q = FairQueue::new(4, &FairnessPolicy::default());
        q.push(job_for(0, Priority::Normal, TenantId::default(), 10));
        assert_eq!(q.take(9), Head::Oversized);
        assert_eq!(q.len(), 1, "oversized head must stay queued");
        assert_eq!(pop(&mut q).id, 0, "and pops once the budget fits");
        // Exact fit: the budget is `cost <= remaining`, not strict-less.
        q.push(job_for(1, Priority::Normal, TenantId::default(), 5));
        assert!(matches!(q.take(5), Head::Job(j) if j.id == 1));
    }

    #[test]
    fn drr_interleaves_backlogged_tenants() {
        // Two equal-weight tenants, each flooding: drains must alternate
        // rather than run FIFO by submission order.
        let mut q = quantum_one(64, Vec::new());
        let (a, b) = (TenantId(1), TenantId(2));
        for i in 0..6 {
            q.push(job_for(i, Priority::Normal, a, 1));
        }
        for i in 6..12 {
            q.push(job_for(i, Priority::Normal, b, 1));
        }
        let tenants: Vec<u64> = (0..12).map(|_| pop(&mut q).tenant.0).collect();
        assert_eq!(tenants, [1, 2].repeat(6), "one each per visit");
    }

    #[test]
    fn drr_respects_weights_two_to_one() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut q = quantum_one(128, vec![(a, 2), (b, 1)]);
        for i in 0..30 {
            q.push(job_for(i, Priority::Normal, a, 1));
            q.push(job_for(100 + i, Priority::Normal, b, 1));
        }
        // While both stay backlogged, the first 18 pops split 2:1.
        let first: Vec<u64> = (0..18).map(|_| pop(&mut q).tenant.0).collect();
        let a_share = first.iter().filter(|&&t| t == 1).count();
        assert_eq!(
            a_share, 12,
            "weight-2 tenant gets 2/3 of service: {first:?}"
        );
    }

    /// A heavy head waits for its deficit to cover it, visit by visit,
    /// while a light tenant's jobs drain past it.
    #[test]
    fn drr_serves_a_head_only_once_its_deficit_covers_it() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut q = quantum_one(16, Vec::new());
        q.push(job_for(0, Priority::Normal, a, 3));
        for i in 1..5 {
            q.push(job_for(i, Priority::Normal, b, 1));
        }
        let order: Vec<u64> = (0..5).map(|_| pop(&mut q).id).collect();
        assert_eq!(order, [1, 2, 0, 3, 4]);
    }

    /// A lone backlogged tenant is served at once and banks nothing.
    #[test]
    fn lone_tenant_is_served_without_deficit_stalls() {
        let mut q = FairQueue::new(4, &FairnessPolicy::default());
        let t = TenantId(9);
        q.push(job_for(0, Priority::Normal, t, 4000));
        q.push(job_for(1, Priority::Normal, t, 100));
        assert_eq!(pop(&mut q).id, 0);
        assert_eq!(q.tenants[&t].deficit, 0, "no quantum rounding banked");
    }

    /// Tenant ids come straight from `SubmitReq` frames: a tenant with
    /// nothing queued must cost nothing.
    #[test]
    fn idle_tenants_leave_no_entry_behind() {
        let mut q = FairQueue::new(4, &FairnessPolicy::default());
        let mut popped = 0;
        for i in 0..10_000 {
            q.push(job_for(i, Priority::Normal, TenantId(i), 1));
            if q.is_full() {
                popped += (0..4).map(|_| pop(&mut q)).count();
            }
        }
        assert_eq!(popped, 10_000);
        assert!(q.tenants.is_empty() && q.ring.is_empty());
    }

    #[test]
    fn idle_tenant_forfeits_banked_deficit() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut q = quantum_one(64, Vec::new());
        // Tenant a drains fully (deficit resets on idle), then both
        // return: service still interleaves instead of a burning banked
        // credit from its earlier round.
        q.push(job_for(0, Priority::Normal, a, 1));
        pop(&mut q);
        for i in 0..4 {
            q.push(job_for(10 + i, Priority::Normal, a, 1));
            q.push(job_for(20 + i, Priority::Normal, b, 1));
        }
        let first_four: Vec<u64> = (0..4).map(|_| pop(&mut q).tenant.0).collect();
        assert_eq!(first_four, [1, 2, 1, 2]);
    }
}
