//! Dynamic batching: coalesce queued jobs into one LWE mega-batch.
//!
//! Jobs that share a mega-batch share one scatter/gather round trip, but
//! waiting for co-travellers pays only while the rotate stage is busy: a
//! batch held back from a stage that could start it now just adds the hold
//! to every job in it. So the batcher is work-conserving. A batch flushes
//! at the earliest of three events:
//!
//! - it holds [`BatchPolicy::max_lwes`] blind rotations;
//! - the rotate stage can start it now: fewer batches sit between the
//!   batcher's flush and the end of their rotation (the queue's count of
//!   live `RotateClaim`s) than there are rotate workers;
//! - its oldest job has waited [`BatchPolicy::max_delay`].
//!
//! A batch that opens on an idle rotate stage takes what is already
//! queued and goes. While every worker is busy it keeps collecting, and a
//! worker that frees wakes it through the queue's condvar, so no batch
//! flushes later than it would on the timer alone. A single job bigger
//! than `max_lwes` (a fully-packed bootstrap contributes `N` rotations)
//! always flushes alone rather than starving. Batching only decides which
//! jobs share a mega-batch, so it never changes a job's output.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::job::PendingJob;
use crate::queue::{Popped, RotateClaim, SubmissionQueue};
use crate::telemetry::BatcherTelemetry;

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

/// A flushed batch: its jobs, and the claim on the rotate stage that
/// travels with them until their rotation ends.
pub(crate) struct Batch {
    pub jobs: Vec<PendingJob>,
    pub claim: RotateClaim,
}

/// Blocks for the next batch: the first job opens it, further jobs join
/// until one of the three flush events. Returns `None` once the queue is
/// closed and drained.
///
/// Admission is peek-based: a queued job whose cost would push the batch
/// past `max_lwes` stays queued for the next batch instead of being
/// admitted and overshooting the cap (only the batch-opening job may
/// exceed it — that is the "oversized job flushes alone" rule).
pub(crate) fn collect_batch(
    queue: &Arc<SubmissionQueue>,
    policy: &BatchPolicy,
    telemetry: Option<&BatcherTelemetry>,
) -> Option<Batch> {
    let first = queue.pop_wait()?;
    let opened = Instant::now();
    // The delay clock starts at the first job's *enqueue* time, not at
    // batch open: a job that already sat `max_delay` in a backed-up
    // queue has spent its linger budget and must flush immediately, not
    // wait another full `max_delay` for co-travellers.
    let deadline = first.state.submitted_at() + policy.max_delay;
    let mut cost = first.cost;
    let mut jobs = vec![first];
    while cost < policy.max_lwes {
        match queue.pop_deadline_within(deadline, policy.max_lwes - cost) {
            Popped::Job(job) => {
                cost += job.cost;
                jobs.push(job);
            }
            // Oversized: the queue head cannot fit; flush now, it opens
            // the next batch. Idle: a rotate worker is free and nothing
            // else is queued. Closed still flushes what we have; the
            // *next* call returns `None` and ends the dispatcher.
            Popped::Oversized | Popped::Idle | Popped::TimedOut | Popped::Closed => break,
        }
    }
    if let Some(t) = telemetry {
        for job in &jobs {
            t.queue_wait_ns.record_duration(job.state.queue_age());
        }
        t.batch_linger_ns.record_duration(opened.elapsed());
        t.batch_size_lwes.record(cost as u64);
    }
    Some(Batch {
        jobs,
        claim: queue.claim_rotation(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobRequest, JobState, Priority};
    use heap_tfhe::LweCiphertext;

    fn job(id: u64, cost: usize) -> PendingJob {
        PendingJob {
            id: JobId(id),
            priority: Priority::Normal,
            tenant: crate::job::TenantId::default(),
            request: JobRequest::BlindRotate {
                lwes: vec![LweCiphertext::trivial(0, 4, 64); cost],
            },
            cost,
            state: JobState::new(),
        }
    }

    fn queue() -> Arc<SubmissionQueue> {
        Arc::new(SubmissionQueue::new(16))
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.jobs.iter().map(|j| j.id.0).collect()
    }

    #[test]
    fn flushes_on_size() {
        let q = queue();
        for i in 0..5 {
            q.submit(job(i, 2)).unwrap();
        }
        let policy = BatchPolicy {
            max_lwes: 6,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        // 2 + 2 + 2 = 6 reaches the threshold; the rest stay queued.
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn idle_rotation_flushes_at_once_with_what_is_queued() {
        let q = queue();
        let policy = BatchPolicy {
            max_lwes: 3,
            max_delay: Duration::from_secs(10),
        };
        for i in 0..2 {
            q.submit(job(i, 1)).unwrap();
        }
        let start = Instant::now();
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(
            ids(&batch),
            [0, 1],
            "takes what is queued, short of the cap"
        );
        drop(batch);
        for i in 2..7 {
            q.submit(job(i, 1)).unwrap();
        }
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(ids(&batch), [2, 3, 4], "but never past it");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn busy_throughout_waits_for_max_delay() {
        let q = queue();
        let _busy = q.claim_rotation();
        q.submit(job(0, 1)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 1000,
            max_delay: Duration::from_millis(10),
        };
        let start = Instant::now();
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn busy_then_idle_flushes_at_the_wake_with_its_co_travellers() {
        let q = queue();
        let busy = q.claim_rotation();
        q.submit(job(0, 1)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 1000,
            max_delay: Duration::from_secs(10),
        };
        let helper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                q.submit(job(1, 1)).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                let released = Instant::now();
                drop(busy);
                released
            })
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        let flushed = Instant::now();
        let released = helper.join().unwrap();
        assert_eq!(ids(&batch), [0, 1], "a job that arrived while busy joins");
        assert!(flushed >= released, "flushed before the rotation ended");
        assert!(
            flushed - released < Duration::from_millis(50),
            "flushed {:?} after the wake",
            flushed - released
        );
    }

    #[test]
    fn delay_clock_anchors_to_first_job_enqueue_not_batch_open() {
        // Regression: the old batcher started the flush timer when it
        // *popped* the first job, so a job that had already waited out
        // `max_delay` in a backed-up queue lingered a second full
        // `max_delay`. The deadline must anchor to enqueue time. Rotation
        // stays busy, so only the deadline can flush.
        let q = queue();
        let _busy = q.claim_rotation();
        q.submit(job(0, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let policy = BatchPolicy {
            max_lwes: 1000,
            max_delay: Duration::from_millis(200),
        };
        let start = Instant::now();
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "pre-aged job must flush immediately, lingered {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn oversized_job_flushes_alone() {
        let q = queue();
        q.submit(job(0, 999)).unwrap();
        q.submit(job(1, 1)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 8,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(ids(&batch), [0]);
    }

    #[test]
    fn large_follower_never_overshoots_the_cap() {
        // Regression: the old batcher admitted any popped job while
        // `cost < max_lwes`, so a 1-cost opener followed by a cap-sized
        // job produced a batch of max_lwes + 1 rotations. Peek-based
        // admission keeps the big job queued for the next batch.
        let q = queue();
        q.submit(job(0, 1)).unwrap();
        q.submit(job(1, 8)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 8,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        let cost: usize = batch.jobs.iter().map(|j| j.cost).sum();
        assert!(cost <= policy.max_lwes, "batch overshot: {cost} LWEs");
        assert_eq!(ids(&batch), [0]);
        assert_eq!(q.len(), 1, "deferred job stays queued");
        // The deferred job opens (and fills) the next batch.
        let next = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(ids(&next), [1]);
    }

    #[test]
    fn exact_fit_follower_is_admitted() {
        // Budget admission is `cost <= remaining`, not strict-less:
        // a follower that lands the batch exactly on the cap joins it.
        let q = queue();
        q.submit(job(0, 3)).unwrap();
        q.submit(job(1, 5)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 8,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(ids(&batch), [0, 1]);
    }

    #[test]
    fn telemetry_records_wait_linger_and_size() {
        let registry = heap_telemetry::Registry::new("test");
        let telemetry = BatcherTelemetry::new(&registry);
        let q = queue();
        q.submit(job(0, 2)).unwrap();
        q.submit(job(1, 2)).unwrap();
        let policy = BatchPolicy {
            max_lwes: 4,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, Some(&telemetry)).unwrap();
        assert_eq!(batch.jobs.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("heap_queue_wait_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("heap_batch_linger_ns").unwrap().count, 1);
        let sizes = snap.histogram("heap_batch_size_lwes").unwrap();
        assert_eq!(sizes.count, 1);
        assert_eq!(sizes.sum, 4);
    }

    #[test]
    fn closed_queue_flushes_remainder_then_ends() {
        let q = queue();
        q.submit(job(0, 1)).unwrap();
        q.submit(job(1, 1)).unwrap();
        q.close();
        let policy = BatchPolicy {
            max_lwes: 100,
            max_delay: Duration::from_secs(10),
        };
        let batch = collect_batch(&q, &policy, None).unwrap();
        assert_eq!(batch.jobs.len(), 2);
        assert!(collect_batch(&q, &policy, None).is_none());
    }
}
