//! The job layer: typed requests, priorities, and completion handles.
//!
//! Clients hand the service a [`JobRequest`] — bootstrap a ciphertext, or
//! blind-rotate a prepared LWE batch — and get back a [`JobHandle`] they
//! can block on. Every job carries a [`JobId`] and a [`Priority`]; the
//! submission queue orders by priority first and submission order second,
//! so a `High` client jumps the line but equal-priority work stays FIFO.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heap_ckks::Ciphertext;
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::RuntimeError;

/// Unique identifier assigned at submission (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The tenant (client account, session group) a job is billed to.
///
/// The submission queue keeps one sub-queue per tenant and serves them
/// with weighted deficit round-robin, so one tenant flooding the service
/// cannot starve the others. The default tenant `0` is what the plain
/// [`crate::BootstrapService::submit`] path uses; with a single tenant
/// the fair queue degenerates to the old global priority queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Scheduling priority. Higher drains first; ties drain in submission
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work (key rotation, prefetch).
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive interactive traffic.
    High,
}

/// What a client asks the runtime to do.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// Fully-packed scheme-switched bootstrap of an exhausted ciphertext.
    Bootstrap {
        /// The single-limb ciphertext to refresh.
        ct: Ciphertext,
    },
    /// Blind-rotate an already extracted + modulus-switched LWE batch
    /// (the raw primitive, for clients that do their own repacking).
    BlindRotate {
        /// LWE ciphertexts at modulus `2N`, dimension `n_t`.
        lwes: Vec<LweCiphertext>,
    },
}

/// What a completed job yields.
#[derive(Debug)]
pub enum JobOutput {
    /// The refreshed, full-level ciphertext.
    Bootstrapped(Ciphertext),
    /// One blind-rotation accumulator per input LWE, in input order.
    Accumulators(Vec<RlweCiphertext>),
}

impl JobOutput {
    /// Unwraps a bootstrap result.
    ///
    /// # Panics
    ///
    /// Panics if the output is not `Bootstrapped`.
    pub fn into_ciphertext(self) -> Ciphertext {
        match self {
            JobOutput::Bootstrapped(ct) => ct,
            other => panic!("expected Bootstrapped output, got {other:?}"),
        }
    }

    /// Unwraps a blind-rotate result.
    ///
    /// # Panics
    ///
    /// Panics if the output is not `Accumulators`.
    pub fn into_accumulators(self) -> Vec<RlweCiphertext> {
        match self {
            JobOutput::Accumulators(accs) => accs,
            other => panic!("expected Accumulators output, got {other:?}"),
        }
    }
}

/// A job's result, from submission to collection. `Taken` is what keeps a
/// collected job completed: the client can take the result away, but not
/// the fact that there was one.
enum Slot {
    Pending,
    Ready(Result<JobOutput, RuntimeError>, Duration),
    Taken,
}

impl Slot {
    /// The result and latency, once.
    fn take(&mut self) -> Option<(Result<JobOutput, RuntimeError>, Duration)> {
        match std::mem::replace(self, Slot::Taken) {
            Slot::Ready(result, latency) => Some((result, latency)),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Shared completion slot between the service and a [`JobHandle`].
pub(crate) struct JobState {
    slot: Mutex<Slot>,
    done: Condvar,
    submitted: Instant,
    /// Completion hook: the session server installs a closure (before
    /// the job is queued) that enqueues the job's wire tag into the
    /// connection's outbox, so completions stream out of order without
    /// a blocked waiter thread per job.
    notify: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobState")
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl JobState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(Slot::Pending),
            done: Condvar::new(),
            submitted: Instant::now(),
            notify: Mutex::new(None),
        })
    }

    /// When the job was submitted — the pipeline machine anchors a
    /// batch's flush deadline here, not at batch-open time.
    pub(crate) fn submitted_at(&self) -> Instant {
        self.submitted
    }

    /// Installs the completion hook. If the job already completed (the
    /// race is possible because completion runs on pipeline threads),
    /// the hook fires immediately instead of being stored.
    pub(crate) fn set_notifier(&self, f: Box<dyn FnOnce() + Send>) {
        {
            let slot = self.slot.lock().expect("job slot poisoned");
            if matches!(*slot, Slot::Pending) {
                *self.notify.lock().expect("job notifier poisoned") = Some(f);
                return;
            }
        }
        f();
    }

    /// Fulfills the job, asserting nobody beat us to it (tests; the
    /// pipeline's completion paths all race-tolerantly use
    /// [`JobState::complete_if_pending`]).
    #[cfg(test)]
    pub(crate) fn complete(&self, result: Result<JobOutput, RuntimeError>) {
        assert!(self.complete_if_pending(result), "job completed twice");
    }

    /// Fulfills the job unless it already completed — collected or not;
    /// returns whether this call won. Racing with a normal completion is
    /// harmless (tests; the service always settles accounting via
    /// [`JobState::complete_and`]).
    #[cfg(test)]
    pub(crate) fn complete_if_pending(&self, result: Result<JobOutput, RuntimeError>) -> bool {
        self.complete_and(result, || {})
    }

    /// Like [`JobState::complete_if_pending`], but runs `on_win` under
    /// the slot lock when this call wins — *before* any waiter can
    /// observe the completion. The service settles its counters and
    /// in-flight gauges there, so a client that just woke from `wait`
    /// always reads post-completion stats.
    pub(crate) fn complete_and(
        &self,
        result: Result<JobOutput, RuntimeError>,
        on_win: impl FnOnce(),
    ) -> bool {
        let latency = self.submitted.elapsed();
        {
            let mut slot = self.slot.lock().expect("job slot poisoned");
            if !matches!(*slot, Slot::Pending) {
                return false;
            }
            *slot = Slot::Ready(result, latency);
            on_win();
            self.done.notify_all();
        }
        // Fire the hook outside the slot lock: it may take other locks
        // (the session outbox) and must see the filled slot.
        if let Some(f) = self.notify.lock().expect("job notifier poisoned").take() {
            f();
        }
        true
    }

    /// Takes the result if the job already finished (non-blocking).
    pub(crate) fn take_result(&self) -> Option<Result<JobOutput, RuntimeError>> {
        let taken = self.slot.lock().expect("job slot poisoned").take();
        taken.map(|(result, _)| result)
    }
}

/// A client's handle to an in-flight job.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the job completes, returning its output and the
    /// submit-to-complete latency.
    pub fn wait_timed(self) -> (Result<JobOutput, RuntimeError>, Duration) {
        let mut slot = self.state.slot.lock().expect("job slot poisoned");
        loop {
            if let Some(done) = slot.take() {
                return done;
            }
            slot = self.state.done.wait(slot).expect("job slot poisoned");
        }
    }

    /// Blocks until the job completes.
    pub fn wait(self) -> Result<JobOutput, RuntimeError> {
        self.wait_timed().0
    }

    /// Returns the result if the job already finished (non-blocking).
    pub fn try_take(&self) -> Option<Result<JobOutput, RuntimeError>> {
        self.state.take_result()
    }
}

/// A submitted job's request and result slot, which the service's
/// executor keeps by id beside the pipeline machine.
#[derive(Debug)]
pub(crate) struct PendingJob {
    pub id: JobId,
    pub request: JobRequest,
    pub state: Arc<JobState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_as_expected() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn handle_wait_returns_completed_result() {
        let state = JobState::new();
        let handle = JobHandle {
            id: JobId(7),
            state: Arc::clone(&state),
        };
        assert!(handle.try_take().is_none());
        let st = Arc::clone(&state);
        let t = std::thread::spawn(move || {
            st.complete(Err(RuntimeError::Shutdown));
        });
        let (result, latency) = handle.wait_timed();
        t.join().unwrap();
        assert!(matches!(result, Err(RuntimeError::Shutdown)));
        assert!(latency <= Instant::now().elapsed() + Duration::from_secs(60));
    }

    #[test]
    fn notifier_fires_on_completion() {
        let state = JobState::new();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f = Arc::clone(&fired);
        state.set_notifier(Box::new(move || {
            f.store(true, std::sync::atomic::Ordering::SeqCst)
        }));
        assert!(!fired.load(std::sync::atomic::Ordering::SeqCst));
        state.complete(Err(RuntimeError::Shutdown));
        assert!(fired.load(std::sync::atomic::Ordering::SeqCst));
        // The slot was filled before the hook ran; take it.
        assert!(state.take_result().is_some());
    }

    #[test]
    fn notifier_installed_after_completion_fires_immediately() {
        let state = JobState::new();
        state.complete(Err(RuntimeError::Shutdown));
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f = Arc::clone(&fired);
        state.set_notifier(Box::new(move || {
            f.store(true, std::sync::atomic::Ordering::SeqCst)
        }));
        assert!(fired.load(std::sync::atomic::Ordering::SeqCst));
    }

    /// The client takes the result out of the slot; that must not make
    /// the job completable again (a panicking stage walks every job of
    /// its batch, collected ones included, and would settle them twice).
    #[test]
    fn a_collected_job_cannot_be_completed_again() {
        let state = JobState::new();
        let wins = std::cell::Cell::new(0);
        let on_win = || wins.set(wins.get() + 1);
        assert!(state.complete_and(Ok(JobOutput::Accumulators(Vec::new())), on_win));
        assert!(matches!(state.take_result(), Some(Ok(_))));
        assert!(!state.complete_and(Err(RuntimeError::Shutdown), on_win));
        assert_eq!(wins.get(), 1, "on_win ran once");
        assert!(state.take_result().is_none(), "nothing new to collect");
    }

    #[test]
    fn complete_if_pending_loses_to_first_completion() {
        let state = JobState::new();
        assert!(state.complete_if_pending(Err(RuntimeError::Shutdown)));
        assert!(!state.complete_if_pending(Err(RuntimeError::QueueFull)));
        assert!(matches!(
            state.take_result(),
            Some(Err(RuntimeError::Shutdown))
        ));
    }
}
