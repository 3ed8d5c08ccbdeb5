//! Sharding, least-loaded dispatch, and fault-tolerant reassignment.
//!
//! A flushed batch of LWE ciphertexts is split into contiguous shards —
//! one per dispatchable node (the paper's §V primary/secondary scatter) —
//! so results reassemble in input order by construction. Shards go to
//! nodes least-loaded-first (load = blind rotations currently in flight on
//! that node, which matters when several batches overlap or nodes differ
//! in speed).
//!
//! Every *decision* along the way — what a failure does to a node's
//! circuit breaker, how racing attempts settle a shard, how long to back
//! off, which shard to audit, when and where to hedge — is a pure function
//! in [`crate::policy`] (its module docs hold the breaker diagram). This
//! file is what has to touch the world: it calls the node, validates shape
//! and attestation, takes the lock, asks the table, and applies the answer.
//!
//! A node whose breaker is `Open` receives no shards. A background
//! health prober wakes every `probe_interval`, moves due `Open` breakers
//! to `HalfOpen`, and probes the node ([`ServiceNode::probe`] — for a
//! remote node: reconnect, re-handshake, ping). Failed shards are
//! reassigned to the surviving nodes with exponential backoff and
//! deterministic jitter between rounds. When no regular node is
//! dispatchable and a *fallback* node is configured, the fallback carries
//! the round — a batch never fails while the host itself can still
//! compute. Only when nothing can serve a shard does the batch fail, with
//! a typed [`RuntimeError`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_math::{Domain, RnsPoly};
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::node::{AttestedBatch, NodeError, ServiceNode};
use crate::policy::{
    self, BreakerEvent, BreakerState, RetryPolicy, Role, Settle, Shard, Transition, MAX_ROUNDS,
};
use crate::telemetry::{SchedulerStats, SchedulerTelemetry};
use crate::RuntimeError;

/// Every update under these locks leaves the data valid at every step, so
/// a panicking holder poisons nothing worth refusing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct NodeSlot {
    node: Box<dyn ServiceNode>,
    /// A cluster node, or the local last resort used when remote capacity
    /// is gone; the breaker table treats the two differently.
    role: Role,
    breaker: Mutex<BreakerState>,
    /// Blind rotations currently in flight on this node.
    inflight: AtomicUsize,
    /// EWMA of this node's shard round-trip latency in nanoseconds
    /// ([`policy::ewma_fold`], successes only) — the hedge trigger's
    /// reference clock.
    ewma_ns: AtomicU64,
    /// Successful shard samples folded into the EWMA.
    ewma_samples: AtomicU64,
}

impl NodeSlot {
    fn new(node: Box<dyn ServiceNode>, role: Role) -> Self {
        Self {
            node,
            role,
            breaker: Mutex::new(BreakerState::NEW),
            inflight: AtomicUsize::new(0),
            ewma_ns: AtomicU64::new(0),
            ewma_samples: AtomicU64::new(0),
        }
    }
}

/// One shard's bookkeeping within a dispatch round. Attempts (primary,
/// audit twin, hedge) race to settle it; workers mutate this under the
/// round lock.
struct ShardRound {
    /// Output slot in the batch.
    slot: usize,
    /// The shard's LWE index range.
    range: Range<usize>,
    /// Node indices already attempted (never hedge to one of these).
    tried: Vec<usize>,
    /// When the round's first attempt was dispatched (hedge timing).
    started: Instant,
    /// The race itself: attempts out, held audit result, winner.
    race: Shard<Vec<RlweCiphertext>>,
}

struct RoundState {
    shards: Vec<ShardRound>,
    /// Shards not settled yet; the round ends at zero.
    unresolved: usize,
    last_err: String,
}

/// What every attempt of a batch computes on. Workers are detached (a
/// stalled loser must not block the batch), so they share it by `Arc`
/// rather than borrow.
struct Batch {
    ctx: Arc<CkksContext>,
    boot: Arc<Bootstrapper>,
    lwes: Vec<LweCiphertext>,
}

/// Shared between the dispatching batch loop and its detached workers.
/// Workers from a *previous* round may still be running (stragglers,
/// hedge losers); they hold their own round's `Arc` and can never touch
/// a later round's state.
struct Round {
    batch: Arc<Batch>,
    state: Mutex<RoundState>,
    cv: Condvar,
}

/// State shared between the scheduler handle and its prober thread.
struct Inner {
    /// The regular nodes, then the last-resort slot if one is configured.
    slots: Vec<NodeSlot>,
    policy: RetryPolicy,
    /// Batch sequence for deterministic jitter seeding (distinct from the
    /// telemetry counter so concurrent batches never share a seed).
    batch_seq: AtomicU64,
    /// Lifetime counters and fault events; shared with the owning
    /// service's registry when there is one, standalone otherwise.
    telemetry: SchedulerTelemetry,
    /// Prober shutdown latch: flag + condvar so `Drop` is prompt.
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

impl Inner {
    /// The dispatchable slots by role, in slot order: the regular nodes,
    /// and the last-resort slot if it is still trusted.
    fn dispatchable(&self) -> (Vec<usize>, Option<usize>) {
        let mut regular = Vec::new();
        let mut last_resort = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if lock(&slot.breaker).is_dispatchable() {
                match slot.role {
                    Role::Regular => regular.push(i),
                    Role::LastResort => last_resort = Some(i),
                }
            }
        }
        (regular, last_resort)
    }

    /// Dispatch targets: key-holding nodes first (a node that already
    /// caches the batch's evaluation key skips the upload), then
    /// least-loaded (stable on ties). The last-resort slot joins when no
    /// regular node is dispatchable.
    fn ranked_dispatchable(&self) -> Vec<usize> {
        let (mut ranked, last_resort) = self.dispatchable();
        ranked.sort_by_key(|&i| {
            let slot = &self.slots[i];
            (
                !slot.node.holds_key(),
                slot.inflight.load(Ordering::Relaxed),
            )
        });
        if ranked.is_empty() {
            ranked.extend(last_resort);
        }
        ranked
    }

    /// Feeds one event through a node's breaker table and applies the
    /// transition it answers with. Returns whether the state changed.
    fn step(&self, node_idx: usize, event: BreakerEvent, why: &str) -> bool {
        let slot = &self.slots[node_idx];
        let (changed, transition) = {
            let mut state = lock(&slot.breaker);
            let (next, transition) = state.on(event, slot.role, &self.policy, Instant::now());
            let changed = next != *state;
            *state = next;
            (changed, transition)
        };
        if let Some(transition) = transition {
            self.apply(slot.node.as_ref(), transition, why);
        }
        changed
    }

    /// Books a breaker transition — the one place a transition is counted
    /// and logged, whichever of a shard, a probe or an audit caused it.
    fn apply(&self, node: &dyn ServiceNode, transition: Transition, why: &str) {
        let counters = &self.telemetry.counters;
        let kind = match transition {
            Transition::Opened => {
                counters.breaker_opens.inc();
                "breaker_open"
            }
            Transition::Readmitted => {
                counters.readmissions.inc();
                "readmission"
            }
            Transition::Quarantined => {
                counters.quarantines.inc();
                "quarantine"
            }
            // Kept as found: an abandoned last resort books nothing (its
            // failure itself is counted by `record_failure`).
            Transition::Abandoned => return,
        };
        self.telemetry.events.record(kind, &node.name(), why);
    }

    /// Books a failed attempt: failure counter, corruption-layer counter
    /// for integrity failures, breaker event. Returns the `node: why`
    /// string the batch keeps as its last error.
    fn record_failure(&self, node_idx: usize, err: &NodeError) -> String {
        let counters = &self.telemetry.counters;
        let name = self.slots[node_idx].node.name();
        let why = err.to_string();
        counters.node_failures.inc();
        if let NodeError::Corrupt { phase, .. } = err {
            match *phase {
                "crc" => counters.corruption_crc.inc(),
                _ => counters.corruption_attest.inc(),
            }
            self.telemetry.events.record("corruption", &name, &why);
        }
        self.step(node_idx, BreakerEvent::Failed, &why);
        format!("{name}: {why}")
    }

    /// Opens a dispatch round over `pending` and launches each shard's
    /// first attempt (and an audited shard's twin).
    fn dispatch_round(
        self: &Arc<Self>,
        batch: &Arc<Batch>,
        pending: &[(usize, Range<usize>)],
        ranked: &[usize],
        audited: impl Fn(usize) -> bool,
    ) -> Arc<Round> {
        let started = Instant::now();
        let round = Arc::new(Round {
            batch: Arc::clone(batch),
            state: Mutex::new(RoundState {
                shards: pending
                    .iter()
                    .map(|(slot, range)| ShardRound {
                        slot: *slot,
                        range: range.clone(),
                        tried: Vec::new(),
                        started,
                        race: Shard::new(audited(*slot)),
                    })
                    .collect(),
                unresolved: pending.len(),
                last_err: String::new(),
            }),
            cv: Condvar::new(),
        });
        // Shard j of this round goes to the j-th least-loaded node
        // (wrapping when shards outnumber dispatchable nodes); an audited
        // shard also goes to the next node.
        let mut st = lock(&round.state);
        for j in 0..pending.len() {
            self.spawn_attempt(&round, &mut st, j, ranked[j % ranked.len()], false);
            if st.shards[j].race.is_audit() {
                self.spawn_attempt(&round, &mut st, j, ranked[(j + 1) % ranked.len()], false);
            }
        }
        drop(st);
        round
    }

    /// Dispatches one attempt of one shard on a detached worker thread.
    /// The caller holds the round lock (`st`) so attempt bookkeeping and
    /// the spawn are atomic with respect to other workers.
    fn spawn_attempt(
        self: &Arc<Self>,
        round: &Arc<Round>,
        st: &mut RoundState,
        shard_idx: usize,
        node_idx: usize,
        hedge: bool,
    ) {
        let counters = &self.telemetry.counters;
        let slot = &self.slots[node_idx];
        let sh = &mut st.shards[shard_idx];
        let range = sh.range.clone();
        sh.race.launched(hedge);
        sh.tried.push(node_idx);
        if hedge {
            counters.hedges_issued.inc();
        }
        slot.inflight.fetch_add(range.len(), Ordering::Relaxed);
        counters.shards.inc();
        if slot.role == Role::LastResort {
            counters.fallback_shards.inc();
        }
        let (inner, round) = (Arc::clone(self), Arc::clone(round));
        std::thread::Builder::new()
            .name("heap-shard".into())
            .spawn(move || inner.shard_attempt(&round, shard_idx, node_idx, hedge, range))
            .expect("spawn shard worker");
    }

    /// One attempt, worker-side: call the node, validate shape and
    /// attestation, then settle into the round state. Late results for
    /// already-settled shards (hedge losers, stragglers) are discarded
    /// here — they never reach the caller.
    fn shard_attempt(
        &self,
        round: &Round,
        shard_idx: usize,
        node_idx: usize,
        hedge: bool,
        range: Range<usize>,
    ) {
        let Batch { ctx, boot, lwes } = &*round.batch;
        let counters = &self.telemetry.counters;
        let slot = &self.slots[node_idx];
        let shard = &lwes[range];
        let t0 = Instant::now();
        // A panicking node — or a reply whose validation panics — must not
        // take the whole batch down: it is that attempt failing, so every
        // launched attempt reports exactly once and retry/hedging handle it.
        let attempt = || {
            let reply = slot.node.try_blind_rotate_attested(ctx, boot, shard);
            (
                t0.elapsed(),
                reply.and_then(|b| check_reply(ctx, shard.len(), b)),
            )
        };
        let (elapsed, result) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
            .unwrap_or_else(|_| (t0.elapsed(), Err(NodeError::Io("node panicked".into()))));
        let elapsed_ns = elapsed.as_nanos() as u64;
        self.telemetry.shard_round_trip_ns.record(elapsed_ns);
        slot.inflight.fetch_sub(shard.len(), Ordering::Relaxed);
        let mut st = lock(&round.state);
        let result = match result {
            Ok(batch) => {
                let old = slot.ewma_ns.load(Ordering::Relaxed);
                let next = policy::ewma_fold(old, elapsed_ns.max(1));
                slot.ewma_ns.store(next, Ordering::Relaxed);
                slot.ewma_samples.fetch_add(1, Ordering::Relaxed);
                self.step(
                    node_idx,
                    BreakerEvent::Succeeded,
                    "half-open shard succeeded",
                );
                Some((batch.digest, batch.accs))
            }
            Err(e) => {
                st.last_err = self.record_failure(node_idx, &e);
                None
            }
        };
        match st.shards[shard_idx].race.on_result(node_idx, hedge, result) {
            Settle::Pending => return,
            Settle::Discarded { wasted } => {
                if wasted {
                    counters.hedges_wasted.inc();
                }
                return;
            }
            Settle::Won { by_hedge } => {
                if by_hedge {
                    counters.hedges_won.inc();
                }
            }
            Settle::Failed => {}
            Settle::Disagreed { a, b } => {
                counters.corruption_audit.inc();
                for liar in [a, b] {
                    self.step(liar, BreakerEvent::CaughtLying, "audit digest mismatch");
                }
                st.last_err = NodeError::Corrupt {
                    frame: "accumulators".into(),
                    phase: "audit",
                }
                .to_string();
            }
        }
        // The one settled exit: this result ended the shard's race.
        st.unresolved -= 1;
        round.cv.notify_all();
    }

    /// Fires at most one hedge per straggling shard, when and where
    /// [`policy::hedge_target`] says, among the dispatchable regular
    /// nodes (the last resort is never a hedge target).
    fn hedge_stragglers(self: &Arc<Self>, round: &Arc<Round>, st: &mut RoundState) {
        let now = Instant::now();
        for j in 0..st.shards.len() {
            let sh = &st.shards[j];
            if !sh.race.can_hedge() {
                continue;
            }
            let elapsed = now.saturating_duration_since(sh.started);
            let candidates = self.dispatchable().0.into_iter().map(|i| {
                let slot = &self.slots[i];
                (
                    i,
                    slot.ewma_ns.load(Ordering::Relaxed),
                    slot.ewma_samples.load(Ordering::Relaxed),
                    sh.tried.contains(&i),
                )
            });
            let Some((target, threshold)) = policy::hedge_target(&self.policy, elapsed, candidates)
            else {
                continue;
            };
            self.telemetry.events.record(
                "hedge",
                &self.slots[target].node.name(),
                &format!("shard stuck {elapsed:?} (threshold {threshold:?})"),
            );
            self.spawn_attempt(round, st, j, target, true);
        }
    }

    /// One prober pass: half-open due breakers and probe those nodes.
    fn probe_round(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            // `ProbeDue` changes exactly one kind of state — an `Open`
            // breaker past its deadline, to `HalfOpen` — and that is the
            // cue to spend a probe on the node.
            if !self.step(i, BreakerEvent::ProbeDue, "") {
                continue;
            }
            match slot.node.probe() {
                Ok(()) => self.step(i, BreakerEvent::Succeeded, "probe succeeded"),
                Err(e) => self.step(i, BreakerEvent::Failed, &format!("probe failed: {e}")),
            };
        }
    }
}

/// Validates one reply: one accumulator per LWE, each over `ctx`'s boot
/// basis in evaluation domain (the re-encoding below asserts all three),
/// and an attestation digest equal to the re-encoded accumulators'.
fn check_reply(
    ctx: &CkksContext,
    lwes: usize,
    batch: AttestedBatch,
) -> Result<AttestedBatch, NodeError> {
    if batch.accs.len() != lwes {
        return Err(NodeError::Mismatch("short reply"));
    }
    let fits = |p: &RnsPoly| {
        p.limb_count() == ctx.boot_limbs()
            && p.limb(0).len() == ctx.n()
            && p.domain() == Domain::Eval
    };
    if !batch.accs.iter().all(|acc| fits(&acc.a) && fits(&acc.b)) {
        return Err(NodeError::Mismatch("accumulator shape"));
    }
    // Re-encode what we received and recompute the digest: the wire
    // encoding is canonical, so this equals digesting the bytes the node
    // sent — end-to-end, transport-independent.
    if crate::node::attest_digest(ctx, &batch.accs) != batch.digest {
        return Err(NodeError::Corrupt {
            frame: "accumulators".into(),
            phase: "attest",
        });
    }
    Ok(batch)
}

/// Dispatches LWE batches across a fixed set of [`ServiceNode`]s with
/// circuit breaking, retry, readmission, and graceful degradation.
pub struct Scheduler {
    inner: Arc<Inner>,
    prober: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds a scheduler over `nodes` (all initially dispatchable) with
    /// the default [`RetryPolicy`] and no fallback.
    ///
    /// Fails with [`RuntimeError::NoNodes`] when `nodes` is empty.
    pub fn new(nodes: Vec<Box<dyn ServiceNode>>) -> Result<Self, RuntimeError> {
        Self::with_policy(nodes, None, RetryPolicy::default())
    }

    /// Builds a scheduler with an explicit policy and an optional local
    /// fallback node used when no regular node is dispatchable.
    pub fn with_policy(
        nodes: Vec<Box<dyn ServiceNode>>,
        fallback: Option<Box<dyn ServiceNode>>,
        policy: RetryPolicy,
    ) -> Result<Self, RuntimeError> {
        Self::with_telemetry(nodes, fallback, policy, SchedulerTelemetry::standalone())
    }

    /// [`Scheduler::with_policy`] recording into an externally owned
    /// metric set (how [`crate::BootstrapService`] shares one registry
    /// between its own counters and the scheduler's).
    pub(crate) fn with_telemetry(
        nodes: Vec<Box<dyn ServiceNode>>,
        fallback: Option<Box<dyn ServiceNode>>,
        policy: RetryPolicy,
        telemetry: SchedulerTelemetry,
    ) -> Result<Self, RuntimeError> {
        if nodes.is_empty() && fallback.is_none() {
            return Err(RuntimeError::NoNodes);
        }
        let regular = nodes.len();
        let slots = nodes
            .into_iter()
            .map(|node| NodeSlot::new(node, Role::Regular))
            .chain(fallback.map(|node| NodeSlot::new(node, Role::LastResort)))
            .collect();
        let inner = Arc::new(Inner {
            slots,
            policy,
            batch_seq: AtomicU64::new(0),
            telemetry,
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        // Only regular nodes are ever probed.
        let prober =
            (!policy.probe_interval.is_zero() && regular > 0).then(|| spawn_prober(&inner));
        Ok(Self {
            inner,
            prober: Mutex::new(prober),
        })
    }

    /// Nodes currently dispatchable (breaker Closed or HalfOpen).
    pub fn healthy_count(&self) -> usize {
        self.inner.dispatchable().0.len()
    }

    /// Names of the dispatchable nodes.
    pub fn healthy_names(&self) -> Vec<String> {
        let (regular, _) = self.inner.dispatchable();
        regular
            .into_iter()
            .map(|i| self.inner.slots[i].node.name())
            .collect()
    }

    /// Whether a fallback node is configured and still trusted.
    pub fn has_fallback(&self) -> bool {
        self.inner.dispatchable().1.is_some()
    }

    /// Snapshot of the lifetime counters. These read the *same* atomics
    /// the telemetry registry exposes, so a scraped `/metrics` endpoint
    /// and this struct can never disagree.
    pub fn stats(&self) -> SchedulerStats {
        self.inner.telemetry.counters.snapshot()
    }

    /// Executes a batch of blind rotations across the dispatchable nodes,
    /// returning one accumulator per input LWE in input order.
    ///
    /// Every shard result is validated (shape + attestation digest)
    /// before it is accepted. Failed shards are retried on surviving
    /// nodes (and the fallback) with exponential backoff until they
    /// succeed, the round budget is exhausted, or no node remains. With
    /// [`RetryPolicy::hedge_after`] set, a shard stuck past the hedge
    /// threshold is speculatively re-dispatched and the first valid
    /// result wins — a straggling node stops setting batch latency. With
    /// [`RetryPolicy::audit_fraction`] set, a sampled fraction of shards
    /// runs on two nodes whose results must agree bit-for-bit; a
    /// disagreement quarantines both.
    pub fn execute(
        &self,
        ctx: &Arc<CkksContext>,
        boot: &Arc<Bootstrapper>,
        lwes: &[LweCiphertext],
    ) -> Result<Vec<RlweCiphertext>, RuntimeError> {
        let inner = &self.inner;
        let counters = &inner.telemetry.counters;
        let batch_no = inner.batch_seq.fetch_add(1, Ordering::Relaxed);
        counters.batches.inc();
        if lwes.is_empty() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Option<Vec<RlweCiphertext>>> = Vec::new();
        // (output slot, shard range) pairs still awaiting a valid result.
        let mut pending: Vec<(usize, Range<usize>)> = Vec::new();
        {
            let ranked = inner.ranked_dispatchable();
            if ranked.is_empty() {
                return Err(RuntimeError::AllNodesFailed("no dispatchable nodes".into()));
            }
            let chunk = lwes.len().div_ceil(ranked.len());
            let mut start = 0;
            while start < lwes.len() {
                let end = (start + chunk).min(lwes.len());
                pending.push((out.len(), start..end));
                out.push(None);
                start = end;
            }
        }
        let batch = Arc::new(Batch {
            ctx: Arc::clone(ctx),
            boot: Arc::clone(boot),
            lwes: lwes.to_vec(),
        });
        let tick = policy::round_tick(&inner.policy);
        let mut last_err = String::new();
        let mut round_no = 0usize;
        while !pending.is_empty() {
            if round_no > MAX_ROUNDS {
                return Err(RuntimeError::AllNodesFailed(format!(
                    "retry budget exhausted after {MAX_ROUNDS} rounds (last error: {last_err})"
                )));
            }
            let ranked = inner.ranked_dispatchable();
            if ranked.is_empty() {
                return Err(RuntimeError::AllNodesFailed(last_err));
            }
            if round_no > 0 {
                counters.reassignments.add(pending.len() as u64);
                inner.telemetry.events.record(
                    "retry",
                    &format!("batch-{batch_no}"),
                    &format!("round {round_no}: {} shards re-dispatched", pending.len()),
                );
                std::thread::sleep(policy::backoff(&inner.policy, batch_no, round_no));
            }
            // Audit sampling happens on the initial round only — retries
            // of a failed shard should converge, not multiply.
            let audit_on = round_no == 0 && ranked.len() >= 2;
            let round = inner.dispatch_round(&batch, &pending, &ranked, |slot| {
                audit_on && policy::audit_pick(&inner.policy, batch_no, slot)
            });
            // Wait for the round to settle, firing hedges for stragglers.
            let mut st = lock(&round.state);
            while st.unresolved > 0 {
                (st, _) = round
                    .cv
                    .wait_timeout(st, tick)
                    .unwrap_or_else(PoisonError::into_inner);
                if st.unresolved > 0 && inner.policy.hedge_after.is_some() {
                    inner.hedge_stragglers(&round, &mut st);
                }
            }
            // Collect: winners into the output, the rest back to pending.
            if !st.last_err.is_empty() {
                last_err = std::mem::take(&mut st.last_err);
            }
            pending.clear();
            for sh in st.shards.iter_mut() {
                match sh.race.take_won() {
                    Some(accs) => out[sh.slot] = Some(accs),
                    None => pending.push((sh.slot, sh.range.clone())),
                }
            }
            drop(st);
            round_no += 1;
        }
        Ok(out
            .into_iter()
            .flat_map(|o| o.expect("every shard resolved"))
            .collect())
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        *lock(&self.inner.stop) = true;
        self.inner.stop_cv.notify_all();
        if let Some(handle) = lock(&self.prober).take() {
            let _ = handle.join();
        }
    }
}

/// The background health prober: readmits recovered nodes.
fn spawn_prober(inner: &Arc<Inner>) -> std::thread::JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("heap-health-prober".into())
        .spawn(move || loop {
            {
                // `_while` looks at the flag before sleeping, so a stop
                // set (and notified) before this thread got here is seen
                // instead of slept through.
                let (stopped, _) = inner
                    .stop_cv
                    .wait_timeout_while(lock(&inner.stop), inner.policy.probe_interval, |stopped| {
                        !*stopped
                    })
                    .unwrap_or_else(PoisonError::into_inner);
                if *stopped {
                    return;
                }
            }
            inner.probe_round();
        })
        .expect("spawn health prober")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosNode, FaultPlan};
    use crate::node::{LocalServiceNode, NodeError};
    use heap_ckks::{CkksContext, CkksParams, SecretKey};
    use heap_core::{BootstrapConfig, Bootstrapper};
    use heap_parallel::Parallelism;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;
    use std::sync::OnceLock;
    use std::time::Duration;

    struct Fixture {
        ctx: Arc<CkksContext>,
        boot: Arc<Bootstrapper>,
        lwes: Vec<LweCiphertext>,
    }

    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let ctx = CkksContext::new(CkksParams::test_tiny());
            let mut rng = StdRng::seed_from_u64(5);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
            let delta = ctx.fresh_scale();
            let coeffs: Vec<i64> = (0..ctx.n())
                .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta).round() as i64)
                .collect();
            let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
            let indices: Vec<usize> = (0..16).collect();
            let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
            Fixture {
                ctx: Arc::new(ctx),
                boot: Arc::new(boot),
                lwes,
            }
        })
    }

    /// Fails its first `fail_first` batches, then works.
    struct FlakyNode {
        inner: LocalServiceNode,
        fail_first: usize,
        calls: AtomicUsize,
        probe_ok: bool,
    }

    impl ServiceNode for FlakyNode {
        fn try_blind_rotate_batch(
            &self,
            ctx: &CkksContext,
            boot: &Bootstrapper,
            lwes: &[LweCiphertext],
        ) -> Result<Vec<RlweCiphertext>, NodeError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                return Err(NodeError::Io("injected failure".into()));
            }
            self.inner.try_blind_rotate_batch(ctx, boot, lwes)
        }

        fn probe(&self) -> Result<(), NodeError> {
            if self.probe_ok && self.calls.load(Ordering::Relaxed) >= self.fail_first {
                Ok(())
            } else {
                Err(NodeError::Io("probe refused".into()))
            }
        }

        fn name(&self) -> String {
            "flaky".to_string()
        }
    }

    fn serial_reference(fix: &Fixture) -> Vec<Vec<u64>> {
        let moduli: Vec<u64> = (0..fix.ctx.boot_limbs())
            .map(|j| fix.ctx.rns().modulus(j).value())
            .collect();
        fix.boot
            .blind_rotate_batch_par(&fix.ctx, &fix.lwes, Parallelism::serial())
            .iter()
            .map(|acc| acc.to_wire(&moduli).iter().map(|&b| b as u64).collect())
            .collect()
    }

    fn wire(fix: &Fixture, accs: &[RlweCiphertext]) -> Vec<Vec<u64>> {
        let moduli: Vec<u64> = (0..fix.ctx.boot_limbs())
            .map(|j| fix.ctx.rns().modulus(j).value())
            .collect();
        accs.iter()
            .map(|acc| acc.to_wire(&moduli).iter().map(|&b| b as u64).collect())
            .collect()
    }

    #[test]
    fn sharded_execution_matches_serial_bitwise() {
        let fix = fixture();
        let local_nodes = |n: usize| -> Vec<Box<dyn ServiceNode>> {
            (0..n)
                .map(|i| {
                    Box::new(LocalServiceNode::new(i, Parallelism::with_threads(2)))
                        as Box<dyn ServiceNode>
                })
                .collect()
        };
        let reference = serial_reference(fix);
        let sched = Scheduler::new(local_nodes(3)).unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), reference);
        let stats = sched.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.reassignments, 0);
        assert_eq!(stats.breaker_opens, 0);
        assert_eq!(stats.fallback_shards, 0);

        // More nodes than LWEs, and a single LWE: one shard per LWE, the
        // surplus nodes idle, order and bits unchanged.
        let sched = Scheduler::new(local_nodes(8)).unwrap();
        for (len, shards_so_far) in [(3usize, 3u64), (1, 4)] {
            let accs = sched
                .execute(&fix.ctx, &fix.boot, &fix.lwes[..len])
                .unwrap();
            assert_eq!(wire(fix, &accs), reference[..len], "{len} LWEs");
            assert_eq!(sched.stats().shards, shards_so_far, "{len} LWEs");
        }
    }

    /// A local node with a scripted key-residency claim.
    struct KeyClaimNode {
        inner: LocalServiceNode,
        holds: bool,
    }

    impl ServiceNode for KeyClaimNode {
        fn try_blind_rotate_batch(
            &self,
            ctx: &CkksContext,
            boot: &Bootstrapper,
            lwes: &[LweCiphertext],
        ) -> Result<Vec<RlweCiphertext>, NodeError> {
            self.inner.try_blind_rotate_batch(ctx, boot, lwes)
        }

        fn holds_key(&self) -> bool {
            self.holds
        }
    }

    #[test]
    fn ranking_prefers_key_holding_nodes_stable_on_ties() {
        let nodes: Vec<Box<dyn ServiceNode>> = [false, true, true]
            .into_iter()
            .enumerate()
            .map(|(i, holds)| {
                Box::new(KeyClaimNode {
                    inner: LocalServiceNode::new(i, Parallelism::serial()),
                    holds,
                }) as Box<dyn ServiceNode>
            })
            .collect();
        let sched = Scheduler::new(nodes).unwrap();
        assert_eq!(sched.inner.ranked_dispatchable(), vec![1, 2, 0]);
    }

    #[test]
    fn drop_does_not_wait_out_the_probe_interval() {
        // The stop flag is usually set before the prober thread reaches
        // its wait; a wait that misses it sleeps the full hour.
        let policy = RetryPolicy {
            probe_interval: Duration::from_secs(3600),
            ..RetryPolicy::test_fast()
        };
        for _ in 0..200 {
            let sched = Scheduler::with_policy(
                vec![Box::new(LocalServiceNode::default()) as Box<dyn ServiceNode>],
                None,
                policy,
            )
            .unwrap();
            let t = Instant::now();
            drop(sched);
            assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
        }
    }

    #[test]
    fn empty_node_list_is_a_typed_error() {
        assert!(matches!(
            Scheduler::new(Vec::new()),
            Err(RuntimeError::NoNodes)
        ));
        // A fallback alone is a valid (degraded-from-birth) cluster.
        let sched = Scheduler::with_policy(
            Vec::new(),
            Some(Box::new(LocalServiceNode::default())),
            RetryPolicy::test_fast(),
        )
        .unwrap();
        let fix = fixture();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        assert!(sched.stats().fallback_shards >= 1);
    }

    #[test]
    fn failed_node_shard_is_reassigned_and_breaker_stays_open() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(FlakyNode {
                inner: LocalServiceNode::new(0, Parallelism::serial()),
                fail_first: usize::MAX,
                calls: AtomicUsize::new(0),
                probe_ok: false,
            }),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let sched =
            Scheduler::with_policy(nodes, None, RetryPolicy::test_no_readmission()).unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        // Result still bit-identical despite the reassignment.
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        let stats = sched.stats();
        assert_eq!(stats.node_failures, 1);
        assert_eq!(stats.breaker_opens, 1);
        assert!(stats.reassignments >= 1);
        assert_eq!(sched.healthy_count(), 1);
        assert_eq!(sched.healthy_names(), vec!["local-1".to_string()]);
        // The open breaker keeps the node out: a second batch never
        // touches it.
        let accs2 = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs2), serial_reference(fix));
        assert_eq!(sched.stats().node_failures, 1);
    }

    #[test]
    fn all_nodes_failing_reports_error() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![Box::new(FlakyNode {
            inner: LocalServiceNode::new(0, Parallelism::serial()),
            fail_first: usize::MAX,
            calls: AtomicUsize::new(0),
            probe_ok: false,
        })];
        let sched =
            Scheduler::with_policy(nodes, None, RetryPolicy::test_no_readmission()).unwrap();
        match sched.execute(&fix.ctx, &fix.boot, &fix.lwes) {
            Err(RuntimeError::AllNodesFailed(msg)) => {
                assert!(msg.contains("injected failure"), "got: {msg}")
            }
            other => panic!("expected AllNodesFailed, got {other:?}"),
        }
        // Later batches fail fast with no dispatchable nodes.
        assert!(matches!(
            sched.execute(&fix.ctx, &fix.boot, &fix.lwes),
            Err(RuntimeError::AllNodesFailed(_))
        ));
    }

    #[test]
    fn prober_readmits_recovered_node() {
        let fix = fixture();
        let flaky_calls = Arc::new(());
        let _ = flaky_calls;
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(FlakyNode {
                inner: LocalServiceNode::new(0, Parallelism::serial()),
                fail_first: 1,
                calls: AtomicUsize::new(0),
                probe_ok: true,
            }),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let sched = Scheduler::with_policy(nodes, None, RetryPolicy::test_fast()).unwrap();
        // First batch: the flaky node fails once, its breaker opens, the
        // survivor carries the batch.
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        assert_eq!(sched.stats().breaker_opens, 1);
        // The prober half-opens the breaker and the probe succeeds.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sched.stats().readmissions == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sched.stats().readmissions, 1, "node never readmitted");
        assert_eq!(sched.healthy_count(), 2);
        // The readmitted node serves shards again.
        let before = sched.stats().shards;
        let accs2 = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs2), serial_reference(fix));
        assert_eq!(sched.stats().shards, before + 2);
        assert_eq!(sched.stats().node_failures, 1);
    }

    #[test]
    fn fallback_carries_batch_when_all_nodes_fail() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![Box::new(ChaosNode::new(
            Box::new(LocalServiceNode::new(0, Parallelism::serial())),
            "fail*20".parse::<FaultPlan>().unwrap(),
        ))];
        let sched = Scheduler::with_policy(
            nodes,
            Some(Box::new(LocalServiceNode::new(9, Parallelism::serial()))),
            RetryPolicy::test_no_readmission(),
        )
        .unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        let stats = sched.stats();
        assert!(stats.fallback_shards >= 1, "{stats:?}");
        assert!(stats.node_failures >= 1);
        assert!(sched.has_fallback());
    }

    #[test]
    fn empty_batch_is_trivial() {
        let fix = fixture();
        let sched = Scheduler::new(vec![
            Box::new(LocalServiceNode::default()) as Box<dyn ServiceNode>
        ])
        .unwrap();
        assert!(sched.execute(&fix.ctx, &fix.boot, &[]).unwrap().is_empty());
    }

    /// An in-process flip (stale digest, flipped limb) must be caught by
    /// the scheduler's attestation check, counted under the `attest`
    /// layer, and the shard recomputed elsewhere — bit-exact output.
    #[test]
    fn flip_is_caught_by_attestation_and_recovered() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(ChaosNode::new(
                Box::new(LocalServiceNode::new(0, Parallelism::serial())),
                "flip".parse::<FaultPlan>().unwrap(),
            )),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let sched =
            Scheduler::with_policy(nodes, None, RetryPolicy::test_no_readmission()).unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        let stats = sched.stats();
        assert_eq!(stats.corruption_attest, 1, "{stats:?}");
        assert_eq!(stats.node_failures, 1);
        assert_eq!(stats.reassignments, 1);
        assert_eq!(
            stats.quarantines, 0,
            "flips trip the breaker, not quarantine"
        );
    }

    /// Returns correct results except for one flipped limb — with the
    /// digest recomputed over the flipped batch, so the attestation
    /// layer cannot see anything wrong. Only redundant-dispatch audit
    /// comparison can catch this node.
    struct LyingNode {
        inner: LocalServiceNode,
    }

    impl ServiceNode for LyingNode {
        fn try_blind_rotate_batch(
            &self,
            ctx: &CkksContext,
            boot: &Bootstrapper,
            lwes: &[LweCiphertext],
        ) -> Result<Vec<RlweCiphertext>, NodeError> {
            let mut accs = self.inner.try_blind_rotate_batch(ctx, boot, lwes)?;
            if let Some(acc) = accs.first_mut() {
                let q = ctx.rns().modulus(0).value();
                let limb = acc.b.limb_mut(0);
                limb[0] = (limb[0] ^ 1) % q;
            }
            Ok(accs)
        }

        fn name(&self) -> String {
            "liar".to_string()
        }
    }

    #[test]
    fn audit_mismatch_quarantines_both_nodes() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(LyingNode {
                inner: LocalServiceNode::new(0, Parallelism::serial()),
            }),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let policy = RetryPolicy {
            audit_fraction: 1.0,
            ..RetryPolicy::test_no_readmission()
        };
        let sched = Scheduler::with_policy(nodes, None, policy).unwrap();
        // Wrong bits must never come back: with the only nodes disagreeing
        // and quarantined, the batch fails rather than guessing.
        match sched.execute(&fix.ctx, &fix.boot, &fix.lwes) {
            Err(RuntimeError::AllNodesFailed(msg)) => {
                assert!(msg.contains("audit"), "got: {msg}")
            }
            other => panic!("expected AllNodesFailed, got {other:?}"),
        }
        let stats = sched.stats();
        assert!(stats.corruption_audit >= 1, "{stats:?}");
        assert_eq!(stats.quarantines, 2, "{stats:?}");
        assert_eq!(sched.healthy_count(), 0, "both nodes quarantined");
    }

    /// Replies with one limb instead of the boot basis's, under an honest
    /// digest over what it sends — a reply the re-encoding cannot take.
    struct OneLimbNode {
        inner: LocalServiceNode,
    }

    impl ServiceNode for OneLimbNode {
        fn try_blind_rotate_batch(
            &self,
            ctx: &CkksContext,
            boot: &Bootstrapper,
            lwes: &[LweCiphertext],
        ) -> Result<Vec<RlweCiphertext>, NodeError> {
            let first = |p: &RnsPoly| RnsPoly::from_limbs(vec![p.limb(0).to_vec()], Domain::Eval);
            let accs = self.inner.try_blind_rotate_batch(ctx, boot, lwes)?;
            Ok(accs
                .iter()
                .map(|acc| RlweCiphertext {
                    a: first(&acc.a),
                    b: first(&acc.b),
                })
                .collect())
        }

        fn try_blind_rotate_attested(
            &self,
            ctx: &CkksContext,
            boot: &Bootstrapper,
            lwes: &[LweCiphertext],
        ) -> Result<AttestedBatch, NodeError> {
            let accs = self.try_blind_rotate_batch(ctx, boot, lwes)?;
            let q0 = [ctx.rns().modulus(0).value()];
            let digest = heap_math::wire::fnv1a(&heap_tfhe::rlwe_batch_to_wire(&accs, &q0));
            Ok(AttestedBatch { accs, digest })
        }
    }

    /// A wrong-shape reply fails its attempt and the shard moves on. Before
    /// the shape check the re-encoding panicked outside the node guard, the
    /// shard never settled, and `execute` waited forever — so the batch
    /// runs under a watchdog, on the default (unhedged) policy.
    #[test]
    fn wrong_shape_reply_is_reassigned_not_hung() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(LocalServiceNode::new(0, Parallelism::serial())),
            Box::new(OneLimbNode {
                inner: LocalServiceNode::new(1, Parallelism::serial()),
            }),
        ];
        let sched = Arc::new(Scheduler::new(nodes).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&sched);
        let batch = std::thread::spawn(move || {
            let _ = tx.send(worker.execute(&fix.ctx, &fix.boot, &fix.lwes));
        });
        let accs = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("execute hung on a wrong-shape reply")
            .unwrap();
        batch.join().expect("batch thread");
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        assert_eq!(sched.stats().node_failures, 1);
    }

    /// Auditing's happy path: two honest nodes compute every shard twice,
    /// agree, and nothing is counted against either.
    #[test]
    fn audit_of_honest_nodes_agrees() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(LocalServiceNode::new(0, Parallelism::serial())),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let policy = RetryPolicy {
            audit_fraction: 1.0,
            ..RetryPolicy::test_no_readmission()
        };
        let sched = Scheduler::with_policy(nodes, None, policy).unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        let stats = sched.stats();
        assert_eq!(stats.shards, 4, "two shards, each on both nodes: {stats:?}");
        assert_eq!(stats.corruption_audit, 0, "{stats:?}");
        assert_eq!(stats.quarantines, 0, "{stats:?}");
        assert_eq!(stats.node_failures, 0, "{stats:?}");
        assert_eq!(stats.reassignments, 0, "{stats:?}");
        assert_eq!(sched.healthy_count(), 2, "both nodes still dispatchable");
    }

    /// An audited shard whose twin fails outright is not a disagreement:
    /// the other node's single validated result stands, with no retry.
    #[test]
    fn audit_survives_one_twin_failing() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(ChaosNode::new(
                Box::new(LocalServiceNode::new(0, Parallelism::serial())),
                "fail".parse::<FaultPlan>().unwrap(),
            )),
            Box::new(LocalServiceNode::new(1, Parallelism::serial())),
        ];
        let policy = RetryPolicy {
            audit_fraction: 1.0,
            ..RetryPolicy::test_no_readmission()
        };
        let sched = Scheduler::with_policy(nodes, None, policy).unwrap();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        let stats = sched.stats();
        assert_eq!(stats.node_failures, 1, "{stats:?}");
        assert_eq!(stats.reassignments, 0, "the single result stood: {stats:?}");
        assert_eq!(stats.corruption_audit, 0, "{stats:?}");
        assert_eq!(stats.quarantines, 0, "{stats:?}");
    }

    /// A stalled (alive but slow) node must stop setting batch latency
    /// once hedging is on: the stuck shard is re-dispatched to the fast
    /// node and the batch completes bit-identically, long before the
    /// straggler would have returned.
    #[test]
    fn hedge_rescues_stalled_shard() {
        let fix = fixture();
        let nodes: Vec<Box<dyn ServiceNode>> = vec![
            Box::new(LocalServiceNode::new(0, Parallelism::serial())),
            Box::new(ChaosNode::new(
                Box::new(LocalServiceNode::new(1, Parallelism::serial())),
                "stall:60000".parse::<FaultPlan>().unwrap(),
            )),
        ];
        let policy = RetryPolicy {
            hedge_after: Some(1.5),
            hedge_min_latency: Duration::from_millis(20),
            hedge_min_samples: 1,
            ..RetryPolicy::test_no_readmission()
        };
        let sched = Scheduler::with_policy(nodes, None, policy).unwrap();
        // Warm-up: a one-shard batch lands on node 0 and seeds its EWMA.
        // Node 1's plan is untouched, and however slow the host is the
        // assertions below only look at what the stalled batch adds.
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes[..1]).unwrap();
        assert_eq!(wire(fix, &accs), serial_reference(fix)[..1]);
        let before = sched.stats();
        assert_eq!(before.shards, 1);
        // Stall batch: node 1 sleeps 60 s; the hedge must win far sooner.
        let t0 = Instant::now();
        let accs = sched.execute(&fix.ctx, &fix.boot, &fix.lwes).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(wire(fix, &accs), serial_reference(fix));
        assert!(
            elapsed < Duration::from_secs(30),
            "stalled node set batch latency: {elapsed:?}"
        );
        let stats = sched.stats();
        assert!(stats.hedges_issued > before.hedges_issued, "{stats:?}");
        assert!(stats.hedges_won > before.hedges_won, "{stats:?}");
        assert_eq!(stats.node_failures, 0, "a stall is not a failure");
    }
}
