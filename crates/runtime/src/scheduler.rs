//! The scheduler's executor: sharded, least-loaded, fault-tolerant
//! dispatch of LWE batches.
//!
//! A flushed batch is split into contiguous shards — one per dispatchable
//! node (the paper's §V primary/secondary scatter) — so results reassemble
//! in input order by construction. Every *decision* of an `execute` call —
//! the partition, which node runs which shard, audits, hedges and when
//! they fire, how racing attempts settle, backoff between rounds, giving up,
//! what to count and what each breaker hears — is made by one pure
//! [`policy::BatchMachine`]; the breaker itself is [`policy::BreakerState`]'s
//! table (its diagram is in the [`crate::policy`] docs). This file is what
//! has to touch the world: node slots (breaker, in-flight count, EWMA), one
//! thread per attempt that calls the node and validates shape and
//! attestation, the batch's one lock and condvar through which attempts
//! feed the machine, and the health prober, which wakes every
//! `probe_interval`, half-opens due `Open` breakers and probes those nodes
//! ([`ServiceNode::probe`] — for a remote node: reconnect, re-handshake,
//! ping). When no regular node is dispatchable and a *fallback* node is
//! configured, the fallback carries the round; only when nothing can serve
//! a shard does the batch fail, with a typed [`RuntimeError`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_math::{Domain, RnsPoly};
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::node::{AttestedBatch, NodeError, ServiceNode};
use crate::policy::{
    self, BatchEvent, BatchMachine, BreakerEvent, BreakerState, Command, NodeView, RetryPolicy,
    Role, Transition,
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

/// One `execute` call, shared with its attempt workers: what they compute
/// on, and the batch machine they feed results into under the one lock.
/// Workers are detached (a stalled loser must not block the batch), so a
/// loser that reports after `execute` returned still books what it owes.
struct Batch {
    ctx: Arc<CkksContext>,
    boot: Arc<Bootstrapper>,
    lwes: Vec<LweCiphertext>,
    machine: Mutex<BatchMachine<Vec<RlweCiphertext>>>,
    cv: Condvar,
}

/// State shared between the scheduler handle and its prober thread.
struct Inner {
    /// The regular nodes, then the last-resort slot if one is configured.
    slots: Vec<NodeSlot>,
    /// Each slot's node name, for the machines' messages.
    names: Arc<[String]>,
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
    fn fleet(&self) -> Vec<NodeView> {
        let view = |slot: &NodeSlot| NodeView {
            role: slot.role,
            up: lock(&slot.breaker).is_dispatchable(),
            holds_key: slot.node.holds_key(),
            inflight: slot.inflight.load(Ordering::Relaxed),
            ewma_ns: slot.ewma_ns.load(Ordering::Relaxed),
            samples: slot.ewma_samples.load(Ordering::Relaxed),
        };
        self.slots.iter().map(view).collect()
    }

    /// The dispatchable slots of `role`, in slot order.
    fn up(&self, role: Role) -> impl Iterator<Item = usize> + '_ {
        let up = move |&i: &usize| {
            self.slots[i].role == role && lock(&self.slots[i].breaker).is_dispatchable()
        };
        (0..self.slots.len()).filter(up)
    }

    /// Feeds one event through a node's breaker table and books the
    /// transition it answers with — the one place a transition is counted
    /// and logged, whichever of a shard, a probe or an audit caused it.
    /// Returns whether the state changed.
    fn step(&self, node_idx: usize, event: BreakerEvent, why: &str, now: Instant) -> bool {
        let slot = &self.slots[node_idx];
        let mut state = lock(&slot.breaker);
        let (next, transition) = state.on(event, slot.role, &self.policy, now);
        let changed = std::mem::replace(&mut *state, next) != next;
        drop(state);
        let counters = &self.telemetry.counters;
        let (counter, kind) = match transition {
            Some(Transition::Opened) => (&counters.breaker_opens, "breaker_open"),
            Some(Transition::Readmitted) => (&counters.readmissions, "readmission"),
            Some(Transition::Quarantined) => (&counters.quarantines, "quarantine"),
            // Kept as found: an abandoned last resort books nothing (its
            // failure itself is counted as a node failure).
            Some(Transition::Abandoned) | None => return changed,
        };
        counter.inc();
        self.telemetry
            .events
            .record(kind, &self.names[node_idx], why);
        changed
    }

    /// Carries out a machine's commands, under the batch's lock.
    fn run(self: &Arc<Self>, batch: &Arc<Batch>, now: Instant, commands: Vec<Command>) {
        for command in commands {
            match command {
                Command::Launch(attempt, node, range) => {
                    self.slots[node]
                        .inflight
                        .fetch_add(range.len(), Ordering::Relaxed);
                    let (inner, batch) = (Arc::clone(self), Arc::clone(batch));
                    std::thread::Builder::new()
                        .name("heap-shard".into())
                        .spawn(move || inner.attempt(&batch, attempt, node, range))
                        .expect("spawn shard worker");
                }
                Command::Breaker(node, event, why) => {
                    self.step(node, event, &why, now);
                }
                Command::Count(tally, n) => tally(&self.telemetry.counters).add(n),
                Command::RoundTrip(node, ns, valid) => {
                    self.telemetry.shard_round_trip_ns.record(ns);
                    let slot = &self.slots[node];
                    if valid {
                        let old = slot.ewma_ns.load(Ordering::Relaxed);
                        let next = policy::ewma_fold(old, ns.max(1));
                        slot.ewma_ns.store(next, Ordering::Relaxed);
                        slot.ewma_samples.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Command::Log(kind, subject, why) => {
                    self.telemetry.events.record(kind, &subject, &why);
                }
            }
        }
    }

    /// One attempt, on its own thread: call the node, validate the reply,
    /// and feed the result to the batch's machine.
    fn attempt(self: &Arc<Self>, batch: &Arc<Batch>, id: usize, node: usize, range: Range<usize>) {
        let (ctx, slot, shard) = (&batch.ctx, &self.slots[node], &batch.lwes[range]);
        // A panicking node — or a reply whose validation panics — must not
        // take the whole batch down: it is that attempt failing, so every
        // launched attempt reports exactly once and retry/hedging handle it.
        let call = || {
            let reply = slot.node.try_blind_rotate_attested(ctx, &batch.boot, shard);
            reply.and_then(|b| check_reply(ctx, shard.len(), b))
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
            .unwrap_or_else(|_| Err(NodeError::Io("node panicked".into())));
        let now = Instant::now();
        slot.inflight.fetch_sub(shard.len(), Ordering::Relaxed);
        let result = result.map(|b| (b.digest, b.accs));
        let mut machine = lock(&batch.machine);
        let commands = machine.on(now, BatchEvent::Done(id, result));
        self.run(batch, now, commands);
        batch.cv.notify_all();
    }

    /// One prober pass: half-open due breakers and probe those nodes.
    fn probe_round(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            // `ProbeDue` changes exactly one kind of state — an `Open`
            // breaker past its deadline, to `HalfOpen` — and that is the
            // cue to spend a probe on the node.
            if !self.step(i, BreakerEvent::ProbeDue, "", Instant::now()) {
                continue;
            }
            let (event, why) = match slot.node.probe() {
                Ok(()) => (BreakerEvent::Succeeded, "probe succeeded".to_string()),
                Err(e) => (BreakerEvent::Failed, format!("probe failed: {e}")),
            };
            self.step(i, event, &why, Instant::now());
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
        let slot = |(node, role): (Box<dyn ServiceNode>, Role)| NodeSlot {
            node,
            role,
            breaker: Mutex::new(BreakerState::NEW),
            inflight: AtomicUsize::new(0),
            ewma_ns: AtomicU64::new(0),
            ewma_samples: AtomicU64::new(0),
        };
        let slots: Vec<NodeSlot> = (nodes.into_iter().map(|node| (node, Role::Regular)))
            .chain(fallback.map(|node| (node, Role::LastResort)))
            .map(slot)
            .collect();
        let inner = Arc::new(Inner {
            names: slots.iter().map(|slot| slot.node.name()).collect(),
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
        self.inner.up(Role::Regular).count()
    }

    /// Names of the dispatchable nodes.
    pub fn healthy_names(&self) -> Vec<String> {
        let up = self.inner.up(Role::Regular);
        up.map(|i| self.inner.names[i].clone()).collect()
    }

    /// Whether a fallback node is configured and still trusted.
    pub fn has_fallback(&self) -> bool {
        self.inner.up(Role::LastResort).next().is_some()
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
        let batch_no = inner.batch_seq.fetch_add(1, Ordering::Relaxed);
        let names = Arc::clone(&inner.names);
        let batch = Arc::new(Batch {
            ctx: Arc::clone(ctx),
            boot: Arc::clone(boot),
            lwes: lwes.to_vec(),
            machine: Mutex::new(BatchMachine::new(inner.policy, batch_no, lwes.len(), names)),
            cv: Condvar::new(),
        });
        let mut machine = lock(&batch.machine);
        loop {
            let now = Instant::now();
            let commands = machine.on(now, BatchEvent::Wake(&inner.fleet()));
            inner.run(&batch, now, commands);
            if let Some(result) = machine.take_result() {
                let accs = |shards: Vec<Vec<_>>| shards.into_iter().flatten().collect();
                return result.map(accs).map_err(RuntimeError::AllNodesFailed);
            }
            // A predicate on the machine's own state: a result fed before
            // this wait moved the deadline, so it cannot be slept through.
            let armed = machine.wake_at();
            let timeout = armed.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
            let waited = batch
                .cv
                .wait_timeout_while(machine, timeout, |m| m.wake_at() == armed);
            machine = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
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
        assert_eq!(policy::rank(&sched.inner.fleet()), vec![1, 2, 0]);
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
