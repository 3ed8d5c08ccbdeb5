//! Sharding, least-loaded dispatch, and fault-tolerant reassignment.
//!
//! A flushed batch of LWE ciphertexts is split into contiguous shards —
//! one per dispatchable node (the paper's §V primary/secondary scatter) —
//! so results reassemble in input order by construction. Shards go to
//! nodes least-loaded-first (load = blind rotations currently in flight on
//! that node, which matters when several batches overlap or nodes differ
//! in speed).
//!
//! Failure handling is a per-node circuit breaker plus per-shard retry
//! with exponential backoff:
//!
//! ```text
//!            failure (threshold consecutive)
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ open_for elapses
//!     │ success (readmission)                 ▼ (prober)
//!     └───────────────────────────────── HalfOpen
//!                 failure: back to Open, doubled duration
//! ```
//!
//! A node whose breaker is `Open` receives no shards. A background
//! health prober wakes every `probe_interval`, moves due `Open` breakers
//! to `HalfOpen`, and probes the node ([`ServiceNode::probe`] — for a
//! remote node: reconnect, re-handshake, ping). A successful probe (or a
//! successful `HalfOpen` shard) *readmits* the node into dispatch; a
//! failed one re-opens the breaker with doubled duration. Failed shards
//! are reassigned to the surviving nodes with exponential backoff and
//! deterministic jitter between rounds. When dispatchable capacity drops
//! below [`RetryPolicy::min_dispatch_nodes`] and a *fallback* node is
//! configured, the fallback joins the rotation — a batch never fails
//! while the host itself can still compute. Only when nothing can serve
//! a shard does the batch fail, with a typed [`RuntimeError`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::node::{NodeError, ServiceNode};
use crate::telemetry::SchedulerTelemetry;
use crate::RuntimeError;

/// Retry, circuit-breaker, probing, hedging, and degradation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-dispatch rounds per batch before giving up (round 0 is the
    /// initial dispatch).
    pub max_rounds: usize,
    /// Backoff before re-dispatch round `r` is
    /// `min(base_backoff · 2^(r-1), max_backoff)`, stretched by up to
    /// +50% deterministic jitter. Zero disables backoff sleeps.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff.
    pub max_backoff: Duration,
    /// Consecutive failures that open a node's breaker.
    pub breaker_threshold: u32,
    /// How long a breaker stays open before the prober half-opens it;
    /// doubles on each consecutive re-open.
    pub breaker_open_for: Duration,
    /// Cap on the doubled open duration.
    pub breaker_max_open: Duration,
    /// Health-prober wake interval (zero disables the prober).
    pub probe_interval: Duration,
    /// When fewer than this many regular nodes are dispatchable and a
    /// fallback is configured, the fallback joins the rotation.
    pub min_dispatch_nodes: usize,
    /// Straggler hedging: when `Some(m)`, a shard still unresolved after
    /// `max(hedge_min_latency, m × fastest-other-node shard EWMA)` is
    /// speculatively re-dispatched to the best node that has not yet
    /// tried it; the first bit-valid result wins and the loser is
    /// discarded (and counted). `None` disables hedging.
    pub hedge_after: Option<f64>,
    /// Floor on the hedge trigger, so tiny EWMAs never cause a hedge
    /// storm on healthy fleets.
    pub hedge_min_latency: Duration,
    /// Shard-latency samples a candidate node needs before its EWMA may
    /// serve as the hedge reference (cold nodes neither trigger nor
    /// anchor hedges).
    pub hedge_min_samples: u64,
    /// Fraction of shards (deterministically sampled) redundantly
    /// dispatched to a second node and bit-compared; a digest mismatch
    /// quarantines both nodes. `0.0` disables auditing.
    pub audit_fraction: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_rounds: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            breaker_threshold: 1,
            breaker_open_for: Duration::from_millis(250),
            breaker_max_open: Duration::from_secs(5),
            probe_interval: Duration::from_millis(100),
            min_dispatch_nodes: 1,
            hedge_after: None,
            hedge_min_latency: Duration::from_millis(25),
            hedge_min_samples: 3,
            audit_fraction: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Millisecond-scale breaker/probe timings for fast deterministic
    /// tests: failures open immediately, probes run every 10 ms, and
    /// backoff sleeps stay negligible.
    pub fn test_fast() -> Self {
        Self {
            max_rounds: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            breaker_threshold: 1,
            breaker_open_for: Duration::from_millis(20),
            breaker_max_open: Duration::from_millis(200),
            probe_interval: Duration::from_millis(10),
            min_dispatch_nodes: 1,
            ..Self::default()
        }
    }

    /// [`RetryPolicy::test_fast`] with breakers that never half-open
    /// within a test's lifetime — for asserting that failed nodes *stay*
    /// out of dispatch.
    pub fn test_no_readmission() -> Self {
        Self {
            breaker_open_for: Duration::from_secs(3600),
            breaker_max_open: Duration::from_secs(3600),
            probe_interval: Duration::from_secs(3600),
            ..Self::test_fast()
        }
    }
}

/// splitmix64: the deterministic jitter source (no global RNG, no wall
/// clock — identical runs jitter identically).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A jitter factor in `[0, 1)` derived from `(batch, round)`.
fn jitter01(batch: u64, round: usize) -> f64 {
    (splitmix64(batch.wrapping_mul(31).wrapping_add(round as u64)) >> 11) as f64
        / (1u64 << 53) as f64
}

/// An audit-sampling draw in `[0, 1)` derived from `(batch, slot)` —
/// deterministic like the jitter, but on an independent stream so audit
/// picks never correlate with backoff stretching.
fn audit01(batch: u64, slot: usize) -> f64 {
    (splitmix64(
        batch
            .wrapping_mul(0x517C_C1B7_2722_0A95)
            .wrapping_add(slot as u64),
    ) >> 11) as f64
        / (1u64 << 53) as f64
}

/// Circuit-breaker state for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Dispatchable; counts consecutive failures toward the threshold.
    Closed { consecutive: u32 },
    /// Out of dispatch until `until`; `streak` consecutive opens scale
    /// the next open duration.
    Open { until: Instant, streak: u32 },
    /// Trial mode: one probe or shard decides readmission vs re-open.
    HalfOpen { streak: u32 },
    /// Caught returning wrong bits (audit mismatch): permanently out of
    /// dispatch — the prober never half-opens it and successes never
    /// readmit it. Corruption is not a transient a retry can outwait.
    Quarantined,
}

#[derive(Debug)]
struct Breaker {
    state: Mutex<BreakerState>,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: Mutex::new(BreakerState::Closed { consecutive: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Closed or HalfOpen nodes accept shards.
    fn is_dispatchable(&self) -> bool {
        !matches!(
            *self.lock(),
            BreakerState::Open { .. } | BreakerState::Quarantined
        )
    }

    /// Permanently removes the node from dispatch (audit mismatch).
    /// Returns `true` when the node was not already quarantined.
    fn quarantine(&self) -> bool {
        let mut state = self.lock();
        if matches!(*state, BreakerState::Quarantined) {
            return false;
        }
        *state = BreakerState::Quarantined;
        true
    }

    /// Records a successful call. Returns `true` when this *readmitted*
    /// the node (HalfOpen → Closed). Quarantine is sticky: a success
    /// from a quarantined node (a late hedge loser) changes nothing.
    fn on_success(&self) -> bool {
        let mut state = self.lock();
        if matches!(*state, BreakerState::Quarantined) {
            return false;
        }
        let was_half_open = matches!(*state, BreakerState::HalfOpen { .. });
        *state = BreakerState::Closed { consecutive: 0 };
        was_half_open
    }

    /// Records a failed call. Returns `true` when this opened the
    /// breaker (Closed past threshold, or a failed HalfOpen trial).
    fn on_failure(&self, policy: &RetryPolicy, now: Instant) -> bool {
        let mut state = self.lock();
        match *state {
            BreakerState::Quarantined => false,
            BreakerState::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= policy.breaker_threshold {
                    *state = BreakerState::Open {
                        until: now + policy.breaker_open_for,
                        streak: 1,
                    };
                    true
                } else {
                    *state = BreakerState::Closed { consecutive };
                    false
                }
            }
            BreakerState::HalfOpen { streak } | BreakerState::Open { streak, .. } => {
                let streak = streak.saturating_add(1);
                let open_for = policy
                    .breaker_open_for
                    .saturating_mul(1u32 << (streak - 1).min(16))
                    .min(policy.breaker_max_open);
                *state = BreakerState::Open {
                    until: now + open_for,
                    streak,
                };
                true
            }
        }
    }

    /// Open past its deadline → HalfOpen; returns `true` if the caller
    /// should now probe the node.
    fn half_open_if_due(&self, now: Instant) -> bool {
        let mut state = self.lock();
        if let BreakerState::Open { until, streak } = *state {
            if now >= until {
                *state = BreakerState::HalfOpen { streak };
                return true;
            }
        }
        false
    }
}

/// Counters accumulated across a scheduler's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Batches executed to completion (success or failure).
    pub batches: u64,
    /// Shards dispatched, including reassigned, hedged, audit-twin, and
    /// fallback ones.
    pub shards: u64,
    /// Shards re-dispatched after a failed attempt.
    pub reassignments: u64,
    /// Failed node calls (transport, protocol, timeout, short reply,
    /// integrity).
    pub node_failures: u64,
    /// Breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Nodes readmitted into dispatch (HalfOpen → Closed).
    pub readmissions: u64,
    /// Shards served by the fallback node.
    pub fallback_shards: u64,
    /// Speculative hedge attempts dispatched for straggling shards.
    pub hedges_issued: u64,
    /// Shards whose winning result came from a hedge attempt.
    pub hedges_won: u64,
    /// Valid results discarded because another attempt already won.
    pub hedges_wasted: u64,
    /// Corruption caught by the wire CRC layer.
    pub corruption_crc: u64,
    /// Corruption caught by the end-to-end attestation digest.
    pub corruption_attest: u64,
    /// Corruption caught by redundant-dispatch audit comparison.
    pub corruption_audit: u64,
    /// Nodes permanently quarantined after an audit mismatch.
    pub quarantines: u64,
}

struct NodeSlot {
    node: Box<dyn ServiceNode>,
    breaker: Breaker,
    /// Blind rotations currently in flight on this node.
    inflight: AtomicUsize,
    /// EWMA of this node's shard round-trip latency in nanoseconds
    /// (`(3·old + sample) / 4`, successes only) — the hedge trigger's
    /// reference clock.
    ewma_ns: AtomicU64,
    /// Successful shard samples folded into the EWMA.
    ewma_samples: AtomicU64,
}

/// One shard's bookkeeping within a dispatch round. Attempts (primary,
/// audit twin, hedge) race to resolve it; workers mutate this under the
/// round lock.
struct ShardRound {
    /// Output slot in the batch.
    slot: usize,
    /// The shard's LWE index range.
    range: std::ops::Range<usize>,
    /// Attempts currently in flight.
    outstanding: usize,
    /// Node indices already attempted (never hedge to one of these).
    tried: Vec<usize>,
    /// Audit shard: resolves only on two bit-equal validated results
    /// (or one, if every other attempt failed outright).
    audit: bool,
    /// A hedge was issued for this shard.
    hedged: bool,
    /// When the round's first attempt was dispatched (hedge timing).
    started: Instant,
    /// First validated result, held for audit comparison.
    held: Option<(usize, u64, Vec<RlweCiphertext>)>,
    /// The winning accumulators once resolved.
    winner: Option<Vec<RlweCiphertext>>,
    /// A validated result won; late arrivals are discarded.
    resolved: bool,
    /// Every attempt failed; the shard re-enters `pending` next round.
    failed: bool,
}

struct RoundState {
    shards: Vec<ShardRound>,
    /// Shards neither resolved nor failed yet; the round ends at zero.
    unresolved: usize,
    last_err: String,
}

/// Shared between the dispatching batch loop and its detached workers.
/// Workers from a *previous* round may still be running (stragglers,
/// hedge losers); they hold their own round's `Arc` and can never touch
/// a later round's state.
struct Round {
    state: Mutex<RoundState>,
    cv: Condvar,
}

impl Round {
    fn lock(&self) -> std::sync::MutexGuard<'_, RoundState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Sentinel node index for the fallback in an assignment round.
const FALLBACK: usize = usize::MAX;

/// State shared between the scheduler handle and its prober thread.
struct Inner {
    slots: Vec<NodeSlot>,
    /// Local last resort when remote capacity degrades; never breaker-
    /// gated, but abandoned for good if it ever fails.
    fallback: Option<Box<dyn ServiceNode>>,
    fallback_failed: AtomicBool,
    fallback_inflight: AtomicUsize,
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
    /// Dispatchable node indices: key-holding nodes first (a node that
    /// already caches the batch's evaluation key skips the upload), then
    /// least-loaded (stable on ties), with the [`FALLBACK`] sentinel
    /// appended when capacity has degraded below the policy floor and a
    /// fallback is available.
    fn ranked_dispatchable(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].breaker.is_dispatchable())
            .collect();
        idx.sort_by_key(|&i| {
            let slot = &self.slots[i];
            (
                !slot.node.holds_key(),
                slot.inflight.load(Ordering::Relaxed),
            )
        });
        if idx.len() < self.policy.min_dispatch_nodes
            && self.fallback.is_some()
            && !self.fallback_failed.load(Ordering::Relaxed)
        {
            idx.push(FALLBACK);
        }
        idx
    }

    fn node(&self, idx: usize) -> &dyn ServiceNode {
        if idx == FALLBACK {
            self.fallback.as_deref().expect("fallback configured")
        } else {
            self.slots[idx].node.as_ref()
        }
    }

    fn inflight(&self, idx: usize) -> &AtomicUsize {
        if idx == FALLBACK {
            &self.fallback_inflight
        } else {
            &self.slots[idx].inflight
        }
    }

    fn record_success(&self, node_idx: usize) {
        if node_idx == FALLBACK {
            return;
        }
        let slot = &self.slots[node_idx];
        if slot.breaker.on_success() {
            self.telemetry.readmissions.inc();
            self.telemetry.events.record(
                "readmission",
                &slot.node.name(),
                "half-open shard succeeded",
            );
        }
    }

    /// Books a failed attempt: failure counter, corruption-layer counter
    /// for integrity failures, breaker transition. Returns the
    /// `node: why` string the batch keeps as its last error.
    fn record_failure(&self, node_idx: usize, err: &NodeError) -> String {
        self.telemetry.node_failures.inc();
        let why = err.to_string();
        if let NodeError::Corrupt { phase, .. } = err {
            match *phase {
                "crc" => self.telemetry.corruption_crc.inc(),
                "audit" => self.telemetry.corruption_audit.inc(),
                _ => self.telemetry.corruption_attest.inc(),
            }
            let name = if node_idx == FALLBACK {
                self.fallback.as_ref().expect("fallback configured").name()
            } else {
                self.slots[node_idx].node.name()
            };
            self.telemetry.events.record("corruption", &name, &why);
        }
        if node_idx == FALLBACK {
            self.fallback_failed.store(true, Ordering::Relaxed);
            return format!(
                "{}: {why}",
                self.fallback.as_ref().expect("fallback configured").name()
            );
        }
        let slot = &self.slots[node_idx];
        if slot.breaker.on_failure(&self.policy, Instant::now()) {
            self.telemetry.breaker_opens.inc();
            self.telemetry
                .events
                .record("breaker_open", &slot.node.name(), &why);
        }
        format!("{}: {why}", slot.node.name())
    }

    /// Permanently removes a node from dispatch after it was caught
    /// returning wrong bits (audit mismatch). Idempotent: a node is
    /// counted and logged once.
    fn quarantine(&self, node_idx: usize, why: &str) {
        if node_idx == FALLBACK {
            if !self.fallback_failed.swap(true, Ordering::Relaxed) {
                self.telemetry.quarantines.inc();
                self.telemetry.events.record("quarantine", "fallback", why);
            }
            return;
        }
        let slot = &self.slots[node_idx];
        if slot.breaker.quarantine() {
            self.telemetry.quarantines.inc();
            self.telemetry
                .events
                .record("quarantine", &slot.node.name(), why);
        }
    }

    /// Dispatches one attempt of one shard on a detached worker thread.
    /// The caller holds the round lock (`st`) so attempt bookkeeping and
    /// the spawn are atomic with respect to other workers.
    #[allow(clippy::too_many_arguments)]
    fn spawn_attempt(
        self: &Arc<Self>,
        ctx: &Arc<CkksContext>,
        boot: &Arc<Bootstrapper>,
        lwes: &Arc<Vec<LweCiphertext>>,
        round: &Arc<Round>,
        st: &mut RoundState,
        shard_idx: usize,
        node_idx: usize,
        hedge: bool,
    ) {
        let sh = &mut st.shards[shard_idx];
        let range = sh.range.clone();
        sh.outstanding += 1;
        sh.tried.push(node_idx);
        if hedge {
            sh.hedged = true;
            self.telemetry.hedges_issued.inc();
        }
        self.inflight(node_idx)
            .fetch_add(range.len(), Ordering::Relaxed);
        self.telemetry.shards.inc();
        if node_idx == FALLBACK {
            self.telemetry.fallback_shards.inc();
        }
        let (inner, ctx, boot, lwes, round) = (
            Arc::clone(self),
            Arc::clone(ctx),
            Arc::clone(boot),
            Arc::clone(lwes),
            Arc::clone(round),
        );
        std::thread::Builder::new()
            .name("heap-shard".into())
            .spawn(move || {
                inner.shard_attempt(
                    &ctx, &boot, &lwes, &round, shard_idx, node_idx, hedge, range,
                )
            })
            .expect("spawn shard worker");
    }

    /// One attempt, worker-side: call the node, validate shape and
    /// attestation, then settle into the round state. Late results for
    /// already-resolved shards (hedge losers, stragglers) are discarded
    /// here — they never reach the caller.
    #[allow(clippy::too_many_arguments)]
    fn shard_attempt(
        &self,
        ctx: &Arc<CkksContext>,
        boot: &Arc<Bootstrapper>,
        lwes: &Arc<Vec<LweCiphertext>>,
        round: &Round,
        shard_idx: usize,
        node_idx: usize,
        hedge: bool,
        range: std::ops::Range<usize>,
    ) {
        let shard = &lwes[range];
        let t0 = Instant::now();
        // A panicking node must not take the whole batch down: treat it
        // as that attempt failing and let retry/hedging handle it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.node(node_idx)
                .try_blind_rotate_attested(ctx, boot, shard)
        }))
        .unwrap_or_else(|_| Err(NodeError::Io("node panicked".into())));
        let elapsed = t0.elapsed();
        self.telemetry
            .shard_round_trip_ns
            .record(elapsed.as_nanos() as u64);
        self.inflight(node_idx)
            .fetch_sub(shard.len(), Ordering::Relaxed);
        let result = result.and_then(|batch| {
            if batch.accs.len() != shard.len() {
                return Err(NodeError::Mismatch("short reply"));
            }
            // Re-encode what we received and recompute the digest: the
            // wire encoding is canonical, so this equals digesting the
            // bytes the node sent — end-to-end, transport-independent.
            if crate::node::attest_digest(ctx, &batch.accs) != batch.digest {
                return Err(NodeError::Corrupt {
                    frame: "accumulators".into(),
                    phase: "attest",
                });
            }
            Ok(batch)
        });
        let mut st = round.lock();
        st.shards[shard_idx].outstanding -= 1;
        match result {
            Ok(batch) => {
                if node_idx != FALLBACK {
                    let slot = &self.slots[node_idx];
                    let sample = (elapsed.as_nanos() as u64).max(1);
                    // Racy read-modify-write is fine: the EWMA only
                    // anchors the hedge trigger, and writers converge it.
                    let old = slot.ewma_ns.load(Ordering::Relaxed);
                    let next = if old == 0 {
                        sample
                    } else {
                        (3 * old + sample) / 4
                    };
                    slot.ewma_ns.store(next, Ordering::Relaxed);
                    slot.ewma_samples.fetch_add(1, Ordering::Relaxed);
                }
                self.record_success(node_idx);
                let sh = &mut st.shards[shard_idx];
                if sh.resolved || sh.failed {
                    // A racer already settled this shard; this valid
                    // result is the discarded loser.
                    if sh.hedged {
                        self.telemetry.hedges_wasted.inc();
                    }
                } else if sh.audit {
                    match sh.held.take() {
                        None if sh.outstanding > 0 => {
                            sh.held = Some((node_idx, batch.digest, batch.accs));
                        }
                        None => {
                            // The twin failed outright earlier; a single
                            // validated result stands.
                            sh.winner = Some(batch.accs);
                            sh.resolved = true;
                            st.unresolved -= 1;
                            round.cv.notify_all();
                        }
                        Some((_, other_digest, other_accs)) if other_digest == batch.digest => {
                            sh.winner = Some(other_accs);
                            sh.resolved = true;
                            st.unresolved -= 1;
                            round.cv.notify_all();
                        }
                        Some((other_node, _, _)) => {
                            // Two "valid" results that disagree: at least
                            // one node lied convincingly (digest
                            // consistent with wrong bits). Trust neither;
                            // quarantine both.
                            sh.failed = true;
                            self.telemetry.corruption_audit.inc();
                            self.quarantine(node_idx, "audit digest mismatch");
                            self.quarantine(other_node, "audit digest mismatch");
                            st.last_err = NodeError::Corrupt {
                                frame: "accumulators".into(),
                                phase: "audit",
                            }
                            .to_string();
                            st.unresolved -= 1;
                            round.cv.notify_all();
                        }
                    }
                } else {
                    sh.winner = Some(batch.accs);
                    sh.resolved = true;
                    if hedge {
                        self.telemetry.hedges_won.inc();
                    }
                    st.unresolved -= 1;
                    round.cv.notify_all();
                }
            }
            Err(e) => {
                st.last_err = self.record_failure(node_idx, &e);
                let sh = &mut st.shards[shard_idx];
                if !sh.resolved && !sh.failed && sh.outstanding == 0 {
                    if let Some((_, _, accs)) = sh.held.take() {
                        sh.winner = Some(accs);
                        sh.resolved = true;
                    } else {
                        sh.failed = true;
                    }
                    st.unresolved -= 1;
                    round.cv.notify_all();
                }
            }
        }
    }

    /// One prober pass: half-open due breakers and probe those nodes.
    fn probe_round(&self) {
        for slot in &self.slots {
            let now = Instant::now();
            if !slot.breaker.half_open_if_due(now) {
                continue;
            }
            match slot.node.probe() {
                Ok(()) => {
                    if slot.breaker.on_success() {
                        self.telemetry.readmissions.inc();
                        self.telemetry.events.record(
                            "readmission",
                            &slot.node.name(),
                            "probe succeeded",
                        );
                    }
                }
                Err(e) => {
                    // HalfOpen failure always re-opens; already counted
                    // as an open the first time, but each re-open is a
                    // distinct transition worth counting.
                    if slot.breaker.on_failure(&self.policy, Instant::now()) {
                        self.telemetry.breaker_opens.inc();
                        self.telemetry.events.record(
                            "breaker_open",
                            &slot.node.name(),
                            &format!("probe failed: {e}"),
                        );
                    }
                }
            }
        }
    }
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
    /// fallback node used when remote capacity degrades below
    /// [`RetryPolicy::min_dispatch_nodes`].
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
        let inner = Arc::new(Inner {
            slots: nodes
                .into_iter()
                .map(|node| NodeSlot {
                    node,
                    breaker: Breaker::new(),
                    inflight: AtomicUsize::new(0),
                    ewma_ns: AtomicU64::new(0),
                    ewma_samples: AtomicU64::new(0),
                })
                .collect(),
            fallback,
            fallback_failed: AtomicBool::new(false),
            fallback_inflight: AtomicUsize::new(0),
            policy,
            batch_seq: AtomicU64::new(0),
            telemetry,
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        let prober = (policy.probe_interval > Duration::ZERO && !inner.slots.is_empty())
            .then(|| spawn_prober(&inner));
        Ok(Self {
            inner,
            prober: Mutex::new(prober),
        })
    }

    /// Total node count (fallback excluded, dispatchable or not).
    pub fn node_count(&self) -> usize {
        self.inner.slots.len()
    }

    /// Nodes currently dispatchable (breaker Closed or HalfOpen).
    pub fn healthy_count(&self) -> usize {
        self.inner
            .slots
            .iter()
            .filter(|s| s.breaker.is_dispatchable())
            .count()
    }

    /// Names of the dispatchable nodes.
    pub fn healthy_names(&self) -> Vec<String> {
        self.inner
            .slots
            .iter()
            .filter(|s| s.breaker.is_dispatchable())
            .map(|s| s.node.name())
            .collect()
    }

    /// Whether a fallback node is configured and still trusted.
    pub fn has_fallback(&self) -> bool {
        self.inner.fallback.is_some() && !self.inner.fallback_failed.load(Ordering::Relaxed)
    }

    /// Snapshot of the lifetime counters. These read the *same* atomics
    /// the telemetry registry exposes, so a scraped `/metrics` endpoint
    /// and this struct can never disagree.
    pub fn stats(&self) -> SchedulerStats {
        let t = &self.inner.telemetry;
        SchedulerStats {
            batches: t.batches.get(),
            shards: t.shards.get(),
            reassignments: t.reassignments.get(),
            node_failures: t.node_failures.get(),
            breaker_opens: t.breaker_opens.get(),
            readmissions: t.readmissions.get(),
            fallback_shards: t.fallback_shards.get(),
            hedges_issued: t.hedges_issued.get(),
            hedges_won: t.hedges_won.get(),
            hedges_wasted: t.hedges_wasted.get(),
            corruption_crc: t.corruption_crc.get(),
            corruption_attest: t.corruption_attest.get(),
            corruption_audit: t.corruption_audit.get(),
            quarantines: t.quarantines.get(),
        }
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
        inner.telemetry.batches.inc();
        if lwes.is_empty() {
            return Ok(Vec::new());
        }
        // Workers are detached (a stalled loser must not block the
        // batch), so they share the inputs by `Arc` rather than borrow.
        let lwes: Arc<Vec<LweCiphertext>> = Arc::new(lwes.to_vec());
        let mut out: Vec<Option<Vec<RlweCiphertext>>> = Vec::new();
        // (output slot, shard range) pairs still awaiting a valid result.
        let mut pending: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
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
        let mut last_err = String::new();
        let mut round_no = 0usize;
        while !pending.is_empty() {
            if round_no > inner.policy.max_rounds {
                return Err(RuntimeError::AllNodesFailed(format!(
                    "retry budget exhausted after {} rounds (last error: {last_err})",
                    inner.policy.max_rounds
                )));
            }
            let ranked = inner.ranked_dispatchable();
            if ranked.is_empty() {
                return Err(RuntimeError::AllNodesFailed(last_err));
            }
            if round_no > 0 {
                inner.telemetry.reassignments.add(pending.len() as u64);
                inner.telemetry.events.record(
                    "retry",
                    &format!("batch-{batch_no}"),
                    &format!("round {round_no}: {} shards re-dispatched", pending.len()),
                );
                self.backoff(batch_no, round_no);
            }
            // Audit sampling happens on the initial round only — retries
            // of a failed shard should converge, not multiply.
            let audit_on = round_no == 0 && inner.policy.audit_fraction > 0.0 && ranked.len() >= 2;
            let round = Arc::new(Round {
                state: Mutex::new(RoundState {
                    shards: pending
                        .iter()
                        .map(|(slot, range)| ShardRound {
                            slot: *slot,
                            range: range.clone(),
                            outstanding: 0,
                            tried: Vec::new(),
                            audit: false,
                            hedged: false,
                            started: Instant::now(),
                            held: None,
                            winner: None,
                            resolved: false,
                            failed: false,
                        })
                        .collect(),
                    unresolved: pending.len(),
                    last_err: String::new(),
                }),
                cv: Condvar::new(),
            });
            {
                // Shard j of this round goes to the j-th least-loaded
                // node (wrapping when shards outnumber dispatchable
                // nodes); an audited shard also goes to the next node.
                let mut st = round.lock();
                for j in 0..st.shards.len() {
                    let node_idx = ranked[j % ranked.len()];
                    let audit = audit_on
                        && audit01(batch_no, st.shards[j].slot) < inner.policy.audit_fraction;
                    st.shards[j].audit = audit;
                    inner.spawn_attempt(ctx, boot, &lwes, &round, &mut st, j, node_idx, false);
                    if audit {
                        let twin = ranked[(j + 1) % ranked.len()];
                        inner.spawn_attempt(ctx, boot, &lwes, &round, &mut st, j, twin, false);
                    }
                }
            }
            // Wait for the round to settle, firing hedges for stragglers.
            let tick = if inner.policy.hedge_after.is_some() {
                (inner.policy.hedge_min_latency / 4).max(Duration::from_millis(1))
            } else {
                Duration::from_secs(60)
            };
            loop {
                let st = round.lock();
                if st.unresolved == 0 {
                    break;
                }
                let (st, _) = round
                    .cv
                    .wait_timeout(st, tick)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if st.unresolved == 0 {
                    break;
                }
                drop(st);
                if inner.policy.hedge_after.is_some() {
                    self.hedge_stragglers(ctx, boot, &lwes, &round);
                }
            }
            // Collect: winners into the output, the rest back to pending.
            let mut st = round.lock();
            if !st.last_err.is_empty() {
                last_err = std::mem::take(&mut st.last_err);
            }
            pending.clear();
            for sh in st.shards.iter_mut() {
                if sh.resolved {
                    out[sh.slot] = Some(sh.winner.take().expect("resolved shard has winner"));
                } else {
                    pending.push((sh.slot, sh.range.clone()));
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

    /// Fires at most one hedge per straggling shard: a shard whose round
    /// has run past `max(hedge_min_latency, hedge_after × fastest other
    /// node's EWMA)` is re-dispatched to that fastest untried node. The
    /// reference is the *best other node's* EWMA rather than a fleet
    /// p99 — one straggler in a small fleet drags the p99 up to its own
    /// latency, which would disable exactly the hedge meant to beat it.
    fn hedge_stragglers(
        &self,
        ctx: &Arc<CkksContext>,
        boot: &Arc<Bootstrapper>,
        lwes: &Arc<Vec<LweCiphertext>>,
        round: &Arc<Round>,
    ) {
        let inner = &self.inner;
        let Some(multiple) = inner.policy.hedge_after else {
            return;
        };
        let now = Instant::now();
        let mut st = round.lock();
        for j in 0..st.shards.len() {
            let sh = &st.shards[j];
            if sh.resolved || sh.failed || sh.audit || sh.hedged || sh.outstanding == 0 {
                continue;
            }
            let tried = sh.tried.clone();
            let elapsed = now.saturating_duration_since(sh.started);
            // Fastest dispatchable node this shard has not tried, with a
            // warmed-up EWMA; it is both the trigger reference and the
            // hedge target.
            let candidate = inner
                .ranked_dispatchable()
                .into_iter()
                .filter(|&i| i != FALLBACK && !tried.contains(&i))
                .filter_map(|i| {
                    let slot = &inner.slots[i];
                    (slot.ewma_samples.load(Ordering::Relaxed) >= inner.policy.hedge_min_samples)
                        .then(|| (slot.ewma_ns.load(Ordering::Relaxed), i))
                })
                .min();
            let Some((ewma_ns, target)) = candidate else {
                continue;
            };
            let threshold = inner
                .policy
                .hedge_min_latency
                .max(Duration::from_nanos((ewma_ns as f64 * multiple) as u64));
            if elapsed < threshold {
                continue;
            }
            inner.telemetry.events.record(
                "hedge",
                &inner.node(target).name(),
                &format!("shard stuck {elapsed:?} (threshold {threshold:?})"),
            );
            inner.spawn_attempt(ctx, boot, lwes, round, &mut st, j, target, true);
        }
    }

    /// Exponential backoff before re-dispatch round `round`, stretched by
    /// up to +50% deterministic jitter so retry storms from concurrent
    /// batches decorrelate reproducibly.
    fn backoff(&self, batch_no: u64, round: usize) {
        let policy = &self.inner.policy;
        if policy.base_backoff.is_zero() {
            return;
        }
        let exp = policy
            .base_backoff
            .saturating_mul(1u32 << (round - 1).min(16))
            .min(policy.max_backoff);
        let jittered = exp.mul_f64(1.0 + 0.5 * jitter01(batch_no, round));
        std::thread::sleep(jittered);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        *self
            .inner
            .stop
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.inner.stop_cv.notify_all();
        if let Some(handle) = self
            .prober
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
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
                let stopped = inner
                    .stop
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // `_while` looks at the flag before sleeping, so a stop
                // set (and notified) before this thread got here is seen
                // instead of slept through.
                let (stopped, _) = inner
                    .stop_cv
                    .wait_timeout_while(stopped, inner.policy.probe_interval, |stopped| !*stopped)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
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

    #[test]
    fn jitter_is_deterministic() {
        for batch in 0..4u64 {
            for round in 1..4usize {
                let a = jitter01(batch, round);
                let b = jitter01(batch, round);
                assert_eq!(a, b);
                assert!((0.0..1.0).contains(&a));
            }
        }
        assert_ne!(jitter01(0, 1), jitter01(0, 2));
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let policy = RetryPolicy {
            breaker_threshold: 2,
            ..RetryPolicy::test_fast()
        };
        let b = Breaker::new();
        let t0 = Instant::now();
        assert!(b.is_dispatchable());
        assert!(!b.on_failure(&policy, t0), "below threshold stays closed");
        assert!(b.is_dispatchable());
        assert!(b.on_failure(&policy, t0), "threshold opens");
        assert!(!b.is_dispatchable());
        // Not due yet.
        assert!(!b.half_open_if_due(t0));
        assert!(b.half_open_if_due(t0 + policy.breaker_open_for));
        assert!(b.is_dispatchable(), "half-open accepts a trial");
        // A failed trial re-opens with a doubled window.
        assert!(b.on_failure(&policy, t0));
        assert!(!b.half_open_if_due(t0 + policy.breaker_open_for));
        assert!(b.half_open_if_due(t0 + 2 * policy.breaker_open_for));
        assert!(b.on_success(), "half-open success readmits");
        assert!(b.is_dispatchable());
        assert!(!b.on_success(), "closed success is not a readmission");
    }

    #[test]
    fn quarantine_is_sticky() {
        let policy = RetryPolicy::test_fast();
        let b = Breaker::new();
        assert!(b.quarantine(), "first quarantine counts");
        assert!(!b.quarantine(), "re-quarantine is idempotent");
        assert!(!b.is_dispatchable());
        assert!(!b.on_success(), "success never readmits a quarantined node");
        assert!(!b.is_dispatchable());
        assert!(!b.on_failure(&policy, Instant::now()));
        assert!(
            !b.half_open_if_due(Instant::now() + Duration::from_secs(3600)),
            "the prober never half-opens a quarantined node"
        );
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
