//! The scheduler's policy: every decision, written once, read by no clock.
//!
//! `scheduler.rs` is the executor — node slots, one thread per attempt,
//! the round's lock and condvar, the prober. What it *decides* lives here,
//! in functions of `(state, event, now)` and one machine that read no
//! clock, take no lock, spawn nothing and count nothing, so each decision
//! is a table the tests walk cell by cell and a whole fleet can run on a
//! virtual clock.
//!
//! **The breaker.** One per node; `Closed` and `HalfOpen` nodes accept
//! shards, `Open` and `Quarantined` ones do not.
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
//! [`BreakerState::on`] is that diagram as a total function of state ×
//! event, including the last-resort rows and the two cells kept as found,
//! rows (g) and (h) (DESIGN §8). [`BatchMachine`] is one `execute` call
//! over all its rounds — partition, dispatch, audit picks, hedges and
//! their wake times, the race that settles each shard (DESIGN §13),
//! backoff, giving up — answering each [`BatchEvent`] with [`Command`]s
//! (DESIGN §8 prints its table). [`rank`], [`backoff`], [`audit_pick`],
//! [`hedge_target`], [`ewma_fold`] and [`slo_overrun`] are the remaining
//! arithmetic: deterministic in their arguments, so identical runs retry,
//! audit and hedge identically.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heap_telemetry::Counter;

use crate::node::NodeError;
use crate::telemetry::SchedulerCounters;

/// Retry, circuit-breaker, probing, hedging, and audit knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before re-dispatch round `r` is
    /// `min(base_backoff · 2^(r-1), max_backoff)`, stretched by up to
    /// +50% deterministic jitter. Zero disables the backoff wait.
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

/// Re-dispatch rounds per batch before giving up (round 0 is the initial
/// dispatch). A constant: no caller ever asked for another value.
pub(crate) const MAX_ROUNDS: usize = 8;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            breaker_threshold: 1,
            breaker_open_for: Duration::from_millis(250),
            breaker_max_open: Duration::from_secs(5),
            probe_interval: Duration::from_millis(100),
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
    /// backoff waits stay negligible.
    pub fn test_fast() -> Self {
        Self {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            breaker_threshold: 1,
            breaker_open_for: Duration::from_millis(20),
            breaker_max_open: Duration::from_millis(200),
            probe_interval: Duration::from_millis(10),
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

/// What a node is to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// A cluster node: breaker-gated, probed, readmitted.
    Regular,
    /// The local fallback: joins dispatch only when no regular node is
    /// dispatchable, and is abandoned for good the first time it fails.
    LastResort,
}

/// Circuit-breaker state for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Dispatchable; counts consecutive failures toward the threshold.
    Closed { consecutive: u32 },
    /// Out of dispatch until `until`; `streak` consecutive opens scale
    /// the next open duration.
    Open { until: Instant, streak: u32 },
    /// Trial mode: one probe or shard decides readmission vs re-open.
    HalfOpen { streak: u32 },
    /// Permanently out of dispatch — the prober never half-opens it and
    /// successes never readmit it. Corruption is not a transient a retry
    /// can outwait (and a last resort that failed has no one to probe it).
    Quarantined,
}

/// What happened to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerEvent {
    /// A shard or probe came back valid.
    Succeeded,
    /// A shard or probe failed (transport, timeout, shape, integrity).
    Failed,
    /// The prober's tick: an `Open` breaker past its deadline half-opens.
    ProbeDue,
    /// An audit pair disagreed and this node was one of the two.
    CaughtLying,
}

/// A breaker change worth telling someone about — the only thing the
/// scheduler ever counts or logs about a breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Into `Open` (from `Closed` past the threshold, a failed trial, or
    /// row (g)).
    Opened,
    /// `HalfOpen → Closed`: back in dispatch.
    Readmitted,
    /// Caught lying: out for good.
    Quarantined,
    /// The last-resort node failed: out for good.
    Abandoned,
}

impl BreakerState {
    /// Every node starts dispatchable.
    pub(crate) const NEW: Self = Self::Closed { consecutive: 0 };

    /// Closed or HalfOpen nodes accept shards.
    pub(crate) fn is_dispatchable(self) -> bool {
        matches!(self, Self::Closed { .. } | Self::HalfOpen { .. })
    }

    /// The breaker table (DESIGN §8): the state after `event`, and the
    /// transition to book, if any.
    pub(crate) fn on(
        self,
        event: BreakerEvent,
        role: Role,
        policy: &RetryPolicy,
        now: Instant,
    ) -> (Self, Option<Transition>) {
        use BreakerEvent::{CaughtLying, Failed, ProbeDue, Succeeded};
        use BreakerState::{Closed, HalfOpen, Open, Quarantined};
        match (self, event) {
            // Sticky: a late hedge loser's success, another failure, the
            // prober and a second audit mismatch all change nothing.
            (Quarantined, _) => (Quarantined, None),
            (_, CaughtLying) => (Quarantined, Some(Transition::Quarantined)),
            (HalfOpen { .. }, Succeeded) => (Self::NEW, Some(Transition::Readmitted)),
            // `Open` here is row (h), kept as found: the shard was in
            // flight when the breaker opened, and its success closes the
            // breaker without a counted readmission.
            (Closed { .. } | Open { .. }, Succeeded) => (Self::NEW, None),
            (Open { until, streak }, ProbeDue) if now >= until => (HalfOpen { streak }, None),
            (state, ProbeDue) => (state, None),
            // Kept as found: nothing probes the last resort, so its first
            // failure is final — and books neither an open nor a quarantine.
            (_, Failed) if role == Role::LastResort => (Quarantined, Some(Transition::Abandoned)),
            (Closed { consecutive }, Failed) if consecutive + 1 < policy.breaker_threshold => (
                Closed {
                    consecutive: consecutive + 1,
                },
                None,
            ),
            (Closed { .. }, Failed) => (
                Open {
                    until: now + policy.breaker_open_for,
                    streak: 1,
                },
                Some(Transition::Opened),
            ),
            // `Open` here is row (g), kept as found: a second shard failing
            // on a node whose breaker the first already opened counts
            // another open and doubles the window, although no half-open
            // trial failed.
            (HalfOpen { streak } | Open { streak, .. }, Failed) => {
                let streak = streak.saturating_add(1);
                let open_for = policy
                    .breaker_open_for
                    .saturating_mul(1u32 << (streak - 1).min(16))
                    .min(policy.breaker_max_open);
                let until = now + open_for;
                (Open { until, streak }, Some(Transition::Opened))
            }
        }
    }
}

/// splitmix64: the deterministic draw source (no global RNG, no wall
/// clock — identical runs draw identically).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A draw in `[0, 1)` from `seed`.
fn unit01(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// A jitter factor in `[0, 1)` derived from `(batch, round)`.
fn jitter01(batch: u64, round: usize) -> f64 {
    unit01(batch.wrapping_mul(31).wrapping_add(round as u64))
}

/// Exponential backoff before re-dispatch round `round ≥ 1`, stretched by
/// up to +50% deterministic jitter so retry storms from concurrent
/// batches decorrelate reproducibly.
pub(crate) fn backoff(policy: &RetryPolicy, batch: u64, round: usize) -> Duration {
    policy
        .base_backoff
        .saturating_mul(1u32 << (round - 1).min(16))
        .min(policy.max_backoff)
        .mul_f64(1.0 + 0.5 * jitter01(batch, round))
}

/// Whether the shard at output `slot` of `batch` is audited — drawn like
/// the jitter, but on an independent stream so audit picks never
/// correlate with backoff stretching.
pub(crate) fn audit_pick(policy: &RetryPolicy, batch: u64, slot: usize) -> bool {
    let seed = batch
        .wrapping_mul(0x517C_C1B7_2722_0A95)
        .wrapping_add(slot as u64);
    unit01(seed) < policy.audit_fraction
}

/// Chooses the hedge for a straggling shard from `(node, ewma_ns, samples,
/// tried)` rows of the dispatchable regular nodes: the fastest warmed-up
/// node the shard has not tried is both the trigger reference and the
/// target. Returns it with the threshold past the shard's start at which
/// the hedge fires, or `None` when hedging is off or no such node exists.
///
/// The reference is the *best other node's* EWMA rather than a fleet p99:
/// one straggler in a small fleet drags the p99 up to its own latency,
/// which would disable exactly the hedge meant to beat it.
pub(crate) fn hedge_target(
    policy: &RetryPolicy,
    candidates: impl IntoIterator<Item = (usize, u64, u64, bool)>,
) -> Option<(usize, Duration)> {
    let multiple = policy.hedge_after?;
    let (ewma_ns, node) = candidates
        .into_iter()
        .filter(|&(_, _, samples, tried)| !tried && samples >= policy.hedge_min_samples)
        .map(|(node, ewma_ns, _, _)| (ewma_ns, node))
        .min()?;
    let threshold = policy
        .hedge_min_latency
        .max(Duration::from_nanos((ewma_ns as f64 * multiple) as u64));
    Some((node, threshold))
}

/// Folds one latency sample into an EWMA (`(3·old + sample) / 4`; the
/// first sample seeds it). Callers race on the stored value and that is
/// fine: it only anchors heuristics, and every writer converges it.
pub(crate) fn ewma_fold(old: u64, sample: u64) -> u64 {
    if old == 0 {
        sample
    } else {
        (3 * old + sample) / 4
    }
}

/// The SLO deadline model: a job's projected completion is the accepted-
/// but-unfinished rotations (its own included) times the measured
/// per-rotation cost. Returns the projection when it overruns `slo`;
/// `None` admits — as does a zero rate, which means no batch has been
/// measured yet.
pub(crate) fn slo_overrun(slo: Duration, backlog_lwes: u64, ns_per_lwe: u64) -> Option<Duration> {
    let projected = Duration::from_nanos(backlog_lwes.saturating_mul(ns_per_lwe));
    (ns_per_lwe > 0 && projected > slo).then_some(projected)
}

/// One node as the executor sees it when it wakes a [`BatchMachine`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView {
    pub role: Role,
    /// Its breaker is dispatchable.
    pub up: bool,
    /// It caches the batch's evaluation key already.
    pub holds_key: bool,
    /// Blind rotations in flight on it.
    pub inflight: usize,
    pub ewma_ns: u64,
    pub samples: u64,
}

/// Dispatch order: key-holding nodes first (they skip the upload), then
/// least-loaded, stable on ties; the last resort only when no regular node
/// is up.
pub(crate) fn rank(fleet: &[NodeView]) -> Vec<usize> {
    let up = |role| (0..fleet.len()).filter(move |&i| fleet[i].up && fleet[i].role == role);
    let mut ranked: Vec<usize> = up(Role::Regular).collect();
    ranked.sort_by_key(|&i| (!fleet[i].holds_key, fleet[i].inflight));
    if ranked.is_empty() {
        ranked.extend(up(Role::LastResort));
    }
    ranked
}

/// What the executor tells a [`BatchMachine`].
pub(crate) enum BatchEvent<'a, T> {
    /// The fleet now: starts the batch, a due round or due hedges.
    Wake(&'a [NodeView]),
    /// An attempt came back: validated `(digest, payload)`, or its failure.
    Done(usize, Result<(u64, T), NodeError>),
}

/// A lifetime counter, by the field that holds it.
pub(crate) type Tally = fn(&SchedulerCounters) -> &Counter;

/// What a [`BatchMachine`] asks of the executor, in order.
#[derive(Debug)]
pub(crate) enum Command {
    /// Run attempt `.0`: the batch's LWEs `.2` on node `.1`.
    Launch(usize, usize, Range<usize>),
    /// Feed an event to a node's breaker; the text labels a transition.
    Breaker(usize, BreakerEvent, String),
    Count(Tally, u64),
    /// A node's attempt took `.1` ns; a valid one (`.2`) folds into its EWMA.
    RoundTrip(usize, u64, bool),
    /// A fault event: kind, subject, why.
    Log(&'static str, String, String),
}

/// One shard in one round: its attempts (primary, audit twin, hedge) race
/// to settle it, by the table in DESIGN §13.
struct Race<T> {
    slot: usize,
    started: Instant,
    /// Nodes attempted (never hedge to one of these).
    tried: Vec<usize>,
    /// Wins on two bit-equal validated results, or one if the twin failed.
    audit: bool,
    hedged: bool,
    /// Attempts launched and not yet reported.
    out: usize,
    /// An audit shard's first validated `(node, digest, payload)`.
    held: Option<(usize, u64, T)>,
    settled: bool,
}

enum Step {
    Start,
    Racing,
    /// A round ended with these output slots unwon; the next wake decides.
    Retry(Vec<usize>),
    /// Re-dispatch the slots to the ranked nodes once the backoff is over.
    Backoff(Vec<usize>, Vec<usize>, Instant),
    Settled,
}

/// One `execute` call over all its rounds (DESIGN §8): generic over the
/// payload, reading no clock but the `now` it is handed.
pub(crate) struct BatchMachine<T> {
    policy: RetryPolicy,
    /// Seeds the jitter and audit draws.
    batch: u64,
    names: Arc<[String]>,
    lwes: usize,
    /// Each output slot's LWE range and, once won, its payload.
    slots: Vec<(Range<usize>, Option<T>)>,
    /// Every round's races; the current round's begin at `round_start`.
    races: Vec<Race<T>>,
    round_start: usize,
    /// `(race, node, hedge, launched)` by attempt id.
    attempts: Vec<(usize, usize, bool, Instant)>,
    round: usize,
    step: Step,
    last_err: String,
    wake: Option<Instant>,
    result: Option<Result<Vec<T>, String>>,
}

impl<T> BatchMachine<T> {
    pub(crate) fn new(policy: RetryPolicy, batch: u64, lwes: usize, names: Arc<[String]>) -> Self {
        Self {
            policy,
            batch,
            names,
            lwes,
            slots: Vec::new(),
            races: Vec::new(),
            round_start: 0,
            attempts: Vec::new(),
            round: 0,
            step: Step::Start,
            last_err: String::new(),
            wake: None,
            result: None,
        }
    }

    /// When the executor must wake the machine without a result: a hedge
    /// or backoff deadline, or at once (a round ended, an outcome is
    /// ready). `None` waits for the next result.
    pub(crate) fn wake_at(&self) -> Option<Instant> {
        self.wake
    }

    /// The batch's outcome, once: each shard's payload in input order, or
    /// why nothing could serve it.
    pub(crate) fn take_result(&mut self) -> Option<Result<Vec<T>, String>> {
        self.result.take()
    }

    pub(crate) fn on(&mut self, now: Instant, event: BatchEvent<T>) -> Vec<Command> {
        let mut cmds = Vec::new();
        match event {
            BatchEvent::Wake(fleet) => self.wake(now, fleet, &mut cmds),
            BatchEvent::Done(attempt, result) => self.done(now, attempt, result, &mut cmds),
        }
        cmds
    }

    fn wake(&mut self, now: Instant, fleet: &[NodeView], cmds: &mut Vec<Command>) {
        match std::mem::replace(&mut self.step, Step::Settled) {
            Step::Start => {
                cmds.push(Command::Count(|c| &c.batches, 1));
                if self.lwes == 0 {
                    return self.finish(now, Ok(Vec::new()));
                }
                let ranked = rank(fleet);
                if ranked.is_empty() {
                    return self.finish(now, Err("no dispatchable nodes".into()));
                }
                let chunk = self.lwes.div_ceil(ranked.len());
                let range = |start: usize| (start..(start + chunk).min(self.lwes), None);
                self.slots = (0..self.lwes).step_by(chunk).map(range).collect();
                let pending = (0..self.slots.len()).collect();
                // Audits sample the initial round only: retries of a
                // failed shard should converge, not multiply.
                self.launch(now, fleet, &ranked, pending, ranked.len() >= 2, cmds);
            }
            Step::Racing => {
                self.step = Step::Racing;
                self.hedge(now, fleet, cmds);
            }
            Step::Retry(pending) => {
                if self.round > MAX_ROUNDS {
                    let why = format!(
                        "retry budget exhausted after {MAX_ROUNDS} rounds (last error: {})",
                        self.last_err
                    );
                    return self.finish(now, Err(why));
                }
                let ranked = rank(fleet);
                if ranked.is_empty() {
                    let why = std::mem::take(&mut self.last_err);
                    return self.finish(now, Err(why));
                }
                let (shards, round) = (pending.len(), self.round);
                let why = format!("round {round}: {shards} shards re-dispatched");
                cmds.push(Command::Count(|c| &c.reassignments, shards as u64));
                cmds.push(Command::Log("retry", format!("batch-{}", self.batch), why));
                let until = now + backoff(&self.policy, self.batch, round);
                self.wake = Some(until);
                self.step = Step::Backoff(pending, ranked, until);
            }
            Step::Backoff(pending, ranked, until) if now >= until => {
                self.launch(now, fleet, &ranked, pending, false, cmds);
            }
            step => self.step = step,
        }
    }

    /// Opens a round over `pending`: shard `j` to the `j`-th ranked node
    /// (wrapping), an audited shard's twin to the next one.
    fn launch(
        &mut self,
        now: Instant,
        fleet: &[NodeView],
        ranked: &[usize],
        pending: Vec<usize>,
        audit_on: bool,
        cmds: &mut Vec<Command>,
    ) {
        self.round_start = self.races.len();
        self.step = Step::Racing;
        for (j, slot) in pending.into_iter().enumerate() {
            let audit = audit_on && audit_pick(&self.policy, self.batch, slot);
            let race = self.races.len();
            self.races.push(Race {
                slot,
                started: now,
                tried: Vec::new(),
                audit,
                hedged: false,
                out: 0,
                held: None,
                settled: false,
            });
            self.attempt(now, fleet, race, ranked[j % ranked.len()], false, cmds);
            if audit {
                let twin = ranked[(j + 1) % ranked.len()];
                self.attempt(now, fleet, race, twin, false, cmds);
            }
        }
        self.hedge(now, fleet, cmds);
    }

    fn attempt(
        &mut self,
        now: Instant,
        fleet: &[NodeView],
        race: usize,
        node: usize,
        hedge: bool,
        cmds: &mut Vec<Command>,
    ) {
        let r = &mut self.races[race];
        r.out += 1;
        r.hedged |= hedge;
        r.tried.push(node);
        if hedge {
            cmds.push(Command::Count(|c| &c.hedges_issued, 1));
        }
        cmds.push(Command::Count(|c| &c.shards, 1));
        if fleet[node].role == Role::LastResort {
            cmds.push(Command::Count(|c| &c.fallback_shards, 1));
        }
        let range = self.slots[r.slot].0.clone();
        cmds.push(Command::Launch(self.attempts.len(), node, range));
        self.attempts.push((race, node, hedge, now));
    }

    /// Fires every due hedge ([`hedge_target`]): at most one per racing
    /// shard, never for an audited one, only to a dispatchable regular
    /// node. Arms the wake for the earliest hedge not yet due.
    fn hedge(&mut self, now: Instant, fleet: &[NodeView], cmds: &mut Vec<Command>) {
        self.wake = None;
        for race in self.round_start..self.races.len() {
            let r = &self.races[race];
            if r.audit || r.hedged || r.settled {
                continue;
            }
            let up = fleet
                .iter()
                .enumerate()
                .filter(|(_, v)| v.up && v.role == Role::Regular);
            let rows = up.map(|(i, v)| (i, v.ewma_ns, v.samples, r.tried.contains(&i)));
            let Some((target, threshold)) = hedge_target(&self.policy, rows) else {
                continue;
            };
            let due = r.started + threshold;
            if now < due {
                self.wake = Some(self.wake.map_or(due, |w| w.min(due)));
                continue;
            }
            let why = format!(
                "shard stuck {:?} (threshold {threshold:?})",
                now - r.started
            );
            cmds.push(Command::Log("hedge", self.names[target].clone(), why));
            self.attempt(now, fleet, race, target, true, cmds);
        }
    }

    /// Books one attempt's result and settles its race (DESIGN §13).
    fn done(
        &mut self,
        now: Instant,
        attempt: usize,
        result: Result<(u64, T), NodeError>,
        cmds: &mut Vec<Command>,
    ) {
        let (race, node, hedge, launched) = self.attempts[attempt];
        let ns = now.saturating_duration_since(launched).as_nanos() as u64;
        cmds.push(Command::RoundTrip(node, ns, result.is_ok()));
        let current = race >= self.round_start && matches!(self.step, Step::Racing);
        if current && self.policy.hedge_after.is_some() {
            // A fresh EWMA may move a hedge's threshold.
            self.wake = Some(now);
        }
        let result = match result {
            Ok(valid) => {
                let why = "half-open shard succeeded".into();
                cmds.push(Command::Breaker(node, BreakerEvent::Succeeded, why));
                Some(valid)
            }
            Err(e) => {
                let (name, why) = (&self.names[node], e.to_string());
                cmds.push(Command::Count(|c| &c.node_failures, 1));
                if let NodeError::Corrupt { phase, .. } = e {
                    let layer: Tally = match phase {
                        "crc" => |c| &c.corruption_crc,
                        _ => |c| &c.corruption_attest,
                    };
                    cmds.push(Command::Count(layer, 1));
                    cmds.push(Command::Log("corruption", name.clone(), why.clone()));
                }
                if current {
                    self.last_err = format!("{name}: {why}");
                }
                cmds.push(Command::Breaker(node, BreakerEvent::Failed, why));
                None
            }
        };
        let r = &mut self.races[race];
        r.out -= 1;
        if r.settled {
            // A loser: wasted work when the machine itself started the race.
            if result.is_some() && r.hedged {
                cmds.push(Command::Count(|c| &c.hedges_wasted, 1));
            }
            return;
        }
        let won = match result {
            // A failure settles nothing while another attempt is out; the
            // last one out fails the shard, unless an audit result is held.
            None if r.out > 0 => return,
            None => r.held.take().map(|(.., payload)| payload),
            Some((digest, payload)) if r.audit => match r.held.take() {
                None if r.out > 0 => {
                    r.held = Some((node, digest, payload));
                    return;
                }
                None => Some(payload),
                Some((_, held, payload)) if held == digest => Some(payload),
                // A convincing lie on one side: neither result is trusted.
                Some((other, ..)) => {
                    cmds.push(Command::Count(|c| &c.corruption_audit, 1));
                    for liar in [node, other] {
                        let why = "audit digest mismatch".into();
                        cmds.push(Command::Breaker(liar, BreakerEvent::CaughtLying, why));
                    }
                    let (frame, phase) = ("accumulators".into(), "audit");
                    self.last_err = NodeError::Corrupt { frame, phase }.to_string();
                    None
                }
            },
            Some((_, payload)) => {
                if hedge {
                    cmds.push(Command::Count(|c| &c.hedges_won, 1));
                }
                Some(payload)
            }
        };
        r.settled = true;
        self.slots[r.slot].1 = won;
        if !self.races[self.round_start..].iter().all(|r| r.settled) {
            return;
        }
        self.round += 1;
        let unwon = |&s: &usize| self.slots[s].1.is_none();
        let pending: Vec<usize> = (0..self.slots.len()).filter(unwon).collect();
        if pending.is_empty() {
            let won = self.slots.iter_mut().map(|(_, p)| p.take().expect("won"));
            let won = won.collect();
            self.finish(now, Ok(won));
        } else {
            self.step = Step::Retry(pending);
            self.wake = Some(now);
        }
    }

    fn finish(&mut self, now: Instant, result: Result<Vec<T>, String>) {
        self.step = Step::Settled;
        self.result = Some(result);
        self.wake = Some(now);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::BreakerEvent::{CaughtLying, Failed, ProbeDue, Succeeded};
    use super::BreakerState::{Closed, HalfOpen, Open, Quarantined};
    use super::*;
    use crate::telemetry::SchedulerStats;

    const MS: Duration = Duration::from_millis(1);

    /// Threshold 2 so "below threshold" is a cell; 20 ms windows doubling
    /// to a 200 ms cap.
    fn policy() -> RetryPolicy {
        RetryPolicy {
            breaker_threshold: 2,
            ..RetryPolicy::test_fast()
        }
    }

    /// Every cell of the regular-node table: 4 states × 4 events, with
    /// `now` before / at / after `until` where the cell reads the clock.
    /// `T` is the row's `now`; an `Open` state's deadline is `T0 + 20 ms`.
    #[test]
    fn breaker_table_regular_node_every_cell() {
        let p = policy();
        let t0 = Instant::now();
        let until = t0 + 20 * MS;
        let late = until + MS;
        let open = Open { until, streak: 1 };
        let half = HalfOpen { streak: 1 };
        let closed = |consecutive| Closed { consecutive };
        let opened = |until, streak| (Open { until, streak }, Some(Transition::Opened));
        let lied = (Quarantined, Some(Transition::Quarantined));
        let row = |state: BreakerState, event, now, expected| {
            let got = state.on(event, Role::Regular, &p, now);
            assert_eq!(got, expected, "{state:?} × {event:?}");
        };
        row(closed(0), Succeeded, t0, (closed(0), None));
        row(closed(1), Succeeded, t0, (closed(0), None)); // resets the count
        row(closed(0), Failed, t0, (closed(1), None)); // below threshold
        row(closed(1), Failed, t0, opened(t0 + 20 * MS, 1)); // at threshold
        row(closed(1), ProbeDue, late, (closed(1), None));
        row(closed(0), CaughtLying, t0, lied);
        row(open, Succeeded, t0, (closed(0), None)); // row (h)
        row(open, Failed, t0 + 5 * MS, opened(t0 + 45 * MS, 2)); // row (g)
        row(open, ProbeDue, until - MS, (open, None)); // before `until`
        row(open, ProbeDue, until, (half, None)); // at
        row(open, ProbeDue, late, (half, None)); // after
        row(open, CaughtLying, t0, lied);
        row(
            half,
            Succeeded,
            t0,
            (closed(0), Some(Transition::Readmitted)),
        );
        row(half, Failed, until, opened(until + 40 * MS, 2));
        row(half, ProbeDue, late, (half, None));
        row(half, CaughtLying, t0, lied);
        for event in [Succeeded, Failed, ProbeDue, CaughtLying] {
            row(Quarantined, event, late, (Quarantined, None));
        }
    }

    /// The last-resort rows: `Failed` abandons from every live state and
    /// books neither an open nor a quarantine; every other cell is the
    /// regular node's.
    #[test]
    fn breaker_table_last_resort_every_cell() {
        let p = policy();
        let t0 = Instant::now();
        let until = t0 + 20 * MS;
        let states = [
            Closed { consecutive: 0 },
            Open { until, streak: 1 },
            HalfOpen { streak: 1 },
            Quarantined,
        ];
        for state in states {
            for now in [until - MS, until, until + MS] {
                for event in [Succeeded, ProbeDue, CaughtLying] {
                    assert_eq!(
                        state.on(event, Role::LastResort, &p, now),
                        state.on(event, Role::Regular, &p, now),
                        "{state:?} {event:?}"
                    );
                }
                let expected = match state {
                    Quarantined => (Quarantined, None),
                    _ => (Quarantined, Some(Transition::Abandoned)),
                };
                assert_eq!(
                    state.on(Failed, Role::LastResort, &p, now),
                    expected,
                    "{state:?}"
                );
            }
        }
        // One caught lying counts one quarantine; a later failure or a
        // second mismatch books nothing.
        let (lied, t) = BreakerState::NEW.on(CaughtLying, Role::LastResort, &p, t0);
        assert_eq!((lied, t), (Quarantined, Some(Transition::Quarantined)));
        assert_eq!(
            lied.on(Failed, Role::LastResort, &p, t0),
            (Quarantined, None)
        );
        assert_eq!(
            lied.on(CaughtLying, Role::LastResort, &p, t0),
            (Quarantined, None)
        );
    }

    #[test]
    fn reopen_window_doubles_and_is_capped_at_breaker_max_open() {
        let p = policy();
        let now = Instant::now();
        let mut state = HalfOpen { streak: 1 };
        for (streak, window_ms) in [(2, 40), (3, 80), (4, 160), (5, 200), (6, 200)] {
            let (next, t) = state.on(Failed, Role::Regular, &p, now);
            let until = now + window_ms * MS;
            assert_eq!(
                (next, t),
                (Open { until, streak }, Some(Transition::Opened))
            );
            state = HalfOpen { streak };
        }
        // The streak saturates instead of overflowing the shift.
        let (next, _) = HalfOpen { streak: u32::MAX }.on(Failed, Role::Regular, &p, now);
        let until = now + 200 * MS;
        assert_eq!(
            next,
            Open {
                until,
                streak: u32::MAX
            }
        );
    }

    /// Row (g) by name: kept as found. Two shards in flight on one node
    /// when it dies book two opens and a doubled window, although no
    /// half-open trial failed in between.
    #[test]
    fn row_g_failure_on_an_open_breaker_counts_another_open_and_doubles() {
        let p = RetryPolicy::test_fast();
        let t0 = Instant::now();
        let (first, t) = BreakerState::NEW.on(Failed, Role::Regular, &p, t0);
        assert_eq!(t, Some(Transition::Opened));
        let (second, t) = first.on(Failed, Role::Regular, &p, t0);
        assert_eq!(
            t,
            Some(Transition::Opened),
            "the second open is counted too"
        );
        let until = t0 + 2 * p.breaker_open_for;
        assert_eq!(second, Open { until, streak: 2 });
    }

    /// Drives the table the way the scheduler's slot does: holds the state,
    /// reports what each event booked.
    struct Breaker(BreakerState, RetryPolicy);

    impl Breaker {
        fn feed(&mut self, event: BreakerEvent, now: Instant) -> Option<Transition> {
            let (next, transition) = self.0.on(event, Role::Regular, &self.1, now);
            self.0 = next;
            transition
        }

        /// Whether the prober would now probe the node.
        fn half_open_if_due(&mut self, now: Instant) -> bool {
            let before = self.0;
            self.feed(ProbeDue, now);
            self.0 != before
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let policy = policy();
        let mut b = Breaker(BreakerState::NEW, policy);
        let t0 = Instant::now();
        let opened = Some(Transition::Opened);
        assert!(b.0.is_dispatchable());
        assert_eq!(b.feed(Failed, t0), None, "below threshold stays closed");
        assert!(b.0.is_dispatchable());
        assert_eq!(b.feed(Failed, t0), opened, "threshold opens");
        assert!(!b.0.is_dispatchable());
        // Not due yet.
        assert!(!b.half_open_if_due(t0));
        assert!(b.half_open_if_due(t0 + policy.breaker_open_for));
        assert!(b.0.is_dispatchable(), "half-open accepts a trial");
        // A failed trial re-opens with a doubled window.
        assert_eq!(b.feed(Failed, t0), opened);
        assert!(!b.half_open_if_due(t0 + policy.breaker_open_for));
        assert!(b.half_open_if_due(t0 + 2 * policy.breaker_open_for));
        assert_eq!(
            b.feed(Succeeded, t0),
            Some(Transition::Readmitted),
            "half-open success readmits"
        );
        assert!(b.0.is_dispatchable());
        assert_eq!(
            b.feed(Succeeded, t0),
            None,
            "closed success is not a readmission"
        );
    }

    #[test]
    fn quarantine_is_sticky() {
        let mut b = Breaker(BreakerState::NEW, RetryPolicy::test_fast());
        let now = Instant::now();
        assert_eq!(
            b.feed(CaughtLying, now),
            Some(Transition::Quarantined),
            "first quarantine counts"
        );
        assert_eq!(
            b.feed(CaughtLying, now),
            None,
            "re-quarantine is idempotent"
        );
        assert!(!b.0.is_dispatchable());
        assert_eq!(
            b.feed(Succeeded, now),
            None,
            "success never readmits a quarantined node"
        );
        assert!(!b.0.is_dispatchable());
        assert_eq!(b.feed(Failed, now), None);
        assert!(
            !b.half_open_if_due(now + Duration::from_secs(3600)),
            "the prober never half-opens a quarantined node"
        );
    }

    /// A machine under test: its counts booked into real counters, every
    /// other command recorded, `now` a millisecond offset from `t0`.
    struct Drive {
        m: BatchMachine<u8>,
        t0: Instant,
        counters: SchedulerCounters,
        /// `(node, range)` by attempt id.
        launched: Vec<(usize, Range<usize>)>,
        breakers: Vec<(usize, BreakerEvent)>,
        logs: Vec<&'static str>,
    }

    /// `n` dispatchable regular nodes, cold and idle.
    fn fleet(n: usize) -> Vec<NodeView> {
        let node = NodeView {
            role: Role::Regular,
            up: true,
            holds_key: false,
            inflight: 0,
            ewma_ns: 0,
            samples: 0,
        };
        vec![node; n]
    }

    const OK: Option<(u64, u8)> = Some((7, 42));

    impl Drive {
        fn new(policy: RetryPolicy, lwes: usize, nodes: usize) -> Self {
            let names = (0..nodes).map(|i| format!("n{i}")).collect();
            Self {
                m: BatchMachine::new(policy, 0, lwes, names),
                t0: Instant::now(),
                counters: SchedulerCounters::register(&heap_telemetry::Registry::new("t")),
                launched: Vec::new(),
                breakers: Vec::new(),
                logs: Vec::new(),
            }
        }

        fn at(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        /// Wakes the machine at `ms`; the attempt ids it launched.
        fn wake(&mut self, ms: u64, fleet: &[NodeView]) -> Vec<usize> {
            let commands = self.m.on(self.at(ms), BatchEvent::Wake(fleet));
            self.book(commands)
        }

        /// Reports attempt `id` at `ms`: `Some((digest, payload))` or a
        /// transport failure.
        fn done(&mut self, ms: u64, id: usize, result: Option<(u64, u8)>) -> Vec<usize> {
            let result = result.ok_or(NodeError::Io("down".into()));
            let commands = self.m.on(self.at(ms), BatchEvent::Done(id, result));
            self.book(commands)
        }

        fn book(&mut self, commands: Vec<Command>) -> Vec<usize> {
            let mut ids = Vec::new();
            for command in commands {
                match command {
                    Command::Launch(id, node, range) => {
                        assert_eq!(id, self.launched.len(), "attempt ids are dense");
                        self.launched.push((node, range));
                        ids.push(id);
                    }
                    Command::Breaker(node, event, _) => self.breakers.push((node, event)),
                    Command::Count(tally, n) => tally(&self.counters).add(n),
                    Command::RoundTrip(..) => {}
                    Command::Log(kind, ..) => self.logs.push(kind),
                }
            }
            ids
        }

        fn stats(&self) -> SchedulerStats {
            self.counters.snapshot()
        }

        fn nodes(&self, ids: &[usize]) -> Vec<usize> {
            ids.iter().map(|&id| self.launched[id].0).collect()
        }
    }

    /// `Start × Wake`: the empty batch, no dispatchable node, and the
    /// partition — `⌈lwes / ranked⌉` per shard, in rank order.
    #[test]
    fn machine_start_partitions_over_the_ranked_nodes() {
        let p = RetryPolicy::test_fast();
        let mut d = Drive::new(p, 0, 2);
        assert!(d.wake(0, &fleet(2)).is_empty());
        assert_eq!(d.m.take_result(), Some(Ok(Vec::new())));
        assert_eq!(d.stats().batches, 1);
        let mut down = fleet(2);
        down.iter_mut().for_each(|v| v.up = false);
        let mut d = Drive::new(p, 5, 2);
        assert!(d.wake(0, &down).is_empty());
        let nothing = Err("no dispatchable nodes".to_string());
        assert_eq!(d.m.take_result(), Some(nothing));
        // Three nodes, node 0 busiest and node 2 holding the key: 7 LWEs
        // in shards of 3, 3, 1 to nodes 2, 1, 0.
        let mut f = fleet(3);
        f[0].inflight = 9;
        f[2].holds_key = true;
        let mut d = Drive::new(p, 7, 3);
        let ids = d.wake(0, &f);
        assert_eq!(d.nodes(&ids), vec![2, 1, 0]);
        let ranges: Vec<_> = d.launched.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..7]);
        assert_eq!(d.m.wake_at(), None, "hedging off: wait for results");
        assert_eq!(d.stats().shards, 3);
        // Results land in input order whatever order they arrive in.
        for (id, v) in [(2, 30), (0, 10), (1, 20)] {
            d.done(1, id, Some((7, v)));
        }
        assert_eq!(d.m.take_result(), Some(Ok(vec![10, 20, 30])));
        assert_eq!(d.m.take_result(), None, "settled once");
        // Only the last resort up: it carries the batch, counted.
        let mut f = fleet(2);
        f[0].up = false;
        f[1].role = Role::LastResort;
        let mut d = Drive::new(p, 4, 2);
        let ids = d.wake(0, &f);
        assert_eq!(d.nodes(&ids), vec![1]);
        assert_eq!(d.stats().fallback_shards, 1);
    }

    /// Settlement rows of DESIGN §13 for an unaudited shard: a plain win,
    /// a failure that fails the shard, and a hedge racing its primary.
    #[test]
    fn machine_settles_unaudited_shards_by_the_table() {
        let p = hedging();
        let mut warm = fleet(2);
        warm[0].samples = 3;
        warm[0].ewma_ns = 1_000;
        // Racing × valid: won, the batch (one shard) settles.
        let mut d = Drive::new(p, 1, 2);
        assert_eq!(d.wake(0, &fleet(2)), vec![0]);
        d.done(5, 0, OK);
        assert_eq!(d.m.take_result(), Some(Ok(vec![42])));
        assert_eq!(d.breakers, vec![(0, Succeeded)]);
        // Racing × failure, last one out, nothing held: the shard fails
        // and re-enters the next round.
        let mut d = Drive::new(p, 1, 2);
        d.wake(0, &fleet(2));
        d.done(5, 0, None);
        assert_eq!(d.stats().node_failures, 1);
        assert_eq!(d.breakers, vec![(0, Failed)]);
        assert_eq!(d.m.wake_at(), Some(d.at(5)), "the round ended: decide now");
        // A hedged shard: node 1 straggles, node 0 is warm.
        let mut d = Drive::new(p, 2, 2);
        let first = d.wake(0, &warm);
        assert_eq!(d.nodes(&first), vec![0, 1]);
        d.done(1, 0, OK);
        let hedge = d.wake(20, &warm);
        assert_eq!(d.nodes(&hedge), vec![0], "node 1's shard hedged to node 0");
        // Racing × failure with the hedge still out: pending.
        d.done(21, 1, None);
        assert_eq!(d.m.take_result(), None);
        // Racing × valid, by the hedge: won, counted.
        d.done(22, hedge[0], Some((7, 43)));
        assert_eq!(d.m.take_result(), Some(Ok(vec![42, 43])));
        let s = d.stats();
        assert_eq!((s.hedges_issued, s.hedges_won, s.hedges_wasted), (1, 1, 0));
        assert_eq!(s.node_failures, 1);
        assert_eq!(d.logs, vec!["hedge"]);
    }

    /// Settled × valid on a hedged shard: the loser that reports after
    /// the batch settled still books `hedges_wasted`; a late failure books
    /// only itself.
    #[test]
    fn machine_late_valid_loser_counts_hedges_wasted() {
        let mut warm = fleet(2);
        warm[1].samples = 3;
        for late in [OK, None] {
            let mut d = Drive::new(hedging(), 1, 2);
            let ids = d.wake(0, &warm);
            assert_eq!(d.nodes(&ids), vec![0]);
            let hedge = d.wake(20, &warm);
            d.done(21, hedge[0], OK);
            assert_eq!(d.m.take_result(), Some(Ok(vec![42])));
            let wake = d.m.wake_at();
            d.done(900, 0, late);
            let s = d.stats();
            assert_eq!(s.hedges_wasted, u64::from(late.is_some()), "{late:?}");
            assert_eq!(s.node_failures, u64::from(late.is_none()), "{late:?}");
            assert_eq!(d.m.wake_at(), wake, "a settled batch needs no wake");
            assert_eq!(d.m.take_result(), None, "settled once");
        }
    }

    /// The five audited rows of DESIGN §13, and the audit drawn on round 0
    /// only.
    #[test]
    fn machine_settles_audited_shards_by_the_table() {
        let p = RetryPolicy {
            audit_fraction: 1.0,
            ..RetryPolicy::test_fast()
        };
        let start = |d: &mut Drive| {
            let ids = d.wake(0, &fleet(2));
            assert_eq!(d.nodes(&ids), vec![0, 1], "primary, then the twin");
        };
        // Valid first with the twin out: held; an equal digest: won.
        let mut d = Drive::new(p, 1, 2);
        start(&mut d);
        d.done(1, 1, Some((7, 42)));
        assert_eq!(d.m.take_result(), None);
        d.done(2, 0, Some((7, 43)));
        assert_eq!(d.m.take_result(), Some(Ok(vec![42])), "the held one");
        // Twin failed earlier: the single result stands.
        let mut d = Drive::new(p, 1, 2);
        start(&mut d);
        d.done(1, 0, None);
        d.done(2, 1, OK);
        assert_eq!(d.m.take_result(), Some(Ok(vec![42])));
        // Held, then the twin fails: the held result stands.
        let mut d = Drive::new(p, 1, 2);
        start(&mut d);
        d.done(1, 0, OK);
        d.done(2, 1, None);
        assert_eq!(d.m.take_result(), Some(Ok(vec![42])));
        assert_eq!(d.stats().reassignments, 0);
        // Digests differ: both caught lying, the shard fails the round,
        // and its retry runs once — no twin after round 0.
        let mut d = Drive::new(p, 1, 2);
        start(&mut d);
        d.done(1, 0, Some((7, 42)));
        d.done(2, 1, Some((8, 42)));
        let caught = [(1, CaughtLying), (0, CaughtLying)];
        assert_eq!(d.breakers[2..], caught, "second arrival first");
        assert_eq!(d.stats().corruption_audit, 1);
        assert!(d.wake(2, &fleet(2)).is_empty(), "backing off");
        let retry = d.wake(10, &fleet(2));
        assert_eq!(retry.len(), 1, "retries converge, not multiply");
        d.done(11, retry[0], OK);
        assert_eq!(d.m.take_result(), Some(Ok(vec![42])));
    }

    /// `Retry × Wake` and `Backoff × Wake`: the reassignment is booked
    /// when the round is decided, the relaunch waits out the backoff
    /// exactly, and with no node up the batch fails with the last error.
    #[test]
    fn machine_backs_off_then_relaunches_or_gives_up() {
        let p = RetryPolicy::test_fast();
        let mut d = Drive::new(p, 2, 2);
        d.wake(0, &fleet(2));
        d.done(1, 0, OK);
        d.done(2, 1, None);
        assert!(d.wake(2, &fleet(2)).is_empty());
        assert_eq!(d.stats().reassignments, 1);
        assert_eq!(d.logs, vec!["retry"]);
        let until = d.at(2) + backoff(&p, 0, 1);
        assert_eq!(d.m.wake_at(), Some(until));
        let early =
            d.m.on(until - Duration::from_nanos(1), BatchEvent::Wake(&fleet(2)));
        assert!(early.is_empty(), "not before the backoff is over");
        let commands = d.m.on(until, BatchEvent::Wake(&fleet(2)));
        let ids = d.book(commands);
        assert_eq!(d.launched[ids[0]].1, 1..2, "the failed shard only");
        d.done(9, ids[0], Some((7, 43)));
        assert_eq!(d.m.take_result(), Some(Ok(vec![42, 43])));
        // No node up when the round is decided: the last error, no retry.
        let mut d = Drive::new(p, 1, 1);
        d.wake(0, &fleet(1));
        d.done(1, 0, None);
        let mut down = fleet(1);
        down[0].up = false;
        d.wake(1, &down);
        assert_eq!(
            d.m.take_result(),
            Some(Err("n0: transport error: down".to_string()))
        );
        assert_eq!(d.stats().reassignments, 0);
    }

    /// Round 0 plus `MAX_ROUNDS` retries, then the give-up and its message.
    #[test]
    fn machine_gives_up_after_max_rounds() {
        let mut d = Drive::new(RetryPolicy::test_fast(), 1, 1);
        let mut ms = 0;
        let mut ids = d.wake(ms, &fleet(1));
        for round in 0..=MAX_ROUNDS {
            assert_eq!(ids.len(), 1, "round {round}");
            ms += 1;
            d.done(ms, ids[0], None);
            d.wake(ms, &fleet(1));
            ms += 10;
            ids = d.wake(ms, &fleet(1));
        }
        assert!(ids.is_empty());
        let why = format!("retry budget exhausted after {MAX_ROUNDS} rounds (last error: n0: transport error: down)");
        assert_eq!(d.m.take_result(), Some(Err(why)));
        let s = d.stats();
        assert_eq!((s.shards, s.reassignments), (9, 8));
    }

    /// A hedge fires at its threshold exactly — the machine arms its wake
    /// for it — and not a nanosecond before; the threshold follows the
    /// fleet's EWMA at each wake.
    #[test]
    fn machine_hedges_at_the_threshold_not_a_tick_later() {
        let mut warm = fleet(2);
        warm[0].samples = 3;
        warm[0].ewma_ns = 30_000_000; // 1.5 × 30 ms = 45 ms, over the floor
        let mut d = Drive::new(hedging(), 2, 2);
        d.wake(0, &warm);
        let due = d.at(45);
        assert_eq!(
            d.m.wake_at(),
            Some(due),
            "node 1's shard; node 0's has no warm peer"
        );
        let commands =
            d.m.on(due - Duration::from_nanos(1), BatchEvent::Wake(&warm));
        assert!(d.book(commands).is_empty());
        assert_eq!(d.m.wake_at(), Some(due));
        let commands = d.m.on(due, BatchEvent::Wake(&warm));
        let hedge = d.book(commands);
        assert_eq!(d.nodes(&hedge), vec![0]);
        assert_eq!(d.m.wake_at(), None, "one hedge per shard");
        // A faster reference moves the wake earlier.
        let mut d = Drive::new(hedging(), 2, 2);
        d.wake(0, &warm);
        warm[0].ewma_ns = 1_000;
        d.wake(1, &warm);
        assert_eq!(d.m.wake_at(), Some(d.at(20)), "the floor");
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
    fn backoff_is_deterministic_exponential_capped_and_stretched_at_most_half() {
        let p = RetryPolicy::test_fast(); // 1 ms base, 4 ms cap
        for batch in 0..16u64 {
            for (round, exp_ms) in [(1usize, 1u32), (2, 2), (3, 4), (4, 4), (8, 4), (40, 4)] {
                let d = backoff(&p, batch, round);
                assert_eq!(d, backoff(&p, batch, round));
                assert!(
                    d >= exp_ms * MS && d < exp_ms * MS * 3 / 2,
                    "{batch}/{round}: {d:?}"
                );
            }
        }
        assert_ne!(backoff(&p, 0, 1), backoff(&p, 1, 1), "batches decorrelate");
        let off = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..p
        };
        assert_eq!(backoff(&off, 3, 2), Duration::ZERO);
    }

    #[test]
    fn audit_pick_is_deterministic_and_tracks_the_fraction() {
        let with = |audit_fraction| RetryPolicy {
            audit_fraction,
            ..RetryPolicy::default()
        };
        let picks = |p: &RetryPolicy| {
            (0..100u64)
                .flat_map(|batch| (0..40usize).map(move |slot| (batch, slot)))
                .filter(|&(batch, slot)| audit_pick(p, batch, slot))
                .count()
        };
        assert_eq!(picks(&with(0.0)), 0, "off audits nothing");
        assert_eq!(picks(&with(1.0)), 4000, "1.0 audits everything");
        let quarter = picks(&with(0.25));
        assert!((800..1200).contains(&quarter), "{quarter} of 4000");
        assert_eq!(quarter, picks(&with(0.25)));
    }

    fn hedging() -> RetryPolicy {
        RetryPolicy {
            hedge_after: Some(1.5),
            hedge_min_latency: 20 * MS,
            hedge_min_samples: 3,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn hedge_threshold_is_floored_and_scales_with_the_reference_ewma() {
        let p = hedging();
        // A tiny EWMA: the floor is the threshold.
        assert_eq!(hedge_target(&p, [(1, 1_000, 3, false)]), Some((1, 20 * MS)));
        // Above the floor: 1.5 × 100 ms.
        let slow = [(1, 100_000_000, 3, false)];
        assert_eq!(hedge_target(&p, slow), Some((1, 150 * MS)));
        // Off is off.
        let off = RetryPolicy {
            hedge_after: None,
            ..p
        };
        assert_eq!(hedge_target(&off, slow), None);
    }

    #[test]
    fn cold_nodes_neither_trigger_nor_anchor_a_hedge() {
        let p = hedging();
        // Node 1 is cold with a tempting EWMA; node 2 is warm and slower:
        // node 2 sets the threshold and is the target.
        let rows = [(1, 1_000, 2, false), (2, 40_000_000, 3, false)];
        assert_eq!(hedge_target(&p, rows), Some((2, 60 * MS)));
        // Only cold nodes: no hedge at all.
        let cold = [(1, 1_000, 0, false), (2, 1_000, 2, false)];
        assert_eq!(hedge_target(&p, cold), None);
    }

    #[test]
    fn hedge_targets_the_fastest_untried_node_lowest_index_on_ties() {
        let p = hedging();
        let rows = [
            (0, 1_000, 9, true), // the straggler itself
            (1, 5_000, 9, false),
            (2, 3_000, 9, false),
            (3, 3_000, 9, false),
        ];
        assert_eq!(hedge_target(&p, rows), Some((2, 20 * MS)));
        let all_tried = rows.map(|(node, ewma, samples, _)| (node, ewma, samples, true));
        assert_eq!(hedge_target(&p, all_tried), None);
    }

    #[test]
    fn ewma_seeds_with_the_first_sample_then_folds_a_quarter() {
        assert_eq!(ewma_fold(0, 800), 800);
        assert_eq!(ewma_fold(800, 400), 700);
        assert_eq!(ewma_fold(700, 700), 700);
    }

    #[test]
    fn slo_projection_admits_unmeasured_and_on_time_and_reports_overruns() {
        let slo = 10 * MS;
        assert_eq!(slo_overrun(slo, 1_000_000, 0), None, "no measurement yet");
        assert_eq!(
            slo_overrun(slo, 10, 1_000_000),
            None,
            "exactly on the deadline"
        );
        assert_eq!(slo_overrun(slo, 11, 1_000_000), Some(11 * MS));
        assert_eq!(
            slo_overrun(slo, u64::MAX, 2),
            Some(Duration::from_nanos(u64::MAX)),
            "saturates"
        );
    }

    // The whole fleet on one virtual clock: concurrent batch machines over
    // nodes that answer through the `conn::tests` pipe (`NodeCall` ↔
    // `NodeDoor`, the wire fault interpreter), the prober's ticks, and an
    // executor that does what `scheduler.rs` does with each command. A
    // failing seed prints its spec; `fleet_scenario(seed)` replays it.

    use crate::conn::tests::{
        accs_for, action, classify, lwes, Expect, NodeSim, Script, Stub, ACC_N, ACC_Q,
    };
    use crate::conn::{NodeCall, NodeShared, Reply};
    use crate::fault::{FaultAction, FaultPlan, FaultState};
    use crate::server::NodeTelemetry;
    use heap_math::wire::fnv1a;
    use heap_tfhe::{rlwe_batch_to_wire, LweCiphertext, RlweCiphertext};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// One simulated node: its plan over the wire, the stub's basis, and
    /// how long it computes per LWE.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct NodeSpec {
        plan: FaultPlan,
        fail_after: Option<u64>,
        foreign: bool,
        ms_per_lwe: u64,
        holds_key: bool,
    }

    /// A fleet scenario: nodes (the last is the fallback when `fallback`),
    /// the policy, and each batch's `(arrival ms, LWE count)`.
    #[derive(Debug, Clone)]
    pub(crate) struct FleetSpec {
        pub seed: u64,
        nodes: Vec<NodeSpec>,
        fallback: bool,
        pub policy: RetryPolicy,
        pub batches: Vec<(u64, usize)>,
    }

    impl FleetSpec {
        pub(crate) fn draw(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let fallback = rng.gen_bool(0.3);
            let count = rng.gen_range(1..=4usize) + usize::from(fallback);
            let nodes = (0..count)
                .map(|_| {
                    let faulty = rng.gen_bool(0.6);
                    let codes = prop::collection::vec((0u8..10, 0u64..150), 0..5);
                    let codes = codes.generate(&mut rng);
                    let actions = codes.iter().map(|&(c, ms)| action(c, ms));
                    NodeSpec {
                        plan: FaultPlan::new(actions.filter(|_| faulty).collect()),
                        fail_after: (faulty && rng.gen_bool(0.15)).then(|| rng.gen_range(0..4)),
                        foreign: faulty && rng.gen_bool(0.05),
                        ms_per_lwe: rng.gen_range(1..=4),
                        holds_key: rng.gen_bool(0.5),
                    }
                })
                .collect();
            let policy = RetryPolicy {
                breaker_threshold: rng.gen_range(1..=2),
                probe_interval: [Duration::ZERO, 10 * MS][usize::from(rng.gen_bool(0.8))],
                hedge_after: rng.gen_bool(0.5).then_some(1.5),
                hedge_min_latency: 20 * MS,
                hedge_min_samples: rng.gen_range(1..=2),
                audit_fraction: [0.0, 0.5, 1.0][rng.gen_range(0..3usize)],
                ..RetryPolicy::test_fast()
            };
            let batches = (0..rng.gen_range(1..=4))
                .map(|_| (rng.gen_range(0..60), rng.gen_range(1..=6)))
                .collect();
            Self {
                seed,
                nodes,
                fallback,
                policy,
                batches,
            }
        }
    }

    /// What `scheduler.rs` keeps per node, plus every breaker event booked.
    struct SimSlot {
        role: Role,
        breaker: BreakerState,
        holds_key: bool,
        inflight: usize,
        ewma_ns: u64,
        samples: u64,
        booked: Vec<(BreakerEvent, Duration, Option<Transition>)>,
    }

    type Accs = Vec<RlweCiphertext>;
    pub(crate) type Settled = (Duration, Result<Vec<Accs>, String>, Vec<NodeView>);

    enum Ev {
        Arrive(usize),
        Wake(usize),
        Done(
            usize,
            usize,
            usize,
            Range<usize>,
            Result<(u64, Accs), NodeError>,
        ),
        Probe,
    }

    #[derive(Default)]
    struct SimBatch {
        lwes: Vec<LweCiphertext>,
        arrived: Duration,
        machine: Option<BatchMachine<Accs>>,
        armed: Option<Instant>,
        /// When it settled, how, and the fleet its last wake saw.
        outcome: Option<Settled>,
        /// `(range start, round start, nodes tried)` per shard and round.
        rounds: Vec<(usize, Duration, Vec<usize>)>,
        failures: u64,
    }

    pub(crate) struct Fleet<'a> {
        spec: &'a FleetSpec,
        t0: Instant,
        pipes: Vec<NodeSim<'a>>,
        scripts: Vec<Script<'a>>,
        slots: Vec<SimSlot>,
        counters: SchedulerCounters,
        queue: BTreeMap<(Duration, u64), Ev>,
        seq: u64,
        batches: Vec<SimBatch>,
        names: Arc<[String]>,
        /// Failed attempts, as the plans predict them.
        injected: u64,
    }

    /// How a scenario ended: the counters, and each batch's latency and
    /// whether it succeeded.
    pub(crate) struct FleetOutcome {
        pub stats: SchedulerStats,
        pub batches: Vec<(Duration, bool)>,
    }

    impl<'a> Fleet<'a> {
        fn at(&mut self, when: Duration, ev: Ev) {
            self.seq += 1;
            self.queue.insert((when, self.seq), ev);
        }

        fn why(&self) -> String {
            format!("fleet_scenario({}): {:?}", self.spec.seed, self.spec)
        }

        fn view(&self) -> Vec<NodeView> {
            let view = |s: &SimSlot| NodeView {
                role: s.role,
                up: s.breaker.is_dispatchable(),
                holds_key: s.holds_key,
                inflight: s.inflight,
                ewma_ns: s.ewma_ns,
                samples: s.samples,
            };
            self.slots.iter().map(view).collect()
        }

        /// The executor's `step`: one breaker event, booked.
        fn step_breaker(&mut self, node: usize, event: BreakerEvent, now: Duration) -> bool {
            let s = &mut self.slots[node];
            let (next, transition) = s
                .breaker
                .on(event, s.role, &self.spec.policy, self.t0 + now);
            let changed = std::mem::replace(&mut s.breaker, next) != next;
            s.booked.push((event, now, transition));
            let c = &self.counters;
            match transition {
                Some(Transition::Opened) => c.breaker_opens.inc(),
                Some(Transition::Readmitted) => c.readmissions.inc(),
                Some(Transition::Quarantined) => c.quarantines.inc(),
                Some(Transition::Abandoned) | None => {}
            }
            changed
        }

        /// The executor's wait loop, from one wake to the next wait.
        fn wake(&mut self, b: usize, now: Duration) {
            for _ in 0..100 {
                let fleet = self.view();
                let machine = self.batches[b].machine.as_mut().expect("arrived");
                let commands = machine.on(self.t0 + now, BatchEvent::Wake(&fleet));
                self.run(b, now, &fleet, commands);
                let sb = &mut self.batches[b];
                let machine = sb.machine.as_mut().expect("arrived");
                if let Some(result) = machine.take_result() {
                    sb.outcome = Some((now, result, fleet));
                    return;
                }
                sb.armed = machine.wake_at();
                match sb.armed {
                    Some(t) if t <= self.t0 + now => continue,
                    Some(t) => return self.at(t - self.t0, Ev::Wake(b)),
                    None => return,
                }
            }
            panic!("{}: batch {b} spins at {now:?}", self.why());
        }

        fn run(&mut self, b: usize, now: Duration, fleet: &[NodeView], commands: Vec<Command>) {
            let mut hedge = false;
            for command in commands {
                match command {
                    Command::Launch(id, node, range) => {
                        self.launch(b, now, fleet, (id, node, range), hedge);
                        hedge = false;
                    }
                    Command::Breaker(node, event, _) => {
                        self.step_breaker(node, event, now);
                    }
                    Command::Count(tally, n) => tally(&self.counters).add(n),
                    Command::RoundTrip(node, ns, valid) => {
                        let s = &mut self.slots[node];
                        if valid {
                            s.ewma_ns = ewma_fold(s.ewma_ns, ns.max(1));
                            s.samples += 1;
                        }
                    }
                    Command::Log(kind, ..) => hedge = kind == "hedge",
                }
            }
        }

        /// One attempt: checked against the hedge policy if it is a hedge,
        /// called through the node's pipe at once, and its result queued
        /// for when the pipe's clock and the node's compute say it lands.
        fn launch(
            &mut self,
            b: usize,
            now: Duration,
            fleet: &[NodeView],
            (id, node, range): (usize, usize, Range<usize>),
            hedge: bool,
        ) {
            let why = self.why();
            let sb = &mut self.batches[b];
            let round = sb.rounds.iter_mut().rev().find(|r| r.0 == range.start);
            match round {
                Some((_, started, tried)) if hedge => {
                    let up = fleet.iter().enumerate();
                    let up = up.filter(|(_, v)| v.up && v.role == Role::Regular);
                    let rows = up.map(|(i, v)| (i, v.ewma_ns, v.samples, tried.contains(&i)));
                    let target = hedge_target(&self.spec.policy, rows);
                    let (to, threshold) =
                        target.unwrap_or_else(|| panic!("{why}: untargeted hedge"));
                    assert_eq!(to, node, "{why}");
                    assert!(now - *started >= threshold, "{why}: early hedge at {now:?}");
                    tried.push(node);
                }
                Some((_, started, tried)) if *started == now => tried.push(node),
                _ if hedge => panic!("{why}: a hedge before its shard"),
                _ => sb.rounds.push((range.start, now, vec![node])),
            }
            self.slots[node].inflight += range.len();
            let pipe = &mut self.pipes[node];
            let before = pipe.clock;
            let lwes = &sb.lwes[range.clone()];
            let result = pipe.call(NodeCall::Rotate {
                key_id: 0,
                lwes,
                n: ACC_N,
                moduli: &[ACC_Q],
            });
            let spec = &self.spec.nodes[node];
            let took = pipe.clock - before + MS * (spec.ms_per_lwe as usize * range.len()) as u32;
            let action = self.scripts[node].next();
            // A foreign member is refused on its header, if the reply has one.
            let members = range.len() - usize::from(action == FaultAction::Truncate);
            let expect = match self.scripts[node].expect(action) {
                Expect::Served | Expect::Mismatch if spec.foreign && members > 0 => {
                    Expect::Protocol
                }
                expect => expect,
            };
            assert_eq!(classify(&result), expect, "{why}: {action:?} {result:?}");
            if expect != Expect::Served {
                self.injected += 1;
                sb.failures += 1;
            }
            // The executor's own check: the digest over the re-encoding.
            let result = result.map(|reply| {
                let Reply::Batch(batch) = reply else {
                    panic!("{why}: {reply:?}")
                };
                let digest = fnv1a(&rlwe_batch_to_wire(&batch.accs, &[ACC_Q]));
                assert_eq!(digest, batch.digest, "{why}");
                (batch.digest, batch.accs)
            });
            self.at(now + took, Ev::Done(b, id, node, range, result));
        }

        /// Every property a scenario must show once its queue is empty.
        pub(crate) fn check(self) -> FleetOutcome {
            let why = self.why();
            let stats = self.counters.snapshot();
            let mut batches = Vec::new();
            for (b, sb) in self.batches.iter().enumerate() {
                let settled = sb.outcome.as_ref();
                let (at, result, fleet) = settled.unwrap_or_else(|| panic!("{why}: {b} unsettled"));
                match result {
                    Ok(shards) => {
                        let got: Vec<_> = shards.iter().flatten().cloned().collect();
                        let want = rlwe_batch_to_wire(&accs_for(&sb.lwes), &[ACC_Q]);
                        assert_eq!(rlwe_batch_to_wire(&got, &[ACC_Q]), want, "{why}: {b}");
                    }
                    // Every round of the budget met a failure the plans put there.
                    Err(e) if e.starts_with("retry budget exhausted") => {
                        assert!(sb.failures > MAX_ROUNDS as u64, "{why}: {b}: {e}");
                    }
                    // Nothing could serve: the fleet the machine last saw.
                    Err(e) => assert!(rank(fleet).is_empty(), "{why}: {b}: {e}"),
                }
                batches.push((*at - sb.arrived, result.is_ok()));
            }
            let mut transitions = [0; 3];
            for s in &self.slots {
                assert_eq!(s.inflight, 0, "{why}");
                let mut state = BreakerState::NEW;
                for &(event, at, booked) in &s.booked {
                    let (next, transition) =
                        state.on(event, s.role, &self.spec.policy, self.t0 + at);
                    assert_eq!(transition, booked, "{why}");
                    state = next;
                    match transition {
                        Some(Transition::Opened) => transitions[0] += 1,
                        Some(Transition::Readmitted) => transitions[1] += 1,
                        Some(Transition::Quarantined) => transitions[2] += 1,
                        Some(Transition::Abandoned) | None => {}
                    }
                }
                assert_eq!(state, s.breaker, "{why}");
            }
            let booked = [stats.breaker_opens, stats.readmissions, stats.quarantines];
            assert_eq!(booked, transitions, "{why}");
            assert_eq!(stats.node_failures, self.injected, "{why}");
            assert_eq!(stats.batches, self.batches.len() as u64, "{why}");
            let honest = |n: &NodeSpec| n.plan.is_empty() && n.fail_after.is_none() && !n.foreign;
            if self.spec.nodes.iter().all(honest) {
                assert!(batches.iter().all(|&(_, ok)| ok), "{why}");
            }
            FleetOutcome { stats, batches }
        }
    }

    /// The node state and stubs a [`Fleet`]'s pipes borrow.
    pub(crate) fn fleet_nodes(spec: &FleetSpec) -> (Vec<NodeShared>, Vec<Stub>) {
        let shared = (spec.nodes.iter())
            .map(|node| NodeShared {
                fault: Some(FaultState::new(node.plan.clone())),
                fail_after: node.fail_after,
                served: AtomicU64::new(0),
                dead: AtomicBool::new(false),
                telemetry: NodeTelemetry::new(),
            })
            .collect();
        let stubs = (spec.nodes.iter())
            .map(|node| {
                let mut stub = Stub::default();
                stub.foreign = node.foreign;
                stub
            })
            .collect();
        (shared, stubs)
    }

    impl<'a> Fleet<'a> {
        /// The fleet idle at time zero, its prober armed.
        pub(crate) fn new(
            spec: &'a FleetSpec,
            shared: &'a [NodeShared],
            stubs: &'a [Stub],
        ) -> Self {
            let regular = spec.nodes.len() - usize::from(spec.fallback);
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5EED);
            let mut f = Fleet {
                spec,
                t0: Instant::now(),
                pipes: (shared.iter().zip(stubs))
                    .map(|(node, stub)| NodeSim::new(node, stub, StdRng::seed_from_u64(rng.gen())))
                    .collect(),
                scripts: (spec.nodes.iter())
                    .map(|node| Script::new(&node.plan, node.fail_after))
                    .collect(),
                slots: (spec.nodes.iter().enumerate())
                    .map(|(i, node)| SimSlot {
                        role: [Role::Regular, Role::LastResort][usize::from(i >= regular)],
                        breaker: BreakerState::NEW,
                        holds_key: node.holds_key,
                        inflight: 0,
                        ewma_ns: 0,
                        samples: 0,
                        booked: Vec::new(),
                    })
                    .collect(),
                counters: SchedulerCounters::register(&heap_telemetry::Registry::new("sim")),
                queue: BTreeMap::new(),
                seq: 0,
                batches: Vec::new(),
                names: (0..spec.nodes.len()).map(|i| format!("sim-{i}")).collect(),
                injected: 0,
            };
            if !spec.policy.probe_interval.is_zero() && regular > 0 {
                f.at(spec.policy.probe_interval, Ev::Probe);
            }
            f
        }

        /// A batch of `lwes` for the fleet at `now`: its index, once
        /// `Ev::Arrive` (or [`Fleet::arrive`]) delivers it.
        fn add(&mut self, now: Duration, lwes: Vec<LweCiphertext>) -> usize {
            let batch = SimBatch {
                lwes,
                arrived: now,
                ..SimBatch::default()
            };
            self.batches.push(batch);
            self.batches.len() - 1
        }

        /// A batch of `lwes` arriving now: the scheduler's `execute` call.
        pub(crate) fn arrive(&mut self, now: Duration, lwes: Vec<LweCiphertext>) -> usize {
            let b = self.add(now, lwes);
            self.handle(now, Ev::Arrive(b));
            b
        }

        /// How batch `b` settled, once it has.
        pub(crate) fn outcome(&self, b: usize) -> Option<&Settled> {
            self.batches[b].outcome.as_ref()
        }

        /// When the next event is due, unless only the prober is left.
        pub(crate) fn next_at(&self) -> Option<Duration> {
            let mut due = self.queue.iter();
            let ((at, _), ev) = due.next()?;
            (!matches!(ev, Ev::Probe) || due.next().is_some()).then_some(*at)
        }

        /// Handles the next event, probes included.
        pub(crate) fn step(&mut self) {
            let ((now, _), ev) = self.queue.pop_first().expect("an event is due");
            self.handle(now, ev);
        }

        fn handle(&mut self, now: Duration, ev: Ev) {
            let spec = self.spec;
            assert!(
                now < Duration::from_secs(3600),
                "{}: never settles",
                self.why()
            );
            match ev {
                Ev::Arrive(b) => {
                    let count = self.batches[b].lwes.len();
                    let names = self.names.clone();
                    let machine = BatchMachine::new(spec.policy, b as u64, count, names);
                    self.batches[b].machine = Some(machine);
                    self.wake(b, now);
                }
                Ev::Wake(b) => {
                    let sb = &self.batches[b];
                    if sb.outcome.is_none() && sb.armed == Some(self.t0 + now) {
                        self.wake(b, now);
                    }
                }
                Ev::Done(b, id, node, range, result) => {
                    self.slots[node].inflight -= range.len();
                    let machine = self.batches[b].machine.as_mut().expect("arrived");
                    let commands = machine.on(self.t0 + now, BatchEvent::Done(id, result));
                    self.run(b, now, &[], commands);
                    let sb = &mut self.batches[b];
                    let machine = sb.machine.as_mut().expect("arrived");
                    if sb.outcome.is_some() {
                        assert!(
                            machine.take_result().is_none(),
                            "{}: settled twice",
                            self.why()
                        );
                    } else if machine.wake_at() != sb.armed {
                        self.wake(b, now);
                    }
                }
                Ev::Probe => {
                    for i in 0..self.slots.len() {
                        if self.step_breaker(i, BreakerEvent::ProbeDue, now) {
                            let ok = self.pipes[i].call(NodeCall::Ping).is_ok();
                            self.step_breaker(i, [Failed, Succeeded][usize::from(ok)], now);
                        }
                    }
                    self.at(now + spec.policy.probe_interval, Ev::Probe);
                }
            }
        }
    }

    fn run_fleet(spec: &FleetSpec) -> FleetOutcome {
        let (shared, stubs) = fleet_nodes(spec);
        let mut f = Fleet::new(spec, &shared, &stubs);
        for (b, &(ms, count)) in spec.batches.iter().enumerate() {
            let at = Duration::from_millis(ms);
            f.add(at, lwes(count, spec.seed.wrapping_add(b as u64)));
            f.at(at, Ev::Arrive(b));
        }
        while f.next_at().is_some() {
            f.step();
        }
        f.check()
    }

    fn fleet_scenario(seed: u64) -> FleetOutcome {
        run_fleet(&FleetSpec::draw(seed))
    }

    /// A hand-written fleet: honest nodes unless a plan says otherwise.
    fn fleet_of(
        nodes: Vec<NodeSpec>,
        policy: RetryPolicy,
        batches: Vec<(u64, usize)>,
    ) -> FleetSpec {
        FleetSpec {
            seed: 0,
            nodes,
            fallback: false,
            policy,
            batches,
        }
    }

    fn node(plan: &str) -> NodeSpec {
        NodeSpec {
            plan: plan.parse().unwrap_or_default(),
            ms_per_lwe: 1,
            ..NodeSpec::default()
        }
    }

    #[test]
    fn fleet_scenarios_settle_as_their_plans_say() {
        let start = Instant::now();
        let (mut served, mut failed, mut totals) = (0, 0, [0u64; 8]);
        for seed in 0..10_000 {
            let o = fleet_scenario(seed);
            served += o.batches.iter().filter(|b| b.1).count();
            failed += o.batches.iter().filter(|b| !b.1).count();
            let s = o.stats;
            let tally = [
                s.reassignments,
                s.node_failures,
                s.fallback_shards,
                s.hedges_won,
                s.hedges_wasted,
                s.readmissions,
                s.corruption_crc,
                s.corruption_audit,
            ];
            totals.iter_mut().zip(tally).for_each(|(t, n)| *t += n);
        }
        let took = start.elapsed();
        // Reassignments, failures, fallback shards, hedges won and wasted,
        // readmissions, CRC catches, audit mismatches.
        println!("10000 fleet scenarios in {took:?}: {served} batches served, {failed} failed; {totals:?}");
        assert!(totals[..7].iter().all(|&n| n > 10), "{totals:?}");
        assert_eq!(totals[7], 0, "a wire node cannot lie convincingly");
        assert!(failed > 10, "no plan leaves a fleet unable to serve");
        assert!(took < Duration::from_secs(10), "{took:?}");
    }

    /// A secondary that answers over another basis is a `Protocol` failure
    /// (asserted per attempt by the simulator), and its shard moves on.
    #[test]
    fn fleet_foreign_basis_reply_is_a_protocol_error_and_the_shard_moves() {
        let foreign = NodeSpec {
            foreign: true,
            ..node("")
        };
        let spec = fleet_of(
            vec![node(""), foreign],
            RetryPolicy::test_no_readmission(),
            vec![(0, 4)],
        );
        let o = run_fleet(&spec);
        assert!(o.batches[0].1);
        let s = o.stats;
        assert_eq!(
            (s.node_failures, s.reassignments, s.breaker_opens),
            (1, 1, 1)
        );
    }

    /// The virtual-clock twin of `scheduler::tests::prober_readmits_recovered_node`.
    #[test]
    fn fleet_prober_readmits_recovered_node() {
        let spec = fleet_of(
            vec![node("fail"), node("")],
            RetryPolicy::test_fast(),
            vec![(0, 4), (100, 4)],
        );
        let o = run_fleet(&spec);
        assert!(o.batches.iter().all(|b| b.1));
        let s = o.stats;
        assert_eq!(
            (s.breaker_opens, s.readmissions, s.node_failures),
            (1, 1, 1)
        );
        assert_eq!(
            s.shards,
            3 + 2,
            "the readmitted node serves the second batch"
        );
    }

    /// The virtual-clock twin of `scheduler::tests::hedge_rescues_stalled_shard`:
    /// the straggler stalls under the read deadline, the hedge fires at the
    /// 20 ms floor and wins, and the straggler's late result is wasted work.
    #[test]
    fn fleet_hedge_rescues_stalled_shard() {
        let policy = RetryPolicy {
            hedge_after: Some(1.5),
            hedge_min_latency: 20 * MS,
            hedge_min_samples: 1,
            ..RetryPolicy::test_no_readmission()
        };
        let o = run_fleet(&fleet_of(
            vec![node(""), node("stall:90")],
            policy,
            vec![(0, 1), (10, 4)],
        ));
        assert_eq!(o.batches, vec![(MS, true), (22 * MS, true)]);
        let s = o.stats;
        assert_eq!((s.hedges_issued, s.hedges_won, s.hedges_wasted), (1, 1, 1));
        assert_eq!(s.node_failures, 0, "a stall is not a failure");
    }
}
