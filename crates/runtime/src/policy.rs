//! The scheduler's policy: every decision, written once, as a pure function.
//!
//! `scheduler.rs` owns what has to touch the world — node slots, attempt
//! workers, the round wait loop, the prober. What it *decides* lives here:
//! functions of `(state, event, now)` that read no clock, take no lock,
//! spawn nothing and count nothing, so each decision is one table the
//! tests walk cell by cell without keys, workers or waiting.
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
//! event, and [`Shard::on_result`] does the same for the attempts (primary,
//! audit twin, hedge) racing to settle one shard; DESIGN.md prints the two
//! tables (§8, §13), including the last-resort rows and the two breaker
//! cells kept as found, rows (g) and (h). [`backoff`], [`audit_pick`],
//! [`hedge_target`], [`round_tick`], [`ewma_fold`] and [`slo_overrun`] are
//! the remaining arithmetic: deterministic in their arguments, so
//! identical runs retry, audit and hedge identically.

use std::time::{Duration, Instant};

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

/// What one attempt's result did to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settle {
    /// Still racing: a failure with other attempts out, or an audit
    /// shard's first result waiting for its twin.
    Pending,
    /// This result settled the shard with a winner.
    Won {
        /// The winner was the hedge attempt.
        by_hedge: bool,
    },
    /// The shard was already settled; the result is dropped.
    Discarded {
        /// A valid result lost a race the scheduler itself started (the
        /// shard was hedged) — the discarded work is worth counting.
        wasted: bool,
    },
    /// Every attempt failed; the shard re-enters the next round.
    Failed,
    /// Two validated audit results disagree: at least one node lied
    /// convincingly (a digest consistent with wrong bits). Neither is
    /// trusted; the shard fails this round.
    Disagreed {
        /// The node whose result arrived second.
        a: usize,
        /// The node whose result was held.
        b: usize,
    },
}

/// One shard's race within a dispatch round, generic over the payload so
/// the table is testable without ciphertexts.
#[derive(Debug)]
pub(crate) struct Shard<T> {
    /// Audit shard: wins only on two bit-equal validated results (or one,
    /// if every other attempt failed outright).
    audit: bool,
    /// A hedge was issued for this shard.
    hedged: bool,
    state: ShardState<T>,
}

#[derive(Debug)]
enum ShardState<T> {
    Racing {
        /// Attempts launched and not yet reported.
        outstanding: usize,
        /// First validated `(node, digest, payload)` of an audit shard.
        held: Option<(usize, u64, T)>,
    },
    /// Settled with a winner (`None` once collected).
    Won(Option<T>),
    /// Settled without one.
    Failed,
}

impl<T> Shard<T> {
    pub(crate) fn new(audit: bool) -> Self {
        Self {
            audit,
            hedged: false,
            state: ShardState::Racing {
                outstanding: 0,
                held: None,
            },
        }
    }

    pub(crate) fn is_audit(&self) -> bool {
        self.audit
    }

    /// Books one more attempt in flight.
    pub(crate) fn launched(&mut self, hedge: bool) {
        self.hedged |= hedge;
        if let ShardState::Racing { outstanding, .. } = &mut self.state {
            *outstanding += 1;
        }
    }

    /// Whether a hedge may be issued: still racing with an attempt out,
    /// at most one hedge per shard, and never for an audit shard (it
    /// already runs twice).
    pub(crate) fn can_hedge(&self) -> bool {
        !self.audit
            && !self.hedged
            && matches!(self.state, ShardState::Racing { outstanding, .. } if outstanding > 0)
    }

    /// Folds in one attempt's result — `Some((digest, payload))` once
    /// validated, `None` for a failure — per the settlement table
    /// (DESIGN §13).
    pub(crate) fn on_result(
        &mut self,
        node: usize,
        hedge: bool,
        result: Option<(u64, T)>,
    ) -> Settle {
        let ShardState::Racing { outstanding, held } = &mut self.state else {
            return Settle::Discarded {
                wasted: result.is_some() && self.hedged,
            };
        };
        *outstanding -= 1;
        let last = *outstanding == 0;
        let won = |payload: T, by_hedge| {
            let settle = Settle::Won { by_hedge };
            (ShardState::Won(Some(payload)), settle)
        };
        let (state, settle) = match result {
            // A failure settles nothing while another attempt is out. The
            // last one out fails the shard — unless an audit result is
            // held, which then stands alone.
            None if !last => return Settle::Pending,
            None => match held.take() {
                Some((_, _, payload)) => won(payload, false),
                None => (ShardState::Failed, Settle::Failed),
            },
            Some((digest, payload)) if self.audit => match held.take() {
                None if !last => {
                    *held = Some((node, digest, payload));
                    return Settle::Pending;
                }
                // The twin failed outright earlier; a single validated
                // result stands.
                None => won(payload, false),
                Some((_, held_digest, held_payload)) if held_digest == digest => {
                    won(held_payload, false)
                }
                Some((other, _, _)) => {
                    (ShardState::Failed, Settle::Disagreed { a: node, b: other })
                }
            },
            Some((_, payload)) => won(payload, hedge),
        };
        self.state = state;
        settle
    }

    /// The winning payload, once; `None` for a shard that has no winner
    /// (yet, or any more).
    pub(crate) fn take_won(&mut self) -> Option<T> {
        match &mut self.state {
            ShardState::Won(payload) => payload.take(),
            _ => None,
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

/// Chooses the hedge for a shard that has been racing for `elapsed`, from
/// `(node, ewma_ns, samples, tried)` rows of the dispatchable regular
/// nodes: the fastest warmed-up node the shard has not tried is both the
/// trigger reference and the target. Returns it with the threshold that
/// was crossed, or `None` when hedging is off, no such node exists, or
/// the shard is not late yet.
///
/// The reference is the *best other node's* EWMA rather than a fleet p99:
/// one straggler in a small fleet drags the p99 up to its own latency,
/// which would disable exactly the hedge meant to beat it.
pub(crate) fn hedge_target(
    policy: &RetryPolicy,
    elapsed: Duration,
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
    (elapsed >= threshold).then_some((node, threshold))
}

/// How often a round's wait loop looks for stragglers to hedge; with
/// hedging off it only needs to notice settlements, which notify it.
pub(crate) fn round_tick(policy: &RetryPolicy) -> Duration {
    match policy.hedge_after {
        Some(_) => (policy.hedge_min_latency / 4).max(Duration::from_millis(1)),
        None => Duration::from_secs(60),
    }
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

#[cfg(test)]
mod tests {
    use super::BreakerEvent::{CaughtLying, Failed, ProbeDue, Succeeded};
    use super::BreakerState::{Closed, HalfOpen, Open, Quarantined};
    use super::*;

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

    /// A shard with `attempts` launched, the last `hedges` of them hedges.
    fn shard(audit: bool, attempts: usize, hedges: usize) -> Shard<u8> {
        let mut sh = Shard::new(audit);
        for i in 0..attempts {
            sh.launched(i >= attempts - hedges);
        }
        sh
    }

    const WON: Settle = Settle::Won { by_hedge: false };

    #[test]
    fn settle_plain_win() {
        let mut sh = shard(false, 1, 0);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), WON);
        assert_eq!(sh.take_won(), Some(42));
        assert_eq!(sh.take_won(), None, "collected once");
    }

    #[test]
    fn settle_hedge_win_and_wasted_loser() {
        let mut sh = shard(false, 2, 1);
        assert_eq!(
            sh.on_result(1, true, Some((7, 42))),
            Settle::Won { by_hedge: true }
        );
        // The straggling primary finally answers: valid, discarded, and
        // counted because the scheduler itself started the race.
        assert_eq!(
            sh.on_result(0, false, Some((7, 43))),
            Settle::Discarded { wasted: true }
        );
        assert_eq!(
            sh.take_won(),
            Some(42),
            "the loser never replaces the winner"
        );
        // The primary winning a hedged race wastes the hedge the same way.
        let mut sh = shard(false, 2, 1);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), WON);
        assert_eq!(
            sh.on_result(1, true, Some((7, 42))),
            Settle::Discarded { wasted: true }
        );
    }

    #[test]
    fn settle_late_results_on_an_unhedged_shard_are_not_counted_wasted() {
        let mut sh = shard(false, 2, 0);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), WON);
        assert_eq!(
            sh.on_result(1, false, Some((7, 42))),
            Settle::Discarded { wasted: false }
        );
        // A late *failure* is never wasted work, hedged or not.
        let mut sh = shard(false, 2, 1);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), WON);
        assert_eq!(
            sh.on_result(1, true, None),
            Settle::Discarded { wasted: false }
        );
    }

    #[test]
    fn settle_all_attempts_fail() {
        let mut sh = shard(false, 2, 1);
        assert_eq!(sh.on_result(0, false, None), Settle::Pending);
        assert_eq!(sh.on_result(1, true, None), Settle::Failed);
        assert_eq!(sh.take_won(), None);
        // A failed primary does not stop its hedge from winning.
        let mut sh = shard(false, 2, 1);
        assert_eq!(sh.on_result(0, false, None), Settle::Pending);
        assert_eq!(
            sh.on_result(1, true, Some((7, 42))),
            Settle::Won { by_hedge: true }
        );
    }

    #[test]
    fn settle_audit_first_result_is_held_then_agreement_wins() {
        let mut sh = shard(true, 2, 0);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), Settle::Pending);
        assert_eq!(sh.take_won(), None, "one audit result is not a winner yet");
        assert_eq!(sh.on_result(1, false, Some((7, 43))), WON);
        assert_eq!(
            sh.take_won(),
            Some(42),
            "the held payload is the one delivered"
        );
    }

    #[test]
    fn settle_audit_twin_already_failed_single_result_stands() {
        let mut sh = shard(true, 2, 0);
        assert_eq!(sh.on_result(0, false, None), Settle::Pending);
        assert_eq!(sh.on_result(1, false, Some((7, 42))), WON);
        assert_eq!(sh.take_won(), Some(42));
    }

    #[test]
    fn settle_audit_disagreement_fails_the_shard_and_names_both_nodes() {
        let mut sh = shard(true, 2, 0);
        assert_eq!(sh.on_result(4, false, Some((7, 42))), Settle::Pending);
        assert_eq!(
            sh.on_result(9, false, Some((8, 42))),
            Settle::Disagreed { a: 9, b: 4 }
        );
        assert_eq!(sh.take_won(), None, "neither result is trusted");
    }

    #[test]
    fn settle_audit_held_then_twin_fails_held_result_stands() {
        let mut sh = shard(true, 2, 0);
        assert_eq!(sh.on_result(0, false, Some((7, 42))), Settle::Pending);
        assert_eq!(sh.on_result(1, false, None), WON);
        assert_eq!(sh.take_won(), Some(42));
    }

    #[test]
    fn hedge_is_offered_once_to_racing_unaudited_shards_only() {
        assert!(!shard(false, 0, 0).can_hedge(), "nothing launched yet");
        assert!(shard(false, 1, 0).can_hedge());
        assert!(!shard(false, 2, 1).can_hedge(), "one hedge per shard");
        assert!(
            !shard(true, 2, 0).can_hedge(),
            "audit shards already run twice"
        );
        let mut sh = shard(false, 1, 0);
        sh.on_result(0, false, Some((7, 42)));
        assert!(!sh.can_hedge(), "settled");
        let mut sh = shard(false, 1, 0);
        sh.on_result(0, false, None);
        assert!(!sh.can_hedge(), "failed");
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
        let fast = [(1, 1_000, 3, false)];
        assert_eq!(
            hedge_target(&p, 20 * MS - Duration::from_nanos(1), fast),
            None
        );
        assert_eq!(hedge_target(&p, 20 * MS, fast), Some((1, 20 * MS)));
        // Above the floor: 1.5 × 100 ms.
        let slow = [(1, 100_000_000, 3, false)];
        assert_eq!(hedge_target(&p, 149 * MS, slow), None);
        assert_eq!(hedge_target(&p, 150 * MS, slow), Some((1, 150 * MS)));
        // Off is off, however late the shard is.
        let off = RetryPolicy {
            hedge_after: None,
            ..p
        };
        assert_eq!(hedge_target(&off, Duration::from_secs(3600), slow), None);
    }

    #[test]
    fn cold_nodes_neither_trigger_nor_anchor_a_hedge() {
        let p = hedging();
        // Node 1 is cold with a tempting EWMA; node 2 is warm and slower:
        // node 2 sets the threshold and is the target.
        let rows = [(1, 1_000, 2, false), (2, 40_000_000, 3, false)];
        assert_eq!(hedge_target(&p, 59 * MS, rows), None);
        assert_eq!(hedge_target(&p, 60 * MS, rows), Some((2, 60 * MS)));
        // Only cold nodes: no hedge at all.
        let cold = [(1, 1_000, 0, false), (2, 1_000, 2, false)];
        assert_eq!(hedge_target(&p, Duration::from_secs(3600), cold), None);
    }

    #[test]
    fn hedge_targets_the_fastest_untried_node_lowest_index_on_ties() {
        let p = hedging();
        let late = Duration::from_secs(1);
        let rows = [
            (0, 1_000, 9, true), // the straggler itself
            (1, 5_000, 9, false),
            (2, 3_000, 9, false),
            (3, 3_000, 9, false),
        ];
        assert_eq!(hedge_target(&p, late, rows), Some((2, 20 * MS)));
        let all_tried = rows.map(|(node, ewma, samples, _)| (node, ewma, samples, true));
        assert_eq!(hedge_target(&p, late, all_tried), None);
    }

    #[test]
    fn round_tick_is_a_quarter_of_the_hedge_floor_at_least_a_millisecond() {
        assert_eq!(round_tick(&hedging()), 5 * MS);
        let tiny = RetryPolicy {
            hedge_min_latency: MS,
            ..hedging()
        };
        assert_eq!(round_tick(&tiny), MS);
        assert_eq!(round_tick(&RetryPolicy::default()), Duration::from_secs(60));
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
}
