//! Runtime metric handles: one registry per service, shared by the
//! pipeline's executor and the scheduler.
//!
//! Metric names are documented in DESIGN.md §9. Everything here is
//! registered once at service start; the handles are plain atomics from
//! `heap-telemetry`, so recording on the dispatch path is allocation-free.

use std::sync::Arc;

use heap_telemetry::{Counter, EventLog, Gauge, Histogram, Registry};

/// How many fault events the service retains (oldest evicted first).
const EVENT_CAPACITY: usize = 1024;

/// Declares a counter set **once**: each row is `field: "metric name"
/// {"label" = "value"}, "help"` (the label block is optional). From the one listing it produces the handle struct
/// (an `Arc<Counter>` per row), its `register` constructor, the public
/// `u64` snapshot struct — whose field docs *are* the help strings — and
/// `snapshot()`, so a counter cannot exist without all four and adding
/// one is one line. Fields written inside the snapshot struct's braces
/// are carried through: `snapshot` takes them as arguments.
macro_rules! counter_table {
    (
        $(#[$hmeta:meta])*
        $hvis:vis struct $Handles:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Stats:ident { $($(#[$xmeta:meta])* $extra:ident: $Extra:ty,)* }
        $($field:ident: $name:literal $({$($key:literal = $value:literal),*})?, $help:literal;)*
    ) => {
        $(#[$hmeta])*
        #[derive(Debug, Clone)]
        $hvis struct $Handles {
            $(pub $field: Arc<Counter>,)*
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $svis struct $Stats {
            $(#[doc = $help] pub $field: u64,)*
            $($(#[$xmeta])* pub $extra: $Extra,)*
        }

        impl $Handles {
            /// Registers every counter of the table in `registry`, in
            /// table order.
            pub(crate) fn register(registry: &Registry) -> Self {
                Self {
                    $($field: registry.labeled_counter(
                        $name,
                        $help,
                        &[$($(($key, $value)),*)?],
                    ),)*
                }
            }

            /// Reads every counter of the table — the *same* atomics the
            /// registry exposes, so a scrape and this struct can never
            /// disagree.
            pub(crate) fn snapshot(&self, $($extra: $Extra,)*) -> $Stats {
                $Stats {
                    $($field: self.$field.get(),)*
                    $($extra,)*
                }
            }
        }
    };
}

counter_table! {
    /// Handles to the scheduler's lifetime counters.
    pub(crate) struct SchedulerCounters;
    /// Counters accumulated across a scheduler's lifetime.
    pub struct SchedulerStats {}
    batches: "heap_scheduler_batches_total",
        "batches executed to completion (success or failure)";
    shards: "heap_scheduler_shards_total",
        "shards dispatched, including reassigned and fallback ones";
    reassignments: "heap_scheduler_reassignments_total",
        "shards re-dispatched after a failed attempt";
    node_failures: "heap_scheduler_node_failures_total",
        "failed node calls (transport, protocol, timeout, short reply)";
    breaker_opens: "heap_scheduler_breaker_opens_total",
        "circuit-breaker transitions into Open";
    readmissions: "heap_scheduler_readmissions_total",
        "nodes readmitted into dispatch (HalfOpen to Closed)";
    fallback_shards: "heap_scheduler_fallback_shards_total",
        "shards served by the fallback node";
    hedges_issued: "heap_hedges_issued_total",
        "speculative duplicate attempts started for straggling shards";
    hedges_won: "heap_hedges_won_total",
        "hedged attempts whose result resolved the shard";
    hedges_wasted: "heap_hedges_wasted_total",
        "attempts discarded because the shard was already settled";
    corruption_crc: "heap_corruption_detected_total" {"layer" = "crc"},
        "corrupted replies caught, by detection layer";
    corruption_attest: "heap_corruption_detected_total" {"layer" = "attest"},
        "corrupted replies caught, by detection layer";
    corruption_audit: "heap_corruption_detected_total" {"layer" = "audit"},
        "corrupted replies caught, by detection layer";
    quarantines: "heap_quarantines_total",
        "nodes permanently removed from dispatch after an audit mismatch";
}

/// Counters and spans owned by the scheduler (cloned `Arc`s, so a
/// service-level snapshot and [`SchedulerStats`] read the same atomics).
#[derive(Debug, Clone)]
pub(crate) struct SchedulerTelemetry {
    pub counters: SchedulerCounters,
    /// Wall-clock of one shard's scatter → compute → gather round trip.
    pub shard_round_trip_ns: Arc<Histogram>,
    /// Fault events: retries, breaker transitions, readmissions.
    pub events: Arc<EventLog>,
}

impl SchedulerTelemetry {
    /// Registers the scheduler metrics in `registry`.
    pub fn new(registry: &Registry, events: Arc<EventLog>) -> Self {
        Self {
            counters: SchedulerCounters::register(registry),
            shard_round_trip_ns: registry.histogram(
                "heap_shard_round_trip_ns",
                "per-shard scatter/compute/gather round trip in nanoseconds",
            ),
            events,
        }
    }

    /// A self-contained instance for schedulers constructed without a
    /// service (the registry is dropped; the counters keep working).
    pub fn standalone() -> Self {
        Self::new(
            &Registry::new("scheduler"),
            Arc::new(EventLog::new(EVENT_CAPACITY)),
        )
    }
}

/// Histograms recorded at each batch flush.
#[derive(Debug, Clone)]
pub(crate) struct BatcherTelemetry {
    /// Submit → admitted-into-a-batch wait per job.
    pub queue_wait_ns: Arc<Histogram>,
    /// Batch open (first job popped) → flush.
    pub batch_linger_ns: Arc<Histogram>,
    /// Blind rotations per flushed batch.
    pub batch_size_lwes: Arc<Histogram>,
}

impl BatcherTelemetry {
    /// Registers the batcher metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            queue_wait_ns: registry.histogram(
                "heap_queue_wait_ns",
                "submit to batch-admission wait per job in nanoseconds",
            ),
            batch_linger_ns: registry.histogram(
                "heap_batch_linger_ns",
                "batch open to flush linger in nanoseconds",
            ),
            batch_size_lwes: registry
                .histogram("heap_batch_size_lwes", "blind rotations per flushed batch"),
        }
    }
}

/// Gauges mirroring the pipeline machine's counts after each transition:
/// how many batches each stage buffers, how many hold a rotate slot, and
/// how much accepted-but-unfinished work is in the system (the backlog
/// the SLO admission model projects).
#[derive(Debug, Clone)]
pub(crate) struct PipelineTelemetry {
    /// Batches parked between the batcher and the prep workers.
    pub prep_depth: Arc<Gauge>,
    /// Prepared mega-batches parked before the rotate workers.
    pub rotate_depth: Arc<Gauge>,
    /// Rotated batches parked before the finish workers.
    pub finish_depth: Arc<Gauge>,
    /// Batches flushed and not yet through rotation: the count the
    /// batcher's free-rotate-slot flush rule reads.
    pub rotating_batches: Arc<Gauge>,
    /// Jobs accepted and not yet completed (queued or in any stage).
    pub inflight_jobs: Arc<Gauge>,
    /// Blind rotations accepted and not yet completed.
    pub inflight_lwes: Arc<Gauge>,
}

impl PipelineTelemetry {
    /// Registers the pipeline gauges in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            prep_depth: registry.gauge(
                "heap_pipeline_prep_depth",
                "batches buffered between batcher and prep workers",
            ),
            rotate_depth: registry.gauge(
                "heap_pipeline_rotate_depth",
                "prepared batches buffered before the rotate workers",
            ),
            finish_depth: registry.gauge(
                "heap_pipeline_finish_depth",
                "rotated batches buffered before the finish workers",
            ),
            rotating_batches: registry.gauge(
                "heap_pipeline_rotating_batches",
                "batches flushed by the batcher and not yet through rotation",
            ),
            inflight_jobs: registry.gauge(
                "heap_jobs_inflight",
                "jobs accepted and not yet completed (queued or in-stage)",
            ),
            inflight_lwes: registry.gauge(
                "heap_lwes_inflight",
                "blind rotations accepted and not yet completed",
            ),
        }
    }
}

counter_table! {
    /// Handles to the service's job-lifecycle counters.
    pub(crate) struct JobCounters;
    /// Lifetime counters for a service.
    pub struct RuntimeStats {
        /// The scheduler's counters.
        scheduler: SchedulerStats,
    }
    submitted: "heap_jobs_submitted_total", "jobs accepted into the queue";
    completed: "heap_jobs_completed_total", "jobs completed successfully";
    failed: "heap_jobs_failed_total", "jobs completed with an error";
    rejected: "heap_jobs_rejected_total",
        "jobs refused by SLO admission control (never queued)";
}

/// Everything a [`crate::BootstrapService`] measures, rooted in one
/// registry so a single exposition covers the whole service.
#[derive(Debug)]
pub(crate) struct ServiceTelemetry {
    pub registry: Arc<Registry>,
    pub events: Arc<EventLog>,
    pub jobs: JobCounters,
    pub batcher: BatcherTelemetry,
    pub scheduler: SchedulerTelemetry,
    pub pipeline: PipelineTelemetry,
}

impl ServiceTelemetry {
    /// Registers the full service metric set in a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new("service"));
        let events = Arc::new(EventLog::new(EVENT_CAPACITY));
        Self {
            jobs: JobCounters::register(&registry),
            batcher: BatcherTelemetry::new(&registry),
            scheduler: SchedulerTelemetry::new(&registry, Arc::clone(&events)),
            pipeline: PipelineTelemetry::new(&registry),
            registry,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_telemetry_registers_the_documented_names() {
        let t = ServiceTelemetry::new();
        t.jobs.submitted.inc();
        t.scheduler.counters.batches.add(2);
        t.batcher.batch_size_lwes.record(7);
        t.jobs.rejected.inc();
        t.pipeline.inflight_jobs.add(3);
        t.pipeline.rotate_depth.set(2);
        let snap = t.registry.snapshot();
        assert_eq!(snap.counter("heap_jobs_submitted_total"), Some(1));
        assert_eq!(snap.counter("heap_scheduler_batches_total"), Some(2));
        assert_eq!(snap.counter("heap_jobs_rejected_total"), Some(1));
        assert_eq!(snap.gauge("heap_jobs_inflight"), Some(3));
        assert_eq!(snap.gauge("heap_pipeline_rotate_depth"), Some(2));
        assert!(snap.gauge("heap_pipeline_prep_depth").is_some());
        assert!(snap.gauge("heap_pipeline_finish_depth").is_some());
        assert_eq!(snap.gauge("heap_pipeline_rotating_batches"), Some(0));
        assert!(snap.gauge("heap_lwes_inflight").is_some());
        assert_eq!(snap.histogram("heap_batch_size_lwes").unwrap().count, 1);
        assert!(snap.histogram("heap_queue_wait_ns").is_some());
        assert!(snap.histogram("heap_shard_round_trip_ns").is_some());
    }

    #[test]
    fn integrity_counters_register_as_one_labeled_family() {
        let t = ServiceTelemetry::new();
        t.scheduler.counters.corruption_crc.inc();
        t.scheduler.counters.corruption_audit.add(2);
        t.scheduler.counters.hedges_issued.inc();
        t.scheduler.counters.quarantines.inc();
        let snap = t.registry.snapshot();
        assert_eq!(
            snap.labeled_counter("heap_corruption_detected_total", &[("layer", "crc")]),
            Some(1)
        );
        assert_eq!(
            snap.labeled_counter("heap_corruption_detected_total", &[("layer", "attest")]),
            Some(0)
        );
        assert_eq!(
            snap.labeled_counter("heap_corruption_detected_total", &[("layer", "audit")]),
            Some(2)
        );
        assert_eq!(snap.counter("heap_hedges_issued_total"), Some(1));
        assert_eq!(snap.counter("heap_hedges_won_total"), Some(0));
        assert_eq!(snap.counter("heap_hedges_wasted_total"), Some(0));
        assert_eq!(snap.counter("heap_quarantines_total"), Some(1));
    }

    #[test]
    fn standalone_scheduler_counters_work_without_a_registry() {
        let t = SchedulerTelemetry::standalone();
        t.counters.node_failures.inc();
        assert_eq!(t.counters.snapshot().node_failures, 1);
        t.events.record("breaker_open", "node-0", "1 failure");
        assert_eq!(t.events.total(), 1);
    }
}
