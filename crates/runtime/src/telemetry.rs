//! Runtime metric handles: one registry per service, shared by the
//! pipeline's executor and the scheduler.
//!
//! Metric names are documented in DESIGN.md §9. Every set is a
//! `metric_table!`, registered once at service start; the handles are
//! plain atomics from `heap-telemetry`, so recording on the dispatch path
//! is allocation-free.

use std::sync::Arc;

use heap_telemetry::{metric_table, EventLog, Registry};

/// How many fault events the service retains (oldest evicted first).
const EVENT_CAPACITY: usize = 1024;

metric_table! {
    /// Handles to the scheduler's lifetime counters.
    pub(crate) struct SchedulerCounters;
    /// Counters accumulated across a scheduler's lifetime.
    pub struct SchedulerStats {}
    batches: Counter "heap_scheduler_batches_total",
        "batches executed to completion (success or failure)";
    shards: Counter "heap_scheduler_shards_total",
        "shards dispatched, including reassigned and fallback ones";
    reassignments: Counter "heap_scheduler_reassignments_total",
        "shards re-dispatched after a failed attempt";
    node_failures: Counter "heap_scheduler_node_failures_total",
        "failed node calls (transport, protocol, timeout, short reply)";
    breaker_opens: Counter "heap_scheduler_breaker_opens_total",
        "circuit-breaker transitions into Open";
    readmissions: Counter "heap_scheduler_readmissions_total",
        "nodes readmitted into dispatch (HalfOpen to Closed)";
    fallback_shards: Counter "heap_scheduler_fallback_shards_total",
        "shards served by the fallback node";
    hedges_issued: Counter "heap_hedges_issued_total",
        "speculative duplicate attempts started for straggling shards";
    hedges_won: Counter "heap_hedges_won_total",
        "hedged attempts whose result resolved the shard";
    hedges_wasted: Counter "heap_hedges_wasted_total",
        "attempts discarded because the shard was already settled";
    corruption_crc: Counter "heap_corruption_detected_total" {"layer" = "crc"},
        "corrupted replies caught, by detection layer";
    corruption_attest: Counter "heap_corruption_detected_total" {"layer" = "attest"},
        "corrupted replies caught, by detection layer";
    corruption_audit: Counter "heap_corruption_detected_total" {"layer" = "audit"},
        "corrupted replies caught, by detection layer";
    quarantines: Counter "heap_quarantines_total",
        "nodes permanently removed from dispatch after an audit mismatch";
}

metric_table! {
    /// The scheduler's span.
    pub(crate) struct SchedulerSpans;
    shard_round_trip_ns: Histogram "heap_shard_round_trip_ns",
        "per-shard scatter/compute/gather round trip in nanoseconds";
}

/// Counters and spans owned by the scheduler (cloned `Arc`s, so a
/// service-level snapshot and [`SchedulerStats`] read the same atomics).
#[derive(Debug, Clone)]
pub(crate) struct SchedulerTelemetry {
    pub counters: SchedulerCounters,
    pub spans: SchedulerSpans,
    /// Fault events: retries, breaker transitions, readmissions.
    pub events: Arc<EventLog>,
}

impl SchedulerTelemetry {
    /// Registers the scheduler metrics in `registry`.
    pub fn new(registry: &Registry, events: Arc<EventLog>) -> Self {
        Self {
            counters: SchedulerCounters::register(registry),
            spans: SchedulerSpans::register(registry),
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

metric_table! {
    /// Histograms recorded at each batch flush.
    pub(crate) struct BatcherTelemetry;
    queue_wait_ns: Histogram "heap_queue_wait_ns",
        "submit to batch-admission wait per job in nanoseconds";
    batch_linger_ns: Histogram "heap_batch_linger_ns",
        "batch open to flush linger in nanoseconds";
    batch_size_lwes: Histogram "heap_batch_size_lwes", "blind rotations per flushed batch";
}

metric_table! {
    /// Gauges mirroring the pipeline machine's counts after each
    /// transition: how many batches each stage buffers, how many hold a
    /// rotate slot, and how much accepted-but-unfinished work is in the
    /// system (the backlog the SLO admission model projects).
    pub(crate) struct PipelineGauges;
    /// The pipeline machine's counts, one per gauge.
    pub(crate) struct PipelineCounts {}
    prep_depth: Gauge "heap_pipeline_prep_depth",
        "batches buffered between batcher and prep workers";
    rotate_depth: Gauge "heap_pipeline_rotate_depth",
        "prepared batches buffered before the rotate workers";
    finish_depth: Gauge "heap_pipeline_finish_depth",
        "rotated batches buffered before the finish workers";
    rotating_batches: Gauge "heap_pipeline_rotating_batches",
        "batches flushed by the batcher and not yet through rotation";
    inflight_jobs: Gauge "heap_jobs_inflight",
        "jobs accepted and not yet completed (queued or in-stage)";
    inflight_lwes: Gauge "heap_lwes_inflight",
        "blind rotations accepted and not yet completed";
}

metric_table! {
    /// Handles to the service's job-lifecycle counters.
    pub(crate) struct JobCounters;
    /// Lifetime counters for a service.
    pub struct RuntimeStats {
        /// The scheduler's counters.
        scheduler: SchedulerStats,
    }
    submitted: Counter "heap_jobs_submitted_total", "jobs accepted into the queue";
    completed: Counter "heap_jobs_completed_total", "jobs completed successfully";
    failed: Counter "heap_jobs_failed_total", "jobs completed with an error";
    rejected: Counter "heap_jobs_rejected_total",
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
    pub pipeline: PipelineGauges,
}

impl ServiceTelemetry {
    /// Registers the full service metric set in a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new("service"));
        let events = Arc::new(EventLog::new(EVENT_CAPACITY));
        Self {
            jobs: JobCounters::register(&registry),
            batcher: BatcherTelemetry::register(&registry),
            scheduler: SchedulerTelemetry::new(&registry, Arc::clone(&events)),
            pipeline: PipelineGauges::register(&registry),
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
