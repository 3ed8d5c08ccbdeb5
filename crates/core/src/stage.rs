//! Per-stage latency metrics for the Algorithm 2 pipeline.
//!
//! The paper evaluates HEAP with a per-stage latency breakdown (Tables
//! 3/4); this module gives every [`crate::Bootstrapper`] the same
//! breakdown at runtime: one log-bucket histogram per pipeline stage,
//! recorded once per batch invocation of the stage. Recording is
//! allocation-free (see `heap-telemetry`), so always-on instrumentation
//! does not disturb the hot path it measures.

use std::sync::Arc;

use heap_telemetry::{Histogram, Registry};

/// The pipeline stages, in the order the paper model presents them
/// (Algorithm 2 plus the final rescale). Exposition consumers use this
/// list to check a scraped endpoint covers the whole pipeline.
pub const PIPELINE_STAGES: [&str; 5] =
    ["mod_switch", "extract", "blind_rotate", "repack", "rescale"];

/// Returns the metric name for a stage's latency histogram
/// (`heap_stage_<stage>_ns`).
pub fn stage_metric_name(stage: &str) -> String {
    format!("heap_stage_{stage}_ns")
}

/// Per-stage latency histograms, one per entry of [`PIPELINE_STAGES`].
///
/// Created once per [`crate::Bootstrapper`] (both the service primary and
/// every `heap-node-serve` process own a bootstrapper, so each side
/// accumulates its own stage timings). Units are nanoseconds per *batch*
/// call of the stage.
#[derive(Debug)]
pub struct StageMetrics {
    registry: Arc<Registry>,
    pub(crate) extract: Arc<Histogram>,
    pub(crate) mod_switch: Arc<Histogram>,
    pub(crate) blind_rotate: Arc<Histogram>,
    pub(crate) repack: Arc<Histogram>,
    pub(crate) rescale: Arc<Histogram>,
}

impl StageMetrics {
    /// Registers the five stage histograms in a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new("core"));
        let hist = |stage: &str| {
            registry.histogram(
                &stage_metric_name(stage),
                &format!("{stage} stage latency per batch in nanoseconds"),
            )
        };
        Self {
            extract: hist("extract"),
            mod_switch: hist("mod_switch"),
            blind_rotate: hist("blind_rotate"),
            repack: hist("repack"),
            rescale: hist("rescale"),
            registry,
        }
    }

    /// The registry holding the stage histograms (for exposition).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The named stage's histogram, if `stage` is one of
    /// [`PIPELINE_STAGES`].
    pub fn stage(&self, stage: &str) -> Option<&Arc<Histogram>> {
        match stage {
            "extract" => Some(&self.extract),
            "mod_switch" => Some(&self.mod_switch),
            "blind_rotate" => Some(&self.blind_rotate),
            "repack" => Some(&self.repack),
            "rescale" => Some(&self.rescale),
            _ => None,
        }
    }
}

impl Default for StageMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pipeline_stage_has_a_histogram() {
        let m = StageMetrics::new();
        for stage in PIPELINE_STAGES {
            let h = m.stage(stage).expect(stage);
            h.record(1);
        }
        let snap = m.registry().snapshot();
        for stage in PIPELINE_STAGES {
            let h = snap.histogram(&stage_metric_name(stage)).expect(stage);
            assert_eq!(h.count, 1, "{stage}");
        }
        assert!(m.stage("bogus").is_none());
    }
}
