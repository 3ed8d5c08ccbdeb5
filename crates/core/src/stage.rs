//! Per-stage latency metrics for the Algorithm 2 pipeline.
//!
//! The paper evaluates HEAP with a per-stage latency breakdown (Tables
//! 3/4); this module gives every [`crate::Bootstrapper`] the same
//! breakdown at runtime: one log-bucket histogram per pipeline stage,
//! recorded once per batch invocation of the stage. Recording is
//! allocation-free (see `heap-telemetry`), so always-on instrumentation
//! does not disturb the hot path it measures.

use std::sync::Arc;

use heap_telemetry::Histogram;

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

heap_telemetry::metric_table! {
    /// Per-stage latency histograms, one per entry of [`PIPELINE_STAGES`].
    ///
    /// Each [`crate::Bootstrapper`] owns one (the service primary's covers
    /// the stages it runs), and a node owns one for the rotations it serves
    /// under any key. Units are nanoseconds per *batch* call of the stage;
    /// clones record into the same histograms.
    pub struct StageMetrics in "core";
    extract: Histogram "heap_stage_extract_ns",
        "extract stage latency per batch in nanoseconds";
    mod_switch: Histogram "heap_stage_mod_switch_ns",
        "mod_switch stage latency per batch in nanoseconds";
    blind_rotate: Histogram "heap_stage_blind_rotate_ns",
        "blind_rotate stage latency per batch in nanoseconds";
    repack: Histogram "heap_stage_repack_ns",
        "repack stage latency per batch in nanoseconds";
    rescale: Histogram "heap_stage_rescale_ns",
        "rescale stage latency per batch in nanoseconds";
}

impl StageMetrics {
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
