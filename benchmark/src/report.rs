//! The metric catalogue, the result line the driver reads, and the
//! comparison behind `--repeat`.

use std::fmt::Write as _;

use crate::workloads::{EndToEnd, Outcome, WORKLOADS};

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub get: fn(&EndToEnd) -> f64,
}

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        get: |e| e.setup_s,
    },
    EndToEndMetric {
        name: "job_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        get: |e| e.job_ms_p50,
    },
    EndToEndMetric {
        name: "lwe_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        get: |e| e.lwe_per_s,
    },
    EndToEndMetric {
        name: "cpu_ms_per_job",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        get: |e| e.cpu_ms_per_job,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
        get: |e| e.peak_rss_mb,
    },
    EndToEndMetric {
        name: "precision_bits",
        unit: "bits",
        higher_is_better: true,
        bound: 0.20,
        get: |e| e.precision_bits,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better,
    }
}

/// The per-layer metrics (layer = crate, plus `bench` for the harness
/// itself). A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [LayerMetric; 54] = [
    layer("math.ntt_fwd_us", "us", false),
    layer("math.ntt_inv_us", "us", false),
    layer("math.decompose_us", "us", false),
    layer("math.simd_backend", "label", true),
    layer("tfhe.external_product_us", "us", false),
    layer("tfhe.ep_ntt_share", "ratio", false),
    layer("tfhe.ep_other_us", "us", false),
    layer("tfhe.blind_rotate_ms", "ms", false),
    layer("tfhe.lwe_keyswitch_us", "us", false),
    layer("tfhe.lwe_encode_us", "us", false),
    layer("tfhe.rlwe_decode_us", "us", false),
    layer("ckks.rescale_us", "us", false),
    layer("ckks.galois_ks_us", "us", false),
    layer("core.extract_ms", "ms", false),
    layer("core.mod_switch_ms", "ms", false),
    layer("core.blind_rotate_ms", "ms", false),
    layer("core.to_leaves_ms", "ms", false),
    layer("core.finish_ms", "ms", false),
    layer("core.stage_sum_ratio", "ratio", true),
    layer("core.br_explained_ratio", "ratio", true),
    layer("core.finish_explained_ratio", "ratio", true),
    layer("core.ep_count", "count", false),
    layer("core.ntt_count", "count", false),
    layer("parallel.par2_efficiency", "ratio", true),
    layer("keys.package_ms", "ms", false),
    layer("keys.from_wire_ms", "ms", false),
    layer("keys.into_bootstrapper_ms", "ms", false),
    layer("keys.container_bytes", "bytes", false),
    layer("keys.warm_batch_ms_p50", "ms", false),
    layer("keys.cache_hit_ratio", "ratio", true),
    layer("runtime.shard_rtt_ms", "ms", false),
    layer("runtime.shard_overhead_ms", "ms", false),
    layer("runtime.ping_rtt_us", "us", false),
    layer("runtime.submit_call_us", "us", false),
    layer("runtime.manual_pipeline_ms", "ms", false),
    layer("runtime.service_overhead_ms", "ms", false),
    layer("runtime.key_upload_ms", "ms", false),
    layer("runtime.job_ms_p90", "ms", false),
    layer("runtime.job_ms_p99", "ms", false),
    layer("runtime.queue_wait_ms_mean", "ms", false),
    layer("runtime.batch_linger_ms_mean", "ms", false),
    layer("runtime.batch_lwes_mean", "count", true),
    layer("runtime.shards_total", "count", false),
    layer("runtime.retries_total", "count", false),
    layer("runtime.hedges_total", "count", false),
    layer("runtime.wire_bytes_per_job", "bytes", false),
    layer("hw.key_bytes_model_ratio", "ratio", false),
    layer("bench.steal_ratio", "ratio", false),
    layer("bench.gen_late_ms_max", "ms", false),
    layer("bench.slice_spread", "ratio", false),
    layer("bench.trace_overhead_ratio", "ratio", false),
    layer("bench.fail_ratio", "ratio", false),
    layer("bench.samples", "count", true),
    layer("bench.host_cores", "count", true),
];

/// JSON has no NaN or infinity; a ratio over nothing reads as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `(name, unit, value)` of every metric this run reports.
pub fn metrics(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                (m.name, m.unit, finite(v))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, finite((m.get)(&out.e2e))))
            .collect()
    }
}

/// The last line of a run's standard output.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.violations.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, value)) in metrics(out, trace).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// Reads one metric's value back out of a [`result_line`].
pub fn parse_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Reads `correct` back out of a [`result_line`].
pub fn parse_correct(line: &str) -> bool {
    line.starts_with("{\"correct\": true,")
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
pub fn worsening(m: &EndToEndMetric, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS;
    let better = |higher| if higher { "higher" } else { "lower" };
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome {
            attempted: 17,
            ..Outcome::default()
        };
        out.e2e.job_ms_p50 = 12.5;
        out.e2e.precision_bits = f64::INFINITY;
        let line = result_line(&out, false);
        assert!(parse_correct(&line));
        assert_eq!(parse_metric(&line, "job_ms_p50"), Some(12.5));
        assert_eq!(parse_metric(&line, "precision_bits"), Some(0.0));
        assert_eq!(parse_metric(&line, "no_such_metric"), None);
        out.failed = 1;
        assert!(!parse_correct(&result_line(&out, false)));
        let traced = result_line(&out, true);
        assert_eq!(parse_metric(&traced, "core.ep_count"), Some(0.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[2];
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
