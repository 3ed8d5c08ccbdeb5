//! The four workloads and what they share: seeded inputs, the timed
//! region's bookkeeping, and output verification.

pub mod cluster;
pub mod keys_cold;
pub mod lib_sparse;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::api::{
    predicted_bootstrap_rel_error, Bootstrapper, Ciphertext, CkksContext, LweCiphertext,
    Parallelism, RingSecretKey, RlweCiphertext, Rng, SecretKey, StdRng,
};
use crate::procs::Accounting;
use crate::stats::{median, percentile, slice_rates, spread, Interval};
use crate::trace::{SpanId, Tracer};

/// Jobs run before the timed region so caches, lazy tables and node key
/// stores are warm.
pub const WARMUP_JOBS: usize = 2;
/// The timed region is cut into this many equal slices, and only the
/// fastest few of them are measured. The sandbox's speed swings by 1.5x
/// and more for seconds at a time without any of it showing as steal, and
/// in a bad minute only a quarter of the time is undisturbed (see the
/// README's noise findings). Slices shorter than those episodes are mostly
/// all-fast or all-slow, so the fastest ones read the undisturbed machine:
/// on identical runs in a bad ten minutes the pooled median moved by 35 %,
/// the fastest quarter's by 11 % and the fastest tenth's by 5 %. A code
/// change moves every slice alike and still shows.
pub const SLICES: usize = 20;
/// Slices kept, of [`SLICES`] that hold a job.
pub const KEPT_SLICES: usize = 3;

/// Every workload with why it exists, in one line (`BENCHMARK.json`
/// carries these).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lib-medium-sparse",
        "in-process sparse bootstraps on 36-bit limbs with a key larger than L2: kernel-bound, so math/tfhe changes show and runtime or wire changes must not",
    ),
    (
        "cluster-tiny-full",
        "closed loop of fully-packed bootstraps through the service over two node processes: the paper's deployment, every layer busy, both cores saturated",
    ),
    (
        "cluster-small-open",
        "open loop of two-LWE rotations at half capacity on the same cluster: linger, dispatch and framing outweigh compute, batches never coalesce",
    ),
    (
        "keys-cold",
        "two tenants evict each other from one node's key cache: one 1.9 MB upload and a key expansion per job, so key-load and frame-codec changes show",
    ),
];

pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Whether to set up several times so `setup_s` is a median (off in
    /// traced and smoke runs, which do not report it).
    pub repeat_setups: bool,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub job_ms_p50: f64,
    pub lwe_per_s: f64,
    pub cpu_ms_per_job: f64,
    pub peak_rss_mb: f64,
    pub precision_bits: f64,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub violations: Vec<String>,
    pub e2e: EndToEnd,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Rendered budget tree (traced runs only).
    pub tree: String,
}

/// Runs the workload called `name`.
pub fn run(name: &str, opts: RunOpts) -> Result<Outcome, String> {
    match name {
        "lib-medium-sparse" => lib_sparse::run(opts),
        "cluster-tiny-full" => cluster::run_full(opts),
        "cluster-small-open" => cluster::run_open(opts),
        "keys-cold" => keys_cold::run(opts),
        other => Err(format!(
            "unknown workload '{other}' (one of {})",
            names().join(", ")
        )),
    }
}

/// Times `repeats` full set-ups (one if `opts` says not to repeat),
/// keeping the last one's state and returning the median time. Earlier
/// states are dropped (nodes killed, services shut down) before the next
/// set-up starts, so set-ups never overlap.
pub fn timed_setups<S>(
    opts: RunOpts,
    repeats: usize,
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let repeats = if opts.repeat_setups { repeats } else { 1 };
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(set_up()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&times)))
}

/// A message whose coefficients stay inside the bootstrap's linear range
/// (`|m| ≤ 0.15`, so the phase stays below `q₀/4`), supported on the
/// stride-`n / n_br` comb.
pub fn comb_message(rng: &mut StdRng, n: usize, n_br: usize) -> Vec<f64> {
    let stride = n / n_br;
    (0..n)
        .map(|i| {
            if i % stride == 0 {
                rng.gen_range(-150i64..=150) as f64 / 1000.0
            } else {
                0.0
            }
        })
        .collect()
}

/// An exhausted (single-limb) encryption of `msg` at the fresh scale.
pub fn encrypt_exhausted(
    ctx: &CkksContext,
    sk: &SecretKey,
    msg: &[f64],
    rng: &mut StdRng,
) -> Ciphertext {
    let delta = ctx.fresh_scale();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    ctx.encrypt_coeffs_sk(&coeffs, delta, 1, sk, rng)
}

/// A bootstrap input with the message it encrypts.
pub struct BootInput {
    pub ct: Ciphertext,
    pub msg: Vec<f64>,
}

pub fn boot_inputs(
    ctx: &CkksContext,
    sk: &SecretKey,
    n_br: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<BootInput> {
    (0..count)
        .map(|_| {
            let msg = comb_message(rng, ctx.n(), n_br);
            let ct = encrypt_exhausted(ctx, sk, &msg, rng);
            BootInput { ct, msg }
        })
        .collect()
}

/// Largest coefficient error of a bootstrap output against its message.
pub fn bootstrap_error(ctx: &CkksContext, sk: &SecretKey, out: &Ciphertext, msg: &[f64]) -> f64 {
    let dec = ctx.decrypt_coeffs(out, sk);
    dec.iter()
        .zip(msg)
        .map(|(d, m)| (d / out.scale() - m).abs())
        .fold(0.0, f64::max)
}

/// The error above which an output counts as wrong: three times the
/// library's own three-sigma model of the bootstrap error.
pub fn error_limit(ctx: &CkksContext, boot: &Bootstrapper) -> f64 {
    3.0 * predicted_bootstrap_rel_error(ctx, boot.config().n_t)
}

/// Real blind-rotate inputs: the mod-switched LWE extractions of a fresh
/// exhausted ciphertext, each with the message coefficient it carries, so
/// a rotation's output can be decrypted and checked, not only compared.
pub struct LweInputs {
    pub lwes: Vec<LweCiphertext>,
    pub msg: Vec<f64>,
    /// The ciphertext the last of them were extracted from.
    pub ct: Ciphertext,
}

/// Extracts `count` coefficients from as many fresh dense ciphertexts as
/// it takes (`N` from each but the last).
pub fn lwe_inputs(
    ctx: &CkksContext,
    sk: &SecretKey,
    boot: &Bootstrapper,
    count: usize,
    rng: &mut StdRng,
) -> LweInputs {
    let n = ctx.n();
    let (mut lwes, mut all_msg) = (Vec::with_capacity(count), Vec::with_capacity(count));
    loop {
        let take = n.min(count - lwes.len());
        let msg = comb_message(rng, n, n);
        let ct = encrypt_exhausted(ctx, sk, &msg, rng);
        let indices: Vec<usize> = (0..take).collect();
        let extracted = boot.extract_lwes(ctx, &ct, &indices);
        lwes.extend(boot.modulus_switch(ctx, &extracted));
        all_msg.extend_from_slice(&msg[..take]);
        if lwes.len() >= count {
            return LweInputs {
                lwes,
                msg: all_msg,
                ct,
            };
        }
    }
}

/// Checks blind-rotate outputs: every accumulator's constant coefficient
/// (`≈ 2N·Δ·m`) is decrypted and held against the message, and with
/// `compare` the accumulators must also equal, bit for bit, the client's
/// own rotation of the same LWEs (which costs that rotation). Returns the
/// largest message error, or what went wrong.
pub fn check_rotations(
    ctx: &CkksContext,
    sk: &SecretKey,
    boot: &Bootstrapper,
    lwes: &[LweCiphertext],
    msg: &[f64],
    accs: &[RlweCiphertext],
    compare: bool,
) -> Result<f64, String> {
    if accs.len() != lwes.len() {
        return Err(format!(
            "{} accumulators for {} LWEs",
            accs.len(),
            lwes.len()
        ));
    }
    if compare {
        let local = boot.blind_rotate_batch_par(ctx, lwes, Parallelism::serial());
        if local
            .iter()
            .zip(accs)
            .any(|(l, r)| l.a != r.a || l.b != r.b)
        {
            return Err("accumulator differs from the local rotation".to_string());
        }
    }
    let rns = ctx.rns();
    let ring_sk = RingSecretKey::from_coeffs(rns, ctx.boot_limbs(), sk.coeffs().to_vec());
    let unit = 2.0 * ctx.n() as f64 * ctx.fresh_scale();
    let limit = error_limit(ctx, boot);
    let mut worst = 0f64;
    for (acc, m) in accs.iter().zip(msg) {
        let got = acc.phase(rns, &ring_sk).to_centered_f64(rns)[0] / unit;
        let err = (got - m).abs();
        if err > limit {
            return Err(format!(
                "rotation decrypts to {got}, want {m} (limit {limit})"
            ));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

/// `−log2` of the largest error seen.
pub fn precision_bits(max_err: f64) -> f64 {
    -max_err.max(f64::MIN_POSITIVE).log2()
}

/// One job on the region clock (seconds since the region began).
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Submit time, or due time in an open loop.
    pub start: f64,
    pub end: f64,
    pub ok: bool,
    /// Whether spans were recorded for this job. In a traced region every
    /// other job is, so traced and untraced jobs see the same machine.
    pub traced: bool,
}

/// Jobs that errored, were refused, or failed verification.
pub fn failed(records: &[JobRecord]) -> u64 {
    records.iter().filter(|r| !r.ok).count() as u64
}

/// The timed region's clock and process accounting.
pub struct Region {
    pub t0: Instant,
    pub seconds: f64,
    acct: Accounting,
    /// Samples total CPU at every slice boundary.
    sampler: std::thread::JoinHandle<Vec<f64>>,
}

impl Region {
    pub fn begin(seconds: f64, node_pids: &[u32]) -> Self {
        let acct = Accounting::start(node_pids);
        let t0 = Instant::now();
        let sampler = {
            let acct = acct.clone();
            std::thread::spawn(move || {
                (1..=SLICES)
                    .map(|k| {
                        let at = t0 + Duration::from_secs_f64(seconds * k as f64 / SLICES as f64);
                        std::thread::sleep(at.saturating_duration_since(Instant::now()));
                        acct.cpu_seconds()
                    })
                    .collect()
            })
        };
        Self {
            t0,
            seconds,
            acct,
            sampler,
        }
    }

    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    pub fn deadline(&self) -> Instant {
        self.t0 + Duration::from_secs_f64(self.seconds)
    }

    pub fn open(&self) -> bool {
        Instant::now() < self.deadline()
    }

    /// The record of a job that began at `t0` and has just ended well.
    pub fn job_since(&self, t0: Instant) -> JobRecord {
        JobRecord {
            start: self.at(t0),
            end: self.at(Instant::now()),
            ok: true,
            traced: false,
        }
    }

    /// Closes the region: call once the last job has drained and before
    /// any verification, so neither is billed to the jobs.
    ///
    /// A job belongs to the slice it ends in. Slices are ranked by their
    /// median latency and all but the fastest [`KEPT_SLICES`] are dropped
    /// as disturbed: the median latency pools the jobs of the kept slices,
    /// the rate and the CPU per job are medians over the kept slices. The
    /// tail percentiles are diagnostics and pool every job of the region.
    pub fn finish(self, records: &[JobRecord], lwes_per_job: f64) -> RegionSummary {
        let cpu_at = self.sampler.join().expect("sampler thread");
        RegionSummary {
            steal_ratio: self.acct.steal_ratio(),
            peak_rss_mb: self.acct.peak_rss_mb(),
            ..summarize(records, &cpu_at, self.seconds, lwes_per_job)
        }
    }
}

/// A node counter from `RemoteNode::fetch_stats`, by the end of its name:
/// the node prefixes each with the scope of the registry it lives in.
pub fn node_stat(stats: &[(String, u64)], name: &str) -> Option<u64> {
    stats
        .iter()
        .find(|(full, _)| full.ends_with(name))
        .map(|(_, value)| *value)
}

/// Whether spans are recorded for job number `job` of a traced region.
pub fn is_traced(job: usize) -> bool {
    job.is_multiple_of(2)
}

/// Median latency of the traced jobs over that of the untraced ones.
pub fn trace_overhead_ratio(records: &[JobRecord]) -> f64 {
    let latencies = |traced: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.ok && r.traced == traced)
            .map(|r| r.end - r.start)
            .collect()
    };
    let (with, without) = (latencies(true), latencies(false));
    if with.is_empty() || without.is_empty() {
        return 0.0;
    }
    median(&with) / median(&without)
}

/// The statistics of [`Region::finish`]. `cpu_at[k]` is the CPU consumed
/// from the start of the region to the end of slice `k`, in seconds.
fn summarize(
    records: &[JobRecord],
    cpu_at: &[f64],
    seconds: f64,
    lwes_per_job: f64,
) -> RegionSummary {
    let ok: Vec<&JobRecord> = records.iter().filter(|r| r.ok).collect();
    let intervals: Vec<Interval> = ok
        .iter()
        .map(|r| Interval {
            start: r.start,
            end: r.end,
        })
        .collect();
    let slice_len = seconds / SLICES as f64;
    let job_rates = slice_rates(&intervals, 1.0, seconds, SLICES);
    let mut lat_ms: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for r in &ok {
        // Jobs still in flight at the deadline end just after it.
        let k = ((r.end / slice_len) as usize).min(SLICES - 1);
        lat_ms[k].push((r.end - r.start) * 1e3);
    }
    let mut ranked: Vec<(f64, usize)> = lat_ms
        .iter()
        .enumerate()
        .filter(|(_, lat)| !lat.is_empty())
        .map(|(k, lat)| (median(lat), k))
        .collect();
    if ranked.is_empty() {
        return RegionSummary {
            attempted: records.len() as u64,
            ..RegionSummary::default()
        };
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let medians: Vec<f64> = ranked.iter().map(|(m, _)| *m).collect();
    let kept: Vec<usize> = ranked[..(ranked.len() * KEPT_SLICES).div_ceil(SLICES)]
        .iter()
        .map(|(_, k)| *k)
        .collect();
    let mut pooled: Vec<f64> = kept
        .iter()
        .flat_map(|&k| lat_ms[k].iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let mut all: Vec<f64> = lat_ms.concat();
    all.sort_by(f64::total_cmp);
    let rates: Vec<f64> = kept.iter().map(|&k| job_rates[k]).collect();
    let cpu_ms_per_job: Vec<f64> = kept
        .iter()
        .map(|&k| {
            let before = if k == 0 { 0.0 } else { cpu_at[k - 1] };
            (cpu_at[k] - before) * 1e3 / (job_rates[k] * slice_len)
        })
        .collect();
    RegionSummary {
        attempted: records.len() as u64,
        completed: ok.len() as u64,
        samples: pooled.len(),
        job_ms_p50: percentile(&pooled, 0.50),
        job_ms_p90: percentile(&all, 0.90),
        job_ms_p99: percentile(&all, 0.99),
        lwe_per_s: median(&rates) * lwes_per_job,
        slice_spread: spread(&medians),
        cpu_ms_per_job: median(&cpu_ms_per_job),
        ..RegionSummary::default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct RegionSummary {
    pub attempted: u64,
    /// Jobs that completed without error.
    pub completed: u64,
    /// Jobs in the kept slices, behind `job_ms_p50`.
    pub samples: usize,
    pub job_ms_p50: f64,
    pub job_ms_p90: f64,
    pub job_ms_p99: f64,
    pub lwe_per_s: f64,
    pub slice_spread: f64,
    pub cpu_ms_per_job: f64,
    pub steal_ratio: f64,
    pub peak_rss_mb: f64,
}

impl RegionSummary {
    /// Files what a traced region says about the run itself.
    pub fn record_health(&self, out: &mut Outcome, records: &[JobRecord]) {
        let l = &mut out.layers;
        l.insert("runtime.job_ms_p90", self.job_ms_p90);
        l.insert("runtime.job_ms_p99", self.job_ms_p99);
        l.insert("bench.steal_ratio", self.steal_ratio);
        l.insert("bench.slice_spread", self.slice_spread);
        l.insert("bench.trace_overhead_ratio", trace_overhead_ratio(records));
    }

    pub fn end_to_end(&self, setup_s: f64, max_err: f64) -> EndToEnd {
        EndToEnd {
            setup_s,
            job_ms_p50: self.job_ms_p50,
            lwe_per_s: self.lwe_per_s,
            cpu_ms_per_job: self.cpu_ms_per_job,
            peak_rss_mb: self.peak_rss_mb,
            precision_bits: precision_bits(max_err),
        }
    }
}

/// Writes a traced run's spans next to the build output (which the
/// repository already ignores) and says where under the budget tree.
pub fn write_trace(workload: &str, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("benchmark binary is not inside a target directory")?
        .join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.tree
        .push_str(&format!("spans written to {}\n", path.display()));
    Ok(())
}

/// One bootstrap through the step API with a span around every stage;
/// `rotate` runs the blind-rotate stage (it gets that stage's span, to hang
/// spans of its own under). Returns the output and the CMUX steps the
/// job's LWEs really run: a zero mask element is skipped.
pub fn staged_job(
    ctx: &CkksContext,
    boot: &Bootstrapper,
    tracer: &Tracer,
    job: u64,
    ct: &Ciphertext,
    indices: &[usize],
    rotate: impl FnOnce(SpanId, &[LweCiphertext]) -> Result<Vec<RlweCiphertext>, String>,
) -> Result<(Ciphertext, u64), String> {
    tracer.scope("job", job, None, |root| {
        let p = Some(root);
        let lwes = tracer.scope("core.extract", job, p, |_| {
            boot.extract_lwes(ctx, ct, indices)
        });
        let switched = tracer.scope("core.mod_switch", job, p, |_| {
            boot.modulus_switch(ctx, &lwes)
        });
        let rotated = tracer.scope("core.blind_rotate", job, p, |span| rotate(span, &switched))?;
        let leaves = tracer.scope("core.to_leaves", job, p, |_| {
            boot.to_leaves(ctx, &rotated, indices)
        });
        let out = tracer.scope("core.finish", job, p, |_| {
            boot.finish(ctx, leaves, ct.scale())
        });
        let steps = switched
            .iter()
            .map(|l| l.a.iter().filter(|&&a| a % l.modulus != 0).count() as u64)
            .sum();
        Ok((out, steps))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Back-to-back jobs over a 20 s region: 0.1 s each, except in the
    /// disturbed stretch from 4 s to 16 s, where they take 0.15 s and cost
    /// half as much CPU again.
    fn disturbed_run() -> (Vec<JobRecord>, Vec<f64>) {
        let mut records = Vec::new();
        let mut t = 0.0;
        while t < 20.0 {
            let len = if (4.0..16.0).contains(&t) { 0.15 } else { 0.1 };
            records.push(JobRecord {
                start: t,
                end: t + len,
                ok: true,
                traced: false,
            });
            t += len;
        }
        // One busy core throughout: CPU seconds equal wall seconds.
        let cpu_at = (1..=SLICES).map(|k| k as f64).collect();
        (records, cpu_at)
    }

    #[test]
    fn the_fast_slices_set_the_timing_metrics() {
        let (records, cpu_at) = disturbed_run();
        let s = summarize(&records, &cpu_at, 20.0, 8.0);
        // 60 % of the region is disturbed, so the pooled median is slow;
        // the kept slices read the undisturbed machine.
        assert!((s.job_ms_p50 - 100.0).abs() < 1e-6, "{s:?}");
        assert!((s.lwe_per_s - 80.0).abs() < 1e-6, "{s:?}");
        assert!((s.cpu_ms_per_job - 100.0).abs() < 1e-6, "{s:?}");
        // The tail diagnostics and the spread still show the disturbance.
        assert!((s.job_ms_p90 - 150.0).abs() < 1e-6, "{s:?}");
        assert!(s.slice_spread > 0.3, "{s:?}");
        assert_eq!(s.completed as usize, records.len());
        assert!(s.samples >= 29 && s.samples <= 31, "{s:?}");
    }

    #[test]
    fn failed_jobs_are_counted_and_not_timed() {
        let (mut records, cpu_at) = disturbed_run();
        records[0].ok = false;
        let s = summarize(&records, &cpu_at, 20.0, 8.0);
        assert_eq!(s.attempted as usize, records.len());
        assert_eq!(s.completed as usize, records.len() - 1);
        let none = summarize(&[], &cpu_at, 20.0, 8.0);
        assert_eq!((none.attempted, none.samples), (0, 0));
    }
}
