//! `lib-medium-sparse`: sequential sparse bootstraps in this process.
//!
//! Kernel-bound on the paper's limb width (36-bit limbs, five boot limbs,
//! gadget `d = 2` / base `2^18`) with a rotation key of ≈ 125 MB that does
//! not fit any cache: NTT, MAC, decomposition and key-streaming
//! changes have nowhere to hide here, and runtime or wire changes must
//! read *no change*.

use std::time::{Duration, Instant};

use crate::api::{
    BootstrapConfig, Bootstrapper, Ciphertext, CkksContext, CkksParams, Parallelism, SecretKey,
    SeedableRng, StdRng,
};
use crate::layers::{self, CoreJob};
use crate::trace::{self, Tracer};
use crate::workloads::{
    boot_inputs, bootstrap_error, error_limit, failed, is_traced, lwe_inputs, staged_job,
    timed_setups, write_trace, BootInput, JobRecord, Outcome, Region, RunOpts, WARMUP_JOBS,
};

/// Refreshed coefficients per job (the paper's `n_br` knob).
pub const N_BR: usize = 8;
/// Distinct input ciphertexts cycled through.
const INPUTS: usize = 16;
/// Set-ups per untraced run (each generates a 125 MB key: ≈ 2 s).
const SETUPS: usize = 3;

struct State {
    ctx: CkksContext,
    sk: SecretKey,
    boot: Bootstrapper,
    inputs: Vec<BootInput>,
}

fn set_up(seed: u64) -> State {
    let ctx = CkksContext::new(CkksParams::test_medium());
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let config = BootstrapConfig {
        n_t: 32,
        ..BootstrapConfig::paper()
    }
    .with_parallelism(Parallelism::serial());
    let boot = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
    let inputs = boot_inputs(&ctx, &sk, N_BR, INPUTS, &mut rng);
    for input in inputs.iter().take(WARMUP_JOBS) {
        std::hint::black_box(boot.bootstrap_sparse(&ctx, &input.ct, N_BR));
    }
    State {
        ctx,
        sk,
        boot,
        inputs,
    }
}

/// Decrypts every output; a job whose error exceeds the limit is failed.
fn verify(s: &State, records: &mut [JobRecord], outputs: &[(usize, Ciphertext)]) -> f64 {
    let limit = error_limit(&s.ctx, &s.boot);
    let mut worst = 0f64;
    for (record, (which, out)) in records.iter_mut().zip(outputs) {
        let err = bootstrap_error(&s.ctx, &s.sk, out, &s.inputs[*which].msg);
        if err > limit || out.limbs() != s.ctx.max_limbs() {
            record.ok = false;
        } else {
            worst = worst.max(err);
        }
    }
    worst
}

pub fn run(opts: RunOpts) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setups(opts, SETUPS, || Ok(set_up(opts.seed)))?;
    if opts.trace {
        return run_traced(&s, opts);
    }
    let region = Region::begin(opts.seconds, &[]);
    let mut records = Vec::new();
    let mut outputs = Vec::new();
    while region.open() {
        let which = records.len() % s.inputs.len();
        let t0 = Instant::now();
        let out = s.boot.bootstrap_sparse(&s.ctx, &s.inputs[which].ct, N_BR);
        records.push(region.job_since(t0));
        outputs.push((which, out));
    }
    let summary = region.finish(&records, N_BR as f64);
    let max_err = verify(&s, &mut records, &outputs);
    Ok(Outcome {
        attempted: summary.attempted,
        failed: failed(&records),
        e2e: summary.end_to_end(setup_s, max_err),
        samples: summary.samples,
        ..Outcome::default()
    })
}

/// One job through the step API, rotating in this thread.
fn stepped_job(s: &State, tracer: &Tracer, job: u64, ct: &Ciphertext) -> (Ciphertext, u64) {
    let indices: Vec<usize> = (0..s.ctx.n()).step_by(s.ctx.n() / N_BR).collect();
    staged_job(&s.ctx, &s.boot, tracer, job, ct, &indices, |_, lwes| {
        Ok(s.boot.blind_rotate_batch(&s.ctx, lwes))
    })
    .expect("a local rotation cannot fail")
}

fn run_traced(s: &State, opts: RunOpts) -> Result<Outcome, String> {
    // The one-call form and the same job step by step under spans take
    // turns, so both see the same machine: their ratio is the tracing
    // overhead and the check that the stages add up to the call.
    let share = opts.seconds / 3.0;
    let tracer = Tracer::new(4096);
    let region = Region::begin(2.0 * share, &[]);
    let mut records = Vec::new();
    let mut outputs = Vec::new();
    let mut ep_count = 0;
    while region.open() {
        let job = records.len();
        let which = job % s.inputs.len();
        let ct = &s.inputs[which].ct;
        let t0 = Instant::now();
        let out = if is_traced(job) {
            let (out, eps) = stepped_job(s, &tracer, job as u64, ct);
            ep_count = eps;
            out
        } else {
            s.boot.bootstrap_sparse(&s.ctx, ct, N_BR)
        };
        records.push(JobRecord {
            traced: is_traced(job),
            ..region.job_since(t0)
        });
        outputs.push((which, out));
    }
    let summary = region.finish(&records, N_BR as f64);
    verify(s, &mut records, &outputs);
    let whole: Vec<f64> = records
        .iter()
        .filter(|r| !r.traced)
        .map(|r| (r.end - r.start) * 1e3)
        .collect();
    let whole_ms = whole.iter().sum::<f64>() / whole.len().max(1) as f64;

    let budget = Duration::from_secs_f64(share / 14.0);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6c77_6573);
    let sample = lwe_inputs(&s.ctx, &s.sk, &s.boot, N_BR, &mut rng);
    let units = layers::unit_costs(&s.ctx, &s.sk, &s.boot, &sample, N_BR, opts.seed, budget);
    let keys = layers::key_costs(&s.ctx, &s.boot, None, budget);
    let model = layers::key_wire_model(&s.ctx, &s.boot);

    let tree = trace::budget(&tracer.spans());
    let mut out = Outcome {
        attempted: summary.attempted,
        failed: failed(&records),
        samples: summary.samples,
        ..Outcome::default()
    };
    let explained = layers::record_core(
        &mut out,
        &CoreJob {
            ctx: &s.ctx,
            boot: &s.boot,
            tree: &tree,
            units: &units,
            n_br: N_BR,
            ep_count,
            whole_ms,
            lanes: 1,
        },
    );
    out.tree = trace::render(&tree, "job", &explained);
    units.record(&mut out);
    keys.record(&mut out);
    let container = model.container_bytes(false);
    if keys.container_bytes != container as f64 {
        out.violations.push(format!(
            "strict key container is {} bytes, the hw model says {container}",
            keys.container_bytes
        ));
    }
    out.layers.insert(
        "hw.key_bytes_model_ratio",
        keys.container_bytes / container as f64,
    );
    summary.record_health(&mut out, &records);
    write_trace("lib-medium-sparse", &tracer, &mut out)?;
    Ok(out)
}
