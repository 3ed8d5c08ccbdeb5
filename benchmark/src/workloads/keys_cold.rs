//! `keys-cold`: two tenants evict each other from one node's key cache.
//!
//! The wire and key layers used differently from the cluster workloads:
//! one 1.9 MB frame and a node-side key expansion per job instead of many
//! small frames. The node's cache holds one Tiny key set; the tenants
//! alternate cold-A, warm-A, cold-B, so every cold batch is a real miss →
//! `KeyNeed` → `KeyUpload` → expand. A job here is one **cold** batch.
//! Work moved into key load, or a frame-codec change, shows here; kernel
//! changes should barely move it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    keyed_setup, KeyedSetup, ParamPreset, RemoteNode, RlweCiphertext, SeedableRng, ServiceNode,
    StdRng, TransferLedger,
};
use crate::layers::{self, time_us};
use crate::procs::NodeProc;
use crate::stats::median;
use crate::trace::{self, Explained, Tracer};
use crate::workloads::cluster::{connect, SETUPS};
use crate::workloads::{
    check_rotations, failed, is_traced, lwe_inputs, node_stat, timed_setups, write_trace,
    JobRecord, LweInputs, Outcome, Region, RegionSummary, RunOpts, WARMUP_JOBS,
};

/// LWEs per batch.
const BATCH: usize = 4;
/// LWEs extracted per tenant; batches walk through them window by window
/// so the checked outputs are not all the same four rotations.
const POOL: usize = 128;
/// Every cold batch's output is decrypted after the region; one in this
/// many is also compared bit for bit with a local rotation.
const COMPARE_EVERY: usize = 4;

struct Tenant {
    setup: KeyedSetup,
    node: RemoteNode,
    inputs: LweInputs,
}

struct State {
    tenants: Vec<Tenant>,
    ledger: Arc<TransferLedger>,
    /// Batches sent, and how many of them should have missed the cache.
    batches: AtomicU64,
    meant_cold: AtomicU64,
    node: NodeProc,
}

fn set_up(seed: u64) -> Result<State, String> {
    let setups = [
        keyed_setup(ParamPreset::Tiny, seed),
        keyed_setup(ParamPreset::Tiny, seed.wrapping_add(0x9e37_79b9)),
    ];
    // Room for one container and a half: the second tenant's upload always
    // evicts the first's.
    let budget = setups[0].key.bytes.len() * 3 / 2;
    let node = NodeProc::spawn(&["--key-cache-bytes".to_string(), budget.to_string()])?;
    let ledger = Arc::new(TransferLedger::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973);
    let tenants = setups
        .into_iter()
        .map(|setup| {
            let remote = connect(&node.addr, &setup, &ledger)?;
            let inputs = lwe_inputs(&setup.ctx, &setup.sk, &setup.boot, POOL, &mut rng);
            Ok(Tenant {
                setup,
                node: remote,
                inputs,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let state = State {
        tenants,
        ledger,
        batches: AtomicU64::new(0),
        meant_cold: AtomicU64::new(0),
        node,
    };
    // Alternating tenants: every warm-up batch is a miss.
    for _ in 0..WARMUP_JOBS {
        for tenant in &state.tenants {
            state.batch(tenant, true).1?;
        }
    }
    Ok(state)
}

impl State {
    /// The window of the tenant's pool that batch number `batch` rotates.
    fn window(batch: u64) -> std::ops::Range<usize> {
        let at = (batch as usize * BATCH) % POOL;
        at..at + BATCH
    }

    /// Sends the next batch for `t`; returns its number and accumulators.
    fn batch(&self, t: &Tenant, cold: bool) -> (u64, Result<Vec<RlweCiphertext>, String>) {
        let batch = self.batches.fetch_add(1, Ordering::Relaxed);
        self.meant_cold
            .fetch_add(u64::from(cold), Ordering::Relaxed);
        let lwes = &t.inputs.lwes[Self::window(batch)];
        let result = t
            .node
            .try_blind_rotate_batch(&t.setup.ctx, &t.setup.boot, lwes)
            .map_err(|e| e.to_string());
        (batch, result)
    }
}

struct ColdRun {
    summary: RegionSummary,
    records: Vec<JobRecord>,
    /// `(record, tenant, batch number, accumulators)` of the kept batches.
    retained: Vec<(usize, usize, u64, Vec<RlweCiphertext>)>,
    warm_ms: Vec<f64>,
}

/// Cycles cold-A, warm-A, cold-B for `seconds`. The set-up's warm-up ended
/// on tenant B, so the first A batch is already a miss.
fn cycle(s: &State, seconds: f64, tracer: Option<&Tracer>) -> ColdRun {
    let region = Region::begin(seconds, &[s.node.pid]);
    let mut records = Vec::new();
    let mut retained = Vec::new();
    let mut warm_ms = Vec::new();
    let mut rotations = 0u64;
    let mut timed = |tenant: usize, is_cold: bool, records: &mut Vec<JobRecord>| {
        let t0 = Instant::now();
        let (batch, result) = s.batch(&s.tenants[tenant], is_cold);
        let t1 = Instant::now();
        let traced = match tracer {
            Some(t) if is_traced(records.len()) => {
                let name = if is_cold { "job" } else { "keys.warm_batch" };
                t.record(name, records.len() as u64, None, t0, t1);
                true
            }
            _ => false,
        };
        if result.is_ok() {
            rotations += BATCH as u64;
        }
        if is_cold {
            if let Ok(accs) = &result {
                retained.push((records.len(), tenant, batch, accs.clone()));
            }
            records.push(JobRecord {
                start: region.at(t0),
                end: region.at(t1),
                ok: result.is_ok(),
                traced,
            });
        } else {
            if result.is_ok() {
                warm_ms.push((t1 - t0).as_secs_f64() * 1e3);
            }
        }
    };
    while region.open() {
        timed(0, true, &mut records);
        timed(0, false, &mut records);
        timed(1, true, &mut records);
    }
    // Rotations of warm batches count as work done too: spread them over
    // the jobs so the slice rates see all of it.
    let lwes_per_job = rotations as f64 / records.iter().filter(|r| r.ok).count().max(1) as f64;
    let summary = region.finish(&records, lwes_per_job);
    ColdRun {
        summary,
        records,
        retained,
        warm_ms,
    }
}

/// Checks the kept outputs against each tenant's own keys.
fn verify(s: &State, run: &mut ColdRun, violations: &mut Vec<String>) -> f64 {
    let mut worst = 0f64;
    for (record, tenant, batch, accs) in &run.retained {
        let t = &s.tenants[*tenant];
        let window = State::window(*batch);
        let checked = check_rotations(
            &t.setup.ctx,
            &t.setup.sk,
            &t.setup.boot,
            &t.inputs.lwes[window.clone()],
            &t.inputs.msg[window],
            accs,
            record % COMPARE_EVERY == 0,
        );
        match checked {
            Ok(err) => worst = worst.max(err),
            Err(why) => {
                run.records[*record].ok = false;
                if violations.len() < 5 {
                    violations.push(format!("cold batch {record}: {why}"));
                }
            }
        }
    }
    worst
}

/// Key bytes the ledger saw against the `heap-hw` model: every batch
/// sends an offer, every cold one an upload on top. The bytes must match
/// the model exactly, and every batch meant to be cold must have been a
/// real miss.
fn key_bytes_model_ratio(s: &State, violations: &mut Vec<String>) -> f64 {
    let t = &s.tenants[0].setup;
    let model = layers::key_wire_model(&t.ctx, &t.boot);
    let batches = s.batches.load(Ordering::Relaxed);
    let uploads = s.ledger.key_frames_sent() - batches;
    let expected = uploads * model.cold_key_bytes_sent(true)
        + (batches - uploads) * model.warm_key_bytes_sent();
    let sent = s.ledger.key_bytes_sent();
    if sent != expected {
        violations.push(format!(
            "{sent} key bytes sent, the hw model says {expected}"
        ));
    }
    let meant_cold = s.meant_cold.load(Ordering::Relaxed);
    if uploads != meant_cold {
        violations.push(format!(
            "{uploads} key uploads for {meant_cold} batches meant to miss the cache"
        ));
    }
    sent as f64 / expected as f64
}

pub fn run(opts: RunOpts) -> Result<Outcome, String> {
    let (state, setup_s) = timed_setups(opts, SETUPS, || set_up(opts.seed))?;
    if opts.trace {
        return run_traced(&state, opts);
    }
    let mut run = cycle(&state, opts.seconds, None);
    let mut violations = Vec::new();
    let max_err = verify(&state, &mut run, &mut violations);
    key_bytes_model_ratio(&state, &mut violations);
    Ok(Outcome {
        attempted: run.summary.attempted,
        failed: failed(&run.records),
        violations,
        e2e: run.summary.end_to_end(setup_s, max_err),
        samples: run.summary.samples,
        ..Outcome::default()
    })
}

fn run_traced(s: &State, opts: RunOpts) -> Result<Outcome, String> {
    let share = opts.seconds / 3.0;
    let budget = Duration::from_secs_f64(share / 20.0);
    let mut violations = Vec::new();
    let tracer = Tracer::new(1 << 14);
    let bytes0 = s.ledger.total_bytes_sent() + s.ledger.total_bytes_received();
    let mut traced = cycle(s, 2.0 * share, Some(&tracer));
    let bytes1 = s.ledger.total_bytes_sent() + s.ledger.total_bytes_received();
    verify(s, &mut traced, &mut violations);
    let ratio = key_bytes_model_ratio(s, &mut violations);
    let mut out = Outcome {
        attempted: traced.summary.attempted,
        failed: failed(&traced.records),
        violations,
        samples: traced.summary.samples,
        ..Outcome::default()
    };

    let t = &s.tenants[0];
    let units = layers::unit_costs(
        &t.setup.ctx,
        &t.setup.sk,
        &t.setup.boot,
        &t.inputs,
        16,
        opts.seed,
        budget,
    );
    units.record(&mut out);
    let keys = layers::key_costs(
        &t.setup.ctx,
        &t.setup.boot,
        Some(&t.setup.key.bytes),
        budget,
    );
    let mut failed_probe = None;
    let ping_rtt_us = time_us(budget, || {
        if let Err(e) = t.node.ping() {
            failed_probe = Some(e.to_string());
        }
    });
    if let Some(e) = failed_probe {
        return Err(format!("ping: {e}"));
    }
    let stats = t.node.fetch_stats().map_err(|e| format!("stats: {e}"))?;
    let stat = |name: &str| node_stat(&stats, name).unwrap_or(0) as f64;
    let (hits, misses) = (
        stat("heap_keycache_hits_total"),
        stat("heap_keycache_misses_total"),
    );
    // Both medians pool the whole region, so their difference is not
    // skewed by which slices the timing metrics kept.
    let median_ms = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let warm_p50 = median_ms(&traced.warm_ms);
    let cold: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.end - r.start) * 1e3)
        .collect();
    let upload_ms = median_ms(&cold) - warm_p50 - keys.from_wire_ms - keys.into_bootstrapper_ms;
    keys.record(&mut out);
    let l = &mut out.layers;
    l.insert("keys.warm_batch_ms_p50", warm_p50);
    l.insert("keys.cache_hit_ratio", hits / (hits + misses).max(1.0));
    l.insert("runtime.key_upload_ms", upload_ms);
    l.insert("runtime.shard_rtt_ms", warm_p50);
    l.insert(
        "runtime.shard_overhead_ms",
        warm_p50 - BATCH as f64 * units.blind_rotate_ms,
    );
    l.insert("runtime.ping_rtt_us", ping_rtt_us);
    l.insert(
        "runtime.wire_bytes_per_job",
        (bytes1 - bytes0) as f64 / traced.summary.completed.max(1) as f64,
    );
    l.insert("hw.key_bytes_model_ratio", ratio);
    traced.summary.record_health(&mut out, &traced.records);

    let tree = trace::budget(&tracer.spans());
    let explained = vec![(
        "job".to_string(),
        vec![
            Explained {
                name: "keys.warm_batch_p50 (offer + 4 rotations)",
                count: 1.0,
                unit_us: warm_p50 * 1e3,
            },
            Explained {
                name: "keys.from_wire (node decodes, expands seeds)",
                count: 1.0,
                unit_us: keys.from_wire_ms * 1e3,
            },
            Explained {
                name: "keys.into_bootstrapper (node precomputes)",
                count: 1.0,
                unit_us: keys.into_bootstrapper_ms * 1e3,
            },
        ],
    )];
    out.tree = trace::render(&tree, "job", &explained);
    write_trace("keys-cold", &tracer, &mut out)?;
    Ok(out)
}
