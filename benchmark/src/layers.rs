//! Unit costs of the `math`, `tfhe`, `ckks` and `keys` layers, measured by
//! timing each layer's public call on the workload's own parameters and
//! inputs. The library carries no spans yet, so what happens inside a
//! stage is explained as `count × unit cost` from these numbers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use std::collections::BTreeMap;

use crate::api::{
    available_threads, eval_auto, external_product_pair_prepared_into, extract_coefficient,
    lwe_batch_to_wire, rlwe_batch_from_wire, rlwe_batch_to_wire, simd_active, BootstrapStats,
    Bootstrapper, Ciphertext, CkksContext, EvalKeySet, EvalKeyWireModel, ExternalProductScratch,
    Parallelism, PreparedRgsw, RgswCiphertext, RingSecretKey, RlweCiphertext, Rng, SecretKey,
    SeedableRng, StdRng,
};
use crate::stats::median;
use crate::trace::{Explained, Node};
use crate::workloads::{LweInputs, Outcome};

/// LWEs in the batch behind `parallel.par2_efficiency`.
const PAR2_BATCH: usize = 16;

/// Timed calls behind every unit cost: the median of this many samples.
const SAMPLES: usize = 15;
/// A sample repeats its call until it lasts about this long, so calls of
/// a few hundred nanoseconds are not timed one clock read at a time.
const SAMPLE_FLOOR: Duration = Duration::from_micros(50);

/// Median time of one `f()` in microseconds over [`SAMPLES`] samples, or
/// over as many as fit in `budget`. The first call only warms up (page
/// faults, lazy tables), so even a call longer than the budget runs twice.
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    time_consuming_us(budget, || (), |()| f())
}

/// [`time_us`] for a call that consumes its input: `make` builds a fresh
/// input before every timed call and is not timed itself.
pub fn time_consuming_us<T>(
    budget: Duration,
    mut make: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> f64 {
    let started = Instant::now();
    let input = make();
    let t0 = Instant::now();
    f(input);
    let once = t0.elapsed();
    let inner = (SAMPLE_FLOOR.as_nanos() / once.as_nanos().max(1)).clamp(1, 4096) as usize;
    let mut samples = Vec::with_capacity(SAMPLES);
    while samples.len() < SAMPLES && (samples.is_empty() || started.elapsed() < budget) {
        let inputs: Vec<T> = (0..inner).map(|_| make()).collect();
        let t0 = Instant::now();
        for input in inputs {
            f(input);
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / inner as f64);
    }
    median(&samples)
}

/// Unit costs of the compute layers on one parameter set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Units {
    pub ntt_fwd_us: f64,
    pub ntt_inv_us: f64,
    pub decompose_us: f64,
    /// The paired external product one CMUX step runs.
    pub external_product_us: f64,
    pub blind_rotate_ms: f64,
    pub lwe_keyswitch_us: f64,
    pub lwe_encode_us: f64,
    pub rlwe_decode_us: f64,
    pub rescale_us: f64,
    pub galois_ks_us: f64,
    /// `t(1 thread) / (2 · t(2 threads))` of a blind-rotate batch; 0 when
    /// the host has fewer than two cores and the ratio would mean nothing.
    pub par2_efficiency: f64,
}

impl Units {
    /// Files the unit costs under their metric names.
    pub fn record(&self, out: &mut Outcome) {
        let l = &mut out.layers;
        l.insert("math.ntt_fwd_us", self.ntt_fwd_us);
        l.insert("math.ntt_inv_us", self.ntt_inv_us);
        l.insert("math.decompose_us", self.decompose_us);
        let backend = match simd_active().name() {
            "scalar" => 0.0,
            "avx2" => 1.0,
            _ => 2.0,
        };
        l.insert("math.simd_backend", backend);
        l.insert("tfhe.external_product_us", self.external_product_us);
        l.insert("tfhe.blind_rotate_ms", self.blind_rotate_ms);
        l.insert("tfhe.lwe_keyswitch_us", self.lwe_keyswitch_us);
        l.insert("tfhe.lwe_encode_us", self.lwe_encode_us);
        l.insert("tfhe.rlwe_decode_us", self.rlwe_decode_us);
        l.insert("ckks.rescale_us", self.rescale_us);
        l.insert("ckks.galois_ks_us", self.galois_ks_us);
        l.insert("parallel.par2_efficiency", self.par2_efficiency);
    }
}

/// Forward NTTs, inverse NTTs and gadget decompositions inside one CMUX
/// step over `limbs` limbs with `digits` gadget digits: both accumulator
/// halves go to coefficient form (inverse), each limb of each half is
/// decomposed once, and every digit polynomial is spread under every limb
/// (forward).
pub fn step_counts(limbs: usize, digits: usize) -> (f64, f64, f64) {
    let fwd = 2 * limbs * digits * limbs;
    let inv = 2 * limbs;
    let decompose = 2 * limbs;
    (fwd as f64, inv as f64, decompose as f64)
}

/// Key switches the repacking tree really runs for the live leaves: one
/// per combine with at least one live child, following the tree's
/// even/odd recursion. (`heap_core::repack_key_switch_count` prices the
/// stride comb at `Σ min(n_br, nodes per level)`, which overcounts it: the
/// comb's leaves meet in one small subtree, 15 switches for `n_br = 8` at
/// `N = 2048` where the formula says 71. Both agree on a full packing.)
pub fn repack_switches(live: &[bool]) -> u64 {
    fn walk(live: &[bool]) -> (bool, u64) {
        if live.len() == 1 {
            return (live[0], 0);
        }
        let evens: Vec<bool> = live.iter().copied().step_by(2).collect();
        let odds: Vec<bool> = live.iter().copied().skip(1).step_by(2).collect();
        let ((e, ce), (o, co)) = (walk(&evens), walk(&odds));
        (e || o, ce + co + u64::from(e || o))
    }
    walk(live).1
}

/// Measures every unit on `(ctx, boot)`, the batch-sized ones on the first
/// `shard` of `inputs` (real mod-switched extractions); each unit gets
/// `budget`.
pub fn unit_costs(
    ctx: &CkksContext,
    sk: &SecretKey,
    boot: &Bootstrapper,
    inputs: &LweInputs,
    shard: usize,
    seed: u64,
    budget: Duration,
) -> Units {
    let (ct, lwes) = (&inputs.ct, &inputs.lwes[..shard]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x756e_6974);
    let rns = ctx.rns();
    let limbs = ctx.boot_limbs();
    let n = ctx.n();
    let params = boot.config().rgsw;
    let mut u = Units::default();

    // math: one limb's transforms and one limb's gadget decomposition.
    let ntt = rns.ntt(0);
    let q = rns.modulus(0).value();
    let mut buf: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    u.ntt_fwd_us = time_us(budget, || ntt.forward(black_box(&mut buf)));
    u.ntt_inv_us = time_us(budget, || ntt.inverse(black_box(&mut buf)));
    let gadget = &params.gadgets(rns, 1)[0];
    let mut digits = vec![vec![0i64; n]; params.digits];
    u.decompose_us = time_us(budget, || {
        gadget.decompose_slice_signed_into(black_box(&buf), &mut digits)
    });

    // tfhe: a real accumulator through one CMUX step's paired product, a
    // whole rotation, the LWE key switch and the two shard codecs.
    let acc = boot.blind_rotate_one(ctx, &lwes[0]);
    let ring_sk = RingSecretKey::from_coeffs(rns, limbs, sk.coeffs().to_vec());
    let pos = RgswCiphertext::encrypt_scalar(rns, &ring_sk, 1, limbs, &params, &mut rng);
    let neg = RgswCiphertext::encrypt_scalar(rns, &ring_sk, 0, limbs, &params, &mut rng);
    let (prep_pos, prep_neg) = (PreparedRgsw::new(&pos, rns), PreparedRgsw::new(&neg, rns));
    let mut scratch = ExternalProductScratch::default();
    let mut out_pos = RlweCiphertext::zero(rns, limbs);
    let mut out_neg = RlweCiphertext::zero(rns, limbs);
    u.external_product_us = time_us(budget, || {
        external_product_pair_prepared_into(
            black_box(&acc),
            &pos,
            &neg,
            &prep_pos,
            &prep_neg,
            rns,
            &params,
            &mut scratch,
            &mut out_pos,
            &mut out_neg,
        )
    });
    u.blind_rotate_ms = time_us(budget, || {
        black_box(boot.blind_rotate_one(ctx, black_box(&lwes[0])));
    }) / 1e3;
    let q0 = ctx.q_modulus(0);
    let (mut c0, mut c1) = (ct.c0().clone(), ct.c1().clone());
    c0.to_coeff(rns);
    c1.to_coeff(rns);
    let big = extract_coefficient(c1.limb(0), c0.limb(0), 0, q0);
    u.lwe_keyswitch_us = time_us(budget, || {
        black_box(boot.ksk().switch(black_box(&big), q0));
    });
    u.lwe_encode_us = time_us(budget, || {
        black_box(lwe_batch_to_wire(black_box(lwes)));
    });
    let moduli: Vec<u64> = (0..limbs).map(|j| rns.modulus(j).value()).collect();
    let accs = boot.blind_rotate_batch_par(ctx, lwes, Parallelism::max());
    let payload = rlwe_batch_to_wire(&accs, &moduli);
    u.rlwe_decode_us = time_us(budget, || {
        black_box(rlwe_batch_from_wire(black_box(&payload)).expect("own encoding decodes"));
    });

    // ckks: the rescale that ends a bootstrap and one repack key switch.
    let raised = Ciphertext::new(acc.b.clone(), acc.a.clone(), ctx.fresh_scale());
    u.rescale_us = time_us(budget, || {
        black_box(ctx.rescale(black_box(&raised)));
    });
    let gks = boot.galois_keys();
    let g = gks.exponents()[0];
    u.galois_ks_us = time_us(budget, || {
        black_box(eval_auto(ctx, black_box(&acc), g, gks));
    });

    // parallel: the same batch on one and on two threads.
    if available_threads() >= 2 {
        let batch = &lwes[..lwes.len().min(PAR2_BATCH)];
        let rotate = |threads| {
            time_us(budget, || {
                black_box(boot.blind_rotate_batch_par(
                    ctx,
                    batch,
                    Parallelism::with_threads(threads),
                ));
            })
        };
        u.par2_efficiency = rotate(1) / (2.0 * rotate(2));
    }
    u
}

/// Costs of the `keys` layer for one key set.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyCosts {
    pub package_ms: f64,
    pub from_wire_ms: f64,
    pub into_bootstrapper_ms: f64,
    pub container_bytes: f64,
}

impl KeyCosts {
    pub fn record(&self, out: &mut Outcome) {
        let l = &mut out.layers;
        l.insert("keys.package_ms", self.package_ms);
        l.insert("keys.from_wire_ms", self.from_wire_ms);
        l.insert("keys.into_bootstrapper_ms", self.into_bootstrapper_ms);
        l.insert("keys.container_bytes", self.container_bytes);
    }
}

/// Times packaging, decoding and expanding `boot`'s evaluation keys.
/// `container` is the encoding a client would ship (seeded when the keys
/// came from `keyed_setup`); without one the strict encoding is used.
pub fn key_costs(
    ctx: &CkksContext,
    boot: &Bootstrapper,
    container: Option<&[u8]>,
    budget: Duration,
) -> KeyCosts {
    let set = EvalKeySet::from_bootstrapper(ctx, boot);
    let package_ms = time_us(budget, || {
        black_box(set.package(ctx));
    }) / 1e3;
    let strict;
    let bytes = match container {
        Some(bytes) => bytes,
        None => {
            strict = set.package(ctx).bytes;
            &strict
        }
    };
    let from_wire_ms = time_us(budget, || {
        black_box(EvalKeySet::from_wire(ctx, black_box(bytes)).expect("own container decodes"));
    }) / 1e3;
    let into_bootstrapper_ms = time_consuming_us(
        budget,
        || set.clone(),
        |set| {
            black_box(set.into_bootstrapper(ctx));
        },
    ) / 1e3;
    KeyCosts {
        package_ms,
        from_wire_ms,
        into_bootstrapper_ms,
        container_bytes: bytes.len() as f64,
    }
}

/// The `heap-hw` byte model of `boot`'s key container and key frames.
pub fn key_wire_model(ctx: &CkksContext, boot: &Bootstrapper) -> EvalKeyWireModel {
    let config = boot.config();
    let rns = ctx.rns();
    EvalKeyWireModel {
        n: ctx.n(),
        n_t: config.n_t,
        ks_digits: config.ks_digits,
        rgsw_digits: config.rgsw.digits,
        boot_moduli: (0..ctx.boot_limbs())
            .map(|j| rns.modulus(j).value())
            .collect(),
        chain_moduli: (0..rns.max_limbs())
            .map(|j| rns.modulus(j).value())
            .collect(),
        galois_exponents: boot.galois_keys().len(),
        // Every workload keys its cluster with `keyed_setup`'s default
        // rotation datapath, the CMUX ladder.
        auto_backend: false,
    }
}

/// One bootstrap job traced stage by stage through the step API.
pub struct CoreJob<'a> {
    pub ctx: &'a CkksContext,
    pub boot: &'a Bootstrapper,
    /// Budget of the traced jobs (root span `job`, one child per stage).
    pub tree: &'a BTreeMap<String, Node>,
    pub units: &'a Units,
    /// Coefficients refreshed per job.
    pub n_br: usize,
    /// CMUX steps the job's LWEs really run (zero mask elements skip).
    pub ep_count: u64,
    /// Median of the same job as one call, untraced.
    pub whole_ms: f64,
    /// Rotations running side by side during the blind-rotate stage.
    pub lanes: usize,
}

/// Files the `core` metrics of `job` and returns the `count × unit` rows
/// that explain its two heavy stages, blind rotation first.
pub fn record_core(out: &mut Outcome, job: &CoreJob<'_>) -> Vec<(String, Vec<Explained>)> {
    let (ctx, u) = (job.ctx, job.units);
    let config = job.boot.config();
    let limbs = ctx.boot_limbs();
    let n = ctx.n();
    let stats = BootstrapStats::for_bootstrap(n, limbs, config.n_t, &config.rgsw, job.n_br);
    let (fwd, inv, dec) = step_counts(limbs, config.rgsw.digits);
    let jobs = job.tree.get("job").map_or(1, |n| n.calls.max(1)) as f64;
    let stage_ms = |name: &str| {
        job.tree
            .get(&format!("job/{name}"))
            .map_or(0.0, |n| n.total_ns as f64 / 1e6 / jobs)
    };
    const STAGES: [&str; 5] = [
        "core.extract",
        "core.mod_switch",
        "core.blind_rotate",
        "core.to_leaves",
        "core.finish",
    ];
    let stage_sum: f64 = STAGES.iter().map(|s| stage_ms(s)).sum();
    let mut live = vec![false; n];
    live.iter_mut()
        .step_by(n / job.n_br)
        .for_each(|l| *l = true);
    let key_switches = repack_switches(&live) as f64;
    let steps = job.ep_count as f64;
    let ntt_us = fwd * u.ntt_fwd_us + inv * u.ntt_inv_us;
    let ep_other_us = u.external_product_us - ntt_us - dec * u.decompose_us;
    let l = &mut out.layers;
    for stage in STAGES {
        let name: &'static str = match stage {
            "core.extract" => "core.extract_ms",
            "core.mod_switch" => "core.mod_switch_ms",
            "core.blind_rotate" => "core.blind_rotate_ms",
            "core.to_leaves" => "core.to_leaves_ms",
            _ => "core.finish_ms",
        };
        l.insert(name, stage_ms(stage));
    }
    l.insert("core.stage_sum_ratio", stage_sum / job.whole_ms);
    l.insert(
        "core.br_explained_ratio",
        steps * u.external_product_us / 1e3 / job.lanes as f64 / stage_ms("core.blind_rotate"),
    );
    l.insert(
        "core.finish_explained_ratio",
        key_switches * u.galois_ks_us / 1e3 / stage_ms("core.finish"),
    );
    l.insert("core.ep_count", steps);
    l.insert("core.ntt_count", steps * (fwd + inv));
    l.insert("tfhe.ep_ntt_share", ntt_us / u.external_product_us);
    l.insert("tfhe.ep_other_us", ep_other_us);
    // A zero mask element skips its step, so the count taken from the
    // inputs may fall below the static model but never exceed it.
    if job.ep_count > stats.external_products || stats.blind_rotations != job.n_br as u64 {
        out.violations.push(format!(
            "{} CMUX steps counted, the model allows {}",
            job.ep_count, stats.external_products
        ));
    }
    let row = |name, count, unit_us| Explained {
        name,
        count,
        unit_us,
    };
    vec![
        (
            "job/core.blind_rotate".to_string(),
            vec![
                row("math.ntt_fwd", steps * fwd, u.ntt_fwd_us),
                row("math.ntt_inv", steps * inv, u.ntt_inv_us),
                row("math.decompose", steps * dec, u.decompose_us),
                row("tfhe.ep_other (mac + scaffolding)", steps, ep_other_us),
            ],
        ),
        (
            "job/core.finish".to_string(),
            vec![
                row("ckks.galois_ks", key_switches, u.galois_ks_us),
                row("ckks.rescale", 1.0, u.rescale_us),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repack_switches_follow_the_tree() {
        // A full packing pays every combine.
        assert_eq!(repack_switches(&[true; 128]), 127);
        // One leaf pays one switch per level.
        let mut one = [false; 128];
        one[0] = true;
        assert_eq!(repack_switches(&one), 7);
        // A stride comb meets in one small subtree: 8 leaves at stride 256
        // fill a 7-combine subtree and then climb 8 levels alone.
        let mut comb = vec![false; 2048];
        comb.iter_mut().step_by(256).for_each(|l| *l = true);
        assert_eq!(repack_switches(&comb), 15);
    }

    #[test]
    fn time_us_reports_a_plausible_median() {
        let us = time_us(Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_micros(200));
        });
        assert!((200.0..5_000.0).contains(&us), "{us}");
    }
}
