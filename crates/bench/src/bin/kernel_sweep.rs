//! Reference-vs-optimized sweep of the three hot kernels, emitting
//! `BENCH_kernels.json` (machine-readable) plus a human-readable table.
//!
//! Measures single-threaded ns/op of each kernel at three datapath tiers:
//!
//! - `reference` — the strict seed kernels retained as oracles
//!   (`forward/inverse_reference`, `external_product_reference`,
//!   `blind_rotate_reference`);
//! - `scalar` — the Harvey lazy-reduction scalar kernels with SIMD
//!   force-disabled ([`heap_math::NttTable::forward_lazy_scalar`], the
//!   external product on the `u128` side of [`heap_math::mac_path`], the
//!   restructured CMux);
//! - `simd` — the dispatching kernels on the active vector backend
//!   (AVX2 lazy butterflies, the same external-product loop nest on the
//!   narrow `u64` side of the gate). On a host without a vector unit this
//!   column equals the scalar column and the reported backend is `scalar`.
//!
//! Rows: `ntt_forward` / `ntt_inverse` at `n ∈ {2^10, 2^13}`,
//! `external_product` at `n = 2^13` over the paper's gadget (`d = 2`,
//! base `2^18`), and `blind_rotate` swept over the LWE mask length
//! `n_mask ∈ {4, 8, 16, 32}`, each row carrying the seed-expandable wire
//! size of its rotation key, plus the key-major batch schedule.
//!
//! Every pair of tiers is also asserted bit-identical here, so a speedup
//! row can never come from a divergent datapath (the exhaustive parity
//! arguments live in `tests/kernel_parity.rs` and the `heap-math`
//! property suite).
//!
//! ```sh
//! cargo run --release -p heap-bench --bin kernel_sweep
//! ```

use std::time::Instant;

use heap_math::ntt::NttTable;
use heap_math::prime::ntt_primes;
use heap_math::{Modulus, RnsContext};
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::rlwe::{RingSecretKey, RlweCiphertext};
use heap_tfhe::{
    brk_wire_size, external_product_into, external_product_reference, test_polynomial_from_fn,
    BlindRotateKey, BlindRotateScratch, ExternalProductScratch, LweCiphertext, RgswCiphertext,
    RgswParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kernel row: strict oracle vs scalar lazy vs SIMD dispatch.
struct Row {
    kernel: &'static str,
    n: usize,
    /// LWE mask length for the blind-rotate rows (0 elsewhere).
    n_mask: usize,
    /// Seed-expandable wire size of the rotation key (0 when the row has
    /// no key).
    key_bytes: usize,
    ops: usize,
    reference_ns: f64,
    scalar_ns: f64,
    simd_ns: f64,
}

impl Row {
    /// End-to-end win of the dispatching kernel over the strict oracle.
    fn speedup(&self) -> f64 {
        self.reference_ns / self.simd_ns
    }

    /// Win of the vector datapath over the scalar lazy kernel alone.
    fn simd_speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }
}

/// Best-of-3 ns per op of `iters` back-to-back calls (one warm-up first).
fn measure_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / iters as f64
}

fn print_row(r: &Row) {
    println!(
        "{:<28} {:>6} {:>6} {:>9} {:>5} {:>13.0} {:>13.0} {:>13.0} {:>8.2}x {:>8.2}x",
        r.kernel,
        r.n,
        r.n_mask,
        r.key_bytes,
        r.ops,
        r.reference_ns,
        r.scalar_ns,
        r.simd_ns,
        r.simd_speedup(),
        r.speedup()
    );
}

/// NTT rows for one ring size: forward and inverse, three tiers each.
fn ntt_rows(n: usize, rows: &mut Vec<Row>) {
    let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).expect("valid NTT prime");
    let table = NttTable::new(n, q);
    let mut rng = StdRng::seed_from_u64(n as u64);
    let base: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();

    // Bit-identity sanity: both lazy kernels produce canonical residues.
    let mut simd = base.clone();
    let mut scalar = base.clone();
    let mut strict = base.clone();
    table.forward_lazy(&mut simd);
    table.forward_lazy_scalar(&mut scalar);
    table.forward_reference(&mut strict);
    assert_eq!(simd, strict, "forward_lazy diverged at n = {n}");
    assert_eq!(scalar, strict, "forward_lazy_scalar diverged at n = {n}");
    table.inverse_lazy(&mut simd);
    table.inverse_lazy_scalar(&mut scalar);
    table.inverse_reference(&mut strict);
    assert_eq!(simd, strict, "inverse_lazy diverged at n = {n}");
    assert_eq!(scalar, strict, "inverse_lazy_scalar diverged at n = {n}");

    let iters = (1 << 21) / n; // ~2M butterflies' worth per timing loop
    let mut buf = base.clone();
    let reference_ns = measure_ns(iters, || table.forward_reference(&mut buf));
    let scalar_ns = measure_ns(iters, || table.forward_lazy_scalar(&mut buf));
    let simd_ns = measure_ns(iters, || table.forward_lazy(&mut buf));
    rows.push(Row {
        kernel: "ntt_forward",
        n,
        n_mask: 0,
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });
    let reference_ns = measure_ns(iters, || table.inverse_reference(&mut buf));
    let scalar_ns = measure_ns(iters, || table.inverse_lazy_scalar(&mut buf));
    let simd_ns = measure_ns(iters, || table.inverse_lazy(&mut buf));
    rows.push(Row {
        kernel: "ntt_inverse",
        n,
        n_mask: 0,
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });
}

fn main() {
    // Every kernel here is single-threaded: the sweep isolates datapath
    // wins from scheduling wins.
    let host_cores = heap_parallel::available_threads();
    let backend = heap_math::simd::active().name();
    println!("kernel_sweep: single-threaded, host cores = {host_cores}, simd backend = {backend}");
    println!();
    println!(
        "{:<28} {:>6} {:>6} {:>9} {:>5} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "kernel",
        "n",
        "n_mask",
        "key B",
        "ops",
        "reference ns",
        "scalar ns",
        "simd ns",
        "simd x",
        "total x"
    );

    let mut rows = Vec::new();
    for n in [1usize << 10, 1 << 13] {
        ntt_rows(n, &mut rows);
    }

    // Shared n = 2^13 TFHE setup for the product/rotation rows: two
    // 36-bit limbs (the raised-basis shape), paper gadget d = 2 / 2^18.
    let n = 1usize << 13;
    let ctx = RnsContext::new(n, &ntt_primes(n as u64, 36, 2));
    let limbs = 2;
    let params = RgswParams::paper();
    let mut rng = StdRng::seed_from_u64(2024);
    let ring_sk = RingSecretKey::generate(&ctx, limbs, &mut rng);

    // External product row: strict oracle vs the one lazy loop nest on its
    // u128 accumulators (SIMD off) vs the same loop nest on its narrow u64
    // accumulators (SIMD on).
    let msg: Vec<i64> = (0..n).map(|i| ((i % 97) as i64) - 48).collect();
    let ct = RlweCiphertext::encrypt(
        &ctx,
        &ring_sk,
        &heap_math::RnsPoly::from_signed(&ctx, &msg, limbs),
        &mut rng,
    );
    let rgsw = RgswCiphertext::encrypt_scalar(&ctx, &ring_sk, 1, limbs, &params, &mut rng);
    let mut scratch = ExternalProductScratch::default();
    let mut out = RlweCiphertext::zero(&ctx, limbs);
    let oracle = external_product_reference(&ct, &rgsw, &ctx, &params);
    external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    assert!(
        out.a == oracle.a && out.b == oracle.b,
        "lazy external product diverged"
    );
    let reference_ns = measure_ns(2, || {
        std::hint::black_box(external_product_reference(&ct, &rgsw, &ctx, &params));
    });
    heap_math::simd::force_scalar(true);
    let scalar_ns = measure_ns(2, || {
        external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    });
    heap_math::simd::force_scalar(false);
    let simd_ns = measure_ns(2, || {
        external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    });
    rows.push(Row {
        kernel: "external_product",
        n,
        n_mask: 0,
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });

    // Blind-rotate rows: the mask length is swept, each row with the
    // seed-expandable wire size of its key. SIMD is toggled around the
    // whole rotation, so the scalar tier runs the scalar lazy NTT + u128
    // MAC end to end.
    let two_n = 2 * n as u64;
    let f = test_polynomial_from_fn(&ctx, limbs, |u| u << 40);
    let moduli: Vec<u64> = (0..limbs).map(|j| ctx.modulus(j).value()).collect();
    for n_mask in [4usize, 8, 16, 32] {
        let lwe_sk = LweSecretKey::generate(&mut rng, n_mask);
        let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, limbs, params, &mut rng);
        let lwe = LweCiphertext {
            a: (0..n_mask).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        };

        let opt_single = brk.blind_rotate(&ctx, &f, &lwe);
        let ref_single = brk.blind_rotate_reference(&ctx, &f, &lwe);
        assert!(
            opt_single.a == ref_single.a && opt_single.b == ref_single.b,
            "restructured CMux diverged at n_mask = {n_mask}"
        );
        let reference_ns = measure_ns(1, || {
            std::hint::black_box(brk.blind_rotate_reference(&ctx, &f, &lwe));
        });
        heap_math::simd::force_scalar(true);
        let scalar_ns = measure_ns(1, || {
            std::hint::black_box(brk.blind_rotate(&ctx, &f, &lwe));
        });
        heap_math::simd::force_scalar(false);
        let simd_ns = measure_ns(1, || {
            std::hint::black_box(brk.blind_rotate(&ctx, &f, &lwe));
        });
        rows.push(Row {
            kernel: "blind_rotate",
            n,
            n_mask,
            key_bytes: brk_wire_size(n_mask, n, params.digits, &moduli, true),
            ops: 1,
            reference_ns,
            scalar_ns,
            simd_ns,
        });
    }

    // Key-major batch row: 8 mask elements, 4 LWEs per call.
    let n_t = 8;
    let batch = 4;
    let lwe_sk = LweSecretKey::generate(&mut rng, n_t);
    let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, limbs, params, &mut rng);
    let lwes: Vec<LweCiphertext> = (0..batch)
        .map(|_| LweCiphertext {
            a: (0..n_t).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        })
        .collect();
    let mut scratch = BlindRotateScratch::default();
    let opt_batch = brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut scratch);
    for (o, lwe) in opt_batch.iter().zip(&lwes) {
        let r = brk.blind_rotate_reference(&ctx, &f, lwe);
        assert!(o.a == r.a && o.b == r.b, "key-major batch diverged");
    }
    let reference_ns = measure_ns(1, || {
        for lwe in &lwes {
            std::hint::black_box(brk.blind_rotate_reference(&ctx, &f, lwe));
        }
    });
    heap_math::simd::force_scalar(true);
    let scalar_ns = measure_ns(1, || {
        std::hint::black_box(brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut scratch));
    });
    heap_math::simd::force_scalar(false);
    let simd_ns = measure_ns(1, || {
        std::hint::black_box(brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut scratch));
    });
    rows.push(Row {
        kernel: "blind_rotate_batch_with",
        n,
        n_mask: n_t,
        key_bytes: brk_wire_size(n_t, n, params.digits, &moduli, true),
        ops: batch,
        reference_ns,
        scalar_ns,
        simd_ns,
    });

    for r in &rows {
        print_row(r);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"n_mask\": {}, \"key_bytes\": {}, \
                 \"ops\": {}, \"reference_ns\": {:.0}, \
                 \"scalar_ns\": {:.0}, \"simd_ns\": {:.0}, \"simd_speedup\": {:.3}, \
                 \"speedup\": {:.3}}}",
                r.kernel,
                r.n,
                r.n_mask,
                r.key_bytes,
                r.ops,
                r.reference_ns,
                r.scalar_ns,
                r.simd_ns,
                r.simd_speedup(),
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"threads\": 1,\n  \
         \"simd_backend\": \"{backend}\",\n  \
         \"note\": \"ns per call (best of 3, single thread); reference = strict seed \
         kernels retained as oracles, scalar = Harvey lazy scalar kernels (u128-MAC \
         external product, SIMD force-disabled), simd = dispatching kernels on the \
         listed backend (narrow u64 FMA-MAC external product); blind_rotate \
         rows sweep the LWE mask length n_mask; key_bytes = seed-expandable wire \
         size of the rotation key; every tier asserted bit-identical to the oracle \
         before timing; batch row rotates 4 LWEs per call; simd_speedup = \
         scalar/simd, speedup = reference/simd\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
}
