//! Thread-scaling benchmarks for the parallel execution engine: the
//! ciphertext-level blind-rotation pipeline and the full bootstrap at
//! several worker counts (the software analogue of the paper's Fig. 9
//! multi-FPGA scaling). `benchmark/`'s `parallel.par2_efficiency` is the
//! machine-readable, gated version of the two-thread point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{BootstrapConfig, Bootstrapper, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn thread_counts() -> Vec<usize> {
    let avail = heap_parallel::available_threads();
    let mut counts = vec![1usize, 2, 4, 8, avail];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_parallel(c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(6);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    let delta = ctx.fresh_scale();
    let coeffs = vec![(0.04 * delta) as i64; ctx.n()];
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    // The blind-rotation input batch, prepared once.
    let indices: Vec<usize> = (0..ctx.n()).collect();
    let lwes = boot.extract_lwes(&ctx, &ct, &indices);
    let switched = boot.modulus_switch(&ctx, &lwes);

    let mut g = c.benchmark_group("parallel_blind_rotate_batch");
    g.sample_size(10);
    for threads in thread_counts() {
        let par = Parallelism::with_threads(threads);
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(boot.blind_rotate_batch_par(&ctx, &switched, par)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("parallel_full_bootstrap");
    g.sample_size(10);
    for threads in thread_counts() {
        let mut rng = StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config =
            BootstrapConfig::test_small().with_parallelism(Parallelism::with_threads(threads));
        let boot = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(boot.bootstrap(&ctx, &ct)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
