//! Blind rotation benchmarks: single rotations and the §IV-E batch
//! scheduling ablation (eight tiles of one vs one key-major tile of eight).

use criterion::{criterion_group, criterion_main, Criterion};
use heap_math::prime::ntt_primes;
use heap_math::RnsContext;
use heap_tfhe::blind_rotate::test_polynomial_from_fn;
use heap_tfhe::{
    BlindRotateKey, BlindRotateScratch, LweCiphertext, LweSecretKey, RgswParams, RingSecretKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_blind_rotate(c: &mut Criterion) {
    let n = 256usize;
    let ring = RnsContext::new(n, &ntt_primes(n as u64, 30, 2));
    let mut rng = StdRng::seed_from_u64(2);
    let ring_sk = RingSecretKey::generate(&ring, 2, &mut rng);
    let lwe_sk = LweSecretKey::generate(&mut rng, 16);
    let params = RgswParams {
        base_bits: 15,
        digits: 2,
    };
    let brk = BlindRotateKey::generate(&ring, &lwe_sk, &ring_sk, 2, params, &mut rng);
    let f = test_polynomial_from_fn(&ring, 2, |u| u << 40);
    let two_n = 2 * n as u64;
    let lwes: Vec<LweCiphertext> = (0..8)
        .map(|_| LweCiphertext {
            a: (0..16).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        })
        .collect();

    let mut g = c.benchmark_group("blind_rotate_n256");
    g.sample_size(20);
    g.bench_function("single", |b| {
        b.iter(|| black_box(brk.blind_rotate(&ring, &f, &lwes[0])))
    });
    g.bench_function("batch8_per_ciphertext", |b| {
        b.iter(|| {
            let out: Vec<_> = lwes
                .iter()
                .map(|l| brk.blind_rotate(&ring, &f, l))
                .collect();
            black_box(out)
        })
    });
    g.bench_function("batch8_key_major", |b| {
        let mut scratch = BlindRotateScratch::default();
        b.iter(|| black_box(brk.blind_rotate_batch_with(&ring, &f, &lwes, &mut scratch)))
    });
    g.finish();
}

criterion_group!(benches, bench_blind_rotate);
criterion_main!(benches);
