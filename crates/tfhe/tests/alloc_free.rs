//! Proves the external-product hot path is allocation-free, and that a
//! blind-rotate key is stored once.
//!
//! Blind rotation performs `n_t` external products per LWE ciphertext and a
//! bootstrap performs up to `N` blind rotations, so a single stray `Vec`
//! allocation in the product shows up millions of times per bootstrap. This
//! binary wraps the global allocator in a counter and asserts that, once the
//! scratch is warm, `external_product_into` performs **zero** allocations
//! and so does the per-key loop of a tile rotation. The same allocator
//! tracks live bytes, which pins the key's resident size to its rows: a
//! derived per-coefficient copy (the Shoup quotients this key once carried
//! doubled it) fails the bound.
//!
//! Counting is per thread, so the two tests — and the harness printing
//! their results — cannot taint each other's windows.

use heap_math::prime::ntt_primes;
use heap_math::{RnsContext, RnsPoly};
use heap_tfhe::{
    external_product_into, test_polynomial_from_fn, BlindRotateKey, BlindRotateScratch,
    ExternalProductScratch, LweCiphertext, LweSecretKey, RgswCiphertext, RgswParams, RingSecretKey,
    RlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/tracking_alloc.rs"]
mod tracking_alloc;
use tracking_alloc::tracked;

#[test]
fn external_product_into_is_allocation_free_when_warm() {
    let ctx = RnsContext::new(128, &ntt_primes(128, 30, 2));
    let params = RgswParams {
        base_bits: 15,
        digits: 2,
    };
    let mut rng = StdRng::seed_from_u64(99);
    let sk = RingSecretKey::generate(&ctx, 2, &mut rng);
    let msg: Vec<i64> = (0..128).map(|i| (i as i64 - 64) * 12_345).collect();
    let ct = RlweCiphertext::encrypt(&ctx, &sk, &RnsPoly::from_signed(&ctx, &msg, 2), &mut rng);
    let rgsw = RgswCiphertext::encrypt_scalar(&ctx, &sk, 1, 2, &params, &mut rng);

    let mut scratch = ExternalProductScratch::default();
    let mut out = RlweCiphertext::zero(&ctx, 2);
    // Warm-up: fills scratch buffers (the only calls allowed to allocate).
    external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);

    let ((), counts) = tracked(|| {
        for _ in 0..8 {
            external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
        }
    });
    assert_eq!(
        counts.allocs, 0,
        "external_product_into allocated {} times after warm-up",
        counts.allocs
    );

    // The key-major tile rotation: per key index, one paired external
    // product of the whole tile plus the fused accumulator update of every
    // active member. A warm call still allocates its outputs, so the
    // per-key loop is isolated by rotating the same tile under a 2-step
    // and an 8-step key: equal counts mean the six extra steps allocated
    // nothing. Same warm-then-count protocol, once per accumulator path:
    // the 30-bit ring above takes the narrow `f64` accumulators where the
    // tier has them, a 60-bit ring the wide `u128` ones on every tier.
    let wide_ctx = RnsContext::new(128, &ntt_primes(128, 60, 2));
    let wide_params = RgswParams {
        base_bits: 20,
        digits: 3,
    };
    let wide_sk = RingSecretKey::generate(&wide_ctx, 2, &mut rng);
    let mut tile_scratch = BlindRotateScratch::default();
    for (ctx, params, sk) in [(&ctx, params, &sk), (&wide_ctx, wide_params, &wide_sk)] {
        let f = test_polynomial_from_fn(ctx, 2, |u| u << 40);
        let mut rotation_allocs = |n_t: usize, tile: usize| {
            let lwe_sk = LweSecretKey::generate(&mut rng, n_t);
            let brk = BlindRotateKey::generate(ctx, &lwe_sk, sk, 2, params, &mut rng);
            // Member `m` sits step `m` out, so the active list changes from
            // step to step.
            let lwes: Vec<LweCiphertext> = (0..tile)
                .map(|m| LweCiphertext {
                    a: (0..n_t)
                        .map(|j| if j == m { 0 } else { 17 * (j + m + 1) as u64 })
                        .collect(),
                    b: m as u64,
                    modulus: 256,
                })
                .collect();
            brk.blind_rotate_batch_with(ctx, &f, &lwes, &mut tile_scratch);
            let (_out, counts) =
                tracked(|| brk.blind_rotate_batch_with(ctx, &f, &lwes, &mut tile_scratch));
            counts.allocs
        };
        // Tiles of 8 (the bootstrap's `TILE`) and 3, each warm.
        for tile in [8, 3] {
            let (short, long) = (rotation_allocs(2, tile), rotation_allocs(8, tile));
            assert_eq!(
                short,
                long,
                "the per-key loop of a warm tile of {tile} allocates ({} bits)",
                64 - ctx.modulus(0).value().leading_zeros()
            );
        }
    }
}

/// "Stored once": building a blind-rotate key leaves its RGSW rows resident
/// and nothing the size of a second copy — `2·n_t` RGSWs × `2·limbs·digits`
/// rows × `2·limbs·N·8` bytes, plus 10 % for the monomial tables and `Vec`
/// headers.
#[test]
fn blind_rotate_key_is_stored_once() {
    const N: usize = 1024;
    const LIMBS: usize = 2;
    const N_T: usize = 4;
    let ctx = RnsContext::new(N, &ntt_primes(N as u64, 36, LIMBS));
    let params = RgswParams::paper();
    let mut rng = StdRng::seed_from_u64(7);
    let sk = RingSecretKey::generate(&ctx, LIMBS, &mut rng);
    let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
    let (_brk, counts) =
        tracked(|| BlindRotateKey::generate(&ctx, &lwe_sk, &sk, LIMBS, params, &mut rng));
    let live = counts.live;
    let rows = 2 * N_T * 2 * params.rows(LIMBS) * 2 * LIMBS * N * 8;
    assert!(live >= rows as i64, "{live} B live under {rows} B of rows");
    assert!(
        live as f64 <= 1.1 * rows as f64,
        "{live} B live for {rows} B of key rows: something holds a derived copy"
    );
}
