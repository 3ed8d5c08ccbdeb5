//! Proves the external-product hot path is allocation-free.
//!
//! Blind rotation performs `n_t` external products per LWE ciphertext and a
//! bootstrap performs up to `N` blind rotations, so a single stray `Vec`
//! allocation in the product shows up millions of times per bootstrap. This
//! test wraps the global allocator in a counter and asserts that, once the
//! scratch is warm, `external_product_into` performs **zero** allocations
//! and so does the per-key loop of a tile rotation.
//!
//! The test lives alone in its own integration binary so no concurrent test
//! can allocate while the counter window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use heap_math::prime::ntt_primes;
use heap_math::{RnsContext, RnsPoly};
use heap_tfhe::{
    external_product_into, test_polynomial_from_fn, BlindRotateKey, BlindRotateScratch,
    ExternalProductScratch, LweCiphertext, LweSecretKey, RgswCiphertext, RgswParams, RingSecretKey,
    RlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static TRACK: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

    ALLOCS.store(0, Ordering::SeqCst);
    TRACK.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    }
    TRACK.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "external_product_into allocated {count} times after warm-up"
    );

    // The key-major tile rotation: per key index, one paired external
    // product of the whole tile over the key-load-time `PreparedRgsw`
    // quotients plus the fused accumulator update of every active member.
    // A warm call still allocates its outputs, so the per-key loop is
    // isolated by rotating the same tile under a 2-step and an 8-step key:
    // equal counts mean the six extra steps allocated nothing. Same
    // warm-then-count protocol (kept inside this single test so no
    // concurrent test taints the allocation window, and so `force_scalar`
    // cannot race anything), once per accumulator path: forced scalar
    // takes the `u128` accumulators, native dispatch the `u64` Shoup ones
    // on a vector host.
    let f = test_polynomial_from_fn(&ctx, 2, |u| u << 40);
    let mut tile_scratch = BlindRotateScratch::default();
    let mut rotation_allocs = |n_t: usize, scalar: bool| {
        let lwe_sk = LweSecretKey::generate(&mut rng, n_t);
        let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &sk, 2, params, &mut rng);
        // Member `m` sits step `m` out, so the active list changes from
        // step to step.
        let lwes: Vec<LweCiphertext> = (0..3)
            .map(|m| LweCiphertext {
                a: (0..n_t)
                    .map(|j| if j == m { 0 } else { 17 * (j + m + 1) as u64 })
                    .collect(),
                b: m as u64,
                modulus: 256,
            })
            .collect();
        heap_math::simd::force_scalar(scalar);
        brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut tile_scratch);
        ALLOCS.store(0, Ordering::SeqCst);
        TRACK.store(true, Ordering::SeqCst);
        let out = brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut tile_scratch);
        TRACK.store(false, Ordering::SeqCst);
        heap_math::simd::force_scalar(false);
        drop(out);
        ALLOCS.load(Ordering::SeqCst)
    };
    for scalar in [true, false] {
        let (short, long) = (rotation_allocs(2, scalar), rotation_allocs(8, scalar));
        assert_eq!(
            short, long,
            "the per-key loop of a warm tile rotation allocates (forced scalar: {scalar})"
        );
    }
}
