//! Proves the external-product hot path is allocation-free.
//!
//! Blind rotation performs `n_t` external products per LWE ciphertext and a
//! bootstrap performs up to `N` blind rotations, so a single stray `Vec`
//! allocation in the product shows up millions of times per bootstrap. This
//! test wraps the global allocator in a counter and asserts that, once the
//! scratch is warm, `external_product_into` performs **zero** allocations.
//!
//! The test lives alone in its own integration binary so no concurrent test
//! can allocate while the counter window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use heap_math::prime::ntt_primes;
use heap_math::{RnsContext, RnsPoly};
use heap_tfhe::{
    external_product_into, external_product_pair_prepared_into, ExternalProductScratch,
    MonomialEvals, PreparedRgsw, RgswCiphertext, RgswParams, RingSecretKey, RlweCiphertext,
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

    // The restructured CMux's per-step work: one paired external product
    // over the key-load-time `PreparedRgsw` quotients plus two flat
    // monomial-factor fills. Same warm-then-count protocol (kept inside
    // this single test so no concurrent test taints the allocation window,
    // and so `force_scalar` cannot race anything), once per accumulator
    // path: forced scalar takes the `u128` accumulators, native dispatch
    // the `u64` Shoup ones on a vector host.
    let rgsw_neg = RgswCiphertext::encrypt_scalar(&ctx, &sk, 0, 2, &params, &mut rng);
    let prep_pos = PreparedRgsw::new(&rgsw, &ctx);
    let prep_neg = PreparedRgsw::new(&rgsw_neg, &ctx);
    let monomials = MonomialEvals::new(&ctx, 2);
    let mut pair_scratch = ExternalProductScratch::default();
    let mut out_pos = RlweCiphertext::zero(&ctx, 2);
    let mut out_neg = RlweCiphertext::zero(&ctx, 2);
    let mut factor = Vec::new();
    let mut pair = |out_pos: &mut RlweCiphertext, out_neg: &mut RlweCiphertext| {
        external_product_pair_prepared_into(
            &ct,
            &rgsw,
            &rgsw_neg,
            &prep_pos,
            &prep_neg,
            &ctx,
            &params,
            &mut pair_scratch,
            out_pos,
            out_neg,
        )
    };
    for scalar in [true, false] {
        heap_math::simd::force_scalar(scalar);
        pair(&mut out_pos, &mut out_neg);
        monomials.factor_into(1, &ctx, &mut factor);

        ALLOCS.store(0, Ordering::SeqCst);
        TRACK.store(true, Ordering::SeqCst);
        for step in 0..8 {
            pair(&mut out_pos, &mut out_neg);
            monomials.factor_into(step + 1, &ctx, &mut factor);
            out_pos.mul_eval_factor_assign(&factor, &ctx);
            monomials.factor_into(255 - step, &ctx, &mut factor);
            out_neg.mul_eval_factor_assign(&factor, &ctx);
        }
        TRACK.store(false, Ordering::SeqCst);
        let count = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            count, 0,
            "paired product + factor path allocated {count} times after warm-up \
             (forced scalar: {scalar})"
        );
    }
}
