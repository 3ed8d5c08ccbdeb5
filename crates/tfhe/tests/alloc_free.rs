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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

thread_local! {
    // `const` cells of `Copy` data: no lazy initializer and no destructor,
    // so the allocator can read them without allocating.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(allocs: u64, live: i64) {
    if TRACK.get() {
        ALLOCS.set(ALLOCS.get() + allocs);
        LIVE.set(LIVE.get() + live);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counters zeroed and tracking on; returns
/// its value with `(allocations, live bytes it left behind)`.
fn tracked<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    ALLOCS.set(0);
    LIVE.set(0);
    TRACK.set(true);
    let out = f();
    TRACK.set(false);
    (out, ALLOCS.get(), LIVE.get())
}

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

    let ((), count, _) = tracked(|| {
        for _ in 0..8 {
            external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
        }
    });
    assert_eq!(
        count, 0,
        "external_product_into allocated {count} times after warm-up"
    );

    // The key-major tile rotation: per key index, one paired external
    // product of the whole tile plus the fused accumulator update of every
    // active member. A warm call still allocates its outputs, so the
    // per-key loop is isolated by rotating the same tile under a 2-step
    // and an 8-step key: equal counts mean the six extra steps allocated
    // nothing. Same warm-then-count protocol (kept inside this one test,
    // the only one here that flips `force_scalar`), once per accumulator
    // path: forced scalar takes the `u128` accumulators, native dispatch
    // the narrow `u64` ones on a vector host.
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
        let (_out, count, _) =
            tracked(|| brk.blind_rotate_batch_with(&ctx, &f, &lwes, &mut tile_scratch));
        heap_math::simd::force_scalar(false);
        count
    };
    for scalar in [true, false] {
        let (short, long) = (rotation_allocs(2, scalar), rotation_allocs(8, scalar));
        assert_eq!(
            short, long,
            "the per-key loop of a warm tile rotation allocates (forced scalar: {scalar})"
        );
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
    let (_brk, _, live) =
        tracked(|| BlindRotateKey::generate(&ctx, &lwe_sk, &sk, LIMBS, params, &mut rng));
    let rows = 2 * N_T * 2 * params.rows(LIMBS) * 2 * LIMBS * N * 8;
    assert!(live >= rows as i64, "{live} B live under {rows} B of rows");
    assert!(
        live as f64 <= 1.1 * rows as f64,
        "{live} B live for {rows} B of key rows: something holds a derived copy"
    );
}
