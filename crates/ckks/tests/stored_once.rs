//! "Stored once": a key-switching key's resident size is its limbs.
//!
//! The key-switch MAC reads key limbs as they are stored, so a
//! [`KeySwitchKey`] holds `components × 2 × chain` limbs of `N` words and
//! nothing derived from them. A global allocator that tracks this thread's
//! live bytes pins that: a per-coefficient companion copy (the Shoup
//! quotients these keys once carried doubled them) fails the bound. Same
//! property, same 10 % allowance, as `heap-tfhe`'s `alloc_free` suite
//! asserts for the blind-rotate key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heap_ckks::{CkksContext, CkksParams, KeySwitchKey, SecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct LiveBytes;

thread_local! {
    // `const` cells of `Copy` data: no lazy initializer and no destructor,
    // so the allocator can read them without allocating.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(live: i64) {
    if TRACK.get() {
        LIVE.set(LIVE.get() + live);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

#[test]
fn key_switch_key_is_stored_once() {
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
        .map(|j| sk.eval_limb(j).to_vec())
        .collect();

    LIVE.set(0);
    TRACK.set(true);
    let ksk = KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng);
    TRACK.set(false);
    let live = LIVE.get();

    let limbs = ksk.component_count() * 2 * ctx.rns().max_limbs() * ctx.n() * 8;
    assert!(
        live >= limbs as i64,
        "{live} B live under {limbs} B of limbs"
    );
    assert!(
        live as f64 <= 1.1 * limbs as f64,
        "{live} B live for {limbs} B of key limbs: something holds a derived copy"
    );
}
