//! "Stored once": a key-switching key's resident size is its limbs.
//!
//! The key-switch MAC reads key limbs as they are stored, so a
//! [`KeySwitchKey`] holds `components × 2 × chain` limbs of `N` words and
//! nothing derived from them. A global allocator that tracks this thread's
//! live bytes pins that: a per-coefficient companion copy (the Shoup
//! quotients these keys once carried doubled them) fails the bound. Same
//! property, same 10 % allowance, as `heap-tfhe`'s `alloc_free` suite
//! asserts for the blind-rotate key.

use heap_ckks::{CkksContext, CkksParams, KeySwitchKey, SecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/tracking_alloc.rs"]
mod tracking_alloc;
use tracking_alloc::tracked;

#[test]
fn key_switch_key_is_stored_once() {
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
        .map(|j| sk.eval_limb(j).to_vec())
        .collect();

    let (ksk, counts) = tracked(|| KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng));
    let live = counts.live;

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
