//! End-to-end digest gate for the optimized kernel datapaths.
//!
//! Runs one fixed-seed full bootstrap and FNV-1a-hashes every output limb
//! word against a pinned constant. The unit/property parity suites prove
//! the lazy NTT, the `u128`-MAC external product, and the restructured
//! CMux bit-identical to their strict `*_reference` oracles; pinning the
//! composed pipeline's digest extends that guarantee end to end: any
//! future change that silently alters even one output bit of the
//! bootstrap — a reduction moved past a fold, a reordered MAC, a
//! twiddle-table tweak — fails here before it can ship.
//!
//! Everything below is deterministic: seeded `StdRng`, exact integer
//! arithmetic, thread-count-independent parallel schedule.

use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{BootstrapConfig, Bootstrapper};
use heap_math::RnsPoly;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over little-endian limb words.
fn fnv1a(polys: &[&RnsPoly]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in polys {
        for j in 0..p.limb_count() {
            for &w in p.limb(j) {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn bootstrap_digest() -> u64 {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    let delta = ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| ((((i % 11) as f64) - 5.0) / 60.0 * delta).round() as i64)
        .collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    let out = boot.bootstrap(&ctx, &ct);
    fnv1a(&[out.c0(), out.c1()])
}

const PINNED_DIGEST: u64 = 0xee06_81da_6947_5b7c;

#[test]
fn fixed_seed_bootstrap_digest_is_pinned() {
    let digest = bootstrap_digest();
    assert_eq!(
        digest, PINNED_DIGEST,
        "bootstrap output digest changed: got {digest:#018x} — the kernel \
         datapath is no longer bit-identical to the pinned reference run"
    );
}

/// The same pinned digest with SIMD force-disabled: the scalar fallback
/// kernels must produce the identical bootstrap bit-for-bit, so the pin
/// holds on every host regardless of which backend dispatches. Restores
/// native dispatch on exit (safe either way — the paths are bit-identical,
/// so a concurrently running digest test sees the same result).
#[test]
fn fixed_seed_bootstrap_digest_is_pinned_forced_scalar() {
    struct RestoreSimd;
    impl Drop for RestoreSimd {
        fn drop(&mut self) {
            heap_math::simd::force_scalar(false);
        }
    }
    let _restore = RestoreSimd;
    heap_math::simd::force_scalar(true);
    assert_eq!(heap_math::simd::active(), heap_math::simd::Backend::Scalar);
    let digest = bootstrap_digest();
    assert_eq!(
        digest, PINNED_DIGEST,
        "forced-scalar bootstrap digest changed: got {digest:#018x} — the \
         scalar fallback diverged from the pinned reference run"
    );
}
