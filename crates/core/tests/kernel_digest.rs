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

/// The same pinned digest on the other two tiers: the test above re-run as
/// a child of this binary under `HEAP_SIMD=scalar` and `HEAP_SIMD=avx2`
/// (capped at what the host has), so a plain `cargo test` holds the pin on
/// every tier. The tier is fixed per process, so a child is the only way
/// to run another one. Skipped when `HEAP_SIMD` is already set — the run
/// is then one round of a loop over the tiers, and must not recurse.
#[test]
fn fixed_seed_bootstrap_digest_is_pinned_on_every_tier() {
    if std::env::var_os("HEAP_SIMD").is_some() {
        return;
    }
    for tier in ["scalar", "avx2"] {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "fixed_seed_bootstrap_digest_is_pinned"])
            .env("HEAP_SIMD", tier)
            .output()
            .expect("re-run this test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "HEAP_SIMD={tier}: {}\n{stdout}{}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        );
    }
}
