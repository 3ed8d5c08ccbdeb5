//! Cross-check: the functional wire encodings must agree with the
//! `heap-hw` memory/transfer model byte-for-byte — otherwise the
//! performance model would be pricing traffic the implementation doesn't
//! send. The encoders are the library's only statement of a layout's
//! size; `heap-hw` is the one independent second spelling.

use heap::ckks::{cks_to_wire, gks_to_wire, CkksContext, CkksParams, SecretKey};
use heap::core::{generate_keys_reseeded, BootstrapConfig};
use heap::hw::{CmacLink, EvalKeyWireModel, MemoryLayout};
use heap::math::wire::derive_seed;
use heap::math::RnsPoly;
use heap::runtime::EvalKeySet;
use heap::tfhe::{
    brk_to_wire, ksk_to_wire, lwe_batch_to_wire, rlwe_batch_to_wire, LweCiphertext, RlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lwe_wire_size_matches_memory_model() {
    let layout = MemoryLayout::paper();
    let q = heap::math::prime::ntt_primes(1 << 13, 36, 1)[0];
    let ct = LweCiphertext::trivial(0, 500, q);
    // Model counts payload bits only; wire adds a 16-byte header.
    let model = layout.lwe_bytes(500) as usize;
    let wire = ct.wire_size() - 16;
    assert!(wire.abs_diff(model) <= 8, "wire {wire} vs model {model}");
}

#[test]
fn rlwe_wire_size_matches_memory_model() {
    // A real top-level ciphertext of the paper's set, encoded.
    let ctx = CkksContext::new(CkksParams::heap_paper());
    let mut rng = StdRng::seed_from_u64(11);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let ct = ctx.encrypt_real_sk(&[0.5, -0.25], &sk, &mut rng);
    assert_eq!(ct.limbs(), 6);
    let layout = MemoryLayout::paper();
    // Model counts payload bits only; wire adds a 20-byte header.
    let wire = ctx.ciphertext_to_wire(&ct).len() as u64 - 20;
    let model = layout.rlwe_bytes();
    assert!(wire.abs_diff(model) <= 16, "wire {wire} vs model {model}");
}

#[test]
fn cmac_scatter_cost_prices_actual_bytes() {
    // The overlap schedule's scatter term uses lwe_bytes; confirm a real
    // wire-encoded LWE fits in the same cycle budget.
    let link = CmacLink::paper();
    let layout = MemoryLayout::paper();
    let q = heap::math::prime::ntt_primes(1 << 13, 36, 1)[0];
    let ct = LweCiphertext::trivial(0, 500, q);
    let model_cycles = link.cycles_for_bytes(layout.lwe_bytes(500));
    let wire_cycles = link.cycles_for_bytes(ct.wire_size() as u64);
    assert!(
        wire_cycles <= model_cycles + 1,
        "{wire_cycles} vs {model_cycles}"
    );
}

/// The scatter and gather encodings on the Tiny and the Small preset —
/// LWE1/LBT1 at the mod-switched 2N, ACC1/ABT1 at the boot basis — are
/// exactly the model's payload plus the framing spelled out here.
#[test]
fn batch_wire_sizes_match_the_memory_model_exactly() {
    /// LWE1: u32 magic + u64 modulus + u32 dimension.
    const LWE_HEADER: usize = 16;
    /// ACC1: u32 magic + u32 limbs + u32 n, then a u64 modulus per limb.
    const ACC_HEADER: usize = 12;
    /// LBT1/ABT1: u32 magic + u32 count.
    const BATCH_HEADER: usize = 8;
    const COUNT: usize = 3;
    for params in [CkksParams::test_tiny(), CkksParams::test_small()] {
        let ctx = CkksContext::new(params);
        let (n, limbs, n_t) = (ctx.n(), ctx.boot_limbs(), BootstrapConfig::test_small().n_t);
        let two_n = 2 * n as u64;
        let lwe = LweCiphertext::trivial(two_n - 1, n_t, two_n);
        let lwe_model = MemoryLayout {
            n,
            limbs,
            coeff_bits: two_n.ilog2(),
        }
        .lwe_bytes(n_t) as usize;
        assert_eq!(lwe.to_wire().len(), LWE_HEADER + lwe_model, "n = {n}");
        let lwes = vec![lwe; COUNT];
        let lbt = lwe_batch_to_wire(&lwes).len();
        assert_eq!(lbt, BATCH_HEADER + COUNT * (LWE_HEADER + lwe_model));

        let moduli: Vec<u64> = (0..limbs).map(|j| ctx.rns().modulus(j).value()).collect();
        let coeff_bits = 64 - (moduli[0] - 1).leading_zeros();
        assert!(moduli
            .iter()
            .all(|m| 64 - (m - 1).leading_zeros() == coeff_bits));
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i - 7).collect();
        let acc =
            RlweCiphertext::trivial(ctx.rns(), RnsPoly::from_signed(ctx.rns(), &coeffs, limbs));
        let acc_model = MemoryLayout {
            n,
            limbs,
            coeff_bits,
        }
        .rlwe_bytes() as usize;
        let acc_len = ACC_HEADER + 8 * limbs + acc_model;
        assert_eq!(acc.to_wire(&moduli).len(), acc_len, "n = {n}");
        let accs = vec![acc; COUNT];
        let abt = rlwe_batch_to_wire(&accs, &moduli).len();
        assert_eq!(abt, BATCH_HEADER + COUNT * acc_len);
    }
}

/// Every key encoding, strict and seeded, on the Tiny and the Small
/// preset, is exactly as long as `EvalKeyWireModel` prices it.
#[test]
fn key_wire_sizes_match_the_key_traffic_model_exactly() {
    const MASTER: u64 = 0x5EED;
    for params in [CkksParams::test_tiny(), CkksParams::test_small()] {
        let ctx = CkksContext::new(params);
        let config = BootstrapConfig::test_small();
        let mut rng = StdRng::seed_from_u64(ctx.n() as u64);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = generate_keys_reseeded(&ctx, &sk, config, MASTER, &mut rng);
        let moduli = |limbs: usize| (0..limbs).map(|j| ctx.rns().modulus(j).value()).collect();
        let model = EvalKeyWireModel {
            n: ctx.n(),
            n_t: config.n_t,
            ks_digits: config.ks_digits,
            rgsw_digits: config.rgsw.digits,
            boot_moduli: moduli(ctx.boot_limbs()),
            chain_moduli: moduli(ctx.rns().max_limbs()),
            galois_exponents: keys.gks.len(),
            auto_backend: false,
        };
        let g = keys.gks.exponents()[0];
        let cks = keys.gks.key_for(g).expect("listed exponent");
        for seeded in [false, true] {
            let seed = |label: &[u8]| Some(derive_seed(MASTER, label)).filter(|_| seeded);
            let cks_seed = seed(b"gks").map(|m| derive_seed(m, &(g as u64).to_le_bytes()));
            let measured = [
                ksk_to_wire(&keys.ksk, ctx.q_modulus(0), seed(b"ksk")).len(),
                brk_to_wire(&keys.brk, ctx.rns(), seed(b"brk")).len(),
                cks_to_wire(cks, &ctx, cks_seed).len(),
                gks_to_wire(&keys.gks, &ctx, seed(b"gks")).len(),
            ];
            let modeled = [
                model.ksk_bytes(seeded),
                model.brk_bytes(seeded),
                model.cks_bytes(seeded),
                model.gks_bytes(seeded),
            ];
            let measured = measured.map(|len| len as u64);
            assert_eq!(measured, modeled, "n = {}, seeded {seeded}", ctx.n());
        }
        let set = EvalKeySet::new(&ctx, config, keys, Some(MASTER));
        let strict = set.to_strict_wire(&ctx).len() as u64;
        assert_eq!(strict, model.container_bytes(false), "n = {}", ctx.n());
        assert_eq!(set.strict_len(&ctx) as u64, strict);
        let seeded = set.to_seeded_wire(&ctx).len() as u64;
        assert_eq!(seeded, model.container_bytes(true), "n = {}", ctx.n());
    }
}
