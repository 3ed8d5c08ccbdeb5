//! Golden bytes for every wire encoding in the repository's key and
//! ciphertext codecs: each encoding of fixed-seed Tiny keys and
//! ciphertexts is pinned by its length and FNV-1a fingerprint.
//!
//! The values were taken before the encoders were rewritten to measure
//! themselves and to share one seeded-row codec; this file passes
//! unedited on both sides of that change, so no layout moved.

use heap_ckks::{cks_to_wire, gks_to_wire, CkksContext, CkksParams, SecretKey};
use heap_core::{generate_keys_reseeded, BootstrapConfig};
use heap_keys::EvalKeySet;
use heap_math::wire::{derive_seed, fnv1a};
use heap_math::RnsPoly;
use heap_tfhe::{
    brk_to_wire, ksk_to_wire, lwe_batch_to_wire, rlwe_batch_to_wire, LweCiphertext, LweSecretKey,
    RingSecretKey, RlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER: u64 = 0x601D_E2B7;

/// `(name, length, fnv1a)` of every encoding, in a fixed order.
fn encodings() -> Vec<(&'static str, usize, u64)> {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let config = BootstrapConfig::test_small();
    let mut rng = StdRng::seed_from_u64(25);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keys = generate_keys_reseeded(&ctx, &sk, config, MASTER, &mut rng);
    let q0 = ctx.q_modulus(0);
    let gks_master = derive_seed(MASTER, b"gks");
    let g = keys.gks.exponents()[0];
    let cks = keys.gks.key_for(g).expect("listed exponent");
    let cks_seed = derive_seed(gks_master, &(g as u64).to_le_bytes());

    let mut out: Vec<(&'static str, Vec<u8>)> = vec![
        ("KSK1 strict", ksk_to_wire(&keys.ksk, q0, None)),
        (
            "KSK1 seeded",
            ksk_to_wire(&keys.ksk, q0, Some(derive_seed(MASTER, b"ksk"))),
        ),
        ("BRK1 strict", brk_to_wire(&keys.brk, ctx.rns(), None)),
        (
            "BRK1 seeded",
            brk_to_wire(&keys.brk, ctx.rns(), Some(derive_seed(MASTER, b"brk"))),
        ),
        ("CKS1 strict", cks_to_wire(cks, &ctx, None)),
        ("CKS1 seeded", cks_to_wire(cks, &ctx, Some(cks_seed))),
        ("GKS1 strict", gks_to_wire(&keys.gks, &ctx, None)),
        (
            "GKS1 seeded",
            gks_to_wire(&keys.gks, &ctx, Some(gks_master)),
        ),
    ];
    let set = EvalKeySet::new(&ctx, config, keys, Some(MASTER));
    out.push(("EKS1 strict", set.to_strict_wire(&ctx)));
    out.push(("EKS1 seeded", set.to_seeded_wire(&ctx)));

    // Ciphertexts: LWEs under q0 and one mod-switched (2N) LWE, RLWE
    // accumulators over the boot limbs, and a CKKS ciphertext.
    let lwe_sk = LweSecretKey::generate(&mut rng, config.n_t);
    let mut lwes: Vec<LweCiphertext> = (0..3)
        .map(|i| lwe_sk.encrypt(i * 0x1234_5678, q0, &mut rng))
        .collect();
    let two_n = 2 * ctx.n() as u64;
    lwes.push(LweCiphertext {
        a: (0..config.n_t as u64).map(|j| j * 37 % two_n).collect(),
        b: 101,
        modulus: two_n,
    });
    let limbs = ctx.boot_limbs();
    let moduli: Vec<u64> = (0..limbs).map(|j| ctx.rns().modulus(j).value()).collect();
    let ring_sk = RingSecretKey::generate(ctx.rns(), limbs, &mut rng);
    let coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| (i - 40) * 977).collect();
    let msg = RnsPoly::from_signed(ctx.rns(), &coeffs, limbs);
    let accs: Vec<RlweCiphertext> = (0..2)
        .map(|_| RlweCiphertext::encrypt(ctx.rns(), &ring_sk, &msg, &mut rng))
        .collect();
    let ct = ctx.encrypt_real_sk(&[0.25, -0.5, 0.125], &sk, &mut rng);
    out.push(("LWE1", lwes[0].to_wire()));
    out.push(("LBT1", lwe_batch_to_wire(&lwes)));
    out.push(("ACC1", accs[0].to_wire(&moduli)));
    out.push(("ABT1", rlwe_batch_to_wire(&accs, &moduli)));
    out.push(("CKK1", ctx.ciphertext_to_wire(&ct)));

    let mut table: Vec<_> = out
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)))
        .collect();
    table.push(("EKS1 KeyId", 8, set.id().0));
    table
}

const GOLDEN: &[(&str, usize, u64)] = &[
    ("KSK1 strict", 73949, 0xa623b23e07f22420),
    ("KSK1 seeded", 2277, 0x653ffee1838a40ef),
    ("BRK1 strict", 3670073, 0x0d63a6f78a12ad45),
    ("BRK1 seeded", 1835073, 0x2dd72a6845d19827),
    ("CKS1 strict", 17977, 0xfae0a4c61c80f9f9),
    ("CKS1 seeded", 9025, 0x32f8fd68373bc65b),
    ("GKS1 strict", 125903, 0xd841c5c996f57590),
    ("GKS1 seeded", 63239, 0xfa228683bf7eaff1),
    ("EKS1 strict", 3869962, 0xc8abac0b8b300657),
    ("EKS1 seeded", 1900626, 0x1d77e4017be6f0a3),
    ("LWE1", 132, 0xc24d4de9013d0352),
    ("LBT1", 453, 0x31c42a5bc76688f7),
    ("ACC1", 3628, 0x4eb916213cf4ea1b),
    ("ABT1", 7264, 0x7ae0b1f5e679eaf5),
    ("CKK1", 2708, 0xf6183045b47cd406),
    ("EKS1 KeyId", 8, 0xcc1e795131f3c2b0),
];

#[test]
fn every_encoding_matches_its_golden_bytes() {
    let got = encodings();
    let listing: String = got
        .iter()
        .map(|(name, len, h)| format!("    ({name:?}, {len}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "encodings moved; now:\n{listing}");
}
