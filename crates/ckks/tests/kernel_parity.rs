//! Bit-identity of the key-switch inner product against its per-term
//! oracle.
//!
//! `key_switch` — and through it every rotation, `CkksContext::apply_galois`
//! — runs one extended-basis digit MAC chain per limb, each digit from
//! residue to accumulator in `f64` lanes. On the paper's 36-bit limbs and
//! on 45-bit ones, the widest `CkksParams` accepts, every chain must be
//! admitted and reduce to the residues of
//! `heap_ckks::oracle::key_switch_reference`, which reduces every term
//! eagerly over the strict transform. Each SIMD width is covered by
//! running this suite under it (`HEAP_SIMD=auto|avx2|scalar`).

use heap_ckks::keyswitch::key_switch;
use heap_ckks::oracle::key_switch_reference;
use heap_ckks::{CkksContext, CkksParams, GaloisKeys, KeySwitchKey, SecretKey};
use heap_math::poly::rotation_exponent;
use heap_math::{ChainEnd, MacAcc, ParamSet, RnsPoly};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn key_switch_and_galois_match_the_per_term_oracle() {
    for bits in [36, 45] {
        let params = CkksParams::new(ParamSet {
            log_n: 10,
            limbs: 3,
            limb_bits: bits,
            aux_bits: bits,
            special_bits: bits,
            ..ParamSet::PAPER
        })
        .unwrap();
        let ctx = CkksContext::new(params);
        let rns = ctx.rns();
        let l = ctx.max_limbs();

        // `digit_mac`'s chains: one per chain modulus, special prime
        // included, of one term per digit, digits as large as the largest
        // ciphertext prime.
        let digit_bound = (0..l).map(|i| rns.modulus(i).value()).max().unwrap();
        for j in (0..l).chain([ctx.special_idx()]) {
            let admitted = MacAcc::admits(rns.ntt(j), l, digit_bound, ChainEnd::Reduce);
            assert!(admitted, "{bits} bits, limb {j}");
        }

        let mut rng = StdRng::seed_from_u64(0x5EED);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
            .map(|j| sk.eval_limb(j).to_vec())
            .collect();
        let ksk = KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng);
        let d_coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| ((i * 7919) % 2001) as i64 - 1000)
            .collect();
        let mut d = RnsPoly::from_signed(rns, &d_coeffs, l);
        d.to_eval(rns);
        assert!(
            key_switch(&ctx, &d, &ksk) == key_switch_reference(&ctx, &d, &ksk),
            "{bits}-bit key_switch diverged from the per-term oracle"
        );

        // `apply_galois` is σ_g then the same key switch; rebuilt here from
        // the oracle and the public ring operations.
        let gks = GaloisKeys::generate(&ctx, &sk, &[1, 5], false, &mut rng);
        let msg: Vec<f64> = (0..ctx.slots()).map(|i| (i % 10) as f64 / 50.0).collect();
        let ct = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
        for r in [1i64, 5] {
            let g = rotation_exponent(r, ctx.n());
            let got = ctx.apply_galois(&ct, g, &gks);
            let [mut c0, mut c1] = [ct.c0().clone(), ct.c1().clone()];
            c0.to_coeff(rns);
            c1.to_coeff(rns);
            let key = gks.key_for(g).unwrap();
            let (ka, kb) = key_switch_reference(&ctx, &c1.automorphism(g, rns), key);
            let mut b = c0.automorphism(g, rns);
            b.to_eval(rns);
            b.add_assign(&kb, rns);
            assert!(
                *got.c0() == b && *got.c1() == ka,
                "{bits}-bit apply_galois by {r} diverged from the per-term oracle"
            );
        }
    }
}
