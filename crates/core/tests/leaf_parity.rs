//! The identity the repacking leaves rest on: cutting a blind-rotation
//! accumulator to [`accumulator_leaf`] gives, bit for bit, the leaf that
//! Algorithm 2 builds by extracting the constant coefficient to an LWE
//! sample and re-embedding it. That two-step composition survives only
//! here, as the oracle.
//!
//! Accumulators are uniformly random in evaluation domain, over the Tiny
//! and Small boot bases and a two-limb ring at the ceiling, the largest
//! primes the tables admit; a sparse vector of leaves must also pack to the
//! same bits either way.

use std::sync::OnceLock;

use heap_ckks::{CkksContext, CkksParams, GaloisKeys, SecretKey};
use heap_core::repack::{accumulator_leaf, pack_lwes, repack_exponents};
use heap_math::{Domain, RnsContext, RnsPoly};
use heap_tfhe::blind_rotate::MonomialEvals;
use heap_tfhe::extract::extract_coefficient;
use heap_tfhe::RlweCiphertext;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../../../tests/support/ceiling.rs"]
mod ceiling;
use ceiling::largest_admitted_primes;

/// An LWE sample held limb-wise: mask and body per limb.
struct RnsLwe {
    a: Vec<Vec<u64>>,
    b: Vec<u64>,
}

/// Oracle step 1: `Extract` of coefficient 0 in every limb.
fn extract_constant_rns(acc: &RlweCiphertext, rns: &RnsContext) -> RnsLwe {
    let [mut a, mut b] = [acc.a.clone(), acc.b.clone()];
    a.to_coeff(rns);
    b.to_coeff(rns);
    let (a, b) = (0..a.limb_count())
        .map(|j| {
            let lwe = extract_coefficient(a.limb(j), b.limb(j), 0, rns.modulus(j));
            (lwe.a, lwe.b)
        })
        .unzip();
    RnsLwe { a, b }
}

/// Oracle step 2: re-embed as an RLWE ciphertext whose phase has the LWE
/// phase in its constant coefficient (`â_0 = a_0`, `â_k = −a_{N−k}`).
fn lwe_to_rlwe(lwe: &RnsLwe, rns: &RnsContext) -> RlweCiphertext {
    let n = rns.n();
    let mut a_limbs = Vec::new();
    let mut b_limbs = Vec::new();
    for (j, (src, &body)) in lwe.a.iter().zip(&lwe.b).enumerate() {
        let q = rns.modulus(j);
        let adj = (0..n)
            .map(|k| if k == 0 { src[0] } else { q.neg(src[n - k]) })
            .collect();
        let mut b = vec![0u64; n];
        b[0] = body;
        a_limbs.push(adj);
        b_limbs.push(b);
    }
    let mut a = RnsPoly::from_limbs(a_limbs, Domain::Coeff);
    let mut b = RnsPoly::from_limbs(b_limbs, Domain::Coeff);
    a.to_eval(rns);
    b.to_eval(rns);
    RlweCiphertext { a, b }
}

fn oracle_leaf(acc: &RlweCiphertext, rns: &RnsContext) -> RlweCiphertext {
    lwe_to_rlwe(&extract_constant_rns(acc, rns), rns)
}

/// A uniformly random evaluation-domain accumulator over `limbs` limbs.
fn random_acc(rns: &RnsContext, limbs: usize, rng: &mut StdRng) -> RlweCiphertext {
    let mut part = || {
        let l = (0..limbs)
            .map(|j| {
                let q = rns.modulus(j).value();
                (0..rns.n()).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        RnsPoly::from_limbs(l, Domain::Eval)
    };
    RlweCiphertext {
        a: part(),
        b: part(),
    }
}

fn assert_same(got: &RlweCiphertext, want: &RlweCiphertext, what: &str) {
    assert_eq!(got.a, want.a, "{what}: a");
    assert_eq!(got.b, want.b, "{what}: b");
}

/// The Tiny context with its repacking keys, for the packing check.
struct Tiny {
    ctx: CkksContext,
    gks: GaloisKeys,
    monomials: MonomialEvals,
}

fn tiny() -> &'static Tiny {
    static T: OnceLock<Tiny> = OnceLock::new();
    T.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut gks = GaloisKeys::new();
        for g in repack_exponents(ctx.n()) {
            gks.add_exponent(&ctx, &sk, g, &mut rng);
        }
        let monomials = MonomialEvals::new(ctx.rns(), ctx.boot_limbs());
        Tiny {
            ctx,
            gks,
            monomials,
        }
    })
}

fn small() -> &'static CkksContext {
    static S: OnceLock<CkksContext> = OnceLock::new();
    S.get_or_init(|| CkksContext::new(CkksParams::test_small()))
}

fn top() -> &'static RnsContext {
    static W: OnceLock<RnsContext> = OnceLock::new();
    W.get_or_init(|| RnsContext::new(64, &largest_admitted_primes(64, 2)))
}

/// Ring `i`: its basis and the limb count accumulators live over.
fn ring(i: usize) -> (&'static RnsContext, usize, &'static str) {
    match i {
        0 => (tiny().ctx.rns(), tiny().ctx.boot_limbs(), "Tiny boot basis"),
        1 => (small().rns(), small().boot_limbs(), "Small boot basis"),
        _ => (top(), 2, "two-limb ring at the ceiling"),
    }
}

#[test]
fn the_rings_are_the_ones_named() {
    assert_eq!(ring(0).0.n(), 1 << 7);
    assert_eq!(ring(1).0.n(), 1 << 10);
    assert!(top().moduli().iter().all(|q| q.value() >> 46 == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn accumulator_leaf_is_extract_then_reembed(ring_idx in 0usize..3, seed in any::<u64>()) {
        let (rns, limbs, what) = ring(ring_idx);
        let acc = random_acc(rns, limbs, &mut StdRng::seed_from_u64(seed));
        assert_same(&accumulator_leaf(&acc, rns), &oracle_leaf(&acc, rns), what);
    }

    #[test]
    fn sparse_leaves_pack_to_the_same_bits(density in 0u32..=128, seed in any::<u64>()) {
        // Each position holds a leaf with probability `density / 128`:
        // from no leaf at all to every one.
        let t = tiny();
        let rns = t.ctx.rns();
        let mut rng = StdRng::seed_from_u64(seed);
        let accs: Vec<Option<RlweCiphertext>> = (0..t.ctx.n())
            .map(|_| {
                let present = rng.gen_range(0..128u32) < density;
                present.then(|| random_acc(rns, t.ctx.boot_limbs(), &mut rng))
            })
            .collect();
        let leaves: Vec<_> = accs.iter().map(|a| a.as_ref().map(|a| accumulator_leaf(a, rns))).collect();
        let oracle: Vec<_> = accs.iter().map(|a| a.as_ref().map(|a| oracle_leaf(a, rns))).collect();
        for (j, (got, want)) in leaves.iter().zip(&oracle).enumerate() {
            match (got, want) {
                (Some(got), Some(want)) => assert_same(got, want, &format!("leaf {j}")),
                (None, None) => {}
                _ => panic!("leaf {j}: presence differs"),
            }
        }
        let got = pack_lwes(&t.ctx, leaves, &t.gks, &t.monomials);
        let want = pack_lwes(&t.ctx, oracle, &t.gks, &t.monomials);
        prop_assert_eq!(got, want);
    }
}
