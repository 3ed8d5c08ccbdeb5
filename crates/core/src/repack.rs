//! RLWE repacking (Chen et al., adopted by HEAP §II-B).
//!
//! After the parallel blind rotations, every refreshed coefficient is the
//! constant coefficient of its own accumulator, which [`accumulator_leaf`]
//! cuts to a leaf. This module recombines the leaves into one RLWE
//! ciphertext with an automorphism tree: at each level two packings are
//! interleaved as `(E + X^t·O) + σ_g(E − X^t·O)` with `g = m + 1`, which
//! doubles the wanted coefficients, cancels the unwanted ones, and after
//! `log N` levels yields an exact encryption of `N · Σ_j m_j X^j`
//! (the factor `N` is divided away by the bootstrap's final rescale). The
//! automorphisms are CKKS's own ([`CkksContext::apply_galois_pair`]) over
//! the raised basis `Q·p`.

use heap_ckks::{CkksContext, GaloisKeys};
use heap_math::{Domain, RnsContext, RnsPoly};
use heap_tfhe::blind_rotate::MonomialEvals;
use heap_tfhe::RlweCiphertext;

/// The automorphism exponents the repacking tree needs: `2^k + 1` for
/// `k = 1..=log2(N)`.
///
/// # Examples
///
/// ```
/// assert_eq!(heap_core::repack::repack_exponents(8), vec![3, 5, 9]);
/// ```
pub fn repack_exponents(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two());
    (1..=n.trailing_zeros())
        .map(|k| (1usize << k) + 1)
        .collect()
}

/// The multiplicative factor the full tree applies to every packed message
/// (each of the `log N` levels doubles): exactly `N`.
pub fn repack_factor(n: usize) -> u64 {
    n as u64
}

/// The repacking leaf of a blind-rotation accumulator: `a` as it is (in
/// evaluation domain), and `b` replaced by the constant polynomial `b_0`,
/// which in evaluation domain is `b_0` in every slot. This is, bit for bit,
/// Algorithm 2's leaf: Extract's coefficient-0 mask is the negacyclic
/// adjoint of `a`, and re-embedding the LWE sample takes the adjoint again.
/// It costs one inverse transform of `b` per limb instead of four
/// transforms.
pub fn accumulator_leaf(acc: &RlweCiphertext, rns: &RnsContext) -> RlweCiphertext {
    let mut a = acc.a.clone();
    a.to_eval(rns);
    let mut b = acc.b.clone();
    b.to_coeff(rns);
    for limb in b.limbs_mut() {
        let b0 = limb[0];
        limb.fill(b0);
    }
    b.set_domain(Domain::Eval);
    RlweCiphertext { a, b }
}

/// Packs up to `N` leaves (position `j` in the vector lands on coefficient
/// `j`, in the constant coefficient of the leaf's phase) into one RLWE
/// ciphertext over the boot basis.
///
/// `None` entries are treated as exact zeros (sparse packing): HEAP's
/// `n_br` knob maps to the number of `Some` entries, which is also the
/// number of blind rotations that were paid upstream.
///
/// Returns the `(a, b)` polynomial pair in evaluation domain; the packed
/// message is `N·m_j` at coefficient `j` (see [`repack_factor`]).
///
/// # Panics
///
/// Panics if `leaves.len() != ctx.n()` or a required Galois key is missing.
pub fn pack_lwes(
    ctx: &CkksContext,
    leaves: Vec<Option<RlweCiphertext>>,
    gks: &GaloisKeys,
    monomials: &MonomialEvals,
) -> (RnsPoly, RnsPoly) {
    assert_eq!(
        leaves.len(),
        ctx.n(),
        "need one (optional) leaf per coefficient"
    );
    match pack_recursive(ctx, leaves, gks, monomials) {
        Some(ct) => (ct.a, ct.b),
        None => {
            let zero = RnsPoly::zero(ctx.rns(), ctx.boot_limbs(), Domain::Eval);
            (zero.clone(), zero)
        }
    }
}

fn pack_recursive(
    ctx: &CkksContext,
    cts: Vec<Option<RlweCiphertext>>,
    gks: &GaloisKeys,
    monomials: &MonomialEvals,
) -> Option<RlweCiphertext> {
    let m = cts.len();
    if m == 1 {
        return cts.into_iter().next().expect("non-empty");
    }
    let mut evens = Vec::with_capacity(m / 2);
    let mut odds = Vec::with_capacity(m / 2);
    for (i, ct) in cts.into_iter().enumerate() {
        if i % 2 == 0 {
            evens.push(ct);
        } else {
            odds.push(ct);
        }
    }
    let e = pack_recursive(ctx, evens, gks, monomials);
    let o = pack_recursive(ctx, odds, gks, monomials);
    combine(ctx, e, o, m, gks, monomials)
}

/// One tree level: `(E + X^{N/m}·O) + σ_{m+1}(E − X^{N/m}·O)`.
fn combine(
    ctx: &CkksContext,
    e: Option<RlweCiphertext>,
    o: Option<RlweCiphertext>,
    m: usize,
    gks: &GaloisKeys,
    monomials: &MonomialEvals,
) -> Option<RlweCiphertext> {
    let rns = ctx.rns();
    let shift = ctx.n() / m;
    let (sum, diff) = match (e, o) {
        (None, None) => return None,
        (Some(e), None) => (e.clone(), e),
        (e, o) => {
            let limbs = ctx.boot_limbs();
            let e = e.unwrap_or_else(|| RlweCiphertext::zero(rns, limbs));
            let mut xo = o.unwrap_or_else(|| RlweCiphertext::zero(rns, limbs));
            monomials.mul_monomial_assign(&mut xo.a, shift, rns);
            monomials.mul_monomial_assign(&mut xo.b, shift, rns);
            let mut sum = e.clone();
            sum.add_assign(&xo, rns);
            let mut diff = e;
            diff.sub_assign(&xo, rns);
            (sum, diff)
        }
    };
    let rotated = eval_auto(ctx, &diff, m + 1, gks);
    let mut out = sum;
    out.add_assign(&rotated, rns);
    Some(out)
}

/// Homomorphic automorphism `X ↦ X^g` with key switching (the `EvalAuto`
/// of the repacking paper; the same body as CKKS `Rotate`).
pub fn eval_auto(
    ctx: &CkksContext,
    ct: &RlweCiphertext,
    g: usize,
    gks: &GaloisKeys,
) -> RlweCiphertext {
    let (a, b) = ctx.apply_galois_pair(&ct.a, &ct.b, g, gks);
    RlweCiphertext { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_ckks::{CkksParams, SecretKey};
    use heap_math::poly;
    use heap_tfhe::RingSecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        CkksContext,
        SecretKey,
        RingSecretKey,
        GaloisKeys,
        MonomialEvals,
        StdRng,
    ) {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(42);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ring_sk = RingSecretKey::from_coeffs(ctx.rns(), ctx.boot_limbs(), sk.coeffs().to_vec());
        let mut gks = GaloisKeys::new();
        for g in repack_exponents(ctx.n()) {
            gks.add_exponent(&ctx, &sk, g, &mut rng);
        }
        let monomials = MonomialEvals::new(ctx.rns(), ctx.boot_limbs());
        (ctx, sk, ring_sk, gks, monomials, rng)
    }

    /// Builds a leaf whose phase is exactly the constant `value` (trivial
    /// encryption) at the boot basis.
    fn trivial_leaf(ctx: &CkksContext, value: i64) -> RlweCiphertext {
        let rns = ctx.rns();
        let mut leaf = RlweCiphertext::zero(rns, ctx.boot_limbs());
        for (j, limb) in leaf.b.limbs_mut().enumerate() {
            limb.fill(rns.modulus(j).from_i64(value));
        }
        leaf
    }

    #[test]
    fn exponents_and_factor() {
        assert_eq!(repack_exponents(128), vec![3, 5, 9, 17, 33, 65, 129]);
        assert_eq!(repack_factor(128), 128);
    }

    #[test]
    fn full_pack_of_trivial_leaves_is_exact() {
        let (ctx, sk, ring_sk, gks, monomials, _rng) = setup();
        let n = ctx.n();
        let values: Vec<i64> = (0..n).map(|j| (j as i64 % 23) - 11).collect();
        let leaves = values
            .iter()
            .map(|&v| Some(trivial_leaf(&ctx, v * 1_000)))
            .collect();
        let (a, b) = pack_lwes(&ctx, leaves, &gks, &monomials);
        let ct = RlweCiphertext { a, b };
        let phase = ct.phase(ctx.rns(), &ring_sk).to_centered_f64(ctx.rns());
        let factor = repack_factor(n) as f64;
        for (j, &v) in values.iter().enumerate() {
            let want = factor * (v * 1_000) as f64;
            // only key-switch noise; trivial leaves have no encryption noise
            assert!(
                (phase[j] - want).abs() < 1e6,
                "coeff {j}: {} vs {want}",
                phase[j]
            );
        }
        let _ = sk;
    }

    #[test]
    fn sparse_pack_zeroes_missing_positions() {
        let (ctx, _sk, ring_sk, gks, monomials, _rng) = setup();
        let n = ctx.n();
        let stride = 8usize;
        let leaves = (0..n)
            .map(|j| {
                if j % stride == 0 {
                    Some(trivial_leaf(&ctx, 5_000 + j as i64))
                } else {
                    None
                }
            })
            .collect();
        let (a, b) = pack_lwes(&ctx, leaves, &gks, &monomials);
        let ct = RlweCiphertext { a, b };
        let phase = ct.phase(ctx.rns(), &ring_sk).to_centered_f64(ctx.rns());
        let factor = repack_factor(n) as f64;
        for (j, &ph) in phase.iter().enumerate() {
            let want = if j % stride == 0 {
                factor * (5_000 + j as i64) as f64
            } else {
                0.0
            };
            assert!((ph - want).abs() < 1e6, "coeff {j}: {ph} vs {want}");
        }
    }

    #[test]
    fn pack_of_real_accumulator_leaves() {
        // End-to-end: encrypt constants, cut each ciphertext to its leaf,
        // repack, compare phases.
        let (ctx, _sk, ring_sk, gks, monomials, mut rng) = setup();
        let n = ctx.n();
        let rns = ctx.rns();
        // Create independent RLWE cts each encrypting value_j in constant.
        let mut leaves = vec![None; n];
        let mut wants = vec![0f64; n];
        for j in (0..n).step_by(n / 4) {
            let mut coeffs = vec![0i64; n];
            coeffs[0] = (j as i64 + 1) * 100_000;
            let msg = RnsPoly::from_signed(rns, &coeffs, ctx.boot_limbs());
            let ct = RlweCiphertext::encrypt(rns, &ring_sk, &msg, &mut rng);
            leaves[j] = Some(accumulator_leaf(&ct, rns));
            wants[j] = (repack_factor(n) * (j as u64 + 1) * 100_000) as f64;
        }
        let (a, b) = pack_lwes(&ctx, leaves, &gks, &monomials);
        let ct = RlweCiphertext { a, b };
        let phase = ct.phase(rns, &ring_sk).to_centered_f64(rns);
        for j in 0..n {
            assert!(
                (phase[j] - wants[j]).abs() < 5e6,
                "coeff {j}: {} vs {}",
                phase[j],
                wants[j]
            );
        }
    }

    #[test]
    fn eval_auto_applies_automorphism_homomorphically() {
        let (ctx, _sk, ring_sk, gks, _monomials, mut rng) = setup();
        let rns = ctx.rns();
        let n = ctx.n();
        let coeffs: Vec<i64> = (0..n).map(|i| (i as i64 - 64) * 10_000).collect();
        let msg = RnsPoly::from_signed(rns, &coeffs, ctx.boot_limbs());
        let ct = RlweCiphertext::encrypt(rns, &ring_sk, &msg, &mut rng);
        let g = 3usize;
        let rotated = eval_auto(&ctx, &ct, g, &gks);
        let phase = rotated.phase(rns, &ring_sk).to_centered_f64(rns);
        let q0 = rns.modulus(0);
        let expected_u = poly::automorphism(&poly::from_signed(&coeffs, q0), g, q0);
        let expected: Vec<f64> = expected_u.iter().map(|&x| q0.to_signed(x) as f64).collect();
        for j in 0..n {
            assert!(
                (phase[j] - expected[j]).abs() < 1e6,
                "coeff {j}: {} vs {}",
                phase[j],
                expected[j]
            );
        }
    }
}
