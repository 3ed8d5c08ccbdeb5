//! `Extract` — sample extraction from RLWE to LWE (paper Eq. 2).
//!
//! Extracting coefficient `i` of an RLWE ciphertext `(a, b)` yields an LWE
//! ciphertext under the same secret (read as a coefficient vector):
//! `a⃗^(i) = (a_i, a_{i-1}, …, a_0, -a_{N-1}, …, -a_{i+1})`, body `b_i`.
//! The scheme switch extracts every packed coefficient before the parallel
//! blind rotations, and the standalone PBS extracts the constant
//! coefficient of its accumulator. The scheme switch does *not* extract its
//! rotation results: Extract's coefficient-0 mask is the negacyclic adjoint
//! of `a`, so re-embedding it for repacking gives back `a` itself, and each
//! accumulator becomes its own repacking leaf (`heap_core::repack`).

use heap_math::arith::Modulus;

use crate::lwe::LweCiphertext;

/// Extracts coefficient `index` of a single-limb RLWE pair `(a, b)` given
/// as coefficient-domain slices.
///
/// # Panics
///
/// Panics if `index >= a.len()` or the slices have different lengths.
pub fn extract_coefficient(a: &[u64], b: &[u64], index: usize, q: &Modulus) -> LweCiphertext {
    assert_eq!(a.len(), b.len());
    assert!(index < a.len(), "coefficient index out of range");
    let n = a.len();
    let mut mask = Vec::with_capacity(n);
    // a⃗^(i)_k = a_{i-k} for k <= i, and -a_{N+i-k} for k > i.
    for k in 0..n {
        if k <= index {
            mask.push(a[index - k]);
        } else {
            mask.push(q.neg(a[n + index - k]));
        }
    }
    LweCiphertext {
        a: mask,
        b: b[index],
        modulus: q.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlwe::{RingSecretKey, RlweCiphertext};
    use heap_math::prime::ntt_primes;
    use heap_math::sample;
    use heap_math::{RnsContext, RnsPoly};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(32, &ntt_primes(32, 30, 2))
    }

    #[test]
    fn extraction_matches_polynomial_phase() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let msg: Vec<i64> = (0..32).map(|i| (i as i64 - 16) * 10_000).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        let phase_poly = ct.phase(&c, &sk).to_centered_f64(&c);
        // Check extraction at several indices against the polynomial phase.
        let mut a_coeff = ct.a.clone();
        let mut b_coeff = ct.b.clone();
        a_coeff.to_coeff(&c);
        b_coeff.to_coeff(&c);
        let q = c.modulus(0);
        let lwe_sk = crate::lwe::LweSecretKey::from_coeffs(sk.coeffs().to_vec());
        for idx in [0usize, 1, 15, 31] {
            let lwe = extract_coefficient(a_coeff.limb(0), b_coeff.limb(0), idx, q);
            let got = q.to_signed(lwe_sk.phase(&lwe, q)) as f64;
            assert!(
                (got - phase_poly[idx]).abs() < 1.0,
                "idx {idx}: {got} vs {}",
                phase_poly[idx]
            );
        }
    }

    #[test]
    fn extraction_mask_is_negacyclic_adjoint() {
        // Structural check of Eq. 2 on a known polynomial.
        let c = ctx();
        let q = c.modulus(0);
        let a: Vec<u64> = (1..=32u64).collect();
        let b = vec![0u64; 32];
        let lwe = extract_coefficient(&a, &b, 2, q);
        // a⃗^(2) = (a_2, a_1, a_0, -a_31, ..., -a_3)
        assert_eq!(lwe.a[0], 3);
        assert_eq!(lwe.a[1], 2);
        assert_eq!(lwe.a[2], 1);
        assert_eq!(lwe.a[3], q.neg(32));
        assert_eq!(lwe.a[31], q.neg(4));
    }

    #[test]
    fn random_extraction_consistency() {
        // Extraction of every coefficient should equal the phase poly.
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample::ternary_secret(&mut rng, 32);
        let sk = RingSecretKey::from_coeffs(&c, 1, s.clone());
        let msg: Vec<i64> = (0..32).map(|i| 1000 * (i as i64 % 7 - 3)).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 1), &mut rng);
        let phase_poly = ct.phase(&c, &sk).to_centered_f64(&c);
        let mut a_coeff = ct.a.clone();
        let mut b_coeff = ct.b.clone();
        a_coeff.to_coeff(&c);
        b_coeff.to_coeff(&c);
        let q = c.modulus(0);
        let lwe_sk = crate::lwe::LweSecretKey::from_coeffs(s);
        for (idx, &expected) in phase_poly.iter().enumerate() {
            let lwe = extract_coefficient(a_coeff.limb(0), b_coeff.limb(0), idx, q);
            let got = q.to_signed(lwe_sk.phase(&lwe, q)) as f64;
            assert!((got - expected).abs() < 0.5, "idx {idx}");
        }
    }
}
