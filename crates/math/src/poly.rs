//! Single-modulus polynomial helpers over `Z_q[X]/(X^N + 1)`.
//!
//! These free functions implement the coefficient-domain primitives shared
//! by CKKS and TFHE: element-wise modular arithmetic, negacyclic monomial
//! multiplication (HEAP's TFHE rotation unit, §IV-A), and the automorphism
//! `i ↦ i·g (mod 2N)` used by CKKS `Rotate` and LWE repacking (HEAP's
//! automorph unit, with `g = 5^r`).

use crate::arith::Modulus;

/// Element-wise modular addition: `a[i] += b[i] mod q`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = q.add(*x, y);
    }
}

/// Element-wise modular subtraction: `a[i] -= b[i] mod q`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = q.sub(*x, y);
    }
}

/// Element-wise negation in place.
pub fn neg_assign(a: &mut [u64], q: &Modulus) {
    for x in a.iter_mut() {
        *x = q.neg(*x);
    }
}

/// Multiplies every coefficient by a scalar residue.
pub fn scalar_mul_assign(a: &mut [u64], s: u64, q: &Modulus) {
    let s = q.reduce_u64(s);
    for x in a.iter_mut() {
        *x = q.mul(*x, s);
    }
}

/// Converts signed coefficients to their least non-negative residues.
pub fn from_signed(coeffs: &[i64], q: &Modulus) -> Vec<u64> {
    coeffs.iter().map(|&c| q.from_i64(c)).collect()
}

/// [`from_signed`] into a caller-provided buffer (allocation-free).
///
/// # Panics
///
/// Panics if `out.len() != coeffs.len()`.
pub fn from_signed_into(coeffs: &[i64], q: &Modulus, out: &mut [u64]) {
    assert_eq!(out.len(), coeffs.len());
    let qv = q.value() as i64;
    for (o, &c) in out.iter_mut().zip(coeffs) {
        // Gadget digits (the hot-path caller) satisfy |c| < q, so lifting is
        // a conditional add — no `rem_euclid` hardware division.
        *o = if c >= 0 && c < qv {
            c as u64
        } else if c < 0 && c > -qv {
            (c + qv) as u64
        } else {
            q.from_i64(c)
        };
    }
}

/// Converts residues to balanced signed representatives.
pub fn to_signed(coeffs: &[u64], q: &Modulus) -> Vec<i64> {
    coeffs.iter().map(|&c| q.to_signed(c)).collect()
}

/// Multiplies a polynomial by the monomial `X^k` in `Z_q[X]/(X^N+1)`.
///
/// `k` is taken modulo `2N`; multiplying by `X^N` negates (negacyclic wrap).
/// This is exactly the rotation performed by HEAP's TFHE rotation unit
/// during `BlindRotate`.
///
/// # Examples
///
/// ```
/// use heap_math::arith::Modulus;
/// use heap_math::poly::monomial_mul;
///
/// let q = Modulus::new(97).unwrap();
/// let p = vec![1, 2, 3, 4];
/// // X^4 == -1 in Z[X]/(X^4+1)
/// assert_eq!(monomial_mul(&p, 4, &q), vec![96, 95, 94, 93]);
/// ```
pub fn monomial_mul(poly: &[u64], k: i64, q: &Modulus) -> Vec<u64> {
    let mut out = vec![0u64; poly.len()];
    monomial_mul_into(poly, k, q, &mut out);
    out
}

/// [`monomial_mul`] into a caller-provided buffer (allocation-free; the
/// blind-rotate accumulator initialization reuses one buffer per limb).
///
/// `out` is overwritten entirely.
///
/// # Panics
///
/// Panics if `out.len() != poly.len()`.
pub fn monomial_mul_into(poly: &[u64], k: i64, q: &Modulus, out: &mut [u64]) {
    let n = poly.len();
    assert_eq!(out.len(), n);
    let two_n = 2 * n as i64;
    let k = k.rem_euclid(two_n) as usize;
    out.fill(0);
    for (i, &c) in poly.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let pos = i + k;
        if pos < n {
            out[pos] = c;
        } else if pos < 2 * n {
            out[pos - n] = q.neg(c);
        } else {
            out[pos - 2 * n] = c;
        }
    }
}

/// Applies the ring automorphism `X ↦ X^g` for odd `g` in coefficient
/// representation.
///
/// Coefficient `i` moves to index `i·g mod 2N`, negated when the index wraps
/// past `N`. CKKS `Rotate` by `r` slots uses `g = 5^r mod 2N`;
/// `Conjugate` uses `g = 2N - 1`.
///
/// # Panics
///
/// Panics if `g` is even (even maps are not ring automorphisms of
/// `Z[X]/(X^N+1)`).
pub fn automorphism(poly: &[u64], g: usize, q: &Modulus) -> Vec<u64> {
    assert!(g % 2 == 1, "automorphism exponent must be odd");
    let n = poly.len();
    let two_n = 2 * n;
    let g = g % two_n; // 2N is even, so the reduced exponent stays odd
    let mut out = vec![0u64; n];
    let mut idx = 0usize; // i * g mod 2N, updated incrementally
    for &c in poly.iter() {
        if idx < n {
            out[idx] = c;
        } else {
            out[idx - n] = q.neg(c);
        }
        idx += g;
        if idx >= two_n {
            idx -= two_n;
        }
    }
    out
}

/// The Galois exponent `5^r mod 2N` implementing a rotation by `r` slots
/// (HEAP's automorph unit precomputes these, §IV-A).
pub fn rotation_exponent(r: i64, n: usize) -> usize {
    let two_n = 2 * n as u64;
    // Order of 5 modulo 2N is N/2, so reduce r mod N/2 first.
    let r = r.rem_euclid((n / 2) as i64) as u64;
    let mut e = 1u64;
    let mut base = 5u64 % two_n;
    let mut k = r;
    while k > 0 {
        if k & 1 == 1 {
            e = (e * base) % two_n;
        }
        base = (base * base) % two_n;
        k >>= 1;
    }
    e as usize
}

/// The Galois exponent for complex conjugation (`2N - 1`).
pub fn conjugation_exponent(n: usize) -> usize {
    2 * n - 1
}

/// Infinity norm of a signed-coefficient polynomial (noise measurements).
pub fn inf_norm(coeffs: &[i64]) -> u64 {
    coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Modulus {
        Modulus::new(97).unwrap()
    }

    #[test]
    fn add_sub_inverse() {
        let q = q();
        let mut a = vec![1u64, 2, 3, 96];
        let b = vec![96u64, 95, 94, 5];
        let orig = a.clone();
        add_assign(&mut a, &b, &q);
        sub_assign(&mut a, &b, &q);
        assert_eq!(a, orig);
    }

    #[test]
    fn monomial_mul_wraps_negacyclically() {
        let q = q();
        let p = vec![1u64, 0, 0, 0];
        assert_eq!(monomial_mul(&p, 1, &q), vec![0, 1, 0, 0]);
        assert_eq!(monomial_mul(&p, 4, &q), vec![96, 0, 0, 0]);
        assert_eq!(monomial_mul(&p, 8, &q), p);
        // Negative shifts: X^{-1} == -X^{N-1}
        assert_eq!(monomial_mul(&p, -1, &q), vec![0, 0, 0, 96]);
    }

    #[test]
    fn monomial_mul_composes() {
        let q = q();
        let p = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let once = monomial_mul(&monomial_mul(&p, 3, &q), 5, &q);
        let direct = monomial_mul(&p, 8, &q);
        assert_eq!(once, direct);
    }

    #[test]
    fn automorphism_identity_and_composition() {
        let q = q();
        let p = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(automorphism(&p, 1, &q), p);
        let g1 = 5usize;
        let g2 = 13usize;
        let composed = automorphism(&automorphism(&p, g1, &q), g2, &q);
        let direct = automorphism(&p, (g1 * g2) % 16, &q);
        assert_eq!(composed, direct);
        // Exponents are taken mod 2N.
        assert_eq!(automorphism(&p, g1 * g2, &q), direct);
    }

    #[test]
    fn automorphism_matches_symbolic_substitution() {
        // p(X) = X: sigma_g(p) = X^g.
        let q = q();
        let n = 8;
        let mut p = vec![0u64; n];
        p[1] = 1;
        let got = automorphism(&p, 5, &q);
        let expect = monomial_mul(
            &{
                let mut e = vec![0u64; n];
                e[0] = 1;
                e
            },
            5,
            &q,
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn rotation_exponents() {
        let n = 8usize;
        assert_eq!(rotation_exponent(0, n), 1);
        assert_eq!(rotation_exponent(1, n), 5);
        assert_eq!(rotation_exponent(2, n), 25 % 16);
        // r and r mod N/2 give the same exponent.
        assert_eq!(
            rotation_exponent(1, n),
            rotation_exponent(1 + (n as i64) / 2, n)
        );
        assert_eq!(conjugation_exponent(n), 15);
    }

    #[test]
    fn signed_roundtrip_and_norm() {
        let q = q();
        let s = vec![-3i64, 0, 48, -48];
        let u = from_signed(&s, &q);
        assert_eq!(to_signed(&u, &q), s);
        assert_eq!(inf_norm(&s), 48);
        assert_eq!(inf_norm(&[]), 0);
    }
}
