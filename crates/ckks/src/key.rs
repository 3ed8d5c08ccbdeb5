//! CKKS key material: secret, public, relinearization, and Galois keys.
//!
//! Key switching uses the per-limb hybrid decomposition (`dnum = L`, one
//! 36-bit special prime `P`): component `i` of a switching key encrypts the
//! RNS element whose `q_j` limb is `δ_ij · (P mod q_j) · [w]_{q_j}` (and `0`
//! mod `P`), where `w` is the switched-in secret (`s²` for
//! relinearization, `σ_g(s)` for rotations). This matches the hybrid
//! key-switching of Han–Ki that HEAP's datapath implements, with one digit
//! per limb so `P` can stay a single machine word.

use rand::Rng;

use heap_math::{poly, sample};

use crate::context::CkksContext;

/// The CKKS secret key: a uniform ternary polynomial (non-sparse, per the
/// paper's security discussion) cached in evaluation form under every prime
/// of the chain.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
    /// Evaluation-domain limbs over the full chain (ciphertext + special).
    eval: Vec<Vec<u64>>,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        let coeffs = sample::ternary_secret(rng, ctx.n());
        Self::from_coeffs(ctx, coeffs)
    }

    /// Samples a *sparse* ternary secret with exactly `h` nonzero
    /// coefficients.
    ///
    /// Only used by the conventional-bootstrap baseline: sparse keys keep
    /// the `k·q` wrap count small enough for the sine approximation, which
    /// is how the classical implementations (HEAAN et al.) operate. HEAP
    /// itself avoids sparse keys for security (paper §II) — its
    /// scheme-switched bootstrap does not need them.
    ///
    /// # Panics
    ///
    /// Panics if `h` is zero or exceeds `N`.
    pub fn generate_sparse<R: Rng + ?Sized>(ctx: &CkksContext, h: usize, rng: &mut R) -> Self {
        let n = ctx.n();
        assert!(h >= 1 && h <= n, "invalid hamming weight");
        let mut coeffs = vec![0i64; n];
        let mut placed = 0;
        while placed < h {
            let idx = rng.gen_range(0..n);
            if coeffs[idx] == 0 {
                coeffs[idx] = if rng.gen_bool(0.5) { 1 } else { -1 };
                placed += 1;
            }
        }
        Self::from_coeffs(ctx, coeffs)
    }

    /// Builds a secret key from explicit signed coefficients (tests and the
    /// TFHE bridge use this to share keys across schemes).
    pub fn from_coeffs(ctx: &CkksContext, coeffs: Vec<i64>) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        let eval = (0..ctx.rns().max_limbs())
            .map(|i| {
                let m = ctx.rns().modulus(i);
                let mut l = poly::from_signed(&coeffs, m);
                ctx.rns().ntt(i).forward(&mut l);
                l
            })
            .collect();
        Self { coeffs, eval }
    }

    /// The signed ternary coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Evaluation-domain limb under chain prime `i`.
    #[inline]
    pub fn eval_limb(&self, i: usize) -> &[u64] {
        &self.eval[i]
    }
}

/// A public encryption key: a fresh RLWE sample `(b, a)` with
/// `b = -a·s + e` over the ciphertext primes.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b` limbs in evaluation domain (ciphertext primes only).
    pub(crate) b: Vec<Vec<u64>>,
    /// `a` limbs in evaluation domain.
    pub(crate) a: Vec<Vec<u64>>,
}

impl PublicKey {
    /// Generates a public key for `sk`.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        let l = ctx.max_limbs();
        let e = sample::gaussian_poly(rng, ctx.n());
        let mut a = Vec::with_capacity(l);
        let mut b = Vec::with_capacity(l);
        for i in 0..l {
            let m = ctx.rns().modulus(i);
            let ntt = ctx.rns().ntt(i);
            let ai = sample::uniform_poly(rng, ctx.n(), m.value());
            let mut ei = poly::from_signed(&e, m);
            ntt.forward(&mut ei);
            // b = -a*s + e (eval domain)
            let mut bi = vec![0u64; ctx.n()];
            ntt.pointwise(&ai, sk.eval_limb(i), &mut bi);
            poly::neg_assign(&mut bi, m);
            poly::add_assign(&mut bi, &ei, m);
            a.push(ai);
            b.push(bi);
        }
        Self { a, b }
    }
}

/// One component of a key-switching key (limbs over the full chain,
/// evaluation domain). The key-switch MAC reads these limbs as stored, so
/// they are the whole component: nothing derived to keep in sync.
#[derive(Debug, Clone)]
pub struct KsComponent {
    pub(crate) a: Vec<Vec<u64>>,
    pub(crate) b: Vec<Vec<u64>>,
}

/// A key-switching key from secret `w` to the canonical secret `s`
/// (`dnum = L` hybrid decomposition, one component per ciphertext limb).
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) comps: Vec<KsComponent>,
}

impl KeySwitchKey {
    /// Generates a switching key for the secret `w`, supplied as
    /// evaluation-domain limbs over the ciphertext primes (`w_eval[j]` under
    /// `q_j`).
    ///
    /// # Panics
    ///
    /// Panics if `w_eval.len() != ctx.max_limbs()`.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        w_eval: &[Vec<u64>],
        rng: &mut R,
    ) -> Self {
        // Components cover every non-special limb (ciphertext primes plus
        // the bootstrap aux prime) so key switching also works on the
        // raised basis used inside bootstrapping.
        let l = ctx.boot_limbs();
        assert_eq!(w_eval.len(), l, "w must cover every non-special limb");
        let chain = ctx.rns().max_limbs(); // L + 2
        let n = ctx.n();
        let mut comps = Vec::with_capacity(l);
        for (i, w) in w_eval.iter().enumerate() {
            let e = sample::gaussian_poly(rng, n);
            let mut a = Vec::with_capacity(chain);
            let mut b = Vec::with_capacity(chain);
            for j in 0..chain {
                let m = ctx.rns().modulus(j);
                let ntt = ctx.rns().ntt(j);
                let aj = sample::uniform_poly(rng, n, m.value());
                let mut ej = poly::from_signed(&e, m);
                ntt.forward(&mut ej);
                let mut bj = vec![0u64; n];
                ntt.pointwise(&aj, sk.eval_limb(j), &mut bj);
                poly::neg_assign(&mut bj, m);
                poly::add_assign(&mut bj, &ej, m);
                if j == i {
                    // message limb: (P mod q_j) * w (eval domain)
                    let p_mod = m.reduce_u64(ctx.special_modulus().value());
                    let mut msg = w.clone();
                    poly::scalar_mul_assign(&mut msg, p_mod, m);
                    poly::add_assign(&mut bj, &msg, m);
                }
                a.push(aj);
                b.push(bj);
            }
            comps.push(KsComponent { a, b });
        }
        Self { comps }
    }

    /// Number of components (equals the ciphertext limb count).
    #[inline]
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }
}

/// The relinearization key (switches `s²` back to `s` after `Mult`).
#[derive(Debug, Clone)]
pub struct RelinearizationKey {
    pub(crate) ksk: KeySwitchKey,
}

impl RelinearizationKey {
    /// Generates the relinearization key.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        // [s^2]_{q_j} computed limb-wise in evaluation domain.
        let w: Vec<Vec<u64>> = (0..ctx.boot_limbs())
            .map(|j| {
                let mut sq = vec![0u64; ctx.n()];
                ctx.rns()
                    .ntt(j)
                    .pointwise(sk.eval_limb(j), sk.eval_limb(j), &mut sq);
                sq
            })
            .collect();
        Self {
            ksk: KeySwitchKey::generate(ctx, sk, &w, rng),
        }
    }
}

/// Galois keys: one switching key per automorphism exponent, enabling
/// `Rotate` and `Conjugate`.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: std::collections::HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// Creates an empty key set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates keys for the given slot rotations (and optionally
    /// conjugation).
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        rotations: &[i64],
        conjugation: bool,
        rng: &mut R,
    ) -> Self {
        let mut gk = Self::new();
        for &r in rotations {
            gk.add_exponent(ctx, sk, poly::rotation_exponent(r, ctx.n()), rng);
        }
        if conjugation {
            gk.add_exponent(ctx, sk, poly::conjugation_exponent(ctx.n()), rng);
        }
        gk
    }

    /// Generates and inserts a key for a raw automorphism exponent.
    pub fn add_exponent<R: Rng + ?Sized>(
        &mut self,
        ctx: &CkksContext,
        sk: &SecretKey,
        g: usize,
        rng: &mut R,
    ) {
        if self.keys.contains_key(&g) {
            return;
        }
        // w = sigma_g(s), exact on signed coefficients.
        let n = ctx.n();
        let mut w_signed = vec![0i64; n];
        let mut idx = 0usize;
        for &c in sk.coeffs() {
            if idx < n {
                w_signed[idx] = c;
            } else {
                w_signed[idx - n] = -c;
            }
            idx += g;
            if idx >= 2 * n {
                idx -= 2 * n;
            }
        }
        let w: Vec<Vec<u64>> = (0..ctx.boot_limbs())
            .map(|j| {
                let m = ctx.rns().modulus(j);
                let mut l = poly::from_signed(&w_signed, m);
                ctx.rns().ntt(j).forward(&mut l);
                l
            })
            .collect();
        self.keys
            .insert(g, KeySwitchKey::generate(ctx, sk, &w, rng));
    }

    /// Looks up the key for an automorphism exponent.
    pub fn key_for(&self, g: usize) -> Option<&KeySwitchKey> {
        self.keys.get(&g)
    }

    /// The stored automorphism exponents in ascending order (the canonical
    /// traversal order used by the wire encoding and seed derivation).
    pub fn exponents(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.keys.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Mutable access to a stored key (reseeding rewrites masks in place).
    pub(crate) fn key_for_mut(&mut self, g: usize) -> Option<&mut KeySwitchKey> {
        self.keys.get_mut(&g)
    }

    /// Inserts an already-built switching key (wire decoding uses this).
    pub(crate) fn insert_key(&mut self, g: usize, key: KeySwitchKey) {
        self.keys.insert(g, key);
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_limbs_match_coeffs() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&ctx, &mut rng);
        assert!(sk.coeffs().iter().all(|&c| (-1..=1).contains(&c)));
        // Round-trip limb 0 back to coefficients.
        let mut l0 = sk.eval_limb(0).to_vec();
        ctx.rns().ntt(0).inverse(&mut l0);
        let back = poly::to_signed(&l0, ctx.rns().modulus(0));
        assert_eq!(back, sk.coeffs());
    }

    #[test]
    fn public_key_is_valid_rlwe_sample() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        // b + a*s should be small (the error polynomial).
        let m = ctx.rns().modulus(0);
        let ntt = ctx.rns().ntt(0);
        let mut phase = vec![0u64; ctx.n()];
        ntt.pointwise(&pk.a[0], sk.eval_limb(0), &mut phase);
        poly::add_assign(&mut phase, &pk.b[0], m);
        ntt.inverse(&mut phase);
        let signed = poly::to_signed(&phase, m);
        assert!(poly::inf_norm(&signed) < 64, "pk error too large");
    }

    #[test]
    fn galois_keys_store_by_exponent() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let gk = GaloisKeys::generate(&ctx, &sk, &[1, 2], true, &mut rng);
        assert_eq!(gk.len(), 3);
        let g1 = poly::rotation_exponent(1, ctx.n());
        assert!(gk.key_for(g1).is_some());
        assert!(gk.key_for(poly::conjugation_exponent(ctx.n())).is_some());
        assert!(gk.key_for(9999).is_none());
    }
}
