//! Hybrid key switching (`ModUp` → external product → `ModDown`).
//!
//! Given a polynomial `d` over the ciphertext primes `q_0..q_{l-1}` and a
//! [`KeySwitchKey`] for secret `w`, produces `(a, b)` with
//! `b + a·s ≈ d·w` at the same level. Per-limb decomposition keeps the
//! amplification at `~q_i·e/P ≈ e`: limb `i` of `d` is spread across the
//! extended basis (the `ModUp`), multiplied against key component `i` on the
//! MAC datapath (this is the basis-conversion/external-product unit HEAP
//! shares between CKKS `KeySwitch` and TFHE `BlindRotate`, §IV-A/§IV-E),
//! and the special prime is divided away at the end (the `ModDown`).

use heap_math::{poly, ChainEnd, Domain, MacAcc, RnsPoly};

use crate::context::CkksContext;
use crate::key::KeySwitchKey;

/// Switches `d·w` into a pair decryptable under `s`.
///
/// `d` may be in either domain; the result is in evaluation domain with the
/// same limb count.
///
/// Returns `(a, b)` with `b + a·s ≈ d·w`.
///
/// # Panics
///
/// Panics if `d` has more limbs than the key has components.
pub fn key_switch(ctx: &CkksContext, d: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
    let mut d_coeff = d.clone();
    d_coeff.to_coeff(ctx.rns());
    digit_mac(ctx, d_coeff.limbs(), key)
}

/// The key-switch inner product: MACs the `l` coefficient-domain digit
/// polynomials (`digits[i]` holds residues `< q_i`) against the key over
/// the extended basis, then divides the special prime away.
///
/// Accumulators live over the extended basis: positions `0..l` are
/// q-limbs, position `l` the special-prime limb, evaluation domain. The
/// `l` digit MACs per position accumulate *unreduced* (lazy-reduction MAC
/// datapath, HEAP §IV-A) and are reduced once per coefficient before
/// `ModDown`. The `ModUp` costs nothing: a residue below `q_i` is already a
/// legal lazy input under `q_j`, so each digit goes into
/// [`MacAcc::mac_tile`] as it is, the tile of one. Each position is one
/// chain of `l` terms on digits below the largest digit modulus;
/// [`MacAcc::reset`] picks its datapath under that position's modulus, and
/// both datapaths reduce to the same canonical residues.
///
/// # Panics
///
/// Panics if there are more digits than the key has components.
fn digit_mac(ctx: &CkksContext, digits: &[Vec<u64>], key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
    let l = digits.len();
    assert!(
        l <= key.component_count(),
        "key has {} components, need {l}",
        key.component_count()
    );
    let n = ctx.n();
    let rns = ctx.rns();
    let chain_idx = |pos: usize| if pos == l { ctx.special_idx() } else { pos };
    let digit_bound = (0..l).map(|i| rns.modulus(i).value()).max().unwrap_or(0);

    let mut acc_a = vec![vec![0u64; n]; l + 1];
    let mut acc_b = vec![vec![0u64; n]; l + 1];
    let mut acc = MacAcc::default();
    for (pos, (out_a, out_b)) in acc_a.iter_mut().zip(&mut acc_b).enumerate() {
        let j = chain_idx(pos);
        let ntt = rns.ntt(j);
        acc.reset(ntt, 2, l, digit_bound, ChainEnd::Reduce);
        for (digit, comp) in digits.iter().zip(&key.comps) {
            acc.mac_tile(ntt, [(0, &digit[..])], [[&comp.a[j][..], &comp.b[j][..]]]);
        }
        acc.reduce_into(0, ntt, out_a);
        acc.reduce_into(1, ntt, out_b);
    }
    (mod_down(ctx, acc_a, l), mod_down(ctx, acc_b, l))
}

/// Divides the special prime out of an extended-basis accumulator (last
/// entry is the `P` limb), returning an `l`-limb evaluation-domain
/// polynomial.
pub(crate) fn mod_down(ctx: &CkksContext, mut acc: Vec<Vec<u64>>, l: usize) -> RnsPoly {
    let rns = ctx.rns();
    let sp = ctx.special_idx();
    let p = rns.modulus(sp);
    let mut p_limb = acc.pop().expect("special limb present");
    rns.ntt(sp).inverse(&mut p_limb);
    let centered: Vec<i64> = p_limb.iter().map(|&c| p.to_signed(c)).collect();
    for (j, limb) in acc.iter_mut().enumerate() {
        let m = rns.modulus(j);
        let ntt = rns.ntt(j);
        let p_inv = m.inv(m.reduce_u64(p.value())).expect("distinct primes");
        let mut corr = poly::from_signed(&centered, m);
        ntt.forward(&mut corr);
        for (x, c) in limb.iter_mut().zip(&corr) {
            *x = m.mul(m.sub(*x, *c), p_inv);
        }
    }
    debug_assert_eq!(acc.len(), l);
    RnsPoly::from_limbs(acc, Domain::Eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{KeySwitchKey, SecretKey};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Helper: phase(b + a*s) as centered coefficients.
    fn phase(ctx: &CkksContext, a: &RnsPoly, b: &RnsPoly, sk: &SecretKey) -> Vec<f64> {
        let rns = ctx.rns();
        let l = a.limb_count();
        let mut acc = b.clone();
        for j in 0..l {
            let mut prod = vec![0u64; ctx.n()];
            rns.ntt(j).pointwise(a.limb(j), sk.eval_limb(j), &mut prod);
            poly::add_assign(acc.limb_mut(j), &prod, rns.modulus(j));
        }
        acc.to_coeff(rns);
        acc.to_centered_f64(rns)
    }

    #[test]
    fn key_switch_reproduces_d_times_w() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&ctx, &mut rng);
        // w = a known small polynomial (here: another ternary secret).
        let w_coeffs = heap_math::sample::ternary_secret(&mut rng, ctx.n());
        let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
            .map(|j| {
                let m = ctx.rns().modulus(j);
                let mut l = poly::from_signed(&w_coeffs, m);
                ctx.rns().ntt(j).forward(&mut l);
                l
            })
            .collect();
        let ksk = KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng);

        // d: a small "message-like" polynomial at full level.
        let d_coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| ((i * 37) % 1000) as i64 - 500)
            .collect();
        let mut d = RnsPoly::from_signed(ctx.rns(), &d_coeffs, ctx.max_limbs());
        d.to_eval(ctx.rns());

        let (a, b) = key_switch(&ctx, &d, &ksk);
        let got = phase(&ctx, &a, &b, &sk);

        // Expected: integer negacyclic product d * w.
        let n = ctx.n();
        let mut expect = vec![0f64; n];
        for i in 0..n {
            for j in 0..n {
                let p = (d_coeffs[i] * w_coeffs[j]) as f64;
                if i + j < n {
                    expect[i + j] += p;
                } else {
                    expect[i + j - n] -= p;
                }
            }
        }
        // Key-switch noise should be small relative to coefficients.
        let max_err = got
            .iter()
            .zip(&expect)
            .map(|(g, e)| (g - e).abs())
            .fold(0.0, f64::max);
        let signal = expect.iter().map(|e| e.abs()).fold(0.0, f64::max);
        assert!(
            signal > 5e3,
            "test signal too weak to be meaningful: {signal}"
        );
        assert!(
            max_err < 2e4 && max_err < signal / 5.0,
            "key switch noise too large: {max_err} (signal {signal})"
        );
    }

    #[test]
    fn key_switch_works_below_top_level() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let w_eval: Vec<Vec<u64>> = (0..ctx.boot_limbs())
            .map(|j| sk.eval_limb(j).to_vec())
            .collect();
        let ksk = KeySwitchKey::generate(&ctx, &sk, &w_eval, &mut rng);
        let d_coeffs: Vec<i64> = (0..ctx.n()).map(|i| (i % 17) as i64).collect();
        let mut d = RnsPoly::from_signed(ctx.rns(), &d_coeffs, 2);
        d.to_eval(ctx.rns());
        let (a, b) = key_switch(&ctx, &d, &ksk);
        assert_eq!(a.limb_count(), 2);
        assert_eq!(b.limb_count(), 2);
    }
}
