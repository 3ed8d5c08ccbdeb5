//! The per-term form the key-switch parity suite pins the hot path against.
//!
//! No production path calls anything here; the documented surface is
//! [`crate::keyswitch::key_switch`]. The module is public (and hidden from
//! the docs) only so the test suites can reach it.

use heap_math::oracle::{forward_reference, inverse_reference};
use heap_math::{Domain, RnsPoly};

use crate::context::CkksContext;
use crate::key::KeySwitchKey;
use crate::keyswitch::mod_down;

/// Per-term eager key switch: each digit `d_i` reduced under the target
/// limb, transformed by the strict NTT and multiplied in with one Barrett
/// MAC per term ([`heap_math::NttTable::pointwise_acc`]), then the same
/// `ModDown` — the oracle the lazy MAC chain of
/// [`crate::keyswitch::key_switch`] is proven bit-identical against, at
/// whichever SIMD width it runs.
///
/// # Panics
///
/// Panics if `d` has more limbs than the key has components.
pub fn key_switch_reference(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &KeySwitchKey,
) -> (RnsPoly, RnsPoly) {
    let (rns, n, l) = (ctx.rns(), ctx.n(), d.limb_count());
    assert!(l <= key.component_count(), "too few key components");
    let mut digits = d.clone();
    if digits.domain() == Domain::Eval {
        for i in 0..l {
            inverse_reference(rns.ntt(i), digits.limb_mut(i));
        }
    }
    let mut acc_a = vec![vec![0u64; n]; l + 1];
    let mut acc_b = vec![vec![0u64; n]; l + 1];
    let mut spread = vec![0u64; n];
    for (pos, (out_a, out_b)) in acc_a.iter_mut().zip(&mut acc_b).enumerate() {
        let j = if pos == l { ctx.special_idx() } else { pos };
        let (m, ntt) = (rns.modulus(j), rns.ntt(j));
        for (i, comp) in key.comps[..l].iter().enumerate() {
            for (s, &c) in spread.iter_mut().zip(digits.limb(i)) {
                *s = m.reduce_u64(c);
            }
            forward_reference(ntt, &mut spread);
            ntt.pointwise_acc(&spread, &comp.a[j], out_a);
            ntt.pointwise_acc(&spread, &comp.b[j], out_b);
        }
    }
    (mod_down(ctx, acc_a, l), mod_down(ctx, acc_b, l))
}
