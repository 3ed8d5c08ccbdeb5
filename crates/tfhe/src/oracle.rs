//! The strict one-product forms the parity suites pin the hot paths
//! against.
//!
//! No production path calls anything here; the documented surface is the
//! lazy external products and the key-major blind rotation. The module is
//! public (and hidden from the docs) only so the test suites can reach it.

use heap_math::oracle::{forward_reference, inverse_reference};
use heap_math::{poly, Domain, Gadget, Modulus, RnsContext, RnsPoly};

use crate::blind_rotate::{BlindRotateKey, MonomialEvals};
use crate::lwe::{LweCiphertext, LweKeySwitchKey};
use crate::rgsw::{add_constant, RgswCiphertext, RgswParams};
use crate::rlwe::RlweCiphertext;

/// Strict-datapath external product: eager per-digit Barrett MACs
/// ([`heap_math::NttTable::pointwise_acc`]) over the strict NTT loops,
/// allocating its buffers per call — the oracle the lazy
/// [`crate::external_product_into`] is proven bit-identical against.
///
/// # Panics
///
/// Panics on RGSW row count mismatch.
pub fn external_product_reference(
    ct: &RlweCiphertext,
    rgsw: &RgswCiphertext,
    ctx: &RnsContext,
    params: &RgswParams,
) -> RlweCiphertext {
    let limbs = ct.limbs();
    assert_eq!(
        rgsw.row_count(),
        params.rows(limbs),
        "RGSW row count mismatch"
    );
    let gadgets = params.gadgets(ctx, limbs);
    let n = ctx.n();
    let mut a_coeff = ct.a.clone();
    let mut b_coeff = ct.b.clone();
    for part in [&mut a_coeff, &mut b_coeff] {
        if part.domain() == Domain::Eval {
            for j in 0..limbs {
                inverse_reference(ctx.ntt(j), part.limb_mut(j));
            }
            part.set_domain(Domain::Coeff);
        }
    }
    let mut out = RlweCiphertext::zero(ctx, limbs);
    let mut digit_signed = vec![vec![0i64; n]; params.digits];
    let mut spread = vec![0u64; n];

    for (part_coeff, rows) in [(&a_coeff, &rgsw.rows_s), (&b_coeff, &rgsw.rows_1)] {
        for i in 0..limbs {
            gadgets[i].decompose_slice_signed_into(part_coeff.limb(i), &mut digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let row = &rows[i * params.digits + k];
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, &mut spread);
                    forward_reference(ntt, &mut spread);
                    ntt.pointwise_acc(&spread, row.a.limb(j), out.a.limb_mut(j));
                    ntt.pointwise_acc(&spread, row.b.limb(j), out.b.limb_mut(j));
                }
            }
        }
    }
    out
}

/// Strict-datapath blind rotation: Algorithm 1 exactly as first
/// implemented — per step, assemble
/// `RGSW(1) + (X^{-a_i}−1)·RGSW(s_i^+) + (X^{a_i}−1)·RGSW(s_i^-)`
/// (two RGSW copies, two full-RGSW monomial scalings, two RGSW adds)
/// and run **one** external product over the strict kernels. The parity
/// suite asserts [`BlindRotateKey::blind_rotate_batch_with`] is
/// bit-identical to this per member.
pub fn blind_rotate_reference(
    brk: &BlindRotateKey,
    ctx: &RnsContext,
    test_poly: &RnsPoly,
    lwe: &LweCiphertext,
) -> RlweCiphertext {
    let lwes = std::slice::from_ref(lwe);
    let mut acc = brk
        .initial_accumulators(ctx, test_poly, lwes, &mut None)
        .pop()
        .expect("one accumulator per LWE");
    for i in 0..lwe.a.len() {
        cmux_step_reference(brk, ctx, lwe.a[i], i, &mut acc);
    }
    acc
}

/// One Algorithm-1 accumulator update in its original one-product form:
/// `ACC ⊡ (RGSW(1) + (X^{-a_i}−1)·RGSW(s_i^+) + (X^{a_i}−1)·RGSW(s_i^-))`.
fn cmux_step_reference(
    brk: &BlindRotateKey,
    ctx: &RnsContext,
    a_i: u64,
    i: usize,
    acc: &mut RlweCiphertext,
) {
    let two_n = 2 * ctx.n();
    let ai = (a_i % two_n as u64) as usize;
    if ai == 0 {
        return;
    }
    let params = brk.params();
    let mut combined = trivial_one(ctx, brk.limbs(), params);
    for (source, exp) in [(&brk.pos()[i], two_n - ai), (&brk.neg()[i], ai)] {
        let mut term = source.clone();
        let factor = factor(brk.monomials(), exp, ctx);
        for rows in [&mut term.rows_s, &mut term.rows_1] {
            for row in rows.iter_mut() {
                mul_eval_factor_assign(&mut row.a, &factor, ctx);
                mul_eval_factor_assign(&mut row.b, &factor, ctx);
            }
        }
        for (c, t) in combined.rows_s.iter_mut().zip(&term.rows_s) {
            c.add_assign(t, ctx);
        }
        for (c, t) in combined.rows_1.iter_mut().zip(&term.rows_1) {
            c.add_assign(t, ctx);
        }
    }
    *acc = external_product_reference(acc, &combined, ctx, params);
}

/// The noiseless RGSW encryption of 1 (gadget constants in the clear): the
/// identity term of Algorithm 1's accumulator update.
pub fn trivial_one(ctx: &RnsContext, limbs: usize, params: &RgswParams) -> RgswCiphertext {
    let mut rows_s = Vec::with_capacity(params.rows(limbs));
    let mut rows_1 = Vec::with_capacity(params.rows(limbs));
    for i in 0..limbs {
        let base = 1u64 << params.base_bits;
        let mi = ctx.modulus(i);
        let mut bk = 1u64 % mi.value();
        for _ in 0..params.digits {
            let mut row_s = RlweCiphertext::zero(ctx, limbs);
            let mut row_1 = RlweCiphertext::zero(ctx, limbs);
            add_constant(row_s.a.limb_mut(i), bk, mi.value());
            add_constant(row_1.b.limb_mut(i), bk, mi.value());
            rows_s.push(row_s);
            rows_1.push(row_1);
            bk = mi.mul(bk, mi.reduce_u64(base));
        }
    }
    RgswCiphertext { rows_s, rows_1 }
}

/// Evaluation-domain `X^a - 1`, flat across limbs (limb `j` occupies
/// `[j·n, (j+1)·n)`). The hot path fuses this lookup into its accumulator
/// update instead.
pub(crate) fn factor(monomials: &MonomialEvals, a: usize, ctx: &RnsContext) -> Vec<u64> {
    let n = ctx.n();
    let mut out = vec![0; monomials.tables.len() * n];
    for (j, t) in monomials.tables.iter().enumerate() {
        t.monomial_minus_one(a, ctx.modulus(j), &mut out[j * n..(j + 1) * n]);
    }
    out
}

/// Multiplies an evaluation-domain polynomial by a flat factor from
/// [`factor`].
fn mul_eval_factor_assign(part: &mut RnsPoly, factor: &[u64], ctx: &RnsContext) {
    let n = ctx.n();
    assert!(factor.len() >= part.limb_count() * n, "factor too short");
    for j in 0..part.limb_count() {
        let m = ctx.modulus(j);
        let f = &factor[j * n..(j + 1) * n];
        for (x, &fx) in part.limb_mut(j).iter_mut().zip(f) {
            *x = m.mul(*x, fx);
        }
    }
}

/// How many terms [`LweKeySwitchKey::switch`] sums before it folds back
/// to a residue, so a parity suite can tell which shapes fold.
pub fn lwe_key_switch_fold_interval(ksk: &LweKeySwitchKey) -> usize {
    ksk.fold_interval()
}

/// The LWE key switch as first written: every `digit × entry` term reduced
/// on its own (one Barrett product and one modular add per word), the
/// oracle [`LweKeySwitchKey::switch`]'s one reduction per output is pinned
/// against.
///
/// # Panics
///
/// Panics if the ciphertext dimension or modulus disagrees with the key.
pub fn lwe_key_switch_reference(
    ksk: &LweKeySwitchKey,
    ct: &LweCiphertext,
    q: &Modulus,
) -> LweCiphertext {
    assert_eq!(ct.dim(), ksk.source_dim(), "dimension mismatch");
    assert_eq!(ct.modulus, q.value(), "modulus mismatch");
    let n_t = ksk.target_dim();
    let gadget = Gadget::new(ksk.base_bits(), ksk.digits(), *q);
    let rows: Vec<&[u64]> = ksk.rows().collect();
    let mut out_a = vec![0u64; n_t];
    let mut out_b = q.reduce_u64(ct.b);
    let mut digits = vec![0i64; ksk.digits()];
    for (j, &aj) in ct.a.iter().enumerate() {
        gadget.decompose_scalar_signed_into(q.reduce_u64(aj), &mut digits);
        for (k, &d) in digits.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let dk = q.from_i64(d);
            let (ka, kb) = rows[j * ksk.digits() + k].split_at(n_t);
            for (o, &x) in out_a.iter_mut().zip(ka) {
                *o = q.add(*o, q.mul(dk, x));
            }
            out_b = q.add(out_b, q.mul(dk, kb[0]));
        }
    }
    LweCiphertext {
        a: out_a,
        b: out_b,
        modulus: q.value(),
    }
}
