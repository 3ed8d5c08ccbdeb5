//! RGSW ciphertexts and the external product.
//!
//! RGSW is the workhorse of blind rotation: an RGSW encryption of a small
//! `m` can be multiplied into any RLWE ciphertext (the **ExternalProduct**),
//! scaling the RLWE phase by `m` while adding only gadget-bounded noise.
//! HEAP executes these products on dedicated MAC units with dual-port BRAM
//! accumulation and lazy reduction (paper §IV-A/§IV-E); here they are NTT
//! pointwise multiply-accumulates over the RNS basis, accumulated
//! unreduced in `u128` with one deferred Barrett reduction per output
//! coefficient (see [`external_product_into`]).
//!
//! The gadget is the RNS-hybrid one: rows are indexed by `(limb i, digit
//! k)` with gadget constants `g_{i,k} ≡ δ_{ij}·B^k (mod q_j)` — the digit
//! count per limb is the paper's `d = 2`.

use rand::Rng;

use heap_math::{poly, Domain, Gadget, RnsContext, RnsPoly, ShoupPoly};

use crate::rlwe::{RingSecretKey, RlweCiphertext};

/// Gadget configuration for RGSW/external products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RgswParams {
    /// Bits per digit (`B = 2^base_bits`).
    pub base_bits: u32,
    /// Digits per RNS limb (the paper's `d`, set to 2 in §III-C).
    pub digits: usize,
}

impl RgswParams {
    /// The paper's configuration: `d = 2` digits covering a 36-bit limb.
    pub fn paper() -> Self {
        Self {
            base_bits: 18,
            digits: 2,
        }
    }

    /// Rows per RGSW component (`limbs · digits`).
    pub fn rows(&self, limbs: usize) -> usize {
        limbs * self.digits
    }

    /// Builds the per-limb gadgets for the first `limbs` moduli of `ctx`.
    pub fn gadgets(&self, ctx: &RnsContext, limbs: usize) -> Vec<Gadget> {
        (0..limbs)
            .map(|i| Gadget::new(self.base_bits, self.digits, *ctx.modulus(i)))
            .collect()
    }
}

/// An RGSW ciphertext: two ladders of RLWE rows, one with message `m·g_r·s`
/// (consumed by the mask digits) and one with `m·g_r` (consumed by the body
/// digits).
#[derive(Debug, Clone)]
pub struct RgswCiphertext {
    /// Rows with phase `m · g_r · s` (indexed `r = limb·digits + k`).
    pub(crate) rows_s: Vec<RlweCiphertext>,
    /// Rows with phase `m · g_r`.
    pub(crate) rows_1: Vec<RlweCiphertext>,
}

impl RgswCiphertext {
    /// Encrypts a small scalar `m` (typically a secret-key bit) under `sk`
    /// over the first `limbs` moduli.
    pub fn encrypt_scalar<R: Rng + ?Sized>(
        ctx: &RnsContext,
        sk: &RingSecretKey,
        m: i64,
        limbs: usize,
        params: &RgswParams,
        rng: &mut R,
    ) -> Self {
        let zero = RnsPoly::zero(ctx, limbs, heap_math::Domain::Coeff);
        let mut rows_s = Vec::with_capacity(params.rows(limbs));
        let mut rows_1 = Vec::with_capacity(params.rows(limbs));
        for i in 0..limbs {
            let base = 1u64 << params.base_bits;
            let mut bk = 1u64;
            for _ in 0..params.digits {
                // Encryption of zero, then shift the gadget constant into
                // the appropriate component: adding `c` to the mask
                // contributes `c·s` to the phase; adding to the body
                // contributes `c`.
                let mut row_s = RlweCiphertext::encrypt(ctx, sk, &zero, rng);
                let mut row_1 = RlweCiphertext::encrypt(ctx, sk, &zero, rng);
                let mi = ctx.modulus(i);
                let c = mi.mul(mi.reduce_u64(bk), mi.from_i64(m));
                add_constant(row_s.a.limb_mut(i), c, mi.value());
                add_constant(row_1.b.limb_mut(i), c, mi.value());
                rows_s.push(row_s);
                rows_1.push(row_1);
                bk = mi.mul(mi.reduce_u64(bk), mi.reduce_u64(base));
            }
        }
        Self { rows_s, rows_1 }
    }

    /// The noiseless RGSW encryption of 1 (gadget constants in the clear).
    ///
    /// Used as the identity term of the paper's Algorithm 1 accumulator
    /// update.
    pub fn trivial_one(ctx: &RnsContext, limbs: usize, params: &RgswParams) -> Self {
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
        Self { rows_s, rows_1 }
    }

    /// Number of gadget rows per ladder.
    pub fn row_count(&self) -> usize {
        self.rows_s.len()
    }

    /// Overwrites `self` with `other`, reusing row allocations when shapes
    /// match (falls back to a clone on shape change).
    pub fn copy_from(&mut self, other: &RgswCiphertext) {
        if self.rows_s.len() != other.rows_s.len() || self.rows_1.len() != other.rows_1.len() {
            *self = other.clone();
            return;
        }
        for (dst, src) in self.rows_s.iter_mut().zip(&other.rows_s) {
            dst.copy_from(src);
        }
        for (dst, src) in self.rows_1.iter_mut().zip(&other.rows_1) {
            dst.copy_from(src);
        }
    }

    /// `self += other` row-wise (message addition).
    pub fn add_assign(&mut self, other: &RgswCiphertext, ctx: &RnsContext) {
        assert_eq!(self.row_count(), other.row_count());
        for (s, o) in self.rows_s.iter_mut().zip(&other.rows_s) {
            s.add_assign(o, ctx);
        }
        for (s, o) in self.rows_1.iter_mut().zip(&other.rows_1) {
            s.add_assign(o, ctx);
        }
    }

    /// Multiplies every row by an evaluation-domain polynomial factor
    /// (flat layout: limb `j` at `factor[j*n..(j+1)*n]`). Used by the
    /// *reference* CMux to scale whole RGSW matrices — the restructured
    /// hot path scales RLWE outputs instead
    /// ([`crate::rlwe::RlweCiphertext::mul_eval_factor_assign`]).
    pub fn mul_eval_factor_assign(&mut self, factor: &[u64], ctx: &RnsContext) {
        let n = ctx.n();
        for rows in [&mut self.rows_s, &mut self.rows_1] {
            for row in rows.iter_mut() {
                for part in [&mut row.a, &mut row.b] {
                    let limbs = part.limb_count();
                    assert!(factor.len() >= limbs * n, "factor too short");
                    for j in 0..limbs {
                        let m = ctx.modulus(j);
                        let f = &factor[j * n..(j + 1) * n];
                        for (x, &fx) in part.limb_mut(j).iter_mut().zip(f) {
                            *x = m.mul(*x, fx);
                        }
                    }
                }
            }
        }
    }
}

/// Precomputed Shoup quotients for every limb of every row of an RGSW
/// ciphertext — the `ShoupMatrixFMA` idiom: key material is converted once
/// at key load (or reseed) so the external-product MAC inner loop is a pure
/// multiply-high/subtract into `u64` accumulators, with no per-term Barrett
/// state and no `u128` arithmetic.
///
/// Only quotients are stored ([`ShoupPoly`]); the MAC reads operands from
/// the original key rows. Each ladder's quotients are indexed
/// `[row * limbs + limb]`, mirroring the row layout of [`RgswCiphertext`].
#[derive(Debug, Clone)]
pub struct PreparedRgsw {
    /// Quotients for `rows_s[r].a` / `rows_s[r].b`.
    s_a: Vec<ShoupPoly>,
    s_b: Vec<ShoupPoly>,
    /// Quotients for `rows_1[r].a` / `rows_1[r].b`.
    o_a: Vec<ShoupPoly>,
    o_b: Vec<ShoupPoly>,
    limbs: usize,
}

impl PreparedRgsw {
    /// Precomputes quotients for every row limb of `rgsw`.
    ///
    /// Must be rebuilt whenever the underlying rows change (e.g. after a
    /// wire-format reseed) — the quotients are only valid for the exact
    /// operand values they were derived from.
    pub fn new(rgsw: &RgswCiphertext, ctx: &RnsContext) -> Self {
        let limbs = rgsw.rows_s.first().map_or(0, |r| r.a.limb_count());
        let prep_ladder = |rows: &[RlweCiphertext]| {
            let mut qa = Vec::with_capacity(rows.len() * limbs);
            let mut qb = Vec::with_capacity(rows.len() * limbs);
            for row in rows {
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    qa.push(ShoupPoly::new(row.a.limb(j), m));
                    qb.push(ShoupPoly::new(row.b.limb(j), m));
                }
            }
            (qa, qb)
        };
        let (s_a, s_b) = prep_ladder(&rgsw.rows_s);
        let (o_a, o_b) = prep_ladder(&rgsw.rows_1);
        Self {
            s_a,
            s_b,
            o_a,
            o_b,
            limbs,
        }
    }
}

/// Whether the Shoup `u64`-accumulator datapath applies: a vector backend
/// must be active (the scalar Shoup product costs three multiplies versus
/// the `u128` path's one, so it only wins vectorized), and the
/// `2·limbs·digits` accumulated terms — each `< 2q` — must fit a `u64`
/// accumulator under every limb modulus. 60-bit limbs exceed the bound at 8
/// terms and fall back to the `u128` path by design.
fn shoup_path_ok(ctx: &RnsContext, params: &RgswParams, limbs: usize) -> bool {
    if heap_math::simd::active() == heap_math::simd::Backend::Scalar {
        return false;
    }
    let terms = (2 * limbs * params.digits) as u64;
    (0..limbs).all(|j| terms <= ctx.ntt(j).shoup_mac_term_limit())
}

fn add_constant(limb: &mut [u64], c: u64, q: u64) {
    // In evaluation domain the constant polynomial is the constant vector.
    for x in limb.iter_mut() {
        let s = *x + c;
        *x = if s >= q { s - q } else { s };
    }
}

/// Scratch buffers reused across external products (blind rotation performs
/// `n_t` of them back to back; HEAP likewise keeps the decomposition in
/// on-chip BRAM between steps).
///
/// Once warmed up for a `(params, limbs)` shape, every buffer — the signed
/// digit polynomials, the per-limb spread, the `u128` lazy MAC
/// accumulators, the coefficient-domain operand copies, and the gadget
/// tables — is reused, so [`external_product_into`] and
/// [`external_product_pair_into`] perform **zero heap allocations** per
/// call (asserted by `tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct ExternalProductScratch {
    digit_signed: Vec<Vec<i64>>,
    spread: Vec<u64>,
    /// Lazy accumulators for the primary output: `[a limbs | b limbs]`,
    /// each limb a `n`-long window.
    acc_main: Vec<u128>,
    /// Second accumulator set for [`external_product_pair_into`].
    acc_alt: Vec<u128>,
    /// `u64` accumulators for the Shoup datapath
    /// ([`external_product_prepared_into`]), same layout as `acc_main`.
    acc_u64_main: Vec<u64>,
    /// Second `u64` accumulator set for the pair variant.
    acc_u64_alt: Vec<u64>,
    a_coeff: Option<RnsPoly>,
    b_coeff: Option<RnsPoly>,
    gadgets: Vec<Gadget>,
    gadget_key: Option<(u32, usize, usize)>,
}

impl ExternalProductScratch {
    fn prepare(&mut self, ctx: &RnsContext, params: &RgswParams, limbs: usize, pair: bool) {
        let n = ctx.n();
        self.digit_signed.resize_with(params.digits, Vec::new);
        for d in &mut self.digit_signed {
            d.resize(n, 0);
        }
        self.spread.resize(n, 0);
        self.acc_main.resize(2 * limbs * n, 0);
        self.acc_main.fill(0);
        if pair {
            self.acc_alt.resize(2 * limbs * n, 0);
            self.acc_alt.fill(0);
        }
        let key = (params.base_bits, params.digits, limbs);
        if self.gadget_key != Some(key) {
            self.gadgets = params.gadgets(ctx, limbs);
            self.gadget_key = Some(key);
        }
    }

    /// [`Self::prepare`] for the Shoup datapath: `u64` accumulators instead
    /// of `u128`.
    fn prepare_shoup(&mut self, ctx: &RnsContext, params: &RgswParams, limbs: usize, pair: bool) {
        let n = ctx.n();
        self.digit_signed.resize_with(params.digits, Vec::new);
        for d in &mut self.digit_signed {
            d.resize(n, 0);
        }
        self.spread.resize(n, 0);
        self.acc_u64_main.resize(2 * limbs * n, 0);
        self.acc_u64_main.fill(0);
        if pair {
            self.acc_u64_alt.resize(2 * limbs * n, 0);
            self.acc_u64_alt.fill(0);
        }
        let key = (params.base_bits, params.digits, limbs);
        if self.gadget_key != Some(key) {
            self.gadgets = params.gadgets(ctx, limbs);
            self.gadget_key = Some(key);
        }
    }
}

/// Copies `src` into the slot, reusing the existing allocation if any.
fn copy_into_slot(slot: &mut Option<RnsPoly>, src: &RnsPoly) {
    match slot {
        Some(p) => p.copy_from(src),
        None => *slot = Some(src.clone()),
    }
}

/// Computes the external product `ct ⊡ rgsw`, returning an RLWE ciphertext
/// whose phase is `m · phase(ct)` plus gadget noise.
///
/// # Panics
///
/// Panics if the RGSW row count does not match `limbs · digits` for the
/// ciphertext's limb count.
pub fn external_product(
    ct: &RlweCiphertext,
    rgsw: &RgswCiphertext,
    ctx: &RnsContext,
    params: &RgswParams,
) -> RlweCiphertext {
    let mut scratch = ExternalProductScratch::default();
    external_product_with(ct, rgsw, ctx, params, &mut scratch)
}

/// [`external_product`] with caller-provided scratch space.
pub fn external_product_with(
    ct: &RlweCiphertext,
    rgsw: &RgswCiphertext,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
) -> RlweCiphertext {
    let mut out = RlweCiphertext::zero(ctx, ct.limbs());
    external_product_into(ct, rgsw, ctx, params, scratch, &mut out);
    out
}

/// [`external_product`] into a caller-provided output ciphertext.
///
/// With a warmed-up `scratch` and a matching-shape `out` this performs no
/// heap allocation at all — the accumulator loop of blind rotation runs
/// entirely in preallocated buffers.
///
/// The MAC datapath is *lazy* (HEAP §IV-A): every pointwise product of a
/// spread-digit NTT with a key row is accumulated **unreduced** in `u128`
/// ([`heap_math::NttTable::pointwise_mac_lazy`], which documents the
/// overflow bound), and each output coefficient is Barrett-reduced exactly
/// once at the end ([`heap_math::NttTable::reduce_acc_into`]) instead of
/// once per digit row. `2·limbs·digits` terms of `< 2^124` each sit far
/// below the `2^127` fold threshold, so the deferred reduction is exact
/// and the canonical output is bit-identical to
/// [`external_product_reference`].
///
/// # Panics
///
/// Panics on RGSW row count mismatch or if `out` has a different limb
/// count than `ct` (`out` contents are overwritten, not read).
pub fn external_product_into(
    ct: &RlweCiphertext,
    rgsw: &RgswCiphertext,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    out: &mut RlweCiphertext,
) {
    let limbs = ct.limbs();
    assert_eq!(
        rgsw.row_count(),
        params.rows(limbs),
        "RGSW row count mismatch"
    );
    assert_eq!(out.limbs(), limbs, "output limb count mismatch");
    scratch.prepare(ctx, params, limbs, false);
    copy_into_slot(&mut scratch.a_coeff, &ct.a);
    copy_into_slot(&mut scratch.b_coeff, &ct.b);
    let n = ctx.n();
    let ExternalProductScratch {
        digit_signed,
        spread,
        acc_main,
        a_coeff,
        b_coeff,
        gadgets,
        ..
    } = scratch;
    let a_coeff = a_coeff.as_mut().expect("slot filled above");
    let b_coeff = b_coeff.as_mut().expect("slot filled above");
    a_coeff.to_coeff(ctx);
    b_coeff.to_coeff(ctx);
    let (acc_a, acc_b) = acc_main.split_at_mut(limbs * n);

    for (part_coeff, rows) in [(&*a_coeff, &rgsw.rows_s), (&*b_coeff, &rgsw.rows_1)] {
        for i in 0..limbs {
            // Decompose limb i into signed digit polynomials (digit-major,
            // no per-coefficient temporary).
            gadgets[i].decompose_slice_signed_into(part_coeff.limb(i), digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let row = &rows[i * params.digits + k];
                // Spread the signed digit under every limb, NTT, lazy MAC.
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, spread);
                    ntt.forward(spread);
                    ntt.pointwise_mac_lazy(spread, row.a.limb(j), &mut acc_a[j * n..(j + 1) * n]);
                    ntt.pointwise_mac_lazy(spread, row.b.limb(j), &mut acc_b[j * n..(j + 1) * n]);
                }
            }
        }
    }
    // Single deferred reduction per coefficient; the writes cover every
    // limb wholesale, so re-tagging the domain suffices (no zero-fill).
    for j in 0..limbs {
        let ntt = ctx.ntt(j);
        ntt.reduce_acc_into(&acc_a[j * n..(j + 1) * n], out.a.limb_mut(j));
        ntt.reduce_acc_into(&acc_b[j * n..(j + 1) * n], out.b.limb_mut(j));
    }
    out.a.set_domain(Domain::Eval);
    out.b.set_domain(Domain::Eval);
}

/// [`external_product_into`] over a precomputed key ([`PreparedRgsw`]):
/// when a SIMD backend is active and the `2·limbs·digits` terms fit a
/// `u64` accumulator, the MAC inner loop runs the Shoup datapath
/// ([`heap_math::NttTable::pointwise_mac_shoup`]) — each term is a lazy
/// Shoup product in `[0, 2q)` from the precomputed quotients, accumulated
/// unreduced in `u64` and canonically reduced once per coefficient
/// ([`heap_math::NttTable::reduce_shoup_acc_into`]). Otherwise it delegates
/// to the `u128` path unchanged. Both paths produce canonical residues of
/// the same congruence class, so outputs are bit-identical.
///
/// # Panics
///
/// Panics on RGSW row count mismatch, on a `prep` built for a different
/// limb count, or if `out` has a different limb count than `ct`.
pub fn external_product_prepared_into(
    ct: &RlweCiphertext,
    rgsw: &RgswCiphertext,
    prep: &PreparedRgsw,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    out: &mut RlweCiphertext,
) {
    let limbs = ct.limbs();
    if !shoup_path_ok(ctx, params, limbs) {
        external_product_into(ct, rgsw, ctx, params, scratch, out);
        return;
    }
    assert_eq!(
        rgsw.row_count(),
        params.rows(limbs),
        "RGSW row count mismatch"
    );
    assert_eq!(prep.limbs, limbs, "prepared key limb count mismatch");
    assert_eq!(out.limbs(), limbs, "output limb count mismatch");
    scratch.prepare_shoup(ctx, params, limbs, false);
    copy_into_slot(&mut scratch.a_coeff, &ct.a);
    copy_into_slot(&mut scratch.b_coeff, &ct.b);
    let n = ctx.n();
    let ExternalProductScratch {
        digit_signed,
        spread,
        acc_u64_main,
        a_coeff,
        b_coeff,
        gadgets,
        ..
    } = scratch;
    let a_coeff = a_coeff.as_mut().expect("slot filled above");
    let b_coeff = b_coeff.as_mut().expect("slot filled above");
    a_coeff.to_coeff(ctx);
    b_coeff.to_coeff(ctx);
    let (acc_a, acc_b) = acc_u64_main.split_at_mut(limbs * n);

    for (part_coeff, rows, quots_a, quots_b) in [
        (&*a_coeff, &rgsw.rows_s, &prep.s_a, &prep.s_b),
        (&*b_coeff, &rgsw.rows_1, &prep.o_a, &prep.o_b),
    ] {
        for (i, gadget) in gadgets.iter().enumerate().take(limbs) {
            gadget.decompose_slice_signed_into(part_coeff.limb(i), digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let r = i * params.digits + k;
                let row = &rows[r];
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, spread);
                    ntt.forward(spread);
                    let w = j * n..(j + 1) * n;
                    ntt.pointwise_mac_shoup(
                        spread,
                        row.a.limb(j),
                        &quots_a[r * limbs + j],
                        &mut acc_a[w.clone()],
                    );
                    ntt.pointwise_mac_shoup(
                        spread,
                        row.b.limb(j),
                        &quots_b[r * limbs + j],
                        &mut acc_b[w],
                    );
                }
            }
        }
    }
    for j in 0..limbs {
        let ntt = ctx.ntt(j);
        let w = j * n..(j + 1) * n;
        ntt.reduce_shoup_acc_into(&acc_a[w.clone()], out.a.limb_mut(j));
        ntt.reduce_shoup_acc_into(&acc_b[w], out.b.limb_mut(j));
    }
    out.a.set_domain(Domain::Eval);
    out.b.set_domain(Domain::Eval);
}

/// Two external products of the *same* RLWE ciphertext against two RGSW
/// operands, sharing one gadget decomposition and one spread-NTT per
/// `(part, limb, digit, target-limb)` — each forward NTT feeds **four**
/// lazy MACs (`pos.a`, `pos.b`, `neg.a`, `neg.b`) instead of two.
///
/// This is the shape the restructured CMux needs: Algorithm 1 multiplies
/// the accumulator by both `RGSW(s_i^+)` and `RGSW(s_i^-)` per mask
/// element, and the decomposition/NTT work depends only on the
/// accumulator, so doing the products separately would double it.
///
/// Same laziness/exactness argument as [`external_product_into`];
/// allocation-free with a warm `scratch`.
///
/// # Panics
///
/// Panics on RGSW row count mismatch or if either output has a different
/// limb count than `ct` (output contents are overwritten, not read).
#[allow(clippy::too_many_arguments)] // kernel entry point: two keys, two outputs, shared scratch
pub fn external_product_pair_into(
    ct: &RlweCiphertext,
    rgsw_pos: &RgswCiphertext,
    rgsw_neg: &RgswCiphertext,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    out_pos: &mut RlweCiphertext,
    out_neg: &mut RlweCiphertext,
) {
    let limbs = ct.limbs();
    for rgsw in [rgsw_pos, rgsw_neg] {
        assert_eq!(
            rgsw.row_count(),
            params.rows(limbs),
            "RGSW row count mismatch"
        );
    }
    assert_eq!(out_pos.limbs(), limbs, "output limb count mismatch");
    assert_eq!(out_neg.limbs(), limbs, "output limb count mismatch");
    scratch.prepare(ctx, params, limbs, true);
    copy_into_slot(&mut scratch.a_coeff, &ct.a);
    copy_into_slot(&mut scratch.b_coeff, &ct.b);
    let n = ctx.n();
    let ExternalProductScratch {
        digit_signed,
        spread,
        acc_main,
        acc_alt,
        a_coeff,
        b_coeff,
        gadgets,
        ..
    } = scratch;
    let a_coeff = a_coeff.as_mut().expect("slot filled above");
    let b_coeff = b_coeff.as_mut().expect("slot filled above");
    a_coeff.to_coeff(ctx);
    b_coeff.to_coeff(ctx);
    let (pos_a, pos_b) = acc_main.split_at_mut(limbs * n);
    let (neg_a, neg_b) = acc_alt.split_at_mut(limbs * n);

    for (part_coeff, rows_pos, rows_neg) in [
        (&*a_coeff, &rgsw_pos.rows_s, &rgsw_neg.rows_s),
        (&*b_coeff, &rgsw_pos.rows_1, &rgsw_neg.rows_1),
    ] {
        for (i, gadget) in gadgets.iter().enumerate().take(limbs) {
            gadget.decompose_slice_signed_into(part_coeff.limb(i), digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let row_p = &rows_pos[i * params.digits + k];
                let row_n = &rows_neg[i * params.digits + k];
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, spread);
                    ntt.forward(spread);
                    let w = j * n..(j + 1) * n;
                    ntt.pointwise_mac_lazy(spread, row_p.a.limb(j), &mut pos_a[w.clone()]);
                    ntt.pointwise_mac_lazy(spread, row_p.b.limb(j), &mut pos_b[w.clone()]);
                    ntt.pointwise_mac_lazy(spread, row_n.a.limb(j), &mut neg_a[w.clone()]);
                    ntt.pointwise_mac_lazy(spread, row_n.b.limb(j), &mut neg_b[w]);
                }
            }
        }
    }
    for j in 0..limbs {
        let ntt = ctx.ntt(j);
        let w = j * n..(j + 1) * n;
        ntt.reduce_acc_into(&pos_a[w.clone()], out_pos.a.limb_mut(j));
        ntt.reduce_acc_into(&pos_b[w.clone()], out_pos.b.limb_mut(j));
        ntt.reduce_acc_into(&neg_a[w.clone()], out_neg.a.limb_mut(j));
        ntt.reduce_acc_into(&neg_b[w], out_neg.b.limb_mut(j));
    }
    out_pos.a.set_domain(Domain::Eval);
    out_pos.b.set_domain(Domain::Eval);
    out_neg.a.set_domain(Domain::Eval);
    out_neg.b.set_domain(Domain::Eval);
}

/// [`external_product_pair_into`] over precomputed keys — the CMux hot
/// path. Runs the Shoup `u64`-accumulator datapath when it applies (see
/// [`external_product_prepared_into`] for the gate and the bit-identity
/// argument), sharing one decomposition and one spread-NTT across **four**
/// Shoup MACs; delegates to the `u128` pair variant otherwise.
///
/// # Panics
///
/// Panics on RGSW row count mismatch, prepared-key limb mismatch, or
/// output limb mismatch.
#[allow(clippy::too_many_arguments)] // kernel entry point: two keys + their precomputes, two outputs
pub fn external_product_pair_prepared_into(
    ct: &RlweCiphertext,
    rgsw_pos: &RgswCiphertext,
    rgsw_neg: &RgswCiphertext,
    prep_pos: &PreparedRgsw,
    prep_neg: &PreparedRgsw,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    out_pos: &mut RlweCiphertext,
    out_neg: &mut RlweCiphertext,
) {
    let limbs = ct.limbs();
    if !shoup_path_ok(ctx, params, limbs) {
        external_product_pair_into(
            ct, rgsw_pos, rgsw_neg, ctx, params, scratch, out_pos, out_neg,
        );
        return;
    }
    for rgsw in [rgsw_pos, rgsw_neg] {
        assert_eq!(
            rgsw.row_count(),
            params.rows(limbs),
            "RGSW row count mismatch"
        );
    }
    for prep in [prep_pos, prep_neg] {
        assert_eq!(prep.limbs, limbs, "prepared key limb count mismatch");
    }
    assert_eq!(out_pos.limbs(), limbs, "output limb count mismatch");
    assert_eq!(out_neg.limbs(), limbs, "output limb count mismatch");
    scratch.prepare_shoup(ctx, params, limbs, true);
    copy_into_slot(&mut scratch.a_coeff, &ct.a);
    copy_into_slot(&mut scratch.b_coeff, &ct.b);
    let n = ctx.n();
    let ExternalProductScratch {
        digit_signed,
        spread,
        acc_u64_main,
        acc_u64_alt,
        a_coeff,
        b_coeff,
        gadgets,
        ..
    } = scratch;
    let a_coeff = a_coeff.as_mut().expect("slot filled above");
    let b_coeff = b_coeff.as_mut().expect("slot filled above");
    a_coeff.to_coeff(ctx);
    b_coeff.to_coeff(ctx);
    let (pos_a, pos_b) = acc_u64_main.split_at_mut(limbs * n);
    let (neg_a, neg_b) = acc_u64_alt.split_at_mut(limbs * n);

    for (part_coeff, rows_pos, rows_neg, qp, qn) in [
        (
            &*a_coeff,
            &rgsw_pos.rows_s,
            &rgsw_neg.rows_s,
            (&prep_pos.s_a, &prep_pos.s_b),
            (&prep_neg.s_a, &prep_neg.s_b),
        ),
        (
            &*b_coeff,
            &rgsw_pos.rows_1,
            &rgsw_neg.rows_1,
            (&prep_pos.o_a, &prep_pos.o_b),
            (&prep_neg.o_a, &prep_neg.o_b),
        ),
    ] {
        for (i, gadget) in gadgets.iter().enumerate().take(limbs) {
            gadget.decompose_slice_signed_into(part_coeff.limb(i), digit_signed);
            for (k, digits) in digit_signed.iter().enumerate() {
                let r = i * params.digits + k;
                let row_p = &rows_pos[r];
                let row_n = &rows_neg[r];
                for j in 0..limbs {
                    let m = ctx.modulus(j);
                    let ntt = ctx.ntt(j);
                    poly::from_signed_into(digits, m, spread);
                    ntt.forward(spread);
                    let w = j * n..(j + 1) * n;
                    let rj = r * limbs + j;
                    ntt.pointwise_mac_shoup(
                        spread,
                        row_p.a.limb(j),
                        &qp.0[rj],
                        &mut pos_a[w.clone()],
                    );
                    ntt.pointwise_mac_shoup(
                        spread,
                        row_p.b.limb(j),
                        &qp.1[rj],
                        &mut pos_b[w.clone()],
                    );
                    ntt.pointwise_mac_shoup(
                        spread,
                        row_n.a.limb(j),
                        &qn.0[rj],
                        &mut neg_a[w.clone()],
                    );
                    ntt.pointwise_mac_shoup(spread, row_n.b.limb(j), &qn.1[rj], &mut neg_b[w]);
                }
            }
        }
    }
    for j in 0..limbs {
        let ntt = ctx.ntt(j);
        let w = j * n..(j + 1) * n;
        ntt.reduce_shoup_acc_into(&pos_a[w.clone()], out_pos.a.limb_mut(j));
        ntt.reduce_shoup_acc_into(&pos_b[w.clone()], out_pos.b.limb_mut(j));
        ntt.reduce_shoup_acc_into(&neg_a[w.clone()], out_neg.a.limb_mut(j));
        ntt.reduce_shoup_acc_into(&neg_b[w], out_neg.b.limb_mut(j));
    }
    out_pos.a.set_domain(Domain::Eval);
    out_pos.b.set_domain(Domain::Eval);
    out_neg.a.set_domain(Domain::Eval);
    out_neg.b.set_domain(Domain::Eval);
}

/// Strict-datapath external product: eager per-digit Barrett MACs
/// ([`heap_math::NttTable::pointwise_acc`]) over the strict reference NTT
/// kernels, allocating its buffers per call.
///
/// This is the *oracle* the lazy [`external_product_into`] is proven
/// bit-identical against (`tests/kernel_parity.rs`) and the baseline the
/// `kernel_sweep` bench measures speedups over. Not used on any
/// production path.
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
                ctx.ntt(j).inverse_reference(part.limb_mut(j));
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
                    ntt.forward_reference(&mut spread);
                    ntt.pointwise_acc(&spread, row.a.limb(j), out.a.limb_mut(j));
                    ntt.pointwise_acc(&spread, row.b.limb(j), out.b.limb_mut(j));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::prime::ntt_primes;
    use heap_math::RnsPoly;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(128, &ntt_primes(128, 30, 2))
    }

    fn params() -> RgswParams {
        RgswParams {
            base_bits: 15,
            digits: 2,
        }
    }

    fn phase_err(got: &[f64], want: &[f64]) -> f64 {
        got.iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn external_product_by_one_preserves_phase() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let p = params();
        let msg: Vec<i64> = (0..128).map(|i| (i as i64 - 64) * 100_000).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        let one = RgswCiphertext::encrypt_scalar(&c, &sk, 1, 2, &p, &mut rng);
        let out = external_product(&ct, &one, &c, &p);
        let got = out.phase(&c, &sk).to_centered_f64(&c);
        let want: Vec<f64> = msg.iter().map(|&x| x as f64).collect();
        let err = phase_err(&got, &want);
        assert!(err < 1e7, "noise {err} too large");
    }

    #[test]
    fn external_product_by_zero_kills_phase() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let p = params();
        let msg: Vec<i64> = (0..128).map(|i| (i as i64) * 1_000_000).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        let zero = RgswCiphertext::encrypt_scalar(&c, &sk, 0, 2, &p, &mut rng);
        let out = external_product(&ct, &zero, &c, &p);
        let got = out.phase(&c, &sk).to_centered_f64(&c);
        let err = got.iter().map(|g| g.abs()).fold(0.0, f64::max);
        assert!(err < 1e7, "zero product leaked {err}");
    }

    #[test]
    fn trivial_one_acts_as_exact_identity() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let p = params();
        let msg: Vec<i64> = (0..128).map(|i| (i as i64 - 64) * 50_000).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        let base_phase = ct.phase(&c, &sk).to_centered_f64(&c);
        let one = RgswCiphertext::trivial_one(&c, 2, &p);
        let out = external_product(&ct, &one, &c, &p);
        let got = out.phase(&c, &sk).to_centered_f64(&c);
        // Only decomposition rounding, no encryption noise.
        let err = phase_err(&got, &base_phase);
        assert!(err < 2.0, "trivial identity err {err}");
    }

    #[test]
    fn external_product_by_minus_one_negates() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = RingSecretKey::generate(&c, 2, &mut rng);
        let p = params();
        let msg: Vec<i64> = (0..128).map(|i| (i as i64) * 300_000).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, 2), &mut rng);
        let neg = RgswCiphertext::encrypt_scalar(&c, &sk, -1, 2, &p, &mut rng);
        let out = external_product(&ct, &neg, &c, &p);
        let got = out.phase(&c, &sk).to_centered_f64(&c);
        let want: Vec<f64> = msg.iter().map(|&x| -x as f64).collect();
        assert!(phase_err(&got, &want) < 1e7);
    }
}
