//! RGSW ciphertexts and the external product.
//!
//! RGSW is the workhorse of blind rotation: an RGSW encryption of a small
//! `m` can be multiplied into any RLWE ciphertext (the **ExternalProduct**),
//! scaling the RLWE phase by `m` while adding only gadget-bounded noise.
//! HEAP executes these products on dedicated MAC units with dual-port BRAM
//! accumulation and lazy reduction (paper §IV-A/§IV-E); here they are NTT
//! pointwise multiply-accumulates over the RNS basis, accumulated
//! unreduced in a [`MacAcc`] with one deferred reduction per output
//! coefficient. Every public external product is a thin wrapper over one
//! loop nest (`external_product_core`), which documents the datapath.
//!
//! The gadget is the RNS-hybrid one: rows are indexed by `(limb i, digit
//! k)` with gadget constants `g_{i,k} ≡ δ_{ij}·B^k (mod q_j)` — the digit
//! count per limb is the paper's `d = 2`.

use rand::Rng;

use heap_math::{ChainEnd, Domain, Gadget, MacAcc, ParamSet, RnsContext, RnsPoly, RowPair};

use crate::blind_rotate::MonomialEvals;
use crate::rlwe::{RingSecretKey, RlweCiphertext};

/// Gadget configuration for RGSW/external products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RgswParams {
    /// Bits per digit (`B = 2^base_bits`).
    pub base_bits: u32,
    /// Digits per RNS limb (the paper's `d`, set to 2 in §III-C).
    pub digits: usize,
}

impl From<ParamSet> for RgswParams {
    fn from(set: ParamSet) -> Self {
        Self {
            base_bits: set.rgsw_base_bits,
            digits: set.rgsw_digits,
        }
    }
}

impl RgswParams {
    /// [`ParamSet::PAPER`]'s gadget: `d = 2` digits covering a 36-bit limb.
    pub fn paper() -> Self {
        ParamSet::PAPER.into()
    }

    /// Rows per RGSW component (`limbs · digits`).
    pub fn rows(&self, limbs: usize) -> usize {
        limbs * self.digits
    }

    /// The most bits a digit may have: the external product stores its
    /// balanced digits as `i32`, and a base of `2^32` would need `±2^31`.
    pub const MAX_BASE_BITS: u32 = 31;

    /// Refuses a base whose balanced digits do not fit an `i32`.
    fn assert_digits_fit(&self) {
        assert!(
            self.base_bits <= Self::MAX_BASE_BITS,
            "RGSW gadget base 2^{} above 2^{}: its signed digits do not fit an i32",
            self.base_bits,
            Self::MAX_BASE_BITS
        );
    }

    /// Builds the per-limb gadgets for the first `limbs` moduli of `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `base_bits` is above [`Self::MAX_BASE_BITS`], or where
    /// [`Gadget::new`] does.
    pub fn gadgets(&self, ctx: &RnsContext, limbs: usize) -> Vec<Gadget> {
        self.assert_digits_fit();
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
    ///
    /// # Panics
    ///
    /// Panics if `params.base_bits` is above [`RgswParams::MAX_BASE_BITS`].
    pub fn encrypt_scalar<R: Rng + ?Sized>(
        ctx: &RnsContext,
        sk: &RingSecretKey,
        m: i64,
        limbs: usize,
        params: &RgswParams,
        rng: &mut R,
    ) -> Self {
        params.assert_digits_fit();
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

    /// Number of gadget rows per ladder.
    pub fn row_count(&self) -> usize {
        self.rows_s.len()
    }

    /// Both ladders: `[rows_s, rows_1]`, met by the mask and the body
    /// digits respectively.
    fn ladders(&self) -> [&[RlweCiphertext]; 2] {
        [&self.rows_s, &self.rows_1]
    }
}

/// Former per-key Shoup-quotient store. The MAC reads key rows as they are
/// stored, so there is nothing left to prepare: an empty marker kept only
/// because `benchmark/src/api.rs` names it (ROADMAP "Left behind on
/// purpose").
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct PreparedRgsw;

impl PreparedRgsw {
    #[doc(hidden)]
    pub fn new(_rgsw: &RgswCiphertext, _ctx: &RnsContext) -> Self {
        Self
    }
}

pub(crate) fn add_constant(limb: &mut [u64], c: u64, q: u64) {
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
/// Once warmed up for a shape, every buffer — the tile's signed digit
/// polynomials, the inverse transform's work buffer, the lazy MAC
/// accumulators with their operand buffers, the CMux factors, and the
/// gadget tables — is reused, so the `*_into` external products perform
/// **zero heap allocations** per call (asserted by `tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct ExternalProductScratch {
    /// Digit polynomial `d` of limb `i` of part `ladder` of tile member `t`,
    /// as `i32`, at `n·(((t·2 + ladder)·limbs + i)·digits + d)`.
    digits: Vec<i32>,
    /// The inverse transform's buffer.
    work: Vec<u64>,
    /// One `n`-long slot per `(tile member, key, output part)`, for one
    /// target limb at a time.
    acc: MacAcc,
    /// The CMux fold's evaluation-domain `X^{-a} − 1` and `X^{a} − 1`, for
    /// one member under one target limb.
    factors: [Vec<u64>; 2],
    gadgets: Vec<Gadget>,
}

impl ExternalProductScratch {
    fn prepare(&mut self, ctx: &RnsContext, params: &RgswParams, limbs: usize, tile: usize) {
        let n = ctx.n();
        for f in &mut self.factors {
            f.resize(n, 0);
        }
        self.work.resize(n, 0);
        self.digits.resize(tile * 2 * limbs * params.digits * n, 0);
        // The cached gadgets are only good for the base, digit count and
        // limb moduli they were built from; a scratch may move between
        // contexts of equal shape.
        let warm = self.gadgets.len() == limbs
            && self.gadgets.iter().zip(ctx.moduli()).all(|(g, m)| {
                g.base() == 1 << params.base_bits
                    && g.digits() == params.digits
                    && g.modulus().value() == m.value()
            });
        if !warm {
            self.gadgets = params.gadgets(ctx, limbs);
        }
    }
}

/// Copies `src` into the slot, reusing the existing allocation if any.
pub(crate) fn copy_into_slot<'a>(slot: &'a mut Option<RnsPoly>, src: &RnsPoly) -> &'a mut RnsPoly {
    match slot {
        Some(p) => {
            p.copy_from(src);
            p
        }
        None => slot.insert(src.clone()),
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

/// How the MAC chains of [`external_product_core`] end: its one reduction
/// per output coefficient, for each target limb.
pub(crate) enum Finish<'a, 'o, const K: usize> {
    /// The external products themselves: the `K` products of member `m`
    /// of `cts` are reduced into `outs[m]`.
    Reduce {
        cts: &'a [RlweCiphertext],
        outs: &'a mut [[&'o mut RlweCiphertext; K]],
    },
    /// The CMux step (`K = 2`, keys `RGSW(s_i^+)` then `RGSW(s_i^-)`):
    /// member `m` of `accs`, whose mask element is `exps[m]`, becomes
    /// `acc + (X^{-a} − 1)·EP⁺ + (X^{a} − 1)·EP⁻`, folded straight from the
    /// unreduced sums ([`MacAcc::fold_into`]) — neither product is ever
    /// reduced on its own.
    Fold {
        accs: &'a mut [RlweCiphertext],
        exps: &'a [usize],
        monomials: &'a MonomialEvals,
    },
}

/// The one external-product loop nest: a *tile* of ciphertexts — the
/// members `active` of the finish step's inputs — against `K` RGSW
/// operands (`K = 1`, or `K = 2` for the CMux's `RGSW(s_i^+)` /
/// `RGSW(s_i^-)` pair). The public external products are the tile of one
/// ending in [`Finish::Reduce`]; the blind rotation's CMux step ends in
/// [`Finish::Fold`].
///
/// The key row is the stationary operand (HEAP §IV-E: "fetch one key at a
/// time, perform the external product using the key, and then discard the
/// key"). Phase 1 takes every limb of every member's two parts through
/// [`Gadget::decompose_limb_into`] once: the inverse NTT and the balanced
/// digit chain in one pass, writing `i32` digit rows. Phase 2 walks
/// **target limb `j` → key row `(ladder, limb i, digit d)`**, with one
/// [`MacAcc::mac_tile`] call per row: every member's digit polynomial is
/// transformed under `q_j`, then the MAC walks the accumulators block by
/// block, converting each of the row's `2K` key vectors (limb `j` of both
/// parts of row `r` of all `K` keys, read as stored: the MAC needs no
/// precomputed companion) once and multiplying it into every member's `2K`
/// slots, so a tile streams the key once instead of once per member. One
/// forward NTT per `(member, part, limb, digit, target limb)` still feeds
/// `2·K` MACs.
///
/// The MAC datapath is *lazy* (HEAP §IV-A): the signed digit is never
/// lifted, its transform never normalised, and every pointwise product with
/// a key row is accumulated **unreduced** in a [`MacAcc`] — `2K` slots per
/// member, for one target limb at a time — with each output coefficient
/// reduced exactly once, as soon as limb `j`'s rows are done: into the
/// product's output, or folded into the CMux accumulator. Each limb's
/// chain is `2·limbs·digits` terms per slot of digits no larger than half
/// the gadget base, run in `f64` lanes from digit to accumulator;
/// [`MacAcc::reset`] refuses a chain they are not exact for under `q_j`, so
/// the canonical output is bit-identical to the strict oracle
/// (`crate::oracle::external_product_reference`,
/// `crate::oracle::blind_rotate_reference`).
pub(crate) fn external_product_core<const K: usize>(
    active: &[usize],
    keys: [&RgswCiphertext; K],
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    mut finish: Finish<'_, '_, K>,
) {
    let cts: &[RlweCiphertext] = match &finish {
        Finish::Reduce { cts, .. } => cts,
        Finish::Fold { accs, .. } => accs,
    };
    let Some(&first) = active.first() else {
        return;
    };
    let limbs = cts[first].limbs();
    for rgsw in &keys {
        assert_eq!(
            rgsw.row_count(),
            params.rows(limbs),
            "RGSW row count mismatch"
        );
    }
    for &m in active {
        assert_eq!(cts[m].limbs(), limbs, "tile limb count mismatch");
    }
    let (terms, digit_bound) = (2 * limbs * params.digits, 1 << (params.base_bits - 1));
    let end = match &finish {
        Finish::Reduce { outs, .. } => {
            for &m in active {
                for out in &outs[m] {
                    assert_eq!(out.limbs(), limbs, "output limb count mismatch");
                }
            }
            ChainEnd::Reduce
        }
        Finish::Fold {
            accs, monomials, ..
        } => {
            assert_eq!(K, 2, "a CMux step folds two products");
            assert!(monomials.tables.len() >= limbs, "too few monomial tables");
            for &m in active {
                for part in [&accs[m].a, &accs[m].b] {
                    assert_eq!(part.domain(), Domain::Eval, "needs Eval domain");
                }
            }
            ChainEnd::Fold
        }
    };
    scratch.prepare(ctx, params, limbs, active.len());
    let ExternalProductScratch {
        digits: digit_store,
        work,
        acc,
        factors,
        gadgets,
    } = scratch;
    let n = ctx.n();
    let digits = params.digits;
    // The digit polynomial of row `r = i·digits + d` of part `ladder` (0 =
    // mask, met by `rows_s`; 1 = body, met by `rows_1`) of the `t`-th
    // active member.
    let row_at = |t: usize, ladder: usize, r: usize| ((t * 2 + ladder) * limbs * digits + r) * n;

    for (t, &m) in active.iter().enumerate() {
        for (ladder, part) in [&cts[m].a, &cts[m].b].into_iter().enumerate() {
            for (i, gadget) in gadgets.iter().enumerate() {
                let at = row_at(t, ladder, i * digits);
                let out = &mut digit_store[at..at + digits * n];
                gadget.decompose_limb_into(ctx.ntt(i), part.limb(i), part.domain(), work, out);
            }
        }
    }

    // Accumulator slot of part `p` (0 = a, 1 = b) of product `k` of the
    // `t`-th active member.
    let slot = |t: usize, k: usize, p: usize| (t * K + k) * 2 + p;
    for j in 0..limbs {
        let ntt = ctx.ntt(j);
        acc.reset(ntt, active.len() * K * 2, terms, digit_bound, end);
        for ladder in 0..2 {
            for r in 0..limbs * digits {
                // Row r of every key under limb j, against every member's
                // digit: one transform per member, 2K lazy MACs each.
                let rows: [RowPair<'_>; K] = std::array::from_fn(|k| {
                    let row = &keys[k].ladders()[ladder][r];
                    [row.a.limb(j), row.b.limb(j)]
                });
                let members = (0..active.len()).map(|t| {
                    let at = row_at(t, ladder, r);
                    (slot(t, 0, 0), &digit_store[at..at + n])
                });
                acc.mac_tile(ntt, members, rows);
            }
        }
        // Single deferred reduction per coefficient.
        match &mut finish {
            Finish::Reduce { outs, .. } => {
                for (t, &m) in active.iter().enumerate() {
                    for (k, out) in outs[m].iter_mut().enumerate() {
                        acc.reduce_into(slot(t, k, 0), ntt, out.a.limb_mut(j));
                        acc.reduce_into(slot(t, k, 1), ntt, out.b.limb_mut(j));
                    }
                }
            }
            Finish::Fold {
                accs,
                exps,
                monomials,
            } => {
                let (table, q) = (&monomials.tables[j], ctx.modulus(j));
                for (t, &m) in active.iter().enumerate() {
                    // Rotation by −a·s_i: s_i = +1 wants X^{−a}, s_i = −1
                    // wants X^{a}.
                    table.monomial_minus_one(2 * n - exps[m], q, &mut factors[0]);
                    table.monomial_minus_one(exps[m], q, &mut factors[1]);
                    let member = &mut accs[m];
                    for (p, part) in [&mut member.a, &mut member.b].into_iter().enumerate() {
                        let slots = [slot(t, 0, p), slot(t, 1, p)];
                        let factors = [&factors[0][..], &factors[1][..]];
                        acc.fold_into(slots, factors, ntt, part.limb_mut(j));
                    }
                }
            }
        }
    }
    // The writes cover every limb wholesale, so re-tagging the domain
    // suffices (no zero-fill).
    if let Finish::Reduce { outs, .. } = finish {
        for &m in active {
            for out in outs[m].iter_mut() {
                out.a.set_domain(Domain::Eval);
                out.b.set_domain(Domain::Eval);
            }
        }
    }
}

/// [`external_product`] into a caller-provided output ciphertext.
///
/// With a warmed-up `scratch` and a matching-shape `out` this performs no
/// heap allocation at all (the module docs point at the datapath and its
/// exactness argument).
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
    let cts = std::slice::from_ref(ct);
    let outs = &mut [[out]];
    external_product_core(
        &[0],
        [rgsw],
        ctx,
        params,
        scratch,
        Finish::Reduce { cts, outs },
    );
}

/// Two external products of the *same* RLWE ciphertext against two RGSW
/// operands — the CMux hot path. Algorithm 1 multiplies the accumulator by
/// both `RGSW(s_i^+)` and `RGSW(s_i^-)` per mask element, and the
/// decomposition/NTT work depends only on the accumulator, so doing the
/// products separately would double it: here each forward NTT feeds
/// **four** lazy MACs (`pos.a`, `pos.b`, `neg.a`, `neg.b`).
/// Allocation-free with a warm `scratch`.
///
/// # Panics
///
/// Panics on RGSW row count mismatch or output limb mismatch (output
/// contents are overwritten, not read).
#[allow(clippy::too_many_arguments)] // kernel entry point: two keys, two outputs
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
    let cts = std::slice::from_ref(ct);
    let outs = &mut [[out_pos, out_neg]];
    let finish = Finish::Reduce { cts, outs };
    external_product_core(&[0], [rgsw_pos, rgsw_neg], ctx, params, scratch, finish);
}

/// [`external_product_pair_into`] under the name and signature
/// `benchmark/src/api.rs` imports; the markers carry nothing.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn external_product_pair_prepared_into(
    ct: &RlweCiphertext,
    rgsw_pos: &RgswCiphertext,
    rgsw_neg: &RgswCiphertext,
    _prep_pos: &PreparedRgsw,
    _prep_neg: &PreparedRgsw,
    ctx: &RnsContext,
    params: &RgswParams,
    scratch: &mut ExternalProductScratch,
    out_pos: &mut RlweCiphertext,
    out_neg: &mut RlweCiphertext,
) {
    external_product_pair_into(
        ct, rgsw_pos, rgsw_neg, ctx, params, scratch, out_pos, out_neg,
    );
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

    /// A base of `2^32` would need a balanced digit of `2^31`, which the
    /// `i32` digit store cannot hold: refused where the parameters are
    /// used, with the reason; `2^31` is accepted.
    #[test]
    fn base_above_two_to_the_31_is_refused() {
        let c = RnsContext::new(64, &ntt_primes(64, 45, 1));
        let mut rng = StdRng::seed_from_u64(5);
        let sk = RingSecretKey::generate(&c, 1, &mut rng);
        let fits = RgswParams {
            base_bits: RgswParams::MAX_BASE_BITS,
            digits: 2,
        };
        assert_eq!(fits.gadgets(&c, 1).len(), 1);
        let too_wide = RgswParams {
            base_bits: 32,
            digits: 2,
        };
        for attempt in [
            Box::new(|| drop(too_wide.gadgets(&c, 1))) as Box<dyn Fn()>,
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(6);
                drop(RgswCiphertext::encrypt_scalar(
                    &c, &sk, 1, 1, &too_wide, &mut rng,
                ))
            }),
        ] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
                .expect_err("a 2^32 base was accepted");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("do not fit an i32"), "{msg}");
        }
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
        let one = crate::oracle::trivial_one(&c, 2, &p);
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
