//! `BlindRotate` — the paper's Algorithm 1 with ternary-secret CMux.
//!
//! A blind rotation turns an LWE ciphertext `(a⃗, b) ∈ Z_2N^{n_t+1}` into an
//! RLWE encryption of `f · X^{-phase}`: the accumulator starts at the test
//! polynomial rotated by the body and is updated once per mask element by
//! the ternary CMux. Algorithm 1 writes the update as one external product
//! by `RGSW(1) + (X^{-a_i} − 1)·RGSW(s_i^+) + (X^{a_i} − 1)·RGSW(s_i^-)`;
//! the hot path here computes the algebraically equal
//!
//! ```text
//! acc ← acc + (X^{-a_i} − 1)·EP(acc, brk_i^+) + (X^{a_i} − 1)·EP(acc, brk_i^-)
//! ```
//!
//! which needs **zero** RGSW-sized copies or additions and scales only two
//! RLWE outputs (2 polynomials each) by the monomial factors instead of
//! two RGSW matrices (`2·ℓ·2` polynomials each). The rewrite is exact —
//! external products are linear in the RGSW operand over exact mod-`q`
//! arithmetic, `EP(acc, RGSW_triv(1)) = acc` exactly by gadget
//! recomposition, and the evaluation-domain monomial factors commute with
//! the pointwise MACs — so outputs are *bit-identical* to the one-product
//! form, which is retained as [`BlindRotateKey::blind_rotate_reference`]
//! and asserted against in `tests/kernel_parity.rs`. The two external
//! products share one gadget decomposition and one spread-NTT per digit
//! ([`crate::rgsw::external_product_pair_prepared_into`]), so the NTT
//! count per step is unchanged. The constant coefficient of the result is the
//! lookup `f[phase]` — which is how the scheme switch evaluates the
//! wrap-removal function during CKKS bootstrapping, and how standalone
//! TFHE evaluates arbitrary negacyclic LUTs.
//!
//! The monomial factors are applied in evaluation domain via precomputed
//! root-power tables (HEAP's rotation unit + NTT datapath combination).

use rand::Rng;

use heap_math::ntt::NttTable;
use heap_math::{poly, Domain, RnsContext, RnsPoly};

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::rgsw::{
    external_product_pair_prepared_into, external_product_reference, ExternalProductScratch,
    PreparedRgsw, RgswCiphertext, RgswParams,
};
use crate::rlwe::{RingSecretKey, RlweCiphertext};

/// Reverses the low `bits` bits of `x` (the NTT butterfly ordering).
fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (usize::BITS - bits)
    }
}

/// Per-modulus table for evaluating monomials `X^a` directly in NTT domain.
///
/// Entry `idx` of the forward NTT of `X^a` equals `psi^{a·e_idx}` where
/// `e_idx` is the (odd) root exponent of output slot `idx`; both the root
/// powers and the slot exponents are precomputed once per modulus.
#[derive(Debug, Clone)]
pub struct MonomialTable {
    /// `psi^t` for `t` in `0..2N`.
    pow: Vec<u64>,
    /// Root exponent of each NTT output slot.
    slot_exp: Vec<usize>,
}

impl MonomialTable {
    /// Builds the table for one NTT context.
    pub fn new(ntt: &NttTable) -> Self {
        let n = ntt.n();
        let m = ntt.modulus();
        let two_n = 2 * n;
        let mut pow = Vec::with_capacity(two_n);
        let mut cur = 1u64;
        for _ in 0..two_n {
            pow.push(cur);
            cur = m.mul(cur, ntt.psi());
        }
        // The Cooley–Tukey butterflies with the bit-reversed psi schedule
        // leave output slot `j` holding the evaluation at `psi^{2·brv(j)+1}`,
        // so the exponent follows directly from the slot index — no need to
        // transform X and search a hash map (the seed did exactly that,
        // costing an O(N) table build plus N lookups per modulus).
        let log_n = n.trailing_zeros();
        let slot_exp = (0..n)
            .map(|j| (2 * bit_reverse(j, log_n) + 1) % two_n)
            .collect();
        Self { pow, slot_exp }
    }

    /// Writes the evaluation-domain representation of `X^a - 1` (negacyclic
    /// exponent `a ∈ [0, 2N)`) into `out`.
    pub fn monomial_minus_one(&self, a: usize, q: &heap_math::Modulus, out: &mut [u64]) {
        let two_n = self.pow.len();
        debug_assert_eq!(out.len(), self.slot_exp.len());
        for (o, &e) in out.iter_mut().zip(&self.slot_exp) {
            let v = self.pow[(a * e) % two_n];
            *o = q.sub(v, 1 % q.value());
        }
    }

    /// Writes the evaluation-domain representation of `X^a` into `out`
    /// (used by the repacking tree's interleaving shifts).
    pub fn monomial(&self, a: usize, out: &mut [u64]) {
        let two_n = self.pow.len();
        debug_assert_eq!(out.len(), self.slot_exp.len());
        for (o, &e) in out.iter_mut().zip(&self.slot_exp) {
            *o = self.pow[(a * e) % two_n];
        }
    }
}

/// Monomial tables for every limb of a basis prefix.
#[derive(Debug, Clone)]
pub struct MonomialEvals {
    tables: Vec<MonomialTable>,
}

impl MonomialEvals {
    /// Builds tables for the first `limbs` moduli of `ctx`.
    pub fn new(ctx: &RnsContext, limbs: usize) -> Self {
        Self {
            tables: (0..limbs).map(|i| MonomialTable::new(ctx.ntt(i))).collect(),
        }
    }

    /// Evaluation-domain `X^a - 1`, flat across limbs (limb `j` occupies
    /// `[j·n, (j+1)·n)`).
    pub fn factor(&self, a: usize, ctx: &RnsContext) -> Vec<u64> {
        let mut out = Vec::new();
        self.factor_into(a, ctx, &mut out);
        out
    }

    /// [`MonomialEvals::factor`] into a caller-provided flat buffer — one
    /// contiguous `Vec<u64>` reused across limbs, so repeat exponents are
    /// allocation-free once the buffer is warm (asserted by
    /// `tests/alloc_free.rs`).
    pub fn factor_into(&self, a: usize, ctx: &RnsContext, out: &mut Vec<u64>) {
        let n = ctx.n();
        out.resize(self.tables.len() * n, 0);
        for (j, t) in self.tables.iter().enumerate() {
            t.monomial_minus_one(a, ctx.modulus(j), &mut out[j * n..(j + 1) * n]);
        }
    }

    /// Evaluation-domain `X^a` per limb.
    pub fn monomial(&self, a: usize, ctx: &RnsContext) -> Vec<Vec<u64>> {
        self.tables
            .iter()
            .map(|t| {
                let mut out = vec![0u64; ctx.n()];
                t.monomial(a, &mut out);
                out
            })
            .collect()
    }

    /// Multiplies an evaluation-domain [`RnsPoly`] by `X^a` in place.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in coefficient domain or has more limbs
    /// than the table set.
    pub fn mul_monomial_assign(&self, poly: &mut RnsPoly, a: usize, ctx: &RnsContext) {
        assert_eq!(poly.domain(), Domain::Eval, "needs Eval domain");
        let limbs = poly.limb_count();
        assert!(limbs <= self.tables.len());
        for j in 0..limbs {
            let m = ctx.modulus(j);
            let t = &self.tables[j];
            let two_n = t.pow.len();
            for (x, &e) in poly.limb_mut(j).iter_mut().zip(&t.slot_exp) {
                *x = m.mul(*x, t.pow[(a * e) % two_n]);
            }
        }
    }
}

/// Blind-rotation key: `{RGSW(s_i^+), RGSW(s_i^-)}` for every coefficient of
/// the (ternary) LWE secret, encrypted under the ring secret (paper §II-B).
#[derive(Debug, Clone)]
pub struct BlindRotateKey {
    pos: Vec<RgswCiphertext>,
    neg: Vec<RgswCiphertext>,
    params: RgswParams,
    limbs: usize,
    monomials: MonomialEvals,
    /// Shoup quotients for every `pos` row limb, precomputed at key
    /// construction (the `ShoupMatrixFMA` idiom) so the CMux external
    /// products run the vectorized `u64`-accumulator datapath. Kept at the
    /// key level (not inside [`RgswCiphertext`]) because the reseed
    /// transform mutates rows in place and rebuilds these afterwards.
    prepared_pos: Vec<PreparedRgsw>,
    /// Shoup quotients for every `neg` row limb.
    prepared_neg: Vec<PreparedRgsw>,
}

impl BlindRotateKey {
    /// Generates the key for `lwe_sk` under `ring_sk` over the first
    /// `limbs` moduli of `ctx`.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &RnsContext,
        lwe_sk: &LweSecretKey,
        ring_sk: &RingSecretKey,
        limbs: usize,
        params: RgswParams,
        rng: &mut R,
    ) -> Self {
        let pos = lwe_sk
            .coeffs()
            .iter()
            .map(|&s| {
                let bit = i64::from(s == 1);
                RgswCiphertext::encrypt_scalar(ctx, ring_sk, bit, limbs, &params, rng)
            })
            .collect();
        let neg = lwe_sk
            .coeffs()
            .iter()
            .map(|&s| {
                let bit = i64::from(s == -1);
                RgswCiphertext::encrypt_scalar(ctx, ring_sk, bit, limbs, &params, rng)
            })
            .collect();
        Self::from_parts(ctx, pos, neg, params, limbs)
    }

    /// Rebuilds a key from decoded RGSW ladders (wire decoding); the
    /// monomial tables are pure functions of the basis and are rebuilt,
    /// and the Shoup precomputes are derived from the decoded rows — so
    /// node-side expansion of wire keys gets the prepared form for free.
    pub(crate) fn from_parts(
        ctx: &RnsContext,
        pos: Vec<RgswCiphertext>,
        neg: Vec<RgswCiphertext>,
        params: RgswParams,
        limbs: usize,
    ) -> Self {
        let prepared_pos = pos.iter().map(|r| PreparedRgsw::new(r, ctx)).collect();
        let prepared_neg = neg.iter().map(|r| PreparedRgsw::new(r, ctx)).collect();
        Self {
            pos,
            neg,
            params,
            limbs,
            monomials: MonomialEvals::new(ctx, limbs),
            prepared_pos,
            prepared_neg,
        }
    }

    /// Rebuilds the Shoup precomputes from the current rows. Must be called
    /// after any in-place mutation of the RGSW ladders (the wire reseed
    /// transform) — quotients are only valid for the exact operand values
    /// they were derived from.
    pub(crate) fn rebuild_prepared(&mut self, ctx: &RnsContext) {
        self.prepared_pos = self.pos.iter().map(|r| PreparedRgsw::new(r, ctx)).collect();
        self.prepared_neg = self.neg.iter().map(|r| PreparedRgsw::new(r, ctx)).collect();
    }

    /// The positive-coefficient RGSW ladder (wire encoding).
    #[inline]
    pub(crate) fn pos(&self) -> &[RgswCiphertext] {
        &self.pos
    }

    /// The negative-coefficient RGSW ladder (wire encoding).
    #[inline]
    pub(crate) fn neg(&self) -> &[RgswCiphertext] {
        &self.neg
    }

    /// Mutable ladders in encoding order (seed-reseeding transform).
    #[inline]
    pub(crate) fn ladders_mut(&mut self) -> (&mut [RgswCiphertext], &mut [RgswCiphertext]) {
        (&mut self.pos, &mut self.neg)
    }

    /// LWE mask dimension `n_t` this key supports.
    pub fn lwe_dim(&self) -> usize {
        self.pos.len()
    }

    /// Gadget parameters baked into the key.
    pub fn params(&self) -> &RgswParams {
        &self.params
    }

    /// Number of RNS limbs of the accumulator basis.
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Runs the blind rotation of `test_poly` by (the negated phase of)
    /// `lwe`, returning an RLWE ciphertext whose constant coefficient
    /// encrypts `lut(phase)` as built by [`test_polynomial_from_fn`].
    ///
    /// # Panics
    ///
    /// Panics if the LWE dimension or modulus (`2N`) mismatch the key.
    pub fn blind_rotate(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
    ) -> RlweCiphertext {
        let mut scratch = BlindRotateScratch::default();
        self.blind_rotate_with(ctx, test_poly, lwe, &mut scratch)
    }

    /// [`BlindRotateKey::blind_rotate`] with caller-provided scratch.
    ///
    /// After the first call warms the scratch, the per-mask-element loop —
    /// `n_t` restructured CMux updates — runs with no heap allocation: the
    /// paired external product and the two scaled RLWE outputs live in
    /// reused buffers, and the accumulator is updated in place (no
    /// ping-pong ciphertext, no RGSW-sized copies at all). This is the hot
    /// path the parallel engine runs with one scratch per worker thread.
    pub fn blind_rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut BlindRotateScratch,
    ) -> RlweCiphertext {
        assert_eq!(lwe.dim(), self.lwe_dim(), "LWE dimension mismatch");
        let two_n = 2 * ctx.n() as u64;
        assert_eq!(lwe.modulus, two_n, "blind rotation expects modulus 2N");
        assert_eq!(test_poly.limb_count(), self.limbs, "limb mismatch");

        let mut acc = self.initial_accumulator(ctx, test_poly, lwe, scratch);
        for i in 0..lwe.a.len() {
            self.cmux_step(ctx, lwe.a[i], i, &mut acc, scratch);
        }
        acc
    }

    /// Strict-datapath blind rotation: Algorithm 1 exactly as the seed
    /// implemented it — per step, assemble
    /// `RGSW(1) + (X^{-a_i}−1)·RGSW(s_i^+) + (X^{a_i}−1)·RGSW(s_i^-)`
    /// (two RGSW copies, two full-RGSW monomial scalings, two RGSW adds)
    /// and run **one** external product over the strict reference kernels.
    ///
    /// Kept as the oracle for the restructured hot path: the parity suite
    /// asserts [`BlindRotateKey::blind_rotate`] is bit-identical to this,
    /// and `kernel_sweep` measures the speedup over it. Allocates freely;
    /// not used on any production path.
    pub fn blind_rotate_reference(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
    ) -> RlweCiphertext {
        assert_eq!(lwe.dim(), self.lwe_dim(), "LWE dimension mismatch");
        let two_n = 2 * ctx.n() as u64;
        assert_eq!(lwe.modulus, two_n, "blind rotation expects modulus 2N");
        assert_eq!(test_poly.limb_count(), self.limbs, "limb mismatch");

        let mut scratch = BlindRotateScratch::default();
        let mut acc = self.initial_accumulator(ctx, test_poly, lwe, &mut scratch);
        for i in 0..lwe.a.len() {
            self.cmux_step_reference(ctx, lwe.a[i], i, &mut acc);
        }
        acc
    }

    /// `ACC = trivial(f · X^{-b})` for one LWE ciphertext.
    fn initial_accumulator(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut BlindRotateScratch,
    ) -> RlweCiphertext {
        let f = match &mut scratch.test_coeff {
            Some(p) => {
                p.copy_from(test_poly);
                p
            }
            slot => slot.insert(test_poly.clone()),
        };
        f.to_coeff(ctx);
        let shift = -(lwe.b as i64);
        let mut rotated = RnsPoly::zero(ctx, self.limbs, Domain::Coeff);
        for j in 0..self.limbs {
            poly::monomial_mul_into(f.limb(j), shift, ctx.modulus(j), rotated.limb_mut(j));
        }
        RlweCiphertext::trivial(ctx, rotated)
    }

    /// One restructured accumulator update:
    /// `ACC += (X^{-a_i}−1)·EP(ACC, brk_i^+) + (X^{a_i}−1)·EP(ACC, brk_i^-)`
    /// (see the module docs for why this equals the Algorithm-1 product
    /// bit-for-bit).
    fn cmux_step(
        &self,
        ctx: &RnsContext,
        a_i: u64,
        i: usize,
        acc: &mut RlweCiphertext,
        scratch: &mut BlindRotateScratch,
    ) {
        let two_n = 2 * ctx.n();
        let ai = (a_i % two_n as u64) as usize;
        if ai == 0 {
            // (X^0 - 1) terms vanish; accumulator passes through the
            // exact trivial identity, so skip the products entirely.
            return;
        }
        // Rotation by -a_i·s_i: s=+1 wants X^{-a_i}, s=-1 wants X^{+a_i}.
        let neg_exp = two_n - ai;
        let BlindRotateScratch {
            ep,
            ep_pos,
            ep_neg,
            factor,
            ..
        } = scratch;
        let ep_pos = ep_pos.get_or_insert_with(|| RlweCiphertext::zero(ctx, self.limbs));
        let ep_neg = ep_neg.get_or_insert_with(|| RlweCiphertext::zero(ctx, self.limbs));
        // One shared decomposition of ACC feeds both products; the
        // precomputed Shoup quotients route them onto the vectorized
        // u64-accumulator datapath when it applies.
        external_product_pair_prepared_into(
            acc,
            &self.pos[i],
            &self.neg[i],
            &self.prepared_pos[i],
            &self.prepared_neg[i],
            ctx,
            &self.params,
            ep,
            ep_pos,
            ep_neg,
        );
        self.monomials.factor_into(neg_exp, ctx, factor);
        ep_pos.mul_eval_factor_assign(factor, ctx);
        acc.add_assign(ep_pos, ctx);
        self.monomials.factor_into(ai, ctx, factor);
        ep_neg.mul_eval_factor_assign(factor, ctx);
        acc.add_assign(ep_neg, ctx);
    }

    /// One Algorithm-1 accumulator update in its original one-product
    /// form: `ACC ⊡ (RGSW(1) + (X^{-a_i}−1)·RGSW(s_i^+) +
    /// (X^{a_i}−1)·RGSW(s_i^-))` over the strict kernels (the oracle for
    /// [`Self::cmux_step`]).
    fn cmux_step_reference(&self, ctx: &RnsContext, a_i: u64, i: usize, acc: &mut RlweCiphertext) {
        let two_n = 2 * ctx.n();
        let ai = (a_i % two_n as u64) as usize;
        if ai == 0 {
            return;
        }
        let neg_exp = two_n - ai;
        let mut combined = RgswCiphertext::trivial_one(ctx, self.limbs, &self.params);
        for (source, exp) in [(&self.pos[i], neg_exp), (&self.neg[i], ai)] {
            let mut term = source.clone();
            let factor = self.monomials.factor(exp, ctx);
            term.mul_eval_factor_assign(&factor, ctx);
            combined.add_assign(&term, ctx);
        }
        *acc = external_product_reference(acc, &combined, ctx, &self.params);
    }
}

/// Scratch state for [`BlindRotateKey::blind_rotate_with`]: every buffer the
/// per-mask-element loop needs, allocated once and reused for the whole
/// batch a worker thread processes.
///
/// The restructured CMux shrank this considerably: the old path carried a
/// cached `RGSW(1)` identity, three full RGSW ciphertext buffers
/// (`combined`, `pos_term`, `neg_term` — `2·2·ℓ·d` polynomials each) and a
/// ping-pong accumulator; the new one needs only the two RLWE-sized
/// external-product outputs and one flat monomial-factor buffer.
#[derive(Debug, Default)]
pub struct BlindRotateScratch {
    ep: ExternalProductScratch,
    /// `EP(acc, brk_i^+)` output, reused across steps.
    ep_pos: Option<RlweCiphertext>,
    /// `EP(acc, brk_i^-)` output, reused across steps.
    ep_neg: Option<RlweCiphertext>,
    /// Flat evaluation-domain monomial factor (limb `j` at `[j·n, (j+1)·n)`).
    factor: Vec<u64>,
    test_coeff: Option<RnsPoly>,
}

impl BlindRotateKey {
    /// Blind-rotates a batch of LWE ciphertexts with the paper's §IV-E
    /// *key-major* schedule: the outer loop walks the `brk` key indices and
    /// the inner loop updates every accumulator, so each RGSW key is
    /// fetched exactly once per batch ("we need to fetch one key at a
    /// time, perform the external product using the key, and then discard
    /// the key").
    ///
    /// Produces bit-identical results to mapping
    /// [`BlindRotateKey::blind_rotate`] over the batch; on hardware the
    /// difference is key-memory traffic (`n_t` fetches total instead of
    /// `n_t` per ciphertext), which the `heap-hw` model prices.
    ///
    /// Returns the accumulators in input order, plus the number of key
    /// fetches performed.
    pub fn blind_rotate_batch_key_major(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwes: &[LweCiphertext],
    ) -> (Vec<RlweCiphertext>, u64) {
        let mut scratch = BlindRotateScratch::default();
        let mut accs: Vec<RlweCiphertext> = lwes
            .iter()
            .map(|lwe| {
                assert_eq!(lwe.dim(), self.lwe_dim(), "LWE dimension mismatch");
                let two_n = 2 * ctx.n() as u64;
                assert_eq!(lwe.modulus, two_n, "blind rotation expects modulus 2N");
                self.initial_accumulator(ctx, test_poly, lwe, &mut scratch)
            })
            .collect();
        let mut key_fetches = 0u64;
        for i in 0..self.lwe_dim() {
            // One fetch of (pos_i, neg_i) serves the whole batch.
            key_fetches += 1;
            for (acc, lwe) in accs.iter_mut().zip(lwes) {
                self.cmux_step(ctx, lwe.a[i], i, acc, &mut scratch);
            }
        }
        (accs, key_fetches)
    }
}

/// Builds the negacyclic test polynomial for a lookup function `g` defined
/// on signed inputs `u ∈ [-N/2, N/2)`:
/// the blind rotation of this polynomial leaves `g(u)` in the constant
/// coefficient.
///
/// `g` must satisfy `|g(u)|` small enough to fit the basis; values are
/// reduced per limb.
pub fn test_polynomial_from_fn(ctx: &RnsContext, limbs: usize, g: impl Fn(i64) -> i64) -> RnsPoly {
    let n = ctx.n();
    let mut coeffs = vec![0i64; n];
    let half = (n / 2) as i64;
    for (j, c) in coeffs.iter_mut().enumerate() {
        let j = j as i64;
        if j < half {
            *c = g(j);
        } else {
            // index j holds -g(j - N) for negative inputs u = j - N
            *c = -g(j - n as i64);
        }
    }
    RnsPoly::from_signed(ctx, &coeffs, limbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(64, &ntt_primes(64, 30, 2))
    }

    #[test]
    fn monomial_table_matches_ntt_of_monomial() {
        let c = ctx();
        let t = MonomialTable::new(c.ntt(0));
        let q = c.modulus(0);
        for a in [0usize, 1, 5, 63, 64, 100, 127] {
            let mut expect = vec![0u64; 64];
            // X^a as polynomial (negacyclic wrap for a >= N)
            let mut mono = vec![0u64; 64];
            if a < 64 {
                mono[a] = 1;
            } else {
                mono[a - 64] = q.value() - 1;
            }
            c.ntt(0).forward(&mut mono);
            t.monomial_minus_one(a, q, &mut expect);
            for (e, m) in expect.iter().zip(&mono) {
                assert_eq!(*e, q.sub(*m, 1), "a = {a}");
            }
        }
    }

    #[test]
    fn slot_exponents_match_transform_of_x() {
        // Oracle: recover each slot's root exponent by transforming X^1 and
        // searching the power table (the seed's construction). The direct
        // bit-reversal formula must agree for every slot and modulus.
        for limbs in 0..2 {
            let c = ctx();
            let ntt = c.ntt(limbs);
            let t = MonomialTable::new(ntt);
            let n = ntt.n();
            let m = ntt.modulus();
            let mut pow = Vec::with_capacity(2 * n);
            let mut cur = 1u64;
            for _ in 0..2 * n {
                pow.push(cur);
                cur = m.mul(cur, ntt.psi());
            }
            let mut x = vec![0u64; n];
            x[1] = 1;
            ntt.forward(&mut x);
            let oracle: Vec<usize> = x
                .iter()
                .map(|v| pow.iter().position(|p| p == v).expect("root power"))
                .collect();
            assert_eq!(t.slot_exp, oracle);
        }
    }

    #[test]
    fn test_polynomial_lut_layout() {
        let c = ctx();
        let f = test_polynomial_from_fn(&c, 1, |u| 10 * u);
        let vals = f.to_centered_f64(&c);
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[3], 30.0);
        // index N-1 corresponds to u = -1: stores -g(-1) = 10
        assert_eq!(vals[63], 10.0);
    }

    #[test]
    fn blind_rotate_evaluates_lut() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let ring_sk = RingSecretKey::generate(&c, 2, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 16);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let two_n = 2 * c.n() as u64; // 128
                                      // LUT: g(u) = u << 45 — the two-limb basis (~2^60) leaves plenty of
                                      // headroom above the accumulated external-product noise (~2^28).
        let scale = 1i64 << 45;
        let f = test_polynomial_from_fn(&c, 2, |u| scale * u);
        for msg in [0i64, 1, 5, -3, 20, -25] {
            // Build a noiseless LWE of `msg` mod 2N under lwe_sk: choose
            // a random mask and set b accordingly.
            let a: Vec<u64> = (0..16).map(|_| rng.gen_range(0..two_n)).collect();
            let mut dot: i64 = 0;
            for (x, &s) in a.iter().zip(lwe_sk.coeffs()) {
                dot += *x as i64 * s;
            }
            let b = (msg - dot).rem_euclid(two_n as i64) as u64;
            let lwe = LweCiphertext {
                a,
                b,
                modulus: two_n,
            };
            let out = brk.blind_rotate(&c, &f, &lwe);
            let phase = out.phase(&c, &ring_sk).to_centered_f64(&c);
            let got = phase[0];
            let want = (scale * msg) as f64;
            assert!(
                (got - want).abs() < (1u64 << 34) as f64,
                "msg {msg}: got {got}, want {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "modulus 2N")]
    fn blind_rotate_rejects_wrong_modulus() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(8);
        let ring_sk = RingSecretKey::generate(&c, 1, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 4);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 1, params, &mut rng);
        let f = test_polynomial_from_fn(&c, 1, |u| u);
        let lwe = LweCiphertext::trivial(0, 4, 999);
        brk.blind_rotate(&c, &f, &lwe);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use heap_math::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_major_batch_matches_per_ciphertext() {
        let c = RnsContext::new(64, &ntt_primes(64, 30, 2));
        let mut rng = StdRng::seed_from_u64(21);
        let ring_sk = RingSecretKey::generate(&c, 2, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, 8);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let two_n = 2 * c.n() as u64;
        let f = test_polynomial_from_fn(&c, 2, |u| u << 40);
        let lwes: Vec<LweCiphertext> = (0..4)
            .map(|_| LweCiphertext {
                a: (0..8).map(|_| rng.gen_range(0..two_n)).collect(),
                b: rng.gen_range(0..two_n),
                modulus: two_n,
            })
            .collect();
        let per_ct: Vec<RlweCiphertext> =
            lwes.iter().map(|l| brk.blind_rotate(&c, &f, l)).collect();
        let (batched, fetches) = brk.blind_rotate_batch_key_major(&c, &f, &lwes);
        assert_eq!(fetches, 8, "one fetch per key index");
        for (a, b) in per_ct.iter().zip(&batched) {
            // Bit-identical: the same sequence of deterministic ops.
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
        }
    }
}
