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
//! which needs **zero** RGSW-sized copies or additions. The rewrite is
//! exact — external products are linear in the RGSW operand over exact
//! mod-`q` arithmetic, `EP(acc, RGSW_triv(1)) = acc` exactly by gadget
//! recomposition, and the evaluation-domain monomial factors commute with
//! the pointwise MACs — so outputs are *bit-identical* to the one-product
//! form, which is retained as the hidden `crate::oracle::blind_rotate_reference`
//! and asserted against in `tests/kernel_parity.rs`. The constant
//! coefficient of the result is the lookup `f[phase]` — which is how the
//! scheme switch evaluates the wrap-removal function during CKKS
//! bootstrapping, and how standalone TFHE evaluates arbitrary negacyclic
//! LUTs.
//!
//! There is one schedule, the paper's §IV-E *key-major* one
//! ([`BlindRotateKey::blind_rotate_batch_with`]): the outer loop walks the
//! key indices and the inner loop is a tile of accumulators, so each
//! `(brk_i^+, brk_i^-)` pair is streamed once per tile ("fetch one key at a
//! time, perform the external product using the key, and then discard the
//! key") with the key row, not the accumulator, as the stationary operand
//! of the external product. A single rotation is the tile of one. The two
//! external products of a step share one gadget decomposition and one
//! spread-NTT per digit, and neither is ever reduced on its own: the
//! monomial factors are looked up in precomputed root-power tables (HEAP's
//! rotation unit + NTT datapath combination) and the MAC's one deferred
//! reduction per coefficient *is* the update,
//! `acc ← canonical(acc + f⁺·S⁺ + f⁻·S⁻)` from the unreduced sums `S±`
//! (`crate::rgsw::Finish::Fold`). No `EP⁺`/`EP⁻` buffer exists.

use rand::Rng;

use heap_math::ntt::NttTable;
use heap_math::{poly, Domain, RnsContext, RnsPoly};

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::rgsw::{
    copy_into_slot, external_product_core, ExternalProductScratch, Finish, RgswCiphertext,
    RgswParams,
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
        // `pow_at` reduces exponents mod 2N with a mask.
        assert!(
            two_n.is_power_of_two(),
            "ring degree must be a power of two"
        );
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

    /// `psi^{a·e mod 2N}`: the value of `X^a` at the slot with root
    /// exponent `e`.
    #[inline]
    fn pow_at(&self, a: usize, e: usize) -> u64 {
        self.pow[(a * e) & (self.pow.len() - 1)]
    }

    /// Writes the evaluation-domain representation of `X^a - 1` (negacyclic
    /// exponent `a ∈ [0, 2N)`) into `out`.
    pub fn monomial_minus_one(&self, a: usize, q: &heap_math::Modulus, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.slot_exp.len());
        for (o, &e) in out.iter_mut().zip(&self.slot_exp) {
            *o = q.sub(self.pow_at(a, e), 1);
        }
    }
}

/// Monomial tables for every limb of a basis prefix.
#[derive(Debug, Clone)]
pub struct MonomialEvals {
    pub(crate) tables: Vec<MonomialTable>,
}

impl MonomialEvals {
    /// Builds tables for the first `limbs` moduli of `ctx`.
    pub fn new(ctx: &RnsContext, limbs: usize) -> Self {
        Self {
            tables: (0..limbs).map(|i| MonomialTable::new(ctx.ntt(i))).collect(),
        }
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
            for (x, &e) in poly.limb_mut(j).iter_mut().zip(&t.slot_exp) {
                *x = m.mul(*x, t.pow_at(a, e));
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

    /// Rebuilds a key from decoded RGSW ladders (wire decoding). The rows
    /// are the whole key — the external product reads them as stored, so
    /// nothing is derived from them and an in-place mutation (the wire
    /// reseed transform) needs no follow-up; the monomial tables are pure
    /// functions of the basis.
    pub(crate) fn from_parts(
        ctx: &RnsContext,
        pos: Vec<RgswCiphertext>,
        neg: Vec<RgswCiphertext>,
        params: RgswParams,
        limbs: usize,
    ) -> Self {
        Self {
            pos,
            neg,
            params,
            limbs,
            monomials: MonomialEvals::new(ctx, limbs),
        }
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

    /// The monomial tables of the accumulator basis (the repacking tree
    /// shifts by them too).
    pub fn monomials(&self) -> &MonomialEvals {
        &self.monomials
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

    /// [`BlindRotateKey::blind_rotate`] with caller-provided scratch: the
    /// batch of one of [`BlindRotateKey::blind_rotate_batch_with`].
    pub fn blind_rotate_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwe: &LweCiphertext,
        scratch: &mut BlindRotateScratch,
    ) -> RlweCiphertext {
        let lwes = std::slice::from_ref(lwe);
        let mut accs = self.blind_rotate_batch_with(ctx, test_poly, lwes, scratch);
        accs.pop().expect("one accumulator per LWE")
    }

    /// Blind-rotates `lwes` as one tile with the paper's §IV-E *key-major*
    /// schedule: the outer loop walks the `brk` key indices and the inner
    /// loop updates every accumulator of the tile, so each RGSW pair is
    /// streamed once per call ("we need to fetch one key at a time,
    /// perform the external product using the key, and then discard the
    /// key"). A member whose `a_i ≡ 0` sits step `i` out — its
    /// `(X^0 − 1)` terms vanish and the accumulator passes through the
    /// exact trivial identity.
    ///
    /// Returns the accumulators in input order, each bit-identical to the
    /// one-product oracle (`crate::oracle::blind_rotate_reference`) of its
    /// LWE. The tile's
    /// buffers (digit store, MAC accumulators, factors) live in `scratch`;
    /// once it is warm for a tile size the per-key loop runs with no heap
    /// allocation (`tests/alloc_free.rs`). Callers size the tile — the
    /// parallel engine walks each worker's chunk in tiles, one scratch per
    /// worker thread.
    ///
    /// # Panics
    ///
    /// Panics if an LWE dimension or modulus (`2N`) mismatches the key.
    pub fn blind_rotate_batch_with(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwes: &[LweCiphertext],
        scratch: &mut BlindRotateScratch,
    ) -> Vec<RlweCiphertext> {
        let mut accs = self.initial_accumulators(ctx, test_poly, lwes, &mut scratch.test_coeff);
        let BlindRotateScratch {
            ep, exps, active, ..
        } = scratch;
        let two_n = 2 * ctx.n() as u64;
        for i in 0..self.lwe_dim() {
            exps.clear();
            exps.extend(lwes.iter().map(|lwe| (lwe.a[i] % two_n) as usize));
            active.clear();
            active.extend((0..lwes.len()).filter(|&m| exps[m] != 0));
            // One shared decomposition of each accumulator feeds both
            // products, which fold into it.
            let keys = [&self.pos[i], &self.neg[i]];
            let finish = Finish::Fold {
                accs: &mut accs,
                exps,
                monomials: &self.monomials,
            };
            external_product_core(active, keys, ctx, &self.params, ep, finish);
        }
        accs
    }

    /// `ACC = trivial(f · X^{-b})` for every LWE ciphertext; the test
    /// polynomial is brought to coefficient form once (into `test_coeff`)
    /// and every member rotates from that.
    pub(crate) fn initial_accumulators(
        &self,
        ctx: &RnsContext,
        test_poly: &RnsPoly,
        lwes: &[LweCiphertext],
        test_coeff: &mut Option<RnsPoly>,
    ) -> Vec<RlweCiphertext> {
        assert_eq!(test_poly.limb_count(), self.limbs, "limb mismatch");
        let f = copy_into_slot(test_coeff, test_poly);
        f.to_coeff(ctx);
        let two_n = 2 * ctx.n() as u64;
        lwes.iter()
            .map(|lwe| {
                assert_eq!(lwe.dim(), self.lwe_dim(), "LWE dimension mismatch");
                assert_eq!(lwe.modulus, two_n, "blind rotation expects modulus 2N");
                let shift = -(lwe.b as i64);
                let mut rotated = RnsPoly::zero(ctx, self.limbs, Domain::Coeff);
                for j in 0..self.limbs {
                    poly::monomial_mul_into(f.limb(j), shift, ctx.modulus(j), rotated.limb_mut(j));
                }
                RlweCiphertext::trivial(ctx, rotated)
            })
            .collect()
    }
}

/// Scratch state for [`BlindRotateKey::blind_rotate_batch_with`]: every
/// buffer the per-key loop needs, allocated once and reused for every tile
/// a worker thread processes.
#[derive(Debug, Default)]
pub struct BlindRotateScratch {
    ep: ExternalProductScratch,
    /// Each tile member's mask element of the current step, reduced mod `2N`.
    exps: Vec<usize>,
    /// Tile members taking part in the current step (`a_i ≢ 0`).
    active: Vec<usize>,
    test_coeff: Option<RnsPoly>,
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

    /// The CMux fold against the sequence it replaced — reduce both
    /// external products, scale each by its materialized `X^{∓a} − 1`, add
    /// the two to the accumulator in turn — at the exponents around the
    /// negacyclic wrap, on the paper's 36-bit limbs and on 45-bit ones, the
    /// widest every ring admits, with three digits.
    #[test]
    fn fused_cmux_update_matches_factor_multiply_add() {
        const N: usize = 64;
        let shapes = [
            (36, RgswParams::paper()),
            (
                45,
                RgswParams {
                    base_bits: 15,
                    digits: 3,
                },
            ),
        ];
        for (bits, p) in shapes {
            let c = RnsContext::new(N, &ntt_primes(N as u64, bits, 2));
            let monomials = MonomialEvals::new(&c, 2);
            let mut rng = StdRng::seed_from_u64(u64::from(bits));
            let sk = RingSecretKey::generate(&c, 2, &mut rng);
            let keys = [1, -1].map(|m| RgswCiphertext::encrypt_scalar(&c, &sk, m, 2, &p, &mut rng));
            let mut part = || {
                let limbs = (0..2)
                    .map(|j| heap_math::sample::uniform_poly(&mut rng, N, c.modulus(j).value()));
                RnsPoly::from_limbs(limbs.collect(), Domain::Eval)
            };
            let acc = RlweCiphertext {
                a: part(),
                b: part(),
            };

            let mut scratch = ExternalProductScratch::default();
            let [mut pos, mut neg] = [0, 1].map(|_| RlweCiphertext::zero(&c, 2));
            crate::rgsw::external_product_pair_into(
                &acc,
                &keys[0],
                &keys[1],
                &c,
                &p,
                &mut scratch,
                &mut pos,
                &mut neg,
            );
            for a in [1, N - 1, N, N + 1, 2 * N - 1] {
                let mut want = acc.clone();
                for (term, exp) in [(&pos, 2 * N - a), (&neg, a)] {
                    let factor = crate::oracle::factor(&monomials, exp, &c);
                    for (out, part) in [(&mut want.a, &term.a), (&mut want.b, &term.b)] {
                        for j in 0..2 {
                            let q = c.modulus(j);
                            let f = &factor[j * N..(j + 1) * N];
                            for ((o, &x), &fx) in
                                out.limb_mut(j).iter_mut().zip(part.limb(j)).zip(f)
                            {
                                *o = q.add(*o, q.mul(x, fx));
                            }
                        }
                    }
                }
                let mut accs = vec![acc.clone()];
                let finish = Finish::Fold {
                    accs: &mut accs,
                    exps: &[a],
                    monomials: &monomials,
                };
                external_product_core(&[0], [&keys[0], &keys[1]], &c, &p, &mut scratch, finish);
                let got = &accs[0];
                assert!(got.a == want.a && got.b == want.b, "{bits}-bit, a = {a}");
            }
        }
    }
}
