//! Scheme-switched CKKS bootstrapping (paper §III, Algorithm 2 / Fig. 1b).
//!
//! The pipeline refreshes an exhausted single-limb CKKS ciphertext back to
//! the full modulus without any homomorphic polynomial evaluation:
//!
//! 1. **Extract** one LWE ciphertext per packed coefficient (Eq. 2) and
//!    key-switch it to the small TFHE dimension `n_t`;
//! 2. **ModulusSwitch** each LWE from `q_0` down to `2N`;
//! 3. **BlindRotate** every LWE in parallel with the test polynomial
//!    `g(u) = q_0·u` over the raised basis `Q·p` — this homomorphically
//!    recovers `q_0·u ≈ 2N·(Δm + e)`, eliminating the `k·q_0` wrap term
//!    by construction (the mod-`2N` phase cannot see it);
//! 4. **Repack** the rotation outputs into one RLWE ciphertext
//!    (automorphism tree, factor `N`). Algorithm 2 extracts each output's
//!    constant coefficient and re-embeds it first; that round trip keeps
//!    `a` and `b_0`, so each accumulator is cut to its leaf directly
//!    ([`crate::repack::accumulator_leaf`]);
//! 5. **Combine**: multiply by `t = round(p / (2N·N))` and `Rescale` by
//!    the auxiliary prime `p`, landing on a fresh `L`-limb ciphertext.
//!
//! Ordering note: the paper extracts from the already modulus-switched
//! `ct_ms` and removes `k·q` by adding the separate `ct' = 2N·ct` term; we
//! extract at `q_0`, key-switch there (better noise), and fold the whole
//! correction into the lookup value `q_0·u`. Both formulations leave the
//! same dominant error term — the mod-switch rounding times `q_0` — and
//! the same step structure and costs; see DESIGN.md.

use rand::Rng;

use heap_ckks::{Ciphertext, CkksContext, GaloisKeys, SecretKey};
use heap_math::wire::derive_seed;
use heap_math::{ParamSet, RnsPoly};
use heap_parallel::{par_chunks_init, par_map, Parallelism};
use heap_tfhe::extract::extract_coefficient;
use heap_tfhe::{
    test_polynomial_from_fn, BlindRotateKey, BlindRotateScratch, LweCiphertext, LweKeySwitchKey,
    LweSecretKey, RgswParams, RingSecretKey, RlweCiphertext,
};

use crate::repack::{accumulator_leaf, pack_lwes, repack_exponents, repack_factor};
use crate::stage::StageMetrics;

/// Most accumulators rotated together against one streamed key (HEAP
/// §IV-E). For each key row — one limb of both parts of a row of `brk_i^+`
/// and `brk_i^-`, `4·8N` bytes, read as stored — the MAC transforms every
/// member's `i32` digit (`4N` bytes) into an `8N`-byte operand buffer, then
/// walks the tile's `4T` lazy-MAC slots (`f64` sums, `8N` bytes each) in
/// blocks of 128 coefficients (`heap_math`'s `MAC_BLOCK`), so one block of
/// every slot, operand and key vector stays in L1 (47 KB at `T = 8`) while
/// each key vector, converted once, meets every member. At `N = 2^11` the
/// L2 must hold the slots (544 KB at `T = 8`, padding included), the
/// operands (136 KB) and the key row (64 KB): 744 KB, which leaves a 2 MB
/// L2 room for the tile's digit store to stream past (`T·2·limbs·digits`
/// rows of `4N` bytes, 1.3 MB on Medium, half what `i64` digits took); at
/// 16 the slots alone take 1.1 MB, and below 4 the key is streamed too
/// often (a worker streams it `ceil(chunk / TILE)` times per batch). Re-measured after the
/// datapath went to `f64` lanes (EXPERIMENTS.md "One f64 lane from digit to
/// accumulator"): on `lib-medium-sparse` tiles of 4 and of 8 differ by 1 %,
/// inside an 8 % spread between identical binaries, so 8 stays.
const TILE: usize = 8;

/// Configuration of the scheme-switched bootstrap.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// TFHE LWE mask dimension `n_t` (paper: 500).
    pub n_t: usize,
    /// LWE key-switch gadget base bits.
    pub ks_base_bits: u32,
    /// LWE key-switch gadget digits.
    pub ks_digits: usize,
    /// RGSW gadget for blind rotation (paper: `d = 2`).
    pub rgsw: RgswParams,
    /// Ciphertext-level data parallelism for the extract / mod-switch /
    /// blind-rotate pipeline (the loop HEAP spreads across FPGAs).
    /// Results are bit-identical for every thread count.
    pub parallelism: Parallelism,
}

impl From<ParamSet> for BootstrapConfig {
    /// The set's `n_t` and both gadgets, at the default [`Parallelism`].
    fn from(set: ParamSet) -> Self {
        Self {
            n_t: set.n_t,
            ks_base_bits: set.ks_base_bits,
            ks_digits: set.ks_digits,
            rgsw: RgswParams::from(set),
            parallelism: Parallelism::default(),
        }
    }
}

impl BootstrapConfig {
    /// [`ParamSet::PAPER`]'s configuration (§III-C): `n_t = 500`, `d = 2`.
    pub fn paper() -> Self {
        ParamSet::PAPER.into()
    }

    /// [`ParamSet::SMALL`]'s configuration, which [`ParamSet::TINY`]
    /// shares: `n_t = 32`, gadgets for limbs of up to 30 bits.
    pub fn test_small() -> Self {
        ParamSet::SMALL.into()
    }

    /// Returns the config with a different [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The public evaluation keys a bootstrapper runs on, separated from the
/// precomputation so they can be serialized, reseeded, and shipped to
/// remote nodes (`heap-keys` builds its wire bundles from this).
#[derive(Debug, Clone)]
pub struct GeneratedKeys {
    /// LWE key switch: ring dimension `N` → `n_t`, over `q_0`.
    pub ksk: LweKeySwitchKey,
    /// Blind rotation key over the raised basis.
    pub brk: BlindRotateKey,
    /// Galois keys for the repacking automorphism tree.
    pub gks: GaloisKeys,
}

/// Generates the bootstrap evaluation keys for `sk`.
///
/// The ephemeral TFHE LWE secret is sampled internally and dropped; only
/// evaluation-key material is returned. The RNG stream is identical to
/// [`Bootstrapper::generate`]'s (which delegates here) and to
/// [`generate_keys_reseeded`]'s, so fixed-seed key digests are stable
/// across all three entry points.
pub fn generate_keys<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    config: BootstrapConfig,
    rng: &mut R,
) -> GeneratedKeys {
    generate_with_secrets(ctx, sk, config, rng).0
}

/// [`generate_keys`] followed by the reseed transform: every uniform mask
/// in every key is replaced by a PRG stream derived from `master`
/// (sub-seeds `"ksk"`, `"brk"`, `"gks"` via
/// [`heap_math::wire::derive_seed`]), with bodies corrected so all phases
/// are preserved exactly. The result is seed-expandable: its wire encoding
/// can ship only the seed plus the `b` halves (see `heap-keys`).
pub fn generate_keys_reseeded<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    config: BootstrapConfig,
    master: u64,
    rng: &mut R,
) -> GeneratedKeys {
    let (mut keys, lwe_sk, ring_sk) = generate_with_secrets(ctx, sk, config, rng);
    let q0 = ctx.q_modulus(0);
    heap_tfhe::reseed_ksk(&mut keys.ksk, &lwe_sk, q0, derive_seed(master, b"ksk"));
    heap_tfhe::reseed_brk(
        &mut keys.brk,
        ctx.rns(),
        &ring_sk,
        derive_seed(master, b"brk"),
    );
    heap_ckks::reseed_galois_keys(&mut keys.gks, ctx, sk, derive_seed(master, b"gks"));
    keys
}

/// The one keygen body: the keys plus the two secrets the reseed transform
/// re-encrypts under (the LWE secret and `sk` over the boot basis).
fn generate_with_secrets<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    config: BootstrapConfig,
    rng: &mut R,
) -> (GeneratedKeys, LweSecretKey, RingSecretKey) {
    let boot_limbs = ctx.boot_limbs();
    let rns = ctx.rns();
    let ring_sk = RingSecretKey::from_coeffs(rns, boot_limbs, sk.coeffs().to_vec());
    let lwe_sk = LweSecretKey::generate(rng, config.n_t);
    let ring_as_lwe = LweSecretKey::from_coeffs(sk.coeffs().to_vec());
    let ksk = LweKeySwitchKey::generate(
        &ring_as_lwe,
        &lwe_sk,
        ctx.q_modulus(0),
        config.ks_base_bits,
        config.ks_digits,
        rng,
    );
    let brk = BlindRotateKey::generate(rns, &lwe_sk, &ring_sk, boot_limbs, config.rgsw, rng);
    let mut gks = GaloisKeys::new();
    for g in repack_exponents(ctx.n()) {
        gks.add_exponent(ctx, sk, g, rng);
    }
    (GeneratedKeys { ksk, brk, gks }, lwe_sk, ring_sk)
}

/// Holds all (public) key material and precomputation for bootstrapping.
///
/// # Examples
///
/// See `examples/scheme_switch_bootstrap.rs` and the crate-level docs.
#[derive(Debug)]
pub struct Bootstrapper {
    config: BootstrapConfig,
    /// LWE key switch: ring dimension `N` → `n_t`, over `q_0`.
    ksk: LweKeySwitchKey,
    /// Blind rotation key over the raised basis.
    brk: BlindRotateKey,
    /// Galois keys for the repacking automorphism tree.
    gks: GaloisKeys,
    /// Test polynomial encoding `g(u) = q_0 · u`.
    test_poly: RnsPoly,
    /// Final plain scalar `t = round(p / (2N·N))`.
    t_scalar: i64,
    /// Always-on per-stage latency histograms (recording is
    /// allocation-free, so there is no "off" mode to maintain).
    stages: StageMetrics,
}

impl Bootstrapper {
    /// Generates all bootstrap keys for `sk`.
    ///
    /// The ephemeral TFHE LWE secret is sampled internally and dropped; only
    /// evaluation-key material is retained.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        config: BootstrapConfig,
        rng: &mut R,
    ) -> Self {
        Self::from_keys(ctx, config, generate_keys(ctx, sk, config, rng))
    }

    /// Builds a bootstrapper from already-generated (possibly
    /// wire-distributed) evaluation keys, rebuilding the secret-free
    /// precomputation (test polynomial, `t`; the repacking tree shifts by
    /// the blind-rotate key's monomial tables).
    pub fn from_keys(ctx: &CkksContext, config: BootstrapConfig, keys: GeneratedKeys) -> Self {
        let boot_limbs = ctx.boot_limbs();
        let rns = ctx.rns();
        let q0_val = ctx.q_modulus(0).value() as i64;
        let test_poly = test_polynomial_from_fn(rns, boot_limbs, |u| q0_val * u);
        let denom = 2 * ctx.n() as u64 * repack_factor(ctx.n());
        let t_scalar = ((ctx.aux_modulus().value() as f64) / denom as f64).round() as i64;
        assert!(
            t_scalar >= 1,
            "aux prime too small for N: increase aux_bits"
        );
        Self {
            config,
            ksk: keys.ksk,
            brk: keys.brk,
            gks: keys.gks,
            test_poly,
            t_scalar,
            stages: StageMetrics::new(),
        }
    }

    /// The LWE key-switching key (wire bundling reads it back out).
    pub fn ksk(&self) -> &LweKeySwitchKey {
        &self.ksk
    }

    /// The repacking Galois keys.
    pub fn galois_keys(&self) -> &GaloisKeys {
        &self.gks
    }

    /// Per-stage latency histograms accumulated by this bootstrapper.
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.stages
    }

    /// This bootstrapper recording into `stages` instead of its own set,
    /// so that every key a node expands times its rotations in the node's
    /// one set.
    pub fn with_stage_metrics(self, stages: StageMetrics) -> Self {
        Self { stages, ..self }
    }

    /// The configuration used at generation time.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// The blind-rotation key (key bundling reads it back out).
    pub fn brk(&self) -> &BlindRotateKey {
        &self.brk
    }

    /// Refreshes every coefficient: the fully-packed bootstrap
    /// (`n_br = N`).
    pub fn bootstrap(&self, ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
        let indices: Vec<usize> = (0..ctx.n()).collect();
        self.bootstrap_indices(ctx, ct, &indices)
    }

    /// Sparse bootstrap: refreshes only coefficients on the stride-`N/n_br`
    /// comb (positions `0, N/n_br, 2N/n_br, …`). All other coefficients of
    /// the result are (approximately) zero, so the input message must be
    /// supported on the comb.
    ///
    /// This is the paper's `n_br` knob: the number of extracted LWE
    /// ciphertexts — and hence blind rotations — equals `n_br` (§V).
    ///
    /// # Panics
    ///
    /// Panics if `n_br` is zero, exceeds `N`, or does not divide `N`.
    pub fn bootstrap_sparse(&self, ctx: &CkksContext, ct: &Ciphertext, n_br: usize) -> Ciphertext {
        let n = ctx.n();
        assert!(
            n_br >= 1 && n_br <= n && n.is_multiple_of(n_br),
            "invalid n_br"
        );
        let stride = n / n_br;
        let indices: Vec<usize> = (0..n).step_by(stride).collect();
        self.bootstrap_indices(ctx, ct, &indices)
    }

    /// Bootstraps an explicit set of coefficient indices.
    pub fn bootstrap_indices(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
    ) -> Ciphertext {
        self.run(ctx, ct, indices, &self.test_poly)
    }

    /// Functional bootstrap (paper §III-A): refreshes the ciphertext while
    /// evaluating `f` on every selected coefficient — "the function `f` can
    /// be set as required by the application ... sigmoid, exponentiation,
    /// or ReLU".
    ///
    /// `f` receives and produces *message-space* values (coefficients
    /// divided by the scale); the output ciphertext is at full level with
    /// a scale close to the input's. `f` must stay negacyclic-safe:
    /// it is only evaluated for inputs with `|Δ·f_in| < q_0/4`.
    pub fn bootstrap_eval(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
        f: impl Fn(f64) -> f64,
    ) -> Ciphertext {
        // Custom LUT: u ↦ 2N·Δ·f(u·q_0 / (2N·Δ)), the generalization of the
        // identity LUT q_0·u used by the plain bootstrap.
        let n = ctx.n() as f64;
        let q0 = ctx.q_modulus(0).value() as f64;
        let delta = ct.scale();
        let lut = test_polynomial_from_fn(ctx.rns(), ctx.boot_limbs(), |u| {
            let m_in = u as f64 * q0 / (2.0 * n * delta);
            (2.0 * n * delta * f(m_in)).round() as i64
        });
        self.run(ctx, ct, indices, &lut)
    }

    /// The five steps over one LUT: the plain bootstrap rotates by
    /// `self.test_poly`, the functional one by its own.
    fn run(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
        lut: &RnsPoly,
    ) -> Ciphertext {
        let lwes = self.extract_lwes(ctx, ct, indices);
        let switched = self.modulus_switch(ctx, &lwes);
        let rotated = self.rotate_tiled(ctx, lut, &switched, self.config.parallelism);
        let leaves = self.to_leaves(ctx, &rotated, indices);
        self.finish(ctx, leaves, ct.scale())
    }

    // ------------------------------------------------------------------
    // Step-by-step API mirroring Fig. 1b
    // ------------------------------------------------------------------

    /// Step 1 — `Extract` + LWE dimension switch: one small-dimension LWE
    /// ciphertext (mod `q_0`) per requested coefficient.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not at the last level (one limb).
    pub fn extract_lwes(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
    ) -> Vec<LweCiphertext> {
        assert_eq!(
            ct.limbs(),
            1,
            "bootstrap expects an exhausted (single-limb) ciphertext"
        );
        let _span = self.stages.extract.time();
        let rns = ctx.rns();
        let q0 = ctx.q_modulus(0);
        let mut c0 = ct.c0().clone();
        let mut c1 = ct.c1().clone();
        c0.to_coeff(rns);
        c1.to_coeff(rns);
        // Coefficient extraction + key switch is independent per index —
        // parallel over the batch like every other pipeline stage.
        par_map(self.config.parallelism, indices, |_, &i| {
            let big = extract_coefficient(c1.limb(0), c0.limb(0), i, q0);
            self.ksk.switch(&big, q0)
        })
    }

    /// Step 2 — `ModulusSwitch` every LWE from `q_0` to `2N`.
    pub fn modulus_switch(&self, ctx: &CkksContext, lwes: &[LweCiphertext]) -> Vec<LweCiphertext> {
        let _span = self.stages.mod_switch.time();
        let two_n = 2 * ctx.n() as u64;
        par_map(self.config.parallelism, lwes, |_, l| {
            l.modulus_switch(two_n)
        })
    }

    /// Step 3 — `BlindRotate` each LWE (no data dependencies between
    /// iterations: this is the loop HEAP spreads across FPGAs; here it
    /// spreads over the configured worker threads, each with its own
    /// scratch so the rotation loop never allocates).
    pub fn blind_rotate_batch(
        &self,
        ctx: &CkksContext,
        lwes: &[LweCiphertext],
    ) -> Vec<RlweCiphertext> {
        self.blind_rotate_batch_par(ctx, lwes, self.config.parallelism)
    }

    /// [`Bootstrapper::blind_rotate_batch`] with an explicit parallelism
    /// override (used by service nodes, which own a thread budget).
    pub fn blind_rotate_batch_par(
        &self,
        ctx: &CkksContext,
        lwes: &[LweCiphertext],
        par: Parallelism,
    ) -> Vec<RlweCiphertext> {
        self.rotate_tiled(ctx, &self.test_poly, lwes, par)
    }

    /// Rotates `lwes` by `lut`, timed as the `blind_rotate` stage: every
    /// worker walks its contiguous chunk in evenly sized key-major tiles of
    /// at most [`TILE`] members, with one scratch per worker so the rotation
    /// loop never allocates. A tile is bit-identical to rotating its members
    /// one by one, so the result depends on neither the thread count nor
    /// the tiling.
    fn rotate_tiled(
        &self,
        ctx: &CkksContext,
        lut: &RnsPoly,
        lwes: &[LweCiphertext],
        par: Parallelism,
    ) -> Vec<RlweCiphertext> {
        let _span = self.stages.blind_rotate.time();
        par_chunks_init(
            par,
            lwes,
            BlindRotateScratch::default,
            |scratch, _, chunk| {
                let tiles = chunk.len().div_ceil(TILE);
                chunk
                    .chunks(chunk.len().div_ceil(tiles))
                    .flat_map(|t| self.brk.blind_rotate_batch_with(ctx.rns(), lut, t, scratch))
                    .collect()
            },
        )
    }

    /// A single blind rotation (exposed so clusters can schedule batches).
    pub fn blind_rotate_one(&self, ctx: &CkksContext, lwe: &LweCiphertext) -> RlweCiphertext {
        self.brk.blind_rotate(ctx.rns(), &self.test_poly, lwe)
    }

    /// Step 4a — cut each rotation to its repacking leaf (Extract then
    /// re-embed, without the round trip: [`accumulator_leaf`]) and position
    /// it on the tree.
    pub fn to_leaves(
        &self,
        ctx: &CkksContext,
        rotated: &[RlweCiphertext],
        indices: &[usize],
    ) -> Vec<Option<RlweCiphertext>> {
        assert_eq!(rotated.len(), indices.len());
        let mut leaves = vec![None; ctx.n()];
        for (acc, &i) in rotated.iter().zip(indices) {
            leaves[i] = Some(accumulator_leaf(acc, ctx.rns()));
        }
        leaves
    }

    /// Steps 4b + 5 — repack, multiply by `t`, and `Rescale` by the aux
    /// prime, producing the refreshed full-level ciphertext.
    pub fn finish(
        &self,
        ctx: &CkksContext,
        leaves: Vec<Option<RlweCiphertext>>,
        input_scale: f64,
    ) -> Ciphertext {
        let repack_span = self.stages.repack.time();
        let (mut a, mut b) = pack_lwes(ctx, leaves, &self.gks, self.brk.monomials());
        let rns = ctx.rns();
        a.scalar_mul_assign(self.t_scalar, rns);
        b.scalar_mul_assign(self.t_scalar, rns);
        drop(repack_span);
        // Packed phase per coefficient: N · q_0 · u ≈ N · 2N · (Δ·m),
        // so after ·t and rescale-by-p the scale is Δ·(N·2N·t/p).
        let n = ctx.n() as f64;
        let factor = n * 2.0 * n * self.t_scalar as f64 / ctx.aux_modulus().value() as f64;
        let tmp = Ciphertext::new(
            b,
            a,
            input_scale * factor * ctx.aux_modulus().value() as f64,
        );
        // Rescale divides the tracked scale by the dropped prime (= aux).
        let rescale_span = self.stages.rescale.time();
        let ctx_rescaled = ctx.rescale(&tmp);
        drop(rescale_span);
        debug_assert_eq!(ctx_rescaled.limbs(), ctx.max_limbs());
        ctx_rescaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_ckks::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, Bootstrapper, StdRng) {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(9);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
        (ctx, sk, boot, rng)
    }

    #[test]
    fn fully_packed_bootstrap_refreshes_coefficients() {
        let (ctx, sk, boot, mut rng) = setup();
        let n = ctx.n();
        let delta = ctx.fresh_scale();
        // Message in coefficient space, |m| <= 0.15 so |phase| < q0/4.
        let msg: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 50.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        assert_eq!(ct.limbs(), 1);
        let fresh = boot.bootstrap(&ctx, &ct);
        assert_eq!(fresh.limbs(), ctx.max_limbs(), "levels restored");
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        for i in 0..n {
            let got = dec[i] / fresh.scale();
            assert!(
                (got - msg[i]).abs() < 0.02,
                "coeff {i}: got {got}, want {}",
                msg[i]
            );
        }
    }

    #[test]
    fn sparse_bootstrap_comb() {
        let (ctx, sk, boot, mut rng) = setup();
        let n = ctx.n();
        let delta = ctx.fresh_scale();
        let n_br = 16usize;
        let stride = n / n_br;
        let mut msg = vec![0f64; n];
        for j in (0..n).step_by(stride) {
            msg[j] = ((j / stride) as f64 - 8.0) / 60.0;
        }
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let fresh = boot.bootstrap_sparse(&ctx, &ct, n_br);
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        for i in 0..n {
            let got = dec[i] / fresh.scale();
            assert!(
                (got - msg[i]).abs() < 0.02,
                "coeff {i}: got {got}, want {}",
                msg[i]
            );
        }
    }

    #[test]
    fn sign_comparison_under_encryption() {
        // Homomorphic comparison against 0 — TFHE's signature strength,
        // impossible in plain CKKS without a deep polynomial.
        let (ctx, sk, boot, mut rng) = setup();
        let delta = ctx.fresh_scale();
        let n = ctx.n();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 60.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let indices: Vec<usize> = (0..n).collect();
        let sign = |x: f64| {
            if x > 0.005 {
                0.1
            } else if x < -0.005 {
                -0.1
            } else {
                0.0
            }
        };
        let out = boot.bootstrap_eval(&ctx, &ct, &indices, sign);
        assert_eq!(out.limbs(), ctx.max_limbs(), "switch refreshes levels");
        let dec = ctx.decrypt_coeffs(&out, &sk);
        let mut correct = 0;
        for (i, m) in msg.iter().enumerate() {
            if sign(*m) == 0.0 {
                continue; // skip the dead-zone inputs
            }
            let got = dec[i] / out.scale();
            if (got - sign(*m)).abs() < 0.05 {
                correct += 1;
            }
        }
        let total = msg.iter().filter(|m| sign(**m) != 0.0).count();
        assert!(
            correct as f64 >= total as f64 * 0.95,
            "{correct}/{total} comparisons correct"
        );
    }

    #[test]
    fn manual_round_trip_matches_eval() {
        let (ctx, sk, boot, mut rng) = setup();
        let delta = ctx.fresh_scale();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta) as i64)
            .collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let indices = [0usize, 8, 16];
        // The Fig. 1b step methods, one at a time.
        let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
        assert_eq!(lwes.len(), 3);
        assert_eq!(lwes[0].modulus, 2 * ctx.n() as u64);
        let rotated = boot.blind_rotate_batch(&ctx, &lwes);
        let leaves = boot.to_leaves(&ctx, &rotated, &indices);
        let out = boot.finish(&ctx, leaves, ct.scale());
        // One-shot pipeline: the same steps, so the same bits.
        let direct = boot.bootstrap_indices(&ctx, &ct, &indices);
        assert_eq!(out.c0(), direct.c0());
        assert_eq!(out.c1(), direct.c1());
        // The function LUT at f = id generalizes the identity LUT.
        let eval = boot.bootstrap_eval(&ctx, &ct, &indices, |x| x);
        let a = ctx.decrypt_coeffs(&eval, &sk);
        let b = ctx.decrypt_coeffs(&direct, &sk);
        for &i in &indices {
            assert!(
                (a[i] / eval.scale() - b[i] / direct.scale()).abs() < 1e-3,
                "index {i}"
            );
        }
    }

    #[test]
    fn functional_bootstrap_records_each_stage_once() {
        use crate::stage::{stage_metric_name, PIPELINE_STAGES};
        let (ctx, sk, boot, mut rng) = setup();
        let ct = ctx.encrypt_coeffs_sk(&vec![0; ctx.n()], ctx.fresh_scale(), 1, &sk, &mut rng);
        boot.bootstrap_eval(&ctx, &ct, &[0, 64], |x| x);
        let snap = boot.stage_metrics().registry().snapshot();
        for stage in PIPELINE_STAGES {
            let h = snap.histogram(&stage_metric_name(stage)).expect(stage);
            assert_eq!(h.count, 1, "{stage}");
        }
    }

    #[test]
    fn parallel_bootstrap_is_bit_identical_to_serial() {
        // The acceptance bar for the parallel engine: fixed RNG seed, same
        // input ciphertext, every thread count — byte-for-byte identical
        // output. Scheduling must never reorder arithmetic.
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(1234);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small().with_parallelism(Parallelism::serial());
        let boot = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
        let n = ctx.n();
        let delta = ctx.fresh_scale();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 60.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

        let serial = boot.bootstrap(&ctx, &ct);
        for threads in [2, 4, 8] {
            // Re-generate the bootstrapper with the identical RNG stream so
            // only the parallelism differs (keygen itself stays sequential).
            let mut rng = StdRng::seed_from_u64(1234);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let config =
                BootstrapConfig::test_small().with_parallelism(Parallelism::with_threads(threads));
            let boot = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
            let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
            let par = boot.bootstrap(&ctx, &ct);
            assert_eq!(par.c0(), serial.c0(), "threads = {threads}");
            assert_eq!(par.c1(), serial.c1(), "threads = {threads}");
            assert_eq!(par.scale(), serial.scale(), "threads = {threads}");
        }
    }

    #[test]
    fn from_keys_matches_generate_bit_exactly() {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(321);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys(&ctx, &sk, config, &mut rng);
        let via_keys = Bootstrapper::from_keys(&ctx, config, keys);

        let mut rng = StdRng::seed_from_u64(321);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let direct = Bootstrapper::generate(&ctx, &sk, config, &mut rng);

        let delta = ctx.fresh_scale();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| (((i % 7) as f64 - 3.0) / 40.0 * delta).round() as i64)
            .collect();
        let mut crng = StdRng::seed_from_u64(555);
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut crng);
        let a = via_keys.bootstrap(&ctx, &ct);
        let b = direct.bootstrap(&ctx, &ct);
        assert_eq!(a.c0(), b.c0());
        assert_eq!(a.c1(), b.c1());
    }

    #[test]
    fn reseeded_keys_bootstrap_correctly() {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(777);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys_reseeded(&ctx, &sk, config, 0xBEEF, &mut rng);
        let boot = Bootstrapper::from_keys(&ctx, config, keys);
        let n = ctx.n();
        let delta = ctx.fresh_scale();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 50.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let fresh = boot.bootstrap(&ctx, &ct);
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        for i in 0..n {
            let got = dec[i] / fresh.scale();
            assert!(
                (got - msg[i]).abs() < 0.02,
                "coeff {i}: got {got}, want {}",
                msg[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn bootstrap_rejects_multi_limb_input() {
        let (ctx, sk, boot, mut rng) = setup();
        let ct = ctx.encrypt_real_sk(&[0.1], &sk, &mut rng);
        boot.bootstrap(&ctx, &ct);
    }

    #[test]
    #[should_panic(expected = "invalid n_br")]
    fn sparse_rejects_non_divisor() {
        let (ctx, sk, boot, mut rng) = setup();
        let delta = ctx.fresh_scale();
        let coeffs = vec![0i64; ctx.n()];
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        boot.bootstrap_sparse(&ctx, &ct, 3);
    }
}
