//! Public evaluation-key bundles and the node-side key cache for HEAP's
//! distributed runtime.
//!
//! HEAP's clusters used to be keyed by sharing one secret RNG seed with
//! every node — convenient, but it hands each node the secret key. This
//! crate replaces that with *wire-distributed public keys*:
//!
//! - [`EvalKeySet`] bundles the three bootstrap evaluation keys (LWE
//!   key-switch, blind-rotate, repacking Galois) behind one content
//!   fingerprint ([`KeyId`], XXH64 over the canonical strict encoding)
//!   and a versioned container encoding (`EKS1`). The id is a cache key
//!   and a parity check against accidental mismatch, not a MAC: a node
//!   recomputes it from the keys it expanded, but a tenant who chooses
//!   keys could search for two sets that share one.
//! - The **seed-expandable** encoding ships only the PRG seed for the
//!   uniform `a` halves plus the explicit `b` halves (the ARK play,
//!   mirroring HEAP §III-C's key-traffic concern); the receiver
//!   regenerates the masks deterministically. The strict encoding stays
//!   as the parity oracle: expanding a seeded buffer and re-encoding
//!   strictly must reproduce the strict bytes bit for bit — which is also
//!   how [`EvalKeySet::from_wire`] recomputes the id, streaming that
//!   re-encoding through the hash without materialising it.
//! - [`KeyCache`] is the node-side LRU (byte-budgeted) so repeated
//!   sessions against the same key pay the upload once; hit/miss/eviction
//!   counts surface through a `heap-telemetry` registry.

pub mod cache;

use heap_ckks::{gks_from_wire, gks_write};
use heap_ckks::{CkksContext, GaloisKeys};
use heap_core::{BootstrapConfig, Bootstrapper, GeneratedKeys, StageMetrics};
use heap_math::wire::{derive_seed, WireError, WireReader, WireWriter};
use heap_math::ParamSet;
use heap_tfhe::{
    brk_from_wire, brk_write, ksk_from_wire, ksk_write, BlindRotateKey, LweKeySwitchKey,
};

pub use cache::KeyCache;

const EKS_MAGIC: u32 = 0x454B_5331; // "EKS1"
/// Version 1 carried a blind-rotate backend byte after the version (a
/// 26-byte header); version 2 is the 25-byte header without it.
const EKS_VERSION: u8 = 2;

/// Content fingerprint of an [`EvalKeySet`]: XXH64 (seed 0) over its
/// canonical strict encoding, so a strict and a seeded container of one
/// key set share it. Nodes advertise the ids they hold; the scheduler
/// routes batches to nodes that already cache the batch's key.
///
/// What it guarantees: equal keys have equal ids, and a node that expands
/// an upload recomputes the id and refuses one that differs from the
/// offer, which catches an accidental mismatch (a corrupted expansion, a
/// peer on another id function). Equal ids do not prove equal keys: the
/// hash is not collision-resistant against a tenant who chooses keys to
/// collide, as FNV-1a before it was not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The bootstrap evaluation keys plus everything needed to encode them:
/// the shape header and (when the keys were reseeded) the master seed the
/// seed-expandable encoding embeds.
#[derive(Debug, Clone)]
pub struct EvalKeySet {
    id: KeyId,
    config: BootstrapConfig,
    keys: GeneratedKeys,
    reseed: Option<u64>,
}

impl EvalKeySet {
    /// Wraps generated keys, computing the content id — XXH64 over the
    /// canonical strict encoding — by streaming that encoding through a
    /// hashing writer: the strict bytes are never materialised.
    ///
    /// `reseed` must be the master seed passed to
    /// [`heap_core::generate_keys_reseeded`], or `None` for plainly
    /// generated keys (which then only support the strict encoding).
    pub fn new(
        ctx: &CkksContext,
        config: BootstrapConfig,
        keys: GeneratedKeys,
        reseed: Option<u64>,
    ) -> Self {
        let mut set = Self {
            id: KeyId(0),
            config,
            keys,
            reseed,
        };
        let mut hasher = WireWriter::hashing();
        set.encode(ctx, false, &mut hasher);
        set.id = KeyId(hasher.into_xxh64());
        set
    }

    /// Rebuilds a key set from a bootstrapper's public keys (the
    /// insecure-seed compatibility path: every node derived the same keys
    /// locally, and this recovers the id they should advertise).
    pub fn from_bootstrapper(ctx: &CkksContext, boot: &Bootstrapper) -> Self {
        let keys = GeneratedKeys {
            ksk: boot.ksk().clone(),
            brk: boot.brk().clone(),
            gks: boot.galois_keys().clone(),
        };
        Self::new(ctx, *boot.config(), keys, None)
    }

    /// The content fingerprint.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// The bootstrap configuration the keys were generated under.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// Builds a bootstrapper from this key set, timing its stages into a
    /// set of its own.
    pub fn into_bootstrapper(self, ctx: &CkksContext) -> Bootstrapper {
        self.into_bootstrapper_with(ctx, StageMetrics::new())
    }

    /// Builds the node-side bootstrapper from this key set, timing its
    /// stages into `stages` (the node's one set, shared by every key it
    /// expands).
    pub fn into_bootstrapper_with(self, ctx: &CkksContext, stages: StageMetrics) -> Bootstrapper {
        Bootstrapper::from_keys(ctx, self.config, self.keys, stages)
    }

    /// Writes the container into `w`; each key encoder writes its section
    /// in place behind a prefix measured from that encoder.
    fn encode(&self, ctx: &CkksContext, seeded: bool, w: &mut WireWriter) {
        assert!(
            !seeded || self.reseed.is_some(),
            "seeded encoding requires reseeded keys"
        );
        let seed = |label: &[u8]| {
            self.reseed
                .filter(|_| seeded)
                .map(|m| derive_seed(m, label))
        };
        w.put_u32(EKS_MAGIC);
        w.put_u8(EKS_VERSION);
        w.put_u32(self.config.n_t as u32);
        w.put_u32(self.config.ks_base_bits);
        w.put_u32(self.config.ks_digits as u32);
        w.put_u32(self.config.rgsw.base_bits);
        w.put_u32(self.config.rgsw.digits as u32);
        w.put_section("EKS key-switch key", |w| {
            ksk_write(w, &self.keys.ksk, ctx.q_modulus(0), seed(b"ksk"));
        });
        w.put_section("EKS blind-rotate key", |w| {
            brk_write(w, &self.keys.brk, ctx.rns(), seed(b"brk"));
        });
        w.put_section("EKS Galois keys", |w| {
            gks_write(w, &self.keys.gks, ctx, seed(b"gks"));
        });
    }

    fn to_wire(&self, ctx: &CkksContext, seeded: bool) -> Vec<u8> {
        WireWriter::encode(|w| self.encode(ctx, seeded, w))
    }

    /// Canonical strict encoding: every mask explicit. This is what
    /// [`KeyId`] fingerprints.
    pub fn to_strict_wire(&self, ctx: &CkksContext) -> Vec<u8> {
        self.to_wire(ctx, false)
    }

    /// Length of [`Self::to_strict_wire`]'s output, measured without
    /// encoding it.
    pub fn strict_len(&self, ctx: &CkksContext) -> usize {
        WireWriter::measure(|w| self.encode(ctx, false, w))
    }

    /// Seed-expandable encoding: uniform masks replaced by embedded PRG
    /// seeds (roughly halving the bytes).
    ///
    /// # Panics
    ///
    /// Panics if the keys were not reseeded.
    pub fn to_seeded_wire(&self, ctx: &CkksContext) -> Vec<u8> {
        self.to_wire(ctx, true)
    }

    /// Decodes a container written by [`Self::to_strict_wire`] or
    /// [`Self::to_seeded_wire`], expanding seeded masks and recomputing
    /// the id over the canonical strict encoding of what was expanded —
    /// the production parity oracle: a receiver comparing this id against
    /// the sender's offer proves the expansion reproduced the exact key
    /// bits.
    ///
    /// Nothing is expanded before its shape is pinned to `ctx`: the
    /// key-switch key must map `ctx.n()` to the header's `n_t ≤ ctx.n()`
    /// with no superfluous gadget digit, and the other two sections are
    /// checked against `ctx` by their own decoders — so what an upload can
    /// make a node allocate is bounded by the ring the node was started
    /// on, not by the upload's headers.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, any field inconsistent with
    /// `ctx` or between header and inner encodings, or trailing bytes.
    pub fn from_wire(ctx: &CkksContext, buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        if r.get_u32()? != EKS_MAGIC {
            return Err(WireError::Corrupt("EKS magic"));
        }
        if r.get_u8()? != EKS_VERSION {
            return Err(WireError::Corrupt("EKS version"));
        }
        let n_t = r.get_u32()? as usize;
        let ks_base_bits = r.get_u32()?;
        let ks_digits = r.get_u32()? as usize;
        let rgsw_base_bits = r.get_u32()?;
        let rgsw_digits = r.get_u32()? as usize;
        if n_t == 0 || n_t > ctx.n() {
            return Err(WireError::Corrupt("EKS shape"));
        }
        let ksk: LweKeySwitchKey = ksk_from_wire(r.get_bytes()?, ctx.q_modulus(0), ctx.n(), n_t)?;
        if ksk.base_bits() != ks_base_bits || ksk.digits() != ks_digits {
            return Err(WireError::Corrupt("EKS ksk shape mismatch"));
        }
        // The other two sections are sliced, and the buffer's end checked,
        // before either is expanded: a padded upload costs no expansion.
        let (brk_bytes, gks_bytes) = (r.get_bytes()?, r.get_bytes()?);
        r.finish()?;
        let brk: BlindRotateKey = brk_from_wire(brk_bytes, ctx.rns())?;
        if brk.lwe_dim() != n_t
            || brk.params().base_bits != rgsw_base_bits
            || brk.params().digits != rgsw_digits
        {
            return Err(WireError::Corrupt("EKS brk shape mismatch"));
        }
        let gks: GaloisKeys = gks_from_wire(gks_bytes, ctx)?;
        // The context's set, with the container's bootstrap half.
        let set = ParamSet {
            n_t,
            ks_base_bits,
            ks_digits,
            rgsw_base_bits,
            rgsw_digits,
            ..**ctx.params()
        };
        let keys = GeneratedKeys { ksk, brk, gks };
        Ok(Self::new(ctx, set.into(), keys, None))
    }

    /// Packages the set for distribution: the seeded encoding when
    /// available, strict otherwise, plus the strict length for reporting
    /// the compression the seed expansion buys.
    pub fn package(&self, ctx: &CkksContext) -> KeyPackage {
        KeyPackage {
            id: self.id,
            bytes: self.to_wire(ctx, self.reseed.is_some()),
            strict_len: self.strict_len(ctx),
        }
    }
}

/// A key set ready to ship: its id plus the encoded bytes a client
/// uploads on a cache miss.
#[derive(Debug, Clone)]
pub struct KeyPackage {
    /// Content fingerprint of the encoded key set.
    pub id: KeyId,
    /// Encoded container (seeded when the keys support it).
    pub bytes: Vec<u8>,
    /// Length of the strict encoding, for reporting the seed-expansion
    /// saving (`strict_len` vs `bytes.len()`).
    pub strict_len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_ckks::{CkksParams, SecretKey};
    use heap_core::{generate_keys, generate_keys_reseeded};
    use heap_math::wire::xxh64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::test_tiny())
    }

    #[test]
    fn strict_roundtrip_preserves_id_and_bytes() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys(&ctx, &sk, config, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys, None);
        let strict = set.to_strict_wire(&ctx);
        assert_eq!(set.id(), KeyId(xxh64(&strict)));
        let back = EvalKeySet::from_wire(&ctx, &strict).unwrap();
        assert_eq!(back.id(), set.id());
        assert_eq!(back.to_strict_wire(&ctx), strict);
    }

    #[test]
    fn seeded_roundtrip_expands_to_identical_id() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys_reseeded(&ctx, &sk, config, 0xA5A5, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys, Some(0xA5A5));
        let pkg = set.package(&ctx);
        assert!(
            pkg.bytes.len() * 5 < pkg.strict_len * 3,
            "seeded {} not well under strict {}",
            pkg.bytes.len(),
            pkg.strict_len
        );
        let back = EvalKeySet::from_wire(&ctx, &pkg.bytes).unwrap();
        assert_eq!(back.id(), set.id(), "expand-then-reencode parity");
        assert_eq!(back.to_strict_wire(&ctx), set.to_strict_wire(&ctx));
    }

    /// The id is hashed as a stream and the strict length measured; both
    /// must equal what the materialised strict encoding says — for generated, reseeded and wire-decoded sets, on the Tiny
    /// and the Small preset.
    #[test]
    fn streamed_id_and_computed_lengths_match_the_strict_encoding() {
        for params in [CkksParams::test_tiny(), CkksParams::test_small()] {
            let ctx = CkksContext::new(params);
            let mut rng = StdRng::seed_from_u64(7);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let config = BootstrapConfig::test_small();
            let plain = EvalKeySet::new(
                &ctx,
                config,
                generate_keys(&ctx, &sk, config, &mut rng),
                None,
            );
            let keys = generate_keys_reseeded(&ctx, &sk, config, 0xC0DE, &mut rng);
            let reseeded = EvalKeySet::new(&ctx, config, keys, Some(0xC0DE));
            let pkg = reseeded.package(&ctx);
            assert_eq!(pkg.bytes, reseeded.to_seeded_wire(&ctx));
            assert_eq!(pkg.strict_len, reseeded.strict_len(&ctx));
            let decoded = EvalKeySet::from_wire(&ctx, &pkg.bytes).unwrap();
            assert_eq!(decoded.id(), pkg.id);
            for set in [&plain, &reseeded, &decoded] {
                let strict = set.to_strict_wire(&ctx);
                assert_eq!(set.id(), KeyId(xxh64(&strict)), "n = {}", ctx.n());
                assert_eq!(set.strict_len(&ctx), strict.len(), "n = {}", ctx.n());
            }
        }
    }

    /// One bit flipped at the start, the middle or the end of a Tiny
    /// strict encoding gives another id: the lanes and the final mix reach
    /// every byte of the stream.
    #[test]
    fn a_single_bit_flip_anywhere_in_the_stream_changes_the_id() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(49);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys_reseeded(&ctx, &sk, config, 0x49, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys, Some(0x49));
        let strict = set.to_strict_wire(&ctx);
        let len = strict.len();
        for (at, bit) in [
            (0, 0),
            (1, 7),
            (len / 2, 3),
            (len / 2 + 1, 0),
            (len - 2, 5),
            (len - 1, 7),
        ] {
            let mut flipped = strict.clone();
            flipped[at] ^= 1 << bit;
            assert_ne!(KeyId(xxh64(&flipped)), set.id(), "bit {bit} of byte {at}");
        }
        // A flip inside a key body still decodes; its id is another one.
        let mut flipped = set.to_seeded_wire(&ctx);
        *flipped.last_mut().expect("non-empty") ^= 1;
        let decoded = EvalKeySet::from_wire(&ctx, &flipped).expect("still in range");
        assert_ne!(decoded.id(), set.id());
    }

    #[test]
    fn expanded_keys_bootstrap_bit_identically() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys_reseeded(&ctx, &sk, config, 0xFEED, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys, Some(0xFEED));
        let pkg = set.package(&ctx);
        let local = set.into_bootstrapper(&ctx);
        let remote = EvalKeySet::from_wire(&ctx, &pkg.bytes)
            .unwrap()
            .into_bootstrapper(&ctx);
        let delta = ctx.fresh_scale();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| (((i % 9) as f64 - 4.0) / 60.0 * delta).round() as i64)
            .collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let a = local.bootstrap(&ctx, &ct);
        let b = remote.bootstrap(&ctx, &ct);
        assert_eq!(a.c0(), b.c0());
        assert_eq!(a.c1(), b.c1());
        assert_eq!(a.scale(), b.scale());
    }

    #[test]
    fn from_bootstrapper_matches_direct_construction() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys(&ctx, &sk, config, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys.clone(), None);
        let boot = Bootstrapper::from_keys(&ctx, config, keys, StageMetrics::new());
        let via_boot = EvalKeySet::from_bootstrapper(&ctx, &boot);
        assert_eq!(via_boot.id(), set.id());
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small();
        let keys = generate_keys_reseeded(&ctx, &sk, config, 6, &mut rng);
        let set = EvalKeySet::new(&ctx, config, keys, Some(6));
        let bytes = set.to_seeded_wire(&ctx);
        use rand::Rng;
        for _ in 0..48 {
            let cut = rng.gen_range(0..bytes.len());
            assert!(
                EvalKeySet::from_wire(&ctx, &bytes[..cut]).is_err(),
                "prefix {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            EvalKeySet::from_wire(&ctx, &bad).err(),
            Some(WireError::Corrupt("EKS magic"))
        );
        let mut bad = bytes.clone();
        bad[4] = 99; // version
        assert_eq!(
            EvalKeySet::from_wire(&ctx, &bad).err(),
            Some(WireError::Corrupt("EKS version"))
        );
        // A v1 container (version 1, then a backend byte the v2 header no
        // longer has) is refused by version, not parsed one byte off.
        let mut v1 = bytes[..4].to_vec();
        v1.extend_from_slice(&[1, 0]);
        v1.extend_from_slice(&bytes[5..]);
        assert_eq!(
            EvalKeySet::from_wire(&ctx, &v1).err(),
            Some(WireError::Corrupt("EKS version"))
        );
    }
}
