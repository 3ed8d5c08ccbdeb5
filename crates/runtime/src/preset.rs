//! Named parameter presets and client/node key setup.
//!
//! Two setup paths exist:
//!
//! - [`keyed_setup`] — the default. The client generates seed-expandable
//!   evaluation keys locally ([`heap_core::generate_keys_reseeded`]) and
//!   gets a [`KeyPackage`] to distribute over the wire
//!   (`RemoteNode::with_key`); nodes run [`crate::serve_keyless`] and
//!   never see a secret. This is how a real deployment keys a cluster.
//! - [`insecure_deterministic_setup`] — the legacy reproduction
//!   convenience: every process regenerates *all* key material
//!   (including the secret key) from a shared `(preset, seed)` pair.
//!   Handy for bit-identity digests and single-process tests, but the
//!   shared seed derives the secret key, so it must never key a cluster
//!   whose nodes are not fully trusted — hence the name, and the
//!   `--insecure-seed` spelling in `heap-node-serve`.

use std::str::FromStr;
use std::sync::Arc;

use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{generate_keys_reseeded, BootstrapConfig, Bootstrapper};
use heap_keys::{EvalKeySet, KeyPackage};
use heap_math::wire::derive_seed;
use heap_math::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Named parameter sets shared by client and server by name: each is a
/// listed [`ParamSet`], and its wire name is the set's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamPreset {
    /// [`ParamSet::TINY`] — seconds-fast, used by tests and loopback CI.
    #[default]
    Tiny,
    /// [`ParamSet::SMALL`].
    Small,
    /// [`ParamSet::MEDIUM`].
    Medium,
}

impl ParamPreset {
    const ALL: [Self; 3] = [Self::Tiny, Self::Small, Self::Medium];

    /// The parameter set this preset names.
    pub fn set(self) -> ParamSet {
        match self {
            ParamPreset::Tiny => ParamSet::TINY,
            ParamPreset::Small => ParamSet::SMALL,
            ParamPreset::Medium => ParamSet::MEDIUM,
        }
    }

    /// The CKKS parameters for this preset.
    pub fn ckks_params(self) -> CkksParams {
        CkksParams::new(self.set()).expect("listed sets are valid")
    }

    /// The bootstrap configuration paired with this preset.
    pub fn bootstrap_config(self) -> BootstrapConfig {
        self.set().into()
    }

    /// The preset's wire name (accepted back by [`ParamPreset::from_str`]).
    pub fn name(self) -> &'static str {
        self.set().name
    }
}

impl FromStr for ParamPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        let names = Self::ALL.map(Self::name).join("|");
        let found = Self::ALL.into_iter().find(|p| p.name() == s);
        found.ok_or_else(|| format!("unknown preset '{s}' ({names})"))
    }
}

impl std::fmt::Display for ParamPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a process needs to act as primary or secondary when the
/// whole cluster regenerates keys from one shared seed.
pub struct DeterministicSetup {
    /// The CKKS context for the preset.
    pub ctx: Arc<CkksContext>,
    /// The secret key (tests encrypt/decrypt with it; servers only need
    /// it transitively through key generation).
    pub sk: SecretKey,
    /// Evaluation keys — bit-identical across processes for the same
    /// `(preset, seed)`.
    pub boot: Arc<Bootstrapper>,
}

/// Regenerates context, secret key, and bootstrap keys from `(preset,
/// seed)`. Two processes calling this with equal arguments hold
/// bit-identical key material — *including the secret key*, which is why
/// this must never key a cluster of untrusted nodes. Use [`keyed_setup`]
/// plus wire distribution instead.
pub fn insecure_deterministic_setup(preset: ParamPreset, seed: u64) -> DeterministicSetup {
    let ctx = Arc::new(CkksContext::new(preset.ckks_params()));
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Arc::new(Bootstrapper::generate(
        &ctx,
        &sk,
        preset.bootstrap_config(),
        &mut rng,
    ));
    DeterministicSetup { ctx, sk, boot }
}

/// A client-side setup whose evaluation keys ship over the wire: the
/// secret key stays here, nodes receive only the public [`KeyPackage`].
pub struct KeyedSetup {
    /// The CKKS context for the preset.
    pub ctx: Arc<CkksContext>,
    /// The secret key — never leaves this process.
    pub sk: SecretKey,
    /// The client's own bootstrapper, built from the same keys the
    /// package encodes (reference executions are bit-identical to what a
    /// node expands from the upload).
    pub boot: Arc<Bootstrapper>,
    /// Seed-expandable evaluation-key package for `RemoteNode::with_key`.
    pub key: Arc<KeyPackage>,
}

/// Generates a secret key and *seed-expandable* evaluation keys for
/// `(preset, seed)`, packaging them for wire distribution to keyless
/// nodes. Deterministic: equal arguments yield the same [`heap_keys::KeyId`],
/// so several clients of one logical tenant share a node's cache entry.
pub fn keyed_setup(preset: ParamPreset, seed: u64) -> KeyedSetup {
    let ctx = Arc::new(CkksContext::new(preset.ckks_params()));
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let config = preset.bootstrap_config();
    let master = derive_seed(seed, b"heap-keys/master");
    let keys = generate_keys_reseeded(&ctx, &sk, config, master, &mut rng);
    let set = EvalKeySet::new(&ctx, config, keys, Some(master));
    let key = Arc::new(set.package(&ctx));
    let boot = Arc::new(set.into_bootstrapper(&ctx));
    KeyedSetup { ctx, sk, boot, key }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_round_trip() {
        // Every listed set but the paper's is a preset, under its own name.
        for set in ParamSet::ALL {
            let Ok(p) = set.name.parse::<ParamPreset>() else {
                assert_eq!(set, ParamSet::PAPER, "{} is no preset", set.name);
                continue;
            };
            assert_eq!(p.set(), set);
            assert_eq!(p.to_string(), set.name);
        }
        assert!("giant".parse::<ParamPreset>().is_err());
    }

    #[test]
    fn same_seed_regenerates_identical_keys() {
        let a = insecure_deterministic_setup(ParamPreset::Tiny, 7);
        let b = insecure_deterministic_setup(ParamPreset::Tiny, 7);
        assert_eq!(a.sk.coeffs(), b.sk.coeffs());
        // The evaluation keys must agree too: a blind rotation of the same
        // LWE through both bootstrappers is bit-identical.
        let lwe = heap_tfhe::LweCiphertext {
            a: (0..a.boot.config().n_t as u64).collect(),
            b: 17,
            modulus: 2 * a.ctx.n() as u64,
        };
        let moduli: Vec<u64> = (0..a.ctx.boot_limbs())
            .map(|j| a.ctx.rns().modulus(j).value())
            .collect();
        let ra = a.boot.blind_rotate_one(&a.ctx, &lwe).to_wire(&moduli);
        let rb = b.boot.blind_rotate_one(&b.ctx, &lwe).to_wire(&moduli);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = insecure_deterministic_setup(ParamPreset::Tiny, 1);
        let b = insecure_deterministic_setup(ParamPreset::Tiny, 2);
        assert_ne!(a.sk.coeffs(), b.sk.coeffs());
    }

    #[test]
    fn keyed_setup_is_deterministic_and_seed_expandable() {
        let a = keyed_setup(ParamPreset::Tiny, 9);
        let b = keyed_setup(ParamPreset::Tiny, 9);
        assert_eq!(a.key.id, b.key.id, "same (preset, seed) → same KeyId");
        assert_eq!(a.key.bytes, b.key.bytes);
        assert!(
            a.key.bytes.len() * 5 < a.key.strict_len * 3,
            "package must use the seed-expandable encoding ({} vs strict {})",
            a.key.bytes.len(),
            a.key.strict_len
        );
        let c = keyed_setup(ParamPreset::Tiny, 10);
        assert_ne!(a.key.id, c.key.id);
    }

    #[test]
    fn keyed_setup_boot_matches_expanded_package() {
        let s = keyed_setup(ParamPreset::Tiny, 11);
        let expanded = EvalKeySet::from_wire(&s.ctx, &s.key.bytes)
            .expect("package decodes")
            .into_bootstrapper(&s.ctx);
        let lwe = heap_tfhe::LweCiphertext {
            a: (0..s.boot.config().n_t as u64).collect(),
            b: 5,
            modulus: 2 * s.ctx.n() as u64,
        };
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        assert_eq!(
            s.boot.blind_rotate_one(&s.ctx, &lwe).to_wire(&moduli),
            expanded.blind_rotate_one(&s.ctx, &lwe).to_wire(&moduli),
        );
    }
}
