//! The listed parameter sets, joined to the models built from them: each
//! set validates under its own name, `CkksContext` runs on exactly the
//! set's prime chain, and the `heap-hw` key-traffic model built from the
//! set's numbers prices the measured key container to the byte.

use std::collections::HashSet;

use heap::ckks::{CkksContext, CkksParams, SecretKey};
use heap::core::{generate_keys_reseeded, BootstrapConfig};
use heap::hw::EvalKeyWireModel;
use heap::math::ParamSet;
use heap::runtime::EvalKeySet;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_listed_set_validates_under_a_unique_name() {
    let mut names = HashSet::new();
    for set in ParamSet::ALL {
        assert!(names.insert(set.name), "{} listed twice", set.name);
        let params = CkksParams::new(set).unwrap_or_else(|e| panic!("{}: {e}", set.name));
        assert_eq!(*params, set);
    }
}

#[test]
fn the_context_runs_on_the_sets_chain() {
    for set in ParamSet::ALL {
        let ctx = CkksContext::new(CkksParams::new(set).expect("listed"));
        let rns = ctx.rns();
        let moduli: Vec<u64> = (0..rns.max_limbs())
            .map(|j| rns.modulus(j).value())
            .collect();
        let chain = set.chain();
        assert_eq!(moduli, chain, "{}", set.name);
        assert_eq!(ctx.aux_modulus().value(), chain[set.limbs], "{}", set.name);
        assert_eq!(ctx.special_modulus().value(), chain[set.limbs + 1]);
    }
}

/// Tiny, Small and Medium. The paper's keys are left out: its 1,000
/// RGSWs of 28 rows over seven limbs at `N = 2^13` hold 25.7 MB each,
/// 26 GB in all, past what a CI host holds; its chain is checked above.
#[test]
fn key_containers_weigh_what_the_model_built_from_the_set_prices() {
    const MASTER: u64 = 0x5E75;
    for set in ParamSet::ALL.into_iter().filter(|s| *s != ParamSet::PAPER) {
        let chain = set.chain();
        let model = EvalKeyWireModel {
            n: set.n(),
            n_t: set.n_t,
            ks_digits: set.ks_digits,
            rgsw_digits: set.rgsw_digits,
            // The boot basis: the ciphertext primes and the auxiliary one.
            boot_moduli: chain[..=set.limbs].to_vec(),
            chain_moduli: chain,
            // The repacking tree's automorphisms, one per level.
            galois_exponents: set.log_n as usize,
            auto_backend: false,
        };
        let ctx = CkksContext::new(CkksParams::new(set).expect("listed"));
        let config = BootstrapConfig::from(set);
        let mut rng = StdRng::seed_from_u64(set.log_n as u64);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = generate_keys_reseeded(&ctx, &sk, config, MASTER, &mut rng);
        let keys = EvalKeySet::new(&ctx, config, keys, Some(MASTER));
        let measured = [keys.to_strict_wire(&ctx), keys.to_seeded_wire(&ctx)];
        let measured = measured.map(|bytes| bytes.len() as u64);
        let modeled = [false, true].map(|seeded| model.container_bytes(seeded));
        assert_eq!(measured, modeled, "{} (strict, seeded)", set.name);
    }
}
