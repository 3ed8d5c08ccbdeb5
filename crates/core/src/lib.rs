//! HEAP's core contribution: parallelized CKKS bootstrapping through
//! CKKS ⇄ TFHE scheme switching (paper §III).
//!
//! The pipeline (Fig. 1b / Algorithm 2): `ModulusSwitch` → `Extract` →
//! parallel `BlindRotate` over independent LWE ciphertexts → automorphism
//! repacking → correction and `Rescale` by the auxiliary prime. Because the
//! blind rotations are data-independent they parallelise at two levels:
//! over worker threads inside a node
//! ([`Bootstrapper::blind_rotate_batch_par`]) and over nodes (§V) —
//! `heap-runtime`'s `Scheduler` drives the Fig. 1b step methods around its
//! own scatter/gather.
//!
//! # Examples
//!
//! ```no_run
//! use heap_ckks::{CkksContext, CkksParams, SecretKey};
//! use heap_core::{BootstrapConfig, Bootstrapper};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = CkksContext::new(CkksParams::test_tiny());
//! let mut rng = StdRng::seed_from_u64(1);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
//! // exhaust levels ... then:
//! let delta = ctx.fresh_scale();
//! let coeffs = vec![0i64; ctx.n()];
//! let exhausted = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
//! let refreshed = boot.bootstrap(&ctx, &exhausted);
//! assert_eq!(refreshed.limbs(), ctx.max_limbs());
//! ```

pub mod bootstrap;
pub mod ledger;
pub mod noise;
pub mod repack;
pub mod stage;
pub mod stats;

pub use bootstrap::{
    generate_keys, generate_keys_reseeded, BootstrapConfig, Bootstrapper, GeneratedKeys,
};
pub use heap_parallel::Parallelism;
pub use ledger::TransferLedger;
pub use noise::{measure_coeff_error, predicted_bootstrap_rel_error, ErrorStats};
pub use stage::{stage_metric_name, StageMetrics, PIPELINE_STAGES};
pub use stats::{repack_key_switch_count, BootstrapStats};
