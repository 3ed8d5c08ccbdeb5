//! Every library name the benchmark uses, in one place.
//!
//! The rest of the crate imports the library only through this module, so
//! a later PR that renames or moves a public item sees in one file what
//! the benchmark depends on. The rule for adding a name: prefer a
//! crate-root re-export over a module path, and never name a reference
//! oracle (`*_reference`, `*_scalar`), the rotation-backend selector, the
//! automorphism rotation module, or the in-process cluster types — ROADMAP
//! items 2 and 3 may delete or rename those, and later PRs may not edit
//! this directory.

pub use heap_ckks::{Ciphertext, CkksContext, CkksParams, SecretKey};
pub use heap_core::repack::eval_auto;
pub use heap_core::{
    predicted_bootstrap_rel_error, BootstrapConfig, BootstrapStats, Bootstrapper, TransferLedger,
};
pub use heap_hw::EvalKeyWireModel;
pub use heap_math::simd::active as simd_active;
pub use heap_parallel::{available_threads, Parallelism};
pub use heap_runtime::{
    keyed_setup, BootstrapService, EvalKeySet, JobOutput, JobRequest, KeyedSetup, NodeTimeouts,
    ParamPreset, RemoteNode, RuntimeConfig, ServiceNode, SubmitOptions, TenantId,
};
pub use heap_tfhe::{
    external_product_pair_prepared_into, extract_coefficient, lwe_batch_to_wire,
    rlwe_batch_from_wire, rlwe_batch_to_wire, ExternalProductScratch, LweCiphertext, PreparedRgsw,
    RgswCiphertext, RingSecretKey, RlweCiphertext,
};
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
