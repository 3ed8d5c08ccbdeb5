//! The CKKS approximate homomorphic encryption scheme, built from scratch
//! on `heap-math`.
//!
//! This crate implements everything the paper's non-bootstrapping side
//! needs: canonical-embedding encoding, RNS ciphertexts in evaluation
//! representation, `PtAdd`/`Add`/`PtMult`/`Mult`/`Rescale`/`Rotate`/
//! `Conjugate`, and per-limb hybrid key switching (`ModUp`/`ModDown`). The
//! scheme-switched bootstrap itself lives in `heap-core`, which consumes
//! this crate's low-level ciphertext accessors.
//!
//! # Examples
//!
//! ```
//! use heap_ckks::{CkksContext, CkksParams, SecretKey};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = CkksContext::new(CkksParams::test_small());
//! let mut rng = StdRng::seed_from_u64(7);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let msg = vec![0.1, -0.25, 0.5];
//! let ct = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
//! let dec = ctx.decrypt_real(&ct, &sk);
//! for (m, d) in msg.iter().zip(&dec) {
//!     assert!((m - d).abs() < 1e-4);
//! }
//! ```

pub mod ciphertext;
pub mod complex;
pub mod context;
pub mod conventional;
pub mod encoding;
pub mod key;
pub mod key_wire;
pub mod keyswitch;
pub mod linear;
pub mod ops;
#[doc(hidden)]
pub mod oracle;
pub mod params;
pub mod plaintext;
pub mod wire;

pub use ciphertext::Ciphertext;
pub use complex::Complex64;
pub use context::CkksContext;
pub use conventional::{ConvBootstrapConfig, ConventionalBootstrapper};
pub use encoding::Encoder;
pub use key::{GaloisKeys, KeySwitchKey, PublicKey, RelinearizationKey, SecretKey};
pub use key_wire::{
    cks_from_wire, cks_to_wire, gks_from_wire, gks_to_wire, gks_write, reseed_cks,
    reseed_galois_keys,
};
pub use linear::SlotMatrix;
pub use params::{CkksParams, ParamsError};
pub use plaintext::Plaintext;
