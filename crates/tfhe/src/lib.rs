//! TFHE substrate for HEAP's scheme-switching bootstrap, built from scratch
//! on `heap-math`.
//!
//! Implements the TFHE-side machinery the paper relies on: LWE ciphertexts
//! with `ModulusSwitch` and dimension key switching, RNS-limbed RLWE/RGSW
//! with the external product, the ternary-secret `BlindRotate` of
//! Algorithm 1 (with evaluation-domain monomial factors), `Extract`
//! (Eq. 2), and the standalone-TFHE extras of §VII-A (programmable
//! bootstrapping, `CMux`, `InternalProduct`).
//!
//! The multi-limb types deliberately reuse [`heap_math::RnsPoly`] so the
//! blind-rotation accumulator can live over the *raised CKKS basis* `Q·p`,
//! which is exactly what the scheme switch requires (paper Algorithm 2).
//!
//! # Examples
//!
//! Evaluate a function under encryption via programmable bootstrapping:
//!
//! ```
//! use heap_tfhe::lwe::LweSecretKey;
//! use heap_tfhe::pbs::{programmable_bootstrap, PbsKeys, TfheContext, TfheParams};
//! use heap_tfhe::rlwe::RingSecretKey;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = TfheContext::new(TfheParams::test_small());
//! let mut rng = StdRng::seed_from_u64(1);
//! let lwe_sk = LweSecretKey::generate(&mut rng, ctx.params().lwe_dim);
//! let ring_sk = RingSecretKey::generate(ctx.ring(), 1, &mut rng);
//! let keys = PbsKeys::generate(&ctx, &lwe_sk, &ring_sk, &mut rng);
//! let q = *ctx.q();
//! let ct = lwe_sk.encrypt(ctx.encode_phase(21), &q, &mut rng);
//! let out = programmable_bootstrap(&ctx, &keys, &ct, |u| u * 1_000_000);
//! let got = q.to_signed(lwe_sk.phase(&out, &q));
//! assert!((got - 21_000_000).abs() < 1_000_000);
//! ```

pub mod blind_rotate;
pub mod extract;
pub mod gates;
pub mod key_wire;
pub mod lwe;
#[doc(hidden)]
pub mod oracle;
pub mod pbs;
pub mod rgsw;
pub mod rlwe;
pub mod wire;

pub use blind_rotate::{
    test_polynomial_from_fn, BlindRotateKey, BlindRotateScratch, MonomialEvals,
};
pub use extract::{extract_coefficient, extract_constant_rns, lwe_to_rlwe, RnsLweCiphertext};
pub use key_wire::{
    brk_from_wire, brk_to_wire, brk_write, ksk_from_wire, ksk_to_wire, ksk_write, reseed_brk,
    reseed_ksk,
};
pub use lwe::{LweCiphertext, LweKeySwitchKey, LweSecretKey};
pub use rgsw::{
    external_product, external_product_into, external_product_pair_into,
    external_product_pair_prepared_into, external_product_with, ExternalProductScratch,
    PreparedRgsw, RgswCiphertext, RgswParams,
};
pub use rlwe::{RingSecretKey, RlweCiphertext};
pub use wire::{lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire, rlwe_batch_to_wire};
