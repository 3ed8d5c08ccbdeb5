//! Adversarial-input hardening of `CkksContext::ciphertext_from_wire`.
//!
//! Same contract as the TFHE wire fuzz suite: random strict prefixes of a
//! valid encoding, and the encoding with bytes appended, must decode to
//! `Err`, and corrupted or pure-noise
//! buffers must never panic — the runtime's TCP framing hands these
//! decoders untrusted bytes.

use std::sync::OnceLock;

use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_math::wire::WireError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    ctx: CkksContext,
    bytes: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(77);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ct = ctx.encrypt_real_sk(&[0.25, -0.125, 0.0625], &sk, &mut rng);
        let bytes = ctx.ciphertext_to_wire(&ct);
        Fixture { ctx, bytes }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_prefixes_error_cleanly(cut in 0usize..1 << 20) {
        let f = fixture();
        let cut = cut % f.bytes.len();
        prop_assert!(
            f.ctx.ciphertext_from_wire(&f.bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            f.bytes.len()
        );
        prop_assert!(f.ctx.ciphertext_from_wire(&f.bytes).is_ok());
    }

    #[test]
    fn trailing_bytes_are_refused(extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let f = fixture();
        let mut padded = f.bytes.clone();
        padded.extend(&extra);
        prop_assert_eq!(
            f.ctx.ciphertext_from_wire(&padded).err(),
            Some(WireError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn corrupted_copies_never_panic(pos in 0usize..1 << 20, xor in 1u64..256) {
        let f = fixture();
        let mut bad = f.bytes.clone();
        let pos = pos % bad.len();
        bad[pos] ^= xor as u8;
        let _ = f.ctx.ciphertext_from_wire(&bad);
    }

    #[test]
    fn pure_noise_never_panics(words in prop::collection::vec(any::<u64>(), 0..64)) {
        let f = fixture();
        let noise: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = f.ctx.ciphertext_from_wire(&noise);
    }
}
