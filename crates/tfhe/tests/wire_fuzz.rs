//! Adversarial-input hardening of every TFHE `*_from_wire` entry point.
//!
//! The distributed runtime feeds these decoders bytes straight off a TCP
//! socket, so a truncated or corrupted buffer must surface as a
//! [`WireError`], never a panic or runaway allocation. Each property
//! feeds (a) every random strict prefix of a valid encoding — which must
//! decode to `Err` — and (b) randomly corrupted copies and pure-noise
//! buffers — which must return *something* without panicking. The binary
//! counts allocations, because a well-formed header can still announce
//! far more than its bytes carry.

use std::sync::OnceLock;

use heap_math::prime::ntt_primes;
use heap_math::wire::{WireError, WireWriter};
use heap_math::{RnsContext, RnsPoly};
use heap_tfhe::{
    lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire, rlwe_batch_to_wire,
    LweCiphertext, LweSecretKey, RingSecretKey, RlweCiphertext,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/tracking_alloc.rs"]
mod tracking_alloc;
use tracking_alloc::tracked;

/// Valid encodings built once; properties slice and mutate copies.
struct Fixtures {
    /// The `(modulus, dimension)` the LWE batch is decoded against.
    lwe_shape: (u64, usize),
    lwe: Vec<u8>,
    rlwe: Vec<u8>,
    lwe_batch: Vec<u8>,
    rlwe_batch: Vec<u8>,
}

fn fixtures() -> &'static Fixtures {
    static FIX: OnceLock<Fixtures> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        let primes = ntt_primes(64, 28, 3);
        let ctx = RnsContext::new(64, &primes);
        let q = heap_math::arith::Modulus::new(primes[0]).unwrap();
        let lwe_sk = LweSecretKey::generate(&mut rng, 24);
        let lwes: Vec<LweCiphertext> = (0..5)
            .map(|i| lwe_sk.encrypt(i * 999, &q, &mut rng))
            .collect();
        let ring_sk = RingSecretKey::generate(&ctx, 3, &mut rng);
        let msg_coeffs: Vec<i64> = (0..64).map(|i| (i - 32) * 77).collect();
        let msg = RnsPoly::from_signed(&ctx, &msg_coeffs, 3);
        let accs: Vec<RlweCiphertext> = (0..3)
            .map(|_| RlweCiphertext::encrypt(&ctx, &ring_sk, &msg, &mut rng))
            .collect();
        Fixtures {
            lwe_shape: (q.value(), 24),
            lwe: lwes[0].to_wire(),
            rlwe: accs[0].to_wire(&primes),
            lwe_batch: lwe_batch_to_wire(&lwes),
            rlwe_batch: rlwe_batch_to_wire(&accs, &primes),
        }
    })
}

/// Decoders under test, dispatched by index so one property covers all.
fn decode(kind: usize, buf: &[u8]) -> Result<(), WireError> {
    match kind {
        0 => LweCiphertext::from_wire(buf).map(|_| ()),
        1 => RlweCiphertext::from_wire(buf).map(|_| ()),
        2 => {
            let (modulus, dim) = fixtures().lwe_shape;
            lwe_batch_from_wire(buf, modulus, dim).map(|_| ())
        }
        _ => rlwe_batch_from_wire(buf).map(|_| ()),
    }
}

fn valid(kind: usize) -> &'static [u8] {
    let f = fixtures();
    match kind {
        0 => &f.lwe,
        1 => &f.rlwe,
        2 => &f.lwe_batch,
        _ => &f.rlwe_batch,
    }
}

/// A 1 MiB `LBT1` batch of one modulus-2 LWE: 8 Mi one-bit residues,
/// 64 MiB once unpacked into `u64`s.
fn modulus_two_batch() -> Vec<u8> {
    let bytes = 1 << 20;
    let mut w = WireWriter::new();
    w.put_u32(0x4C42_5431); // "LBT1"
    w.put_u32(1);
    w.put_u32(0x4C57_4531); // "LWE1"
    w.put_u64(2);
    w.put_u32(8 * bytes - 1);
    let mut batch = w.into_bytes();
    batch.resize(batch.len() + bytes as usize, 0);
    batch
}

/// Decoded for a key, the batch is refused by its header before anything
/// is unpacked: the decoder asks for at most twice the payload.
#[test]
fn modulus_two_batch_is_refused_before_unpacking() {
    let batch = modulus_two_batch();
    let (modulus, dim) = fixtures().lwe_shape;
    let (result, asked) = tracked(|| lwe_batch_from_wire(&batch, modulus, dim).map(|_| ()));
    assert_eq!(
        result,
        Err(WireError::Corrupt("LWE modulus does not match the key"))
    );
    assert!(
        asked.requested <= 2 * batch.len(),
        "{} bytes requested to refuse a {}-byte batch",
        asked.requested,
        batch.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_prefixes_error_cleanly(kind in 0usize..4, cut in 0usize..1 << 20) {
        let bytes = valid(kind);
        // A strict prefix is always missing announced content.
        let cut = cut % bytes.len();
        prop_assert!(
            decode(kind, &bytes[..cut]).is_err(),
            "kind {kind}: prefix of {cut}/{} bytes decoded",
            bytes.len()
        );
        // The full buffer still decodes (fixture sanity).
        prop_assert!(decode(kind, bytes).is_ok(), "kind {kind}: full buffer");
    }

    #[test]
    fn corrupted_copies_never_panic(
        kind in 0usize..4,
        pos in 0usize..1 << 20,
        xor in 1u64..256,
    ) {
        let bytes = valid(kind);
        let mut bad = bytes.to_vec();
        let pos = pos % bad.len();
        bad[pos] ^= xor as u8;
        // Flipping bits may still yield a decodable buffer (payload bits
        // are free); the contract is Err-or-Ok, never a panic.
        let _ = decode(kind, &bad);
    }

    #[test]
    fn pure_noise_never_panics(kind in 0usize..4, words in prop::collection::vec(any::<u64>(), 0..48)) {
        let noise: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = decode(kind, &noise);
    }

    #[test]
    fn noise_with_valid_magic_never_panics(
        kind in 0usize..4,
        words in prop::collection::vec(any::<u64>(), 2..32),
    ) {
        // Keep the magic so decoding proceeds into the shape/payload
        // fields — the headers are where corrupt length fields could
        // trigger oversized allocations.
        let mut buf = valid(kind)[..4].to_vec();
        buf.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let _ = decode(kind, &buf);
    }
}
