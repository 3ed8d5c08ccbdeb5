//! Bit-identity parity suite: every optimized kernel against its retained
//! strict oracle.
//!
//! The lazy-reduction NTT, the `u128`-MAC external product, and the
//! restructured CMux are *exact* rewrites — same canonical output, not
//! just the same phase up to noise. This suite pins that claim on random
//! inputs: lazy external products vs [`external_product_reference`], and
//! the key-major tile rotation ([`BlindRotateKey::blind_rotate_batch_with`],
//! of which [`BlindRotateKey::blind_rotate`] is the batch of one) vs
//! [`BlindRotateKey::blind_rotate_reference`], including the `a_i = 0`
//! skip and `a_i = N` negacyclic-wrap edges. The 60-bit cases put one
//! shape on each side of the MAC accumulator gate
//! ([`heap_math::mac_path`]) on the same host.

use std::sync::{Mutex, MutexGuard, PoisonError};

use heap_math::prime::ntt_primes;
use heap_math::simd::{self, Backend};
use heap_math::{mac_path, MacPath, RnsContext, RnsPoly};
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::rlwe::{RingSecretKey, RlweCiphertext};
use heap_tfhe::{
    external_product, external_product_prepared_into, external_product_reference,
    external_product_with, test_polynomial_from_fn, BlindRotateKey, BlindRotateScratch,
    ExternalProductScratch, LweCiphertext, PreparedRgsw, RgswCiphertext, RgswParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 64;
const LIMBS: usize = 2;
const N_T: usize = 8;

fn ctx() -> RnsContext {
    RnsContext::new(N, &ntt_primes(N as u64, 30, LIMBS))
}

fn params() -> RgswParams {
    RgswParams {
        base_bits: 15,
        digits: 2,
    }
}

fn assert_bit_identical(a: &RlweCiphertext, b: &RlweCiphertext, what: &str) {
    assert!(a.a == b.a && a.b == b.b, "{what} diverged from oracle");
}

/// `force_scalar` is process-wide, so the tests that pin the backend, or
/// assert which accumulator a shape lands on, take this lock. Tests that
/// only compare against an oracle need none: the paths are bit-identical,
/// so a backend flipped under them changes nothing they check.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

fn simd_lock() -> MutexGuard<'static, ()> {
    // A `should_panic` test poisons the lock by design.
    SIMD_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forces the scalar backend until dropped, panics included. Declare it
/// after the [`simd_lock`] guard so it is restored before the lock opens.
struct ForcedScalar;

impl ForcedScalar {
    fn new() -> Self {
        simd::force_scalar(true);
        assert_eq!(simd::active(), Backend::Scalar);
        Self
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        simd::force_scalar(false);
    }
}

/// A random RLWE ciphertext, an `RGSW(1)` and the context they live in.
fn product_operands(
    moduli: &[u64],
    p: &RgswParams,
    seed: u64,
) -> (RnsContext, RlweCiphertext, RgswCiphertext) {
    let limbs = moduli.len();
    let c = RnsContext::new(N, moduli);
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = RingSecretKey::generate(&c, limbs, &mut rng);
    let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
    let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, limbs), &mut rng);
    let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, 1, limbs, p, &mut rng);
    (c, ct, rgsw)
}

/// Prepared external product over 60-bit limbs == strict reference, with
/// the accumulator the shape must land on under native dispatch asserted
/// from `shoup_mac_term_limit()` (a scalar host is wide for every shape).
fn prepared_60bit_case(limbs: usize, p: RgswParams, shoup_fits: bool) {
    let _lock = simd_lock();
    let (c, ct, rgsw) = product_operands(&ntt_primes(N as u64, 60, limbs), &p, 0x60B1);
    let terms = 2 * limbs * p.digits;
    let limit = (0..limbs)
        .map(|j| c.ntt(j).shoup_mac_term_limit())
        .min()
        .unwrap();
    assert_eq!(
        terms as u64 <= limit,
        shoup_fits,
        "{terms} terms vs {limit}"
    );
    let want = if shoup_fits && simd::active() != Backend::Scalar {
        MacPath::Shoup
    } else {
        MacPath::Wide
    };
    assert_eq!(mac_path((0..limbs).map(|j| c.ntt(j)), terms), want);

    let prep = PreparedRgsw::new(&rgsw, &c);
    let mut scratch = ExternalProductScratch::default();
    let mut prepared = RlweCiphertext::zero(&c, limbs);
    external_product_prepared_into(&ct, &rgsw, &prep, &c, &p, &mut scratch, &mut prepared);
    let strict = external_product_reference(&ct, &rgsw, &c, &p);
    assert_bit_identical(&prepared, &strict, "60-bit external_product_prepared");
}

/// 2 limbs × 3 digits = 12 terms: over the 8 a prime just under 2^60
/// allows, so the wide accumulators run even under native SIMD.
#[test]
fn prepared_60bit_over_term_limit_takes_wide_path() {
    let p = RgswParams {
        base_bits: 20,
        digits: 3,
    };
    prepared_60bit_case(2, p, false);
}

/// 1 limb × 2 digits = 4 terms: within the limit, so a vector host runs
/// the Shoup accumulators over the integer (non-f64) 60-bit kernels.
#[test]
fn prepared_60bit_within_term_limit_takes_shoup_path() {
    let p = RgswParams {
        base_bits: 30,
        digits: 2,
    };
    prepared_60bit_case(1, p, true);
}

/// A scratch warmed on one context and reused on another of the same shape
/// (2 × 30-bit limbs, same gadget) but different primes must rebuild its
/// gadget tables: the result equals the fresh-scratch one.
#[test]
fn scratch_reused_across_contexts_rebuilds_gadgets() {
    let p = params();
    let primes = ntt_primes(N as u64, 30, 2 * LIMBS);
    let (c1, ct1, rgsw1) = product_operands(&primes[..LIMBS], &p, 1);
    let (c2, ct2, rgsw2) = product_operands(&primes[LIMBS..], &p, 2);
    let mut scratch = ExternalProductScratch::default();
    external_product_with(&ct1, &rgsw1, &c1, &p, &mut scratch);
    let reused = external_product_with(&ct2, &rgsw2, &c2, &p, &mut scratch);
    let fresh = external_product(&ct2, &rgsw2, &c2, &p);
    assert_bit_identical(&reused, &fresh, "external_product_with (reused scratch)");
}

/// Shape checks run before the accumulator is chosen: a `PreparedRgsw`
/// built for another limb count is rejected on the wide path too (forced
/// scalar here), not only where its quotients would be read.
#[test]
#[should_panic(expected = "prepared key limb count mismatch")]
fn mismatched_prepared_key_rejected_on_scalar_host() {
    let _lock = simd_lock();
    let _scalar = ForcedScalar::new();
    let p = params();
    let primes = ntt_primes(N as u64, 30, LIMBS);
    let (c, ct, rgsw) = product_operands(&primes, &p, 3);
    let (c1, _, rgsw_one_limb) = product_operands(&primes[..1], &p, 4);
    let prep = PreparedRgsw::new(&rgsw_one_limb, &c1);
    let mut scratch = ExternalProductScratch::default();
    let mut out = RlweCiphertext::zero(&c, LIMBS);
    external_product_prepared_into(&ct, &rgsw, &prep, &c, &p, &mut scratch, &mut out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lazy u128-MAC external product == strict reference, on a fresh
    /// encryption of a random message against RGSW(m) for m ∈ {0, 1, -1}
    /// (the ternary blind-rotate key alphabet).
    #[test]
    fn external_product_matches_reference(seed in any::<u64>(), scalar in -1i64..=1) {
        let c = ctx();
        let p = params();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, LIMBS), &mut rng);
        let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, scalar, LIMBS, &p, &mut rng);
        let lazy = external_product(&ct, &rgsw, &c, &p);
        let strict = external_product_reference(&ct, &rgsw, &c, &p);
        assert_bit_identical(&lazy, &strict, "external_product");
    }

    /// Restructured CMux blind rotation == one-product Algorithm 1 over
    /// strict kernels, on a random ternary key and random mask elements —
    /// with `a_0` forced through the `{0, N}` edge cases (the trivial-skip
    /// branch and the negacyclic wrap `X^N = -1`).
    #[test]
    fn blind_rotate_matches_reference(seed in any::<u64>(), edge in 0usize..3) {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(), &mut rng);
        let two_n = 2 * N as u64;
        let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
        let mut a: Vec<u64> = (0..N_T).map(|_| rng.gen_range(0..two_n)).collect();
        a[0] = match edge {
            0 => 0,            // (X^0 − 1) terms vanish: the skip branch
            1 => N as u64,     // X^N = −1: negacyclic wrap
            _ => a[0],         // generic element
        };
        let lwe = LweCiphertext { a, b: rng.gen_range(0..two_n), modulus: two_n };
        let hot = brk.blind_rotate(&c, &f, &lwe);
        let oracle = brk.blind_rotate_reference(&c, &f, &lwe);
        assert_bit_identical(&hot, &oracle, "blind_rotate");
    }

    /// Shoup-precomputed (u64-accumulator) external product == strict
    /// reference: the SIMD FMA datapath with key-load-time quotients must
    /// produce the same canonical residues as the u128 lazy MAC.
    #[test]
    fn prepared_external_product_matches_reference(seed in any::<u64>(), scalar in -1i64..=1) {
        let c = ctx();
        let p = params();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
        let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, LIMBS), &mut rng);
        let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, scalar, LIMBS, &p, &mut rng);
        let prep = PreparedRgsw::new(&rgsw, &c);
        let mut scratch = ExternalProductScratch::default();
        let mut prepared = RlweCiphertext::zero(&c, LIMBS);
        external_product_prepared_into(&ct, &rgsw, &prep, &c, &p, &mut scratch, &mut prepared);
        let strict = external_product_reference(&ct, &rgsw, &c, &p);
        assert_bit_identical(&prepared, &strict, "external_product_prepared");
    }

    /// The key-major tile is bit-identical, per member, to rotating each
    /// LWE through the strict reference on its own — for tiles of 1, 2, 3,
    /// 8 and 9, natively and with SIMD force-disabled (wide `u128` MACs).
    /// The first steps put `a_i ∈ {0, N}` on a different subset of members
    /// each, so a step skips some members of a tile and not others, and
    /// the last step skips the whole tile.
    #[test]
    fn batch_matches_reference_per_member(seed in any::<u64>()) {
        let _lock = simd_lock();
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(), &mut rng);
        let two_n = 2 * N as u64;
        let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
        let lwes: Vec<LweCiphertext> = (0..9)
            .map(|m| LweCiphertext {
                a: (0..N_T)
                    .map(|j| match (m + j) % 4 {
                        _ if j == N_T - 1 => 0,
                        0 if j < 4 => 0,
                        1 if j < 4 => N as u64,
                        _ => rng.gen_range(0..two_n),
                    })
                    .collect(),
                b: rng.gen_range(0..two_n),
                modulus: two_n,
            })
            .collect();
        let oracle: Vec<RlweCiphertext> =
            lwes.iter().map(|l| brk.blind_rotate_reference(&c, &f, l)).collect();
        // One scratch throughout: tiles of different sizes and both MAC
        // paths reuse it without leaking state.
        let mut scratch = BlindRotateScratch::default();
        for scalar in [false, true] {
            let _scalar = scalar.then(ForcedScalar::new);
            for size in [1, 2, 3, 8, 9] {
                let got = brk.blind_rotate_batch_with(&c, &f, &lwes[..size], &mut scratch);
                prop_assert_eq!(got.len(), size);
                for (got, want) in got.iter().zip(&oracle) {
                    assert_bit_identical(got, want, "blind_rotate_batch_with");
                }
            }
        }
    }
}

/// Full blind rotation with SIMD force-disabled == the same rotation on
/// whatever backend the host dispatches (on a vector host this pins the
/// whole AVX2/NEON + Shoup datapath against the scalar kernels and the
/// wide accumulators, on one live key; on a scalar host it is a no-op
/// identity).
#[test]
fn blind_rotate_forced_scalar_is_bit_identical() {
    let _lock = simd_lock();
    let c = ctx();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
    let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
    let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(), &mut rng);
    let two_n = 2 * N as u64;
    let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
    let lwe = LweCiphertext {
        a: (0..N_T).map(|_| rng.gen_range(0..two_n)).collect(),
        b: rng.gen_range(0..two_n),
        modulus: two_n,
    };

    let native = brk.blind_rotate(&c, &f, &lwe);

    let _scalar = ForcedScalar::new();
    let scalar = brk.blind_rotate(&c, &f, &lwe);

    assert_bit_identical(&native, &scalar, "blind_rotate (forced scalar)");
}
