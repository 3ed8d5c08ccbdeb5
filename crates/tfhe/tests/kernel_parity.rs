//! Bit-identity parity suite: every optimized kernel against its retained
//! strict oracle.
//!
//! The lazy-reduction NTT, the lazy-MAC external product, and the
//! restructured CMux are *exact* rewrites — same canonical output, not
//! just the same phase up to noise. This suite pins that claim on random
//! inputs: lazy external products vs `oracle::external_product_reference`, and
//! the key-major tile rotation ([`BlindRotateKey::blind_rotate_batch_with`],
//! of which [`BlindRotateKey::blind_rotate`] is the batch of one) vs
//! `oracle::blind_rotate_reference`, including the `a_i = 0`
//! skip and `a_i = N` negacyclic-wrap edges. The shape tests run on 30-
//! or 36-bit limbs and again at the ceiling — the largest primes
//! `NttTable::new` admits, with a gadget whose fold chain
//! [`MacAcc::reset`] still admits. The SIMD width is fixed per process, so
//! each width is covered by running this suite under it
//! (`HEAP_SIMD=auto|avx2|scalar`).

use heap_math::prime::ntt_primes;
use heap_math::{ChainEnd, MacAcc, RnsContext, RnsPoly};
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::oracle::{
    blind_rotate_reference, external_product_reference, lwe_key_switch_fold_interval,
    lwe_key_switch_reference,
};
use heap_tfhe::rlwe::{RingSecretKey, RlweCiphertext};
use heap_tfhe::{
    external_product, external_product_with, test_polynomial_from_fn, BlindRotateKey,
    BlindRotateScratch, ExternalProductScratch, LweCiphertext, LweKeySwitchKey, RgswCiphertext,
    RgswParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../../../tests/support/ceiling.rs"]
mod ceiling;
use ceiling::largest_admitted_primes;

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

/// A gadget that covers the largest admitted primes in two digits, whose
/// CMux fold over two limbs, `8·q`, stays inside `2^50`.
fn ceiling_params() -> RgswParams {
    RgswParams {
        base_bits: 24,
        digits: 2,
    }
}

/// The two shapes every oracle comparison below runs: [`ctx`], and two
/// limbs at the ceiling.
fn shapes() -> [(RnsContext, RgswParams); 2] {
    [
        (ctx(), params()),
        (
            RnsContext::new(N, &largest_admitted_primes(N, LIMBS)),
            ceiling_params(),
        ),
    ]
}

/// Whether [`MacAcc::reset`] admits limb `j`'s chain of an external
/// product over `limbs` limbs.
fn admits(c: &RnsContext, j: usize, p: &RgswParams, limbs: usize, end: ChainEnd) -> bool {
    let (terms, digit_bound) = (2 * limbs * p.digits, 1 << (p.base_bits - 1));
    MacAcc::admits(c.ntt(j), terms, digit_bound, end)
}

fn assert_bit_identical(a: &RlweCiphertext, b: &RlweCiphertext, what: &str) {
    assert!(a.a == b.a && a.b == b.b, "{what} diverged from oracle");
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

/// The paper's shape (36-bit limbs, `d = 2`): admitted, and bit-identical
/// to the strict reference.
#[test]
fn paper_shape_is_admitted_and_matches_reference() {
    let p = RgswParams::paper();
    let (c, ct, rgsw) = product_operands(&ntt_primes(N as u64, 36, LIMBS), &p, 0x36B1);
    for j in 0..LIMBS {
        assert!(admits(&c, j, &p, LIMBS, ChainEnd::Reduce));
    }
    let strict = external_product_reference(&ct, &rgsw, &c, &p);
    assert_bit_identical(
        &external_product(&ct, &rgsw, &c, &p),
        &strict,
        "paper shape",
    );
}

/// The largest primes the tables admit: 4 terms (1 limb × 2 digits) and
/// 12 terms (2 limbs × 3 digits) are admitted and bit-identical to the
/// strict reference.
#[test]
fn ceiling_shapes_match_reference() {
    for (limbs, base_bits, digits) in [(1, 24, 2), (2, 16, 3)] {
        let p = RgswParams { base_bits, digits };
        let primes = largest_admitted_primes(N, limbs);
        let (c, ct, rgsw) = product_operands(&primes, &p, 0x47B1);
        for j in 0..limbs {
            let admitted = admits(&c, j, &p, limbs, ChainEnd::Reduce);
            assert!(admitted, "{limbs} limbs × {digits} digits");
        }
        let lazy = external_product(&ct, &rgsw, &c, &p);
        let strict = external_product_reference(&ct, &rgsw, &c, &p);
        assert_bit_identical(&lazy, &strict, "ceiling external_product");
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lazy-MAC external product == strict reference, on a fresh
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
        let oracle = blind_rotate_reference(&brk, &c, &f, &lwe);
        assert_bit_identical(&hot, &oracle, "blind_rotate");
    }

    /// The key-major tile is bit-identical, per member, to rotating each
    /// LWE through the strict reference on its own — for tiles of 1, 2, 3,
    /// 7, 8 and 9 (one MAC call per key row feeds every active member), on
    /// both [`shapes`]. The first steps put `a_i ∈ {0, N}` on a different subset of
    /// members each, so a step skips some members of a tile and not
    /// others, and the last step skips the whole tile.
    #[test]
    fn batch_matches_reference_per_member(seed in any::<u64>()) {
        // One scratch throughout: tiles of different sizes and both shapes
        // reuse it without leaking state.
        let mut scratch = BlindRotateScratch::default();
        for (c, p) in shapes() {
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
            let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, p, &mut rng);
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
                lwes.iter().map(|l| blind_rotate_reference(&brk, &c, &f, l)).collect();
            for size in [1, 2, 3, 7, 8, 9] {
                let got = brk.blind_rotate_batch_with(&c, &f, &lwes[..size], &mut scratch);
                prop_assert_eq!(got.len(), size);
                for (got, want) in got.iter().zip(&oracle) {
                    assert_bit_identical(got, want, "blind_rotate_batch_with");
                }
            }
        }
    }
}

/// A tile shares one MAC chain, but each accumulator slot holds only its
/// own member's terms. At 45 bits with `d = 3` one member's `6·q` sits
/// inside the fold's `2^50` while eight members' `48·q` do not: the tile's
/// chain is still admitted, and each member equals the strict oracle.
#[test]
fn tile_whose_total_terms_pass_the_fold_bound_matches_reference() {
    let c = RnsContext::new(N, &ntt_primes(N as u64, 45, 1));
    let p = RgswParams {
        base_bits: 15,
        digits: 3,
    };
    let (terms, tile) = (2 * p.digits, 8);
    let q = u128::from(c.modulus(0).value());
    assert!(terms as u128 * q <= 1 << 50 && (tile * terms) as u128 * q > 1 << 50);
    assert!(admits(&c, 0, &p, 1, ChainEnd::Fold));

    let mut rng = StdRng::seed_from_u64(0x45B1);
    let ring_sk = RingSecretKey::generate(&c, 1, &mut rng);
    let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
    let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, 1, p, &mut rng);
    let two_n = 2 * N as u64;
    let f = test_polynomial_from_fn(&c, 1, |u| u << 30);
    let lwes: Vec<LweCiphertext> = (0..tile)
        .map(|_| LweCiphertext {
            a: (0..N_T).map(|_| rng.gen_range(1..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        })
        .collect();
    let mut scratch = BlindRotateScratch::default();
    let got = brk.blind_rotate_batch_with(&c, &f, &lwes, &mut scratch);
    assert_eq!(got.len(), tile);
    for (got, lwe) in got.iter().zip(&lwes) {
        let want = blind_rotate_reference(&brk, &c, &f, lwe);
        assert_bit_identical(got, &want, "45-bit tile of 8");
    }
}

/// Full blind rotation at the ceiling — both chains admitted, the fold
/// within a limb's width of `2^50` — against the strict reference.
#[test]
fn ceiling_blind_rotation_matches_reference() {
    let [_, (c, p)] = shapes();
    for end in [ChainEnd::Reduce, ChainEnd::Fold] {
        assert!(admits(&c, 0, &p, LIMBS, end));
    }
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
    let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
    let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, p, &mut rng);
    let two_n = 2 * N as u64;
    let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
    let lwe = LweCiphertext {
        a: (0..N_T).map(|_| rng.gen_range(0..two_n)).collect(),
        b: rng.gen_range(0..two_n),
        modulus: two_n,
    };

    let hot = brk.blind_rotate(&c, &f, &lwe);
    let oracle = blind_rotate_reference(&brk, &c, &f, &lwe);
    assert_bit_identical(&hot, &oracle, "ceiling blind_rotate");
}

/// The paper's ring (N = 2^13, two limbs): one external product, one
/// `n_mask = 4` rotation and one 4-LWE key-major tile, each against its
/// strict oracle — on 36-bit limbs with `RgswParams::paper()`, then on the
/// largest primes the paper's ring admits.
/// The other oracle comparisons in this file run at N = 64; until it was
/// retired, the `kernel_sweep` binary was the only place that asserted
/// these at the ring the paper's tables are about, and nothing ran it.
#[test]
fn paper_ring_matches_reference() {
    let n = 1usize << 13;
    let (limbs, n_mask) = (2, 4);
    for (label, p, primes) in [
        (
            "36-bit",
            RgswParams::paper(),
            ntt_primes(n as u64, 36, limbs),
        ),
        (
            "ceiling",
            ceiling_params(),
            largest_admitted_primes(n, limbs),
        ),
    ] {
        let c = RnsContext::new(n, &primes);
        for end in [ChainEnd::Reduce, ChainEnd::Fold] {
            assert!(admits(&c, 0, &p, limbs, end), "{label}");
        }
        let mut rng = StdRng::seed_from_u64(2024);
        let ring_sk = RingSecretKey::generate(&c, limbs, &mut rng);
        let msg: Vec<i64> = (0..n).map(|i| ((i % 97) as i64) - 48).collect();
        let ct = RlweCiphertext::encrypt(
            &c,
            &ring_sk,
            &RnsPoly::from_signed(&c, &msg, limbs),
            &mut rng,
        );
        let rgsw = RgswCiphertext::encrypt_scalar(&c, &ring_sk, 1, limbs, &p, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, n_mask);
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, limbs, p, &mut rng);
        let two_n = 2 * n as u64;
        let f = test_polynomial_from_fn(&c, limbs, |u| u << 40);
        let lwes: Vec<LweCiphertext> = (0..4)
            .map(|_| LweCiphertext {
                a: (0..n_mask).map(|_| rng.gen_range(0..two_n)).collect(),
                b: rng.gen_range(0..two_n),
                modulus: two_n,
            })
            .collect();

        let product = external_product(&ct, &rgsw, &c, &p);
        let product_oracle = external_product_reference(&ct, &rgsw, &c, &p);
        assert_bit_identical(&product, &product_oracle, &format!("{label} product"));
        let rotation_oracles: Vec<RlweCiphertext> = lwes
            .iter()
            .map(|lwe| blind_rotate_reference(&brk, &c, &f, lwe))
            .collect();
        let single = brk.blind_rotate(&c, &f, &lwes[0]);
        let what = format!("{label} rotation");
        assert_bit_identical(&single, &rotation_oracles[0], &what);
        let mut scratch = BlindRotateScratch::default();
        let tile = brk.blind_rotate_batch_with(&c, &f, &lwes, &mut scratch);
        assert_eq!(tile.len(), lwes.len());
        for (got, want) in tile.iter().zip(&rotation_oracles) {
            assert_bit_identical(got, want, &format!("{label} key-major tile"));
        }
    }
}

/// The LWE key switch — exact `digit × entry` sums, folded to a residue
/// every `lwe_key_switch_fold_interval` terms, one reduction per output — against the
/// per-term loop it replaced, on the Tiny and Medium shapes (which never
/// fold), a 60-bit `N = 2^13` key that folds every few terms, and a 60-bit
/// gadget whose terms overflow `i64`, so it sums in `i128` without folding. Inputs are random
/// samples plus masks pinned at the digits' extremes (`q − 1` and the
/// balanced `±B/2` boundary).
#[test]
fn lwe_key_switch_matches_the_per_term_loop() {
    // (ring N, modulus bits, base bits, digits, n_t, folds)
    let shapes = [
        (1 << 7, 28, 6, 5, 32, false),
        (1 << 11, 36, 12, 3, 500, false),
        (1 << 13, 60, 2, 30, 8, true),
        (64, 60, 20, 3, 16, false),
    ];
    for (n, bits, base_bits, digits, n_t, folds) in shapes {
        let q = heap_math::Modulus::new(ntt_primes(n as u64, bits, 1)[0]).unwrap();
        let mut rng = StdRng::seed_from_u64(u64::from(bits) * n as u64);
        let from = LweSecretKey::generate(&mut rng, n);
        let to = LweSecretKey::generate(&mut rng, n_t);
        let ksk = LweKeySwitchKey::generate(&from, &to, &q, base_bits, digits, &mut rng);
        let shape = format!("N = {n}, {bits}-bit, B = 2^{base_bits}, d = {digits}");
        assert_eq!(
            lwe_key_switch_fold_interval(&ksk) < n * digits,
            folds,
            "{shape}"
        );
        let qv = q.value();
        let half_base = 1u64 << (base_bits - 1);
        let pinned = LweCiphertext {
            a: (0..n as u64)
                .map(|i| [qv - 1, half_base, qv - half_base, 0][i as usize % 4])
                .collect(),
            b: qv - 1,
            modulus: qv,
        };
        for ct in [
            pinned,
            from.encrypt(qv / 3, &q, &mut rng),
            from.encrypt(0, &q, &mut rng),
        ] {
            assert_eq!(
                ksk.switch(&ct, &q),
                lwe_key_switch_reference(&ksk, &ct, &q),
                "{shape}"
            );
        }
    }
}
