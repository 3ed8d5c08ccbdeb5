//! Property-based tests for the mathematical substrate: field axioms on
//! [`Modulus`], NTT linearity/involution, gadget roundtrips, big-integer
//! arithmetic against `u128` references, and RNS CRT consistency.

use heap_math::arith::{Modulus, ShoupMul};
use heap_math::bigint::BigUint;
use heap_math::gadget::Gadget;
use heap_math::ntt::NttTable;
use heap_math::oracle;
use heap_math::poly;
use heap_math::prime::{is_prime, ntt_primes};
use heap_math::rns::{Domain, RnsContext, RnsPoly};
use proptest::prelude::*;

#[path = "../../../tests/support/ceiling.rs"]
mod ceiling;
use ceiling::{largest_admitted, prime_near};

const Q36: u64 = 0x0000_000F_FFFC_4001;

fn q() -> Modulus {
    Modulus::new(Q36).unwrap()
}

/// The message `f` panics with; fails the test if it returns.
fn panic_message(f: impl FnOnce()) -> String {
    let err =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the call returned");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(err) => err
            .downcast::<&str>()
            .map_or_else(|_| String::new(), |s| s.to_string()),
    }
}

proptest! {
    #[test]
    fn mul_matches_u128(a in 0..Q36, b in 0..Q36) {
        let m = q();
        prop_assert_eq!(m.mul(a, b), ((a as u128 * b as u128) % Q36 as u128) as u64);
    }

    #[test]
    fn add_is_commutative_associative(a in 0..Q36, b in 0..Q36, c in 0..Q36) {
        let m = q();
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
    }

    #[test]
    fn mul_distributes_over_add(a in 0..Q36, b in 0..Q36, c in 0..Q36) {
        let m = q();
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
    }

    #[test]
    fn inverse_is_two_sided(a in 1..Q36) {
        let m = q();
        let ai = m.inv(a).unwrap();
        prop_assert_eq!(m.mul(a, ai), 1);
        prop_assert_eq!(m.mul(ai, a), 1);
    }

    #[test]
    fn shoup_equals_barrett(a in 0..Q36, b in 0..Q36) {
        let m = q();
        let s = ShoupMul::new(a, &m);
        prop_assert_eq!(s.mul(b, &m), m.mul(a, b));
    }

    #[test]
    fn signed_roundtrip(x in -(Q36 as i64)/2..(Q36 as i64)/2) {
        let m = q();
        prop_assert_eq!(m.to_signed(m.from_i64(x)), x);
    }

    #[test]
    fn reduce_u128_correct(x in any::<u128>()) {
        let m = q();
        prop_assert_eq!(m.reduce_u128(x), (x % Q36 as u128) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ntt_roundtrip(coeffs in prop::collection::vec(0u64..Q36, 64)) {
        let m = q();
        let t = NttTable::new(64, m);
        let mut a = coeffs.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, coeffs);
    }

    #[test]
    fn ntt_is_linear(
        a in prop::collection::vec(0u64..Q36, 32),
        b in prop::collection::vec(0u64..Q36, 32),
        k in 0..Q36,
    ) {
        let m = q();
        let t = NttTable::new(32, m);
        // NTT(k·a + b) == k·NTT(a) + NTT(b)
        let mut lhs: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(m.mul(k, x), y)).collect();
        t.forward(&mut lhs);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let rhs: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.add(m.mul(k, x), y)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn lazy_forward_bit_identical_to_strict(coeffs in prop::collection::vec(0u64..Q36, 64)) {
        // The lazy-reduction hot path must return *canonical* residues
        // identical to the strict reference kernel — not merely congruent
        // ones — so downstream serialization and digests never see a
        // datapath-dependent representative.
        let t = NttTable::new(64, q());
        let mut lazy = coeffs.clone();
        let mut strict = coeffs;
        t.forward(&mut lazy);
        oracle::forward_reference(&t, &mut strict);
        prop_assert_eq!(lazy, strict);
    }

    #[test]
    fn lazy_inverse_bit_identical_to_strict(coeffs in prop::collection::vec(0u64..Q36, 64)) {
        let t = NttTable::new(64, q());
        let mut lazy = coeffs.clone();
        let mut strict = coeffs;
        t.inverse(&mut lazy);
        oracle::inverse_reference(&t, &mut strict);
        prop_assert_eq!(lazy, strict);
    }

    #[test]
    fn lazy_parity_holds_at_the_largest_admitted_modulus(
        coeffs in prop::collection::vec(any::<u64>(), 32),
    ) {
        // The growth bound is tightest here: the last stage's sums sit
        // closest to 2^50.
        let m = largest_admitted(32);
        let qv = m.value();
        let reduced: Vec<u64> = coeffs.iter().map(|&c| c % qv).collect();
        let t = NttTable::new(32, m);
        let mut lazy = reduced.clone();
        let mut strict = reduced;
        t.forward(&mut lazy);
        oracle::forward_reference(&t, &mut strict);
        prop_assert_eq!(&lazy, &strict);
        t.inverse(&mut lazy);
        oracle::inverse_reference(&t, &mut strict);
        prop_assert_eq!(lazy, strict);
    }

    #[test]
    fn grouped_schedule_matches_standard(coeffs in prop::collection::vec(0u64..Q36, 128)) {
        let m = q();
        let t = NttTable::new(128, m);
        let mut a = coeffs.clone();
        let mut b = coeffs.clone();
        t.forward(&mut a);
        oracle::forward_on_the_fly(&t, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ntt_multiplication_is_negacyclic(
        a in prop::collection::vec(0u64..Q36, 16),
        b in prop::collection::vec(0u64..Q36, 16),
    ) {
        let m = q();
        let t = NttTable::new(16, m);
        let expect = oracle::negacyclic_convolution(&a, &b, &m);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut prod = vec![0u64; 16];
        t.pointwise(&fa, &fb, &mut prod);
        t.inverse(&mut prod);
        prop_assert_eq!(prod, expect);
    }

    #[test]
    fn monomial_mul_is_invertible(
        coeffs in prop::collection::vec(0u64..Q36, 32),
        k in 0i64..64,
    ) {
        let m = q();
        let shifted = poly::monomial_mul(&coeffs, k, &m);
        let back = poly::monomial_mul(&shifted, -k, &m);
        prop_assert_eq!(back, coeffs);
    }

    #[test]
    fn automorphism_preserves_constant_coeff(
        coeffs in prop::collection::vec(0u64..Q36, 32),
        g_idx in 0usize..16,
    ) {
        let m = q();
        let g = 2 * g_idx + 1; // odd exponents
        let out = poly::automorphism(&coeffs, g, &m);
        prop_assert_eq!(out[0], coeffs[0]);
    }
}

proptest! {
    #[test]
    fn gadget_roundtrip(x in 0..Q36) {
        let g = Gadget::new(18, 2, q());
        prop_assert_eq!(g.recompose(&g.decompose_scalar(x)), x);
    }

    #[test]
    fn gadget_signed_digits_bounded(x in 0..Q36) {
        let g = Gadget::new(13, 3, q());
        for d in g.decompose_scalar_signed(x) {
            prop_assert!(d.unsigned_abs() <= (1 << 12) + 1);
        }
    }

    #[test]
    fn bigint_add_mul_match_u128(a in any::<u64>(), b in any::<u64>(), c in 1u64..1 << 32) {
        // (a + b) * c over BigUint equals u128 arithmetic.
        let mut x = BigUint::from_u64(a);
        x.add_u64(b);
        x.mul_u64(c);
        let expect = (a as u128 + b as u128) * c as u128;
        prop_assert_eq!(x.rem_u64(u64::MAX), (expect % u64::MAX as u128) as u64);
    }

    #[test]
    fn bigint_cmp_consistent_with_u128(a in any::<u128>(), b in any::<u128>()) {
        let to_big = |v: u128| {
            let mut x = BigUint::from_u64((v >> 64) as u64);
            // shift left 64 via two 2^32 multiplications
            x.mul_u64(1 << 32);
            x.mul_u64(1 << 32);
            x.add_u64(v as u64);
            x
        };
        prop_assert_eq!(to_big(a).cmp_big(&to_big(b)), a.cmp(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rns_crt_roundtrip(coeffs in prop::collection::vec(-(1i64 << 40)..(1i64 << 40), 16)) {
        let ctx = RnsContext::new(16, &ntt_primes(16, 30, 3));
        let p = RnsPoly::from_signed(&ctx, &coeffs, 3);
        let back = p.to_centered_f64(&ctx);
        for (want, got) in coeffs.iter().zip(&back) {
            prop_assert_eq!(*want as f64, *got);
        }
    }

    #[test]
    fn rns_add_homomorphic(
        a in prop::collection::vec(-1000i64..1000, 16),
        b in prop::collection::vec(-1000i64..1000, 16),
        eval in any::<bool>(),
    ) {
        let ctx = RnsContext::new(16, &ntt_primes(16, 30, 2));
        let mut pa = RnsPoly::from_signed(&ctx, &a, 2);
        let mut pb = RnsPoly::from_signed(&ctx, &b, 2);
        if eval {
            pa.to_eval(&ctx);
            pb.to_eval(&ctx);
        }
        pa.add_assign(&pb, &ctx);
        if eval {
            pa.to_coeff(&ctx);
        }
        let got = pa.to_centered_f64(&ctx);
        for (i, g) in got.iter().enumerate() {
            prop_assert_eq!(*g, (a[i] + b[i]) as f64);
        }
    }

    #[test]
    fn rescale_approximates_division(coeffs in prop::collection::vec(-(1i64 << 45)..(1i64 << 45), 16)) {
        let ctx = RnsContext::new(16, &ntt_primes(16, 30, 2));
        let q1 = ctx.modulus(1).value() as f64;
        let mut p = RnsPoly::from_signed(&ctx, &coeffs, 2);
        p.rescale(&ctx);
        prop_assert_eq!(p.domain(), Domain::Coeff);
        let got = p.to_centered_f64(&ctx);
        for (want, g) in coeffs.iter().zip(&got) {
            prop_assert!((g - *want as f64 / q1).abs() <= 1.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_primes_are_prime_and_congruent(log_n in 3u32..9, bits in 24u32..40) {
        let n = 1u64 << log_n;
        for p in ntt_primes(n, bits, 2) {
            prop_assert!(is_prime(p));
            prop_assert_eq!(p % (2 * n), 1);
            prop_assert_eq!(64 - p.leading_zeros(), bits);
        }
    }
}

/// Kernel parity: the `f64`-lane kernels, at whatever width `HEAP_SIMD`
/// and the host give this process, must be bit-identical to the strict
/// integer loops for every admitted modulus class and the full lazy
/// operand range — `[0, 4q)` into the forward NTT, `[0, 2q)` into the
/// inverse. CI runs this module under each of the three widths.
mod simd_parity {
    use super::*;
    use heap_math::{ChainEnd, MacAcc};

    /// A 60-bit prime, for the `Modulus` arithmetic that has no transform
    /// behind it (`q ≡ 1 mod 512`).
    fn q60v() -> u64 {
        ntt_primes(256, 60, 1)[0]
    }

    fn q60() -> Modulus {
        Modulus::new(q60v()).unwrap()
    }

    /// Deterministic edge vector for modulus `q`: operand-bound corners
    /// (`0`, `q-1`, `2q-1`, `2q`, `4q-1`, `q/2` boundaries) padded to `n`.
    fn edge_vector(qv: u64, bound: u64, n: usize) -> Vec<u64> {
        let edges = [
            0,
            1,
            qv / 2,
            qv / 2 + 1,
            qv - 1,
            qv,
            2 * qv - 1,
            2 * qv,
            4 * qv - 1,
        ];
        (0..n).map(|i| edges[i % edges.len()] % bound).collect()
    }

    fn assert_forward_parity(m: Modulus, mut input: Vec<u64>) {
        let t = NttTable::new(input.len(), m);
        let mut strict: Vec<u64> = input.iter().map(|&x| x % m.value()).collect();
        t.forward(&mut input);
        oracle::forward_reference(&t, &mut strict);
        assert_eq!(input, strict);
    }

    /// Lengths the slice decomposition and the signed lift are checked at:
    /// every remainder of a 4-lane block, the two lengths their proptests
    /// started with, and one either side of 4096.
    fn ragged_lengths() -> impl Iterator<Item = usize> {
        (1..=9).chain([32, 37, 4095, 4097])
    }

    fn assert_inverse_parity(m: Modulus, mut input: Vec<u64>) {
        let t = NttTable::new(input.len(), m);
        let mut strict: Vec<u64> = input.iter().map(|&x| x % m.value()).collect();
        t.inverse(&mut input);
        oracle::inverse_reference(&t, &mut strict);
        assert_eq!(input, strict);
    }

    #[test]
    fn ntt_parity_at_operand_bound_edges() {
        for n in [16usize, 64, 256] {
            let big = largest_admitted(n);
            assert_forward_parity(q(), edge_vector(Q36, 4 * Q36, n));
            assert_inverse_parity(q(), edge_vector(Q36, 2 * Q36, n));
            assert_forward_parity(big, edge_vector(big.value(), 4 * big.value(), n));
            assert_inverse_parity(big, edge_vector(big.value(), 2 * big.value(), n));
        }
    }

    /// Parity at every ring the tables admit, up to the paper's N = 2^13 on
    /// a 36-bit limb — both last-pass shapes of every width, and `n = 16`,
    /// which has no radix-4 pass at 8 lanes: dispatching kernel == strict
    /// reference, forward and inverse.
    #[test]
    fn ntt_matches_strict_up_to_the_paper_ring() {
        for n in (4..=13).map(|log_n| 1usize << log_n) {
            let m = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
            let t = NttTable::new(n, m);
            let base: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % m.value())
                .collect();
            let [mut fast, mut strict] = [base.clone(), base];
            t.forward(&mut fast);
            oracle::forward_reference(&t, &mut strict);
            assert_eq!(fast, strict, "forward diverged at n = {n}");
            t.inverse(&mut fast);
            oracle::inverse_reference(&t, &mut strict);
            assert_eq!(fast, strict, "inverse diverged at n = {n}");
        }
    }

    /// The inverse transform against the strict oracle on `[0, 2q)` edge
    /// vectors (`0`, `q − 1`, `q`, `2q − 1`, then the forward-range corners
    /// that fall below `2q`) at every ring from 16 to 2^13, under a 36-bit
    /// prime and under the largest one the gate admits, where the sums of
    /// the signed-lazy stages run closest to `2^50` and the kernel must
    /// reduce them between passes.
    #[test]
    fn inverse_parity_at_every_ring_and_the_largest_admitted_modulus() {
        for n in (4..=13).map(|log_n| 1usize << log_n) {
            let m36 = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
            for m in [m36, largest_admitted(n)] {
                let qv = m.value();
                let t = NttTable::new(n, m);
                let edges = [0, qv - 1, qv, 2 * qv - 1];
                let mut input: Vec<u64> = (0..n)
                    .map(|i| match i % 8 {
                        k @ 0..=3 => edges[k],
                        k => edge_vector(qv, 2 * qv, 9)[k],
                    })
                    .collect();
                let mut strict: Vec<u64> = input.iter().map(|&x| x % qv).collect();
                t.inverse(&mut input);
                oracle::inverse_reference(&t, &mut strict);
                assert_eq!(input, strict, "inverse, n = {n}, q = {qv}");
                // A transformed vector: outputs anywhere in [0, q).
                let mut spread = edge_vector(qv, 2 * qv, n);
                t.forward(&mut spread);
                let mut strict = spread.clone();
                t.inverse(&mut spread);
                oracle::inverse_reference(&t, &mut strict);
                assert_eq!(spread, strict, "inverse of a transform, n = {n}, q = {qv}");
            }
        }
    }

    /// The external product's fused decomposer — inverse transform and
    /// balanced digit chain in one pass, `i32` digits out — against
    /// `oracle::inverse_reference` followed by the scalar signed digit
    /// chain, `Gadget::decompose_slice_signed_into`, on the Tiny and Medium
    /// presets' gadgets, on the largest modulus a 64-point ring admits with
    /// three digits, and on the largest one `N = 2^11` admits with a
    /// `2^31` base, whose digits reach `±2^30`. Inputs cover the
    /// lazy range `[0, 2q)` and the `q/2` sign boundary of the outputs; a
    /// coefficient-domain limb is decomposed as it is.
    #[test]
    fn fused_inverse_digits_match_inverse_then_scalar_decomposition() {
        let big = largest_admitted(1 << 11);
        let shapes = [
            (
                1usize << 7,
                Modulus::new(ntt_primes(1 << 7, 28, 1)[0]).unwrap(),
                15,
                2,
            ),
            (
                1 << 11,
                Modulus::new(ntt_primes(1 << 11, 36, 1)[0]).unwrap(),
                18,
                2,
            ),
            (1 << 6, largest_admitted(1 << 6), 16, 3),
            (1 << 11, big, 31, 2),
        ];
        for (n, m, base_bits, digits) in shapes {
            let (qv, t) = (m.value(), NttTable::new(n, m));
            let g = Gadget::new(base_bits, digits, m);
            // Coefficients at and around the sign boundary, from a known
            // coefficient vector; its transform, lifted by q on odd
            // positions, is the evaluation-domain input.
            let want_coeffs: Vec<u64> = (0..n as u64)
                .map(|i| match i % 6 {
                    0 => qv / 2,
                    1 => qv / 2 + 1,
                    2 => qv - 1,
                    3 => 0,
                    _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % qv,
                })
                .collect();
            let mut limb = want_coeffs.clone();
            oracle::forward_reference(&t, &mut limb);
            for (i, x) in limb.iter_mut().enumerate() {
                *x += qv * (i as u64 % 2);
            }
            let mut coeffs: Vec<u64> = limb.iter().map(|&x| x % qv).collect();
            oracle::inverse_reference(&t, &mut coeffs);
            assert_eq!(coeffs, want_coeffs);
            let mut rows = vec![vec![0i64; n]; digits];
            g.decompose_slice_signed_into(&coeffs, &mut rows);
            let want: Vec<i64> = rows.concat();
            let mut work = vec![0u64; n];
            for (domain, input) in [(Domain::Eval, &limb), (Domain::Coeff, &coeffs)] {
                let mut out = vec![7i32; digits * n];
                g.decompose_limb_into(&t, input, domain, &mut work, &mut out);
                let got: Vec<i64> = out.iter().map(|&d| i64::from(d)).collect();
                assert_eq!(
                    got, want,
                    "n = {n}, q = {qv}, base 2^{base_bits}, {domain:?}"
                );
            }
        }
    }

    /// A gadget whose balanced digits reach `±2^31` cannot write `i32`s.
    #[test]
    #[should_panic(expected = "do not fit an i32")]
    fn fused_decomposition_refuses_a_base_of_two_to_the_32() {
        let m = largest_admitted(16);
        let (t, g) = (NttTable::new(16, m), Gadget::new(32, 2, m));
        let (limb, mut work, mut out) = (vec![0u64; 16], vec![0u64; 16], vec![0i32; 32]);
        g.decompose_limb_into(&t, &limb, Domain::Eval, &mut work, &mut out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn forward_parity_36bit_lazy_range(coeffs in prop::collection::vec(0..4 * Q36, 64)) {
            assert_forward_parity(q(), coeffs);
        }

        #[test]
        fn inverse_parity_36bit_lazy_range(coeffs in prop::collection::vec(0..2 * Q36, 64)) {
            assert_inverse_parity(q(), coeffs);
        }

        #[test]
        fn forward_parity_lazy_range_at_the_largest_admitted_modulus(
            raw in prop::collection::vec(any::<u64>(), 32),
        ) {
            let m = largest_admitted(32);
            let coeffs: Vec<u64> = raw.iter().map(|&c| c % (4 * m.value())).collect();
            assert_forward_parity(m, coeffs);
        }

        #[test]
        fn inverse_parity_lazy_range_at_the_largest_admitted_modulus(
            raw in prop::collection::vec(any::<u64>(), 32),
        ) {
            let m = largest_admitted(32);
            let coeffs: Vec<u64> = raw.iter().map(|&c| c % (2 * m.value())).collect();
            assert_inverse_parity(m, coeffs);
        }

        /// `ShoupMul::new` reduces its operand, so precomputing from *any*
        /// `u64` must agree with Barrett multiplication by the reduced
        /// residue — at both supported modulus widths.
        #[test]
        fn shoup_precompute_from_any_u64(op in any::<u64>(), b36 in 0..Q36, b60 in 0..q60v()) {
            let m = q();
            prop_assert_eq!(ShoupMul::new(op, &m).mul(b36, &m), m.mul(m.reduce_u64(op), b36));
            let m = q60();
            prop_assert_eq!(ShoupMul::new(op, &m).mul(b60, &m), m.mul(m.reduce_u64(op), b60));
        }

        /// The MAC chain must land on the eager Barrett chain's canonical
        /// residues for signed digits and for residues of a foreign
        /// modulus alike, driven through the accumulator, which is the
        /// only documented way in.
        #[test]
        fn mac_chain_matches_eager_chain(
            d1 in prop::collection::vec(-(1i32 << 17)..=1 << 17, 32),
            x2 in prop::collection::vec(0..2 * Q36, 32),
            ops1 in prop::collection::vec(0..Q36, 32),
            ops2 in prop::collection::vec(0..Q36, 32),
        ) {
            let t = NttTable::new(32, q());
            let mut acc = MacAcc::default();
            acc.reset(&t, 2, 2, 2 * Q36, ChainEnd::Reduce);
            acc.mac_tile(&t, [(0, &d1[..])], [[&ops1[..], &ops2[..]]]);
            acc.mac_tile(&t, [(0, &x2[..])], [[&ops2[..], &ops1[..]]]);
            let mut got = vec![0u64; 64];
            let (a, b) = got.split_at_mut(32);
            acc.reduce_into(0, &t, a);
            acc.reduce_into(1, &t, b);

            let wide: Vec<i64> = d1.iter().map(|&d| i64::from(d)).collect();
            let mut x1 = poly::from_signed(&wide, &q());
            let mut x2: Vec<u64> = x2.iter().map(|&x| x % Q36).collect();
            oracle::forward_reference(&t, &mut x1);
            oracle::forward_reference(&t, &mut x2);
            let mut want = vec![0u64; 64];
            let (a, b) = want.split_at_mut(32);
            for (x, [r0, r1]) in [(&x1, [&ops1, &ops2]), (&x2, [&ops2, &ops1])] {
                t.pointwise_acc(x, r0, a);
                t.pointwise_acc(x, r1, b);
            }
            prop_assert_eq!(got, want);
        }

        /// Signed gadget decomposition at every ragged length: each
        /// coefficient's balanced digits are at most half the base in
        /// magnitude and recompose to it.
        #[test]
        fn decompose_signed_roundtrips(all in prop::collection::vec(0..Q36, 4097)) {
            let (m, g) = (q(), Gadget::new(13, 3, q()));
            let half = (g.base() / 2) as i64;
            for len in ragged_lengths() {
                let coeffs = &all[..len];
                let mut rows = vec![vec![0i64; len]; 3];
                g.decompose_slice_signed_into(coeffs, &mut rows);
                for (i, &c) in coeffs.iter().enumerate() {
                    let digits: Vec<u64> = rows.iter().map(|r| m.from_i64(r[i])).collect();
                    prop_assert!(rows.iter().all(|r| r[i].abs() <= half), "length {len}");
                    prop_assert_eq!(g.recompose(&digits), c, "length {len}");
                }
            }
        }

        /// The signed lift: the conditional add (gadget digits, `|c| < q`)
        /// and its out-of-range fallback must both land on the canonical
        /// `rem_euclid` residue for *any* `i64`, at both supported modulus
        /// widths, at every ragged length.
        #[test]
        fn from_signed_parity_any_i64(
            small in prop::collection::vec(-(Q36 as i64 - 1)..Q36 as i64, 4097),
            wild_bits in prop::collection::vec(any::<u64>(), 4097),
        ) {
            let wild: Vec<i64> = wild_bits.iter().map(|&b| b as i64).collect();
            for len in ragged_lengths() {
                for qv in [Q36, q60v()] {
                    let m = Modulus::new(qv).unwrap();
                    for src in [&small[..len], &wild[..len]] {
                        let mut out = vec![0u64; len];
                        poly::from_signed_into(src, &m, &mut out);
                        for (&o, &c) in out.iter().zip(src) {
                            prop_assert_eq!(o, c.rem_euclid(qv as i64) as u64, "length {len}");
                        }
                    }
                }
            }
        }
    }
}

/// Exactness of the fused digit → NTT → MAC datapath at the edges of its
/// gate: every shape the gate admits equals the eager Barrett chain over
/// the strict transform, and every shape past it is refused — by
/// `NttTable::new` or by `MacAcc::reset` — before any lane is computed.
/// (The width is whatever `HEAP_SIMD` and the host say, for the whole run.)
mod fused_datapath {
    use super::*;
    use heap_math::{ChainEnd, LazyCoeff, MacAcc};

    /// Whether [`MacAcc::reset`] refuses a one-slot chain, naming the
    /// bound it would pass.
    fn refused(t: &NttTable, terms: usize, input_bound: u64, end: ChainEnd) -> bool {
        let mut acc = MacAcc::default();
        let reset = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            acc.reset(t, 1, terms, input_bound, end)
        }));
        let Err(err) = reset else {
            return false;
        };
        let msg = err
            .downcast::<String>()
            .map_or_else(|_| String::new(), |s| *s);
        assert!(msg.contains("past the f64 lanes' bounds"), "{msg}");
        true
    }

    fn prime_of(n: usize, bits: u32) -> Modulus {
        Modulus::new(ntt_primes(n as u64, bits, 1)[0]).unwrap()
    }

    /// A digit coefficient's canonical residue, for the oracle.
    trait Residue: LazyCoeff {
        fn residue(self, q: u64) -> u64;
    }

    impl Residue for i32 {
        fn residue(self, q: u64) -> u64 {
            i64::from(self).rem_euclid(q as i64) as u64
        }
    }

    impl Residue for u64 {
        fn residue(self, q: u64) -> u64 {
            self % q
        }
    }

    /// One digit against one key row pair, `terms` times over, on a chain
    /// reset for digits up to `input_bound`: the fused entry against the
    /// eager chain. Identical terms make the sums as large as the count
    /// allows; the oracle's `terms`-fold sum is one Barrett product by
    /// `terms mod q`.
    fn assert_fused_matches_eager<T: Residue>(
        t: &NttTable,
        input_bound: u64,
        digit: &[T],
        rows: [&[u64]; 2],
        terms: usize,
    ) {
        let (n, m) = (t.n(), t.modulus());
        let mut x: Vec<u64> = digit.iter().map(|&d| d.residue(m.value())).collect();
        oracle::forward_reference(t, &mut x);
        let mut acc = MacAcc::default();
        acc.reset(t, 2, terms, input_bound, ChainEnd::Reduce);
        for _ in 0..terms {
            acc.mac_tile(t, [(0, digit)], [rows]);
        }
        for (slot, row) in rows.into_iter().enumerate() {
            let mut once = vec![0u64; n];
            t.pointwise_acc(&x, row, &mut once);
            let count = m.reduce_u64(terms as u64);
            let want: Vec<u64> = once.iter().map(|&p| m.mul(p, count)).collect();
            let mut got = vec![1u64; n];
            acc.reduce_into(slot, t, &mut got);
            assert_eq!(
                got,
                want,
                "n = {n}, q = {}, {terms} terms, slot {slot}",
                m.value()
            );
        }
    }

    /// `forward` on lazy inputs pinned at `4q − 1` against the strict kernel.
    fn assert_forward_exact_at_4q(t: &NttTable) {
        let q = t.modulus().value();
        let mut hot = vec![4 * q - 1; t.n()];
        let mut strict = vec![(4 * q - 1) % q; t.n()];
        t.forward(&mut hot);
        oracle::forward_reference(t, &mut strict);
        assert_eq!(hot, strict, "forward at 4q - 1, n = {}, q = {q}", t.n());
    }

    /// The five modulus classes for ring `n` with their gadget base: the
    /// preset widths, 45 bits, and the largest prime the table admits,
    /// with digits of half a `2^24` base.
    fn modulus_classes(n: usize) -> Vec<(Modulus, u32)> {
        let mut classes: Vec<_> = [28u32, 30, 36, 45]
            .iter()
            .map(|&bits| (prime_of(n, bits), bits.div_ceil(2)))
            .collect();
        classes.push((largest_admitted(n), 24));
        classes
    }

    /// `NttTable::new`'s gate at its edges: the largest admitted prime
    /// builds at `n = 16` and at `n = 2^16`, and transforms exactly at the
    /// lazy input bound; the next NTT prime above it and an 8-point ring
    /// are refused, each naming its bound.
    #[test]
    fn ntt_table_admits_the_largest_prime_and_refuses_the_next() {
        for n in [16usize, 1 << 16] {
            let m = largest_admitted(n);
            let growth = u128::from(4 + n.trailing_zeros()) * u128::from(m.value());
            assert!(growth <= 1 << 50, "n = {n}");
            assert_forward_exact_at_4q(&NttTable::new(n, m));
            let next = prime_near(n, m.value(), 1);
            let msg = panic_message(|| drop(NttTable::new(n, next)));
            assert!(
                msg.contains("(4 + log2 n)·q must be at most 2^50"),
                "n = {n}: {msg}"
            );
        }
        let small = Modulus::new(ntt_primes(8, 36, 1)[0]).unwrap();
        let msg = panic_message(|| drop(NttTable::new(8, small)));
        assert!(msg.contains("power of two >= 16"), "{msg}");
    }

    /// Digits pinned at `±2^(base_bits−1)`, residues pinned at `q − 1` and
    /// at the largest foreign modulus the gate admits, key rows at `q − 1`,
    /// `0` and random, 28 terms (the paper's `2·7·2`), every `N` from 16 to
    /// the paper's `2^13`: the fused entry equals the eager chain, and so
    /// does `forward` on lazy inputs pinned at `4q − 1`.
    #[test]
    fn fused_entry_matches_eager_chain_at_the_extremes() {
        for n in (4..=13).map(|log_n| 1usize << log_n) {
            for (m, base_bits) in modulus_classes(n) {
                let q = m.value();
                let t = NttTable::new(n, m);
                let terms = 28;
                let half_base = 1i32 << (base_bits - 1);
                let random: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % q)
                    .collect();
                let rows = [vec![q - 1; n], vec![0; n], random];

                let digits = [
                    vec![half_base; n],
                    vec![-half_base; n],
                    (0..n)
                        .map(|i| if i % 3 == 0 { half_base } else { -half_base })
                        .collect(),
                ];
                for digit in &digits {
                    for pair in [[&rows[0], &rows[2]], [&rows[1], &rows[0]]] {
                        let pair = pair.map(|r| &r[..]);
                        assert_fused_matches_eager(&t, half_base as u64, digit, pair, terms);
                    }
                }

                // Key-switch digits: residues pinned at this modulus' top,
                // and at the largest magnitude the gate admits.
                let largest = (1u64 << 50) - u64::from(n.trailing_zeros()) * q;
                for residue in [q - 1, largest] {
                    let digit = vec![residue; n];
                    let pair = [&rows[0][..], &rows[2][..]];
                    assert_fused_matches_eager(&t, residue, &digit, pair, terms);
                }

                assert_forward_exact_at_4q(&t);
            }
        }
    }

    /// The most terms the gate admits, `⌊2^52 / q⌋`, all pinned at the
    /// extremes: the sum of signed terms stays exact to the last one, and
    /// one term more is refused.
    #[test]
    fn largest_admitted_term_count_stays_exact() {
        let n = 16;
        for (m, base_bits) in modulus_classes(n) {
            let q = m.value();
            let t = NttTable::new(n, m);
            let half_base = 1u64 << (base_bits - 1);
            let terms = ((1u64 << 52) / q) as usize;
            assert!(refused(&t, terms + 1, half_base, ChainEnd::Reduce));
            let digit = vec![-(half_base as i32); n];
            let rows = [vec![q - 1; n], vec![q / 2; n]];
            assert_fused_matches_eager(&t, half_base, &digit, [&rows[0], &rows[1]], terms);
        }
    }

    /// A chain fed past what it was reset for never returns a wrong
    /// residue: a table of another modulus is refused, and so are more
    /// terms than declared once a slot could pass `2^52`.
    #[test]
    fn chain_fed_past_its_reset_never_returns_a_wrong_residue() {
        let n = 32;
        let t = NttTable::new(n, prime_of(n, 45));
        let q = t.modulus().value();
        let digit: Vec<u64> = (0..n as u64).map(|i| (q - 1 - i * 977) % q).collect();
        let row: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 31).collect();
        let other = NttTable::new(n, prime_of(n, 36));

        let mut acc = MacAcc::default();
        acc.reset(&t, 2, 1, q, ChainEnd::Reduce);
        let msg = panic_message(|| acc.mac_tile(&other, [(0, &digit[..])], [[&row[..], &row[..]]]));
        assert!(msg.contains("not reset for"), "{msg}");

        let terms = ((1u64 << 52) / q) as usize + 1;
        let msg = panic_message(|| {
            let mut acc = MacAcc::default();
            acc.reset(&t, 2, 1, q, ChainEnd::Reduce);
            for _ in 0..terms {
                acc.mac_tile(&t, [(0, &digit[..])], [[&row[..], &row[..]]]);
            }
        });
        assert!(msg.contains("past its exact bound"), "{msg}");
    }

    /// The CMux fold against the eager sequence it replaces — reduce each
    /// sum, scale it by its factor, add both to the accumulator — with sums
    /// as large as the fold's gate admits, factors and accumulator pinned
    /// at `q − 1` and random. A chain declared a term longer is refused at
    /// `reset`, and one fed a term past its declaration refuses to fold.
    #[test]
    fn fold_matches_the_eager_sequence_at_its_gate() {
        for n in [16usize, 64, 1 << 11] {
            let t = NttTable::new(n, prime_of(n, 36));
            let m = *t.modulus();
            let q = m.value();
            let terms = ((1u64 << 50) / q) as usize;
            let half_base = 1u64 << 17;
            assert!(refused(&t, terms + 1, half_base, ChainEnd::Fold), "n = {n}");
            let random = |salt: u64| -> Vec<u64> {
                (0..n as u64)
                    .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % q)
                    .collect()
            };
            let digit = vec![-(half_base as i32); n];
            let rows = [vec![q - 1; n], random(1)];
            let factors = [vec![q - 1; n], random(2)];
            let start = random(3);
            let mut sums = [vec![0u64; n], vec![0u64; n]];
            let mut x = poly::from_signed(&vec![-(half_base as i64); n], &m);
            oracle::forward_reference(&t, &mut x);
            for (sum, row) in sums.iter_mut().zip(&rows) {
                t.pointwise_acc(&x, row, sum);
                let count = m.reduce_u64(terms as u64);
                sum.iter_mut().for_each(|s| *s = m.mul(*s, count));
            }
            let want: Vec<u64> = (0..n)
                .map(|i| {
                    m.add(
                        start[i],
                        m.add(
                            m.mul(sums[0][i], factors[0][i]),
                            m.mul(sums[1][i], factors[1][i]),
                        ),
                    )
                })
                .collect();
            let mut acc = MacAcc::default();
            acc.reset(&t, 2, terms, half_base, ChainEnd::Fold);
            for _ in 0..terms {
                acc.mac_tile(&t, [(0, &digit[..])], [[&rows[0][..], &rows[1][..]]]);
            }
            let mut got = start.clone();
            acc.fold_into([0, 1], [&factors[0], &factors[1]], &t, &mut got);
            assert_eq!(got, want, "n = {n}");
            acc.mac_tile(&t, [(0, &digit[..])], [[&rows[0][..], &rows[1][..]]]);
            let msg =
                panic_message(|| acc.fold_into([0, 1], [&factors[0], &factors[1]], &t, &mut got));
            assert!(msg.contains("the fold's exact bound"), "n = {n}: {msg}");
        }
    }

    /// Just past the gate — the next prime above the largest admitted one,
    /// and inputs one past the largest admitted magnitude — is refused on
    /// every host: the modulus by `NttTable::new`, the inputs by
    /// `MacAcc::reset`.
    #[test]
    fn shapes_past_the_gate_are_refused_at_new_or_reset() {
        for n in [16usize, 1 << 11, 1 << 13] {
            let inside = largest_admitted(n);
            let past = prime_near(n, inside.value(), 1);
            let msg = panic_message(|| drop(NttTable::new(n, past)));
            assert!(msg.contains("2^50"), "n = {n}: {msg}");

            let t = NttTable::new(n, inside);
            let fits = (1u64 << 50) - u64::from(n.trailing_zeros()) * inside.value();
            assert!(!refused(&t, 28, fits, ChainEnd::Reduce), "n = {n}");
            assert!(refused(&t, 28, fits + 1, ChainEnd::Reduce), "n = {n}");
        }
    }
}

/// Ragged shapes at the `f64`-lane entry points, `NttTable::{forward,
/// inverse}`, `Gadget::decompose_limb_into` and `MacAcc::mac_tile`, for
/// CI's ASan step to run on every
/// tier. Rings are powers of two, so "ragged" means the smallest rings the
/// tables admit, which must agree with the strict oracle, or a slice that
/// is not the ring's length, which must panic with the entry point's own
/// message before any lane is read.
mod ragged_entry_points {
    use super::*;
    use heap_math::{ChainEnd, MacAcc};

    /// The two moduli each ring runs under: 36 bits, and the largest
    /// modulus a 256-point ring admits — an NTT prime for every ring up to
    /// 256, inside every smaller ring's bound.
    fn moduli() -> [Modulus; 2] {
        [q(), largest_admitted(256)]
    }

    fn residues(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % Q36)
            .collect()
    }

    /// The smallest rings the tables admit: `n = 16` is one 8-lane block
    /// with no radix-4 pass and `n = 32` one radix-4 pass and the shorter
    /// last pass. Forward, inverse, the signed MAC and the fold agree with
    /// the strict oracle under both [`moduli`], and so does the fused
    /// decomposer.
    #[test]
    fn smallest_admitted_rings_match_the_strict_oracle() {
        for (n, m) in [16usize, 32]
            .into_iter()
            .flat_map(|n| moduli().map(|m| (n, m)))
        {
            let t = NttTable::new(n, m);
            let [mut fast, mut strict] = [residues(n, 1), residues(n, 1)];
            t.forward(&mut fast);
            oracle::forward_reference(&t, &mut strict);
            assert_eq!(fast, strict, "forward, n = {n}");
            t.inverse(&mut fast);
            oracle::inverse_reference(&t, &mut strict);
            assert_eq!(fast, strict, "inverse, n = {n}");
            // The fused decomposer of the transform's output, back to it.
            let g = match m.value() {
                Q36 => Gadget::new(18, 2, m),
                _ => Gadget::new(20, 3, m),
            };
            let mut limb = strict.clone();
            t.forward(&mut limb);
            let mut rows = vec![vec![0i64; n]; g.digits()];
            g.decompose_slice_signed_into(&strict, &mut rows);
            let (mut work, mut out) = (vec![0u64; n], vec![0i32; g.digits() * n]);
            g.decompose_limb_into(&t, &limb, Domain::Eval, &mut work, &mut out);
            let got: Vec<i64> = out.iter().map(|&d| i64::from(d)).collect();
            assert_eq!(got, rows.concat(), "fused digits, n = {n}");

            let digit: Vec<i32> = (0..n as i32).map(|i| (i - 3) << 16).collect();
            let rows = [residues(n, 2), residues(n, 3)];
            let wide: Vec<i64> = digit.iter().map(|&d| i64::from(d)).collect();
            let mut x = poly::from_signed(&wide, &m);
            oracle::forward_reference(&t, &mut x);
            let mut want = [vec![0u64; n], vec![0u64; n]];
            for (w, row) in want.iter_mut().zip(&rows) {
                t.pointwise_acc(&x, row, w);
                t.pointwise_acc(&x, row, w);
            }
            let factors = [residues(n, 4), residues(n, 5)];
            let start = residues(n, 6);
            let folded: Vec<u64> = (0..n)
                .map(|i| {
                    let scaled = |k: usize| m.mul(want[k][i], factors[k][i]);
                    m.add(start[i], m.add(scaled(0), scaled(1)))
                })
                .collect();
            let mut acc = MacAcc::default();
            acc.reset(&t, 2, 2, 1 << 21, ChainEnd::Fold);
            acc.mac_tile(&t, [(0, &digit[..])], [[&rows[0][..], &rows[1][..]]]);
            acc.mac_tile(&t, [(0, &digit[..])], [[&rows[0][..], &rows[1][..]]]);
            for (slot, w) in want.iter().enumerate() {
                let mut got = vec![0u64; n];
                acc.reduce_into(slot, &t, &mut got);
                assert_eq!(&got, w, "mac_tile, n = {n}, slot {slot}");
            }
            let mut got = start.clone();
            acc.fold_into([0, 1], [&factors[0], &factors[1]], &t, &mut got);
            assert_eq!(got, folded, "fold_into, n = {n}");
        }
        for n in [2usize, 4, 8] {
            let m = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
            let msg = panic_message(|| drop(NttTable::new(n, m)));
            assert!(msg.contains(">= 16"), "n = {n}: {msg}");
        }
    }

    #[test]
    fn mismatched_lengths_panic_cleanly() {
        for n in [16usize, 64] {
            let t = NttTable::new(n, q());
            for len in [n / 2, n - 1, n + 1, 2 * n] {
                for inverse in [false, true] {
                    let mut a = residues(len, 4);
                    let msg = panic_message(|| {
                        if inverse {
                            t.inverse(&mut a)
                        } else {
                            t.forward(&mut a)
                        }
                    });
                    assert!(
                        msg.contains("length mismatch"),
                        "n = {n}, len = {len}: {msg}"
                    );
                }
            }
            // The fused decomposer: its limb, work buffer and digit rows.
            let g = Gadget::new(18, 2, q());
            for len in [n - 1, n + 1] {
                let shapes = [("limb", len, n, 2 * n), ("work", n, len, 2 * n)];
                for (what, limb, work, digits) in shapes.into_iter().chain([("digits", n, n, len)])
                {
                    let (limb, mut work) = (residues(limb, 9), vec![0u64; work]);
                    let mut out = vec![0i32; digits];
                    let msg = panic_message(|| {
                        g.decompose_limb_into(&t, &limb, Domain::Eval, &mut work, &mut out)
                    });
                    assert!(
                        msg.contains("length mismatch"),
                        "decompose {what}, n = {n}, len = {len}: {msg}"
                    );
                }
            }
            let good = vec![1i32; n];
            let row = residues(n, 5);
            for m in moduli() {
                let (t, other) = (NttTable::new(n, m), NttTable::new(2 * n, m));
                let mut acc = MacAcc::default();
                acc.reset(&t, 2, 2, 1, ChainEnd::Fold);
                for len in [n - 1, n + 1] {
                    let short = vec![1i32; len];
                    let ragged_row = residues(len, 6);
                    // (what is ragged, table, digit, second key row)
                    let cases = [
                        ("digit", &t, &short, &row),
                        ("key row", &t, &good, &ragged_row),
                        ("table", &other, &good, &row),
                    ];
                    for (what, table, digit, row2) in cases {
                        let rows = [[&row[..], &row2[..]]];
                        let msg = panic_message(|| acc.mac_tile(table, [(0, &digit[..])], rows));
                        assert!(
                            msg.contains("length mismatch"),
                            "{what}, n = {n}, len = {len}: {msg}"
                        );
                    }
                    // The chain's two ends: the reduction's output, and the
                    // fold's factors, accumulator and table.
                    let mut ragged_out = residues(len, 7);
                    let msg = panic_message(|| acc.reduce_into(0, &t, &mut ragged_out));
                    assert!(
                        msg.contains("length mismatch"),
                        "reduce_into, n = {n}: {msg}"
                    );
                    let mut good_acc = residues(n, 8);
                    let fold_cases = [
                        ("factor", &t, &ragged_row, &mut good_acc.clone()),
                        ("accumulator", &t, &row, &mut ragged_out.clone()),
                        ("table", &other, &row, &mut good_acc),
                    ];
                    for (what, table, factor, acc_limb) in fold_cases {
                        let factors = [&row[..], &factor[..]];
                        let msg = panic_message(|| acc.fold_into([0, 1], factors, table, acc_limb));
                        assert!(
                            msg.contains("length mismatch"),
                            "fold {what}, n = {n}, len = {len}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// The word-level limb codec, the sliced CRC and the streaming FNV against
/// the loops they replaced. A wrong bit here would otherwise surface only
/// as a failed key-id parity on a node.
mod wire_props {
    use heap_math::wire::{
        crc32, fnv1a, pack_bits, packed_size, unpack_bits, xxh64, Crc32, Fnv1a, WireError,
        WireReader, WireWriter, Xxh64,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bit-at-a-time packer the word-level codec replaced, kept as
    /// the layout's definition: LSB first, zero padding.
    fn pack_oracle(values: &[u64], bits: u32) -> Vec<u8> {
        let mut out = vec![0u8; (values.len() * bits as usize).div_ceil(8)];
        let mut bit_pos = 0usize;
        for &v in values {
            let (mut remaining, mut val) = (bits, v);
            while remaining > 0 {
                let offset = (bit_pos % 8) as u32;
                let take = (8 - offset).min(remaining);
                out[bit_pos / 8] |= ((val & ((1u64 << take) - 1)) as u8) << offset;
                val >>= take;
                remaining -= take;
                bit_pos += take as usize;
            }
        }
        out
    }

    fn unpack_oracle(buf: &[u8], bits: u32, count: usize) -> Vec<u64> {
        let mut bit_pos = 0usize;
        (0..count)
            .map(|_| {
                let (mut val, mut got) = (0u64, 0u32);
                while got < bits {
                    let offset = (bit_pos % 8) as u32;
                    let take = (8 - offset).min(bits - got);
                    let chunk = u64::from(buf[bit_pos / 8] >> offset) & ((1u64 << take) - 1);
                    val |= chunk << got;
                    got += take;
                    bit_pos += take as usize;
                }
                val
            })
            .collect()
    }

    fn crc32_oracle(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `count` values of `bits` bits: random, with all-ones and zero mixed
    /// in so carries across every word boundary are exercised.
    fn values(rng: &mut StdRng, bits: u32, count: usize) -> Vec<u64> {
        let mask = u64::MAX >> (64 - bits);
        (0..count)
            .map(|_| match rng.gen_range(0..4) {
                0 => mask,
                1 => 0,
                _ => rng.gen::<u64>() & mask,
            })
            .collect()
    }

    /// Pack equals the oracle byte for byte; unpack inverts it from a
    /// buffer that ends exactly at the last value, and one byte short is
    /// `Truncated`.
    fn assert_codec_matches_oracle(vals: &[u64], bits: u32) {
        let packed = pack_bits(vals, bits);
        assert_eq!(packed, pack_oracle(vals, bits), "pack, {bits} bits");
        assert_eq!(packed.len(), packed_size(vals.len(), bits));
        // An exact-size heap allocation: ASan sees any read past the run.
        let exact = packed.clone().into_boxed_slice();
        assert_eq!(
            unpack_bits(&exact, bits, vals.len()).unwrap(),
            vals,
            "unpack, {bits} bits × {}",
            vals.len()
        );
        assert_eq!(unpack_oracle(&exact, bits, vals.len()), vals);
        if let Some(short) = exact.len().checked_sub(1) {
            assert_eq!(
                unpack_bits(&exact[..short], bits, vals.len()),
                Err(WireError::Truncated)
            );
        }
    }

    #[test]
    fn word_codec_equals_bit_loop_for_every_width_and_short_count() {
        let mut rng = StdRng::seed_from_u64(24);
        for bits in 1..=64u32 {
            let mask = u64::MAX >> (64 - bits);
            for count in 0..=67usize {
                assert_codec_matches_oracle(&values(&mut rng, bits, count), bits);
                assert_codec_matches_oracle(&vec![mask; count], bits);
            }
        }
    }

    #[test]
    fn word_codec_equals_bit_loop_on_long_runs() {
        // Past the writer's piece size, so a run spans several pieces;
        // 58..=64 bits is the nine-byte (two-read) case.
        let mut rng = StdRng::seed_from_u64(25);
        for bits in [1u32, 7, 28, 30, 36, 57, 58, 60, 63, 64] {
            for count in [2047usize, 2048, 2049, 4099, 10_001] {
                assert_codec_matches_oracle(&values(&mut rng, bits, count), bits);
            }
        }
    }

    #[test]
    fn a_run_gathered_from_slices_is_the_run_of_their_concatenation() {
        let mut rng = StdRng::seed_from_u64(26);
        for bits in [13u32, 28, 36, 61] {
            let rows: Vec<Vec<u64>> = (0..50).map(|_| values(&mut rng, bits, 97)).collect();
            let flat: Vec<u64> = rows.iter().flatten().copied().collect();
            let mut w = WireWriter::new();
            w.put_packed_iter(rows.iter().flatten().copied(), flat.len(), bits);
            assert_eq!(w.into_bytes(), pack_oracle(&flat, bits));
        }
    }

    #[test]
    fn reader_stops_exactly_at_the_end_of_a_run() {
        let mut w = WireWriter::new();
        w.put_packed(&[1, 2, 3], 60);
        w.put_u8(0xEE);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_packed(60, 3).unwrap(), [1, 2, 3]);
        assert_eq!(r.get_u8().unwrap(), 0xEE);
        assert_eq!(r.remaining(), 0);
    }

    /// Splits `data` at random points and feeds the pieces to `update`.
    fn in_random_chunks(rng: &mut StdRng, data: &[u8], mut update: impl FnMut(&[u8])) {
        let mut rest = data;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(41)));
            update(head);
            rest = tail;
        }
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_definition_under_any_chunking() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut rng = StdRng::seed_from_u64(27);
        let data: Vec<u8> = (0..4099).map(|_| rng.gen::<u32>() as u8).collect();
        for len in 0..=data.len() {
            let want = crc32_oracle(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "one shot, {len} bytes");
            let mut h = Crc32::new();
            in_random_chunks(&mut rng, &data[..len], |c| h.update(c));
            assert_eq!(h.finalize(), want, "chunked, {len} bytes");
        }
    }

    #[test]
    fn streamed_fnv1a_equals_the_one_shot() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut rng = StdRng::seed_from_u64(28);
        let data: Vec<u8> = (0..5000).map(|_| rng.gen::<u32>() as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 1000, 4999, 5000] {
            let mut h = Fnv1a::new();
            in_random_chunks(&mut rng, &data[..len], |c| h.update(c));
            assert_eq!(h.finish(), fnv1a(&data[..len]), "{len} bytes");
        }
    }

    /// XXH64 (seed 0) written straight from the specification over one
    /// whole slice: the oracle the streaming hasher is held to.
    fn xxh64_oracle(input: &[u8]) -> u64 {
        const P1: u64 = 0x9E37_79B1_85EB_CA87;
        const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
        const P3: u64 = 0x1656_67B1_9E37_79F9;
        const P4: u64 = 0x85EB_CA77_C2B2_AE63;
        const P5: u64 = 0x27D4_EB2F_1656_67C5;
        let word = |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().unwrap());
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let merge = |h: u64, v: u64| (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
        let len = input.len();
        let mut at = 0;
        let mut h = if len >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            while at + 32 <= len {
                for (k, lane) in v.iter_mut().enumerate() {
                    *lane = round(*lane, word(at + 8 * k));
                }
                at += 32;
            }
            let h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            v.iter().fold(h, |h, &lane| merge(h, lane))
        } else {
            P5
        };
        h = h.wrapping_add(len as u64);
        while at + 8 <= len {
            h = (h ^ round(0, word(at)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= len {
            let half = u32::from_le_bytes(input[at..at + 4].try_into().unwrap());
            h = (h ^ u64::from(half).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            at += 4;
        }
        for &b in &input[at..] {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn streamed_xxh64_equals_the_one_shot() {
        assert_eq!(xxh64_oracle(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64_oracle(b"abc"), 0x44BC_2CF5_AD77_0999);
        let mut rng = StdRng::seed_from_u64(49);
        let data: Vec<u8> = (0..5000).map(|_| rng.gen::<u32>() as u8).collect();
        for len in [0usize, 1, 31, 32, 33, 1000, 5000] {
            let want = xxh64_oracle(&data[..len]);
            assert_eq!(xxh64(&data[..len]), want, "one shot, {len} bytes");
            for _ in 0..8 {
                let mut h = Xxh64::default();
                in_random_chunks(&mut rng, &data[..len], |c| h.update(c));
                assert_eq!(h.finish(), want, "chunked, {len} bytes");
            }
        }
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(
            bits in 1u32..=64,
            values in prop::collection::vec(any::<u64>(), 0..128),
        ) {
            let mask = u64::MAX >> (64 - bits);
            let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
            let packed = pack_bits(&masked, bits);
            prop_assert_eq!(packed.len(), packed_size(masked.len(), bits));
            let back = unpack_bits(&packed, bits, masked.len()).unwrap();
            prop_assert_eq!(back, masked);
        }

        #[test]
        fn packed_size_is_minimal(bits in 1u32..=63, count in 0usize..1000) {
            let bytes = packed_size(count, bits);
            prop_assert!(bytes * 8 >= count * bits as usize);
            prop_assert!(bytes == 0 || (bytes - 1) * 8 < count * bits as usize);
        }
    }
}
