//! Seed-expandable wire encodings for the TFHE evaluation keys (the ARK
//! play behind HEAP §III-C's key-traffic cut).
//!
//! Every key ciphertext is an (R)LWE sample whose mask `a` is uniform —
//! information-free on the wire. A *seeded* encoding therefore ships only
//! the `b` halves plus one PRG seed, and the receiving node regenerates
//! every `a` deterministically, roughly halving key bytes before any
//! caching starts. The *strict* encoding (mode 0) keeps both halves and
//! doubles as the parity oracle: expanding a seeded encoding and
//! re-encoding it strictly must reproduce the original strict bytes
//! bit for bit.
//!
//! Freshly generated keys have RNG-coupled masks, so they are first put
//! into seedable form by the `reseed_*` transforms: replace each mask `a`
//! with the PRG stream `a′` and fix the body as `b′ = b + (a − a′)·s`,
//! which preserves the phase (`b + a·s = b′ + a′·s`) and the noise
//! exactly. The transforms need the secrets and run where key generation
//! does; encodings and expansion are public-data operations.
//!
//! PRG streams are one seeded `StdRng` per key object, consumed in the
//! fixed traversal order of the encoding (documented per format below);
//! the reseed transform and the expander walk the identical order.

use rand::rngs::StdRng;
use rand::SeedableRng;

use heap_math::arith::Modulus;
use heap_math::seeded::{get_mode, get_prg, get_row, put_mode, put_row, put_seed, reseed_row};
use heap_math::wire::{residue_bits, WireError, WireReader, WireWriter};
use heap_math::{sample, ChainEnd, Domain, Gadget, MacAcc, RnsContext, RnsPoly};

use crate::blind_rotate::BlindRotateKey;
use crate::lwe::{LweKeySwitchKey, LweSecretKey};
use crate::rgsw::{RgswCiphertext, RgswParams};
use crate::rlwe::{RingSecretKey, RlweCiphertext};

const KSK_MAGIC: u32 = 0x4B53_4B31; // "KSK1"
const BRK_MAGIC: u32 = 0x4252_4B31; // "BRK1"

// ---------------------------------------------------------------------------
// LWE key-switching key
// ---------------------------------------------------------------------------

/// Replaces every mask of `ksk` with the PRG stream for `seed`, fixing
/// bodies so all phases are unchanged (`b′ = b + ⟨a − a′, s⟩`).
///
/// Stream order: rows `(j, k)` for `j` in source order, `k` in digit order
/// — the order [`ksk_from_wire`] expands in.
///
/// # Panics
///
/// Panics if `to_sk` is not the target secret the key switches to.
pub fn reseed_ksk(ksk: &mut LweKeySwitchKey, to_sk: &LweSecretKey, q: &Modulus, seed: u64) {
    assert_eq!(to_sk.dim(), ksk.target_dim(), "target secret mismatch");
    let n_t = ksk.target_dim();
    let mut rng = StdRng::seed_from_u64(seed);
    for row in ksk.rows_mut() {
        let (a, b) = row.split_at_mut(n_t);
        let fresh = sample::uniform_poly(&mut rng, n_t, q.value());
        let mut delta_dot = 0u64;
        for ((&old, &new), &s) in a.iter().zip(&fresh).zip(to_sk.coeffs()) {
            delta_dot = q.mul_add(q.sub(old, new), q.from_i64(s), delta_dot);
        }
        b[0] = q.add(b[0], delta_dot);
        a.copy_from_slice(&fresh);
    }
}

/// Serializes a key-switching key.
///
/// `seed: None` writes the strict encoding; `Some(seed)` writes the
/// seeded one (the key must have been [`reseed_ksk`]-transformed with the
/// same seed, or expansion will not reproduce it).
pub fn ksk_to_wire(ksk: &LweKeySwitchKey, q: &Modulus, seed: Option<u64>) -> Vec<u8> {
    WireWriter::encode(|w| ksk_write(w, ksk, q, seed))
}

/// Writes [`ksk_to_wire`]'s encoding into an open writer (a container
/// section, a hashing or a measuring writer).
pub fn ksk_write(w: &mut WireWriter, ksk: &LweKeySwitchKey, q: &Modulus, seed: Option<u64>) {
    let bits = residue_bits(q.value());
    w.put_u32(KSK_MAGIC);
    put_mode(w, seed);
    w.put_u32(ksk.source_dim() as u32);
    w.put_u32(ksk.target_dim() as u32);
    w.put_u32(ksk.base_bits());
    w.put_u32(ksk.digits() as u32);
    w.put_u64(q.value());
    put_seed(w, seed);
    // Two packed runs across the whole grid: every body, then every mask.
    let (count, n_t) = (ksk.ciphertext_count(), ksk.target_dim());
    w.put_packed_iter(ksk.rows().map(|row| row[n_t]), count, bits);
    if seed.is_none() {
        let masks = ksk.rows().flat_map(|row| row[..n_t].iter().copied());
        w.put_packed_iter(masks, count * n_t, bits);
    }
}

/// Deserializes a key written by [`ksk_to_wire`] that switches from
/// dimension `source_dim` to `target_dim`, expanding the masks from the
/// embedded seed in seeded mode.
///
/// The receiver states the shape it expects because a seeded header is a
/// few dozen bytes that *announce* `source_dim · digits · target_dim`
/// words of PRG output: every field is checked before the first mask is
/// expanded, so what a buffer can make this function allocate is bounded
/// by the caller's own dimensions (and `digits ≤ q.bits()`), not by the
/// header.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, corrupted fields, a modulus
/// disagreeing with `q`, or a shape other than the expected one.
pub fn ksk_from_wire(
    buf: &[u8],
    q: &Modulus,
    source_dim: usize,
    target_dim: usize,
) -> Result<LweKeySwitchKey, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != KSK_MAGIC {
        return Err(WireError::Corrupt("KSK magic"));
    }
    let seeded = get_mode(&mut r, "KSK mode")?;
    if r.get_u32()? as usize != source_dim || r.get_u32()? as usize != target_dim {
        return Err(WireError::Corrupt("KSK shape"));
    }
    let base_bits = r.get_u32()?;
    let digits = r.get_u32()? as usize;
    let q_wire = r.get_u64()?;
    if q_wire != q.value() {
        return Err(WireError::Corrupt("KSK modulus"));
    }
    // The gadget must cover `q` (Gadget::new panics below that line) with
    // no digit to spare: a superfluous digit is a row of the key nothing
    // reads, and the only unbounded factor of the expansion below.
    let covered = |digits: usize| base_bits as usize * digits >= q.bits() as usize;
    if base_bits == 0 || base_bits > 32 || digits == 0 || !covered(digits) || covered(digits - 1) {
        return Err(WireError::Corrupt("KSK gadget"));
    }
    let mut prg = get_prg(&mut r, seeded)?;
    let count = source_dim * digits;
    let bodies = r.get_residues(count, q.value(), "KSK body out of range")?;
    let masks = match prg {
        Some(_) => Vec::new(),
        None => r.get_residues(count * target_dim, q.value(), "KSK mask out of range")?,
    };
    let mut rows = Vec::with_capacity(count * (target_dim + 1));
    for (r, &b) in bodies.iter().enumerate() {
        match &mut prg {
            Some(prg) => rows.extend(sample::uniform_poly(prg, target_dim, q.value())),
            None => rows.extend_from_slice(&masks[r * target_dim..(r + 1) * target_dim]),
        }
        rows.push(b);
    }
    Ok(LweKeySwitchKey::from_parts(
        rows, q, base_bits, digits, target_dim,
    ))
}

// ---------------------------------------------------------------------------
// Blind-rotate key
// ---------------------------------------------------------------------------

/// Replaces every row mask of `brk` with the PRG stream for `seed`,
/// fixing bodies limb-wise ([`reseed_row`]) so all phases are unchanged.
///
/// Stream order: rows in encoding order, limbs `0..limbs` within a row.
pub fn reseed_brk(brk: &mut BlindRotateKey, ctx: &RnsContext, ring_sk: &RingSecretKey, seed: u64) {
    let mut prg = StdRng::seed_from_u64(seed);
    let (pos, neg) = brk.ladders_mut();
    for rgsw in pos.iter_mut().chain(neg) {
        for (s, one) in rgsw.rows_s.iter_mut().zip(&mut rgsw.rows_1) {
            for row in [s, one] {
                let limbs = (row.a.limbs_mut(), row.b.limbs_mut());
                reseed_row(ctx, |j| ring_sk.eval_limb(j), &mut prg, limbs.0, limbs.1);
            }
        }
    }
}

/// Serializes a blind-rotate key (see [`ksk_to_wire`] for the
/// strict/seeded contract).
pub fn brk_to_wire(brk: &BlindRotateKey, ctx: &RnsContext, seed: Option<u64>) -> Vec<u8> {
    WireWriter::encode(|w| brk_write(w, brk, ctx, seed))
}

/// Writes [`brk_to_wire`]'s encoding into an open writer (a container
/// section, a hashing or a measuring writer). Row order: the positive
/// ladder then the negative one; within an RGSW, `rows_s[r]` and
/// `rows_1[r]` interleaved for `r` in gadget order.
pub fn brk_write(w: &mut WireWriter, brk: &BlindRotateKey, ctx: &RnsContext, seed: Option<u64>) {
    w.put_u32(BRK_MAGIC);
    put_mode(w, seed);
    w.put_u32(brk.lwe_dim() as u32);
    w.put_u32(brk.limbs() as u32);
    w.put_u32(ctx.n() as u32);
    w.put_u32(brk.params().base_bits);
    w.put_u32(brk.params().digits as u32);
    for m in &ctx.moduli()[..brk.limbs()] {
        w.put_u64(m.value());
    }
    put_seed(w, seed);
    for rgsw in brk.pos().iter().chain(brk.neg()) {
        for (s, one) in rgsw.rows_s.iter().zip(&rgsw.rows_1) {
            for row in [s, one] {
                put_row(w, ctx, row.a.limbs(), row.b.limbs(), seed.is_some());
            }
        }
    }
}

/// Deserializes a key written by [`brk_to_wire`], expanding masks from
/// the embedded seed in seeded mode. The monomial tables are rebuilt
/// from `ctx` (they are pure functions of the basis).
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, corrupted fields, a shape
/// disagreeing with `ctx`, or a gadget the key could not rotate with on
/// `ctx`.
pub fn brk_from_wire(buf: &[u8], ctx: &RnsContext) -> Result<BlindRotateKey, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != BRK_MAGIC {
        return Err(WireError::Corrupt("BRK magic"));
    }
    let seeded = get_mode(&mut r, "BRK mode")?;
    let lwe_dim = r.get_u32()? as usize;
    let limbs = r.get_u32()? as usize;
    let n = r.get_u32()? as usize;
    let base_bits = r.get_u32()?;
    let digits = r.get_u32()? as usize;
    if lwe_dim == 0 || lwe_dim > 1 << 24 || limbs == 0 || limbs > 64 {
        return Err(WireError::Corrupt("BRK shape"));
    }
    if n != ctx.n() || limbs > ctx.max_limbs() {
        return Err(WireError::Corrupt("BRK basis mismatch"));
    }
    // The external product writes balanced digits as `i32`: a base above
    // `2^31` is refused here, not at the first rotation.
    if base_bits == 0 || base_bits > RgswParams::MAX_BASE_BITS || digits == 0 || digits > 64 {
        return Err(WireError::Corrupt("BRK gadget"));
    }
    // So are a gadget that does not cover a limb, and one whose CMux fold —
    // `2·limbs·digits` terms per slot under each limb — passes what the
    // MAC chain admits on this ring.
    let (terms, digit_bound) = (2 * limbs * digits, 1u64 << (base_bits - 1));
    for j in 0..limbs {
        if !Gadget::covers(base_bits, digits, ctx.modulus(j))
            || !MacAcc::admits(ctx.ntt(j), terms, digit_bound, ChainEnd::Fold)
        {
            return Err(WireError::Corrupt("BRK gadget"));
        }
    }
    for m in &ctx.moduli()[..limbs] {
        if r.get_u64()? != m.value() {
            return Err(WireError::Corrupt("BRK modulus mismatch"));
        }
    }
    let mut prg = get_prg(&mut r, seeded)?;
    let params = RgswParams { base_bits, digits };
    let mut read_row = || {
        let what = ["BRK mask out of range", "BRK body out of range"];
        let [a, b] = get_row(&mut r, ctx, limbs, &mut prg, what)?.into();
        let [a, b] = [a, b].map(|limbs| RnsPoly::from_limbs(limbs, Domain::Eval));
        Ok::<_, WireError>(RlweCiphertext { a, b })
    };
    // Ladders grow as RGSWs arrive (`lwe_dim` is only announced, ≤ 2^24):
    // what is held never outruns the bytes read (the bound of `get_row`).
    let mut ladders = [Vec::new(), Vec::new()];
    for ladder in &mut ladders {
        for _ in 0..lwe_dim {
            let (mut rows_s, mut rows_1) = (Vec::new(), Vec::new());
            for _ in 0..params.rows(limbs) {
                rows_s.push(read_row()?);
                rows_1.push(read_row()?);
            }
            ladder.push(RgswCiphertext { rows_s, rows_1 });
        }
    }
    let [pos, neg] = ladders;
    Ok(BlindRotateKey::from_parts(ctx, pos, neg, params, limbs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lwe::LweCiphertext;
    use heap_math::prime::ntt_primes;
    use heap_math::seeded::MODE_SEEDED;
    use rand::Rng;

    fn q30() -> Modulus {
        Modulus::new(ntt_primes(1 << 10, 30, 1)[0]).unwrap()
    }

    fn rns() -> RnsContext {
        RnsContext::new(64, &ntt_primes(64, 30, 2))
    }

    #[test]
    fn ksk_strict_roundtrip_bit_exact() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(1);
        let big = LweSecretKey::generate(&mut rng, 48);
        let small = LweSecretKey::generate(&mut rng, 16);
        let ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
        let bytes = ksk_to_wire(&ksk, &q, None);
        let back = ksk_from_wire(&bytes, &q, 48, 16).unwrap();
        assert_eq!(ksk_to_wire(&back, &q, None), bytes);
    }

    #[test]
    fn ksk_reseed_preserves_switching_and_seeded_roundtrip_is_parity_exact() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(2);
        let big = LweSecretKey::generate(&mut rng, 64);
        let small = LweSecretKey::generate(&mut rng, 24);
        let mut ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
        let m = q.value() / 2;
        let ct = big.encrypt(m, &q, &mut rng);
        let before = ksk.switch(&ct, &q);
        reseed_ksk(&mut ksk, &small, &q, 0xA11CE);
        // Reseeding preserves the phase of every key ciphertext exactly;
        // switching a fixed input (fixed decomposition digits) is linear
        // in those phases, so the output phase — noise included — is
        // identical, even though the output bits are not.
        let after = ksk.switch(&ct, &q);
        assert_eq!(small.phase(&after, &q), small.phase(&before, &q));
        // Seeded wire is about half the strict wire and expands to the
        // exact strict bytes (the parity oracle).
        let strict = ksk_to_wire(&ksk, &q, None);
        let seeded = ksk_to_wire(&ksk, &q, Some(0xA11CE));
        assert!(seeded.len() * 2 < strict.len());
        let expanded = ksk_from_wire(&seeded, &q, 64, 24).unwrap();
        assert_eq!(ksk_to_wire(&expanded, &q, None), strict);
    }

    /// A seeded header announces its expansion; every way of announcing
    /// more than the caller expects is refused before a mask is drawn.
    #[test]
    fn ksk_shape_and_gadget_are_pinned_before_expansion() {
        let q = q30();
        let header = |source: u32, target: u32, base_bits: u32, digits: u32| {
            let mut w = WireWriter::new();
            w.put_u32(KSK_MAGIC);
            w.put_u8(MODE_SEEDED);
            w.put_u32(source);
            w.put_u32(target);
            w.put_u32(base_bits);
            w.put_u32(digits);
            w.put_u64(q.value());
            w.put_u64(0xBAD5EED);
            w.put_packed(&vec![0; (source * digits).min(4096) as usize], 30);
            w.into_bytes()
        };
        let shape = Some(WireError::Corrupt("KSK shape"));
        let gadget = Some(WireError::Corrupt("KSK gadget"));
        for (bytes, want) in [
            (header(8, 1 << 24, 6, 5), &shape),
            (header(1 << 24, 4, 6, 5), &shape),
            (header(9, 4, 6, 5), &shape),
            (header(8, 4, 6, 4), &gadget),  // 24 bits do not cover q
            (header(8, 4, 6, 6), &gadget),  // the sixth digit is superfluous
            (header(8, 4, 1, 64), &gadget), // 34 of them are
            (header(8, 4, 0, 5), &gadget),
            (header(8, 4, 33, 1), &gadget),
            (header(8, 4, 6, 0), &gadget),
        ] {
            assert_eq!(&ksk_from_wire(&bytes, &q, 8, 4).err(), want);
        }
        assert!(ksk_from_wire(&header(8, 4, 6, 5), &q, 8, 4).is_ok());
        assert!(ksk_from_wire(&header(8, 4, 1, 30), &q, 8, 4).is_ok());
    }

    #[test]
    fn ksk_rejects_truncation_and_corruption() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(3);
        let big = LweSecretKey::generate(&mut rng, 8);
        let small = LweSecretKey::generate(&mut rng, 4);
        let mut ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
        reseed_ksk(&mut ksk, &small, &q, 9);
        for bytes in [ksk_to_wire(&ksk, &q, None), ksk_to_wire(&ksk, &q, Some(9))] {
            for cut in 0..bytes.len() {
                assert!(
                    ksk_from_wire(&bytes[..cut], &q, 8, 4).is_err(),
                    "prefix {cut}"
                );
            }
            let mut bad = bytes.clone();
            bad[0] ^= 0xFF;
            assert_eq!(
                ksk_from_wire(&bad, &q, 8, 4).err(),
                Some(WireError::Corrupt("KSK magic"))
            );
        }
    }

    #[test]
    fn brk_reseed_preserves_rotation_and_seeded_roundtrip_is_parity_exact() {
        let ctx = rns();
        let mut rng = StdRng::seed_from_u64(4);
        let lwe_sk = LweSecretKey::generate(&mut rng, 8);
        let ring_sk = RingSecretKey::generate(&ctx, 2, &mut rng);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let mut brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let two_n = 2 * ctx.n() as u64;
        let test_poly = crate::blind_rotate::test_polynomial_from_fn(&ctx, 2, |u| u * 100);
        let lwe = LweCiphertext {
            a: (0..8).map(|i| (i * 13 + 5) % two_n).collect(),
            b: 37 % two_n,
            modulus: two_n,
        };
        let before_phases: Vec<RnsPoly> = brk
            .pos()
            .iter()
            .chain(brk.neg().iter())
            .flat_map(|g| g.rows_s.iter().chain(g.rows_1.iter()))
            .map(|row| row.phase(&ctx, &ring_sk))
            .collect();
        reseed_brk(&mut brk, &ctx, &ring_sk, 0xB0B);
        // The transform preserves every row's phase — noise included —
        // exactly; downstream accumulators stay *functionally* identical
        // (same messages, gadget-equivalent noise), and any two copies of
        // the reseeded key compute bit-identically.
        let after_phases: Vec<RnsPoly> = brk
            .pos()
            .iter()
            .chain(brk.neg().iter())
            .flat_map(|g| g.rows_s.iter().chain(g.rows_1.iter()))
            .map(|row| row.phase(&ctx, &ring_sk))
            .collect();
        for (b, a) in before_phases.iter().zip(&after_phases) {
            for j in 0..2 {
                assert_eq!(b.limb(j), a.limb(j));
            }
        }

        let strict = brk_to_wire(&brk, &ctx, None);
        let seeded = brk_to_wire(&brk, &ctx, Some(0xB0B));
        assert!(seeded.len() * 2 < strict.len() + 64);
        let expanded = brk_from_wire(&seeded, &ctx).unwrap();
        assert_eq!(brk_to_wire(&expanded, &ctx, None), strict);
        // The expanded key is the reseeded key bit for bit, so rotation
        // through it is bit-identical to rotating with the original —
        // straight after the in-place reseed, with no rebuild step: the
        // rows are the whole key.
        let local = brk.blind_rotate(&ctx, &test_poly, &lwe);
        let via_wire = expanded.blind_rotate(&ctx, &test_poly, &lwe);
        for j in 0..2 {
            assert_eq!(via_wire.a.limb(j), local.a.limb(j));
            assert_eq!(via_wire.b.limb(j), local.b.limb(j));
        }
    }

    #[test]
    fn brk_rejects_truncation_corruption_and_wrong_basis() {
        let ctx = rns();
        let mut rng = StdRng::seed_from_u64(5);
        let lwe_sk = LweSecretKey::generate(&mut rng, 2);
        let ring_sk = RingSecretKey::generate(&ctx, 1, &mut rng);
        let params = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let mut brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, 1, params, &mut rng);
        reseed_brk(&mut brk, &ctx, &ring_sk, 11);
        let bytes = brk_to_wire(&brk, &ctx, Some(11));
        // Sampled prefixes (every offset is slow at this size).
        let mut cut_rng = StdRng::seed_from_u64(6);
        for _ in 0..64 {
            let cut = cut_rng.gen_range(0..bytes.len());
            assert!(brk_from_wire(&bytes[..cut], &ctx).is_err(), "prefix {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0x01;
        assert_eq!(
            brk_from_wire(&bad, &ctx).err(),
            Some(WireError::Corrupt("BRK magic"))
        );
        let other = RnsContext::new(32, &ntt_primes(32, 30, 1));
        assert!(brk_from_wire(&bytes, &other).is_err());
    }

    /// The header's gadget base (after the magic, the mode byte and three
    /// `u32` shape fields): `2^31` is the largest whose balanced digits fit
    /// the external product's `i32`s, and `2^32` is refused as a typed
    /// error rather than decoded into a key that panics when it rotates.
    /// So is a base whose two digits do not cover the 30-bit ring (`2^14`,
    /// `2^1`), while `2^15` covers it exactly; and, on a 45-bit ring, a
    /// digit count whose CMux fold passes `2^50`.
    #[test]
    fn brk_refuses_a_gadget_base_whose_digits_overflow_i32() {
        let ctx = rns();
        let mut rng = StdRng::seed_from_u64(8);
        let lwe_sk = LweSecretKey::generate(&mut rng, 1);
        let ring_sk = RingSecretKey::generate(&ctx, 1, &mut rng);
        let params = RgswParams::paper();
        let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, 1, params, &mut rng);
        let bytes = brk_to_wire(&brk, &ctx, None);
        let at = 4 + 1 + 3 * 4;
        assert_eq!(bytes[at..at + 4], 18u32.to_le_bytes());
        let with_base = |bits: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&bits.to_le_bytes());
            brk_from_wire(&b, &ctx)
        };
        for bits in [15, 31] {
            assert_eq!(with_base(bits).map(|k| k.params().base_bits), Ok(bits));
        }
        for bits in [32, 33, u32::MAX, 14, 1] {
            assert_eq!(
                with_base(bits).err(),
                Some(WireError::Corrupt("BRK gadget")),
                "base 2^{bits}"
            );
        }

        // Two 45-bit limbs: 2·2·8 terms fold within 2^50, 2·2·9 do not.
        let ctx = RnsContext::new(64, &ntt_primes(64, 45, 2));
        let ring_sk = RingSecretKey::generate(&ctx, 2, &mut rng);
        let params = RgswParams {
            base_bits: 6,
            digits: 8,
        };
        let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, 2, params, &mut rng);
        let mut bytes = brk_to_wire(&brk, &ctx, None);
        assert_eq!(brk_from_wire(&bytes, &ctx).map(|k| *k.params()), Ok(params));
        bytes[at + 4..at + 8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            brk_from_wire(&bytes, &ctx).err(),
            Some(WireError::Corrupt("BRK gadget"))
        );
    }
}
