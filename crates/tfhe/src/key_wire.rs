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
use heap_math::wire::{packed_size, residue_bits, WireError, WireReader, WireWriter};
use heap_math::{poly, sample, Domain, RnsContext, RnsPoly};

use crate::blind_rotate::BlindRotateKey;
use crate::lwe::{LweCiphertext, LweKeySwitchKey, LweSecretKey};
use crate::rgsw::{RgswCiphertext, RgswParams};
use crate::rlwe::{RingSecretKey, RlweCiphertext};

const KSK_MAGIC: u32 = 0x4B53_4B31; // "KSK1"
const BRK_MAGIC: u32 = 0x4252_4B31; // "BRK1"

/// Wire mode: both halves explicit.
pub const MODE_STRICT: u8 = 0;
/// Wire mode: `b` halves plus the PRG seed for the `a` halves.
pub const MODE_SEEDED: u8 = 1;

fn mode_byte(seed: Option<u64>) -> u8 {
    if seed.is_some() {
        MODE_SEEDED
    } else {
        MODE_STRICT
    }
}

// ---------------------------------------------------------------------------
// LWE key-switching key
// ---------------------------------------------------------------------------

/// Replaces every mask of `ksk` with the PRG stream for `seed`, fixing
/// bodies so all phases are unchanged (`b′ = b + ⟨a − a′, s⟩`).
///
/// Stream order: ciphertexts `key[j][k]` for `j` in source order, `k` in
/// digit order — the order [`ksk_from_wire`] expands in.
///
/// # Panics
///
/// Panics if `to_sk` is not the target secret the key switches to.
pub fn reseed_ksk(ksk: &mut LweKeySwitchKey, to_sk: &LweSecretKey, q: &Modulus, seed: u64) {
    assert_eq!(to_sk.dim(), ksk.target_dim(), "target secret mismatch");
    let n_t = ksk.target_dim();
    let mut rng = StdRng::seed_from_u64(seed);
    for row in ksk.cts_mut() {
        for ct in row {
            let fresh = sample::uniform_poly(&mut rng, n_t, q.value());
            let mut delta_dot = 0u64;
            for ((&old, &new), &s) in ct.a.iter().zip(&fresh).zip(to_sk.coeffs()) {
                delta_dot = q.mul_add(q.sub(old, new), q.from_i64(s), delta_dot);
            }
            ct.b = q.add(ct.b, delta_dot);
            ct.a = fresh;
        }
    }
}

/// Serializes a key-switching key.
///
/// `seed: None` writes the strict encoding; `Some(seed)` writes the
/// seeded one (the key must have been [`reseed_ksk`]-transformed with the
/// same seed, or expansion will not reproduce it).
pub fn ksk_to_wire(ksk: &LweKeySwitchKey, q: &Modulus, seed: Option<u64>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(ksk_encoded_len(ksk, q, seed.is_some()));
    ksk_write(&mut w, ksk, q, seed);
    w.into_bytes()
}

/// [`ksk_wire_size`] of this key over `q` — what [`ksk_write`] writes.
pub fn ksk_encoded_len(ksk: &LweKeySwitchKey, q: &Modulus, seeded: bool) -> usize {
    ksk_wire_size(
        ksk.source_dim(),
        ksk.target_dim(),
        ksk.digits(),
        q.value(),
        seeded,
    )
}

/// Writes [`ksk_to_wire`]'s encoding — exactly [`ksk_encoded_len`] bytes
/// — into an open writer (a container section, or a hashing writer).
pub fn ksk_write(w: &mut WireWriter, ksk: &LweKeySwitchKey, q: &Modulus, seed: Option<u64>) {
    let bits = residue_bits(q.value());
    w.put_u32(KSK_MAGIC);
    w.put_u8(mode_byte(seed));
    w.put_u32(ksk.source_dim() as u32);
    w.put_u32(ksk.target_dim() as u32);
    w.put_u32(ksk.base_bits());
    w.put_u32(ksk.digits() as u32);
    w.put_u64(q.value());
    if let Some(s) = seed {
        w.put_u64(s);
    }
    // Two packed runs across the whole grid: every body, then every mask.
    let count = ksk.ciphertext_count();
    let cts = || ksk.cts().iter().flatten();
    w.put_packed_iter(cts().map(|ct| ct.b), count, bits);
    if seed.is_none() {
        let masks = cts().flat_map(|ct| ct.a.iter().copied());
        w.put_packed_iter(masks, count * ksk.target_dim(), bits);
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
    let mode = r.get_u8()?;
    if mode != MODE_STRICT && mode != MODE_SEEDED {
        return Err(WireError::Corrupt("KSK mode"));
    }
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
    let seed = if mode == MODE_SEEDED {
        Some(r.get_u64()?)
    } else {
        None
    };
    let count = source_dim * digits;
    let bodies = r.get_residues(count, q.value(), "KSK body out of range")?;
    let masks = match seed {
        Some(_) => Vec::new(),
        None => r.get_residues(count * target_dim, q.value(), "KSK mask out of range")?,
    };
    let mut rng = seed.map(StdRng::seed_from_u64);
    let mut key = Vec::with_capacity(source_dim);
    let mut idx = 0usize;
    for j in 0..source_dim {
        let mut row = Vec::with_capacity(digits);
        for k in 0..digits {
            let flat = j * digits + k;
            let a = match &mut rng {
                Some(rng) => sample::uniform_poly(rng, target_dim, q.value()),
                None => {
                    let a = masks[idx..idx + target_dim].to_vec();
                    idx += target_dim;
                    a
                }
            };
            row.push(LweCiphertext {
                a,
                b: bodies[flat],
                modulus: q.value(),
            });
        }
        key.push(row);
    }
    Ok(LweKeySwitchKey::from_parts(
        key, q, base_bits, digits, target_dim,
    ))
}

/// Exact byte size of [`ksk_to_wire`]'s output for the given shape.
pub fn ksk_wire_size(
    source_dim: usize,
    target_dim: usize,
    digits: usize,
    q: u64,
    seeded: bool,
) -> usize {
    let bits = residue_bits(q);
    let header = 4 + 1 + 4 + 4 + 4 + 4 + 8 + if seeded { 8 } else { 0 };
    let bodies = packed_size(source_dim * digits, bits);
    let masks = if seeded {
        0
    } else {
        packed_size(source_dim * digits * target_dim, bits)
    };
    header + bodies + masks
}

// ---------------------------------------------------------------------------
// Blind-rotate key
// ---------------------------------------------------------------------------

/// Visits every RLWE row of `brk` in encoding order: the positive ladder
/// then the negative one; within an RGSW, rows `rows_s[r]`, `rows_1[r]`
/// interleaved for `r` in gadget order.
fn for_each_row_mut(brk: &mut BlindRotateKey, mut f: impl FnMut(&mut RlweCiphertext)) {
    let (pos, neg) = brk.ladders_mut();
    for rgsw in pos.iter_mut().chain(neg.iter_mut()) {
        for r in 0..rgsw.rows_s.len() {
            f(&mut rgsw.rows_s[r]);
            f(&mut rgsw.rows_1[r]);
        }
    }
}

fn for_each_row(brk: &BlindRotateKey, mut f: impl FnMut(&RlweCiphertext)) {
    for rgsw in brk.pos().iter().chain(brk.neg().iter()) {
        for r in 0..rgsw.rows_s.len() {
            f(&rgsw.rows_s[r]);
            f(&rgsw.rows_1[r]);
        }
    }
}

/// Replaces every row mask of `brk` with the PRG stream for `seed`,
/// fixing bodies limb-wise (`b′_j = b_j + (a_j − a′_j)∘s_j` pointwise in
/// evaluation domain) so all phases are unchanged.
///
/// Stream order: rows in encoding order, limbs `0..limbs` within a row.
pub fn reseed_brk(brk: &mut BlindRotateKey, ctx: &RnsContext, ring_sk: &RingSecretKey, seed: u64) {
    let n = ctx.n();
    let limbs = brk.limbs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = vec![0u64; n];
    let mut prod = vec![0u64; n];
    for_each_row_mut(brk, |row| {
        for j in 0..limbs {
            let m = ctx.modulus(j);
            let fresh = sample::uniform_poly(&mut rng, n, m.value());
            let a_j = row.a.limb_mut(j);
            for ((d, &old), &new) in delta.iter_mut().zip(a_j.iter()).zip(&fresh) {
                *d = m.sub(old, new);
            }
            ctx.ntt(j)
                .pointwise(&delta, ring_sk.eval_limb(j), &mut prod);
            poly::add_assign(row.b.limb_mut(j), &prod, m);
            a_j.copy_from_slice(&fresh);
        }
    });
}

/// Serializes a blind-rotate key (see [`ksk_to_wire`] for the
/// strict/seeded contract).
pub fn brk_to_wire(brk: &BlindRotateKey, ctx: &RnsContext, seed: Option<u64>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(brk_encoded_len(brk, ctx, seed.is_some()));
    brk_write(&mut w, brk, ctx, seed);
    w.into_bytes()
}

/// [`brk_wire_size`] of this key over `ctx` — what [`brk_write`] writes.
pub fn brk_encoded_len(brk: &BlindRotateKey, ctx: &RnsContext, seeded: bool) -> usize {
    let moduli: Vec<u64> = ctx.moduli()[..brk.limbs()]
        .iter()
        .map(Modulus::value)
        .collect();
    brk_wire_size(brk.lwe_dim(), ctx.n(), brk.params().digits, &moduli, seeded)
}

/// Writes [`brk_to_wire`]'s encoding — exactly [`brk_encoded_len`] bytes —
/// into an open writer (a container section, or a hashing writer).
pub fn brk_write(w: &mut WireWriter, brk: &BlindRotateKey, ctx: &RnsContext, seed: Option<u64>) {
    let limbs = brk.limbs();
    w.put_u32(BRK_MAGIC);
    w.put_u8(mode_byte(seed));
    w.put_u32(brk.lwe_dim() as u32);
    w.put_u32(limbs as u32);
    w.put_u32(ctx.n() as u32);
    w.put_u32(brk.params().base_bits);
    w.put_u32(brk.params().digits as u32);
    for j in 0..limbs {
        w.put_u64(ctx.modulus(j).value());
    }
    if let Some(s) = seed {
        w.put_u64(s);
    }
    for_each_row(brk, |row| {
        for j in 0..limbs {
            let bits = residue_bits(ctx.modulus(j).value());
            if seed.is_none() {
                w.put_packed(row.a.limb(j), bits);
            }
            w.put_packed(row.b.limb(j), bits);
        }
    });
}

/// Deserializes a key written by [`brk_to_wire`], expanding masks from
/// the embedded seed in seeded mode. The monomial tables are rebuilt
/// from `ctx` (they are pure functions of the basis).
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, corrupted fields, or a shape
/// disagreeing with `ctx`.
pub fn brk_from_wire(buf: &[u8], ctx: &RnsContext) -> Result<BlindRotateKey, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != BRK_MAGIC {
        return Err(WireError::Corrupt("BRK magic"));
    }
    let mode = r.get_u8()?;
    if mode != MODE_STRICT && mode != MODE_SEEDED {
        return Err(WireError::Corrupt("BRK mode"));
    }
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
    if base_bits == 0 || base_bits > 32 || digits == 0 || digits > 64 {
        return Err(WireError::Corrupt("BRK gadget"));
    }
    for j in 0..limbs {
        if r.get_u64()? != ctx.modulus(j).value() {
            return Err(WireError::Corrupt("BRK modulus mismatch"));
        }
    }
    let seed = if mode == MODE_SEEDED {
        Some(r.get_u64()?)
    } else {
        None
    };
    let mut rng = seed.map(StdRng::seed_from_u64);
    let params = RgswParams { base_bits, digits };
    let rows = params.rows(limbs);
    // Expansion is bounded by the bytes present: a row's masks are drawn
    // one limb (`n` words, `n = ctx.n()`) ahead of the body limb that must
    // follow in the buffer, so a seeded key allocates at most twice what a
    // strict one of the same length would, and a short buffer fails on the
    // first missing body.
    let read_row = |r: &mut WireReader<'_>, rng: &mut Option<StdRng>| {
        let mut a_limbs = Vec::with_capacity(limbs);
        let mut b_limbs = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let m = ctx.modulus(j).value();
            let aj = match rng {
                Some(rng) => sample::uniform_poly(rng, n, m),
                None => r.get_residues(n, m, "BRK mask out of range")?,
            };
            let bj = r.get_residues(n, m, "BRK body out of range")?;
            a_limbs.push(aj);
            b_limbs.push(bj);
        }
        Ok(RlweCiphertext {
            a: RnsPoly::from_limbs(a_limbs, Domain::Eval),
            b: RnsPoly::from_limbs(b_limbs, Domain::Eval),
        })
    };
    let read_ladder = |r: &mut WireReader<'_>, rng: &mut Option<StdRng>| {
        // Grown as RGSWs arrive: `lwe_dim` is only announced (≤ 2^24).
        let mut ladder = Vec::new();
        for _ in 0..lwe_dim {
            let mut rows_s = Vec::with_capacity(rows);
            let mut rows_1 = Vec::with_capacity(rows);
            for _ in 0..rows {
                rows_s.push(read_row(r, rng)?);
                rows_1.push(read_row(r, rng)?);
            }
            ladder.push(RgswCiphertext { rows_s, rows_1 });
        }
        Ok::<_, WireError>(ladder)
    };
    let pos = read_ladder(&mut r, &mut rng)?;
    let neg = read_ladder(&mut r, &mut rng)?;
    Ok(BlindRotateKey::from_parts(ctx, pos, neg, params, limbs))
}

/// Exact byte size of [`brk_to_wire`]'s output for the given shape.
///
/// `moduli` lists the limb moduli of the accumulator basis.
pub fn brk_wire_size(
    lwe_dim: usize,
    n: usize,
    digits: usize,
    moduli: &[u64],
    seeded: bool,
) -> usize {
    let header = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 8 * moduli.len() + if seeded { 8 } else { 0 };
    // Rows per RGSW: limbs·digits in each of the two ladders (`rows_s`,
    // `rows_1`); RGSWs per ladder: lwe_dim in each of pos/neg.
    let rows_total = 2 * lwe_dim * 2 * moduli.len() * digits;
    let per_row: usize = moduli
        .iter()
        .map(|&m| {
            let limb = packed_size(n, residue_bits(m));
            if seeded {
                limb
            } else {
                2 * limb
            }
        })
        .sum();
    header + rows_total * per_row
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::prime::ntt_primes;
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
        assert_eq!(bytes.len(), ksk_wire_size(48, 16, 5, q.value(), false));
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
        assert_eq!(seeded.len(), ksk_wire_size(64, 24, 5, q.value(), true));
        assert!(seeded.len() * 2 < strict.len());
        let expanded = ksk_from_wire(&seeded, &q, 64, 24).unwrap();
        assert_eq!(ksk_to_wire(&expanded, &q, None), strict);
    }

    /// The size functions now write the container's length prefixes, so
    /// they must be exact — both keys, both modes, on the Tiny and Small
    /// presets' ring shapes (`n_t` cut on Small: sizes are linear in it).
    #[test]
    fn wire_sizes_are_exact_on_tiny_and_small_shapes() {
        for (n, bits, n_t) in [(128usize, 28u32, 32usize), (1024, 30, 3)] {
            let primes = ntt_primes(n as u64, bits, 4);
            let ctx = RnsContext::new(n, &primes);
            let q = *ctx.modulus(0);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let big = LweSecretKey::generate(&mut rng, n);
            let small = LweSecretKey::generate(&mut rng, n_t);
            let ring_sk = RingSecretKey::generate(&ctx, 4, &mut rng);
            let params = RgswParams {
                base_bits: 15,
                digits: 2,
            };
            let mut ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
            let mut brk = BlindRotateKey::generate(&ctx, &small, &ring_sk, 4, params, &mut rng);
            reseed_ksk(&mut ksk, &small, &q, 1);
            reseed_brk(&mut brk, &ctx, &ring_sk, 2);
            for seed in [None, Some(1)] {
                assert_eq!(
                    ksk_to_wire(&ksk, &q, seed).len(),
                    ksk_wire_size(n, n_t, 5, q.value(), seed.is_some()),
                    "KSK, n = {n}, seed {seed:?}"
                );
            }
            for seed in [None, Some(2)] {
                let bytes = brk_to_wire(&brk, &ctx, seed);
                assert_eq!(
                    bytes.len(),
                    brk_wire_size(n_t, n, 2, &primes, seed.is_some()),
                    "BRK, n = {n}, seed {seed:?}"
                );
                assert_eq!(bytes.len(), brk_encoded_len(&brk, &ctx, seed.is_some()));
            }
        }
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

        let moduli: Vec<u64> = (0..2).map(|j| ctx.modulus(j).value()).collect();
        let strict = brk_to_wire(&brk, &ctx, None);
        let seeded = brk_to_wire(&brk, &ctx, Some(0xB0B));
        assert_eq!(strict.len(), brk_wire_size(8, ctx.n(), 2, &moduli, false));
        assert_eq!(seeded.len(), brk_wire_size(8, ctx.n(), 2, &moduli, true));
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
}
