//! Seed-expandable wire encodings for CKKS key-switching and Galois keys.
//!
//! Same design as `heap_tfhe::key_wire`: a key's uniform `a` limbs can be
//! *reseeded* — replaced by a PRG stream with the `b` limbs corrected so
//! every component keeps its exact phase (`b' = b + (a - a')·s`) — after
//! which the seeded encoding ships only the `b` halves plus the PRG seed
//! and the receiver regenerates the `a` halves deterministically. The
//! strict encoding (every limb explicit) stays available as the parity
//! oracle: expanding a seeded buffer and strictly re-encoding must
//! reproduce the strict bytes of the reseeded key bit for bit.
//!
//! Galois key sets derive one sub-seed per automorphism exponent from a
//! single master seed ([`heap_math::wire::derive_seed`] with the exponent's
//! little-endian bytes as the label), so a whole rotation-key bundle costs
//! one `u64` of seed material on top of its `b` halves.

use rand::rngs::StdRng;
use rand::SeedableRng;

use heap_math::seeded::{get_mode, get_prg, get_row, put_mode, put_row, put_seed, reseed_row};
use heap_math::wire::{derive_seed, WireError, WireReader, WireWriter};

use crate::context::CkksContext;
use crate::key::{GaloisKeys, KeySwitchKey, KsComponent, SecretKey};

const CKS_MAGIC: u32 = 0x434B_5331; // "CKS1"
const GKS_MAGIC: u32 = 0x474B_5331; // "GKS1"

/// Replaces every uniform `a` limb of `ksk` with the PRG stream of `seed`,
/// correcting each `b` limb ([`reseed_row`]) so all component phases are
/// preserved exactly (noise included).
pub fn reseed_cks(ksk: &mut KeySwitchKey, ctx: &CkksContext, sk: &SecretKey, seed: u64) {
    let mut prg = StdRng::seed_from_u64(seed);
    for comp in &mut ksk.comps {
        let (a, b) = (comp.a.iter_mut(), comp.b.iter_mut());
        reseed_row(ctx.rns(), |j| sk.eval_limb(j), &mut prg, a, b);
    }
}

/// Serializes a key-switching key.
///
/// With `seed: Some(_)` the `a` limbs are omitted and only the seed is
/// stored — the key **must** have been reseeded with that exact seed (via
/// [`reseed_cks`]) or decoding will not reproduce it.
pub fn cks_to_wire(ksk: &KeySwitchKey, ctx: &CkksContext, seed: Option<u64>) -> Vec<u8> {
    WireWriter::encode(|w| cks_write(w, ksk, ctx, seed))
}

/// Writes [`cks_to_wire`]'s encoding into an open writer.
fn cks_write(w: &mut WireWriter, ksk: &KeySwitchKey, ctx: &CkksContext, seed: Option<u64>) {
    let rns = ctx.rns();
    w.put_u32(CKS_MAGIC);
    put_mode(w, seed);
    w.put_u32(ksk.comps.len() as u32);
    w.put_u32(rns.max_limbs() as u32);
    w.put_u32(ctx.n() as u32);
    for m in rns.moduli() {
        w.put_u64(m.value());
    }
    put_seed(w, seed);
    for comp in &ksk.comps {
        put_row(w, rns, &comp.a, &comp.b, seed.is_some());
    }
}

/// Deserializes a key-switching key written by [`cks_to_wire`], expanding
/// seeded masks from the embedded PRG seed.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, or if any field disagrees with
/// `ctx`'s ring dimension or prime chain.
pub fn cks_from_wire(buf: &[u8], ctx: &CkksContext) -> Result<KeySwitchKey, WireError> {
    let rns = ctx.rns();
    let mut r = WireReader::new(buf);
    if r.get_u32()? != CKS_MAGIC {
        return Err(WireError::Corrupt("CKS magic"));
    }
    let seeded = get_mode(&mut r, "CKS mode")?;
    let comps = r.get_u32()? as usize;
    if comps == 0 || comps > rns.max_limbs() {
        return Err(WireError::Corrupt("CKS component count"));
    }
    if r.get_u32()? as usize != rns.max_limbs() {
        return Err(WireError::Corrupt("CKS chain length"));
    }
    if r.get_u32()? as usize != ctx.n() {
        return Err(WireError::Corrupt("CKS ring dimension"));
    }
    for m in rns.moduli() {
        if r.get_u64()? != m.value() {
            return Err(WireError::Corrupt("CKS modulus mismatch"));
        }
    }
    // Every announced dimension was just pinned to `ctx`; `get_row` bounds
    // what a seeded component expands by the bytes that follow it.
    let mut prg = get_prg(&mut r, seeded)?;
    let comps = (0..comps)
        .map(|_| {
            let what = ["CKS mask out of range", "CKS body out of range"];
            let (a, b) = get_row(&mut r, rns, rns.max_limbs(), &mut prg, what)?;
            Ok(KsComponent { a, b })
        })
        .collect::<Result<_, WireError>>()?;
    Ok(KeySwitchKey { comps })
}

/// Reseeds every stored Galois key, deriving each key's PRG seed from
/// `master` and its automorphism exponent (ascending-exponent order, the
/// same order the wire encoding walks).
pub fn reseed_galois_keys(gks: &mut GaloisKeys, ctx: &CkksContext, sk: &SecretKey, master: u64) {
    for g in gks.exponents() {
        let seed = derive_seed(master, &(g as u64).to_le_bytes());
        let key = gks.key_for_mut(g).expect("exponent listed");
        reseed_cks(key, ctx, sk, seed);
    }
}

/// Serializes a Galois key set (exponents ascending).
///
/// With `master: Some(_)` every inner key is written seeded; the set
/// **must** have been reseeded with [`reseed_galois_keys`] under the same
/// master.
pub fn gks_to_wire(gks: &GaloisKeys, ctx: &CkksContext, master: Option<u64>) -> Vec<u8> {
    WireWriter::encode(|w| gks_write(w, gks, ctx, master))
}

/// Writes [`gks_to_wire`]'s encoding into an open writer (a container
/// section, a hashing or a measuring writer); each inner key is a
/// self-measuring section.
pub fn gks_write(w: &mut WireWriter, gks: &GaloisKeys, ctx: &CkksContext, master: Option<u64>) {
    w.put_u32(GKS_MAGIC);
    w.put_u32(gks.len() as u32);
    for g in gks.exponents() {
        w.put_u32(g as u32);
        let seed = master.map(|m| derive_seed(m, &(g as u64).to_le_bytes()));
        let key = gks.key_for(g).expect("exponent listed");
        w.put_section("Galois key", |w| cks_write(w, key, ctx, seed));
    }
}

/// Deserializes a Galois key set written by [`gks_to_wire`].
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, a malformed inner key, or
/// exponents that are out of range / not strictly ascending.
pub fn gks_from_wire(buf: &[u8], ctx: &CkksContext) -> Result<GaloisKeys, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != GKS_MAGIC {
        return Err(WireError::Corrupt("GKS magic"));
    }
    let count = r.get_u32()? as usize;
    if count > 1 << 16 {
        return Err(WireError::Corrupt("GKS count"));
    }
    let mut gks = GaloisKeys::new();
    let mut prev: Option<usize> = None;
    for _ in 0..count {
        let g = r.get_u32()? as usize;
        if g.is_multiple_of(2) || g >= 2 * ctx.n() {
            return Err(WireError::Corrupt("GKS exponent"));
        }
        if prev.is_some_and(|p| g <= p) {
            return Err(WireError::Corrupt("GKS exponent order"));
        }
        prev = Some(g);
        let key = cks_from_wire(r.get_bytes()?, ctx)?;
        gks.insert_key(g, key);
    }
    Ok(gks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::RelinearizationKey;
    use crate::keyswitch::key_switch;
    use crate::params::CkksParams;
    use heap_math::wire::{packed_size, residue_bits};
    use heap_math::{poly, RnsPoly};
    use rand::Rng;

    /// Per-component, per-limb phase `b + a·s` in evaluation domain.
    fn phases(ksk: &KeySwitchKey, ctx: &CkksContext, sk: &SecretKey) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for comp in &ksk.comps {
            for j in 0..ctx.rns().max_limbs() {
                let m = ctx.rns().modulus(j);
                let mut p = vec![0u64; ctx.n()];
                ctx.rns()
                    .ntt(j)
                    .pointwise(&comp.a[j], sk.eval_limb(j), &mut p);
                poly::add_assign(&mut p, &comp.b[j], m);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn cks_strict_roundtrip_bit_exact() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(41);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ksk = RelinearizationKey::generate(&ctx, &sk, &mut rng).ksk;
        let strict = cks_to_wire(&ksk, &ctx, None);
        let back = cks_from_wire(&strict, &ctx).unwrap();
        assert_eq!(cks_to_wire(&back, &ctx, None), strict);
    }

    #[test]
    fn cks_reseed_preserves_phases_and_seeded_parity() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(42);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut ksk = RelinearizationKey::generate(&ctx, &sk, &mut rng).ksk;
        let before = phases(&ksk, &ctx, &sk);
        reseed_cks(&mut ksk, &ctx, &sk, 0xC0FFEE);
        assert_eq!(
            phases(&ksk, &ctx, &sk),
            before,
            "reseed must not move phases"
        );

        let strict = cks_to_wire(&ksk, &ctx, None);
        let seeded = cks_to_wire(&ksk, &ctx, Some(0xC0FFEE));
        // Seeded drops exactly the packed `a` limbs, paying 8 bytes of seed.
        let a_bytes: usize = ctx
            .rns()
            .moduli()
            .iter()
            .map(|m| packed_size(ctx.n(), residue_bits(m.value())))
            .sum::<usize>()
            * ksk.component_count();
        assert_eq!(strict.len() - seeded.len(), a_bytes - 8);
        let expanded = cks_from_wire(&seeded, &ctx).unwrap();
        assert_eq!(cks_to_wire(&expanded, &ctx, None), strict, "parity oracle");

        // Switching through the key straight after the in-place reseed —
        // no rebuild step, the limbs are the whole key — is bit-identical
        // to switching through its wire expansion.
        let d_coeffs: Vec<i64> = (0..ctx.n() as i64)
            .map(|i| (i * 7919) % 2001 - 1000)
            .collect();
        let d = RnsPoly::from_signed(ctx.rns(), &d_coeffs, ctx.max_limbs());
        assert!(key_switch(&ctx, &d, &ksk) == key_switch(&ctx, &d, &expanded));
    }

    #[test]
    fn cks_rejects_truncation_and_corruption() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(43);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut ksk = RelinearizationKey::generate(&ctx, &sk, &mut rng).ksk;
        reseed_cks(&mut ksk, &ctx, &sk, 7);
        for bytes in [
            cks_to_wire(&ksk, &ctx, None),
            cks_to_wire(&ksk, &ctx, Some(7)),
        ] {
            for _ in 0..64 {
                let cut = rng.gen_range(0..bytes.len());
                assert!(cks_from_wire(&bytes[..cut], &ctx).is_err(), "prefix {cut}");
            }
            let mut bad = bytes.clone();
            bad[0] ^= 0xFF;
            assert_eq!(
                cks_from_wire(&bad, &ctx).err(),
                Some(WireError::Corrupt("CKS magic"))
            );
        }
    }

    #[test]
    fn gks_reseed_rotates_and_expands_bit_identically() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(44);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut gks = GaloisKeys::generate(&ctx, &sk, &[1, 2], true, &mut rng);
        reseed_galois_keys(&mut gks, &ctx, &sk, 0xABCD);

        // Reseeded keys still rotate correctly.
        let msg = vec![0.5, -0.25, 0.125, 0.0625];
        let ct = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
        let rotated = ctx.rotate(&ct, 1, &gks);
        let dec = ctx.decrypt_real(&rotated, &sk);
        for (i, &want) in [-0.25, 0.125, 0.0625].iter().enumerate() {
            assert!(
                (dec[i] - want).abs() < 1e-3,
                "slot {i}: {} vs {want}",
                dec[i]
            );
        }

        // Wire-expanded keys are the same bits, so rotation is bit-identical.
        let seeded = gks_to_wire(&gks, &ctx, Some(0xABCD));
        let strict = gks_to_wire(&gks, &ctx, None);
        let expanded = gks_from_wire(&seeded, &ctx).unwrap();
        assert_eq!(gks_to_wire(&expanded, &ctx, None), strict, "parity oracle");
        let rotated2 = ctx.rotate(&ct, 1, &expanded);
        assert_eq!(rotated2.c0(), rotated.c0());
        assert_eq!(rotated2.c1(), rotated.c1());
    }

    #[test]
    fn gks_rejects_malformed_buffers() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(45);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut gks = GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng);
        reseed_galois_keys(&mut gks, &ctx, &sk, 9);
        let bytes = gks_to_wire(&gks, &ctx, Some(9));
        for _ in 0..64 {
            let cut = rng.gen_range(0..bytes.len());
            assert!(gks_from_wire(&bytes[..cut], &ctx).is_err(), "prefix {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            gks_from_wire(&bad, &ctx).err(),
            Some(WireError::Corrupt("GKS magic"))
        );
        // An even automorphism exponent is never valid.
        let mut bad = bytes.clone();
        bad[8] = 2;
        bad[9] = 0;
        assert_eq!(
            gks_from_wire(&bad, &ctx).err(),
            Some(WireError::Corrupt("GKS exponent"))
        );
    }
}
