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

use heap_math::wire::{derive_seed, packed_size, residue_bits, WireError, WireReader, WireWriter};
use heap_math::{poly, sample};

use crate::context::CkksContext;
use crate::key::{GaloisKeys, KeySwitchKey, KsComponent, SecretKey};

const CKS_MAGIC: u32 = 0x434B_5331; // "CKS1"
const GKS_MAGIC: u32 = 0x474B_5331; // "GKS1"
const MODE_STRICT: u8 = 0;
const MODE_SEEDED: u8 = 1;

/// Replaces every uniform `a` limb of `ksk` with the PRG stream of `seed`,
/// correcting each `b` limb by `(a_old - a_new)·s` so all component phases
/// are preserved exactly (noise included).
pub fn reseed_cks(ksk: &mut KeySwitchKey, ctx: &CkksContext, sk: &SecretKey, seed: u64) {
    let n = ctx.n();
    let chain = ctx.rns().max_limbs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = vec![0u64; n];
    let mut prod = vec![0u64; n];
    for comp in &mut ksk.comps {
        for j in 0..chain {
            let m = ctx.rns().modulus(j);
            let fresh = sample::uniform_poly(&mut rng, n, m.value());
            let a_j = &mut comp.a[j];
            for (d, (&old, &new)) in delta.iter_mut().zip(a_j.iter().zip(&fresh)) {
                *d = m.sub(old, new);
            }
            ctx.rns()
                .ntt(j)
                .pointwise(&delta, sk.eval_limb(j), &mut prod);
            poly::add_assign(&mut comp.b[j], &prod, m);
            a_j.copy_from_slice(&fresh);
        }
    }
}

/// Serializes a key-switching key.
///
/// With `seed: Some(_)` the `a` limbs are omitted and only the seed is
/// stored — the key **must** have been reseeded with that exact seed (via
/// [`reseed_cks`]) or decoding will not reproduce it.
pub fn cks_to_wire(ksk: &KeySwitchKey, ctx: &CkksContext, seed: Option<u64>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(cks_encoded_len(ksk, ctx, seed.is_some()));
    cks_write(&mut w, ksk, ctx, seed);
    w.into_bytes()
}

fn chain_moduli(ctx: &CkksContext) -> Vec<u64> {
    ctx.rns().moduli().iter().map(|m| m.value()).collect()
}

/// [`cks_wire_size`] of this key over `ctx` — what [`cks_write`] writes.
fn cks_encoded_len(ksk: &KeySwitchKey, ctx: &CkksContext, seeded: bool) -> usize {
    cks_wire_size(ksk.comps.len(), ctx.n(), &chain_moduli(ctx), seeded)
}

/// Writes [`cks_to_wire`]'s encoding into an open writer.
fn cks_write(w: &mut WireWriter, ksk: &KeySwitchKey, ctx: &CkksContext, seed: Option<u64>) {
    let chain = ctx.rns().max_limbs();
    w.put_u32(CKS_MAGIC);
    w.put_u8(if seed.is_some() {
        MODE_SEEDED
    } else {
        MODE_STRICT
    });
    w.put_u32(ksk.comps.len() as u32);
    w.put_u32(chain as u32);
    w.put_u32(ctx.n() as u32);
    for j in 0..chain {
        w.put_u64(ctx.rns().modulus(j).value());
    }
    if let Some(s) = seed {
        w.put_u64(s);
    }
    for comp in &ksk.comps {
        for j in 0..chain {
            let bits = ctx.rns().modulus(j).bits();
            if seed.is_none() {
                w.put_packed(&comp.a[j], bits);
            }
            w.put_packed(&comp.b[j], bits);
        }
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
    let mut r = WireReader::new(buf);
    if r.get_u32()? != CKS_MAGIC {
        return Err(WireError::Corrupt("CKS magic"));
    }
    let mode = r.get_u8()?;
    if mode != MODE_STRICT && mode != MODE_SEEDED {
        return Err(WireError::Corrupt("CKS mode"));
    }
    let comps = r.get_u32()? as usize;
    if comps == 0 || comps > ctx.rns().max_limbs() {
        return Err(WireError::Corrupt("CKS component count"));
    }
    let chain = r.get_u32()? as usize;
    if chain != ctx.rns().max_limbs() {
        return Err(WireError::Corrupt("CKS chain length"));
    }
    if r.get_u32()? as usize != ctx.n() {
        return Err(WireError::Corrupt("CKS ring dimension"));
    }
    for j in 0..chain {
        if r.get_u64()? != ctx.rns().modulus(j).value() {
            return Err(WireError::Corrupt("CKS modulus mismatch"));
        }
    }
    let mut rng = if mode == MODE_SEEDED {
        Some(StdRng::seed_from_u64(r.get_u64()?))
    } else {
        None
    };
    // Every announced dimension was just pinned to `ctx`, and each mask
    // limb is expanded one step ahead of the body limb that must follow in
    // the buffer: a seeded key allocates at most twice its strict size.
    let n = ctx.n();
    let mut out = Vec::with_capacity(comps);
    for _ in 0..comps {
        let mut a = Vec::with_capacity(chain);
        let mut b = Vec::with_capacity(chain);
        for j in 0..chain {
            let m = ctx.rns().modulus(j).value();
            let aj = match &mut rng {
                Some(rng) => sample::uniform_poly(rng, n, m),
                None => r.get_residues(n, m, "CKS mask out of range")?,
            };
            let bj = r.get_residues(n, m, "CKS body out of range")?;
            a.push(aj);
            b.push(bj);
        }
        out.push(KsComponent { a, b });
    }
    Ok(KeySwitchKey { comps: out })
}

/// Exact byte size of [`cks_to_wire`]'s output for the given shape.
pub fn cks_wire_size(comps: usize, n: usize, moduli: &[u64], seeded: bool) -> usize {
    let header = 4 + 1 + 4 + 4 + 4 + 8 * moduli.len() + if seeded { 8 } else { 0 };
    let per_comp: usize = moduli
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
    header + comps * per_comp
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
    let mut w = WireWriter::with_capacity(gks_encoded_len(gks, ctx, master.is_some()));
    gks_write(&mut w, gks, ctx, master);
    w.into_bytes()
}

/// Exact byte size of [`gks_to_wire`]'s output for this set — what
/// [`gks_write`] writes ([`gks_wire_size`] when every key has the same
/// component count).
pub fn gks_encoded_len(gks: &GaloisKeys, ctx: &CkksContext, seeded: bool) -> usize {
    let keys = gks.exponents().into_iter().map(|g| {
        let key = gks.key_for(g).expect("exponent listed");
        4 + 4 + cks_encoded_len(key, ctx, seeded)
    });
    4 + 4 + keys.sum::<usize>()
}

/// Writes [`gks_to_wire`]'s encoding — exactly [`gks_encoded_len`] bytes
/// — into an open writer (a container section, or a hashing writer);
/// each inner key is a section prefixed from [`cks_wire_size`].
pub fn gks_write(w: &mut WireWriter, gks: &GaloisKeys, ctx: &CkksContext, master: Option<u64>) {
    w.put_u32(GKS_MAGIC);
    w.put_u32(gks.len() as u32);
    for g in gks.exponents() {
        w.put_u32(g as u32);
        let seed = master.map(|m| derive_seed(m, &(g as u64).to_le_bytes()));
        let key = gks.key_for(g).expect("exponent listed");
        let len = cks_encoded_len(key, ctx, master.is_some());
        w.put_section(len, "Galois key", |w| cks_write(w, key, ctx, seed));
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

/// Exact byte size of [`gks_to_wire`]'s output when every stored key has
/// `comps` components (which holds for keys built by [`GaloisKeys`]
/// generation — all use `ctx.boot_limbs()` components).
pub fn gks_wire_size(
    exponents: usize,
    comps: usize,
    n: usize,
    moduli: &[u64],
    seeded: bool,
) -> usize {
    4 + 4 + exponents * (4 + 4 + cks_wire_size(comps, n, moduli, seeded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::RelinearizationKey;
    use crate::keyswitch::key_switch;
    use crate::params::CkksParams;
    use heap_math::RnsPoly;
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
        assert_eq!(
            strict.len(),
            cks_wire_size(ksk.component_count(), ctx.n(), &chain_moduli(&ctx), false)
        );
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
        assert_eq!(
            seeded.len(),
            cks_wire_size(ksk.component_count(), ctx.n(), &chain_moduli(&ctx), true)
        );
        // Seeded drops exactly the packed `a` limbs, paying 8 bytes of seed.
        let a_bytes: usize = chain_moduli(&ctx)
            .iter()
            .map(|&m| packed_size(ctx.n(), residue_bits(m)))
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
        assert_eq!(
            seeded.len(),
            gks_wire_size(
                gks.len(),
                ctx.boot_limbs(),
                ctx.n(),
                &chain_moduli(&ctx),
                true
            )
        );
        let strict = gks_to_wire(&gks, &ctx, None);
        assert_eq!(
            strict.len(),
            gks_wire_size(
                gks.len(),
                ctx.boot_limbs(),
                ctx.n(),
                &chain_moduli(&ctx),
                false
            )
        );
        let expanded = gks_from_wire(&seeded, &ctx).unwrap();
        assert_eq!(gks_to_wire(&expanded, &ctx, None), strict, "parity oracle");
        let rotated2 = ctx.rotate(&ct, 1, &expanded);
        assert_eq!(rotated2.c0(), rotated.c0());
        assert_eq!(rotated2.c1(), rotated.c1());
    }

    /// The size functions now write the Galois-key length prefixes (and
    /// the `EKS1` container's), so they must be exact — both modes, on the
    /// Tiny and the Small preset.
    #[test]
    fn wire_sizes_are_exact_on_tiny_and_small_presets() {
        for params in [CkksParams::test_tiny(), CkksParams::test_small()] {
            let ctx = CkksContext::new(params);
            let mut rng = StdRng::seed_from_u64(46);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let mut gks = GaloisKeys::generate(&ctx, &sk, &[1, 3], true, &mut rng);
            reseed_galois_keys(&mut gks, &ctx, &sk, 5);
            let moduli = chain_moduli(&ctx);
            for master in [None, Some(5)] {
                let seeded = master.is_some();
                let bytes = gks_to_wire(&gks, &ctx, master);
                assert_eq!(bytes.len(), gks_encoded_len(&gks, &ctx, seeded));
                assert_eq!(
                    bytes.len(),
                    gks_wire_size(gks.len(), ctx.boot_limbs(), ctx.n(), &moduli, seeded),
                    "GKS, n = {}, seeded {seeded}",
                    ctx.n()
                );
                let g = gks.exponents()[0];
                let key = gks.key_for(g).unwrap();
                let seed = master.map(|m| derive_seed(m, &(g as u64).to_le_bytes()));
                assert_eq!(
                    cks_to_wire(key, &ctx, seed).len(),
                    cks_wire_size(key.component_count(), ctx.n(), &moduli, seeded),
                    "CKS, n = {}, seeded {seeded}",
                    ctx.n()
                );
            }
        }
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
