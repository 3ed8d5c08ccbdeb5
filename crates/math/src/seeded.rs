//! Seed-expandable RLWE rows — the one codec under every seeded key
//! encoding (the ARK play behind HEAP §III-C's key-traffic cut).
//!
//! A key row is an RLWE sample `(a, b)` over the first limbs of an RNS
//! basis, in evaluation domain, whose mask `a` is uniform and therefore
//! information-free on the wire. The *strict* mode writes, per limb `j`,
//! the mask then the body, each packed at limb `j`'s width; the *seeded*
//! mode writes the bodies only, plus one PRG seed in the key's header,
//! and the reader draws each mask limb from that PRG — one limb ahead of
//! the body that must follow it in the buffer, so a seeded key can make a
//! reader allocate at most twice what a strict one of the same length
//! would, and a short buffer fails on the first missing body.
//!
//! Freshly generated rows have RNG-coupled masks, so [`reseed_row`] first
//! puts them in seedable form: each mask limb is replaced by the PRG
//! stream `a′` and the body fixed as `b′ = b + (a − a′)∘s` (pointwise, in
//! evaluation domain), which keeps the phase `b + a∘s` — noise included —
//! exactly. Reseeding walks a key's rows in the order its encoder writes
//! them, limbs `0..` within a row, so the expander draws the same stream.
//!
//! `BRK1` (`heap-tfhe`) and `CKS1` (`heap-ckks`) are walks over their own
//! rows through this module; `KSK1` shares the mode byte and the seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::wire::{residue_bits, WireError, WireReader, WireWriter};
use crate::{poly, sample, RnsContext};

/// Wire mode: both halves of every row explicit.
pub const MODE_STRICT: u8 = 0;
/// Wire mode: bodies only, masks regenerated from the header's PRG seed.
pub const MODE_SEEDED: u8 = 1;

/// A decoded row: its mask limbs and its body limbs.
pub type Row = (Vec<Vec<u64>>, Vec<Vec<u64>>);

/// Writes the mode byte announcing whether `seed` is present.
pub fn put_mode(w: &mut WireWriter, seed: Option<u64>) {
    w.put_u8(if seed.is_some() {
        MODE_SEEDED
    } else {
        MODE_STRICT
    });
}

/// Writes the PRG seed of a seeded encoding (nothing when strict).
pub fn put_seed(w: &mut WireWriter, seed: Option<u64>) {
    if let Some(s) = seed {
        w.put_u64(s);
    }
}

/// Reads a mode byte: whether the encoding is seeded.
///
/// # Errors
///
/// [`WireError::Corrupt`]`(what)` for an unknown mode.
pub fn get_mode(r: &mut WireReader<'_>, what: &'static str) -> Result<bool, WireError> {
    match r.get_u8()? {
        MODE_STRICT => Ok(false),
        MODE_SEEDED => Ok(true),
        _ => Err(WireError::Corrupt(what)),
    }
}

/// Reads a seeded encoding's seed and returns the mask PRG it keys;
/// `None` for a strict encoding, which carries no seed.
///
/// # Errors
///
/// [`WireError::Truncated`] if the seed is cut off.
pub fn get_prg(r: &mut WireReader<'_>, seeded: bool) -> Result<Option<StdRng>, WireError> {
    Ok(if seeded {
        Some(StdRng::seed_from_u64(r.get_u64()?))
    } else {
        None
    })
}

/// Writes one row: per limb `j` of `b`, the mask `a[j]` (strict only)
/// then the body `b[j]`, packed at the width of `rns.modulus(j)`.
pub fn put_row(w: &mut WireWriter, rns: &RnsContext, a: &[Vec<u64>], b: &[Vec<u64>], seeded: bool) {
    for (j, b_j) in b.iter().enumerate() {
        let bits = residue_bits(rns.modulus(j).value());
        if !seeded {
            w.put_packed(&a[j], bits);
        }
        w.put_packed(b_j, bits);
    }
}

/// Reads one row of `limbs` limbs written by [`put_row`], each of
/// `rns.n()` residues: masks from the buffer, or — when `prg` is the
/// seeded encoding's — drawn from it one limb ahead of the body.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short buffer, [`WireError::Corrupt`] on
/// a residue not below its limb's modulus — `what[0]` for a mask,
/// `what[1]` for a body, so each key names its own section.
pub fn get_row(
    r: &mut WireReader<'_>,
    rns: &RnsContext,
    limbs: usize,
    prg: &mut Option<StdRng>,
    what: [&'static str; 2],
) -> Result<Row, WireError> {
    let (mut a, mut b) = (Vec::with_capacity(limbs), Vec::with_capacity(limbs));
    for j in 0..limbs {
        let m = rns.modulus(j).value();
        a.push(match prg {
            Some(prg) => sample::uniform_poly(prg, rns.n(), m),
            None => r.get_residues(rns.n(), m, what[0])?,
        });
        b.push(r.get_residues(rns.n(), m, what[1])?);
    }
    Ok((a, b))
}

/// Reseeds one row in place: each mask limb `a[j]` becomes the next
/// `rns.n()` words of `prg` and its body is fixed as
/// `b[j] += (a[j] − a′[j])∘s_j`, where `secret(j)` is limb `j` of the
/// row's secret in evaluation domain — every phase is unchanged.
pub fn reseed_row<'s, A: AsMut<[u64]>, B: AsMut<[u64]>>(
    rns: &RnsContext,
    secret: impl Fn(usize) -> &'s [u64],
    prg: &mut StdRng,
    a: impl IntoIterator<Item = A>,
    b: impl IntoIterator<Item = B>,
) {
    let (mut delta, mut prod) = (vec![0u64; rns.n()], vec![0u64; rns.n()]);
    for (j, (mut a_j, mut b_j)) in a.into_iter().zip(b).enumerate() {
        let (a_j, m) = (a_j.as_mut(), rns.modulus(j));
        let fresh = sample::uniform_poly(prg, rns.n(), m.value());
        for ((d, &old), &new) in delta.iter_mut().zip(a_j.iter()).zip(&fresh) {
            *d = m.sub(old, new);
        }
        rns.ntt(j).pointwise(&delta, secret(j), &mut prod);
        poly::add_assign(b_j.as_mut(), &prod, m);
        a_j.copy_from_slice(&fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn rns() -> RnsContext {
        RnsContext::new(16, &ntt_primes(16, 30, 2))
    }

    fn row(rns: &RnsContext, seed: u64) -> Row {
        let mut rng = StdRng::seed_from_u64(seed);
        let limb =
            |j: usize, rng: &mut StdRng| sample::uniform_poly(rng, 16, rns.modulus(j).value());
        let a = (0..2).map(|j| limb(j, &mut rng)).collect();
        let b = (0..2).map(|j| limb(j, &mut rng)).collect();
        (a, b)
    }

    /// `b + a∘s` per limb.
    fn phase(rns: &RnsContext, s: &[Vec<u64>], (a, b): &Row) -> Vec<Vec<u64>> {
        (0..2)
            .map(|j| {
                let mut p = vec![0u64; 16];
                rns.ntt(j).pointwise(&a[j], &s[j], &mut p);
                poly::add_assign(&mut p, &b[j], rns.modulus(j));
                p
            })
            .collect()
    }

    #[test]
    fn reseeded_rows_keep_their_phase_and_expand_from_the_seed() {
        let rns = rns();
        let s = row(&rns, 1).0;
        let mut rows = [row(&rns, 2), row(&rns, 3)];
        let before: Vec<_> = rows.iter().map(|r| phase(&rns, &s, r)).collect();
        let mut prg = StdRng::seed_from_u64(9);
        for (a, b) in &mut rows {
            reseed_row(&rns, |j| &s[j], &mut prg, a.iter_mut(), b.iter_mut());
        }
        let after: Vec<_> = rows.iter().map(|r| phase(&rns, &s, r)).collect();
        assert_eq!(after, before);

        for seed in [None, Some(9)] {
            let bytes = WireWriter::encode(|w| {
                put_mode(w, seed);
                put_seed(w, seed);
                rows.iter()
                    .for_each(|(a, b)| put_row(w, &rns, a, b, seed.is_some()));
            });
            // Seeded: two bodies of 16 × 30 bits per row, plus mode and seed.
            let rows_len = if seed.is_some() {
                2 * 2 * 60
            } else {
                2 * 4 * 60
            };
            assert_eq!(bytes.len(), 1 + 8 * seed.iter().count() + rows_len);
            let decode = |bytes: &[u8]| {
                let mut r = WireReader::new(bytes);
                let seeded = get_mode(&mut r, "mode")?;
                let mut prg = get_prg(&mut r, seeded)?;
                let rows = [0, 1].map(|_| get_row(&mut r, &rns, 2, &mut prg, ["a", "b"]));
                let [first, second] = rows;
                Ok::<_, WireError>(([first?, second?], r.remaining()))
            };
            assert_eq!(decode(&bytes), Ok((rows.clone(), 0)));
            assert_eq!(decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
            // An all-ones first limb (after mode and seed) is out of range:
            // the mask's when strict, the body's when seeded.
            let mut bad = bytes.clone();
            let at = 1 + 8 * seed.iter().count();
            bad[at..at + 60].fill(0xFF);
            let what = if seed.is_some() { "b" } else { "a" };
            assert_eq!(decode(&bad), Err(WireError::Corrupt(what)));
        }
        assert_eq!(
            get_mode(&mut WireReader::new(&[2]), "mode"),
            Err(WireError::Corrupt("mode"))
        );
    }
}
