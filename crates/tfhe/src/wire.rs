//! Wire encodings for TFHE ciphertexts — the payloads HEAP streams over
//! its CMAC links during the parallel bootstrap (§V).
//!
//! Coefficients are bit-packed at the modulus width, so sizes match the
//! paper's accounting (a 2.25 KB LWE at `n_t = 500`/36-bit, §III-C); the
//! root test suite cross-checks these against `heap-hw`'s memory model.
//!
//! Besides the single-ciphertext formats, this module defines the two
//! *batch* payloads the distributed runtime ships between a primary and
//! its compute nodes: a scatter of modulus-switched LWE ciphertexts
//! ([`lwe_batch_to_wire`]) and the gather of blind-rotation accumulator
//! replies ([`rlwe_batch_to_wire`]). Accumulators are serialized in
//! evaluation domain exactly as computed, so a remote round trip is
//! bit-identical to local execution.

use heap_math::wire::{residue_bits, WireError, WireReader, WireWriter};
use heap_math::Domain;

use crate::lwe::LweCiphertext;
use crate::rlwe::RlweCiphertext;

const LWE_MAGIC: u32 = 0x4C57_4531; // "LWE1"
const ACC_MAGIC: u32 = 0x4143_4331; // "ACC1"
const LWE_BATCH_MAGIC: u32 = 0x4C42_5431; // "LBT1"
const ACC_BATCH_MAGIC: u32 = 0x4142_5431; // "ABT1"

/// Largest element count any batch decoder will accept; guards allocation
/// against corrupt headers.
const MAX_BATCH: usize = 1 << 20;

impl LweCiphertext {
    /// Serializes at the modulus bit-width.
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::encode(|w| self.write_wire(w))
    }

    /// Appends the wire encoding to an open writer (batch encodings).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_u32(LWE_MAGIC);
        w.put_u64(self.modulus);
        w.put_u32(self.a.len() as u32);
        let all = self.a.iter().copied().chain([self.b]);
        w.put_packed_iter(all, self.a.len() + 1, residue_bits(self.modulus));
    }

    /// Deserializes a ciphertext written by [`Self::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or corrupted fields.
    pub fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        Self::read_wire(&mut r, None)
    }

    /// Reads one ciphertext from an open reader. With `shape`, a header
    /// whose `(modulus, dimension)` differs is refused before any residue
    /// is unpacked.
    fn read_wire(r: &mut WireReader<'_>, shape: Option<(u64, usize)>) -> Result<Self, WireError> {
        if r.get_u32()? != LWE_MAGIC {
            return Err(WireError::Corrupt("LWE magic"));
        }
        let modulus = r.get_u64()?;
        if modulus < 2 {
            return Err(WireError::Corrupt("LWE modulus"));
        }
        let dim = r.get_u32()? as usize;
        if dim > 1 << 24 {
            return Err(WireError::Corrupt("LWE dimension"));
        }
        if let Some(want) = shape {
            Self::check_shape(modulus, dim, want).map_err(WireError::Corrupt)?;
        }
        let mut all = r.get_residues(dim + 1, modulus, "LWE element out of range")?;
        let b = all.pop().expect("dim + 1 elements");
        Ok(Self { a: all, b, modulus })
    }

    /// Wire size in bytes (what a CMAC scatter pays per ciphertext).
    pub fn wire_size(&self) -> usize {
        WireWriter::measure(|w| self.write_wire(w))
    }
}

/// Serializes a batch of LWE ciphertexts (the primary → secondary scatter
/// payload of the distributed runtime).
pub fn lwe_batch_to_wire(lwes: &[LweCiphertext]) -> Vec<u8> {
    WireWriter::encode(|w| {
        w.put_u32(LWE_BATCH_MAGIC);
        w.put_u32(lwes.len() as u32);
        lwes.iter().for_each(|ct| ct.write_wire(w));
    })
}

/// Deserializes a batch written by [`lwe_batch_to_wire`] for the key it
/// will be rotated under: every member must be at `modulus` (the key's
/// `2N`) with mask dimension `dim` (its `n_t`). A member header that
/// differs is refused before its residues are unpacked, so a batch makes
/// the decoder allocate no more than the key's own packing width implies
/// (a modulus-2 header would otherwise unpack each 1-bit value into a
/// `u64`).
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, a bad magic/count, a member that
/// does not fit the key, or any corrupted element.
pub fn lwe_batch_from_wire(
    buf: &[u8],
    modulus: u64,
    dim: usize,
) -> Result<Vec<LweCiphertext>, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != LWE_BATCH_MAGIC {
        return Err(WireError::Corrupt("LWE batch magic"));
    }
    let count = r.get_u32()? as usize;
    if count > MAX_BATCH {
        return Err(WireError::Corrupt("LWE batch count"));
    }
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        out.push(LweCiphertext::read_wire(&mut r, Some((modulus, dim)))?);
    }
    Ok(out)
}

impl RlweCiphertext {
    /// Serializes a blind-rotation accumulator at each limb's modulus
    /// width, *in evaluation domain* — verbatim residues, so decoding
    /// reproduces the ciphertext bit for bit (no NTT round trip).
    ///
    /// `moduli` must list the limb moduli of the basis the ciphertext
    /// lives over (`ctx.rns()` order).
    ///
    /// # Panics
    ///
    /// Panics if `moduli` does not match the limb count or the parts are
    /// not in evaluation domain.
    pub fn to_wire(&self, moduli: &[u64]) -> Vec<u8> {
        WireWriter::encode(|w| self.write_wire(w, moduli))
    }

    /// Appends the wire encoding to an open writer (batch encodings).
    ///
    /// # Panics
    ///
    /// See [`Self::to_wire`].
    pub fn write_wire(&self, w: &mut WireWriter, moduli: &[u64]) {
        assert_eq!(moduli.len(), self.limbs(), "one modulus per limb");
        assert_eq!(self.a.domain(), Domain::Eval, "accumulator must be eval");
        assert_eq!(self.b.domain(), Domain::Eval, "accumulator must be eval");
        let n = self.a.limb(0).len();
        w.put_u32(ACC_MAGIC);
        w.put_u32(self.limbs() as u32);
        w.put_u32(n as u32);
        for (j, &m) in moduli.iter().enumerate() {
            let bits = residue_bits(m);
            w.put_u64(m);
            w.put_packed(self.a.limb(j), bits);
            w.put_packed(self.b.limb(j), bits);
        }
    }

    /// Deserializes an accumulator written by [`Self::to_wire`]; the
    /// result is in evaluation domain.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or corrupted fields.
    pub fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        Self::read_wire(&mut r)
    }

    /// Reads one accumulator from an open reader (batch encodings).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or corrupted fields.
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        use heap_math::RnsPoly;
        if r.get_u32()? != ACC_MAGIC {
            return Err(WireError::Corrupt("accumulator magic"));
        }
        let limbs = r.get_u32()? as usize;
        let n = r.get_u32()? as usize;
        if limbs == 0 || limbs > 64 || n == 0 || n > 1 << 24 {
            return Err(WireError::Corrupt("accumulator shape"));
        }
        let mut a_limbs = Vec::with_capacity(limbs);
        let mut b_limbs = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            let m = r.get_u64()?;
            if m < 2 {
                return Err(WireError::Corrupt("accumulator modulus"));
            }
            a_limbs.push(r.get_residues(n, m, "accumulator residue out of range")?);
            b_limbs.push(r.get_residues(n, m, "accumulator residue out of range")?);
        }
        Ok(Self {
            a: RnsPoly::from_limbs(a_limbs, Domain::Eval),
            b: RnsPoly::from_limbs(b_limbs, Domain::Eval),
        })
    }

    /// Wire size in bytes (what a CMAC gather pays per accumulator).
    pub fn wire_size(&self, moduli: &[u64]) -> usize {
        WireWriter::measure(|w| self.write_wire(w, moduli))
    }
}

/// Serializes a batch of blind-rotation accumulators (the secondary →
/// primary gather payload of the distributed runtime).
///
/// # Panics
///
/// Panics if any element's shape does not match `moduli` (see
/// [`RlweCiphertext::to_wire`]).
pub fn rlwe_batch_to_wire(accs: &[RlweCiphertext], moduli: &[u64]) -> Vec<u8> {
    WireWriter::encode(|w| {
        w.put_u32(ACC_BATCH_MAGIC);
        w.put_u32(accs.len() as u32);
        accs.iter().for_each(|acc| acc.write_wire(w, moduli));
    })
}

/// Deserializes a batch written by [`rlwe_batch_to_wire`].
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, a bad magic/count, or any
/// corrupted element.
pub fn rlwe_batch_from_wire(buf: &[u8]) -> Result<Vec<RlweCiphertext>, WireError> {
    let mut r = WireReader::new(buf);
    if r.get_u32()? != ACC_BATCH_MAGIC {
        return Err(WireError::Corrupt("accumulator batch magic"));
    }
    let count = r.get_u32()? as usize;
    if count > MAX_BATCH {
        return Err(WireError::Corrupt("accumulator batch count"));
    }
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        out.push(RlweCiphertext::read_wire(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lwe::LweSecretKey;
    use crate::rlwe::RingSecretKey;
    use heap_math::arith::Modulus;
    use heap_math::prime::ntt_primes;
    use heap_math::{RnsContext, RnsPoly};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lwe_roundtrip_preserves_decryption() {
        let q = Modulus::new(ntt_primes(1 << 8, 36, 1)[0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = LweSecretKey::generate(&mut rng, 500);
        let ct = sk.encrypt(q.value() / 2, &q, &mut rng);
        let bytes = ct.to_wire();
        let back = LweCiphertext::from_wire(&bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(sk.phase(&back, &q), sk.phase(&ct, &q));
    }

    #[test]
    fn lwe_wire_size_matches_paper_accounting() {
        // n_t = 500, 36-bit modulus: (501 · 36)/8 ≈ 2.25 KB payload,
        // matching §III-C's "size of each LWE ciphertext is ~2.3 KB".
        let q = ntt_primes(1 << 13, 36, 1)[0];
        let ct = LweCiphertext::trivial(0, 500, q);
        let payload = ct.wire_size() - 16; // minus header
        assert_eq!(payload, (501 * 36usize).div_ceil(8));
        assert!((payload as f64 / 1e3 - 2.25).abs() < 0.05);
    }

    #[test]
    fn corrupt_and_truncated_inputs_rejected() {
        let q = ntt_primes(1 << 8, 30, 1)[0];
        let ct = LweCiphertext::trivial(5, 16, q);
        let mut bytes = ct.to_wire();
        assert!(LweCiphertext::from_wire(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] ^= 0xFF; // break magic
        assert_eq!(
            LweCiphertext::from_wire(&bytes),
            Err(WireError::Corrupt("LWE magic"))
        );
    }

    fn sample_accumulator(ctx: &RnsContext, limbs: usize, seed: u64) -> RlweCiphertext {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = RingSecretKey::generate(ctx, limbs, &mut rng);
        let msg_coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| (i - 8) * 321).collect();
        let msg = RnsPoly::from_signed(ctx, &msg_coeffs, limbs);
        RlweCiphertext::encrypt(ctx, &sk, &msg, &mut rng)
    }

    #[test]
    fn rlwe_accumulator_roundtrip_is_bit_exact() {
        let primes = ntt_primes(64, 30, 3);
        let ctx = RnsContext::new(64, &primes);
        let acc = sample_accumulator(&ctx, 3, 7);
        let bytes = acc.to_wire(&primes);
        let back = RlweCiphertext::from_wire(&bytes).unwrap();
        // Verbatim evaluation-domain residues: the exact bits, not just an
        // equivalent ciphertext.
        assert_eq!(back.a.limbs(), acc.a.limbs());
        assert_eq!(back.b.limbs(), acc.b.limbs());
        assert_eq!(back.a.domain(), Domain::Eval);
    }

    #[test]
    fn rlwe_rejects_truncation_and_corruption() {
        let primes = ntt_primes(64, 30, 2);
        let ctx = RnsContext::new(64, &primes);
        let acc = sample_accumulator(&ctx, 2, 8);
        let mut bytes = acc.to_wire(&primes);
        assert!(RlweCiphertext::from_wire(&bytes[..bytes.len() - 3]).is_err());
        bytes[0] ^= 0x10;
        assert_eq!(
            RlweCiphertext::from_wire(&bytes).err(),
            Some(WireError::Corrupt("accumulator magic"))
        );
    }

    #[test]
    fn lwe_batch_roundtrip() {
        let q = ntt_primes(1 << 8, 30, 1)[0];
        let mut rng = StdRng::seed_from_u64(3);
        let sk = LweSecretKey::generate(&mut rng, 24);
        let modq = Modulus::new(q).unwrap();
        let lwes: Vec<LweCiphertext> = (0..9)
            .map(|i| sk.encrypt(i * 1000, &modq, &mut rng))
            .collect();
        let bytes = lwe_batch_to_wire(&lwes);
        let members: usize = lwes.iter().map(LweCiphertext::wire_size).sum();
        assert_eq!(bytes.len(), 8 + members);
        let back = lwe_batch_from_wire(&bytes, q, 24).unwrap();
        assert_eq!(back, lwes);
        // A member that does not fit the key is refused by its header.
        assert_eq!(
            lwe_batch_from_wire(&bytes, q, 23),
            Err(WireError::Corrupt("LWE dimension does not match the key"))
        );
        assert_eq!(
            lwe_batch_from_wire(&bytes, 2, 24),
            Err(WireError::Corrupt("LWE modulus does not match the key"))
        );
        // Empty batches are legal (a node with no work assigned).
        assert_eq!(
            lwe_batch_from_wire(&lwe_batch_to_wire(&[]), q, 24).unwrap(),
            Vec::<LweCiphertext>::new()
        );
    }

    #[test]
    fn rlwe_batch_roundtrip() {
        let primes = ntt_primes(64, 28, 3);
        let ctx = RnsContext::new(64, &primes);
        let accs: Vec<RlweCiphertext> = (0..4)
            .map(|i| sample_accumulator(&ctx, 3, 100 + i))
            .collect();
        let bytes = rlwe_batch_to_wire(&accs, &primes);
        let back = rlwe_batch_from_wire(&bytes).unwrap();
        assert_eq!(back.len(), accs.len());
        for (b, a) in back.iter().zip(&accs) {
            assert_eq!(b.a.limbs(), a.a.limbs());
            assert_eq!(b.b.limbs(), a.b.limbs());
        }
    }

    #[test]
    fn batch_rejects_absurd_count() {
        let mut w = WireWriter::new();
        w.put_u32(0x4C42_5431);
        w.put_u32(u32::MAX);
        assert_eq!(
            lwe_batch_from_wire(&w.into_bytes(), 512, 4),
            Err(WireError::Corrupt("LWE batch count"))
        );
    }
}
