//! Wire encoding for CKKS ciphertexts (bit-packed at the limb width).
//!
//! An encoded top-level ciphertext of the paper's parameter set measures
//! `2 × 6 × 8192 × 36 b ≈ 0.44 MB` — exactly §III-C's RLWE size — and this
//! is the payload the host PCIe path and the FPGA HBM move around.

use heap_math::wire::{residue_bits, WireError, WireReader, WireWriter};
use heap_math::{Domain, RnsPoly};

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;

const CT_MAGIC: u32 = 0x434B_4B31; // "CKK1"

impl CkksContext {
    /// Serializes a ciphertext; coefficients are stored in coefficient
    /// domain at each limb's bit-width.
    pub fn ciphertext_to_wire(&self, ct: &Ciphertext) -> Vec<u8> {
        let rns = self.rns();
        let mut parts = [ct.c0().clone(), ct.c1().clone()];
        parts.iter_mut().for_each(|p| p.to_coeff(rns));
        WireWriter::encode(|w| {
            w.put_u32(CT_MAGIC);
            w.put_u32(ct.limbs() as u32);
            w.put_u32(self.n() as u32);
            w.put_f64(ct.scale());
            for limbs in parts.iter().map(RnsPoly::limbs) {
                for (limb, m) in limbs.iter().zip(rns.moduli()) {
                    w.put_packed(limb, residue_bits(m.value()));
                }
            }
        })
    }

    /// Deserializes a ciphertext written by [`Self::ciphertext_to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is malformed, does not match
    /// this context's ring dimension / prime chain, or has trailing bytes.
    pub fn ciphertext_from_wire(&self, buf: &[u8]) -> Result<Ciphertext, WireError> {
        let rns = self.rns();
        let mut r = WireReader::new(buf);
        if r.get_u32()? != CT_MAGIC {
            return Err(WireError::Corrupt("ciphertext magic"));
        }
        let limbs = r.get_u32()? as usize;
        if limbs == 0 || limbs > self.boot_limbs() {
            return Err(WireError::Corrupt("limb count"));
        }
        let n = r.get_u32()? as usize;
        if n != self.n() {
            return Err(WireError::Corrupt("ring dimension"));
        }
        let scale = r.get_f64()?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(WireError::Corrupt("scale"));
        }
        let mut parts = Vec::with_capacity(2);
        for _ in 0..2 {
            let limb_data = (0..limbs)
                .map(|j| r.get_residues(n, rns.modulus(j).value(), "coefficient out of range"))
                .collect::<Result<_, _>>()?;
            parts.push(RnsPoly::from_limbs(limb_data, Domain::Coeff));
        }
        r.finish()?;
        for poly in &mut parts {
            poly.to_eval(rns);
        }
        let c1 = parts.pop().expect("two parts");
        let c0 = parts.pop().expect("two parts");
        Ok(Ciphertext::new(c0, c1, scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SecretKey;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ciphertext_roundtrip_preserves_message() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let msg = vec![0.1f64, -0.2, 0.05];
        let ct = ctx.encrypt_real_sk(&msg, &sk, &mut rng);
        let bytes = ctx.ciphertext_to_wire(&ct);
        let back = ctx.ciphertext_from_wire(&bytes).unwrap();
        assert_eq!(back.scale(), ct.scale());
        let dec = ctx.decrypt_real(&back, &sk);
        for (m, d) in msg.iter().zip(&dec) {
            assert!((m - d).abs() < 1e-4);
        }
    }

    #[test]
    fn wire_size_matches_paper_rlwe_size() {
        // Paper §III-C: 2 × 216 × 8192 bits ≈ 0.44 MB for a full ciphertext.
        let ctx = CkksContext::new(CkksParams::heap_paper());
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ct = ctx.encrypt_real_sk(&[0.5], &sk, &mut rng);
        assert_eq!(ct.limbs(), 6);
        let bytes = ctx.ciphertext_to_wire(&ct).len();
        assert!(
            (bytes as f64 / 1e6 - 0.4424).abs() < 0.01,
            "{} bytes",
            bytes
        );
    }

    #[test]
    fn malformed_buffers_rejected() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ct = ctx.encrypt_real_sk(&[0.1], &sk, &mut rng);
        let bytes = ctx.ciphertext_to_wire(&ct);
        assert!(ctx.ciphertext_from_wire(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[4] = 99; // absurd limb count
        assert!(ctx.ciphertext_from_wire(&bad).is_err());
    }
}
