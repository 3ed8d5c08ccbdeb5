//! On-chip memory organization (paper §IV-C, Figures 2–3).
//!
//! URAM blocks hold read-only data (evaluation keys, twiddles, blind
//! rotation keys); BRAM blocks back the MAC accumulators because they are
//! dual-ported. Each URAM address stores *two* 36-bit coefficients — one
//! from each ring element of an RLWE pair at the same modulus — so twiddle
//! factors are fetched once for two limbs (the NTT datapath optimization of
//! §IV-D).

use heap_math::ParamSet;

/// Layout calculator for a coefficient store.
#[derive(Debug, Clone, Copy)]
pub struct MemoryLayout {
    /// Ring dimension `N`.
    pub n: usize,
    /// RNS limbs per ring element.
    pub limbs: usize,
    /// Bits per coefficient (36 in the paper).
    pub coeff_bits: u32,
}

impl MemoryLayout {
    /// [`ParamSet::PAPER`]'s ring: `N = 2^13`, 6 limbs, 36-bit
    /// coefficients.
    pub fn paper() -> Self {
        Self {
            n: ParamSet::PAPER.n(),
            limbs: ParamSet::PAPER.limbs,
            coeff_bits: ParamSet::PAPER.limb_bits,
        }
    }

    /// Bytes in one RNS limb (`N · coeff_bits / 8`), ≈0.04 MB for the
    /// paper set.
    pub fn limb_bytes(&self) -> u64 {
        (self.n as u64 * self.coeff_bits as u64).div_ceil(8)
    }

    /// Bytes in one full RLWE ciphertext (`2 · limbs · limb_bytes`),
    /// ≈0.44 MB for the paper set (§III-C).
    pub fn rlwe_bytes(&self) -> u64 {
        2 * self.limbs as u64 * self.limb_bytes()
    }

    /// Bytes in one LWE ciphertext of mask dimension `n_t`
    /// (≈2.3 KB at `n_t = 500`, §III-C).
    pub fn lwe_bytes(&self, n_t: usize) -> u64 {
        ((n_t as u64 + 1) * self.coeff_bits as u64).div_ceil(8)
    }

    /// URAM blocks needed to store both ring elements of one ciphertext
    /// (Fig. 2): each address holds 2 coefficients (72-bit words), each
    /// block holds 4096 addresses.
    pub fn uram_blocks_per_rlwe(&self) -> u64 {
        // Per limb pair (a_i, b_i adjacent): N addresses of 2 coefficients.
        let addresses_per_limb_pair = self.n as u64;
        let blocks_per_limb_pair = addresses_per_limb_pair.div_ceil(4096);
        self.limbs as u64 * blocks_per_limb_pair
    }

    /// RLWE ciphertexts that fit in `blocks` URAM blocks.
    pub fn rlwe_capacity_uram(&self, blocks: u64) -> u64 {
        blocks / self.uram_blocks_per_rlwe()
    }

    /// BRAM blocks needed per ciphertext (Fig. 3): two 18-bit-wide blocks
    /// combine for one 36-bit coefficient; pairs are further combined to
    /// mirror the URAM organization (2 coefficients per address, 4096
    /// deep).
    pub fn bram_blocks_per_rlwe(&self) -> u64 {
        // 2 blocks per coefficient column × 2 columns = 4 blocks give a
        // 4096-deep 2-coefficient store of 1024 addresses each → need
        // N/1024 such groups per limb pair.
        let groups_per_limb_pair = (self.n as u64).div_ceil(1024);
        self.limbs as u64 * groups_per_limb_pair * 4
    }

    /// RLWE ciphertexts that fit in `blocks` BRAM blocks.
    pub fn rlwe_capacity_bram(&self, blocks: u64) -> u64 {
        blocks / self.bram_blocks_per_rlwe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_section_3c() {
        let m = MemoryLayout::paper();
        // Limb ≈ 0.04 MB
        assert_eq!(m.limb_bytes(), 8192 * 36 / 8);
        assert!((m.limb_bytes() as f64 / 1e6 - 0.0369).abs() < 0.001);
        // RLWE ≈ 0.44 MB
        assert!((m.rlwe_bytes() as f64 / 1e6 - 0.4424).abs() < 0.01);
        // LWE ≈ 2.3 KB at n_t = 500
        assert!((m.lwe_bytes(ParamSet::PAPER.n_t) as f64 / 1e3 - 2.25).abs() < 0.1);
    }

    #[test]
    fn uram_layout_matches_figure_2() {
        let m = MemoryLayout::paper();
        // 12 URAM blocks store all limbs of both ring elements.
        assert_eq!(m.uram_blocks_per_rlwe(), 12);
        // 960 blocks hold 80 ciphertexts during BlindRotate.
        assert_eq!(m.rlwe_capacity_uram(960), 80);
    }

    #[test]
    fn bram_layout_matches_figure_3() {
        let m = MemoryLayout::paper();
        // 192 BRAM blocks per ciphertext; 3840 blocks hold 20 ciphertexts.
        assert_eq!(m.bram_blocks_per_rlwe(), 192);
        assert_eq!(m.rlwe_capacity_bram(3840), 20);
    }

    #[test]
    fn scales_with_ring_dimension() {
        let m = MemoryLayout {
            n: 1 << 10,
            limbs: 3,
            coeff_bits: 30,
        };
        assert_eq!(m.uram_blocks_per_rlwe(), 3); // 1024 addresses/limb pair
        assert!(m.rlwe_bytes() < MemoryLayout::paper().rlwe_bytes());
    }
}
