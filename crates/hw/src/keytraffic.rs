//! Bootstrapping-key traffic analysis (paper §III-C).
//!
//! The scheme switch needs `n_t` GGSW blind-rotation keys, each a
//! `(h+1)·d × (h+1)` matrix of degree `N-1` polynomials over the raised
//! modulus — 1.76 GB in total — versus ~32 GB of evaluation keys for one
//! conventional CKKS bootstrap: an ~18× reduction in main-memory key
//! reads, which is where bootstrapping accelerators spend their bandwidth.
//! Key sizes scale linearly in `d` and quadratically in `h+1`, which is
//! why the paper pins `d = 2`, `h = 1`.

use heap_math::wire::{packed_size, residue_bits};
use heap_math::ParamSet;

/// The paper's accounting of the blind-rotation keys over
/// [`ParamSet::PAPER`]'s `N` and `n_t`. Hardware numbers: its `d` counts
/// digits of the whole modulus, `ParamSet::rgsw_digits` digits per limb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrkParams {
    /// GLWE mask `h` (paper: 1).
    pub h: u64,
    /// Gadget decomposition degree `d` (paper: 2).
    pub d: u64,
}

impl BrkParams {
    /// Bits per raised-modulus coefficient as the paper accounts them
    /// (`2·log Q = 432`; the stored keys carry both representations).
    pub const COEFF_BITS: u64 = 432;

    /// The paper's configuration (§III-C).
    pub fn paper() -> Self {
        Self { h: 1, d: 2 }
    }

    /// Polynomials in one GGSW key: `(h+1)·d × (h+1)`.
    pub fn polys_per_key(&self) -> u64 {
        (self.h + 1) * self.d * (self.h + 1)
    }

    /// Bytes of one GGSW blind-rotation key (~3.52 MB for the paper set).
    pub fn key_bytes(&self) -> u64 {
        self.polys_per_key() * ParamSet::PAPER.n() as u64 * Self::COEFF_BITS / 8
    }

    /// Total blind-rotation key bytes (`n_t` keys; ~1.76 GB).
    pub fn total_bytes(&self) -> u64 {
        ParamSet::PAPER.n_t as u64 * self.key_bytes()
    }
}

/// Conventional CKKS bootstrapping key traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConventionalKeys {
    /// Bytes per evaluation key (~126 MB at bootstrappable parameters).
    pub key_bytes: u64,
    /// Total bytes read from main memory for one bootstrap (~32 GB; the
    /// optimized implementation re-reads rotation keys across the linear
    /// transform's baby-step/giant-step passes).
    pub total_bytes: u64,
}

impl ConventionalKeys {
    /// The paper's accounting (§III-C): 126 MB keys, 25 distinct keys,
    /// ~32 GB of total key reads.
    pub fn paper() -> Self {
        Self {
            key_bytes: 126 * 1_000_000,
            total_bytes: 32 * 1_000_000_000,
        }
    }

    /// Distinct keys held (24 rotation + 1 multiplication).
    pub fn distinct_keys(&self) -> u64 {
        25
    }
}

/// The headline reduction factor in key traffic (~18×).
pub fn key_traffic_reduction(brk: &BrkParams, conv: &ConventionalKeys) -> f64 {
    conv.total_bytes as f64 / brk.total_bytes() as f64
}

/// Key size as a function of `d` and `h` (the §III-C scaling argument):
/// returns total brk bytes over the paper's ring and `n_t`.
pub fn brk_bytes_for(d: u64, h: u64) -> u64 {
    BrkParams { d, h }.total_bytes()
}

// ---------------------------------------------------------------------------
// Exact wire model of the heap-keys distribution protocol
// ---------------------------------------------------------------------------

/// Frame header of the runtime's node protocol: u32 magic + u8 kind +
/// u64 payload length + u32 CRC.
pub const KEY_FRAME_HEADER_BYTES: u64 = 17;
/// Every key frame payload leads with (or consists of) the u64 key id.
pub const KEY_ID_BYTES: u64 = 8;

/// Exact byte model of the `heap-keys` `EKS1` container and the key
/// frames that carry it, mirroring the actual encoders
/// (`heap_tfhe::key_wire`, `heap_ckks::key_wire`,
/// `heap_keys::EvalKeySet`) field for field. The `ledger_vs_model`
/// integration test holds socket-measured key traffic to these numbers
/// exactly, framing included — any drift between an encoder and this
/// model is a test failure, the same contract `MemoryLayout` enforces
/// for ciphertext traffic.
///
/// Strict mode writes both halves of every key (R)LWE sample; seeded
/// mode omits the uniform `a` halves (regenerated from an embedded PRG
/// seed), roughly halving key bytes — the ARK play behind §III-C's
/// key-traffic argument applied to key *distribution*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalKeyWireModel {
    /// Ring dimension `N`.
    pub n: usize,
    /// LWE mask dimension `n_t` (blind-rotate key count, KSK target).
    pub n_t: usize,
    /// Gadget digits of the LWE key-switching key.
    pub ks_digits: usize,
    /// Gadget digits of the RGSW blind-rotate keys.
    pub rgsw_digits: usize,
    /// Accumulator-basis limb moduli (blind-rotate key limbs).
    pub boot_moduli: Vec<u64>,
    /// Full CKKS prime chain (key-switch/Galois key limbs).
    pub chain_moduli: Vec<u64>,
    /// Automorphism exponents held in the Galois key set.
    pub galois_exponents: usize,
    /// Analytic what-if with no software counterpart: price the
    /// blind-rotate key as an automorphism-rotation key (one RGSW per
    /// secret element plus `log₂N` Galois switch keys) instead of the
    /// CMUX `BRK1` pos/neg ladder the library generates. DESIGN.md §14
    /// cites the resulting size ratio; every measured path sets `false`.
    pub auto_backend: bool,
}

impl EvalKeyWireModel {
    /// `KSK1` bytes: 29-byte header (+8 seed), packed bodies for
    /// `N · digits` samples at the `q₀` width, plus — strict only —
    /// packed masks of `n_t` coefficients each.
    pub fn ksk_bytes(&self, seeded: bool) -> u64 {
        let bits = residue_bits(self.chain_moduli[0]);
        let header = 29 + if seeded { 8 } else { 0 };
        let cells = self.n * self.ks_digits;
        let bodies = packed_size(cells, bits);
        let masks = if seeded {
            0
        } else {
            packed_size(cells * self.n_t, bits)
        };
        (header + bodies + masks) as u64
    }

    /// `BRK1` bytes: 25-byte header + one u64 per limb modulus (+8
    /// seed), then `2·n_t` RGSWs × `2·limbs·digits` RLWE rows, each row
    /// one (seeded) or two (strict) packed length-`N` polynomials per
    /// limb.
    pub fn brk_bytes(&self, seeded: bool) -> u64 {
        let limbs = self.boot_moduli.len();
        let header = 25 + 8 * limbs + if seeded { 8 } else { 0 };
        let rows = 2 * self.n_t * 2 * limbs * self.rgsw_digits;
        let per_row: usize = self
            .boot_moduli
            .iter()
            .map(|&m| {
                let limb = packed_size(self.n, residue_bits(m));
                if seeded {
                    limb
                } else {
                    2 * limb
                }
            })
            .sum();
        (header + rows * per_row) as u64
    }

    /// What an automorphism-rotation key would weigh (see
    /// [`Self::auto_backend`]): same header layout as `BRK1`, then `n_t`
    /// RGSWs (`2·limbs·digits` RLWE rows each, half the CMUX ladder)
    /// plus `log₂N` Galois switch keys of `limbs·digits` rows.
    pub fn abk_bytes(&self, seeded: bool) -> u64 {
        let limbs = self.boot_moduli.len();
        let header = 25 + 8 * limbs + if seeded { 8 } else { 0 };
        let gk_count = self.n.trailing_zeros() as usize; // log2(N/2) + 1
        let rows = (2 * self.n_t + gk_count) * limbs * self.rgsw_digits;
        let per_row: usize = self
            .boot_moduli
            .iter()
            .map(|&m| {
                let limb = packed_size(self.n, residue_bits(m));
                if seeded {
                    limb
                } else {
                    2 * limb
                }
            })
            .sum();
        (header + rows * per_row) as u64
    }

    /// Blind-rotate key bytes: [`Self::brk_bytes`], or the
    /// [`Self::abk_bytes`] what-if when `auto_backend` is set.
    pub fn br_bytes(&self, seeded: bool) -> u64 {
        if self.auto_backend {
            self.abk_bytes(seeded)
        } else {
            self.brk_bytes(seeded)
        }
    }

    /// `CKS1` bytes for one repacking key-switch key: 17-byte header +
    /// one u64 per chain modulus (+8 seed), then `boot_limbs` components
    /// of one/two packed length-`N` polynomials per chain limb.
    pub fn cks_bytes(&self, seeded: bool) -> u64 {
        let header = 17 + 8 * self.chain_moduli.len() + if seeded { 8 } else { 0 };
        let comps = self.boot_moduli.len();
        let per_comp: usize = self
            .chain_moduli
            .iter()
            .map(|&m| {
                // The CKKS encoder packs at `Modulus::bits()`
                // (`64 − lz(q)`); identical to `residue_bits` for the
                // odd NTT primes the chain holds.
                let limb = packed_size(self.n, 64 - m.leading_zeros());
                if seeded {
                    limb
                } else {
                    2 * limb
                }
            })
            .sum();
        (header + comps * per_comp) as u64
    }

    /// `GKS1` bytes: magic + count, then per exponent a u32 exponent, a
    /// u32 length prefix, and one `CKS1` key.
    pub fn gks_bytes(&self, seeded: bool) -> u64 {
        4 + 4 + self.galois_exponents as u64 * (4 + 4 + self.cks_bytes(seeded))
    }

    /// `EKS1` container bytes: 25-byte header (magic, version, five
    /// shape fields) + three u32 length prefixes + the three inner keys.
    pub fn container_bytes(&self, seeded: bool) -> u64 {
        25 + 3 * 4 + self.ksk_bytes(seeded) + self.br_bytes(seeded) + self.gks_bytes(seeded)
    }

    /// Client→node key bytes for a *cold* batch (node cache misses):
    /// KeyOffer + KeyUpload frames, the latter carrying the container.
    pub fn cold_key_bytes_sent(&self, seeded: bool) -> u64 {
        2 * (KEY_FRAME_HEADER_BYTES + KEY_ID_BYTES) + self.container_bytes(seeded)
    }

    /// Node→client key bytes for a cold batch: KeyNeed + KeyAck frames.
    pub fn cold_key_bytes_received(&self) -> u64 {
        2 * (KEY_FRAME_HEADER_BYTES + KEY_ID_BYTES)
    }

    /// Client→node key bytes for a *warm* batch (cache hit): the
    /// KeyOffer frame only.
    pub fn warm_key_bytes_sent(&self) -> u64 {
        KEY_FRAME_HEADER_BYTES + KEY_ID_BYTES
    }

    /// Node→client key bytes for a warm batch: the KeyAck frame only.
    pub fn warm_key_bytes_received(&self) -> u64 {
        KEY_FRAME_HEADER_BYTES + KEY_ID_BYTES
    }

    /// Total key bytes (both directions) to run `batches` batches
    /// against one node: one cold round then `batches − 1` warm rounds.
    pub fn total_key_bytes(&self, seeded: bool, batches: u64) -> u64 {
        assert!(batches > 0);
        self.cold_key_bytes_sent(seeded)
            + self.cold_key_bytes_received()
            + (batches - 1) * (self.warm_key_bytes_sent() + self.warm_key_bytes_received())
    }

    /// Key-traffic reduction of the seeded-upload-plus-cache protocol
    /// over re-uploading the strict container every batch (the no-cache,
    /// no-seed baseline). ≥ 2 already at one batch (seed expansion
    /// halves the container); grows with the hit rate.
    pub fn distribution_reduction(&self, batches: u64) -> f64 {
        let baseline = batches * (self.cold_key_bytes_sent(false) + self.cold_key_bytes_received());
        baseline as f64 / self.total_key_bytes(true, batches) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sizes_match_section_3c() {
        let b = BrkParams::paper();
        assert_eq!(b.polys_per_key(), 8);
        // ~3.52 MB per key
        let mb = b.key_bytes() as f64 / 1e6;
        assert!((mb - 3.54).abs() < 0.05, "key {mb} MB");
        // ~1.76 GB total
        let gb = b.total_bytes() as f64 / 1e9;
        assert!((gb - 1.77).abs() < 0.02, "total {gb} GB");
    }

    #[test]
    fn reduction_is_about_18x() {
        let r = key_traffic_reduction(&BrkParams::paper(), &ConventionalKeys::paper());
        assert!((r - 18.0).abs() < 0.5, "reduction {r}");
    }

    #[test]
    fn scaling_linear_in_d_quadratic_in_h() {
        let base = brk_bytes_for(2, 1);
        assert_eq!(brk_bytes_for(4, 1), 2 * base);
        // (h+1)^2: from 2^2 to 3^2 → 2.25x
        let h2 = brk_bytes_for(2, 2);
        assert_eq!(h2 * 4, base * 9);
    }

    #[test]
    fn conventional_side_quotes_paper() {
        let c = ConventionalKeys::paper();
        assert_eq!(c.distinct_keys(), 25);
        assert_eq!(c.total_bytes, 32_000_000_000);
    }

    fn wire_model() -> EvalKeyWireModel {
        // Shapes of the runtime's Tiny preset (the exact-match against
        // the real encoders lives in the runtime's ledger_vs_model test;
        // here we check the model's internal structure).
        EvalKeyWireModel {
            n: 128,
            n_t: 16,
            ks_digits: 5,
            rgsw_digits: 2,
            boot_moduli: vec![(1 << 30) - 35, (1 << 30) - 107],
            chain_moduli: vec![(1 << 30) - 35, (1 << 30) - 107, (1 << 30) - 731],
            galois_exponents: 7,
            auto_backend: false,
        }
    }

    #[test]
    fn seeded_container_is_about_half_the_strict_one() {
        let m = wire_model();
        let strict = m.container_bytes(false);
        let seeded = m.container_bytes(true);
        // Slightly above 2: the BRK/GKS bulk exactly halves, and the
        // KSK (whose strict masks are n_t× its bodies) shrinks further.
        let ratio = strict as f64 / seeded as f64;
        assert!((1.8..=2.5).contains(&ratio), "ratio {ratio}");
        // Mode only ever drops mask bytes and adds 8-byte seeds; every
        // component shrinks.
        assert!(m.ksk_bytes(true) < m.ksk_bytes(false));
        assert!(m.brk_bytes(true) < m.brk_bytes(false));
        assert!(m.gks_bytes(true) < m.gks_bytes(false));
    }

    #[test]
    fn container_is_the_sum_of_its_parts() {
        let m = wire_model();
        for seeded in [false, true] {
            assert_eq!(
                m.container_bytes(seeded),
                37 + m.ksk_bytes(seeded) + m.brk_bytes(seeded) + m.gks_bytes(seeded)
            );
        }
    }

    #[test]
    fn auto_backend_key_is_at_least_1_5x_smaller() {
        let cmux = wire_model();
        let auto = EvalKeyWireModel {
            auto_backend: true,
            ..wire_model()
        };
        for seeded in [false, true] {
            let b = cmux.br_bytes(seeded);
            let a = auto.br_bytes(seeded);
            // 4·n_t / (2·n_t + log₂N): 64/39 ≈ 1.64 at n_t = 16, N = 128.
            assert!(2 * b >= 3 * a, "brk {b} vs abk {a} (seeded={seeded})");
            assert!(auto.container_bytes(seeded) < cmux.container_bytes(seeded));
        }
    }

    #[test]
    fn warm_batches_amortize_the_upload() {
        let m = wire_model();
        assert_eq!(
            m.total_key_bytes(true, 1),
            m.cold_key_bytes_sent(true) + m.cold_key_bytes_received()
        );
        assert_eq!(
            m.total_key_bytes(true, 4) - m.total_key_bytes(true, 1),
            3 * 2 * (KEY_FRAME_HEADER_BYTES + KEY_ID_BYTES)
        );
        // The acceptance bar: seed expansion alone clears 2× on the very
        // first batch, and caching compounds it.
        assert!(m.distribution_reduction(1) >= 2.0);
        assert!(m.distribution_reduction(8) > m.distribution_reduction(1) * 4.0);
    }
}
