//! The parameter sets, each number written once.
//!
//! HEAP fixes one set (paper §III-C): `N = 2^13`, `log Q = 216` in six
//! 36-bit limbs, `n_t = 500` and `d = 2`. [`ParamSet::ALL`] lists it with
//! the three smaller sets the tests and the runtime presets run. Every
//! model is built from one of them: `heap_ckks::CkksParams` (its one
//! checked constructor), `heap_core::BootstrapConfig`,
//! `heap_runtime::ParamPreset` and `heap-hw`'s paper rows.

use crate::prime::{ntt_primes, ntt_primes_excluding};

/// One parameter set: the CKKS ring and prime chain, the LWE dimension the
/// scheme switch extracts to, and the two gadgets.
///
/// A variant is a struct update on a listed set:
///
/// ```
/// use heap_math::ParamSet;
///
/// let wide = ParamSet { limbs: 6, ..ParamSet::SMALL };
/// assert_eq!(wide.chain().len(), 6 + 2);
/// assert_eq!(ParamSet::PAPER.n(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSet {
    /// The set's label; for the three test sets, the runtime preset's wire
    /// name. A struct update keeps its base's label unless it sets one.
    pub name: &'static str,
    /// `log2` of the ring dimension `N`.
    pub log_n: u32,
    /// Ciphertext RNS limbs `L`.
    pub limbs: usize,
    /// Bits per ciphertext prime.
    pub limb_bits: u32,
    /// Bits of the bootstrap auxiliary prime `p` (Algorithm 2's rescale
    /// prime).
    pub aux_bits: u32,
    /// Bits of the key-switching special prime.
    pub special_bits: u32,
    /// `log2` of the fresh encoding scale `Delta`.
    pub scale_bits: u32,
    /// TFHE LWE mask dimension `n_t`.
    pub n_t: usize,
    /// LWE key-switch gadget: bits per digit.
    pub ks_base_bits: u32,
    /// LWE key-switch gadget: digits.
    pub ks_digits: usize,
    /// RGSW gadget of the blind-rotation keys: bits per digit.
    pub rgsw_base_bits: u32,
    /// RGSW gadget: digits per RNS limb (the software's `d`; the paper's
    /// `d = 2` counts digits of the whole modulus).
    pub rgsw_digits: usize,
}

impl ParamSet {
    /// The paper's set (§III-C): `N = 2^13`, six 36-bit limbs
    /// (`log Q = 216`), 36-bit auxiliary and special primes,
    /// `Delta = 2^36`, `n_t = 500`, and gadgets of 3 × 12 and 2 × 18 bits.
    pub const PAPER: Self = Self {
        name: "paper",
        log_n: 13,
        limbs: 6,
        limb_bits: 36,
        aux_bits: 36,
        special_bits: 36,
        scale_bits: 36,
        n_t: 500,
        ks_base_bits: 12,
        ks_digits: 3,
        rgsw_base_bits: 18,
        rgsw_digits: 2,
    };

    /// `N = 2^11`, four of the paper's 36-bit limbs and its gadgets at
    /// `n_t = 32`: the same code paths, ~30x faster key generation.
    pub const MEDIUM: Self = Self {
        name: "medium",
        log_n: 11,
        limbs: 4,
        n_t: 32,
        ..Self::PAPER
    };

    /// `N = 2^10`, three 30-bit limbs, `Delta = 2^30`, `n_t = 32`, and
    /// gadgets of 5 × 6 and 2 × 15 bits.
    pub const SMALL: Self = Self {
        name: "small",
        log_n: 10,
        limbs: 3,
        limb_bits: 30,
        aux_bits: 30,
        special_bits: 30,
        scale_bits: 30,
        ks_base_bits: 6,
        ks_digits: 5,
        rgsw_base_bits: 15,
        rgsw_digits: 2,
        ..Self::MEDIUM
    };

    /// `N = 2^7`, three 28-bit limbs, `Delta = 2^28`, and the rest of
    /// [`Self::SMALL`]: fast enough for *fully packed* bootstrap tests;
    /// cryptographically toy-sized.
    pub const TINY: Self = Self {
        name: "tiny",
        log_n: 7,
        limb_bits: 28,
        aux_bits: 28,
        special_bits: 28,
        scale_bits: 28,
        ..Self::SMALL
    };

    /// Every listed set, largest first.
    pub const ALL: [Self; 4] = [Self::PAPER, Self::MEDIUM, Self::SMALL, Self::TINY];

    /// Ring dimension `N`.
    #[inline]
    pub const fn n(&self) -> usize {
        1 << self.log_n
    }

    /// The prime chain in RNS order: `limbs` ciphertext primes, then the
    /// auxiliary prime at index `limbs`, then the special prime at
    /// `limbs + 1`. Each is an NTT prime for `N`, searched downward from
    /// `2^bits` past every prime before it in the chain.
    pub fn chain(&self) -> Vec<u64> {
        let n = self.n() as u64;
        let mut chain = ntt_primes(n, self.limb_bits, self.limbs);
        for bits in [self.aux_bits, self.special_bits] {
            let next = ntt_primes_excluding(n, bits, 1, &chain);
            chain.extend_from_slice(&next);
        }
        chain
    }
}
