//! CKKS parameters: a validated [`ParamSet`].
//!
//! HEAP's headline configuration (paper §III-C) is `N = 2^13`,
//! `log Q = 216` split into six 36-bit RNS limbs, scale `Delta ≈ 2^36` — a
//! set only usable because the scheme-switched bootstrap consumes a single
//! limb. Smaller presets with identical code paths keep the test suite
//! fast. Every number lives in `heap_math`'s [`ParamSet`] list.

use heap_math::ParamSet;

/// Validated CKKS parameters.
///
/// Construct via [`CkksParams::new`] on a [`ParamSet`] (a listed one, or a
/// struct update on one) or a preset. The ciphertext modulus is
/// `Q = prod q_i` over `limbs` primes of `limb_bits` bits; key switching
/// uses one extra special prime of `special_bits` bits. Every prime is at
/// most [`CkksParams::MAX_PRIME_BITS`] wide.
///
/// # Examples
///
/// ```
/// use heap_ckks::params::CkksParams;
/// use heap_math::ParamSet;
///
/// let p = CkksParams::heap_paper();
/// assert_eq!(p.n(), 8192);
/// assert_eq!(p.limbs, 6);
/// assert_eq!(p.log_q(), 216);
/// let wide = CkksParams::new(ParamSet { limbs: 6, ..ParamSet::SMALL }).unwrap();
/// assert_eq!(wide.log_q(), 180);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkksParams {
    set: ParamSet,
}

/// Error from [`CkksParams::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// `log_n` outside the supported `[4, 16]` range.
    BadRingDimension(u32),
    /// Fewer than 2 or more than 40 limbs requested.
    BadLimbCount(usize),
    /// Limb, auxiliary or special prime size outside `[20, 45]` bits.
    BadPrimeSize(u32),
    /// Scale must fit within one limb (`scale_bits <= limb_bits`).
    ScaleTooLarge { scale_bits: u32, limb_bits: u32 },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::BadRingDimension(l) => write!(f, "log_n {l} outside [4, 16]"),
            ParamsError::BadLimbCount(l) => write!(f, "limb count {l} outside [2, 40]"),
            ParamsError::BadPrimeSize(b) => write!(
                f,
                "prime size {b} outside [20, {}] bits",
                CkksParams::MAX_PRIME_BITS
            ),
            ParamsError::ScaleTooLarge {
                scale_bits,
                limb_bits,
            } => write!(f, "scale 2^{scale_bits} exceeds limb size 2^{limb_bits}"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl CkksParams {
    /// The widest prime [`Self::new`] accepts. Every table it leads to is
    /// inside the `f64` lanes' bounds: `(4 + log2 N)·q ≤ 20·2^45 < 2^50`
    /// for the NTT at `N ≤ 2^16`, and the key switch's chains — at most 41
    /// terms, one per limb of the raised basis, on digits below `2^45` —
    /// stay inside theirs (`heap_math::MacAcc::admits`).
    pub const MAX_PRIME_BITS: u32 = 45;

    /// Validates the CKKS half of `set`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first violated constraint.
    pub fn new(set: ParamSet) -> Result<Self, ParamsError> {
        if !(4..=16).contains(&set.log_n) {
            return Err(ParamsError::BadRingDimension(set.log_n));
        }
        if !(2..=40).contains(&set.limbs) {
            return Err(ParamsError::BadLimbCount(set.limbs));
        }
        for bits in [set.limb_bits, set.aux_bits, set.special_bits] {
            if !(20..=Self::MAX_PRIME_BITS).contains(&bits) {
                return Err(ParamsError::BadPrimeSize(bits));
            }
        }
        if set.scale_bits > set.limb_bits {
            return Err(ParamsError::ScaleTooLarge {
                scale_bits: set.scale_bits,
                limb_bits: set.limb_bits,
            });
        }
        Ok(Self { set })
    }

    fn listed(set: ParamSet) -> Self {
        Self::new(set).expect("listed sets are valid")
    }

    /// [`ParamSet::PAPER`].
    pub fn heap_paper() -> Self {
        Self::listed(ParamSet::PAPER)
    }

    /// [`ParamSet::MEDIUM`].
    pub fn test_medium() -> Self {
        Self::listed(ParamSet::MEDIUM)
    }

    /// [`ParamSet::SMALL`].
    pub fn test_small() -> Self {
        Self::listed(ParamSet::SMALL)
    }

    /// [`ParamSet::TINY`].
    pub fn test_tiny() -> Self {
        Self::listed(ParamSet::TINY)
    }

    /// Number of slots `N/2`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Total ciphertext modulus bits `log Q = limbs * limb_bits`.
    #[inline]
    pub fn log_q(&self) -> u32 {
        self.limbs as u32 * self.limb_bits
    }

    /// Fresh encoding scale `Delta = 2^scale_bits`.
    #[inline]
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }
}

/// The validated set's numbers, read as fields (`params.limbs`) and
/// methods (`params.n()`, `params.chain()`).
impl std::ops::Deref for CkksParams {
    type Target = ParamSet;

    #[inline]
    fn deref(&self) -> &ParamSet {
        &self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_3c() {
        let p = CkksParams::heap_paper();
        assert_eq!(p.n(), 8192);
        assert_eq!(p.slots(), 4096);
        assert_eq!(p.log_q(), 216);
        assert_eq!(p.limbs, 6);
        assert_eq!(p.scale(), 2f64.powi(36));
    }

    #[test]
    fn new_validates() {
        let base = ParamSet::PAPER;
        assert!(matches!(
            CkksParams::new(ParamSet { log_n: 2, ..base }),
            Err(ParamsError::BadRingDimension(2))
        ));
        assert!(matches!(
            CkksParams::new(ParamSet { limbs: 1, ..base }),
            Err(ParamsError::BadLimbCount(1))
        ));
        assert!(matches!(
            CkksParams::new(ParamSet {
                limb_bits: 10,
                ..base
            }),
            Err(ParamsError::BadPrimeSize(10))
        ));
        assert!(matches!(
            CkksParams::new(ParamSet {
                scale_bits: 40,
                limb_bits: 36,
                ..base
            }),
            Err(ParamsError::ScaleTooLarge { .. })
        ));
    }

    /// 45-bit limb, auxiliary and special primes build, at the largest
    /// ring and limb count [`CkksParams::new`] takes; 46-bit ones are
    /// refused.
    #[test]
    fn primes_are_capped_at_45_bits() {
        let build = |limb_bits: u32, aux_bits: u32, special_bits: u32| {
            CkksParams::new(ParamSet {
                log_n: 16,
                limbs: 40,
                limb_bits,
                aux_bits,
                special_bits,
                scale_bits: limb_bits.min(36),
                ..ParamSet::PAPER
            })
        };
        assert!(build(45, 45, 45).is_ok());
        for bits in [(46, 45, 45), (45, 46, 45), (45, 45, 46)] {
            assert_eq!(
                build(bits.0, bits.1, bits.2),
                Err(ParamsError::BadPrimeSize(46)),
                "{bits:?}"
            );
        }
    }

    #[test]
    fn presets_build() {
        CkksParams::test_medium();
        CkksParams::test_small();
    }
}
