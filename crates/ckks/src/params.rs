//! CKKS parameter sets.
//!
//! HEAP's headline configuration (paper §III-C) is `N = 2^13`,
//! `log Q = 216` split into six 36-bit RNS limbs, scale `Delta ≈ 2^36` — a
//! set only usable because the scheme-switched bootstrap consumes a single
//! limb. Smaller presets with identical code paths keep the test suite
//! fast.

/// Validated CKKS parameters.
///
/// Construct via [`CkksParams::builder`] or a preset. The ciphertext modulus
/// is `Q = prod q_i` over `limbs` primes of `limb_bits` bits; key switching
/// uses one extra special prime of `special_bits` bits. Every prime is at
/// most [`CkksParams::MAX_PRIME_BITS`] wide.
///
/// # Examples
///
/// ```
/// use heap_ckks::params::CkksParams;
///
/// let p = CkksParams::heap_paper();
/// assert_eq!(p.n(), 1 << 13);
/// assert_eq!(p.limbs(), 6);
/// assert_eq!(p.log_q(), 216);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkksParams {
    log_n: u32,
    limbs: usize,
    limb_bits: u32,
    aux_bits: u32,
    special_bits: u32,
    scale_bits: u32,
}

/// Error from [`CkksParamsBuilder::build`].
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
    /// The widest prime the builder accepts. Every table it leads to is
    /// inside the `f64` lanes' bounds: `(4 + log2 N)·q ≤ 20·2^45 < 2^50`
    /// for the NTT at `N ≤ 2^16`, and the key switch's chains — at most 41
    /// terms, one per limb of the raised basis, on digits below `2^45` —
    /// stay inside theirs (`heap_math::MacAcc::admits`).
    pub const MAX_PRIME_BITS: u32 = 45;

    /// Starts a builder with HEAP-like defaults (36-bit limbs, scale
    /// `2^36`).
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::default()
    }

    /// The paper's parameter set: `N = 2^13`, six 36-bit limbs
    /// (`log Q = 216`), 36-bit special prime, `Delta = 2^36` (§III-C).
    pub fn heap_paper() -> Self {
        Self::builder()
            .log_n(13)
            .limbs(6)
            .limb_bits(36)
            .scale_bits(36)
            .build()
            .expect("preset is valid")
    }

    /// Medium test preset: `N = 2^11`, 4 limbs — same code paths, ~30x
    /// faster key generation than the paper set.
    pub fn test_medium() -> Self {
        Self::builder()
            .log_n(11)
            .limbs(4)
            .limb_bits(36)
            .scale_bits(36)
            .build()
            .expect("preset is valid")
    }

    /// Small test preset: `N = 2^10`, 3 limbs of 30 bits.
    pub fn test_small() -> Self {
        Self::builder()
            .log_n(10)
            .limbs(3)
            .limb_bits(30)
            .aux_bits(30)
            .special_bits(30)
            .scale_bits(30)
            .build()
            .expect("preset is valid")
    }

    /// Tiny preset (`N = 2^7`): fast enough for *fully packed* bootstrap
    /// tests on a laptop; cryptographically toy-sized.
    pub fn test_tiny() -> Self {
        Self::builder()
            .log_n(7)
            .limbs(3)
            .limb_bits(28)
            .aux_bits(28)
            .special_bits(28)
            .scale_bits(28)
            .build()
            .expect("preset is valid")
    }

    /// Ring dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        1usize << self.log_n
    }

    /// `log2(N)`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Number of slots `N/2`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Number of ciphertext RNS limbs `L`.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Bits per ciphertext limb.
    #[inline]
    pub fn limb_bits(&self) -> u32 {
        self.limb_bits
    }

    /// Bits of the key-switching special prime.
    #[inline]
    pub fn special_bits(&self) -> u32 {
        self.special_bits
    }

    /// Bits of the bootstrap auxiliary prime `p` (Algorithm 2's rescale
    /// prime).
    #[inline]
    pub fn aux_bits(&self) -> u32 {
        self.aux_bits
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

    /// `log2(Delta)`.
    #[inline]
    pub fn scale_bits(&self) -> u32 {
        self.scale_bits
    }
}

/// Builder for [`CkksParams`].
#[derive(Debug, Clone)]
pub struct CkksParamsBuilder {
    log_n: u32,
    limbs: usize,
    limb_bits: u32,
    aux_bits: u32,
    special_bits: u32,
    scale_bits: u32,
}

impl Default for CkksParamsBuilder {
    fn default() -> Self {
        Self {
            log_n: 13,
            limbs: 6,
            limb_bits: 36,
            aux_bits: 36,
            special_bits: 36,
            scale_bits: 36,
        }
    }
}

impl CkksParamsBuilder {
    /// Sets `log2` of the ring dimension.
    pub fn log_n(&mut self, v: u32) -> &mut Self {
        self.log_n = v;
        self
    }

    /// Sets the number of ciphertext limbs.
    pub fn limbs(&mut self, v: usize) -> &mut Self {
        self.limbs = v;
        self
    }

    /// Sets the bit width of each ciphertext limb.
    pub fn limb_bits(&mut self, v: u32) -> &mut Self {
        self.limb_bits = v;
        self
    }

    /// Sets the bit width of the key-switching special prime.
    pub fn special_bits(&mut self, v: u32) -> &mut Self {
        self.special_bits = v;
        self
    }

    /// Sets the bit width of the bootstrap auxiliary prime.
    pub fn aux_bits(&mut self, v: u32) -> &mut Self {
        self.aux_bits = v;
        self
    }

    /// Sets `log2` of the encoding scale.
    pub fn scale_bits(&mut self, v: u32) -> &mut Self {
        self.scale_bits = v;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first violated constraint.
    pub fn build(&self) -> Result<CkksParams, ParamsError> {
        if !(4..=16).contains(&self.log_n) {
            return Err(ParamsError::BadRingDimension(self.log_n));
        }
        if !(2..=40).contains(&self.limbs) {
            return Err(ParamsError::BadLimbCount(self.limbs));
        }
        for bits in [self.limb_bits, self.aux_bits, self.special_bits] {
            if !(20..=CkksParams::MAX_PRIME_BITS).contains(&bits) {
                return Err(ParamsError::BadPrimeSize(bits));
            }
        }
        if self.scale_bits > self.limb_bits {
            return Err(ParamsError::ScaleTooLarge {
                scale_bits: self.scale_bits,
                limb_bits: self.limb_bits,
            });
        }
        Ok(CkksParams {
            log_n: self.log_n,
            limbs: self.limbs,
            limb_bits: self.limb_bits,
            aux_bits: self.aux_bits,
            special_bits: self.special_bits,
            scale_bits: self.scale_bits,
        })
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
        assert_eq!(p.limbs(), 6);
        assert_eq!(p.scale(), 2f64.powi(36));
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            CkksParams::builder().log_n(2).build(),
            Err(ParamsError::BadRingDimension(2))
        ));
        assert!(matches!(
            CkksParams::builder().limbs(1).build(),
            Err(ParamsError::BadLimbCount(1))
        ));
        assert!(matches!(
            CkksParams::builder().limb_bits(10).build(),
            Err(ParamsError::BadPrimeSize(10))
        ));
        assert!(matches!(
            CkksParams::builder().scale_bits(40).limb_bits(36).build(),
            Err(ParamsError::ScaleTooLarge { .. })
        ));
    }

    /// 45-bit limb, auxiliary and special primes build, at the largest
    /// ring and limb count the builder takes; 46-bit ones are refused.
    #[test]
    fn primes_are_capped_at_45_bits() {
        let build = |limb: u32, aux: u32, special: u32| {
            CkksParams::builder()
                .log_n(16)
                .limbs(40)
                .limb_bits(limb)
                .aux_bits(aux)
                .special_bits(special)
                .scale_bits(limb.min(36))
                .build()
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
