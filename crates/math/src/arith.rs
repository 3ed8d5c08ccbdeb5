//! Scalar modular arithmetic over word-sized prime moduli.
//!
//! HEAP's functional units are built around 36-bit RNS limbs so that 36-bit
//! modular multipliers map to FPGA DSP blocks (paper §IV-A). On a CPU we keep
//! the same abstraction — a [`Modulus`] bundles a prime `q < 2^62` with the
//! precomputed Barrett constant, and every scalar operation (add, sub, mul,
//! pow, inverse) reduces eagerly, mirroring the accelerator's
//! modular-arithmetic units.
//!
//! The paper combines integer multiplication with Barrett reduction so the
//! reduction starts as soon as partial products are ready; the CPU analogue
//! is a single `u128` widening multiply followed by the two Barrett
//! corrections, which is what [`Modulus::mul`] does.

/// A word-sized prime modulus with precomputed Barrett reduction constants.
///
/// Supports any odd prime `2 < q < 2^62`. All operations are branch-light and
/// constant-trip-count, matching the fixed 7-cycle latency of HEAP's modular
/// units (the *count* of operations is what the [`crate::ntt`] cycle-model
/// hooks consume; see `heap-hw` for the time model).
///
/// # Examples
///
/// ```
/// use heap_math::arith::Modulus;
///
/// let q = Modulus::new(0x0000_000F_FFFC_4001).unwrap(); // 36-bit NTT prime
/// let a = q.reduce_u64(1 << 40);
/// assert_eq!(q.mul(a, q.inv(a).unwrap()), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// floor(2^128 / q), stored as (hi, lo) 64-bit halves.
    barrett_hi: u64,
    barrett_lo: u64,
}

/// Error returned when constructing a [`Modulus`] from an unsupported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModulusError {
    /// The value was zero, one, or two (too small to be an odd prime modulus).
    TooSmall,
    /// The value exceeded the supported `2^62` bound.
    TooLarge,
    /// The value was even (all supported moduli are odd primes).
    Even,
}

impl std::fmt::Display for ModulusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModulusError::TooSmall => write!(f, "modulus must be at least 3"),
            ModulusError::TooLarge => write!(f, "modulus must be below 2^62"),
            ModulusError::Even => write!(f, "modulus must be odd"),
        }
    }
}

impl std::error::Error for ModulusError {}

impl Modulus {
    /// Maximum supported modulus (exclusive bound), `2^62`.
    pub const MAX: u64 = 1 << 62;

    /// Creates a modulus from an odd value `3 <= q < 2^62`.
    ///
    /// Primality is *not* checked here (the NTT prime generator in
    /// [`crate::prime`] guarantees it); use [`crate::prime::is_prime`] when
    /// accepting untrusted values.
    ///
    /// # Errors
    ///
    /// Returns a [`ModulusError`] if `q` is even, below 3, or at least
    /// `2^62`.
    pub fn new(q: u64) -> Result<Self, ModulusError> {
        if q < 3 {
            return Err(ModulusError::TooSmall);
        }
        if q >= Self::MAX {
            return Err(ModulusError::TooLarge);
        }
        if q.is_multiple_of(2) {
            return Err(ModulusError::Even);
        }
        // Compute floor(2^128 / q) via two long divisions.
        let hi = u64::MAX / q; // floor((2^64-1)/q) == floor(2^64/q) since q odd > 1 does not divide 2^64
        let rem = u64::MAX % q;
        // Remaining numerator: (rem+1) * 2^64; divide by q.
        let num = ((rem as u128) + 1) << 64;
        let lo = (num / (q as u128)) as u64;
        Ok(Self {
            q,
            barrett_hi: hi,
            barrett_lo: lo,
        })
    }

    /// The raw modulus value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of bits in the modulus (`ceil(log2(q))`).
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary `u64` modulo `q`.
    #[inline]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        if x < self.q {
            x
        } else {
            x % self.q
        }
    }

    /// Reduces an arbitrary `u128` modulo `q` using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Barrett: est = floor(x * floor(2^128/q) / 2^128); r = x - est*q.
        // Splitting the 128x128 -> 256-bit product; we only need the top 128.
        let xl = x as u64 as u128;
        let xh = (x >> 64) as u64 as u128;
        let bl = self.barrett_lo as u128;
        let bh = self.barrett_hi as u128;
        // (xh*2^64 + xl) * (bh*2^64 + bl) >> 128
        let ll = xl * bl;
        let lh = xl * bh;
        let hl = xh * bl;
        let hh = xh * bh;
        let mid = (ll >> 64) + (lh as u64 as u128) + (hl as u64 as u128);
        let est = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
        let mut r = x.wrapping_sub(est.wrapping_mul(self.q as u128)) as u64;
        // Barrett error is at most 2q.
        if r >= self.q {
            r -= self.q;
        }
        if r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular addition of two already-reduced operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of two already-reduced operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of an already-reduced operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication (Barrett reduction after a widening multiply).
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128((a as u128) * (b as u128))
    }

    /// Fused multiply-add: `a*b + c mod q`, reduced once (lazy reduction, as
    /// in HEAP's MAC units).
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q && c < self.q);
        self.reduce_u128((a as u128) * (b as u128) + (c as u128))
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce_u64(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (requires `q` prime).
    ///
    /// Returns `None` for a zero input.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce_u64(a);
        if a == 0 {
            None
        } else {
            Some(self.pow(a, self.q - 2))
        }
    }

    /// Converts a signed integer to its least non-negative residue.
    #[inline]
    pub fn from_i64(&self, x: i64) -> u64 {
        let r = x.rem_euclid(self.q as i64);
        r as u64
    }

    /// Converts a residue to its balanced (signed, magnitude `<= q/2`)
    /// representative.
    #[inline]
    pub fn to_signed(&self, x: u64) -> i64 {
        debug_assert!(x < self.q);
        if x > self.q / 2 {
            x as i64 - self.q as i64
        } else {
            x as i64
        }
    }
}

/// A multiplier with a precomputed Shoup constant for repeated products by
/// the same operand (e.g. NTT twiddle factors).
///
/// Shoup multiplication trades one extra precomputed word for a cheaper
/// runtime product — the software analogue of HEAP baking twiddle constants
/// into its fine-grained-pipelined butterfly units.
///
/// # Examples
///
/// ```
/// use heap_math::arith::{Modulus, ShoupMul};
///
/// let q = Modulus::new(0x0000_000F_FFFC_4001).unwrap();
/// let w = ShoupMul::new(12345, &q);
/// assert_eq!(w.mul(678, &q), q.mul(12345, 678));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The constant operand.
    pub operand: u64,
    /// `floor(operand * 2^64 / q)`.
    pub quotient: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup quotient for `operand` modulo `q`.
    ///
    /// The operand is reduced first: an unreduced operand would silently
    /// precompute a garbage quotient (the `[0, 2q)` bound of
    /// [`Self::mul_lazy`] only holds for canonical operands).
    #[inline]
    pub fn new(operand: u64, q: &Modulus) -> Self {
        let operand = q.reduce_u64(operand);
        let quotient = (((operand as u128) << 64) / (q.value() as u128)) as u64;
        Self { operand, quotient }
    }

    /// Computes `self.operand * x mod q` with a single correction step.
    #[inline]
    pub fn mul(&self, x: u64, q: &Modulus) -> u64 {
        let qv = q.value();
        let r = self.mul_lazy(x, qv);
        if r >= qv {
            r - qv
        } else {
            r
        }
    }

    /// Computes `self.operand * x mod q` *without* the final correction:
    /// the result is a representative in `[0, 2q)`.
    ///
    /// Unlike [`Self::mul`], `x` may be **any** `u64`, not only a reduced
    /// residue: with `hi = floor(quotient * x / 2^64)` the difference
    /// `operand*x - hi*q` always lies in `[0, 2q)` because
    /// `quotient = floor(operand * 2^64 / q)` under-approximates the true
    /// ratio by less than one. This is the building block of the Harvey
    /// lazy-reduction butterflies ([`crate::ntt::NttTable::forward_lazy`] /
    /// [`crate::ntt::NttTable::inverse_lazy`]), where operands ride in
    /// `[0, 4q)` between stages (`q < 2^62` keeps `4q` inside a `u64`).
    #[inline]
    pub fn mul_lazy(&self, x: u64, q_value: u64) -> u64 {
        let hi = (((self.quotient as u128) * (x as u128)) >> 64) as u64;
        self.operand
            .wrapping_mul(x)
            .wrapping_sub(hi.wrapping_mul(q_value))
    }
}

/// Centered (balanced) remainder of `x` modulo `m`, in `(-m/2, m/2]`.
#[inline]
pub fn center_rem(x: i128, m: u64) -> i64 {
    let m = m as i128;
    let mut r = x.rem_euclid(m);
    if r > m / 2 {
        r -= m;
    }
    r as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q36: u64 = 0x0000_000F_FFFC_4001; // 36-bit NTT-friendly prime
    const Q60: u64 = (1u64 << 60) - 93; // 60-bit prime

    #[test]
    fn modulus_rejects_bad_values() {
        assert_eq!(Modulus::new(0), Err(ModulusError::TooSmall));
        assert_eq!(Modulus::new(2), Err(ModulusError::TooSmall));
        assert_eq!(Modulus::new(10), Err(ModulusError::Even));
        assert_eq!(Modulus::new(1 << 62), Err(ModulusError::TooLarge));
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(Q36).unwrap();
        let a = 123_456_789_012u64 % Q36;
        let b = 987_654_321_098u64 % Q36;
        assert_eq!(q.sub(q.add(a, b), b), a);
        assert_eq!(q.add(a, q.neg(a)), 0);
        assert_eq!(q.neg(0), 0);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let q = Modulus::new(Q60).unwrap();
        let mut x = 0x1234_5678_9abc_def0u64 % Q60;
        let mut y = 0x0fed_cba9_8765_4321u64 % Q60;
        for _ in 0..1000 {
            let expect = (((x as u128) * (y as u128)) % (Q60 as u128)) as u64;
            assert_eq!(q.mul(x, y), expect);
            x = q.add(q.mul(x, 3), 1);
            y = q.add(q.mul(y, 5), 7);
        }
    }

    #[test]
    fn reduce_u128_extremes() {
        let q = Modulus::new(Q36).unwrap();
        assert_eq!(q.reduce_u128(0), 0);
        assert_eq!(q.reduce_u128(Q36 as u128), 0);
        let big = u128::MAX;
        assert_eq!(q.reduce_u128(big), (big % (Q36 as u128)) as u64);
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new(Q36).unwrap();
        assert_eq!(q.pow(2, 35), 1u64 << 35);
        assert_eq!(q.pow(7, 0), 1);
        let a = 987_654_321u64;
        let ai = q.inv(a).unwrap();
        assert_eq!(q.mul(a, ai), 1);
        assert_eq!(q.inv(0), None);
    }

    #[test]
    fn mul_add_is_lazy_fused() {
        let q = Modulus::new(Q60).unwrap();
        let (a, b, c) = (Q60 - 1, Q60 - 2, Q60 - 3);
        assert_eq!(q.mul_add(a, b, c), q.add(q.mul(a, b), c));
    }

    #[test]
    fn shoup_matches_barrett() {
        let q = Modulus::new(Q36).unwrap();
        let w = ShoupMul::new(0xdead_beefu64 % Q36, &q);
        for x in [0u64, 1, Q36 - 1, 12345, 1 << 35] {
            assert_eq!(w.mul(x, &q), q.mul(w.operand, x));
        }
    }

    #[test]
    fn shoup_lazy_stays_below_two_q() {
        // mul_lazy accepts *any* u64 operand (not just reduced residues)
        // and must land in [0, 2q) congruent to the exact product.
        for qv in [Q36, Q60] {
            let q = Modulus::new(qv).unwrap();
            let w = ShoupMul::new(0x1234_5678u64 % qv, &q);
            for x in [0u64, 1, qv - 1, 2 * qv - 1, 4 * qv - 1, u64::MAX] {
                let r = w.mul_lazy(x, qv);
                assert!(r < 2 * qv, "lazy result {r} out of [0, 2q) for x={x}");
                let expect = ((w.operand as u128 * x as u128) % qv as u128) as u64;
                assert_eq!(r % qv, expect);
            }
        }
    }

    #[test]
    fn signed_conversions() {
        let q = Modulus::new(Q36).unwrap();
        assert_eq!(q.from_i64(-1), Q36 - 1);
        assert_eq!(q.to_signed(Q36 - 1), -1);
        assert_eq!(q.to_signed(1), 1);
        assert_eq!(center_rem(-1, 8), -1);
        assert_eq!(center_rem(5, 8), -3);
        assert_eq!(center_rem(4, 8), 4);
    }
}
