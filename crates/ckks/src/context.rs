//! Shared CKKS context: prime chain, NTT tables, and the encoder.

use heap_math::{Modulus, RnsContext};

use crate::encoding::Encoder;
use crate::params::CkksParams;

/// All precomputation shared by CKKS operations: the RNS prime chain
/// (ciphertext primes followed by the key-switching special prime), per-limb
/// NTT tables, and the canonical-embedding encoder.
///
/// Operations are exposed as methods in [`crate::ops`]; the context itself
/// is cheap to share by reference and is `Send + Sync`.
///
/// # Examples
///
/// ```
/// use heap_ckks::{CkksContext, CkksParams};
///
/// let ctx = CkksContext::new(CkksParams::test_small());
/// assert_eq!(ctx.n(), 1 << 10);
/// assert_eq!(ctx.max_limbs(), 3);
/// ```
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    encoder: Encoder,
    rns: RnsContext,
}

impl CkksContext {
    /// Builds the context over the set's prime chain
    /// ([`heap_math::ParamSet::chain`]: ciphertext primes, the auxiliary
    /// prime `p` of Algorithm 2, the key-switching special prime `P`).
    pub fn new(params: CkksParams) -> Self {
        let rns = RnsContext::new(params.n(), &params.chain());
        let encoder = Encoder::new(params.n());
        Self {
            params,
            encoder,
            rns,
        }
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The encoder for this ring dimension.
    #[inline]
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The underlying RNS context (ciphertext primes then special prime).
    #[inline]
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// Ring dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Slot count `N/2`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.params.slots()
    }

    /// Number of ciphertext limbs `L` (excludes the special prime).
    #[inline]
    pub fn max_limbs(&self) -> usize {
        self.params.limbs
    }

    /// Index of the special prime in the RNS chain.
    #[inline]
    pub fn special_idx(&self) -> usize {
        self.params.limbs + 1
    }

    /// Index of the bootstrap auxiliary prime in the RNS chain.
    #[inline]
    pub fn aux_idx(&self) -> usize {
        self.params.limbs
    }

    /// The auxiliary prime's modulus (Algorithm 2's `p`).
    #[inline]
    pub fn aux_modulus(&self) -> &Modulus {
        self.rns.modulus(self.aux_idx())
    }

    /// Limb count of the raised bootstrap basis `Q·p` (`L + 1`).
    #[inline]
    pub fn boot_limbs(&self) -> usize {
        self.params.limbs + 1
    }

    /// The special prime's modulus.
    #[inline]
    pub fn special_modulus(&self) -> &Modulus {
        self.rns.modulus(self.special_idx())
    }

    /// Ciphertext prime `q_i`.
    #[inline]
    pub fn q_modulus(&self, i: usize) -> &Modulus {
        assert!(i < self.max_limbs(), "q index out of range");
        self.rns.modulus(i)
    }

    /// Fresh encoding scale.
    #[inline]
    pub fn fresh_scale(&self) -> f64 {
        self.params.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_layout() {
        let ctx = CkksContext::new(CkksParams::test_small());
        assert_eq!(ctx.rns().max_limbs(), 5); // 3 ciphertext + aux + special
        assert_eq!(ctx.aux_idx(), 3);
        assert_eq!(ctx.special_idx(), 4);
        assert_eq!(ctx.boot_limbs(), 4);
        // aux and special primes differ from all ciphertext primes
        for i in 0..3 {
            assert_ne!(ctx.q_modulus(i).value(), ctx.special_modulus().value());
            assert_ne!(ctx.q_modulus(i).value(), ctx.aux_modulus().value());
        }
        assert_ne!(ctx.aux_modulus().value(), ctx.special_modulus().value());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CkksContext>();
    }
}
