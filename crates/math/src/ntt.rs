//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! HEAP's most heavily optimized datapath (paper §IV-D): radix-2
//! Cooley–Tukey butterflies executed by 512 modular units, with coefficients
//! grouped per twiddle factor so that the address generation simplifies to
//! `address = i_g + i_nc * 2^cs` and twiddles can optionally be generated on
//! the fly when on-chip memory is scarce.
//!
//! The hot path ([`NttTable::forward`] / [`NttTable::inverse`]) is the
//! signed-lazy radix-4 transform on `f64` lanes ([`crate::simd`]): no
//! butterfly output is normalised, and one reduction per coefficient lands
//! on the canonical residue — the software analogue of the lazy reduction
//! HEAP applies in its modular MAC datapath (§IV-A). It is exact for every
//! table [`NttTable::new`] builds, which is why that constructor refuses a
//! ring below 16 points or a modulus past the lanes' growth bound. One
//! strict, eagerly-normalizing loop is kept for the parity suites, with its
//! twiddle either read from the table or generated on the fly (the paper's
//! §IV-D switch); it is reached through the hidden `crate::oracle` module.
//! Both compute the same bijection — bit-identically, since every output
//! is fully normalized.

use crate::arith::{Modulus, ShoupMul};
use crate::mac::LazyCoeff;
use crate::prime::primitive_root;

/// Precomputed NTT context for one `(N, q)` pair.
///
/// # Examples
///
/// ```
/// use heap_math::arith::Modulus;
/// use heap_math::ntt::NttTable;
/// use heap_math::prime::ntt_primes;
///
/// let n = 1usize << 10;
/// let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
/// let ntt = NttTable::new(n, q);
/// let mut a: Vec<u64> = (0..n as u64).collect();
/// let orig = a.clone();
/// ntt.forward(&mut a);
/// ntt.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    log_n: u32,
    modulus: Modulus,
    /// psi^brv(i) in Shoup form (psi = primitive 2N-th root of unity).
    psi_br: Vec<ShoupMul>,
    /// psi^{-brv(i)} in Shoup form.
    ipsi_br: Vec<ShoupMul>,
    /// `psi_br` operands as doubles, for the `f64`-lane forward kernel.
    psi_f64: Vec<f64>,
    /// `ipsi_br` operands as doubles, for the `f64`-lane inverse kernel.
    ipsi_f64: Vec<f64>,
    /// N^{-1} mod q in Shoup form.
    n_inv: ShoupMul,
    /// Raw primitive 2N-th root (for on-the-fly generation).
    psi: u64,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds the table for ring dimension `n` (power of two, at least 16)
    /// and prime modulus `q ≡ 1 (mod 2n)` inside the `f64` lanes' growth
    /// bound, `(4 + log2 n)·q ≤ 2^50` — every modulus of 45 bits or fewer
    /// up to `n = 2^16`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 16, if `q` is past
    /// the growth bound, or if `q - 1` is not divisible by `2n`.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(
            n.is_power_of_two() && n >= 16,
            "n must be a power of two >= 16"
        );
        let q = modulus.value();
        assert!(
            crate::simd::f64_ntt_ok(n, q, 4 * q),
            "q = {q} is past the f64 lanes' bound for n = {n}: (4 + log2 n)·q must be at most 2^50"
        );
        let log_n = n.trailing_zeros();
        let psi = primitive_root(&modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi).expect("psi nonzero");
        let mut pow = vec![0u64; n];
        let mut ipow = vec![0u64; n];
        pow[0] = 1;
        ipow[0] = 1;
        for i in 1..n {
            pow[i] = modulus.mul(pow[i - 1], psi);
            ipow[i] = modulus.mul(ipow[i - 1], psi_inv);
        }
        let mut psi_br = Vec::with_capacity(n);
        let mut ipsi_br = Vec::with_capacity(n);
        for i in 0..n {
            let j = bit_reverse(i, log_n);
            psi_br.push(ShoupMul::new(pow[j], &modulus));
            ipsi_br.push(ShoupMul::new(ipow[j], &modulus));
        }
        let n_inv = ShoupMul::new(modulus.inv(n as u64).expect("n < q"), &modulus);
        let psi_f64 = psi_br.iter().map(|s| s.operand as f64).collect();
        let ipsi_f64 = ipsi_br.iter().map(|s| s.operand as f64).collect();
        Self {
            n,
            log_n,
            modulus,
            psi_br,
            ipsi_br,
            psi_f64,
            ipsi_f64,
            n_inv,
            psi,
        }
    }

    /// Ring dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus this table transforms over.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive `2N`-th root of unity used by this table.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain),
    /// with *lazy reduction*: lazy residues in `[0, 4q)` in, canonical
    /// residues out, no normalisation per butterfly in between — the
    /// software analogue of the "lazy reduction" HEAP applies in its MAC
    /// datapath (§IV-A). Untimed: a transform takes half a microsecond on
    /// small rings, so latency is recorded per pipeline stage
    /// (`heap-core`'s `StageMetrics`), not per call.
    ///
    /// Runs the signed-lazy radix-4 `f64`-lane kernel at the process's
    /// width ([`crate::simd`]), bit-identical to the strict loop.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        crate::simd::ntt_forward(a, &self.psi_f64, self.modulus.value());
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// the Gentleman–Sande counterpart of [`Self::forward`]: lazy residues
    /// in `[0, 2q)` in — the range every kernel accepts — canonical residues
    /// out. Runs the signed-lazy radix-4 `f64`-lane kernel, bit-identical
    /// to the strict loop.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        crate::simd::ntt_inverse(a, &self.ipsi_f64, q, self.n_inv.operand);
    }

    /// [`Self::inverse`] of `limb` fused with the balanced signed digit
    /// chain of a `base_bits` gadget, in `f64` lanes: digit `k` of
    /// coefficient `i` lands in `out[k·n + i]`, and `work` is the
    /// transform's buffer.
    pub(crate) fn inverse_digits(
        &self,
        limb: &[u64],
        work: &mut [u64],
        base_bits: u32,
        out: &mut [i32],
    ) {
        let qn = (self.modulus.value(), self.n_inv.operand);
        crate::simd::inverse_digits(limb, work, &self.ipsi_f64, qn, base_bits, out);
    }

    /// Strict forward NTT: every butterfly eagerly normalizes into
    /// `[0, q)` (Shoup multiply with correction, add/sub with conditional
    /// subtraction). At stage `cs` the `2^cs` groups each share one
    /// twiddle and their operands sit at `address = i_g + i_nc · 2^cs`
    /// (§IV-D's grouped schedule); `on_the_fly` regenerates each group's
    /// twiddle from the raw root instead of reading the table — the paper's
    /// "control signal" between the two sources.
    ///
    /// The oracle for the `f64`-lane kernels; no production path runs it.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub(crate) fn forward_strict(&self, a: &mut [u64], on_the_fly: bool) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = &self.modulus;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let s = if on_the_fly {
                    let e = bit_reverse(m + i, self.log_n);
                    ShoupMul::new(q.pow(self.psi, e as u64), q)
                } else {
                    self.psi_br[m + i]
                };
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = s.mul(a[j + t], q);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// Strict inverse NTT (see [`Self::forward_strict`]), table twiddles.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub(crate) fn inverse_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = &self.modulus;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let s = self.ipsi_br[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = s.mul(q.sub(u, v), q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            *x = self.n_inv.mul(*x, q);
        }
    }

    /// [`crate::MacAcc::mac_tile`]'s transform under this table's
    /// twiddles: `digit` into `operand`, signed-lazy and left in `f64`.
    pub(crate) fn forward_f64<T: LazyCoeff>(&self, digit: &[T], operand: &mut [f64]) {
        crate::simd::forward_f64(digit, &self.psi_f64, self.modulus.value(), operand);
    }

    /// Pointwise (Hadamard) product of two evaluation-domain vectors into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    pub fn pointwise(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == self.n && b.len() == self.n && out.len() == self.n);
        for i in 0..self.n {
            out[i] = self.modulus.mul(a[i], b[i]);
        }
    }

    /// Fused pointwise multiply-accumulate: `acc[i] += a[i]*b[i] mod q`.
    ///
    /// This is the software form of HEAP's external-product MAC units.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    pub fn pointwise_acc(&self, a: &[u64], b: &[u64], acc: &mut [u64]) {
        assert!(a.len() == self.n && b.len() == self.n && acc.len() == self.n);
        for i in 0..self.n {
            acc[i] = self.modulus.mul_add(a[i], b[i], acc[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn table(log_n: u32) -> NttTable {
        let n = 1usize << log_n;
        let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
        NttTable::new(n, q)
    }

    #[test]
    fn roundtrip_various_sizes() {
        for log_n in [4u32, 5, 8, 11] {
            let t = table(log_n);
            let n = t.n();
            let mut a: Vec<u64> = (0..n as u64).map(|i| i * i + 7).collect();
            for x in a.iter_mut() {
                *x %= t.modulus().value();
            }
            let orig = a.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "transform should not be identity");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn both_twiddle_sources_match_standard() {
        let t = table(8);
        let n = t.n();
        let base: Vec<u64> = (0..n as u64)
            .map(|i| (i * 31 + 5) % t.modulus().value())
            .collect();
        let mut standard = base.clone();
        t.forward(&mut standard);
        for on_the_fly in [false, true] {
            let mut strict = base.clone();
            t.forward_strict(&mut strict, on_the_fly);
            assert_eq!(strict, standard, "on_the_fly = {on_the_fly}");
        }
    }

    #[test]
    fn lazy_kernels_match_strict() {
        for log_n in [4u32, 5, 6, 9] {
            let t = table(log_n);
            let n = t.n();
            let q = t.modulus().value();
            for base in [
                (0..n as u64).map(|i| (i * 97 + 13) % q).collect::<Vec<_>>(),
                vec![q - 1; n],
            ] {
                let mut strict = base.clone();
                t.forward_strict(&mut strict, false);
                let mut hot = base.clone();
                t.forward(&mut hot);
                assert_eq!(hot, strict, "forward, log_n = {log_n}");
                let mut strict = base.clone();
                t.inverse_strict(&mut strict);
                let mut hot = base.clone();
                t.inverse(&mut hot);
                assert_eq!(hot, strict, "inverse, log_n = {log_n}");
            }
        }
    }

    #[test]
    fn pointwise_is_negacyclic_convolution() {
        let t = table(5);
        let n = t.n();
        let q = *t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % q.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (7 * i + 2) % q.value()).collect();
        let expect = crate::oracle::negacyclic_convolution(&a, &b, &q);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut prod = vec![0u64; n];
        t.pointwise(&fa, &fb, &mut prod);
        t.inverse(&mut prod);
        assert_eq!(prod, expect);
    }

    #[test]
    fn x_pow_n_is_minus_one() {
        // Multiplying X^(n-1) by X must wrap to -1 * X^0.
        let t = table(4);
        let n = t.n();
        let q = *t.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let got = crate::oracle::negacyclic_convolution(&a, &b, &q);
        let mut expect = vec![0u64; n];
        expect[0] = q.value() - 1;
        assert_eq!(got, expect);
    }

    #[test]
    fn pointwise_acc_accumulates() {
        let t = table(4);
        let n = t.n();
        let a = vec![2u64; n];
        let b = vec![3u64; n];
        let mut acc = vec![1u64; n];
        t.pointwise_acc(&a, &b, &mut acc);
        assert!(acc.iter().all(|&x| x == 7));
    }

    #[test]
    fn forward_is_evaluation_at_odd_root_powers() {
        // NTT(a)[brv-order] corresponds to evaluations a(psi^(2j+1)); check
        // one specific point for a small ring.
        let t = table(4);
        let n = t.n();
        let q = *t.modulus();
        let a: Vec<u64> = (1..=n as u64).collect();
        let mut f = a.clone();
        t.forward(&mut f);
        // Evaluate a at psi^1 manually.
        let psi = t.psi();
        let mut eval = 0u64;
        for (i, &c) in a.iter().enumerate() {
            eval = q.add(eval, q.mul(c, q.pow(psi, i as u64)));
        }
        assert!(f.contains(&eval), "forward output must contain a(psi)");
    }
}
