//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! HEAP's most heavily optimized datapath (paper §IV-D): radix-2
//! Cooley–Tukey butterflies executed by 512 modular units, with coefficients
//! grouped per twiddle factor so that the address generation simplifies to
//! `address = i_g + i_nc * 2^cs` and twiddles can optionally be generated on
//! the fly when on-chip memory is scarce.
//!
//! The hot path ([`NttTable::forward`] / [`NttTable::inverse`]) uses
//! Harvey-style *lazy reduction*: butterfly operands ride in `[0, 2q)` (and
//! transiently `[0, 4q)`), with a single correction pass at the end — the
//! software analogue of the lazy reduction HEAP applies in its modular MAC
//! datapath (§IV-A). One strict, eagerly-normalizing loop is kept for the
//! parity suites, with its twiddle either read from the table or generated
//! on the fly (the paper's §IV-D switch); it and the scalar lazy kernels
//! are reached through the hidden `crate::oracle` module. Every variant
//! computes the same bijection — bit-identically, since every output is
//! fully normalized.

use crate::arith::{Modulus, ShoupMul};
use crate::mac::{LazyCoeff, RowPair};
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
    /// `ipsi_br` operands, for the `f64`-lane inverse kernel.
    ipsi_ops: Vec<u64>,
    /// N^{-1} mod q in Shoup form.
    n_inv: ShoupMul,
    /// Raw primitive 2N-th root (for on-the-fly generation).
    psi: u64,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds the table for ring dimension `n` (power of two) and prime
    /// modulus `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `q - 1` is not divisible by
    /// `2n`.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
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
        let ipsi_ops = ipsi_br.iter().map(|s| s.operand).collect();
        Self {
            n,
            log_n,
            modulus,
            psi_br,
            ipsi_br,
            psi_f64,
            ipsi_ops,
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
    /// Runs the signed-lazy radix-4 `f64`-lane kernel (AVX2 + FMA, see
    /// [`crate::simd`]) where `n ≥ 16` and its growth bound
    /// `(4 + log2 n)·q ≤ 2^50` hold — every preset's ring; every other ring
    /// and modulus, and every scalar host, runs the scalar lazy kernel.
    /// Both are bit-identical to the strict loop.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        if crate::simd::try_ntt_forward(a, &self.psi_f64, q) {
            return;
        }
        self.forward_lazy_scalar(a);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// the Gentleman–Sande counterpart of [`Self::forward`]: the `f64`-lane
    /// kernel under the same gate, the scalar lazy kernel everywhere else;
    /// both bit-identical to the strict loop.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        if crate::simd::try_ntt_inverse(a, &self.ipsi_ops, q, self.n_inv.operand) {
            return;
        }
        self.inverse_lazy_scalar(a);
    }

    /// Strict forward NTT: every butterfly eagerly normalizes into
    /// `[0, q)` (Shoup multiply with correction, add/sub with conditional
    /// subtraction). At stage `cs` the `2^cs` groups each share one
    /// twiddle and their operands sit at `address = i_g + i_nc · 2^cs`
    /// (§IV-D's grouped schedule); `on_the_fly` regenerates each group's
    /// twiddle from the raw root instead of reading the table — the paper's
    /// "control signal" between the two sources.
    ///
    /// The oracle for the lazy kernels; no production path runs it.
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

    /// [`crate::MacAcc::mac_digit`]'s narrow datapath under this table's
    /// twiddles: `digit` transformed into `operand` and multiplied into
    /// `rows`' slots of `acc`, all in `f64` lanes. Returns `false` when the
    /// kernels do not run right now.
    pub(crate) fn mac_digit_f64<T: LazyCoeff, const K: usize>(
        &self,
        digit: &[T],
        operand: &mut [f64],
        rows: [RowPair<'_>; K],
        acc: &mut [f64],
    ) -> bool {
        let q = self.modulus.value();
        crate::simd::try_mac_digit(digit, &self.psi_f64, q, operand, rows, acc)
    }

    /// The scalar lazy forward kernel, Harvey-style: butterfly operands ride
    /// in `[0, 4q)` and are only normalized once per touch, trading
    /// comparisons for a final correction pass.
    ///
    /// Operand-bound invariant: entering each stage, every slot is
    /// `< 4q`; the upper butterfly input is folded into `[0, 2q)` with one
    /// conditional subtraction, the lower input feeds
    /// [`ShoupMul::mul_lazy`] *unreduced* (valid for any `u64`, result in
    /// `[0, 2q)`), so both outputs are `< 4q` and `q < 2^62` keeps all
    /// intermediates inside a `u64`. The final pass folds `[0, 4q) → [0,
    /// q)` with two conditional subtractions, so outputs are canonical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub(crate) fn forward_lazy_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let s = self.psi_br[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    // Normalize x into [0, 2q) lazily.
                    let mut x = a[j];
                    if x >= two_q {
                        x -= two_q;
                    }
                    // Shoup product without the final correction: [0, 2q).
                    let v = s.mul_lazy(a[j + t], q);
                    a[j] = x + v; // < 4q
                    a[j + t] = x + two_q - v; // < 4q
                }
            }
            m <<= 1;
        }
        for x in a.iter_mut() {
            if *x >= two_q {
                *x -= two_q;
            }
            if *x >= q {
                *x -= q;
            }
        }
    }

    /// The scalar lazy inverse kernel.
    ///
    /// Operand-bound invariant: every slot stays in `[0, 2q)` across
    /// stages. The butterfly sum `u + v < 4q` is folded back into
    /// `[0, 2q)` with one conditional subtraction; the difference is
    /// computed as `u + 2q - v ∈ (0, 4q)` (no underflow) and fed to
    /// [`ShoupMul::mul_lazy`], landing in `[0, 2q)`. The final `N^{-1}`
    /// pass uses the lazy Shoup product plus one correction, so outputs
    /// are canonical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub(crate) fn inverse_lazy_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        let two_q = 2 * q;
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
                    let mut w = u + v; // < 4q
                    if w >= two_q {
                        w -= two_q;
                    }
                    a[j] = w;
                    a[j + t] = s.mul_lazy(u + two_q - v, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            let mut r = self.n_inv.mul_lazy(*x, q);
            if r >= q {
                r -= q;
            }
            *x = r;
        }
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

    /// Lazy pointwise multiply-accumulate into `u128` accumulators:
    /// `acc[i] += a[i] * b[i]` with **no per-term modular reduction** —
    /// the software form of HEAP's lazy-reduction MAC units (§IV-A), and
    /// [`crate::MacAcc`]'s wide path. Reduce once at the end with
    /// [`Self::reduce_acc_into`].
    ///
    /// Bound argument: operands are reduced residues, so each product is
    /// `< q^2 < 2^124` (`q < 2^62`). The accumulator is kept `< 2^127` by
    /// folding with a full Barrett reduction whenever a term would push it
    /// past `2^127` — so `acc + product < 2^127 + 2^124 < 2^128` never
    /// overflows. For the 36-bit limbs the parameter sets use, the fold
    /// branch is unreachable before ~`2^55` accumulated terms; an external
    /// product accumulates `2 · limbs · digits` terms (20 on the Medium
    /// preset, 28 at the paper's parameters). The fold point
    /// depends only on operand values, never on timing, so results are
    /// deterministic and the final reduced value is bit-identical to the
    /// eager [`Self::pointwise_acc`] chain.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    pub(crate) fn pointwise_mac_lazy(&self, a: &[u64], b: &[u64], acc: &mut [u128]) {
        assert!(
            a.len() == self.n && b.len() == self.n && acc.len() == self.n,
            "length mismatch"
        );
        for i in 0..self.n {
            let mut s = acc[i] + (a[i] as u128) * (b[i] as u128);
            if s >> 127 != 0 {
                s = self.modulus.reduce_u128(s) as u128;
            }
            acc[i] = s;
        }
    }

    /// Reduces `u128` lazy accumulators (built by
    /// [`Self::pointwise_mac_lazy`]) to canonical residues in `out` —
    /// the single deferred reduction per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    pub(crate) fn reduce_acc_into(&self, acc: &[u128], out: &mut [u64]) {
        assert!(
            acc.len() == self.n && out.len() == self.n,
            "length mismatch"
        );
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = self.modulus.reduce_u128(a);
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
        for log_n in [1u32, 2, 4, 8, 11] {
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
        for log_n in [2u32, 3, 4, 6, 9] {
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
    fn lazy_mac_matches_eager_chain() {
        let t = table(5);
        let n = t.n();
        let q = *t.modulus();
        let rows: Vec<(Vec<u64>, Vec<u64>)> = (0..6u64)
            .map(|r| {
                (
                    (0..n as u64)
                        .map(|i| (i * 13 + r * 7 + 1) % q.value())
                        .collect(),
                    (0..n as u64)
                        .map(|i| (i * 29 + r * 3 + 2) % q.value())
                        .collect(),
                )
            })
            .collect();
        let mut eager = vec![0u64; n];
        for (a, b) in &rows {
            t.pointwise_acc(a, b, &mut eager);
        }
        let mut acc = vec![0u128; n];
        for (a, b) in &rows {
            t.pointwise_mac_lazy(a, b, &mut acc);
        }
        let mut lazy = vec![0u64; n];
        t.reduce_acc_into(&acc, &mut lazy);
        assert_eq!(lazy, eager);
    }

    #[test]
    fn lazy_mac_fold_keeps_residue() {
        // Force the 2^127 overflow-guard fold with a near-maximal modulus
        // and check the residue is still exact.
        let n = 2usize;
        let q = Modulus::new(ntt_primes(n as u64, 61, 1)[0]).unwrap();
        let t = NttTable::new(n, q);
        let a = vec![q.value() - 1; n];
        let b = vec![q.value() - 1; n];
        let mut acc = vec![0u128; n];
        let mut expect = vec![0u64; n];
        // Each product is ~2^122; nine terms exceed 2^125... keep going
        // until the fold branch must have fired (>= 33 terms > 2^127).
        for _ in 0..40 {
            t.pointwise_mac_lazy(&a, &b, &mut acc);
            t.pointwise_acc(&a, &b, &mut expect);
        }
        let mut got = vec![0u64; n];
        t.reduce_acc_into(&acc, &mut got);
        assert_eq!(got, expect);
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
        let t = table(3);
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
