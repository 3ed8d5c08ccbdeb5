//! LWE ciphertexts and their supporting operations.
//!
//! The TFHE side of the scheme switch works on plain LWE samples
//! `(a⃗, b) ∈ Z_q^{n+1}` with `b = -<a⃗, s> + e + m` (paper Eq. 1). This
//! module provides encryption/decryption (for tests and key generation),
//! the `ModulusSwitch` to `2N` that precedes blind rotation, and the
//! dimension-reducing LWE→LWE key switch (ring dimension `N` down to the
//! TFHE mask `n_t ≈ 500`, §II-B) that makes blind rotation affordable.

use rand::Rng;

use heap_math::arith::Modulus;
use heap_math::{sample, Gadget};

/// An LWE ciphertext `(a⃗, b)` over a single word-sized modulus.
///
/// The modulus is carried alongside the data so ciphertexts at different
/// moduli (pre/post `ModulusSwitch`) cannot be mixed up silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// Mask coefficients `a⃗`.
    pub a: Vec<u64>,
    /// Body `b`.
    pub b: u64,
    /// Modulus `q` the sample lives under.
    pub modulus: u64,
}

impl LweCiphertext {
    /// Dimension of the mask.
    #[inline]
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Checks a sample's `(modulus, dimension)` against `want`, the shape
    /// of the key it is for, naming the first field that differs. The
    /// batch decoder runs it on each member header before unpacking, and
    /// in-process callers on samples they were handed.
    pub fn check_shape(modulus: u64, dim: usize, want: (u64, usize)) -> Result<(), &'static str> {
        if modulus != want.0 {
            return Err("LWE modulus does not match the key");
        }
        if dim != want.1 {
            return Err("LWE dimension does not match the key");
        }
        Ok(())
    }

    /// The trivial (noiseless, keyless) encryption of `m`.
    pub fn trivial(m: u64, dim: usize, modulus: u64) -> Self {
        Self {
            a: vec![0; dim],
            b: m % modulus,
            modulus,
        }
    }

    /// `ModulusSwitch`: rescales every element from `q` to `new_modulus`
    /// with rounding (paper §II-B; cheap because `2N` is a power of two).
    pub fn modulus_switch(&self, new_modulus: u64) -> LweCiphertext {
        let switch = |x: u64| -> u64 {
            // round(new * x / old), exact in u128.
            let num = (x as u128) * (new_modulus as u128) + (self.modulus as u128) / 2;
            ((num / (self.modulus as u128)) as u64) % new_modulus
        };
        LweCiphertext {
            a: self.a.iter().map(|&x| switch(x)).collect(),
            b: switch(self.b),
            modulus: new_modulus,
        }
    }
}

/// An LWE secret key (ternary by default, matching the non-sparse keys used
/// throughout the paper).
#[derive(Debug, Clone)]
pub struct LweSecretKey {
    coeffs: Vec<i64>,
}

impl LweSecretKey {
    /// Samples a ternary secret of dimension `n`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        Self {
            coeffs: sample::ternary_secret(rng, n),
        }
    }

    /// Wraps existing signed coefficients (used to alias the ring secret).
    pub fn from_coeffs(coeffs: Vec<i64>) -> Self {
        Self { coeffs }
    }

    /// The signed coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Encrypts `m` (already scaled into `Z_q`) with fresh Gaussian noise.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: u64, q: &Modulus, rng: &mut R) -> LweCiphertext {
        let n = self.coeffs.len();
        let a = sample::uniform_poly(rng, n, q.value());
        let e = sample::gaussian(rng);
        let mut acc = q.from_i64(e);
        acc = q.add(acc, q.reduce_u64(m));
        // b = -<a, s> + e + m
        let mut dot = 0u64;
        for (ai, &si) in a.iter().zip(&self.coeffs) {
            let s_red = q.from_i64(si);
            dot = q.mul_add(*ai, s_red, dot);
        }
        let b = q.sub(acc, dot);
        LweCiphertext {
            a,
            b,
            modulus: q.value(),
        }
    }

    /// Decrypts to the raw phase `b + <a⃗, s> mod q` (noise included).
    pub fn phase(&self, ct: &LweCiphertext, q: &Modulus) -> u64 {
        assert_eq!(ct.dim(), self.coeffs.len(), "dimension mismatch");
        assert_eq!(ct.modulus, q.value(), "modulus mismatch");
        let mut dot = 0u64;
        for (ai, &si) in ct.a.iter().zip(&self.coeffs) {
            dot = q.mul_add(q.reduce_u64(*ai), q.from_i64(si), dot);
        }
        q.add(q.reduce_u64(ct.b), dot)
    }
}

/// LWE→LWE key-switching key: switches dimension-`N` samples (extracted
/// from ring ciphertexts) down to the blind-rotation mask dimension `n_t`.
///
/// Layout: row `j·d + k` encrypts `s_j · B^k` under the target secret — `N ·
/// d` LWE ciphertexts, exactly the shape the paper states for the
/// key-switching key (§II-B). The rows are stored flat, each as its mask
/// followed by its body (`n_t + 1` words), so the switch is one contiguous
/// multiply-add per nonzero digit.
#[derive(Debug, Clone)]
pub struct LweKeySwitchKey {
    rows: Vec<u64>,
    gadget: Gadget,
    source_dim: usize,
    target_dim: usize,
    /// Terms one exact sum of `digit × entry` holds before the switch folds
    /// it back to a residue ([`Self::fold_interval`]).
    fold_every: usize,
    /// Whether the sums need `i128` words: two terms overflow `i64`.
    wide: bool,
}

/// An exact accumulator word for [`LweKeySwitchKey::switch`].
trait SumWord: Copy + Default + From<i64> + std::ops::AddAssign + std::ops::Mul<Output = Self> {
    /// The canonical residue of the sum modulo `q`.
    fn residue(self, q: u64) -> u64;
}

impl SumWord for i64 {
    fn residue(self, q: u64) -> u64 {
        self.rem_euclid(q as i64) as u64
    }
}

impl SumWord for i128 {
    fn residue(self, q: u64) -> u64 {
        self.rem_euclid(i128::from(q)) as u64
    }
}

impl LweKeySwitchKey {
    /// Generates a switching key from `from` (dimension `N`) to `to`
    /// (dimension `n_t`) over modulus `q` with `digits` digits of
    /// `base_bits` bits.
    pub fn generate<R: Rng + ?Sized>(
        from: &LweSecretKey,
        to: &LweSecretKey,
        q: &Modulus,
        base_bits: u32,
        digits: usize,
        rng: &mut R,
    ) -> Self {
        let gadget = Gadget::new(base_bits, digits, *q);
        let mut rows = Vec::with_capacity(from.dim() * digits * (to.dim() + 1));
        for &sj in from.coeffs() {
            for &bk in gadget.powers() {
                let ct = to.encrypt(q.mul(q.from_i64(sj), bk), q, rng);
                rows.extend_from_slice(&ct.a);
                rows.push(ct.b);
            }
        }
        Self::from_parts(rows, q, base_bits, digits, to.dim())
    }

    /// Rebuilds a key from its flat rows (wire decoding); the source
    /// dimension is what the rows add up to.
    pub(crate) fn from_parts(
        rows: Vec<u64>,
        q: &Modulus,
        base_bits: u32,
        digits: usize,
        target_dim: usize,
    ) -> Self {
        let gadget = Gadget::new(base_bits, digits, *q);
        // The largest term: a balanced digit `|d| ≤ B/2` times an entry
        // below `q`. A folded sum carries one term's worth of residue.
        let term = u128::from(gadget.base() / 2) * u128::from(q.value() - 1);
        let fits = |max: u128| (max / term.max(1)).min(usize::MAX as u128) as usize;
        let wide = fits(i64::MAX as u128) < 2;
        let word_max = if wide {
            i128::MAX as u128
        } else {
            i64::MAX as u128
        };
        let stride = (target_dim + 1) * digits;
        assert!(
            stride > 0 && rows.len().is_multiple_of(stride),
            "key rows mismatch"
        );
        Self {
            source_dim: rows.len() / stride,
            rows,
            gadget,
            target_dim,
            fold_every: fits(word_max),
            wide,
        }
    }

    /// The stored rows, `N · d` of them, each mask then body (wire
    /// encoding).
    #[inline]
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.rows.chunks_exact(self.target_dim + 1)
    }

    /// Mutable rows (seed-reseeding transform).
    #[inline]
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, u64> {
        self.rows.chunks_exact_mut(self.target_dim + 1)
    }

    /// Bits per gadget digit.
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.gadget.base().trailing_zeros()
    }

    /// Gadget digit count `d`.
    #[inline]
    pub fn digits(&self) -> usize {
        self.gadget.digits()
    }

    /// Source dimension `N`.
    #[inline]
    pub fn source_dim(&self) -> usize {
        self.source_dim
    }

    /// Target dimension `n_t`.
    #[inline]
    pub fn target_dim(&self) -> usize {
        self.target_dim
    }

    /// Total ciphertexts stored (`N · d`), as reported in the paper's key
    /// sizing.
    pub fn ciphertext_count(&self) -> usize {
        self.source_dim * self.gadget.digits()
    }

    /// How many `digit × entry` terms a sum holds before the switch folds
    /// it back to a residue: `⌊(2^63 − 1) / ((B/2)·(q − 1))⌋` in `i64`,
    /// fixed when the key is built. Every preset's `N·d` stays below it, so
    /// its switch never folds; a gadget for which two terms overflow `i64`
    /// sums in `i128` (and reports its interval there).
    pub(crate) fn fold_interval(&self) -> usize {
        self.fold_every
    }

    fn modulus(&self) -> u64 {
        self.gadget.modulus().value()
    }

    /// Switches an LWE ciphertext to the target dimension: every nonzero
    /// digit `d` of `a_j` adds `d ×` row `(j, k)` to one exact integer sum
    /// per output word, folded back to a residue only every
    /// `⌊(2^63 − 1) / ((B/2)·(q − 1))⌋` terms (fixed when the key is built;
    /// never, on every preset), and each output is reduced once.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension or modulus disagrees with the key.
    pub fn switch(&self, ct: &LweCiphertext, q: &Modulus) -> LweCiphertext {
        assert_eq!(ct.dim(), self.source_dim, "dimension mismatch");
        assert_eq!(ct.modulus, q.value(), "modulus mismatch");
        assert_eq!(q.value(), self.modulus(), "modulus mismatch");
        if self.wide {
            self.switch_in::<i128>(ct)
        } else {
            self.switch_in::<i64>(ct)
        }
    }

    fn switch_in<W: SumWord>(&self, ct: &LweCiphertext) -> LweCiphertext {
        let q = self.modulus();
        let width = self.target_dim + 1;
        // Mask sums, then the body: the switched encryptions of `s_j·B^k`
        // are *added* (phase convention `b + <a, s>`).
        let mut sum = vec![W::default(); width];
        sum[self.target_dim] = W::from((ct.b % q) as i64);
        let mut digits = vec![0i64; self.gadget.digits()];
        // The body's residue counts as one term.
        let mut terms = 1;
        for (&aj, rows) in
            ct.a.iter()
                .zip(self.rows.chunks_exact(width * digits.len()))
        {
            self.gadget
                .decompose_scalar_signed_into(aj % q, &mut digits);
            for (&d, row) in digits.iter().zip(rows.chunks_exact(width)) {
                if d == 0 {
                    continue;
                }
                if terms == self.fold_every {
                    for s in &mut sum {
                        *s = W::from(s.residue(q) as i64);
                    }
                    terms = 1;
                }
                let d = W::from(d);
                for (s, &r) in sum.iter_mut().zip(row) {
                    *s += d * W::from(r as i64);
                }
                terms += 1;
            }
        }
        let mut a: Vec<u64> = sum.iter().map(|s| s.residue(q)).collect();
        let b = a.pop().expect("the body word");
        LweCiphertext { a, b, modulus: q }
    }
}

/// Centered distance between two residues mod `q` (test / noise helper).
pub fn centered_distance(x: u64, y: u64, q: u64) -> u64 {
    let d = (x + q - y) % q;
    d.min(q - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_math::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q30() -> Modulus {
        Modulus::new(ntt_primes(1 << 10, 30, 1)[0]).unwrap()
    }

    #[test]
    fn encrypt_decrypt_phase() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = LweSecretKey::generate(&mut rng, 64);
        let m = q.value() / 4;
        let ct = sk.encrypt(m, &q, &mut rng);
        let got = sk.phase(&ct, &q);
        assert!(centered_distance(got, m, q.value()) < 64, "noise too large");
    }

    #[test]
    fn trivial_has_exact_phase() {
        let q = q30();
        let sk = LweSecretKey::generate(&mut StdRng::seed_from_u64(2), 16);
        let ct = LweCiphertext::trivial(12345, 16, q.value());
        assert_eq!(sk.phase(&ct, &q), 12345);
    }

    #[test]
    fn modulus_switch_preserves_phase_scaled() {
        let q = q30();
        let two_n = 2048u64;
        let mut rng = StdRng::seed_from_u64(3);
        let sk = LweSecretKey::generate(&mut rng, 128);
        // message at a coarse position so the switch keeps it identifiable
        let m = (q.value() / 8) * 3;
        let ct = sk.encrypt(m, &q, &mut rng);
        let switched = ct.modulus_switch(two_n);
        assert_eq!(switched.modulus, two_n);
        // phase mod 2N
        let mut dot: i128 = switched.b as i128;
        for (a, &s) in switched.a.iter().zip(sk.coeffs()) {
            dot += (*a as i128) * (s as i128);
        }
        let got = dot.rem_euclid(two_n as i128) as u64;
        let want = ((m as u128 * two_n as u128 + q.value() as u128 / 2) / q.value() as u128) as u64
            % two_n;
        assert!(
            centered_distance(got, want, two_n) <= 8,
            "got {got}, want {want}"
        );
    }

    #[test]
    fn key_switch_changes_dimension_keeps_message() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(4);
        let big = LweSecretKey::generate(&mut rng, 256);
        let small = LweSecretKey::generate(&mut rng, 64);
        let ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
        assert_eq!(ksk.ciphertext_count(), 256 * 5);
        let m = q.value() / 2;
        let ct = big.encrypt(m, &q, &mut rng);
        let switched = ksk.switch(&ct, &q);
        assert_eq!(switched.dim(), 64);
        let got = small.phase(&switched, &q);
        assert!(
            centered_distance(got, m, q.value()) < q.value() / 1024,
            "keyswitch noise too large: {}",
            centered_distance(got, m, q.value())
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn key_switch_rejects_wrong_dim() {
        let q = q30();
        let mut rng = StdRng::seed_from_u64(5);
        let big = LweSecretKey::generate(&mut rng, 32);
        let small = LweSecretKey::generate(&mut rng, 16);
        let ksk = LweKeySwitchKey::generate(&big, &small, &q, 6, 5, &mut rng);
        let ct = LweCiphertext::trivial(0, 31, q.value());
        ksk.switch(&ct, &q);
    }
}
