//! CKKS canonical-embedding encoder.
//!
//! A CKKS plaintext packs `n = N/2` complex "slots" into one real polynomial
//! of degree `N-1` by evaluating at the primitive `2N`-th roots of unity
//! `zeta^{5^k}` (paper §II-A). Messages are scaled by `Delta` before
//! rounding to integer coefficients to preserve precision.
//!
//! Two DFT paths are provided: a direct `O(n^2)` evaluation used as the
//! specification, and the `O(n log n)` "special FFT" over the `<5>` orbit
//! that production CKKS libraries use. Unit tests assert they agree; the
//! fast path is the default.

use crate::complex::Complex64;

/// Encoder/decoder between complex slot vectors and integer coefficient
/// vectors.
///
/// # Examples
///
/// ```
/// use heap_ckks::encoding::Encoder;
///
/// let enc = Encoder::new(1 << 6); // N = 64, 32 slots
/// let msg: Vec<f64> = (0..32).map(|i| i as f64 / 10.0).collect();
/// let coeffs = enc.encode_real(&msg, 2f64.powi(30));
/// let back = enc.decode_real(&coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(), 2f64.powi(30));
/// for (a, b) in msg.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    slots: usize,
    /// zeta^i for i in 0..2N, zeta = exp(i*pi/N).
    roots: Vec<Complex64>,
    /// 5^k mod 2N for k in 0..n (the slot evaluation orbit).
    rot_group: Vec<usize>,
}

impl Encoder {
    /// Creates an encoder for ring dimension `n` (power of two, at least 4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is below 4.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "ring dimension must be a power of two >= 4"
        );
        let slots = n / 2;
        let m = 2 * n;
        let roots = (0..m)
            .map(|i| Complex64::from_angle(2.0 * std::f64::consts::PI * i as f64 / m as f64))
            .collect();
        let mut rot_group = Vec::with_capacity(slots);
        let mut g = 1usize;
        for _ in 0..slots {
            rot_group.push(g);
            g = (g * 5) % m;
        }
        Self {
            n,
            slots,
            roots,
            rot_group,
        }
    }

    /// Ring dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of complex slots (`N/2`).
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Encodes complex slots into scaled integer coefficients.
    ///
    /// Input shorter than [`Self::slots`] is zero-padded (sparse packing).
    ///
    /// # Panics
    ///
    /// Panics if more than `slots` values are supplied.
    pub fn encode(&self, values: &[Complex64], scale: f64) -> Vec<i64> {
        assert!(values.len() <= self.slots, "too many slots");
        let mut v = vec![Complex64::zero(); self.slots];
        v[..values.len()].copy_from_slice(values);
        self.special_ifft(&mut v);
        let mut coeffs = vec![0i64; self.n];
        for j in 0..self.slots {
            coeffs[j] = (v[j].re * scale).round() as i64;
            coeffs[j + self.slots] = (v[j].im * scale).round() as i64;
        }
        coeffs
    }

    /// Encodes real slots (imaginary parts zero).
    pub fn encode_real(&self, values: &[f64], scale: f64) -> Vec<i64> {
        let v: Vec<Complex64> = values.iter().map(|&x| Complex64::from(x)).collect();
        self.encode(&v, scale)
    }

    /// Decodes centered coefficient values back into complex slots.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != self.n()`.
    pub fn decode(&self, coeffs: &[f64], scale: f64) -> Vec<Complex64> {
        assert_eq!(coeffs.len(), self.n);
        let mut v: Vec<Complex64> = (0..self.slots)
            .map(|j| Complex64::new(coeffs[j] / scale, coeffs[j + self.slots] / scale))
            .collect();
        self.special_fft(&mut v);
        v
    }

    /// Decodes into real parts only.
    pub fn decode_real(&self, coeffs: &[f64], scale: f64) -> Vec<f64> {
        self.decode(coeffs, scale).iter().map(|z| z.re).collect()
    }

    /// In-place `O(n log n)` special FFT over the `<5>` orbit (decode
    /// direction).
    pub fn special_fft(&self, v: &mut [Complex64]) {
        let size = self.slots;
        assert_eq!(v.len(), size);
        bit_reverse_permute(v);
        let m = 2 * self.n;
        let mut len = 2usize;
        while len <= size {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..size).step_by(len) {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * (m / lenq);
                    let u = v[i + j];
                    let w = v[i + j + lenh] * self.roots[idx];
                    v[i + j] = u + w;
                    v[i + j + lenh] = u - w;
                }
            }
            len <<= 1;
        }
    }

    /// In-place `O(n log n)` inverse special FFT (encode direction).
    pub fn special_ifft(&self, v: &mut [Complex64]) {
        let size = self.slots;
        assert_eq!(v.len(), size);
        let m = 2 * self.n;
        let mut len = size;
        while len >= 2 {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..size).step_by(len) {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * (m / lenq);
                    let u = v[i + j] + v[i + j + lenh];
                    let w = (v[i + j] - v[i + j + lenh]) * self.roots[idx % m];
                    v[i + j] = u;
                    v[i + j + lenh] = w;
                }
            }
            len >>= 1;
        }
        bit_reverse_permute(v);
        let inv = 1.0 / size as f64;
        for x in v.iter_mut() {
            *x = x.scale(inv);
        }
    }
}

fn bit_reverse_permute<T>(v: &mut [T]) {
    let n = v.len();
    if n <= 2 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct `O(n^2)` special DFT, the oracle for the fast one:
    /// `out[k] = sum_j v[j] * zeta^{5^k * j}`.
    fn special_dft_direct(enc: &Encoder, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), enc.slots);
        let m = 2 * enc.n;
        (0..enc.slots)
            .map(|k| {
                let g = enc.rot_group[k];
                let mut acc = Complex64::zero();
                for (j, &x) in v.iter().enumerate() {
                    acc += x * enc.roots[(g * j) % m];
                }
                acc
            })
            .collect()
    }

    /// Direct `O(n^2)` inverse special DFT.
    fn special_idft_direct(enc: &Encoder, z: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(z.len(), enc.slots);
        let m = 2 * enc.n;
        (0..enc.slots)
            .map(|j| {
                let mut acc = Complex64::zero();
                for (k, &x) in z.iter().enumerate() {
                    let g = enc.rot_group[k];
                    acc += x * enc.roots[(g * j) % m].conj();
                }
                acc.scale(1.0 / enc.slots as f64)
            })
            .collect()
    }

    fn random_slots(n: usize, seed: u64) -> Vec<Complex64> {
        // Simple deterministic LCG; avoids pulling rand into this module.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                Complex64::new(re, im)
            })
            .collect()
    }

    #[test]
    fn fast_fft_matches_direct() {
        for log_n in [2u32, 3, 5, 7] {
            let enc = Encoder::new(1 << log_n);
            let v = random_slots(enc.slots(), 42 + log_n as u64);
            let direct = special_dft_direct(&enc, &v);
            let mut fast = v.clone();
            enc.special_fft(&mut fast);
            for (a, b) in direct.iter().zip(&fast) {
                assert!((*a - *b).abs() < 1e-9, "log_n={log_n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fast_ifft_matches_direct() {
        for log_n in [2u32, 4, 6] {
            let enc = Encoder::new(1 << log_n);
            let z = random_slots(enc.slots(), 7 + log_n as u64);
            let direct = special_idft_direct(&enc, &z);
            let mut fast = z.clone();
            enc.special_ifft(&mut fast);
            for (a, b) in direct.iter().zip(&fast) {
                assert!((*a - *b).abs() < 1e-9, "log_n={log_n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let enc = Encoder::new(1 << 8);
        let v = random_slots(enc.slots(), 99);
        let mut w = v.clone();
        enc.special_fft(&mut w);
        enc.special_ifft(&mut w);
        for (a, b) in v.iter().zip(&w) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = Encoder::new(1 << 8);
        let v = random_slots(enc.slots(), 5);
        let scale = 2f64.powi(40);
        let coeffs = enc.encode(&v, scale);
        let fc: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        let back = enc.decode(&fc, scale);
        for (a, b) in v.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_packing_zero_pads() {
        let enc = Encoder::new(1 << 6);
        let scale = 2f64.powi(30);
        let coeffs = enc.encode_real(&[1.0, 2.0], scale);
        let fc: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        let back = enc.decode_real(&fc, scale);
        assert!((back[0] - 1.0).abs() < 1e-6);
        assert!((back[1] - 2.0).abs() < 1e-6);
        for z in &back[2..] {
            assert!(z.abs() < 1e-6);
        }
    }

    #[test]
    fn slot_multiplication_is_negacyclic_poly_multiplication() {
        // Multiplying slot-wise corresponds to polynomial multiplication in
        // the ring; verify through the direct embedding.
        let enc = Encoder::new(1 << 4);
        let n = enc.n();
        let a = random_slots(enc.slots(), 1);
        let b = random_slots(enc.slots(), 2);
        let scale = 2f64.powi(26);
        let ca = enc.encode(&a, scale);
        let cb = enc.encode(&b, scale);
        // negacyclic product over integers
        let mut prod = vec![0f64; n];
        for i in 0..n {
            for j in 0..n {
                let p = ca[i] as f64 * cb[j] as f64;
                if i + j < n {
                    prod[i + j] += p;
                } else {
                    prod[i + j - n] -= p;
                }
            }
        }
        let back = enc.decode(&prod, scale * scale);
        for ((x, y), z) in a.iter().zip(&b).zip(&back) {
            assert!((*x * *y - *z).abs() < 1e-5, "{} vs {z}", *x * *y);
        }
    }
}
