//! Randomness for key generation and encryption.
//!
//! The paper uses non-sparse (uniform ternary) secrets — sparse keys are
//! avoided for security (§II) — and a narrow discrete Gaussian for
//! encryption noise. All samplers take an explicit [`rand::Rng`] so key
//! generation can be made deterministic in tests and benches.

use rand::Rng;

/// Standard deviation of the encryption-noise Gaussian used across the
/// repository (the conventional HE default).
pub const NOISE_STD_DEV: f64 = 3.2;

/// Samples a uniform polynomial with coefficients in `[0, q)`.
pub fn uniform_poly<R: Rng + ?Sized>(rng: &mut R, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

/// Samples a uniform ternary secret with coefficients in `{-1, 0, 1}`.
///
/// This is the non-sparse key distribution the paper mandates (no hamming
/// weight restriction).
pub fn ternary_secret<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1i64..=1)).collect()
}

/// Samples one rounded Gaussian with standard deviation [`NOISE_STD_DEV`].
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> i64 {
    gaussian_with(rng, NOISE_STD_DEV)
}

/// Samples one rounded Gaussian with the given standard deviation via
/// Box–Muller.
pub fn gaussian_with<R: Rng + ?Sized>(rng: &mut R, std_dev: f64) -> i64 {
    // Box–Muller; u1 in (0,1] to avoid log(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let mag = std_dev * (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()).round() as i64
}

/// Samples an error polynomial of rounded Gaussians with the default width.
pub fn gaussian_poly<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| gaussian(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_in_range_and_well_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = 97u64;
        let p = uniform_poly(&mut rng, 10_000, q);
        assert!(p.iter().all(|&x| x < q));
        let mean = p.iter().sum::<u64>() as f64 / p.len() as f64;
        assert!((mean - 48.0).abs() < 3.0, "mean {mean} suspicious");
    }

    #[test]
    fn ternary_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = ternary_secret(&mut rng, 3000);
        assert!(s.iter().all(|&x| (-1..=1).contains(&x)));
        for v in [-1i64, 0, 1] {
            let c = s.iter().filter(|&&x| x == v).count();
            assert!(c > 800, "value {v} count {c} too skewed");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<i64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<i64>() as f64 / xs.len() as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!(
            (var.sqrt() - NOISE_STD_DEV).abs() < 0.25,
            "std {}",
            var.sqrt()
        );
        assert!(xs.iter().all(|&x| x.abs() < 40), "tail too heavy");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = gaussian_poly(&mut StdRng::seed_from_u64(7), 64);
        let b = gaussian_poly(&mut StdRng::seed_from_u64(7), 64);
        assert_eq!(a, b);
    }
}
