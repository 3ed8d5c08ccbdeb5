//! Homomorphic linear transformations on slots.
//!
//! The conventional CKKS bootstrap's `CoeffToSlot`/`SlotToCoeff` steps are
//! slot-space multiplications by the (inverse) canonical-embedding DFT
//! matrix. This module implements general matrix-vector products via the
//! diagonal method — `M·z = Σ_d diag_d ⊙ rot(z, d)` — with the
//! baby-step/giant-step split the bootstrapping literature uses (paper
//! §VIII credits BSGS with reducing the rotation count; FAB executes
//! exactly these rotation-heavy transforms sequentially). The naive method,
//! one rotation per diagonal, is the split at `bs = slots`.

use crate::ciphertext::Ciphertext;
use crate::complex::Complex64;
use crate::context::CkksContext;
use crate::key::GaloisKeys;

/// A slots×slots complex matrix stored by diagonals:
/// `diag[d][j] = M[j][(j + d) mod slots]`.
#[derive(Debug, Clone)]
pub struct SlotMatrix {
    diagonals: Vec<Vec<Complex64>>,
}

impl SlotMatrix {
    /// Builds from a dense row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        let n = rows.len();
        assert!(rows.iter().all(|r| r.len() == n), "matrix must be square");
        let diagonals = (0..n)
            .map(|d| (0..n).map(|j| rows[j][(j + d) % n]).collect())
            .collect();
        Self { diagonals }
    }

    /// Builds directly from diagonals.
    ///
    /// # Panics
    ///
    /// Panics if diagonal lengths are inconsistent.
    pub fn from_diagonals(diagonals: Vec<Vec<Complex64>>) -> Self {
        let n = diagonals.len();
        assert!(diagonals.iter().all(|d| d.len() == n), "ragged diagonals");
        Self { diagonals }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.diagonals.len()
    }

    /// Diagonal `d`.
    pub fn diagonal(&self, d: usize) -> &[Complex64] {
        &self.diagonals[d]
    }

    /// Plaintext reference: `M · z`.
    pub fn apply_plain(&self, z: &[Complex64]) -> Vec<Complex64> {
        let n = self.dim();
        assert_eq!(z.len(), n);
        (0..n)
            .map(|j| {
                let mut acc = Complex64::zero();
                for d in 0..n {
                    acc += self.diagonals[d][j] * z[(j + d) % n];
                }
                acc
            })
            .collect()
    }

    /// The rotations the BSGS method needs for a `bs × gs` split.
    pub fn rotations_bsgs(&self, bs: usize) -> Vec<i64> {
        let n = self.dim();
        let gs = n.div_ceil(bs);
        let mut rots: Vec<i64> = (1..bs).map(|i| i as i64).collect();
        rots.extend((1..gs).map(|k| (k * bs) as i64));
        rots
    }
}

/// Applies `M` with the baby-step/giant-step split: `bs` inner rotations
/// are shared across `gs` giant steps, so only `bs + gs - 2` distinct
/// rotations are performed instead of `n - 1` (`bs = n` is the naive
/// diagonal method). One rescale at the end: consumes one level.
///
/// Decomposition: `M·z = Σ_k rot^{-kB}( Σ_i diag'_{kB+i} ⊙ rot^{i}(z) )`
/// with the giant rotation folded into the diagonals
/// (`diag'_d = rot^{-kB}(diag_d)`).
///
/// # Panics
///
/// Panics if `bs` is zero or exceeds the dimension, or a rotation key is
/// missing.
pub fn apply_matrix_bsgs(
    ctx: &CkksContext,
    ct: &Ciphertext,
    m: &SlotMatrix,
    bs: usize,
    gks: &GaloisKeys,
) -> Ciphertext {
    let n = ctx.slots();
    assert_eq!(m.dim(), n, "matrix must match slot count");
    assert!(bs >= 1 && bs <= n, "invalid baby-step count");
    let gs = n.div_ceil(bs);
    // Baby rotations computed once.
    let mut rotated = Vec::with_capacity(bs);
    rotated.push(ct.clone());
    for i in 1..bs {
        rotated.push(ctx.rotate(ct, i as i64, gks));
    }
    let mut acc: Option<Ciphertext> = None;
    for k in 0..gs {
        let base = k * bs;
        let mut inner: Option<Ciphertext> = None;
        for (i, rot) in rotated.iter().enumerate() {
            let d = base + i;
            if d >= n {
                break;
            }
            let diag = m.diagonal(d);
            if diag.iter().all(|z| z.abs() <= 1e-12) {
                continue;
            }
            // Pre-rotate the diagonal by -base so the giant rotation can be
            // applied after the inner sum.
            let shifted: Vec<Complex64> = (0..n).map(|j| diag[(j + n - base % n) % n]).collect();
            let term = ctx.mul_plain_scaled(rot, &shifted, ctx.fresh_scale());
            inner = Some(match inner {
                None => term,
                Some(a) => ctx.add(&a, &term),
            });
        }
        if let Some(inner) = inner {
            let outer = if base == 0 {
                inner
            } else {
                ctx.rotate(&inner, base as i64, gks)
            };
            acc = Some(match acc {
                None => outer,
                Some(a) => ctx.add(&a, &outer),
            });
        }
    }
    ctx.rescale(&acc.expect("matrix has at least one nonzero diagonal"))
}

/// The special-DFT matrix `U` (decode direction: slots of the polynomial's
/// canonical embedding) restricted to the complex fold, and its inverse —
/// the `SlotToCoeff` / `CoeffToSlot` matrices of the conventional
/// bootstrap.
pub fn dft_matrices(ctx: &CkksContext) -> (SlotMatrix, SlotMatrix) {
    let n = ctx.slots();
    let m = 2 * ctx.n();
    // rot group 5^k mod 2N.
    let mut g = 1usize;
    let mut rot_group = Vec::with_capacity(n);
    for _ in 0..n {
        rot_group.push(g);
        g = (g * 5) % m;
    }
    let zeta =
        |e: usize| Complex64::from_angle(2.0 * std::f64::consts::PI * (e % m) as f64 / m as f64);
    // U[k][j] = zeta^{g_k · j}; U^{-1}[j][k] = conj(U[k][j]) / n.
    let u_rows: Vec<Vec<Complex64>> = (0..n)
        .map(|k| (0..n).map(|j| zeta(rot_group[k] * j % m)).collect())
        .collect();
    let uinv_rows: Vec<Vec<Complex64>> = (0..n)
        .map(|j| {
            (0..n)
                .map(|k| zeta(rot_group[k] * j % m).conj().scale(1.0 / n as f64))
                .collect()
        })
        .collect();
    (
        SlotMatrix::from_rows(&u_rows),
        SlotMatrix::from_rows(&uinv_rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SecretKey;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(n: usize, seed: u64) -> SlotMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<Complex64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| Complex64::new(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3)))
                    .collect()
            })
            .collect();
        SlotMatrix::from_rows(&rows)
    }

    #[test]
    fn diagonal_extraction_matches_dense_product() {
        let n = 8;
        let m = rand_matrix(n, 1);
        let z: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64 / 10.0, 0.1))
            .collect();
        // Dense reference.
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<Complex64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| Complex64::new(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3)))
                    .collect()
            })
            .collect();
        let dense: Vec<Complex64> = (0..n)
            .map(|j| {
                let mut acc = Complex64::zero();
                for (k, zk) in z.iter().enumerate() {
                    acc += rows[j][k] * *zk;
                }
                acc
            })
            .collect();
        let via_diag = m.apply_plain(&z);
        for (a, b) in dense.iter().zip(&via_diag) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// The naive method is the split at `bs = slots`; both it and a real
    /// split land on the plaintext product.
    #[test]
    fn homomorphic_matrix_naive_and_bsgs_agree_with_plain() {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let n = ctx.slots();
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let m = rand_matrix(n, 9);
        let mut rots = m.rotations_bsgs(n);
        rots.extend(m.rotations_bsgs(8));
        rots.sort_unstable();
        rots.dedup();
        let gks = GaloisKeys::generate(&ctx, &sk, &rots, false, &mut rng);
        let z: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((i % 7) as f64 - 3.0) / 40.0, ((i % 5) as f64 - 2.0) / 50.0))
            .collect();
        let ct = ctx.encrypt_sk(&z, &sk, &mut rng);
        let want = m.apply_plain(&z);
        for bs in [n, 8] {
            let got = ctx.decrypt(&apply_matrix_bsgs(&ctx, &ct, &m, bs, &gks), &sk);
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() < 2e-2,
                    "bs = {bs}, slot {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn bsgs_needs_fewer_rotations() {
        let m = rand_matrix(64, 3);
        assert_eq!(m.rotations_bsgs(64).len(), 63); // naive: one per diagonal
        assert_eq!(m.rotations_bsgs(8).len(), 14); // 7 baby + 7 giant
    }

    #[test]
    fn dft_matrices_are_inverse_pair() {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let n = ctx.slots();
        let (u, uinv) = dft_matrices(&ctx);
        let z: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin() / 5.0, (i as f64).cos() / 5.0))
            .collect();
        let back = uinv.apply_plain(&u.apply_plain(&z));
        for (a, b) in z.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn dft_matrix_matches_encoder() {
        // U applied to the encoder's folded coefficients equals decode.
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let enc = ctx.encoder();
        let n = ctx.slots();
        let z: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.01 * i as f64, -0.003 * i as f64))
            .collect();
        let scale = 2f64.powi(30);
        let coeffs = enc.encode(&z, scale);
        // Fold coefficients: v_j = c_j + i c_{j+n}.
        let v: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new(coeffs[j] as f64 / scale, coeffs[j + n] as f64 / scale))
            .collect();
        let (u, _) = dft_matrices(&ctx);
        let got = u.apply_plain(&v);
        for (a, b) in z.iter().zip(&got) {
            assert!((*a - *b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
