//! The lazy-reduction MAC accumulator.
//!
//! HEAP has one lazy-reduction MAC array (§IV-A) serving both the
//! external-product unit (§IV-E) and the key-switch inner product. The
//! software form has two accumulator widths — `u64` sums of canonical
//! products and `u128` sums of full products — and this module is the only
//! place that knows which one a MAC chain runs on: [`mac_path`] picks it
//! per call from what the host and the moduli allow, and [`MacAcc`] carries
//! the choice so the algorithm loops above it are written once. Both widths
//! read the key row exactly as it is stored; neither needs a derived copy.

use crate::ntt::NttTable;
use crate::simd;

/// The accumulator width of one lazy MAC chain. Both produce canonical
/// residues of the same congruence class, so results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacPath {
    /// `u64` accumulators fed by products already reduced to `[0, q)` — the
    /// vector `f64` kernel (1.4× the wide path at 36 bits).
    Narrow,
    /// `u128` accumulators fed by full products.
    #[default]
    Wide,
}

/// Picks the accumulator for a chain of `terms` MACs under each of `tables`.
///
/// The narrow path needs its vector kernel under every modulus of the chain
/// (AVX2 + FMA active and `q < 2^48`: the scalar form of the same product
/// reduces per term and loses to the wide path's bare multiply) and all
/// `terms` products must fit a `u64` ([`NttTable::narrow_mac_term_limit`]);
/// anything else takes the wide path. Evaluated per call, so it follows
/// [`simd::force_scalar`] flipped on a live key.
pub fn mac_path<'a>(tables: impl IntoIterator<Item = &'a NttTable>, terms: usize) -> MacPath {
    let narrow = |t: &NttTable| {
        simd::narrow_mac_ok(t.modulus().value()) && terms as u64 <= t.narrow_mac_term_limit()
    };
    if tables.into_iter().all(narrow) {
        MacPath::Narrow
    } else {
        MacPath::Wide
    }
}

/// Lazy MAC accumulators: `slots` windows of `n` coefficients each, on the
/// path chosen at [`Self::reset`]. Buffers are kept across resets, so a
/// warm accumulator never allocates.
#[derive(Debug, Default)]
pub struct MacAcc {
    path: MacPath,
    n: usize,
    narrow: Vec<u64>,
    wide: Vec<u128>,
}

impl MacAcc {
    /// Zeroes `slots` windows of `n` coefficients on `path`.
    pub fn reset(&mut self, path: MacPath, slots: usize, n: usize) {
        self.path = path;
        self.n = n;
        match path {
            MacPath::Narrow => {
                self.narrow.clear();
                self.narrow.resize(slots * n, 0);
            }
            MacPath::Wide => {
                self.wide.clear();
                self.wide.resize(slots * n, 0);
            }
        }
    }

    /// `slot += x ⊙ ops` with no reduction of the sum. `ops` must be
    /// canonical residues (a key row); `x` may be lazy, in `[0, 4q)`.
    ///
    /// A narrow chain stays exact if [`simd::force_scalar`] flips between
    /// two of its calls: the scalar loop behind the vector kernel adds the
    /// same canonical terms.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or if slice lengths differ from
    /// `ntt.n()`.
    pub fn mac(&mut self, slot: usize, ntt: &NttTable, x: &[u64], ops: &[u64]) {
        let w = slot * self.n..(slot + 1) * self.n;
        match self.path {
            MacPath::Narrow => ntt.pointwise_mac_narrow(x, ops, &mut self.narrow[w]),
            MacPath::Wide => ntt.pointwise_mac_lazy(x, ops, &mut self.wide[w]),
        }
    }

    /// Writes the canonical residues of `slot` to `out` — the single
    /// deferred reduction per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `out.len() != ntt.n()`.
    pub fn reduce_into(&self, slot: usize, ntt: &NttTable, out: &mut [u64]) {
        let w = slot * self.n..(slot + 1) * self.n;
        match self.path {
            MacPath::Narrow => ntt.reduce_narrow_acc_into(&self.narrow[w], out),
            MacPath::Wide => ntt.reduce_acc_into(&self.wide[w], out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::Modulus;
    use crate::prime::ntt_primes;

    /// Both paths of the accumulator agree with the eager Barrett chain.
    /// (The narrow path may be *forced* on any host — only the gate ties it
    /// to the vector kernel — so this also runs its scalar loop.)
    #[test]
    fn both_paths_match_eager_chain() {
        let n = 32;
        let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
        let t = NttTable::new(n, q);
        let rows: Vec<(Vec<u64>, Vec<u64>)> = (0..3u64)
            .map(|r| {
                let x = (0..n as u64).map(|i| (i * 0x9E37 + r) % q.value());
                let ops = (0..n as u64).map(|i| (i * i + 7 * r + 1) % q.value());
                (x.collect(), ops.collect())
            })
            .collect();
        let mut want = vec![0u64; n];
        for (x, ops) in &rows {
            t.pointwise_acc(x, ops, &mut want);
        }
        for path in [MacPath::Narrow, MacPath::Wide] {
            let mut acc = MacAcc::default();
            // Slot 0 stays empty: windows must not bleed into each other.
            acc.reset(path, 2, n);
            for (x, ops) in &rows {
                acc.mac(1, &t, x, ops);
            }
            let mut got = vec![1u64; n];
            acc.reduce_into(1, &t, &mut got);
            assert_eq!(got, want, "{path:?}");
            acc.reduce_into(0, &t, &mut got);
            assert_eq!(got, vec![0u64; n], "{path:?} slot 0");
        }
    }

    /// The gate on every host: a modulus at or past `2^48` has no narrow
    /// kernel, and a 47-bit one fits `2^16`-odd lazy terms. (The narrow
    /// side needs a fixed backend, so the `kernel_parity` suites assert it
    /// under a lock against `force_scalar`.)
    #[test]
    fn gate_follows_modulus_width_and_term_limit() {
        let q60 = Modulus::new(ntt_primes(32, 60, 1)[0]).unwrap();
        assert_eq!(mac_path([&NttTable::new(32, q60)], 1), MacPath::Wide);
        let q47 = Modulus::new(ntt_primes(32, 47, 1)[0]).unwrap();
        let t = NttTable::new(32, q47);
        let limit = t.narrow_mac_term_limit();
        assert!((1 << 16..1 << 17).contains(&limit), "{limit}");
        assert_eq!(mac_path([&t], limit as usize + 1), MacPath::Wide);
    }
}
