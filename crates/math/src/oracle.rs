//! Reference kernels the parity suites pin the fast paths against.
//!
//! No production path calls anything here; the documented surface is
//! [`NttTable::forward`] / [`NttTable::inverse`]. The module is public
//! (and hidden from the docs) only so the other crates' test suites can
//! reach the same oracles.

use crate::arith::Modulus;
use crate::ntt::NttTable;

/// Strict forward NTT with table twiddles.
pub fn forward_reference(t: &NttTable, a: &mut [u64]) {
    t.forward_strict(a, false);
}

/// The same strict loop with every twiddle regenerated from the raw root
/// (the paper's §IV-D on-the-fly source).
pub fn forward_on_the_fly(t: &NttTable, a: &mut [u64]) {
    t.forward_strict(a, true);
}

/// Strict inverse NTT.
pub fn inverse_reference(t: &NttTable, a: &mut [u64]) {
    t.inverse_strict(a);
}

/// Schoolbook negacyclic convolution, the `O(N^2)` product the transform
/// must reproduce.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn negacyclic_convolution(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let p = q.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = q.add(out[k], p);
            } else {
                out[k - n] = q.sub(out[k - n], p);
            }
        }
    }
    out
}
