//! The ceiling `NttTable::new` admits, for the suites that test at it: the
//! largest NTT primes of an `n`-point ring with `(4 + log2 n)·q ≤ 2^50`,
//! the `f64` lanes' bound on the forward transform's `[0, 4q)` inputs.
//!
//! Test binaries include this file with
//! `#[path = ".../tests/support/ceiling.rs"] mod ceiling;`.

#![allow(dead_code)] // each binary reads the primes it tests at

use heap_math::prime::is_prime;
use heap_math::Modulus;

/// The NTT prime for ring `n` nearest to `limit`, at or below it
/// (`step = -1`) or above it (`step = 1`).
pub fn prime_near(n: usize, limit: u64, step: i64) -> Modulus {
    let two_n = 2 * n as u64;
    let mut cand = limit / two_n * two_n + 1;
    if (step < 0) == (cand > limit) {
        cand = cand.wrapping_add_signed(step * two_n as i64);
    }
    while !is_prime(cand) {
        cand = cand.wrapping_add_signed(step * two_n as i64);
    }
    Modulus::new(cand).unwrap()
}

/// The `count` largest NTT primes for ring `n` that `NttTable::new`
/// admits, largest first.
pub fn largest_admitted_primes(n: usize, count: usize) -> Vec<u64> {
    let mut limit = (1u64 << 50) / (4 + u64::from(n.trailing_zeros()));
    (0..count)
        .map(|_| {
            let q = prime_near(n, limit, -1).value();
            limit = q - 1;
            q
        })
        .collect()
}

/// The largest NTT prime for ring `n` that `NttTable::new` admits.
pub fn largest_admitted(n: usize) -> Modulus {
    Modulus::new(largest_admitted_primes(n, 1)[0]).unwrap()
}
