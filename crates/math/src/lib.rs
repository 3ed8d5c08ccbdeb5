//! Mathematical substrate for the HEAP reproduction: word-sized modular
//! arithmetic, negacyclic NTTs, RNS polynomials with rescaling, gadget
//! decomposition, exact big-integer CRT, and randomness for key material.
//! The strict kernels the parity suites pin the fast paths against live
//! in the hidden `oracle` module.
//!
//! Everything above this crate (CKKS, TFHE, the scheme-switching
//! bootstrapper, and the hardware model) is built from these primitives;
//! nothing here depends on an FHE scheme.
//!
//! # Examples
//!
//! Negacyclic polynomial multiplication through the NTT:
//!
//! ```
//! use heap_math::arith::Modulus;
//! use heap_math::ntt::NttTable;
//! use heap_math::prime::ntt_primes;
//!
//! let n = 1usize << 10;
//! let q = Modulus::new(ntt_primes(n as u64, 36, 1)[0]).unwrap();
//! let ntt = NttTable::new(n, q);
//! let mut a = vec![0u64; n];
//! a[1] = 1; // X
//! let mut b = vec![0u64; n];
//! b[n - 1] = 1; // X^(N-1)
//! ntt.forward(&mut a);
//! ntt.forward(&mut b);
//! let mut prod = vec![0u64; n];
//! ntt.pointwise(&a, &b, &mut prod);
//! ntt.inverse(&mut prod);
//! // X * X^(N-1) = X^N = -1 in the negacyclic ring.
//! assert_eq!(prod[0], q.value() - 1);
//! ```

pub mod arith;
pub mod bigint;
pub mod gadget;
pub mod mac;
pub mod ntt;
#[doc(hidden)]
pub mod oracle;
pub mod params;
pub mod poly;
pub mod prime;
pub mod rns;
pub mod sample;
pub mod seeded;
pub mod simd;
pub mod wire;

pub use arith::Modulus;
pub use bigint::BigUint;
pub use gadget::Gadget;
pub use mac::{ChainEnd, LazyCoeff, MacAcc, RowPair};
pub use ntt::NttTable;
pub use params::ParamSet;
pub use rns::{Domain, RnsContext, RnsPoly};
