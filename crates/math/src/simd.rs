//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them, all one
//! modular datapath at one word width. The CPU analogue is one datapath on
//! `f64` lanes — the NTT butterflies, the inverse NTT fused with signed
//! gadget decomposition, the digit → NTT → MAC chain of the external
//! product, and the CMux fold — written once and run at the widest width
//! the host has: AVX-512F or AVX2 + FMA on x86_64, selected once per process
//! behind feature detection, and one lane in portable Rust on every host
//! (the only width on any other architecture).
//!
//! Each vector width is kept by a measured ratio over the kernel it replaced
//! (N = 2048, 36-bit limb unless noted, best of 61 × 40 calls, three
//! process runs, 2-core AVX-512F host; EXPERIMENTS.md "One f64 lane from
//! digit to accumulator", "Eight lanes", "Eight lanes against four" and
//! "The CMux tail at full width"):
//!
//! | tier | kernels | ratio |
//! |---|---|---|
//! | `f64` lanes ×1 | all | the width `HEAP_SIMD=scalar` and non-x86 hosts run; no workload times it |
//! | `f64` lanes ×4 | signed-lazy radix-4 forward NTT | 4.8–4.9× over the scalar lazy NTT |
//! | `f64` lanes ×4 | a tile's digits → forward NTTs → one blocked MAC per key row | 4.0–4.4× over lift + NTT + four `u128` MACs |
//! | `f64` lanes ×4 | CMux fold into the accumulator | 5.3× over the `u128` fold |
//! | `f64` lanes ×4 | signed-lazy radix-4 inverse NTT, and fused with the signed digit chain (`i32` digits out) | over the fully reduced radix-2 body it replaced: 1.2–1.7×; fused, over copy + inverse + integer-lane decompose: 1.2–1.6× |
//! | `f64` lanes ×8 | all of the above | over ×4: forward 1.4–1.6×; fold 1.4–2.0×; inverse 1.5–1.7×, 2.2–2.8× over the radix-2 body (within 5 % of a forward transform); fused decompose 1.8× / 2.3× / 2.5× at N = 2^7 / 2^11 / 2^13 over the path it replaced; a tile's MAC 1.6× at N = 2^11 over one call per member |
//! | scalar lazy NTTs, `u128` MAC | all | **deleted**: a second datapath for rings below 16 points and moduli past the gate, which no workload reached |
//! | integer lanes | signed decompose | **deleted**: fused into the inverse transform's exit |
//! | integer lanes | forward / inverse NTT | **deleted**: 1.6–1.8× / 1.1–1.3× at 50–60 bits, but no workload has a modulus past the `f64` gate |
//! | integer lanes ×4 | signed lift (wide MAC path) | **deleted**: 3.6–4.1×, but every preset's chain was narrow on an `f64`-lane host, so no workload reached it |
//!
//! Every tier runs every kernel at its own width, and every table is inside
//! the gate the kernels are exact under: `NttTable::new` refuses a ring
//! below 16 points or a modulus with `(4 + log2 n)·q > 2^50`, and
//! `MacAcc::reset` a chain whose digits or sums could pass their bounds.
//! The integer-lane NTT (commit `6ed5204`) returns with a benchmark
//! workload whose modulus is 46 bits or wider, not before.
//!
//! The `f64` kernels and the argument that they are exact live in
//! `simd/f64_lanes.rs`. DESIGN.md §2 "SIMD dispatch" also lists the tiers
//! that measured too little to keep and what would bring one back.
//!
//! Every width produces the *same* canonical outputs as the strict integer
//! loops of the hidden `oracle` module, so results are bit-identical
//! regardless of which tier runs. The parity proptests in
//! `tests/properties.rs` and the pinned bootstrap digests enforce this.
//!
//! The tier is a fact of the process: [`active`] detects it at first use
//! and never changes it. The `HEAP_SIMD` environment variable caps it for
//! testing and benchmarking — `scalar` (or `off`/`0`) for the width-1
//! lane, `avx2` to stop at the 4-lane tier — so each tier is exercised by
//! running a process under it, not by switching one that is running.

use std::sync::OnceLock;

use crate::mac::{LazyCoeff, RowPair};

mod f64_lanes;

/// Which width the `f64`-lane kernels run at. Ordered by width, so a
/// `HEAP_SIMD` cap is the smaller of itself and what the host has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// One lane in portable Rust (every host).
    Scalar = 1,
    /// AVX2 and FMA together on x86_64: 4×f64 lanes. A CPU with AVX2 but
    /// no FMA runs one lane.
    Avx2 = 2,
    /// AVX-512F on top of AVX2 + FMA: 8×f64 lanes.
    Avx512 = 3,
}

impl Backend {
    /// Human-readable backend name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }
}

/// Parses a `HEAP_SIMD` value: `Some(backend)` caps dispatch at that tier,
/// `None` leaves the choice to feature detection.
///
/// # Errors
///
/// Any other spelling is an error naming the accepted ones — a typo must
/// not silently select the native path.
fn override_from(value: &str) -> Result<Option<Backend>, String> {
    match value.to_ascii_lowercase().as_str() {
        "scalar" | "off" | "0" => Ok(Some(Backend::Scalar)),
        "avx2" => Ok(Some(Backend::Avx2)),
        "" | "auto" => Ok(None),
        other => Err(format!(
            "HEAP_SIMD={other:?} not recognised: use scalar|off|0 to force one lane, \
             avx2 to stop at the 4-lane tier, auto (or unset) to detect"
        )),
    }
}

/// The widest tier this host supports.
fn native() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The host's widest tier, capped by `HEAP_SIMD`: a cap can narrow the
/// choice, never widen it past what the CPU has.
fn detect() -> Backend {
    let pinned = std::env::var("HEAP_SIMD").map_or(Ok(None), |v| override_from(&v));
    match pinned.unwrap_or_else(|e| panic!("{e}")) {
        Some(cap) => cap.min(native()),
        None => native(),
    }
}

/// The backend the dispatched kernels use: detected at first use, then
/// fixed for the life of the process.
///
/// # Panics
///
/// Panics at first use if `HEAP_SIMD` is set to an unrecognised value.
pub fn active() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

/// Largest magnitude an `f64` lane may reach as a product input: the
/// error-free modular product of `simd/f64_lanes.rs` is exact up to here.
/// A sum the CMux fold multiplies by its factor is such an input.
pub(crate) const F64_OPERAND_LIMIT: u128 = 1 << 50;

/// Largest magnitude a sum of `f64` MAC terms may reach and stay an exact
/// integer with a bit in hand.
pub(crate) const F64_SUM_LIMIT: u128 = 1 << 52;

/// Whether the `f64`-lane transforms are exact for an `n`-point ring under
/// `q` on inputs of magnitude at most `input_bound`: `n ≥ 16` and the
/// signed-lazy growth bound `input_bound + log2(n)·q ≤ 2^50`.
/// `NttTable::new` asserts it for the `[0, 4q)` inputs of its forward
/// transform, which covers its inverse.
pub(crate) fn f64_ntt_ok(n: usize, q: u64, input_bound: u64) -> bool {
    let grown = u128::from(input_bound) + u128::from(n.trailing_zeros()) * u128::from(q);
    n.is_power_of_two() && n >= 16 && grown <= F64_OPERAND_LIMIT
}

/// Runs `f64_lanes::<tier>::$kernel(args…)` on the active tier.
macro_rules! on_tier {
    ($kernel:ident($($arg:expr),* $(,)?)) => {
        // SAFETY: a vector tier is active only after runtime detection of
        // its features (`detect`); the width-1 one needs none.
        match active() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { f64_lanes::avx512::$kernel($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { f64_lanes::avx2::$kernel($($arg),*) },
            _ => unsafe { f64_lanes::portable::$kernel($($arg),*) },
        }
    };
}

// The kernels below take `q` from an `NttTable`, whose constructor holds it
// inside the transforms' gate (`f64_ntt_ok`); `MacAcc::reset` holds a
// chain's digits and sums inside theirs.

/// The full forward NTT: lazy residues in `[0, 4q)` in, canonical residues
/// out. `ops_f64` holds the bit-reversed twiddle operands as doubles.
pub(crate) fn ntt_forward(a: &mut [u64], ops_f64: &[f64], q: u64) {
    on_tier!(forward_in_place(a, ops_f64, q))
}

/// The full inverse NTT (scaling by `n^{-1}` included) on residues in
/// `[0, 2q)`, canonical out; `ops_f64` holds the bit-reversed inverse
/// twiddles as doubles.
pub(crate) fn ntt_inverse(a: &mut [u64], ops_f64: &[f64], q: u64, n_inv: u64) {
    on_tier!(inverse(a, None, ops_f64, q, n_inv, None))
}

/// The inverse NTT of `limb` (residues in `[0, 2q)`) fused with the
/// balanced signed gadget decomposition of its output: digit `k` of
/// coefficient `i` goes to `out[k·n + i]` as an `i32`, with `work` as the
/// transform's buffer.
pub(crate) fn inverse_digits(
    limb: &[u64],
    work: &mut [u64],
    ops_f64: &[f64],
    (q, n_inv): (u64, u64),
    base_bits: u32,
    out: &mut [i32],
) {
    on_tier!(inverse(
        work,
        Some(limb),
        ops_f64,
        q,
        n_inv,
        Some((out, base_bits))
    ))
}

/// The signed-lazy forward NTT of a digit polynomial (any [`LazyCoeff`]
/// below the chain's input bound), left in `f64` in `out` for
/// [`mac_tile`].
pub(crate) fn forward_f64<T: LazyCoeff>(digit: &[T], ops_f64: &[f64], q: u64, out: &mut [f64]) {
    on_tier!(forward_into(digit, ops_f64, q, out))
}

/// The MAC of a tile: member `t`'s transformed digit (`operands[t·n..]`)
/// times `rows[k][p]` into slot `firsts[t] + 2k + p` of the block-major
/// accumulators `acc` (`block` coefficients per slot per block).
pub(crate) fn mac_tile<const K: usize>(
    operands: &[f64],
    firsts: &[usize],
    rows: [RowPair<'_>; K],
    q: u64,
    acc: &mut [f64],
    block: usize,
) {
    on_tier!(mac_tile(operands, firsts, rows, q, acc, block))
}

/// Asks the cache for `words` ahead of a MAC that reads them. A key row is
/// read once per tile, where the cache has not seen it since the previous
/// rotation step; the hint lets it arrive while the tile's digits are
/// transformed instead of stalling the MAC's first pass over it.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn prefetch(words: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    for line in words.chunks(8) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that reads nothing and cannot fault;
        // SSE is part of every x86_64 CPU.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
    }
}

/// Reduces `f64` accumulators (exact integers below `2^52` in magnitude) to
/// canonical residues in `out`.
pub(crate) fn reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) {
    on_tier!(reduce_acc(acc, q, out))
}

/// The CMux fold in `f64` lanes: `acc ← canonical(acc + S⁺·f⁺ + S⁻·f⁻)`
/// for exact integer sums `|S| ≤ 2^50` and canonical factors and `acc`.
pub(crate) fn fold_acc(sums: [&[f64]; 2], factors: [&[u64]; 2], q: u64, acc: &mut [u64]) {
    on_tier!(fold_acc(sums, factors, q, acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Avx512.name(), "avx512");
    }

    /// Names the tier this process dispatches to (CI's SIMD-parity step
    /// runs it with `--nocapture` ahead of each round); a `HEAP_SIMD` cap
    /// never selects more than the host has.
    #[test]
    fn reports_the_active_backend() {
        let b = active();
        println!("simd::active() = {}", b.name());
        assert!(b <= native(), "{b:?} above the host's {:?}", native());
    }

    /// A misspelt `HEAP_SIMD` is an error, never a silent "native".
    #[test]
    fn override_parser_rejects_unknown_spellings() {
        for v in ["scalar", "off", "0", "SCALAR", "Off"] {
            assert_eq!(override_from(v), Ok(Some(Backend::Scalar)), "{v}");
        }
        for v in ["avx2", "AVX2"] {
            assert_eq!(override_from(v), Ok(Some(Backend::Avx2)), "{v}");
        }
        for v in ["", "auto", "AUTO"] {
            assert_eq!(override_from(v), Ok(None), "{v:?}");
        }
        for v in ["sclar", "1", "avx512", "avx", "on", " scalar"] {
            let err = override_from(v).expect_err(v);
            assert!(
                err.contains("scalar|off|0") && err.contains("auto"),
                "{err}"
            );
        }
    }
}
