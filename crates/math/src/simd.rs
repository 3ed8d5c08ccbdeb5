//! Runtime-dispatched SIMD datapaths for the kernel hot loops.
//!
//! HEAP gets its throughput from wide arrays of modular functional units
//! (paper §IV): butterfly units for the NTT, MAC arrays for key switching and
//! the external product, and decomposition units feeding them. The CPU
//! analogue is explicit vectorization: AVX-512F and AVX2 + FMA (x86_64)
//! implementations of the hot loops — the NTT butterflies, the inverse NTT
//! fused with signed gadget decomposition, the digit → NTT → MAC datapath of
//! the external product, and the CMux fold — selected once per process
//! behind feature detection, with
//! the scalar lazy kernels as the always-available fallback (and the only
//! tier on any other architecture).
//!
//! Each vector tier is kept by a measured ratio over the kernel it replaces
//! (N = 2048, 36-bit limb unless noted, best of 61 × 40 calls, three
//! process runs, 2-core AVX-512F host; EXPERIMENTS.md "One f64 lane from
//! digit to accumulator", "Eight lanes", "Eight lanes against four" and
//! "The CMux tail at full width"):
//!
//! | tier | kernels | applies when | ratio |
//! |---|---|---|---|
//! | scalar lazy | all | always | 1 (the parity oracle) |
//! | `f64` lanes ×4 | signed-lazy radix-4 forward NTT | `n ≥ 16`, `C + log2(n)·q ≤ 2^50` | 4.8–4.9× over scalar |
//! | `f64` lanes ×4 | a tile's digits → forward NTTs → one blocked MAC per key row | the same, and `terms·q ≤ 2^52` | 4.0–4.4× over lift + NTT + four `u128` MACs |
//! | `f64` lanes ×4 | CMux fold into the accumulator | the same, and `terms·q ≤ 2^50` | 5.3× over the `u128` fold |
//! | `f64` lanes ×4 | signed-lazy radix-4 inverse NTT, and fused with the signed digit chain (`i32` digits out) | the forward gate | over the fully reduced radix-2 body it replaced: 1.2–1.7×; fused, over copy + inverse + integer-lane decompose: 1.2–1.6× |
//! | `f64` lanes ×8 | all of the above | the ×4 gates, and AVX-512F | over ×4: forward 1.4–1.6×; fold 1.4–2.0×; inverse 1.5–1.7×, 2.2–2.8× over the radix-2 body (within 5 % of a forward transform); fused decompose 1.8× / 2.3× / 2.5× at N = 2^7 / 2^11 / 2^13 over the path it replaced; a tile's MAC 1.6× at N = 2^11 over one call per member |
//! | integer lanes | signed decompose | — | **deleted**: fused into the inverse transform's exit |
//! | integer lanes | forward / inverse NTT | — | **deleted**: 1.6–1.8× / 1.1–1.3× at 50–60 bits, but no workload has a modulus past the `f64` gate |
//! | integer lanes ×4 | signed lift (wide MAC path) | — | **deleted**: 3.6–4.1×, but every preset's chain is narrow on an `f64`-lane host, so no workload reached it |
//!
//! Both tiers run every kernel at their own width. Every other ring and
//! modulus runs the scalar lazy kernels. The integer-lane NTT (commit
//! `6ed5204`) and signed lift return together with a benchmark workload
//! whose modulus is 46 bits or wider on an AVX2 host, not before.
//!
//! `C` is the largest input magnitude (`4q` for [`crate::NttTable::forward`],
//! half the gadget base for an external product); the `f64` kernels and the
//! argument that they are exact live in `simd/f64_lanes.rs`. DESIGN.md §2
//! "SIMD dispatch" also lists the tiers that measured too little to keep
//! and what would bring one back.
//!
//! Every vector kernel produces the *same* canonical outputs as its scalar
//! counterpart, so results are bit-identical regardless of which backend
//! runs. The parity proptests in `tests/properties.rs` and the pinned
//! bootstrap digests enforce this.
//!
//! The tier is a fact of the process: [`active`] detects it at first use
//! and never changes it. The `HEAP_SIMD` environment variable caps it for
//! testing and benchmarking — `scalar` (or `off`/`0`) for the scalar
//! kernels, `avx2` to stop at the 4-lane tier — so each tier is exercised
//! by running a process under it, not by switching one that is running.

use std::sync::OnceLock;

use crate::mac::{LazyCoeff, RowPair};

#[cfg(target_arch = "x86_64")]
mod f64_lanes;

/// Which vector datapath is driving the hot kernels. Ordered by width, so
/// a `HEAP_SIMD` cap is the smaller of itself and what the host has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Scalar lazy kernels (always available).
    Scalar = 1,
    /// AVX2 and FMA together on x86_64: 4×f64 lanes. A CPU with AVX2 but
    /// no FMA runs the scalar kernels.
    Avx2 = 2,
    /// AVX-512F on top of AVX2 + FMA: the `f64`-lane kernels run 8 lanes
    /// wide.
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

    /// Whether this tier runs the `f64`-lane kernels (at either width).
    pub fn has_f64_lanes(self) -> bool {
        self != Backend::Scalar
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
            "HEAP_SIMD={other:?} not recognised: use scalar|off|0 to force the scalar kernels, \
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

/// Whether the `f64`-lane transforms run — and are exact — for an
/// `n`-point ring under `q` on inputs of magnitude at most `input_bound`:
/// an `f64`-lane tier active, `n ≥ 16`, and the signed-lazy growth bound
/// `input_bound + log2(n)·q ≤ 2^50`. Every other ring takes the scalar
/// kernels.
pub(crate) fn f64_ntt_ok(n: usize, q: u64, input_bound: u64) -> bool {
    let grown = u128::from(input_bound) + u128::from(n.trailing_zeros()) * u128::from(q);
    active().has_f64_lanes() && n.is_power_of_two() && n >= 16 && grown <= F64_OPERAND_LIMIT
}

/// [`f64_ntt_ok`] for a chain that also accumulates `terms` products per
/// coefficient in `f64`, each a signed term below `q`: the sum must stay an
/// exact integer inside `sum_limit` — [`F64_SUM_LIMIT`] for a chain that
/// ends in a reduction, [`F64_OPERAND_LIMIT`] for one the CMux fold
/// multiplies by its factor. This is what `MacAcc::reset` gates the narrow
/// accumulators on.
pub(crate) fn f64_mac_ok(
    n: usize,
    q: u64,
    input_bound: u64,
    terms: usize,
    sum_limit: u128,
) -> bool {
    f64_ntt_ok(n, q, input_bound) && terms as u128 * u128::from(q) <= sum_limit
}

/// Runs `f64_lanes::<tier>::$kernel(args…)` on the active `f64`-lane tier
/// and yields `true`, or yields `false` — having touched nothing — on the
/// scalar one.
#[cfg(target_arch = "x86_64")]
macro_rules! on_f64_tier {
    ($kernel:ident($($arg:expr),* $(,)?)) => {
        match active() {
            // SAFETY: a tier is active only after runtime detection of its
            // features (`detect`).
            Backend::Avx512 => {
                unsafe { f64_lanes::avx512::$kernel($($arg),*) };
                true
            }
            Backend::Avx2 => {
                unsafe { f64_lanes::avx2::$kernel($($arg),*) };
                true
            }
            Backend::Scalar => false,
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
macro_rules! on_f64_tier {
    ($($call:tt)*) => {
        false
    };
}

/// Runs the full forward lazy NTT in `f64` lanes: lazy residues in
/// `[0, 4q)` in, canonical residues out. `ops_f64` holds the bit-reversed
/// twiddle operands as doubles (same indexing as the scalar kernel's
/// `psi_br`). Returns `false` — having touched nothing — when the kernel
/// does not run for this ring; the caller must then run the scalar kernel.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_forward(a: &mut [u64], ops_f64: &[f64], q: u64) -> bool {
    f64_ntt_ok(a.len(), q, 4 * q) && on_f64_tier!(forward_in_place(a, ops_f64, q))
}

/// Runs the full inverse NTT (scaling by `n^{-1}` included) in `f64`
/// lanes on residues in `[0, 2q)`, canonical out, under the forward
/// kernel's gate; `ops_f64` holds the bit-reversed inverse twiddles as
/// doubles. Returns `false` — having touched nothing — when it does not run.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_ntt_inverse(a: &mut [u64], ops_f64: &[f64], q: u64, n_inv: u64) -> bool {
    f64_ntt_ok(a.len(), q, 4 * q) && on_f64_tier!(inverse(a, None, ops_f64, q, n_inv, None))
}

/// The inverse NTT of `limb` (residues in `[0, 2q)`) fused with the
/// balanced signed gadget decomposition of its output: digit `k` of
/// coefficient `i` goes to `out[k·n + i]` as an `i32`, with `work` as the
/// transform's buffer. Returns `false` when the `f64` kernels do not run.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_inverse_digits(
    limb: &[u64],
    work: &mut [u64],
    ops_f64: &[f64],
    (q, n_inv): (u64, u64),
    base_bits: u32,
    out: &mut [i32],
) -> bool {
    f64_ntt_ok(limb.len(), q, 4 * q)
        && on_f64_tier!(inverse(
            work,
            Some(limb),
            ops_f64,
            q,
            n_inv,
            Some((out, base_bits))
        ))
}

/// The signed-lazy forward NTT of a digit polynomial (any [`LazyCoeff`]
/// below the gate's input bound), left in `f64` in `out` for
/// [`try_mac_tile`]. Returns `false` when the `f64` kernels do not run for
/// this ring.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_forward_f64<T: LazyCoeff>(
    digit: &[T],
    ops_f64: &[f64],
    q: u64,
    out: &mut [f64],
) -> bool {
    f64_ntt_ok(digit.len(), q, 0) && on_f64_tier!(forward_into(digit, ops_f64, q, out))
}

/// The narrow MAC of a tile: member `t`'s transformed digit
/// (`operands[t·n..]`) times `rows[k][p]` into slot `firsts[t] + 2k + p`
/// of the block-major accumulators `acc` (`block` coefficients per slot
/// per block). Returns `false` when the `f64` kernels do not run.
///
/// The caller's gate ([`f64_mac_ok`]) bounds the input magnitude and the
/// term count; only the backend is checked again here.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_mac_tile<const K: usize>(
    operands: &[f64],
    firsts: &[usize],
    rows: [RowPair<'_>; K],
    q: u64,
    acc: &mut [f64],
    block: usize,
) -> bool {
    on_f64_tier!(mac_tile(operands, firsts, rows, q, acc, block))
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
/// canonical residues in `out`. Returns `false` when the `f64` kernels do
/// not run.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_reduce_acc(acc: &[f64], q: u64, out: &mut [u64]) -> bool {
    on_f64_tier!(reduce_acc(acc, q, out))
}

/// The CMux fold in `f64` lanes: `acc ← canonical(acc + S⁺·f⁺ + S⁻·f⁻)`
/// for exact integer sums `|S| ≤ 2^50` and canonical factors and `acc`.
/// Returns `false` when the `f64` kernels do not run.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn try_fold_acc(
    sums: [&[f64]; 2],
    factors: [&[u64]; 2],
    q: u64,
    acc: &mut [u64],
) -> bool {
    on_f64_tier!(fold_acc(sums, factors, q, acc))
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
