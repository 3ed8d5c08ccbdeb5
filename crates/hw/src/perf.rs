//! HEAP performance model: per-operation latencies, the NTT datapath
//! throughput, the parallel bootstrap schedule, and the amortized
//! per-slot-multiplication metric of Eq. 3.
//!
//! The model is semi-analytic: unit counts, latencies, clock rates, and
//! memory widths come straight from the paper's microarchitecture
//! (§IV–§V); the per-operation pipeline-efficiency constants are
//! calibrated once against the paper's own single-FPGA measurements
//! (Table III/IV) and everything downstream — bootstrap latency vs.
//! `n_br`, node scaling, application times — is *derived* from operation
//! counts. EXPERIMENTS.md records model-vs-paper for every figure.

use heap_math::ParamSet;

use crate::device::FpgaDevice;
use crate::network::{CmacLink, OverlapSchedule};

/// Calibrated single-FPGA latencies for the basic operations (Table III,
/// HEAP column; `N = 2^13`, `log Q = 216`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTimings {
    /// `Add` latency in ms.
    pub add_ms: f64,
    /// `Mult` (with relinearization) latency in ms.
    pub mult_ms: f64,
    /// `Rescale` latency in ms.
    pub rescale_ms: f64,
    /// `Rotate` latency in ms.
    pub rotate_ms: f64,
    /// `BlindRotate` latency in ms for a batch of up to 512 ciphertexts
    /// scheduled together on the §IV-E datapath.
    pub blind_rotate_batch_ms: f64,
}

impl OpTimings {
    /// HEAP on a single U280 (paper Table III).
    pub fn heap_single_fpga() -> Self {
        Self {
            add_ms: 0.001,
            mult_ms: 0.028,
            rescale_ms: 0.010,
            rotate_ms: 0.025,
            blind_rotate_batch_ms: 0.060,
        }
    }

    /// Kernel cycles for each op at the given device clock.
    pub fn cycles(&self, device: &FpgaDevice) -> [(&'static str, f64); 5] {
        let to_cycles = |ms: f64| ms * 1e-3 * device.clocks.kernel_hz;
        [
            ("Add", to_cycles(self.add_ms)),
            ("Mult", to_cycles(self.mult_ms)),
            ("Rescale", to_cycles(self.rescale_ms)),
            ("Rotate", to_cycles(self.rotate_ms)),
            ("BlindRotate", to_cycles(self.blind_rotate_batch_ms)),
        ]
    }
}

/// NTT datapath model (§IV-D): radix-2 butterflies on 512 modular units
/// with fine-grained pipelining; twiddles shared between the limb pair.
#[derive(Debug, Clone, Copy)]
pub struct NttModel {
    /// Ring dimension.
    pub n: usize,
}

impl NttModel {
    /// Modular units available for butterflies.
    pub const UNITS: u64 = 512;
    /// Fixed pipeline fill latency per stage (the 7-cycle modular unit).
    pub const UNIT_LATENCY: u64 = 7;
    /// Effective issue interval per pass, folding in URAM/BRAM banking
    /// and twiddle-fetch stalls (calibrated to Table IV).
    pub const PASS_INTERVAL: u64 = 13;

    /// The paper's datapath at [`ParamSet::PAPER`]'s `N = 2^13`.
    pub fn paper() -> Self {
        Self {
            n: ParamSet::PAPER.n(),
        }
    }

    /// Kernel cycles for one forward or inverse NTT.
    pub fn cycles(&self) -> u64 {
        let stages = self.n.trailing_zeros() as u64;
        let passes = (self.n as u64 / 2).div_ceil(Self::UNITS);
        stages * (passes * Self::PASS_INTERVAL + Self::UNIT_LATENCY)
    }

    /// NTT operations per second at the device's kernel clock.
    pub fn throughput(&self, device: &FpgaDevice) -> f64 {
        device.clocks.kernel_hz / self.cycles() as f64
    }
}

/// Parallel scheme-switched bootstrap model (§V, §VI-E).
///
/// Algorithm 2 step times at full packing (`n = 4096` LWEs over 8 FPGAs):
/// steps 1–2 take 0.0025 ms, step 3 (parallel blind rotations including
/// overlapped communication) 1.3303 ms, steps 4–5 (repack + correction +
/// rescale) 0.1672 ms, totaling ~1.5 ms.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapModel {
    /// `ModulusSwitch` + `Extract` time (ms), data-parallel and cheap.
    pub step12_ms: f64,
    /// Blind-rotation time for one full 512-ciphertext batch per node
    /// (ms).
    pub step3_batch_ms: f64,
    /// Repacking + combine + rescale time at full packing (ms).
    pub step45_full_ms: f64,
    /// LWE count at full packing.
    pub full_slots: usize,
    /// Per-node parallel batch width (512 functional units).
    pub batch_width: usize,
}

impl BootstrapModel {
    /// The paper's calibration.
    pub fn paper() -> Self {
        Self {
            step12_ms: 0.0025,
            step3_batch_ms: 1.3303,
            step45_full_ms: 0.1672,
            full_slots: ParamSet::PAPER.n() / 2,
            batch_width: 512,
        }
    }

    /// Total bootstrap latency (ms) for `n_br` packed slots over `nodes`
    /// FPGAs.
    ///
    /// Step 3 runs `ceil(n_br / nodes / batch_width)` batch rounds; steps
    /// 4–5 scale with the number of repacked ciphertexts.
    pub fn total_ms(&self, n_br: usize, nodes: usize) -> f64 {
        assert!(nodes >= 1 && n_br >= 1);
        let per_node = n_br.div_ceil(nodes);
        let rounds = per_node.div_ceil(self.batch_width);
        let occupancy = per_node.min(self.batch_width) as f64 / self.batch_width as f64;
        // A partially filled final round still pays the datapath's fixed
        // pipeline depth and key streaming (the brk reads do not shrink
        // with occupancy); only the per-ciphertext traffic scales.
        let step3 = (rounds as f64 - 1.0).max(0.0) * self.step3_batch_ms
            + self.step3_batch_ms * (0.4 + 0.6 * occupancy);
        // The repack tree is log-deep: its cost floors well above linear.
        let step45 = self.step45_full_ms * (n_br as f64 / self.full_slots as f64).max(0.3);
        self.step12_ms + step3 + step45
    }

    /// The paper's headline configuration: fully packed, 8 FPGAs → ~1.5 ms.
    pub fn paper_full_ms(&self) -> f64 {
        self.total_ms(self.full_slots, 8)
    }

    /// Step-3 communication check: the overlapped schedule for `nodes`.
    pub fn step3_schedule(&self, n_br: usize, nodes: usize) -> OverlapSchedule {
        let link = CmacLink::paper();
        let m = crate::memory::MemoryLayout::paper();
        let per_node = n_br.div_ceil(nodes) as u64;
        OverlapSchedule {
            compute_s: self.total_ms(n_br, nodes) * 1e-3,
            scatter_s: link.transfer_seconds(per_node * m.lwe_bytes(ParamSet::PAPER.n_t)),
            gather_s: per_node as f64 * link.result_transfer_seconds(),
            nodes,
        }
    }
}

/// Amortized multiplication time per slot (paper Eq. 3):
/// `T_mult,a/slot = (T_BS + Σ_i T_mult(i)) / (ℓ·n)`.
///
/// `t_mult_per_level_us` is the (average) `Mult`+`Rescale` time per level.
pub fn t_mult_a_slot_us(
    t_bs_us: f64,
    t_mult_per_level_us: f64,
    levels: usize,
    slots: usize,
) -> f64 {
    assert!(levels >= 1 && slots >= 1);
    (t_bs_us + t_mult_per_level_us * levels as f64) / (levels as f64 * slots as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_cycles_at_300mhz() {
        let d = FpgaDevice::alveo_u280();
        let t = OpTimings::heap_single_fpga();
        let cycles = t.cycles(&d);
        assert_eq!(cycles[0], ("Add", 300.0));
        assert_eq!(cycles[1].1, 8400.0);
    }

    #[test]
    fn ntt_model_reproduces_table4() {
        let d = FpgaDevice::alveo_u280();
        let m = NttModel::paper();
        let thr = m.throughput(&d);
        // Table IV: 210K NTT/s — model within 2%.
        assert!(
            (thr - 210_000.0).abs() / 210_000.0 < 0.02,
            "throughput {thr}"
        );
    }

    #[test]
    fn bootstrap_full_packing_matches_section_6e() {
        let b = BootstrapModel::paper();
        let total = b.paper_full_ms();
        assert!((total - 1.5).abs() < 0.01, "total {total}");
    }

    #[test]
    fn bootstrap_scales_down_with_sparse_packing() {
        let b = BootstrapModel::paper();
        let full = b.total_ms(4096, 8);
        let sparse = b.total_ms(256, 8); // LR packing
        assert!(sparse < full / 2.0, "sparse {sparse} vs full {full}");
        // And with fewer nodes it gets slower.
        let one_node = b.total_ms(4096, 1);
        assert!(one_node > full * 4.0, "one node {one_node}");
    }

    #[test]
    fn bootstrap_monotone_in_slots_and_nodes() {
        let b = BootstrapModel::paper();
        let mut prev = 0.0;
        for n_br in [64usize, 256, 1024, 4096] {
            let t = b.total_ms(n_br, 8);
            assert!(t > prev, "n_br {n_br}");
            prev = t;
        }
        let mut prev = f64::INFINITY;
        for nodes in [1usize, 2, 4, 8] {
            let t = b.total_ms(4096, nodes);
            assert!(t < prev, "nodes {nodes}");
            prev = t;
        }
    }

    #[test]
    fn communication_stays_hidden() {
        let b = BootstrapModel::paper();
        for nodes in [2usize, 4, 8] {
            let s = b.step3_schedule(4096, nodes);
            assert!(s.communication_hidden(), "nodes {nodes}");
        }
    }

    #[test]
    fn eq3_matches_hand_computation() {
        // T_BS = 1500us, 5 levels at 38us, 4096 slots.
        let v = t_mult_a_slot_us(1500.0, 38.0, 5, 4096);
        assert!((v - (1500.0 + 190.0) / 20480.0).abs() < 1e-12);
    }
}
