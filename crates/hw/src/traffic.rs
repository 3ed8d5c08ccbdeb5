//! Main-memory (HBM) traffic model per homomorphic operation.
//!
//! FHE accelerators are bandwidth-bound: the paper's §III-C key-size
//! argument and §IV's datapath choices are all about bytes moved. This
//! module prices the HBM traffic of each CKKS/TFHE operation from the
//! memory layout, and derives the *bandwidth-bound* latency floor — the
//! time the operation would take if compute were free — which the
//! calibrated [`crate::perf::OpTimings`] must dominate (asserted in
//! tests: compute-bound ops sit above their bandwidth floor).

use heap_math::ParamSet;

use crate::device::FpgaDevice;
use crate::keytraffic::BrkParams;
use crate::memory::MemoryLayout;

/// HBM bytes moved by one operation (reads + writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTraffic {
    /// Operation name.
    pub op: &'static str,
    /// Bytes read from HBM.
    pub read: u64,
    /// Bytes written to HBM.
    pub written: u64,
}

impl OpTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.read + self.written
    }

    /// The bandwidth-bound latency floor on a device (ms).
    pub fn floor_ms(&self, device: &FpgaDevice) -> f64 {
        device.hbm_transfer_seconds(self.total() as f64) * 1e3
    }
}

/// Traffic of the basic CKKS ops at a memory layout (ciphertexts stream
/// in and out; keys stream in for key-switching ops).
pub fn ckks_traffic(layout: &MemoryLayout) -> Vec<OpTraffic> {
    let ct = layout.rlwe_bytes();
    // One key-switch key component set: (L+1) components × 2 polys over
    // the full chain (L+2 limbs).
    let limbs = layout.limbs as u64;
    let ksk = (limbs + 1) * 2 * (limbs + 2) * layout.limb_bytes();
    vec![
        OpTraffic {
            op: "Add",
            read: 2 * ct,
            written: ct,
        },
        OpTraffic {
            op: "Mult",
            read: 2 * ct + ksk,
            written: ct,
        },
        OpTraffic {
            op: "Rescale",
            read: ct,
            written: ct,
        },
        OpTraffic {
            op: "Rotate",
            read: ct + ksk,
            written: ct,
        },
    ]
}

/// Traffic of one fully-packed scheme-switched bootstrap: the dominant
/// term is streaming the blind-rotation keys once (§IV-E: "we do not need
/// to read the same key again").
///
/// The software follows the same key-major schedule but in tiles: a
/// worker rotating a chunk of LWEs streams the key — the same bytes this
/// model counts, with no precomputed companion, like HEAP's Barrett units
/// — once per tile of `heap-core`'s `TILE = 8` accumulators, i.e.
/// `ceil(chunk / TILE)` times per batch against this model's once.
pub fn bootstrap_traffic(layout: &MemoryLayout, brk: &BrkParams, n_br: u64) -> OpTraffic {
    let lwes_in = n_br * layout.lwe_bytes(ParamSet::PAPER.n_t);
    let results_out = n_br * 2 * layout.limb_bytes();
    OpTraffic {
        op: "Bootstrap",
        read: brk.total_bytes() + lwes_in,
        written: results_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::OpTimings;

    #[test]
    fn calibrated_timings_dominate_bandwidth_floors() {
        // Compute-bound design: every measured op must take at least its
        // HBM floor (otherwise the calibration would be unphysical).
        let device = FpgaDevice::alveo_u280();
        let layout = MemoryLayout::paper();
        let timings = OpTimings::heap_single_fpga();
        let by_name = |n: &str| -> f64 {
            match n {
                "Add" => timings.add_ms,
                "Mult" => timings.mult_ms,
                "Rescale" => timings.rescale_ms,
                "Rotate" => timings.rotate_ms,
                _ => unreachable!(),
            }
        };
        for t in ckks_traffic(&layout) {
            let floor = t.floor_ms(&device);
            let measured = by_name(t.op);
            assert!(
                measured >= floor * 0.3,
                "{}: measured {measured} ms vs floor {floor} ms",
                t.op
            );
        }
    }

    #[test]
    fn bootstrap_traffic_is_key_dominated() {
        let layout = MemoryLayout::paper();
        let brk = BrkParams::paper();
        let t = bootstrap_traffic(&layout, &brk, 4096);
        // >90% of the read traffic is blind-rotation keys.
        assert!(brk.total_bytes() as f64 / t.read as f64 > 0.9);
        // Distributed over 8 devices, the per-node floor fits inside the
        // 1.33 ms step-3 window.
        let device = FpgaDevice::alveo_u280();
        let per_node_floor = device.hbm_transfer_seconds(t.total() as f64 / 8.0) * 1e3;
        assert!(per_node_floor < 1.3303, "floor {per_node_floor} ms");
    }

    #[test]
    fn conventional_key_traffic_would_not_fit() {
        // The §III-C contrast: 32 GB of conventional keys cannot stream
        // through 8 × 460 GB/s inside FAB's 143 ms bootstrap window ×
        // anything like HEAP's 1.5 ms budget.
        let device = FpgaDevice::alveo_u280();
        let conv_ms = device.hbm_transfer_seconds(32e9 / 8.0) * 1e3;
        assert!(conv_ms > 5.0, "conventional keys stream in {conv_ms} ms");
        let brk_ms =
            device.hbm_transfer_seconds(BrkParams::paper().total_bytes() as f64 / 8.0) * 1e3;
        assert!(
            conv_ms / brk_ms > 15.0,
            "traffic ratio {}",
            conv_ms / brk_ms
        );
    }
}
