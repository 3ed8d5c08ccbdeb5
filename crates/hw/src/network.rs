//! Multi-FPGA interconnect model: the 100G Ethernet (CMAC) subsystem
//! (paper §V).
//!
//! FPGAs exchange ciphertexts without host involvement over a 512-bit
//! interface to the CMAC core at 322 MHz. The primary scatters LWE batches
//! secondary-by-secondary and secondaries stream results back as soon as
//! their blind rotations finish, so communication overlaps compute and the
//! network never becomes the bottleneck — this module prices both the raw
//! transfers and the overlapped schedule.

/// The CMAC link model.
#[derive(Debug, Clone, Copy)]
pub struct CmacLink {
    /// Line rate in bits/second (100 Gb/s).
    pub line_rate: f64,
    /// CMAC core clock in Hz (322 MHz).
    pub core_hz: f64,
    /// Kernel-side interface width in bits (512).
    pub if_width_bits: u32,
}

/// Interface cycles the paper reports for streaming one blind-rotation
/// result ciphertext between FPGAs (§V: "about 458 clock cycles to
/// transmit an entire RLWE ciphertext for our chosen parameter set").
pub const RESULT_TRANSFER_CYCLES: u64 = 458;

impl CmacLink {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            line_rate: 100.0e9,
            core_hz: 322.0e6,
            if_width_bits: 512,
        }
    }

    /// Interface cycles to push `bytes` through the 512-bit port.
    pub fn cycles_for_bytes(&self, bytes: u64) -> u64 {
        (bytes * 8).div_ceil(self.if_width_bits as u64)
    }

    /// Seconds to transfer `bytes` (limited by the interface clock; the
    /// 512b × 322 MHz port feeds 100G with headroom for framing).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.cycles_for_bytes(bytes) as f64 / self.core_hz
    }

    /// Seconds to stream one blind-rotation result back to the primary,
    /// using the paper's measured 458-cycle figure.
    pub fn result_transfer_seconds(&self) -> f64 {
        RESULT_TRANSFER_CYCLES as f64 / self.core_hz
    }
}

/// Overlapped scatter/compute/gather schedule across one primary and
/// `nodes - 1` secondaries.
#[derive(Debug, Clone, Copy)]
pub struct OverlapSchedule {
    /// Per-node compute time (seconds).
    pub compute_s: f64,
    /// Time to scatter one node's input batch (seconds).
    pub scatter_s: f64,
    /// Time to gather one node's result batch (seconds).
    pub gather_s: f64,
    /// Total node count (including the primary).
    pub nodes: usize,
}

impl OverlapSchedule {
    /// End-to-end time with the paper's pipelined schedule: the primary
    /// sends all ciphertexts for one secondary before the next (§V), each
    /// secondary computes as soon as its batch lands, and results stream
    /// back on completion. With compute ≫ transfer, the critical path is
    /// the last-fed secondary: all scatters, then its compute, then its
    /// gather.
    pub fn total_seconds(&self) -> f64 {
        if self.nodes <= 1 {
            return self.compute_s;
        }
        let secondaries = (self.nodes - 1) as f64;
        let feed_all = secondaries * self.scatter_s;
        // Primary computes its own batch while feeding; the last secondary
        // starts after all scatters. Results stream back as soon as each
        // blind rotation completes (§V), so the gather overlaps compute and
        // only the longer of the two is on the critical path.
        let last_secondary_done = feed_all + self.compute_s.max(self.gather_s);
        let primary_done = self.compute_s.max(feed_all);
        last_secondary_done.max(primary_done)
    }

    /// Whether communication is hidden behind compute (the paper's claim
    /// that "no FPGA is sitting idle").
    pub fn communication_hidden(&self) -> bool {
        let secondaries = (self.nodes.saturating_sub(1)) as f64;
        secondaries * self.scatter_s + self.gather_s <= self.compute_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryLayout;
    use heap_math::ParamSet;

    #[test]
    fn rlwe_transfer_cycle_count() {
        let link = CmacLink::paper();
        let m = MemoryLayout::paper();
        // Transferring one boot-basis accumulator limb pair: the paper
        // quotes 458 cycles for "an entire RLWE ciphertext"; a single-limb
        // RLWE pair (2 × 8192 × 36 bits) takes 1152 interface cycles, and
        // 458 cycles moves ~29 KB — the blind-rotation result payload per
        // ciphertext after packing the useful coefficient data.
        let one_limb_pair = 2 * m.limb_bytes();
        assert_eq!(link.cycles_for_bytes(one_limb_pair), 1152);
        let lwe = m.lwe_bytes(ParamSet::PAPER.n_t);
        assert!(link.cycles_for_bytes(lwe) <= 36);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let link = CmacLink::paper();
        let t1 = link.transfer_seconds(1 << 20);
        let t2 = link.transfer_seconds(1 << 21);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn overlap_hides_communication_at_paper_scale() {
        let link = CmacLink::paper();
        let m = MemoryLayout::paper();
        // 512 LWEs in, 512 result streams back per secondary (the paper's
        // 458-cycle result payload).
        let scatter = link.transfer_seconds(512 * m.lwe_bytes(ParamSet::PAPER.n_t));
        let gather = 512.0 * link.result_transfer_seconds();
        let schedule = OverlapSchedule {
            compute_s: 1.3303e-3, // step-3 time per node (Table/§VI-E)
            scatter_s: scatter,
            gather_s: gather,
            nodes: 8,
        };
        assert!(
            schedule.communication_hidden(),
            "scatter {scatter}, gather {gather}"
        );
        // Total stays close to pure compute: the only exposed communication
        // is the serial scatter before the last secondary starts (~0.4 ms
        // of LWE feeds), well under one batch of compute.
        assert!(schedule.total_seconds() < 1.3303e-3 * 1.35);
        assert!(schedule.total_seconds() >= 1.3303e-3);
    }

    #[test]
    fn single_node_is_pure_compute() {
        let s = OverlapSchedule {
            compute_s: 1.0,
            scatter_s: 9.0,
            gather_s: 9.0,
            nodes: 1,
        };
        assert_eq!(s.total_seconds(), 1.0);
    }
}
