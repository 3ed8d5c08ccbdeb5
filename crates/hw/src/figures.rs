//! Scaling-curve generators ("figures"): the data series behind the
//! paper's scaling arguments, produced by the calibrated models —
//! bootstrap latency vs `n_br`, vs node count, key traffic vs `(d, h)`,
//! NTT throughput vs ring dimension, and the HBM key-streaming budget.

use crate::device::FpgaDevice;
use crate::keytraffic::BrkParams;
use crate::perf::{BootstrapModel, NttModel};

/// A named 2-D data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name.
    pub name: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Renders as simple CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},{}\n", self.x_label, self.y_label);
        for (x, y) in &self.points {
            out.push_str(&format!("{x},{y}\n"));
        }
        out
    }
}

/// Bootstrap latency vs packed slots (`n_br` sweep at 8 FPGAs).
pub fn bootstrap_vs_slots(model: &BootstrapModel) -> Series {
    let points = [32usize, 64, 128, 256, 512, 1024, 2048, 4096]
        .iter()
        .map(|&n| (n as f64, model.total_ms(n, 8)))
        .collect();
    Series {
        name: "bootstrap latency vs n_br (8 FPGAs)".into(),
        x_label: "n_br",
        y_label: "latency_ms",
        points,
    }
}

/// Bootstrap latency vs node count (fully packed).
pub fn bootstrap_vs_nodes(model: &BootstrapModel) -> Series {
    let points = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&n| (n as f64, model.total_ms(4096, n)))
        .collect();
    Series {
        name: "bootstrap latency vs nodes (n_br = 4096)".into(),
        x_label: "nodes",
        y_label: "latency_ms",
        points,
    }
}

/// Parallel efficiency vs node count (speedup / nodes).
pub fn scaling_efficiency(model: &BootstrapModel) -> Series {
    let base = model.total_ms(4096, 1);
    let points = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| (n as f64, base / model.total_ms(4096, n) / n as f64))
        .collect();
    Series {
        name: "parallel efficiency vs nodes".into(),
        x_label: "nodes",
        y_label: "efficiency",
        points,
    }
}

/// Blind-rotation key size vs gadget degree `d` (at `h = 1`).
pub fn key_size_vs_d() -> Series {
    let points = [1u64, 2, 3, 4, 6, 8]
        .iter()
        .map(|&d| {
            let b = BrkParams {
                d,
                ..BrkParams::paper()
            };
            (d as f64, b.total_bytes() as f64 / 1e9)
        })
        .collect();
    Series {
        name: "brk size vs decomposition degree d".into(),
        x_label: "d",
        y_label: "total_gb",
        points,
    }
}

/// NTT throughput vs ring dimension (paper datapath on the U280).
pub fn ntt_vs_ring_dim(device: &FpgaDevice) -> Series {
    let points = [10u32, 11, 12, 13, 14]
        .iter()
        .map(|&log_n| {
            let m = NttModel { n: 1usize << log_n };
            ((1u64 << log_n) as f64, m.throughput(device))
        })
        .collect();
    Series {
        name: "NTT throughput vs N".into(),
        x_label: "N",
        y_label: "ntt_per_s",
        points,
    }
}

/// Per-node HBM time to stream the blind-rotation keys once during a
/// fully-packed bootstrap (the §III-C key-traffic motivation priced in
/// time): the 1.76 GB of keys split over `nodes` devices.
pub fn key_stream_ms(device: &FpgaDevice, nodes: usize) -> f64 {
    let total = BrkParams::paper().total_bytes() as f64;
    device.hbm_transfer_seconds(total / nodes as f64) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_monotone_where_expected() {
        let m = BootstrapModel::paper();
        let s = bootstrap_vs_slots(&m);
        assert!(s.points.windows(2).all(|w| w[0].1 <= w[1].1));
        let n = bootstrap_vs_nodes(&m);
        assert!(n.points.windows(2).all(|w| w[0].1 >= w[1].1));
        let d = key_size_vs_d();
        assert!(d.points.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn efficiency_stays_high_to_eight_nodes() {
        let m = BootstrapModel::paper();
        let e = scaling_efficiency(&m);
        for &(nodes, eff) in &e.points {
            assert!(eff > 0.75, "efficiency {eff} at {nodes} nodes too low");
        }
    }

    #[test]
    fn key_streaming_fits_under_compute_when_distributed() {
        let d = FpgaDevice::alveo_u280();
        // One device reading all 1.76 GB takes longer than the 1.5 ms
        // bootstrap; across 8 devices it fits under step 3's compute.
        assert!(key_stream_ms(&d, 1) > 1.5);
        assert!(key_stream_ms(&d, 8) < 1.3303);
    }

    #[test]
    fn csv_rendering() {
        let s = Series {
            name: "t".into(),
            x_label: "x",
            y_label: "y",
            points: vec![(1.0, 2.0)],
        };
        assert_eq!(s.to_csv(), "x,y\n1,2\n");
    }
}
