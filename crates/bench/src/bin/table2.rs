//! Regenerates paper Table II (FPGA resource utilization) and the
//! Figure 2/3 on-chip memory layouts.
//!
//! ```sh
//! cargo run -p heap-bench --bin table2
//! ```

use heap_bench::render_table;
use heap_hw::{DesignUtilization, FpgaDevice, MemoryLayout};
use heap_math::ParamSet;

fn main() {
    let device = FpgaDevice::alveo_u280();
    let util = DesignUtilization::heap_on(&device);

    println!("Table II — HEAP hardware resource utilization on a single FPGA");
    println!("(paper-reported: LUTs 77.61%, FFs 74.26%, DSPs 68.08%, BRAM 95.24%, URAM 99.80%)\n");
    let rows: Vec<Vec<String>> = util
        .rows()
        .iter()
        .map(|r| {
            vec![
                r.resource.to_string(),
                format!("{}", r.available),
                format!("{}", r.utilized),
                format!("{:.2}", r.percent()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Resource", "Available", "Utilized", "% Utilization"],
            &rows
        )
    );
    assert!(util.fits(&device.resources), "design must fit the device");

    println!("Figures 2–3 — on-chip memory layout (N = 2^13, 6 limbs, 36-bit)");
    let m = MemoryLayout::paper();
    let n_t = ParamSet::PAPER.n_t;
    let rows = vec![
        vec![
            "RNS limb".into(),
            format!("{:.3} MB", m.limb_bytes() as f64 / 1e6),
        ],
        vec![
            "RLWE ciphertext".into(),
            format!("{:.3} MB", m.rlwe_bytes() as f64 / 1e6),
        ],
        vec![
            format!("LWE ciphertext (n_t = {n_t})"),
            format!("{:.2} KB", m.lwe_bytes(n_t) as f64 / 1e3),
        ],
        vec![
            "URAM blocks / RLWE".into(),
            format!("{}", m.uram_blocks_per_rlwe()),
        ],
        vec![
            "RLWE capacity in 960 URAM".into(),
            format!("{}", m.rlwe_capacity_uram(960)),
        ],
        vec![
            "BRAM blocks / RLWE".into(),
            format!("{}", m.bram_blocks_per_rlwe()),
        ],
        vec![
            "RLWE capacity in 3840 BRAM".into(),
            format!("{}", m.rlwe_capacity_bram(3840)),
        ],
    ];
    println!("{}", render_table(&["Quantity", "Value"], &rows));
    println!("(paper: 12 URAM/ct, 80 cts in 960 URAM; 192 BRAM/ct, 20 cts in 3840 BRAM)");
}
