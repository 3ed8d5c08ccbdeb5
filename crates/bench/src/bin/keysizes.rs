//! Regenerates the paper's §III-C key-traffic analysis: blind-rotation
//! key sizes, conventional CKKS bootstrapping key traffic, the ~18×
//! reduction, and the d/h scaling ablation.
//!
//! ```sh
//! cargo run -p heap-bench --bin keysizes
//! ```

use heap_bench::render_table;
use heap_hw::keytraffic::{brk_bytes_for, key_traffic_reduction, BrkParams, ConventionalKeys};
use heap_math::ParamSet;

fn main() {
    let brk = BrkParams::paper();
    let conv = ConventionalKeys::paper();

    println!("§III-C — bootstrapping key traffic\n");
    let rows = vec![
        vec![
            "GGSW blind-rotation key".to_string(),
            format!("{:.2} MB", brk.key_bytes() as f64 / 1e6),
            "3.52 MB".to_string(),
        ],
        vec![
            format!("Total brk ({} keys)", ParamSet::PAPER.n_t),
            format!("{:.2} GB", brk.total_bytes() as f64 / 1e9),
            "1.76 GB".to_string(),
        ],
        vec![
            "Conventional CKKS key".to_string(),
            format!("{:.0} MB", conv.key_bytes as f64 / 1e6),
            "126 MB".to_string(),
        ],
        vec![
            "Conventional total reads".to_string(),
            format!("{:.0} GB", conv.total_bytes as f64 / 1e9),
            "~32 GB".to_string(),
        ],
        vec![
            "Key-traffic reduction".to_string(),
            format!("{:.1}x", key_traffic_reduction(&brk, &conv)),
            "~18x".to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["Quantity", "Computed", "Paper"], &rows)
    );

    println!("\nScaling with the gadget degree d and GLWE mask h (why the paper pins d=2, h=1):");
    let mut rows = Vec::new();
    for (d, h) in [(2u64, 1u64), (4, 1), (8, 1), (2, 2), (2, 3)] {
        rows.push(vec![
            format!("d = {d}, h = {h}"),
            format!("{:.2} GB", brk_bytes_for(d, h) as f64 / 1e9),
        ]);
    }
    println!(
        "{}",
        render_table(&["Configuration", "Total brk size"], &rows)
    );
}
