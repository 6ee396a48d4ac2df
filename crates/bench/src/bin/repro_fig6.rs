//! Figure 6: "Speed-up of fastest GLAF-generated version (GLAF-parallel
//! v3) with varying number of threads (T) versus GLAF serial
//! implementation" — 1/2/4/8 threads on the 4-core i5-2400-class model,
//! where 8 threads oversubscribe and collapse (the paper's
//! diminishing-returns observation).
//!
//! Usage: `repro_fig6 [ncolumns]` (default 8).

use glaf_bench::{figures::fig6, ordering_agreement, print_bars};
use simcpu::MachineModel;

fn main() {
    let ncol: i64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("machine: {}   columns: {ncol}", MachineModel::i5_2400_like().name);
    let bars = fig6(ncol, true).bars;
    print_bars("Figure 6: v3 speed-up vs GLAF serial across threads", &bars);
    println!(
        "\npairwise ordering agreement with the paper: {:.0}%",
        ordering_agreement(&bars) * 100.0
    );
}
