//! Figure 5: "Speed-up of GLAF-generated versions versus the original
//! serial implementation of Synoptic SARB kernels of interest" — four
//! threads on the i5-2400-class machine model.
//!
//! Usage: `repro_fig5 [ncolumns] [threads]` (defaults 8, 4).

use glaf_bench::{figures::fig5, ordering_agreement, print_bars};
use simcpu::MachineModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ncol: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    println!(
        "machine: {}   columns: {ncol}   threads: {threads}",
        MachineModel::i5_2400_like().name
    );
    let bars = fig5(ncol, threads).bars;
    print_bars("Figure 5: speed-up vs original serial (Synoptic SARB, 4 threads)", &bars);
    println!(
        "\npairwise ordering agreement with the paper: {:.0}%",
        ordering_agreement(&bars) * 100.0
    );
}
