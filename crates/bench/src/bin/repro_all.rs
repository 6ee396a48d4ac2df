//! Runs every table/figure reproduction and writes a machine-readable
//! summary (JSON) next to the human-readable output — the data source
//! for EXPERIMENTS.md.
//!
//! Usage: `repro_all [out.json]`.

use glaf_bench::figures::{fig5, fig6, fig7};
use glaf_bench::{ordering_agreement, print_bars};

fn main() {
    let out_path = std::env::args().nth(1);
    let experiments = vec![fig5(8, 4), fig6(8, false), fig7(2000, 16, false)];
    for e in &experiments {
        print_bars(&format!("{} — {}", e.id, e.description), &e.bars);
        println!(
            "ordering agreement with paper: {:.0}%",
            ordering_agreement(&e.bars) * 100.0
        );
    }
    if let Some(path) = out_path {
        let json = glaf_bench::experiments_to_json(&experiments);
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
    println!("\n(run repro_table1 / repro_table2 for the SLOC and variant tables)");
}
