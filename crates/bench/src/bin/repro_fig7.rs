//! Figure 7: "16-thread parallel speed-up of GLAF-generated matrix
//! reconstruction ... with all combinations of parallelization and
//! no-reallocation options. Manual parallel version (based on
//! best-performing GLAF options), provided for comparison."
//!
//! The paper's figure shows an option matrix (colored boxes for enabled
//! options); we print the full 32-combination sweep plus the manual
//! version, with the paper's three anchor values: best GLAF 1.67x,
//! manual 3.85x, worst (fully nested) ~1/128x.
//!
//! Usage: `repro_fig7 [ncells] [threads]` (defaults 2000, 16; the paper
//! used 1M cells — linear scaling, see EXPERIMENTS.md).

use fun3d::variants::Fun3dConfig;
use glaf_bench::{figures::fig7, print_bars};
use simcpu::MachineModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ncell: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2000);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    println!(
        "machine: {}   cells: {ncell}   threads: {threads}",
        MachineModel::xeon_e5_2637v4_dual_like().name
    );

    let bars = fig7(ncell, threads, true).bars;
    let named = bars.iter().take_while(|b| b.paper.is_some()).count();
    let (anchors, matrix) = bars.split_at(named);
    print_bars("Figure 7 anchors: paper's named bars", anchors);

    println!("\nFull option matrix (speed-up vs original serial):");
    println!(
        "{:>7} {:>5} {:>5} {:>5} {:>9} | {:>10}",
        "EdgeJP", "Cell", "Edge", "IOff", "noRealloc", "speed-up"
    );
    let onoff = |b: bool| if b { "x" } else { "." };
    for (cfg, bar) in Fun3dConfig::all().into_iter().zip(matrix) {
        println!(
            "{:>7} {:>5} {:>5} {:>5} {:>9} | {:>10.4}",
            onoff(cfg.par_edgejp),
            onoff(cfg.par_cell_loop),
            onoff(cfg.par_edge_loop),
            onoff(cfg.par_ioff_search),
            onoff(cfg.no_realloc),
            bar.measured
        );
    }

    // Paper's qualitative findings, from the anchors.
    let (manual, best) = (anchors[1].measured, anchors[2].measured);
    println!("\nfindings:");
    println!(
        "  coarsest-granularity parallelism wins among GLAF configs (paper §4.2.2): best = EdgeJP+noRealloc = {best:.2}x"
    );
    println!("  manual / best-GLAF ratio: {:.2}x (paper: ~2.3x)", manual / best);
}
