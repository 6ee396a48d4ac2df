//! Table 1: "Subroutines implemented using GLAF" — SLOC per subroutine.
//!
//! The paper reports the line counts of the restricted NASA originals; we
//! report (a) our synthetic originals and (b) the GLAF-generated code
//! (serial policy). The shape to reproduce: `longwave_entropy_model`
//! dominates, `shortwave_entropy_model` is the smallest.

use glaf::sloc::{function_sloc_table, fortran_unit_sloc};
use glaf_codegen::CodegenOptions;

const PAPER: &[(&str, usize)] = &[
    ("lw_spectral_integration", 75),
    ("longwave_entropy_model", 422),
    ("sw_spectral_integration", 50),
    ("shortwave_entropy_model", 13),
    ("entropy_interface", 46),
    ("adjust2", 38),
];

fn main() {
    let original_rows = fortran_unit_sloc(sarb::original::ORIGINAL_KERNELS_SRC);
    let program = sarb::glaf_model::build_sarb_program();
    let generated_rows = function_sloc_table(&program, &CodegenOptions::serial());

    println!("Table 1: Subroutines implemented using GLAF (SLOC)");
    println!("{:-<78}", "");
    println!(
        "{:28} {:>10} {:>16} {:>16}",
        "Subroutine", "paper", "our original", "GLAF-generated"
    );
    for (name, paper) in PAPER {
        let ours = original_rows
            .iter()
            .find(|r| r.subroutine == *name)
            .map(|r| r.sloc)
            .unwrap_or(0);
        let gen = generated_rows
            .iter()
            .find(|r| r.subroutine == *name)
            .map(|r| r.sloc)
            .unwrap_or(0);
        println!("{name:28} {paper:>10} {ours:>16} {gen:>16}");
    }
    let helpers: Vec<_> = generated_rows
        .iter()
        .filter(|r| r.subroutine.starts_with("g_"))
        .collect();
    println!(
        "\n(+ {} GLAF interior-loop helper functions totaling {} SLOC — the §3.3 decomposition)",
        helpers.len(),
        helpers.iter().map(|r| r.sloc).sum::<usize>()
    );
    println!(
        "\nNote: the NASA sources are restricted; ours are structural stand-ins \
         (DESIGN.md §2). The ordering (longwave dominates, shortwave-entropy \
         smallest) is the reproduced shape."
    );
}
