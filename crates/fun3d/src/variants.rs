//! Figure 7's configuration space: "all combinations of parallelization
//! and no-reallocation options" plus the manually parallelized comparison
//! version (§4.2.2).

use std::collections::BTreeSet;
use std::sync::Arc;

use fortrans::{ArgVal, CompiledProgram, ExecMode, Session};
use glaf::Glaf;
use glaf_codegen::{CodegenOptions, DirectivePolicy};
use simcpu::{time_trace, MachineModel, SimReport};

use crate::glaf_model::build_fun3d_program;
use crate::mesh::MESH_MOD_SRC;
use crate::original::{MANUAL_JACOBIAN_SRC, ORIGINAL_JACOBIAN_SRC};

/// One GLAF configuration: which of the four nesting levels carry
/// directives, and whether the reallocation of edge_loop's temporaries is
/// eliminated (FORTRAN SAVE — the §4.2.1 adaptation, automated per the
/// §4.2.2 future-work suggestion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fun3dConfig {
    pub par_edgejp: bool,
    pub par_cell_loop: bool,
    pub par_edge_loop: bool,
    pub par_ioff_search: bool,
    pub no_realloc: bool,
    /// Apply the optimization back-end's cost-driven loop fusion before
    /// code generation (merges edge_loop's run of conformable 1..5
    /// temporaries loops). Not part of Fig. 7's option matrix.
    pub fuse: bool,
}

impl Fun3dConfig {
    pub fn any_parallel(self) -> bool {
        self.par_edgejp || self.par_cell_loop || self.par_edge_loop || self.par_ioff_search
    }

    /// Short tag like "EJP+CELL/noRA" for tables.
    pub fn tag(self) -> String {
        let mut parts = Vec::new();
        if self.par_edgejp {
            parts.push("EdgeJP");
        }
        if self.par_cell_loop {
            parts.push("Cell");
        }
        if self.par_edge_loop {
            parts.push("Edge");
        }
        if self.par_ioff_search {
            parts.push("IOff");
        }
        let levels = if parts.is_empty() { "serial".to_string() } else { parts.join("+") };
        format!(
            "{levels}{}{}",
            if self.no_realloc { " noRealloc" } else { "" },
            if self.fuse { " fused" } else { "" }
        )
    }

    /// The 32 combinations of Fig. 7's option matrix.
    pub fn all() -> Vec<Fun3dConfig> {
        let mut out = Vec::new();
        for bits in 0u8..32 {
            out.push(Fun3dConfig {
                par_edgejp: bits & 1 != 0,
                par_cell_loop: bits & 2 != 0,
                par_edge_loop: bits & 4 != 0,
                par_ioff_search: bits & 8 != 0,
                no_realloc: bits & 16 != 0,
                fuse: false,
            });
        }
        out
    }

    /// The best-performing GLAF configuration per the paper: coarsest
    /// granularity + no reallocation.
    pub fn best() -> Fun3dConfig {
        Fun3dConfig { par_edgejp: true, no_realloc: true, ..Default::default() }
    }

    /// Maps the options onto codegen: forced directives per function name
    /// plus the §4.2.1 adaptations (THREADPRIVATE on the shared cell
    /// buffers when cells run concurrently; ATOMIC on the Jacobian).
    pub fn codegen_options(self) -> CodegenOptions {
        let mut force_parallel = BTreeSet::new();
        if self.par_edgejp {
            force_parallel.insert("edgejp".to_string());
        }
        if self.par_cell_loop {
            force_parallel.insert("cell_loop".to_string());
        }
        if self.par_edge_loop {
            force_parallel.insert("edge_loop".to_string());
        }
        if self.par_ioff_search {
            force_parallel.insert("ioff_search".to_string());
        }
        let mut threadprivate = BTreeSet::new();
        if self.par_edgejp {
            threadprivate.insert("qavg".to_string());
            threadprivate.insert("grad".to_string());
        }
        let mut force_atomic = BTreeSet::new();
        if self.any_parallel() {
            force_atomic.insert("jac".to_string());
        }
        CodegenOptions {
            policy: DirectivePolicy::Serial,
            force_parallel,
            threadprivate,
            force_atomic,
            auto_save_arrays: self.no_realloc,
            atomic_updates: self.any_parallel(),
            ..CodegenOptions::serial()
        }
    }
}

/// A Figure 7 implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fun3dVariant {
    OriginalSerial,
    /// The paper's hand-parallelized comparison version.
    ManualParallel,
    Glaf(Fun3dConfig),
}

impl Fun3dVariant {
    pub fn name(self) -> String {
        match self {
            Fun3dVariant::OriginalSerial => "original serial".into(),
            Fun3dVariant::ManualParallel => "manual parallel".into(),
            Fun3dVariant::Glaf(c) => format!("GLAF {}", c.tag()),
        }
    }
}

/// The source set for a variant — the mesh partition drivers an
/// [`fortrans::ArtifactCache`] keys on.
pub fn variant_sources(variant: Fun3dVariant) -> Vec<String> {
    match variant {
        Fun3dVariant::OriginalSerial => {
            vec![MESH_MOD_SRC.to_string(), ORIGINAL_JACOBIAN_SRC.to_string()]
        }
        Fun3dVariant::ManualParallel => {
            vec![MESH_MOD_SRC.to_string(), MANUAL_JACOBIAN_SRC.to_string()]
        }
        Fun3dVariant::Glaf(cfg) => {
            let mut g = Glaf::new(build_fun3d_program()).expect("GLAF FUN3D program is valid");
            if cfg.fuse {
                let fused = g.fuse();
                assert!(!fused.is_empty(), "edge_loop's temporaries loops fuse");
            }
            let generated = g.generate(glaf::Lang::Fortran, &cfg.codegen_options());
            vec![MESH_MOD_SRC.to_string(), generated.source]
        }
    }
}

/// Compiles a variant into a shareable artifact.
pub fn build_artifact(variant: Fun3dVariant) -> Arc<CompiledProgram> {
    let sources = variant_sources(variant);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    CompiledProgram::compile(&refs)
        .unwrap_or_else(|e| panic!("{} sources compile: {e}", variant.name()))
}

/// The entry subprogram a variant's run calls after `build_mesh`.
pub fn entry_point(variant: Fun3dVariant) -> &'static str {
    entry(variant)
}

fn entry(variant: Fun3dVariant) -> &'static str {
    match variant {
        Fun3dVariant::Glaf(_) => "edgejp",
        _ => "jacobian_recon",
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Fun3dRun {
    pub variant_name: String,
    pub jac: Vec<f64>,
    pub report: SimReport,
}

/// Simulated run on `machine` with `threads`, over a fresh `ncell` mesh.
pub fn run_simulated(
    variant: Fun3dVariant,
    ncell: i64,
    threads: usize,
    machine: &MachineModel,
) -> Fun3dRun {
    let session = Session::solo(build_artifact(variant));
    session
        .run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial)
        .expect("mesh builds");
    let out = session
        .run(entry(variant), &[], ExecMode::Simulated { threads })
        .expect("variant runs");
    Fun3dRun {
        variant_name: variant.name(),
        jac: session.global_array("mesh_mod::jac").unwrap().to_f64_vec(),
        report: time_trace(&out.trace, machine),
    }
}

/// Real-thread run (correctness validation).
pub fn run_real(variant: Fun3dVariant, ncell: i64, threads: usize) -> Vec<f64> {
    let session = Session::solo(build_artifact(variant));
    session
        .run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial)
        .expect("mesh builds");
    let mode = if threads <= 1 { ExecMode::Serial } else { ExecMode::Parallel { threads } };
    session.run(entry(variant), &[], mode).expect("variant runs");
    session.global_array("mesh_mod::jac").unwrap().to_f64_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaf::compare_slices;

    const NC: i64 = 200;

    #[test]
    fn glaf_serial_matches_original_bitwise() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        let glaf = run_real(Fun3dVariant::Glaf(Fun3dConfig::default()), NC, 1);
        let r = compare_slices(&base, &glaf);
        assert_eq!(r.max_abs_diff, 0.0, "{r:?}");
    }

    /// Fusion must not change a single bit of the serial answer: the
    /// fused edge_loop interleaves only same-iteration chains.
    #[test]
    fn fused_serial_matches_original_bitwise() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        let cfg = Fun3dConfig { fuse: true, ..Default::default() };
        let fused = run_real(Fun3dVariant::Glaf(cfg), NC, 1);
        let r = compare_slices(&base, &fused);
        assert_eq!(r.max_abs_diff, 0.0, "{r:?}");
    }

    #[test]
    fn fused_parallel_passes_rms() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        let cfg = Fun3dConfig { fuse: true, ..Fun3dConfig::best() };
        let jac = run_real(Fun3dVariant::Glaf(cfg), NC, 4);
        assert!(compare_slices(&base, &jac).passes_rms(1e-7));
    }

    #[test]
    fn fusion_merges_the_edge_loop_temporaries_run() {
        let mut g = Glaf::new(build_fun3d_program()).expect("valid");
        let reports = g.fuse();
        let edge = reports
            .iter()
            .find(|r| r.function == "edge_loop")
            .expect("edge_loop has a fusable run");
        assert!(edge.fused >= 10, "ten adjacent m=1..5 loops fuse: {edge:?}");
        assert!(edge.gain_cycles > 0.0);
        let log = g.decision_log();
        let d = log
            .for_function("edge_loop")
            .into_iter()
            .find(|d| d.step_index == edge.step_index)
            .expect("fused loop has a decision record");
        let f = d.fusion.as_ref().expect("fusion rationale recorded");
        assert!(f.contains("state difference"), "{f}");
        assert!(log.render().contains("fusion: fused"), "{}", log.render());
    }

    /// The fused `edge_loop` is the gather kernel the vector and native
    /// rungs are measured on: the compiled artifact must carry a
    /// `VecLoop` in it and a Serial run must enter it — vectorized with
    /// promotion off, natively (no deopts) with eager promotion on.
    #[test]
    fn fused_edge_loop_runs_on_the_fast_rungs() {
        let cfg = Fun3dConfig { fuse: true, ..Default::default() };
        let artifact = build_artifact(Fun3dVariant::Glaf(cfg));
        assert!(
            artifact.vector_report().iter().any(|v| v.unit == "edge_loop"),
            "no VecLoop compiled in `edge_loop`"
        );
        let run = |s: &Session| {
            s.run("build_mesh", &[ArgVal::I(40)], ExecMode::Serial).unwrap();
            s.run("edgejp", &[], ExecMode::Serial).unwrap();
        };

        let vector = Session::solo(Arc::clone(&artifact));
        vector.set_native_enabled(false);
        run(&vector);
        assert!(vector.vector_entry_count() > 0, "no loop entry ran vectorized");

        let native = Session::solo(artifact);
        native.set_native_eager(true);
        run(&native);
        if fortrans::jit::available() {
            assert!(native.native_entry_count() > 0, "no loop entry ran natively");
            assert_eq!(native.native_deopt_count(), 0, "clean kernel deopted");
        }
    }

    /// `cell_loop`'s node gather (`DO m; DO k`), gradient zeroing (`DO m;
    /// DO d`) and Green-Gauss face loop (`DO m; DO d; DO f`) are short
    /// constant-trip nests: each must compile to one `VecLoop` region
    /// that covers its inner loops (`grad(1, m)`, `grad(2, m)` and
    /// `grad(3, m)` never meet), and a Serial run must enter exactly the
    /// regions the cells passing `angle_check` reach. The five `DO m`
    /// loops of the prologue fuse into one span, whose region (21
    /// statements) runs in their place.
    #[test]
    fn cell_loop_nests_run_on_the_fast_rungs() {
        let cfg = Fun3dConfig { fuse: true, ..Default::default() };
        // Per passing cell: the fused prologue; per edge `ioff_search`'s
        // masked select and the fused temporaries-and-accumulate span.
        nests_run_on_the_fast_rungs(Fun3dVariant::Glaf(cfg), "cell_loop", 1 + 6 * 2, 6);
    }

    /// `jacobian_recon` holds the same three nests inline, fused with
    /// the rest of its prologue likewise; its `edge_loop` part is ten
    /// temporaries loops, the neighbour search (which EXITs, so it stays
    /// scalar) and the accumulate, all one span whose S is the search.
    #[test]
    fn original_serial_nests_run_on_the_fast_rungs() {
        nests_run_on_the_fast_rungs(Fun3dVariant::OriginalSerial, "jacobian_recon", 1 + 6, 0);
    }

    /// `selects_per_cell` of the entries are masked selects, which the
    /// native emitter refuses: they stay on the vector rung.
    fn nests_run_on_the_fast_rungs(
        variant: Fun3dVariant,
        unit: &str,
        entries_per_cell: u64,
        selects_per_cell: u64,
    ) {
        const CELLS: usize = 40;
        let artifact = build_artifact(variant);
        let nests: Vec<usize> = artifact
            .vector_report()
            .into_iter()
            .filter(|v| v.unit == unit && v.stmts > 1)
            .map(|v| v.stmts)
            .collect();
        assert_eq!(
            nests,
            [21, 4, 3, 12],
            "fused prologue, gather, zeroing and face nest regions in `{unit}`"
        );

        let mesh = crate::mesh::Mesh::build(CELLS);
        let passing = (0..CELLS)
            .filter(|&c| {
                let adot: f64 = (0..3).map(|d| mesh.fnorm[c][0][d] * mesh.fnorm[c][1][d]).sum();
                adot >= -0.2
            })
            .count() as u64;
        assert!(passing > 0 && passing < CELLS as u64, "the mesh exercises both sides: {passing}");
        let run = |s: &Session| {
            s.run("build_mesh", &[ArgVal::I(CELLS as i64)], ExecMode::Serial).unwrap();
            let before = (s.vector_entry_count(), s.native_entry_count());
            s.run(entry(variant), &[], ExecMode::Serial).unwrap();
            (s.vector_entry_count() - before.0, s.native_entry_count() - before.1)
        };

        let vector = Session::solo(Arc::clone(&artifact));
        vector.set_native_enabled(false);
        assert_eq!(run(&vector), (passing * entries_per_cell, 0));

        let native = Session::solo(artifact);
        native.set_native_eager(true);
        let (on_vector, on_native) = run(&native);
        assert_eq!(on_vector + on_native, passing * entries_per_cell);
        assert_eq!(native.native_deopt_count(), 0, "clean kernel deopted");
        if fortrans::jit::available() {
            assert_eq!(on_vector, passing * selects_per_cell, "a region the emitter refused");
        }
    }

    #[test]
    fn no_realloc_does_not_change_results() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        let cfg = Fun3dConfig { no_realloc: true, ..Default::default() };
        let glaf = run_real(Fun3dVariant::Glaf(cfg), NC, 1);
        assert_eq!(compare_slices(&base, &glaf).max_abs_diff, 0.0);
    }

    /// The §4.2.1 acceptance test across every parallelization combo: "a
    /// reference root mean square of the output arrays that is
    /// automatically checked at a 1e-7 (absolute) tolerance ... critical
    /// when performing parallel summation".
    #[test]
    fn all_combos_pass_rms_check_with_threads() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        for cfg in Fun3dConfig::all() {
            let jac = run_real(Fun3dVariant::Glaf(cfg), NC, 4);
            let r = compare_slices(&base, &jac);
            assert!(r.passes_rms(1e-7), "{}: {r:?}", cfg.tag());
        }
    }

    #[test]
    fn manual_parallel_passes_rms() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        let jac = run_real(Fun3dVariant::ManualParallel, NC, 4);
        assert!(compare_slices(&base, &jac).passes_rms(1e-7));
    }

    #[test]
    fn simulated_combos_bit_identical_to_serial() {
        let base = run_real(Fun3dVariant::OriginalSerial, NC, 1);
        for cfg in [Fun3dConfig::default(), Fun3dConfig::best()] {
            let m = simcpu::MachineModel::xeon_e5_2637v4_dual_like();
            let run = run_simulated(Fun3dVariant::Glaf(cfg), NC, 16, &m);
            assert_eq!(compare_slices(&base, &run.jac).max_abs_diff, 0.0, "{}", cfg.tag());
        }
    }

    #[test]
    fn config_enumeration_and_tags() {
        let all = Fun3dConfig::all();
        assert_eq!(all.len(), 32);
        assert_eq!(Fun3dConfig::default().tag(), "serial");
        assert_eq!(Fun3dConfig::best().tag(), "EdgeJP noRealloc");
        let full = Fun3dConfig {
            par_edgejp: true,
            par_cell_loop: true,
            par_edge_loop: true,
            par_ioff_search: true,
            no_realloc: false,
            fuse: false,
        };
        assert_eq!(full.tag(), "EdgeJP+Cell+Edge+IOff");
        let fused = Fun3dConfig { fuse: true, ..Fun3dConfig::best() };
        assert_eq!(fused.tag(), "EdgeJP noRealloc fused");
    }

    #[test]
    fn realloc_costs_show_up_in_simulation() {
        let m = simcpu::MachineModel::xeon_e5_2637v4_dual_like();
        let with = run_simulated(Fun3dVariant::Glaf(Fun3dConfig::default()), NC, 16, &m);
        let cfg = Fun3dConfig { no_realloc: true, ..Default::default() };
        let without = run_simulated(Fun3dVariant::Glaf(cfg), NC, 16, &m);
        assert!(
            with.report.alloc_cycles > 10.0 * without.report.alloc_cycles.max(1.0),
            "realloc {} vs no-realloc {}",
            with.report.alloc_cycles,
            without.report.alloc_cycles
        );
    }
}
