//! # glaf — the end-to-end pipeline facade
//!
//! Ties the reproduction together the way the paper's Fig. 2 workflow
//! does: a program built through the GPI-equivalent builder flows through
//! the auto-parallelization back-end, the code-generation back-end, and
//! into the execution substrate:
//!
//! ```text
//! glaf_ir::Program ──validate──▶ glaf_autopar::ProgramPlan
//!        │                               │
//!        └──────── glaf_codegen ◀────────┘
//!                      │ FORTRAN source (serial / v0..v3 / cost-model)
//!                      ▼
//!              fortrans::Session  ──Simulated──▶ simcpu::SimReport
//! ```
//!
//! [`verify`] implements the paper's §4.1.1 methodology: "a code-wide
//! side-by-side comparison of the results from the execution using the
//! GLAF auto-generated subroutines, against the results from executing
//! the original code", plus the §4.2.1 RMS check at 1e-7.

pub mod ingest;
pub mod sloc;
pub mod verify;

use fortrans::Session;
use glaf_autopar::{
    analyze_program_with_log, fuse_program, CostAdvisor, DecisionLog, FusionReport, ProgramPlan,
};
use glaf_codegen::{generate_c, generate_fortran, CodegenOptions};
use glaf_ir::{validate_program, Program, ValidateError};

pub use glaf_codegen::policy::DirectivePolicy;
pub use sloc::{function_sloc_table, SlocRow};
pub use verify::{compare_slices, rms, CompareReport};

/// Target language for code generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    Fortran,
    C,
}

/// Output of one code-generation run.
#[derive(Debug, Clone)]
pub struct GeneratedCode {
    pub lang: Lang,
    pub source: String,
    /// Total source lines of code (paper Table 1 accounting).
    pub sloc: usize,
}

/// A validated GLAF program with its parallel plan.
pub struct Glaf {
    program: Program,
    plan: ProgramPlan,
    log: DecisionLog,
}

impl Glaf {
    /// Validates and analyzes a program. Returns the GPI-style diagnostics
    /// on failure.
    pub fn new(program: Program) -> Result<Glaf, Vec<ValidateError>> {
        let errs = validate_program(&program);
        if !errs.is_empty() {
            return Err(errs);
        }
        let (plan, log) = analyze_program_with_log(&program);
        Ok(Glaf { program, plan, log })
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The auto-parallelization back-end's verdicts.
    pub fn plan(&self) -> &ProgramPlan {
        &self.plan
    }

    /// The decision log behind [`Glaf::plan`]: which dependence test fired
    /// per loop, the applied clauses, and the cost advisor's verdict.
    pub fn decision_log(&self) -> &DecisionLog {
        &self.log
    }

    /// Applies the optimization back-end's cost-driven loop fusion
    /// (§2.1's "guiding the code generation" options), re-analyzes the
    /// rewritten program, and records each fusion's rationale on the
    /// fused loop's decision record. Returns one report per fusion;
    /// an empty vector means the program was left unchanged.
    pub fn fuse(&mut self) -> Vec<FusionReport> {
        let advisor = CostAdvisor::default();
        let reports = fuse_program(&mut self.program, &advisor);
        if !reports.is_empty() {
            let (plan, log) = analyze_program_with_log(&self.program);
            self.plan = plan;
            self.log = log;
            for r in &reports {
                if let Some(d) = self
                    .log
                    .loops
                    .iter_mut()
                    .find(|d| d.function == r.function && d.step_index == r.step_index)
                {
                    d.fusion =
                        Some(format!("fused {} loops [{}]: {}", r.fused, r.labels.join(" + "), r.why));
                }
            }
        }
        reports
    }

    /// Generates source code in `lang` under `opts`.
    pub fn generate(&self, lang: Lang, opts: &CodegenOptions) -> GeneratedCode {
        let source = match lang {
            Lang::Fortran => generate_fortran(&self.program, &self.plan, opts),
            Lang::C => generate_c(&self.program, &self.plan, opts),
        };
        let sloc = glaf_codegen::sloc(&source);
        GeneratedCode { lang, source, sloc }
    }

    /// Generates FORTRAN and compiles it together with the legacy sources
    /// it integrates into (existing modules, COMMON-block owners, original
    /// subroutines for comparison runs).
    pub fn compile_with(
        &self,
        opts: &CodegenOptions,
        legacy_sources: &[&str],
    ) -> Result<Session, fortrans::CompileError> {
        let generated = self.generate(Lang::Fortran, opts);
        let mut sources: Vec<&str> = legacy_sources.to_vec();
        sources.push(&generated.source);
        Session::compile(&sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrans::{ArgVal, ExecMode};
    use glaf_grid::{DataType, Grid};
    use glaf_ir::{Expr, LValue, ProgramBuilder};

    fn axpy() -> Program {
        let n = Grid::build("n").typed(DataType::Integer).finish().unwrap();
        let a = Grid::build("a").typed(DataType::Real8).dim1(64).finish().unwrap();
        let b = Grid::build("b").typed(DataType::Real8).dim1(64).finish().unwrap();
        ProgramBuilder::new()
            .module("kern")
            .subroutine("axpy")
            .param(n)
            .param(a)
            .param(b)
            .loop_step("saxpy")
            .foreach("i", Expr::int(1), Expr::scalar("n"))
            .formula(
                LValue::at("a", vec![Expr::idx("i")]),
                Expr::at("a", vec![Expr::idx("i")])
                    + Expr::at("b", vec![Expr::idx("i")]) * Expr::real(2.0),
            )
            .done()
            .done()
            .done()
            .finish()
    }

    #[test]
    fn pipeline_end_to_end() {
        let g = Glaf::new(axpy()).unwrap();
        assert_eq!(g.plan().parallel_loop_count(), 1);
        let engine = g
            .compile_with(&CodegenOptions::parallel_version(0), &[])
            .unwrap();
        let a = ArgVal::array_f(&vec![1.0; 64], 1);
        let b = ArgVal::array_f(&(0..64).map(|i| i as f64).collect::<Vec<_>>(), 1);
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 4 }] {
            engine.run("axpy", &[ArgVal::I(64), a.clone(), b.clone()], mode).unwrap();
        }
        // Two applications of a += 2b.
        let h = a.handle().unwrap();
        assert_eq!(h.get_f(10), 1.0 + 2.0 * (2.0 * 10.0));
    }

    #[test]
    fn invalid_program_rejected() {
        let mut p = axpy();
        p.modules[0].functions[0].steps.clear();
        // Reference a missing grid.
        let bad = Grid::build("ghost_user").typed(DataType::Real8).finish().unwrap();
        drop(bad);
        p.modules[0].functions[0].steps.push(glaf_ir::Step {
            label: None,
            body: glaf_ir::StepBody::Straight(vec![glaf_ir::Stmt::assign(
                LValue::scalar("ghost"),
                Expr::int(1),
            )]),
        });
        assert!(Glaf::new(p).is_err());
    }

    #[test]
    fn generated_c_and_fortran_both_nonempty() {
        let g = Glaf::new(axpy()).unwrap();
        let f = g.generate(Lang::Fortran, &CodegenOptions::serial());
        let c = g.generate(Lang::C, &CodegenOptions::serial());
        assert!(f.sloc > 5, "{}", f.source);
        assert!(c.sloc > 5, "{}", c.source);
        assert!(f.source.contains("SUBROUTINE axpy"));
        assert!(c.source.contains("void axpy"));
    }

    #[test]
    fn simulated_pipeline_produces_trace() {
        let g = Glaf::new(axpy()).unwrap();
        let engine = g
            .compile_with(&CodegenOptions::parallel_version(0), &[])
            .unwrap();
        let a = ArgVal::array_f(&vec![1.0; 64], 1);
        let b = ArgVal::array_f(&vec![1.0; 64], 1);
        let out = engine
            .run(
                "axpy",
                &[ArgVal::I(64), a, b],
                ExecMode::Simulated { threads: 4 },
            )
            .unwrap();
        assert_eq!(out.trace.region_count(), 1);
        let rep = simcpu::time_trace(&out.trace, &simcpu::MachineModel::i5_2400_like());
        assert!(rep.total_cycles > 0.0);
        assert_eq!(rep.regions, 1);
    }
}
