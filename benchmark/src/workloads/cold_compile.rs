//! `cold_compile`: one program from source to first result, nothing
//! cached. Four ops in five are seeded two-file fixed-form F77 programs;
//! the fifth is a full GLAF pipeline run (IR build → autopar → fusion →
//! FORTRAN generation → compile → first run), cycling the five generated
//! SARB Table-2 variants and eight FUN3D configurations.

use std::sync::Arc;
use std::time::Instant;

use fortrans::{ArgVal, CompileError, CompiledProgram, ExecMode, ExecTier, Session};
use fun3d::variants::{Fun3dConfig, Fun3dVariant};
use glaf_codegen::CodegenOptions;
use sarb::variants::{SarbOutputs, SarbVariant};

use super::{refs, warm_up, Metric, OpOutcome, Setup, Workload};
use crate::check::{self, Snapshot};
use crate::spans::{totals_by_name, Recorder};

const WARM_UP_OPS: u64 = 100;
/// Distinct programs in the schedule; op `i` compiles program `i % CYCLE`.
/// Nothing is cached between ops, so a repeated program is cold again — the
/// repetitions only give each program several chances at a quiet host.
const CYCLE: u64 = 500;
/// Mesh size of the GLAF FUN3D programs' first run.
const COLD_NCELL: i64 = 40;

/// The GLAF share of the schedule, in cycling order.
#[derive(Debug, Clone, Copy)]
pub enum GlafProgram {
    Sarb(SarbVariant),
    Fun3d(Fun3dConfig),
}

pub fn glaf_programs() -> Vec<GlafProgram> {
    let sarb = [
        SarbVariant::GlafSerial,
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(1),
        SarbVariant::GlafParallel(2),
        SarbVariant::GlafParallel(3),
    ];
    let base = Fun3dConfig::default();
    let fun3d = [
        base,
        Fun3dConfig { fuse: true, ..base },
        Fun3dConfig {
            no_realloc: true,
            ..base
        },
        Fun3dConfig {
            no_realloc: true,
            fuse: true,
            ..base
        },
        Fun3dConfig {
            par_edgejp: true,
            ..base
        },
        Fun3dConfig::best(),
        Fun3dConfig {
            par_cell_loop: true,
            ..base
        },
        Fun3dConfig {
            par_edgejp: true,
            par_cell_loop: true,
            par_edge_loop: true,
            par_ioff_search: true,
            ..base
        },
    ];
    sarb.into_iter()
        .map(GlafProgram::Sarb)
        .chain(fun3d.into_iter().map(GlafProgram::Fun3d))
        .collect()
}

/// Generator seed of F77 op `i`: distinct `--seed`s draw disjoint programs.
pub fn f77_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// Artifact sizes summed over the programs of set-up's fixed warm-up ops.
#[derive(Debug, Default, Clone, Copy)]
struct Sizes {
    programs: u64,
    instrs_opt: u64,
    instrs_traced: u64,
    vecloops: u64,
    artifact_bytes: u64,
}

/// What the GLAF front end produced, summed over the 13 GLAF programs.
#[derive(Debug, Default, Clone, Copy)]
struct FrontCounts {
    ir_steps: u64,
    loops_parallel: u64,
    fusions_applied: u64,
    source_bytes: u64,
}

pub struct ColdCompile {
    seed: u64,
    glaf: Vec<GlafProgram>,
    sarb_reference: Vec<f64>,
    fun3d_reference: Vec<f64>,
    /// Summed over set-up's warm-up ops only: a fixed set of programs.
    sizes: Sizes,
    warming_up: bool,
    front: FrontCounts,
    lex_bytes: u64,
    fixed_bytes: u64,
}

impl ColdCompile {
    pub fn set_up(seed: u64, setup: &mut Setup) -> Result<ColdCompile, String> {
        let mut w = ColdCompile {
            seed,
            glaf: glaf_programs(),
            sarb_reference: setup.oracle(|| check::sarb_reference(1)).flat(),
            fun3d_reference: setup.oracle(|| check::fun3d_reference(COLD_NCELL)),
            sizes: Sizes::default(),
            warming_up: true,
            front: FrontCounts::default(),
            lex_bytes: 0,
            fixed_bytes: 0,
        };
        let rec = setup.rec;
        let front = setup.step("glaf_front".into(), || {
            w.glaf
                .iter()
                .map(|&which| replay_glaf(which, rec).map(|(_, counts)| counts))
                .collect::<Result<Vec<_>, _>>()
        })?;
        for c in front {
            w.front.ir_steps += c.ir_steps;
            w.front.loops_parallel += c.loops_parallel;
            w.front.fusions_applied += c.fusions_applied;
            w.front.source_bytes += c.source_bytes;
        }
        warm_up(&mut w, 0..WARM_UP_OPS, 20, setup)?;
        w.warming_up = false;
        Ok(w)
    }

    fn note_artifact(&mut self, artifact: &CompiledProgram) {
        if !self.warming_up {
            return;
        }
        let (opt, traced) = (artifact.bytecode(false), artifact.bytecode(true));
        self.sizes.programs += 1;
        self.sizes.instrs_opt += opt.iter().map(|u| u.code.len() as u64).sum::<u64>();
        self.sizes.instrs_traced += traced.iter().map(|u| u.code.len() as u64).sum::<u64>();
        self.sizes.vecloops += opt.iter().map(|u| u.vecs.len() as u64).sum::<u64>();
        self.sizes.artifact_bytes += artifact.estimated_bytes() as u64;
    }

    /// Replays `CompiledProgram::compile`'s stage sequence through the
    /// public stage functions, one span per stage, results dropped.
    fn replay_compile(&mut self, sources: &[&str], rec: &Recorder) -> Result<(), CompileError> {
        let bytes: u64 = sources.iter().map(|s| s.len() as u64).sum();
        let ast = if sources.iter().any(|s| fortrans::is_fixed_form(s)) {
            self.fixed_bytes += bytes;
            let ast = rec
                .span("fixedform.ingest", || {
                    fortrans::ProgramSet::from_sources(sources)
                })?
                .ast;
            rec.span("glaf.lift", || glaf::ingest::lift_ast(&ast, "ingested"));
            ast
        } else {
            self.lex_bytes += bytes;
            rec.span("lex", || {
                sources
                    .iter()
                    .try_for_each(|s| fortrans::lex::lex(s).map(drop))
            })?;
            rec.span("parse", || {
                let mut ast = fortrans::ast::Ast::default();
                for s in sources {
                    ast.modules.append(&mut fortrans::parse::parse(s)?.modules);
                }
                Ok::<_, CompileError>(ast)
            })?
        };
        let prog = rec.span("sema.resolve", || fortrans::sema::resolve(&ast))?;
        for (traced, lower, verify) in [
            (false, "bytecode.lower_opt", "verify.opt"),
            (true, "bytecode.lower_traced", "verify.traced"),
        ] {
            let bunits = rec.span(lower, || fortrans::bytecode::compile_program(&prog, traced));
            rec.span(verify, || fortrans::verify::verify_program(&prog, &bunits))?;
        }
        Ok(())
    }

    /// Source → artifact → fresh session, the part every program shares.
    fn compile(
        &mut self,
        sources: &[&str],
        rec: &Recorder,
    ) -> Result<(Arc<CompiledProgram>, Session), String> {
        let artifact = rec
            .span("compile.total", || CompiledProgram::compile(sources))
            .map_err(|e| format!("compile failed: {e}"))?;
        let session = rec.span("session.new", || Session::solo(Arc::clone(&artifact)));
        Ok((artifact, session))
    }

    fn f77_op(&mut self, i: u64, rec: &Recorder) -> OpOutcome {
        let sources = fortrans::gen::generate(f77_seed(self.seed, i));
        let sources = refs(&sources);
        let t = Instant::now();
        let ran = (|| {
            if rec.enabled() {
                self.replay_compile(&sources, rec)
                    .map_err(|e| format!("stage replay failed: {e}"))?;
            }
            let (artifact, session) = self.compile(&sources, rec)?;
            let run = rec.span("session.run", || session.run("main", &[], ExecMode::Serial));
            Ok::<_, String>((artifact, session, run))
        })();
        let timed = t.elapsed();
        let check = ran.and_then(|(artifact, session, run)| {
            self.note_artifact(&artifact);
            let got = Snapshot::capture(
                &session,
                run.map(|out| (out.result, out.printed))
                    .map_err(|e| e.to_string()),
            );
            let want = Snapshot::run_main(&Session::solo(artifact), ExecTier::TreeWalk);
            got.matches(&want)
        });
        OpOutcome { timed, check }
    }

    fn glaf_op(&mut self, which: GlafProgram, rec: &Recorder) -> OpOutcome {
        let t = Instant::now();
        let ran = (|| {
            let sources = match which {
                GlafProgram::Sarb(v) => sarb::variants::variant_sources(v),
                GlafProgram::Fun3d(cfg) => {
                    fun3d::variants::variant_sources(Fun3dVariant::Glaf(cfg))
                }
            };
            if rec.enabled() {
                let (generated, _) = replay_glaf(which, rec)?;
                if !sources.contains(&generated) {
                    return Err(
                        "stage replay generated different FORTRAN than variant_sources".into(),
                    );
                }
                self.replay_compile(&refs(&sources), rec)
                    .map_err(|e| format!("stage replay failed: {e}"))?;
            }
            let (artifact, session) = self.compile(&refs(&sources), rec)?;
            rec.span("session.run", || match which {
                GlafProgram::Sarb(_) => {
                    super::sarb_warm::run_columns(&session, 1, ExecMode::Serial, ExecTier::Vm)
                }
                GlafProgram::Fun3d(_) => session
                    .run("build_mesh", &[ArgVal::I(COLD_NCELL)], ExecMode::Serial)
                    .and_then(|_| session.run("edgejp", &[], ExecMode::Serial))
                    .map(drop)
                    .map_err(|e| format!("first run failed: {e}")),
            })?;
            Ok::<_, String>((artifact, session))
        })();
        let timed = t.elapsed();
        let check = ran.and_then(|(artifact, session)| {
            self.note_artifact(&artifact);
            let (what, got, want) = match which {
                GlafProgram::Sarb(_) => (
                    "sarb outputs",
                    SarbOutputs::read(&session).flat(),
                    &self.sarb_reference,
                ),
                GlafProgram::Fun3d(_) => (
                    "mesh_mod::jac",
                    check::read_jac(&session),
                    &self.fun3d_reference,
                ),
            };
            if got.len() == want.len() {
                rec.span("glaf.compare", || glaf::compare_slices(&got, want));
            }
            check::bits_equal(what, &got, want)
        });
        OpOutcome { timed, check }
    }
}

/// Replays the GLAF front end (what `variant_sources` does inside) stage by
/// stage; returns the generated FORTRAN and what the stages produced.
fn replay_glaf(which: GlafProgram, rec: &Recorder) -> Result<(String, FrontCounts), String> {
    let (mut program, opts, fuse) = match which {
        GlafProgram::Sarb(v) => {
            let opts = match v {
                SarbVariant::GlafParallel(k) => CodegenOptions::parallel_version(k),
                _ => CodegenOptions {
                    atomic_updates: false,
                    ..CodegenOptions::serial()
                },
            };
            (
                rec.span("glaf_ir.build", sarb::glaf_model::build_sarb_program),
                opts,
                false,
            )
        }
        GlafProgram::Fun3d(cfg) => (
            rec.span("glaf_ir.build", fun3d::glaf_model::build_fun3d_program),
            cfg.codegen_options(),
            cfg.fuse,
        ),
    };
    let errs = rec.span("glaf_ir.validate", || glaf_ir::validate_program(&program));
    if !errs.is_empty() {
        return Err(format!("GLAF program failed validation: {errs:?}"));
    }
    let mut counts = FrontCounts::default();
    let mut plan = rec
        .span("autopar.analyze", || {
            glaf_autopar::analyze_program_with_log(&program)
        })
        .0;
    if fuse {
        let reports = rec.span("autopar.fuse", || {
            glaf_autopar::fuse_program(&mut program, &glaf_autopar::CostAdvisor::default())
        });
        counts.fusions_applied = reports.len() as u64;
        plan = rec
            .span("autopar.analyze", || {
                glaf_autopar::analyze_program_with_log(&program)
            })
            .0;
    }
    let source = rec.span("codegen.fortran", || {
        glaf_codegen::generate_fortran(&program, &plan, &opts)
    });
    counts.ir_steps = program
        .modules
        .iter()
        .flat_map(|m| &m.functions)
        .map(|f| f.steps.len() as u64)
        .sum();
    counts.loops_parallel = plan.parallel_loop_count() as u64;
    counts.source_bytes = source.len() as u64;
    Ok((source, counts))
}

impl Workload for ColdCompile {
    fn first_op(&self) -> u64 {
        WARM_UP_OPS
    }

    fn cycle(&self) -> u64 {
        CYCLE
    }

    fn op(&mut self, i: u64, rec: &Recorder) -> OpOutcome {
        let i = i % CYCLE;
        let mut out = if i % 5 == 4 {
            let which = self.glaf[(i / 5) as usize % self.glaf.len()];
            self.glaf_op(which, rec)
        } else {
            self.f77_op(i, rec)
        };
        out.check = out.check.map_err(|e| format!("program {i}: {e}"));
        out
    }

    fn counts(&self) -> Vec<(String, f64)> {
        let s = &self.sizes;
        vec![
            ("warmup_programs".into(), s.programs as f64),
            ("bytecode_instrs_opt".into(), s.instrs_opt as f64),
            ("bytecode_instrs_traced".into(), s.instrs_traced as f64),
            ("bytecode_vecloops".into(), s.vecloops as f64),
            ("artifact_bytes".into(), s.artifact_bytes as f64),
            (
                "autopar_loops_parallel".into(),
                self.front.loops_parallel as f64,
            ),
            (
                "autopar_fusions_applied".into(),
                self.front.fusions_applied as f64,
            ),
        ]
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let totals = totals_by_name(&rec.spans());
        // Mean self time per program that passed through the stage.
        let us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let mb_per_s = |bytes: u64, name: &str| bytes as f64 / 1e6 / (total_ns(name) / 1e9);
        let staged: f64 = [
            "fixedform.ingest",
            "parse",
            "sema.resolve",
            "bytecode.lower_opt",
            "verify.opt",
            "bytecode.lower_traced",
            "verify.traced",
        ]
        .iter()
        .map(|n| total_ns(n))
        .sum();
        let s = &self.sizes;
        let per_program = |v: u64| v as f64 / s.programs.max(1) as f64;
        let f = &self.front;
        let per_glaf = |v: u64| v as f64 / self.glaf.len() as f64;
        vec![
            ("glaf_ir.build_us".into(), us("glaf_ir.build")),
            ("glaf_ir.validate_us".into(), us("glaf_ir.validate")),
            ("glaf_ir.steps".into(), per_glaf(f.ir_steps)),
            ("autopar.analyze_us".into(), us("autopar.analyze")),
            ("autopar.fuse_us".into(), us("autopar.fuse")),
            ("autopar.loops_parallel".into(), per_glaf(f.loops_parallel)),
            ("autopar.fusions_applied".into(), f.fusions_applied as f64),
            ("codegen.fortran_us".into(), us("codegen.fortran")),
            ("codegen.source_bytes".into(), per_glaf(f.source_bytes)),
            ("glaf.lift_us".into(), us("glaf.lift")),
            ("glaf.compare_us".into(), us("glaf.compare")),
            ("lex.us".into(), us("lex")),
            ("lex.mb_per_s".into(), mb_per_s(self.lex_bytes, "lex")),
            // `parse` lexes internally; its own share is what is left.
            ("parse.us".into(), us("parse") - us("lex")),
            ("sema.resolve_us".into(), us("sema.resolve")),
            ("fixedform.ingest_us".into(), us("fixedform.ingest")),
            (
                "fixedform.mb_per_s".into(),
                mb_per_s(self.fixed_bytes, "fixedform.ingest"),
            ),
            ("bytecode.lower_opt_us".into(), us("bytecode.lower_opt")),
            (
                "bytecode.lower_traced_us".into(),
                us("bytecode.lower_traced"),
            ),
            ("bytecode.instrs_opt".into(), per_program(s.instrs_opt)),
            (
                "bytecode.instrs_traced".into(),
                per_program(s.instrs_traced),
            ),
            ("bytecode.vecloops".into(), per_program(s.vecloops)),
            ("verify.opt_us".into(), us("verify.opt")),
            ("verify.traced_us".into(), us("verify.traced")),
            ("compile.total_us".into(), us("compile.total")),
            (
                "compile.unattributed_share".into(),
                1.0 - staged / total_ns("compile.total"),
            ),
            (
                "compile.artifact_bytes".into(),
                per_program(s.artifact_bytes),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_mixes_thirteen_glaf_programs() {
        assert_eq!(f77_seed(5, 17), f77_seed(5, 17));
        // Distinct seeds draw disjoint generator seeds over a whole cycle.
        let a: Vec<u64> = (0..CYCLE).map(|i| f77_seed(1, i)).collect();
        assert!((0..CYCLE).all(|i| !a.contains(&f77_seed(2, i))));
        let glaf = glaf_programs();
        assert_eq!(glaf.len(), 13);
        assert_eq!(
            glaf.iter()
                .filter(|p| matches!(p, GlafProgram::Sarb(_)))
                .count(),
            5
        );
        // One op in five is a GLAF program, and a cycle visits each of them.
        assert_eq!((0..CYCLE).filter(|i| i % 5 == 4).count() as u64, CYCLE / 5);
        assert!(CYCLE / 5 >= glaf.len() as u64);
    }
}
