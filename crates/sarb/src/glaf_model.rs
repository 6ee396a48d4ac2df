//! The Synoptic SARB kernels **as a GLAF program**: the same six
//! subroutines re-implemented through the GPI-equivalent builder, with the
//! structure GLAF enforces (paper §3.3: "GLAF requires that interior
//! nested loops be modeled as a separate function call") and the legacy
//! bindings of §3:
//!
//! * `fi%...` / `fo%...` grids are **elements of existing TYPE variables**
//!   (§3.5) from `fuliou_mod`;
//! * `u0`, `ee`, `tsfc` live in the **COMMON block** `/radparams/` (§3.2);
//! * the per-band scratch buffers `bf`, `trn`, `swdir` and the smoothing
//!   buffer `work` are **module-scope variables** of the generated module
//!   (§3.3) — interior-loop functions write them, the outer scope reads
//!   them;
//! * every subprogram is a **SUBROUTINE** (§3.4) except `g_ent_band`,
//!   which returns a value and exercises the FUNCTION path.
//!
//! The arithmetic matches `original.rs` operation-for-operation, so the
//! serial engine executions are bit-identical — the §4.1.1 verification
//! test.

use glaf_grid::{DataType, Grid};
use glaf_ir::{Expr, LValue, LibFunc, Program, ProgramBuilder, Stmt};

use crate::legacy::SIGMA;

const NV: i64 = 60;
const NVP: i64 = 61;
const NBLW: i64 = 12;
const NBSW: i64 = 6;

fn ix(v: &str) -> Expr {
    Expr::idx(v)
}

fn n(v: i64) -> Expr {
    Expr::int(v)
}

fn r(v: f64) -> Expr {
    Expr::real(v)
}

fn s(name: &str) -> Expr {
    Expr::scalar(name)
}

fn at1(g: &str, i: Expr) -> Expr {
    Expr::at(g, vec![i])
}

fn at2(g: &str, i: Expr, j: Expr) -> Expr {
    Expr::at(g, vec![i, j])
}

fn lmax(a: Expr, b: Expr) -> Expr {
    Expr::lib(LibFunc::Max, vec![a, b])
}

fn lmin(a: Expr, b: Expr) -> Expr {
    Expr::lib(LibFunc::Min, vec![a, b])
}

fn lexp(a: Expr) -> Expr {
    Expr::lib(LibFunc::Exp, vec![a])
}

fn lalog(a: Expr) -> Expr {
    Expr::lib(LibFunc::Alog, vec![a])
}

fn labs(a: Expr) -> Expr {
    Expr::lib(LibFunc::Abs, vec![a])
}

// --- grid constructors for the legacy bindings ---

fn fi(name: &str, dims: &[(i64, i64)]) -> Grid {
    let mut b = Grid::build(name).typed(DataType::Real8);
    for &(lo, hi) in dims {
        b = b.dim(lo, hi);
    }
    b.type_element("fuliou_mod", "fi").finish().unwrap()
}

fn fo(name: &str, dims: &[(i64, i64)]) -> Grid {
    let mut b = Grid::build(name).typed(DataType::Real8);
    for &(lo, hi) in dims {
        b = b.dim(lo, hi);
    }
    b.type_element("fuliou_mod", "fo").finish().unwrap()
}

fn common(name: &str) -> Grid {
    Grid::build(name)
        .typed(DataType::Real8)
        .in_common_block("radparams")
        .finish()
        .unwrap()
}

fn module_arr(name: &str, dims: &[(i64, i64)]) -> Grid {
    let mut b = Grid::build(name).typed(DataType::Real8);
    for &(lo, hi) in dims {
        b = b.dim(lo, hi);
    }
    b.module_scope().comment("GLAF module-scope work buffer (§3.3)").finish().unwrap()
}

fn local_f(name: &str) -> Grid {
    Grid::build(name).typed(DataType::Real8).finish().unwrap()
}

fn param_i(name: &str) -> Grid {
    Grid::build(name).typed(DataType::Integer).finish().unwrap()
}

fn param_f(name: &str) -> Grid {
    Grid::build(name).typed(DataType::Real8).finish().unwrap()
}

/// Builds the full GLAF program for the SARB kernels.
pub fn build_sarb_program() -> Program {
    let sigma = r(SIGMA);

    let b = ProgramBuilder::new().module("sarb_kernels");

    // Global Scope: legacy bindings + module-scope buffers.
    let b = b
        .global(fi("pt", &[(1, NV)]))
        .global(fi("ph", &[(1, NV)]))
        .global(fi("tau_lw", &[(1, NBLW), (1, NV)]))
        .global(fi("tau_sw", &[(1, NBSW), (1, NV)]))
        .global(fo("fdl", &[(1, NVP)]))
        .global(fo("ful", &[(1, NVP)]))
        .global(fo("fds", &[(1, NVP)]))
        .global(fo("fus", &[(1, NVP)]))
        .global(fo("entl", &[(1, 2), (1, NV)]))
        .global(fo("ents", &[(1, NV)]))
        .global(fo("sent", &[]))
        .global(fo("toa_net", &[]))
        .global(common("u0"))
        .global(common("ee"))
        .global(common("tsfc"))
        .global(module_arr("bf", &[(1, NV)]))
        .global(module_arr("trn", &[(1, NV)]))
        .global(module_arr("swdir", &[(1, NV)]))
        .global(module_arr("lwork", &[(1, 2), (1, NV)]));

    // ---- interior-loop functions of lw_spectral_integration (§3.3) ----

    // bf(i) = wgt(ib) * sigma * pt(i)^4 * exp(-1.4388*wn(ib)/pt(i))
    let b = b
        .subroutine("g_lw_emis")
        .param(param_i("ibnd"))
        .loop_step("band emission")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("bf", vec![ix("i")]),
            (r(1.0) / (r(1.0) + r(0.1) * s("ibnd")))
                * sigma.clone()
                * at1("pt", ix("i")).pow(n(4))
                * lexp(-(r(1.4388) * (r(100.0) + r(50.0) * s("ibnd"))) / at1("pt", ix("i"))),
        )
        .done()
        .done();

    let b = b
        .subroutine("g_lw_trn")
        .param(param_i("ibnd"))
        .loop_step("band transmittance")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("trn", vec![ix("i")]),
            lexp(-at2("tau_lw", s("ibnd"), ix("i"))),
        )
        .done()
        .done();

    let b = b
        .subroutine("g_lw_dn")
        .loop_step("downwelling accumulation")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("fdl", vec![ix("i") + n(1)]),
            at1("fdl", ix("i") + n(1)) + at1("bf", ix("i")) * (r(1.0) - at1("trn", ix("i"))),
        )
        .done()
        .done();

    let b = b
        .subroutine("g_lw_up")
        .loop_step("upwelling accumulation")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("ful", vec![ix("i")]),
            at1("ful", ix("i"))
                + s("ee") * at1("bf", ix("i")) * at1("trn", ix("i"))
                + (r(1.0) - s("ee")) * r(0.3) * at1("bf", ix("i")),
        )
        .done()
        .done();

    // ---- lw_spectral_integration ----
    let b = b
        .subroutine("lw_spectral_integration")
        .loop_step("zero downwelling flux")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("fdl", vec![ix("i")]), r(0.0))
        .done()
        .loop_step("zero upwelling flux")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("ful", vec![ix("i")]), r(0.0))
        .done()
        .loop_step("loop over longwave bands")
        .foreach("ib", n(1), n(NBLW))
        .stmt(Stmt::CallSub { name: "g_lw_emis".into(), args: vec![ix("ib")] })
        .stmt(Stmt::CallSub { name: "g_lw_trn".into(), args: vec![ix("ib")] })
        .stmt(Stmt::CallSub { name: "g_lw_dn".into(), args: vec![] })
        .stmt(Stmt::CallSub { name: "g_lw_up".into(), args: vec![] })
        .done()
        .straight_step(
            "surface emission",
            vec![Stmt::assign(
                LValue::at("ful", vec![n(NVP)]),
                at1("ful", n(NVP)) + s("ee") * sigma.clone() * s("tsfc").pow(n(4)),
            )],
        )
        .loop_step("normalize downwelling")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("fdl", vec![ix("i")]), at1("fdl", ix("i")) / r(12.0))
        .done()
        .loop_step("normalize upwelling")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("ful", vec![ix("i")]), at1("ful", ix("i")) / r(12.0))
        .done()
        .done();

    // ---- g_ent_band: the spectral entropy integrand (FUNCTION, §3.4) ----
    let b = b
        .function("g_ent_band", DataType::Real8)
        .param(param_f("fql"))
        .param(param_f("tl"))
        .local(local_f("accb"))
        .local(local_f("wb"))
        .local(local_f("ub"))
        .straight_step(
            "init accumulator",
            vec![Stmt::assign(LValue::scalar("accb"), r(0.0))],
        )
        .loop_step("integrate over bands")
        .foreach("ib", n(1), n(NBLW))
        .formula(LValue::scalar("wb"), r(100.0) + r(50.0) * ix("ib"))
        .formula(
            LValue::scalar("ub"),
            lmax(
                s("fql") * (r(1.0) / (r(1.0) + r(0.1) * ix("ib")))
                    / (sigma.clone() * s("tl").pow(n(4))),
                r(1.0e-12),
            ),
        )
        .formula(
            LValue::scalar("accb"),
            s("accb")
                + s("wb")
                    * ((r(1.0) + s("ub")) * lalog(r(1.0) + s("ub")) - s("ub") * lalog(s("ub"))),
        )
        .done()
        .straight_step("return", vec![Stmt::Return(Some(s("accb")))])
        .done();

    // ---- longwave_entropy_model ----
    let b = b
        .subroutine("longwave_entropy_model")
        .local(local_f("fql"))
        .local(local_f("tl"))
        .local(local_f("acc2"))
        .local(local_f("vsm"))
        .local(local_f("tot"))
        .loop_step("zero entropy profile")
        .foreach("is", n(1), n(2))
        .foreach("i", n(1), n(NV))
        .formula(LValue::at("entl", vec![ix("is"), ix("i")]), r(0.0))
        .done()
        // Big loop 1: the first directive-keeping COLLAPSE(2) loop.
        .loop_step("spectral entropy integration")
        .foreach("is", n(1), n(2))
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::scalar("fql"),
            at1("fdl", ix("i") + n(1)) * (n(2) - ix("is")) + at1("ful", ix("i")) * (ix("is") - n(1)),
        )
        .formula(LValue::scalar("tl"), at1("pt", ix("i")))
        .formula(
            LValue::scalar("acc2"),
            Expr::call("g_ent_band", vec![s("fql"), s("tl")]),
        )
        .formula(
            LValue::at("entl", vec![ix("is"), ix("i")]),
            s("acc2") * (r(4.0) / r(3.0)) / s("tl"),
        )
        .done()
        .loop_step("copy to work buffer")
        .foreach("is", n(1), n(2))
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("lwork", vec![ix("is"), ix("i")]),
            at2("entl", ix("is"), ix("i")),
        )
        .done()
        // Big loop 2: vertical smoothing with humidity correction.
        .loop_step("vertical smoothing")
        .foreach("is", n(1), n(2))
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::scalar("vsm"),
            r(0.5) * at2("lwork", ix("is"), ix("i"))
                + r(0.25) * at2("lwork", ix("is"), lmax(ix("i") - n(1), n(1)))
                + r(0.25) * at2("lwork", ix("is"), lmin(ix("i") + n(1), n(NV))),
        )
        .stmt(Stmt::If {
            cond: at1("ph", ix("i")).cmp(glaf_ir::BinOp::Gt, r(0.55)),
            then_body: vec![Stmt::assign(
                LValue::scalar("vsm"),
                s("vsm") * (r(1.0) + r(0.05) * at1("ph", ix("i"))),
            )],
            else_body: vec![],
        })
        .formula(LValue::at("entl", vec![ix("is"), ix("i")]), s("vsm"))
        .done()
        .straight_step("reset total", vec![Stmt::assign(LValue::scalar("tot"), r(0.0))])
        .loop_step("column total")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::scalar("tot"),
            s("tot") + (at2("entl", n(1), ix("i")) + at2("entl", n(2), ix("i"))),
        )
        .done()
        .straight_step(
            "accumulate entropy",
            vec![Stmt::assign(
                LValue::scalar("sent"),
                s("sent") + s("tot") / r(120.0),
            )],
        )
        .done();

    // ---- shortwave band function ----
    let b = b
        .subroutine("g_sw_band")
        .param(param_i("kbnd"))
        .local(local_f("s0w"))
        .local(local_f("taucum"))
        .straight_step(
            "band constants",
            vec![
                Stmt::assign(
                    LValue::scalar("s0w"),
                    r(1360.0) / r(2.0).pow(s("kbnd")) * r(0.7),
                ),
                Stmt::assign(LValue::scalar("taucum"), r(0.0)),
            ],
        )
        .loop_step("direct beam attenuation")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::scalar("taucum"),
            s("taucum") + at2("tau_sw", s("kbnd"), ix("i")),
        )
        .formula(
            LValue::at("swdir", vec![ix("i")]),
            s("s0w") * s("u0") * lexp(-s("taucum") / lmax(s("u0"), r(0.01))),
        )
        .done()
        .loop_step("accumulate downward shortwave")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("fds", vec![ix("i") + n(1)]),
            at1("fds", ix("i") + n(1)) + at1("swdir", ix("i")),
        )
        .done()
        .done();

    // ---- sw_spectral_integration ----
    let b = b
        .subroutine("sw_spectral_integration")
        .loop_step("zero downward shortwave")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("fds", vec![ix("i")]), r(0.0))
        .done()
        .loop_step("zero upward shortwave")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("fus", vec![ix("i")]), r(0.0))
        .done()
        .loop_step("loop over shortwave bands")
        .foreach("k", n(1), n(NBSW))
        .stmt(Stmt::CallSub { name: "g_sw_band".into(), args: vec![ix("k")] })
        .done()
        .loop_step("surface reflection")
        .foreach("i", n(1), n(NVP))
        .formula(LValue::at("fus", vec![ix("i")]), r(0.15) * at1("fds", ix("i")))
        .done()
        .straight_step(
            "ground bounce",
            vec![Stmt::assign(
                LValue::at("fus", vec![n(NVP)]),
                at1("fus", n(NVP)) + r(0.05) * at1("fds", n(NVP)),
            )],
        )
        .done();

    // ---- shortwave_entropy_model ----
    let b = b
        .subroutine("shortwave_entropy_model")
        .loop_step("shortwave entropy")
        .foreach("i", n(1), n(NV))
        .formula(
            LValue::at("ents", vec![ix("i")]),
            (r(4.0) / r(3.0)) * (at1("fds", ix("i") + n(1)) - at1("fus", ix("i") + n(1)))
                / lmax(at1("pt", ix("i")), r(150.0)),
        )
        .done()
        .done();

    // ---- entropy_interface ----
    let b = b
        .subroutine("entropy_interface")
        .local(local_f("tot2"))
        .straight_step(
            "reset entropy",
            vec![Stmt::assign(LValue::scalar("sent"), r(0.0))],
        )
        .loop_step("zero shortwave entropy")
        .foreach("i", n(1), n(NV))
        .formula(LValue::at("ents", vec![ix("i")]), r(0.0))
        .done()
        .straight_step(
            "run entropy models",
            vec![
                Stmt::CallSub { name: "longwave_entropy_model".into(), args: vec![] },
                Stmt::CallSub { name: "shortwave_entropy_model".into(), args: vec![] },
            ],
        )
        .straight_step("reset sw total", vec![Stmt::assign(LValue::scalar("tot2"), r(0.0))])
        .loop_step("sum shortwave entropy")
        .foreach("i", n(1), n(NV))
        .formula(LValue::scalar("tot2"), s("tot2") + at1("ents", ix("i")))
        .done()
        .straight_step(
            "combine and scale",
            vec![
                Stmt::assign(LValue::scalar("sent"), s("sent") + s("tot2") / r(60.0)),
                Stmt::assign(LValue::scalar("sent"), s("sent") * r(1000.0)),
            ],
        )
        .done();

    // ---- adjust2 ----
    let b = b
        .subroutine("adjust2")
        .local(local_f("fac"))
        .straight_step(
            "net TOA flux and factor",
            vec![
                Stmt::assign(
                    LValue::scalar("toa_net"),
                    at1("fds", n(1)) - at1("fus", n(1)) + at1("fdl", n(1)) - at1("ful", n(1)),
                ),
                Stmt::assign(
                    LValue::scalar("fac"),
                    r(1.0) + r(0.05) * s("toa_net") / (labs(s("toa_net")) + r(100.0)),
                ),
            ],
        )
        .loop_step("adjust downwelling longwave")
        .foreach("i", n(1), n(NVP))
        .formula(
            LValue::at("fdl", vec![ix("i")]),
            lmax(at1("fdl", ix("i")) * s("fac"), r(0.0)),
        )
        .done()
        .loop_step("adjust upwelling longwave")
        .foreach("i", n(1), n(NVP))
        .formula(
            LValue::at("ful", vec![ix("i")]),
            lmax(at1("ful", ix("i")) * s("fac"), r(0.0)),
        )
        .done()
        .loop_step("adjust downward shortwave")
        .foreach("i", n(1), n(NVP))
        .formula(
            LValue::at("fds", vec![ix("i")]),
            lmax(at1("fds", ix("i")) * s("fac"), r(0.0)),
        )
        .done()
        .loop_step("adjust upward shortwave")
        .foreach("i", n(1), n(NVP))
        .formula(
            LValue::at("fus", vec![ix("i")]),
            lmax(at1("fus", ix("i")) * s("fac"), r(0.0)),
        )
        .done()
        .done();

    b.done().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaf::{Glaf, Lang};
    use glaf_autopar::LoopClass;
    use glaf_codegen::CodegenOptions;

    #[test]
    fn program_validates() {
        let p = build_sarb_program();
        let errs = glaf_ir::validate_program(&p);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn plan_matches_paper_structure() {
        let g = Glaf::new(build_sarb_program()).unwrap();
        let plan = g.plan();

        // The two big longwave loops are Complex, parallelizable,
        // COLLAPSE(2) — the only directive survivors of v3.
        let lw = plan.for_function("longwave_entropy_model").unwrap();
        let big: Vec<_> = lw
            .loops
            .iter()
            .filter(|l| l.class == LoopClass::Complex && l.parallelizable)
            .collect();
        assert_eq!(big.len(), 2, "{:#?}", lw.loops);
        for l in &big {
            assert_eq!(l.collapse, 2);
        }

        // The lw band loop is blocked (callees overwrite shared bf/trn).
        let lwspec = plan.for_function("lw_spectral_integration").unwrap();
        let band = lwspec.loops.iter().find(|l| l.step_index == 2).unwrap();
        assert!(!band.parallelizable, "{band:?}");

        // The sw in-band attenuation loop is blocked (taucum recurrence).
        let swband = plan.for_function("g_sw_band").unwrap();
        assert!(!swband.loops[0].parallelizable);
        // ... but the accumulation loop is parallel.
        assert!(swband.loops[1].parallelizable);

        // Zero-init loops classified for the v1 policy.
        assert_eq!(lwspec.loops[0].class, LoopClass::ZeroInit);
        assert_eq!(lwspec.loops[1].class, LoopClass::ZeroInit);

        // g_ent_band's integration is a recognized scalar reduction.
        let ent = plan.for_function("g_ent_band").unwrap();
        assert_eq!(ent.loops[0].reductions.len(), 1);
        assert_eq!(ent.loops[0].reductions[0].grid, "accb");
    }

    #[test]
    fn v3_keeps_exactly_two_directives() {
        let g = Glaf::new(build_sarb_program()).unwrap();
        let code = g.generate(Lang::Fortran, &CodegenOptions::parallel_version(3));
        let count = code.source.matches("!$OMP PARALLEL DO").count();
        assert_eq!(count, 2, "v3 keeps the two longwave loops:\n{}", code.source);
        assert_eq!(code.source.matches("COLLAPSE(2)").count(), 2);
    }

    #[test]
    fn v0_has_many_directives() {
        let g = Glaf::new(build_sarb_program()).unwrap();
        let v0 = g.generate(Lang::Fortran, &CodegenOptions::parallel_version(0));
        let v1 = g.generate(Lang::Fortran, &CodegenOptions::parallel_version(1));
        let v2 = g.generate(Lang::Fortran, &CodegenOptions::parallel_version(2));
        let c0 = v0.source.matches("!$OMP PARALLEL DO").count();
        let c1 = v1.source.matches("!$OMP PARALLEL DO").count();
        let c2 = v2.source.matches("!$OMP PARALLEL DO").count();
        assert!(c0 > c1 && c1 > c2 && c2 > 2, "ladder: {c0} > {c1} > {c2} > 2");
    }

    #[test]
    fn integration_features_present_in_generated_code() {
        let g = Glaf::new(build_sarb_program()).unwrap();
        let src = g.generate(Lang::Fortran, &CodegenOptions::serial()).source;
        assert!(src.contains("USE fuliou_mod"), "§3.1/3.5 USE");
        assert!(src.contains("COMMON /radparams/ u0, ee, tsfc"), "§3.2 COMMON");
        assert!(src.contains("fi%pt"), "§3.5 TYPE element prefix");
        assert!(src.contains("fo%fdl"));
        assert!(src.contains("SUBROUTINE adjust2()"), "§3.4 subroutine");
        assert!(src.contains("REAL(8) FUNCTION g_ent_band"), "function path");
        assert!(src.contains("ALOG("), "§3.6 extended library");
        // Module-scope buffers declared in the generated module.
        let header = &src[..src.find("CONTAINS").unwrap()];
        assert!(header.contains("bf"), "module-scope bf:\n{header}");
    }
}
