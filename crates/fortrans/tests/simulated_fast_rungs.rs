//! Simulated mode on the fast rungs.
//!
//! `ExecMode::Simulated` runs `VecLoop` regions on the vector rung and
//! posts `trip x iter_ledger` for them instead of counting the scalar
//! body one instruction at a time. Nothing observable may depend on
//! that: every program here runs three ways on fresh sessions over one
//! artifact — the VM with the vector rung on (the default), the VM with
//! it off ([`Session::set_vector_enabled`], the per-instruction count)
//! and the tree-walk oracle — and the result, the printed output, every
//! global, every array argument and the complete `CostTrace` must be
//! equal, at team sizes 1, 2 and 4.
//!
//! The suite also proves the fast rung *ran* (a silent bail to the
//! scalar head would pass every comparison), that a failed entry guard
//! under Simulated reproduces the scalar fault exactly, and pins the
//! benchmark's `simulated` workload counts.

use std::sync::Arc;

use fortrans::bytecode::BInstr;
use fortrans::{
    ArgVal, ArrayObj, CompiledProgram, CostTrace, ExecMode, ExecTier, RunLimits, ScalarTy, Session,
    Val,
};
use fun3d::variants::{Fun3dConfig, Fun3dVariant};
use sarb::variants::SarbVariant;

const TEAMS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Rung {
    Vector,
    Scalar,
    Oracle,
}

/// Everything observable from one run.
#[derive(Debug, PartialEq)]
struct Snap {
    result: Result<Option<Val>, String>,
    printed: String,
    trace: CostTrace,
    globals: Vec<(String, Option<Vec<u64>>)>,
    args: Vec<Vec<u64>>,
}

fn dump(h: &ArrayObj) -> Vec<u64> {
    (0..h.len()).map(|k| h.get_bits(k)).collect()
}

/// One program under test: a shared artifact, a per-session setup step
/// (run in Serial mode), the entry and its arguments.
struct Case<'a> {
    art: &'a Arc<CompiledProgram>,
    setup: Option<(&'a str, Vec<ArgVal>)>,
    entry: &'a str,
    mk_args: &'a dyn Fn() -> Vec<ArgVal>,
    limits: RunLimits,
}

impl<'a> Case<'a> {
    fn new(art: &'a Arc<CompiledProgram>, entry: &'a str) -> Case<'a> {
        Case { art, setup: None, entry, mk_args: &Vec::new, limits: RunLimits::default() }
    }

    /// Runs on a fresh session; returns the snapshot and how many loop
    /// entries took the vector rung during the Simulated run.
    fn run(&self, threads: usize, rung: Rung) -> (Snap, u64) {
        let mut s = Session::solo(Arc::clone(self.art));
        s.set_limits(self.limits);
        s.set_vector_enabled(rung != Rung::Scalar);
        if let Some((unit, args)) = &self.setup {
            s.run(unit, args, ExecMode::Serial).expect("setup runs");
        }
        let before = s.vector_entry_count();
        let tier = if rung == Rung::Oracle { ExecTier::TreeWalk } else { ExecTier::Vm };
        let args = (self.mk_args)();
        let run = s.run_tiered(self.entry, &args, ExecMode::Simulated { threads }, tier);
        let entries = s.vector_entry_count() - before;
        let (result, printed, trace) = match run {
            Ok(out) => {
                assert!(out.fallback.is_none(), "{rung:?} run trapped: {:?}", out.fallback);
                (Ok(out.result), out.printed, out.trace)
            }
            Err(e) => (Err(e.to_string()), String::new(), CostTrace::default()),
        };
        let mut names = s.global_names();
        names.sort();
        let globals = names
            .into_iter()
            .map(|n| {
                let bits = match s.global_scalar(&n) {
                    Some(Val::I(v)) => Some(vec![v as u64]),
                    Some(Val::F(v)) => Some(vec![v.to_bits()]),
                    Some(Val::B(v)) => Some(vec![u64::from(v)]),
                    None => s.global_array(&n).map(|h| dump(&h)),
                };
                (n, bits)
            })
            .collect();
        let args = args.iter().filter_map(|a| a.handle().map(|h| dump(h))).collect();
        (Snap { result, printed, trace, globals, args }, entries)
    }

    /// The three rungs agree at `threads`; returns the vector rung's
    /// entry count.
    fn agree(&self, label: &str, threads: usize) -> u64 {
        let (vector, entries) = self.run(threads, Rung::Vector);
        let (scalar, scalar_entries) = self.run(threads, Rung::Scalar);
        let (oracle, _) = self.run(threads, Rung::Oracle);
        assert_eq!(scalar_entries, 0, "{label}: the disabled rung still ran");
        assert_eq!(vector, scalar, "{label} x{threads}: vector and scalar Simulated runs diverge");
        assert_eq!(vector, oracle, "{label} x{threads}: Simulated VM and the oracle diverge");
        entries
    }
}

#[test]
fn sarb_variants_agree_on_every_rung() {
    let mut variants = SarbVariant::table2();
    variants.push(SarbVariant::GlafCostModel);
    for v in variants {
        let art = sarb::variants::build_artifact(v);
        let mk = || vec![ArgVal::I(2)];
        let case = Case { mk_args: &mk, ..Case::new(&art, "run_columns") };
        for threads in TEAMS {
            let entries = case.agree(&v.name(), threads);
            assert!(entries > 0, "{} x{threads}: no loop took the vector rung", v.name());
        }
    }
}

#[test]
fn fun3d_configs_agree_on_every_rung() {
    let fused = Fun3dConfig { fuse: true, ..Fun3dConfig::default() };
    for cfg in [Fun3dConfig::default(), fused, Fun3dConfig::best()] {
        let variant = Fun3dVariant::Glaf(cfg);
        let art = fun3d::variants::build_artifact(variant);
        let case = Case {
            setup: Some(("build_mesh", vec![ArgVal::I(40)])),
            ..Case::new(&art, fun3d::variants::entry_point(variant))
        };
        for threads in TEAMS {
            let entries = case.agree(&variant.name(), threads);
            assert!(entries > 0, "{} x{threads}: no loop took the vector rung", variant.name());
        }
    }
}

#[test]
fn generated_corpus_agrees_on_every_rung() {
    let mut entries = 0;
    for seed in 0..240u64 {
        let files = fortrans::gen::generate(seed);
        let srcs: Vec<&str> = files.iter().map(String::as_str).collect();
        let art = CompiledProgram::compile(&srcs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let case = Case::new(&art, "main");
        entries += case.agree(&format!("seed {seed}"), TEAMS[seed as usize % TEAMS.len()]);
    }
    // Every program carries a vectorizable SWEEP unit.
    assert!(entries >= 240, "corpus mostly bailed to the scalar head: {entries} vector entries");
}

/// The benchmark's `simulated` workload: a silent bail to the scalar
/// head passes every comparison above and shows only as a slowdown.
#[test]
fn sarb_v3_takes_the_vector_rung_under_simulated() {
    let art = sarb::variants::build_artifact(SarbVariant::GlafParallel(3));
    let mk = || vec![ArgVal::I(4)];
    let case = Case { mk_args: &mk, ..Case::new(&art, "run_columns") };
    let (_, entries) = case.run(4, Rung::Vector);
    assert!(entries > 0, "vector_entry_count stayed 0 under Simulated");
    // The traced build carries the same regions the optimized one does
    // in each unit's own code (the optimized one adds the copies its
    // inlined leaves bring and its fused spans' regions), each with a
    // ledger (a region without one stays scalar).
    let (opt, traced) = (art.bytecode(false), art.bytecode(true));
    let regions = |b: &[fortrans::bytecode::BUnit]| {
        let own = |u: &fortrans::bytecode::BUnit| {
            let fused = |pc: usize| u.spans.iter().any(|s| s.fused as usize == pc);
            let region = |(pc, i): &(usize, &BInstr)| {
                matches!(i, BInstr::VecLoop { .. })
                    && u.unit_for_pc(*pc as u32) == u.unit
                    && !fused(*pc)
            };
            u.code.iter().enumerate().filter(region).count()
        };
        b.iter().map(own).sum::<usize>()
    };
    assert_eq!(regions(&opt), regions(&traced));
    assert_eq!(regions(&traced), traced.iter().map(|u| u.vecs.len()).sum::<usize>());
    assert!(traced.iter().flat_map(|u| &u.vecs).all(|d| d.iter_ledger.is_some()));
}

/// The counts the benchmark reports for `simulated` (and that ISSUE 16
/// requires to repeat exactly against the parent commit).
#[test]
fn sarb_v3_simulated_golden() {
    let session = Session::solo(sarb::variants::build_artifact(SarbVariant::GlafParallel(3)));
    let out = session
        .run("run_columns", &[ArgVal::I(24)], ExecMode::Simulated { threads: 4 })
        .expect("runs");
    assert!(session.vector_entry_count() > 0);
    let report = simcpu::time_trace(&out.trace, &simcpu::MachineModel::i5_2400_like());
    assert_eq!(out.trace.events.len(), 97);
    assert_eq!(report.total_cycles, 1837252.146153845);
    assert_eq!(report.total_seconds(), 0.0005926619826302726);
}

// ---------------------------------------------------------------------
// Failed entry guards under Simulated: the scalar head re-runs the loop
// and posts per instruction, so error, faulting iteration (visible in
// the partially written arrays) and trace match the other rungs.
// ---------------------------------------------------------------------

fn compile(src: &str) -> Arc<CompiledProgram> {
    CompiledProgram::compile(&[src]).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn aliased_streams_fall_back_with_the_same_trace() {
    let art = compile(
        r#"
MODULE m
CONTAINS
  SUBROUTINE smooth(n, u, v)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:33) :: u, v
    DO i = 1, n
      u(i) = v(i + 1) * 0.5D0 + u(i) * 0.5D0
    END DO
  END SUBROUTINE smooth
END MODULE m
"#,
    );
    let shared = || {
        let obj = ArrayObj::new(ScalarTy::F, vec![(1, 33)]);
        for k in 0..33 {
            obj.set_f(k, k as f64 * 0.3 - 4.0);
        }
        let h = Arc::new(obj);
        vec![ArgVal::I(32), ArgVal::Arr(Arc::clone(&h)), ArgVal::Arr(h)]
    };
    let case = Case { mk_args: &shared, ..Case::new(&art, "smooth") };
    for threads in TEAMS {
        assert_eq!(case.agree("aliased", threads), 0, "the alias guard must refuse the entry");
    }
    // Distinct arrays pass the guard: same program, vector rung, and
    // still the oracle's trace.
    let distinct = || {
        let x: Vec<f64> = (0..33).map(|k| k as f64 * 0.3 - 4.0).collect();
        vec![ArgVal::I(32), ArgVal::array_f(&x, 1), ArgVal::array_f(&x, 1)]
    };
    let case = Case { mk_args: &distinct, ..Case::new(&art, "smooth") };
    assert_eq!(case.agree("not aliased", 4), 1);
}

/// A nest region has no ledger — its inner loop posts under its own
/// vectorization class — so a Simulated run leaves it to the scalar
/// tier and the trace stays the oracle's; the flat loop beside it
/// still takes the vector rung.
#[test]
fn nest_regions_stay_scalar_under_simulated() {
    let art = compile(
        r#"
MODULE m
CONTAINS
  SUBROUTINE gg(n, g, w, q)
    INTEGER :: n, d, f
    REAL(8), DIMENSION(1:6) :: g
    REAL(8), DIMENSION(1:6, 1:4) :: w
    REAL(8), DIMENSION(1:4) :: q
    DO d = 1, n
      g(d) = 0.5D0 * d
    END DO
    DO d = 1, n
      DO f = 1, 4
        g(d) = g(d) + w(d, f) * q(f)
      END DO
    END DO
  END SUBROUTINE gg
END MODULE m
"#,
    );
    let traced = art.bytecode(true);
    let ledgers: Vec<bool> = traced[0].vecs.iter().map(|d| d.iter_ledger.is_some()).collect();
    assert_eq!(ledgers, [true, false], "flat region, nest region");
    let mk = || {
        let w: Vec<f64> = (0..24).map(|k| 1.0 / (1.0 + k as f64)).collect();
        vec![
            ArgVal::I(6),
            ArgVal::array_f(&[0.0; 6], 1),
            ArgVal::array_f_dims(&w, vec![(1, 6), (1, 4)]).unwrap(),
            ArgVal::array_f(&[0.5, 1.0, 1.5, 2.0], 1),
        ]
    };
    let case = Case { mk_args: &mk, ..Case::new(&art, "gg") };
    for threads in TEAMS {
        assert_eq!(case.agree("nest", threads), 1, "only the flat loop enters");
    }
}

#[test]
fn out_of_bounds_trip_faults_at_the_scalar_iteration() {
    let art = compile(
        r#"
MODULE m
CONTAINS
  SUBROUTINE oob(n, y)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:8) :: y
    DO i = 1, n
      y(i) = i * 1.0D0
    END DO
  END SUBROUTINE oob
END MODULE m
"#,
    );
    let mk = || vec![ArgVal::I(12), ArgVal::array_f(&[0.0; 8], 1)];
    let case = Case { mk_args: &mk, ..Case::new(&art, "oob") };
    assert_eq!(case.agree("oob", 4), 0);
    let (snap, _) = case.run(4, Rung::Vector);
    let err = snap.result.expect_err("the ninth store is out of bounds");
    assert!(err.contains("out of bounds") || err.contains("9"), "{err}");
    // Iterations 1..=8 landed before the fault.
    let want: Vec<u64> = (1..=8).map(|i| (i as f64).to_bits()).collect();
    assert_eq!(snap.args, vec![want]);
}

#[test]
fn step_budget_too_small_trips_on_the_scalar_head() {
    let art = compile(
        r#"
MODULE m
CONTAINS
  SUBROUTINE fill(n, y)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:4096) :: y
    DO i = 1, n
      y(i) = SQRT(i * 1.0D0)
    END DO
  END SUBROUTINE fill
END MODULE m
"#,
    );
    let mk = || vec![ArgVal::I(4096), ArgVal::array_f(&[0.0; 4096], 1)];
    let limits = RunLimits { max_steps: Some(500), ..RunLimits::default() };
    let case = Case { mk_args: &mk, limits, ..Case::new(&art, "fill") };
    // The budget counts VM instructions, so the oracle for *where* it
    // trips is the scalar VM head; the tree-walker counts its own steps.
    let (vector, entries) = case.run(4, Rung::Vector);
    let (scalar, _) = case.run(4, Rung::Scalar);
    assert_eq!(entries, 0, "a trip the budget cannot cover must stay scalar");
    assert_eq!(vector, scalar);
    let err = vector.result.as_ref().expect_err("budget must trip");
    assert!(err.contains("step budget of 500 exhausted"), "{err}");
    let written = vector.args[0].iter().filter(|&&b| b != 0).count();
    assert!(written > 0 && written < 4096, "tripped mid-loop after {written} iterations");
    // With room for the whole trip the same program takes the fast rung.
    let roomy = Case { limits: RunLimits::default(), ..case };
    assert_eq!(roomy.agree("roomy", 4), 1);
}
