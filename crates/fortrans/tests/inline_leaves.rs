//! Inlined leaf units: the optimized build lowers
//! `rir::rewrite::inline_leaves` of the scoped program, which replaces
//! each call of a *leaf* — no call, no OMP construct, `CRITICAL` or
//! `ATOMIC`, no `SAVE`, `RETURN` only last, no array dummy — with the
//! callee's body over fresh caller variables.
//!
//! The accepted shapes and the refusal matrix each run on four rungs in
//! Serial, `Parallel{2}` and Simulated (`common/rungs.rs`), and each
//! names what the optimized build of the unit under test still calls and what it
//! inlined. Then limits and faults: the oracle's fault message, unit and
//! line from inside an inlined body, the call-depth limit and the step
//! budget on every rung, the size bound on a 10 x 10 x 10 call tree and
//! the profiled span tree. Last, the rules' own oracle: the tree-walker
//! runs `rule(p)` exactly as it runs `p`, for `inline_leaves`,
//! `scope_temporaries` and the whole pipeline `optimized`, and for
//! `contract_temporaries` on the program the rules before it leave,
//! over the service corpus, the generated F77 corpus and the GLAF source
//! sets, the first two also with each entry's body moved behind a thin
//! entry: an entry keeps its calls, so only then are their leaf calls
//! rewritten. `array_contraction.rs` runs the contraction oracle over
//! the programs that rule accepts.

#[path = "common/mod.rs"]
mod common;
#[path = "common/oracle.rs"]
mod oracle;
#[path = "common/rungs.rs"]
mod rungs;
#[path = "common/sources.rs"]
mod sources;

use fortrans::bytecode::BInstr;
use fortrans::rir::rewrite::{
    contract_temporaries, fuse_spans, inline_leaves, optimized, scope_temporaries, stmt_count,
    INLINE_MAX_STMTS,
};
use fortrans::rir::RProgram;
use fortrans::{ArgVal, CompiledProgram, ExecMode, ExecTier, RunLimits, Session, SpanNode, Val};
use oracle::{resolved, rewrite_agrees, thin_entry, Rule};
use rungs::{agree, line_of, MODES};
use std::borrow::Cow;

/// The units the optimized build of `unit` still calls, and the units
/// whose bodies it inlined, each in code order.
fn calls_and_inlines(s: &Session, unit: &str) -> (Vec<String>, Vec<String>) {
    let prog = s.program();
    let u = prog.unit_id(unit).expect("unit exists");
    let bu = &s.artifact().bytecode(false)[u];
    let name = |k: u32| prog.units[k as usize].name.clone();
    let (mut calls, mut inlines) = (Vec::new(), Vec::new());
    for ins in &bu.code {
        match *ins {
            BInstr::Call { spec, .. } => calls.push(name(bu.calls[spec as usize].callee)),
            BInstr::InlineEnter { desc } => inlines.push(name(bu.inlines[desc as usize].unit)),
            _ => {}
        }
    }
    (calls, inlines)
}

/// `work(a, n)` over a 5-element `a`, which calls `run(a, n)` with
/// `body` as its statements, module scalars `total` and `c`, module
/// array `g(5)`, and `units` after them in the module. `work` is the
/// entry, which keeps its calls; `run` is called, so it inlines.
fn program(body: &str, units: &str) -> String {
    format!(
        r#"
MODULE m
  REAL(8) :: total
  INTEGER :: c
  REAL(8), DIMENSION(1:5) :: g
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    CALL run(a, n)
  END SUBROUTINE work
  SUBROUTINE run(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    INTEGER :: j, k
    REAL(8) :: y, z
{body}
  END SUBROUTINE run
{units}
END MODULE m
"#
    )
}

/// Runs `src` on every rung and mode and checks what `run` calls and
/// inlines; returns the oracle's Serial snapshots.
fn check(label: &str, src: &str, calls: &[&str], inlines: &[&str]) -> Vec<rungs::Snap> {
    agree(label, src, 5, |s| {
        assert_eq!(
            calls_and_inlines(s, "run"),
            (own(calls), own(inlines)),
            "{label}"
        );
    })
}

fn own(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn total(snap: &rungs::Snap) -> f64 {
    let (_, bits) = snap
        .globals
        .iter()
        .find(|(name, _)| name == "m::total")
        .expect("total");
    f64::from_bits(bits.as_ref().expect("total")[0])
}

// ---------------------------------------------------------------------
// Accepted shapes
// ---------------------------------------------------------------------

/// A subroutine with a loop and a local, called with a scalar and an
/// array element; the element is copied back, unchanged.
#[test]
fn subroutine_is_inlined() {
    let src = program(
        "    DO j = 1, n\n      CALL scale(j, a(j))\n    END DO",
        r#"
  SUBROUTINE scale(kk, s)
    INTEGER :: kk
    REAL(8) :: s
    INTEGER :: i
    DO i = 1, 5
      g(i) = g(i) + s * kk
    END DO
    total = total + s
  END SUBROUTINE scale
"#,
    );
    let serial = check("subroutine", &src, &[], &["scale"]);
    assert_eq!(total(&serial[0]), 15.0);
}

/// A function whose whole right-hand side is the call, with a scoped
/// temporary (its `ALLOCATE`/`DEALLOCATE` pair goes, the array stays
/// zeroed per call) and a trailing `RETURN`.
#[test]
fn function_is_inlined() {
    let src = program(
        "    DO j = 1, n\n      y = norm(a(j), j)\n      total = total + y\n    END DO",
        r#"
  REAL(8) FUNCTION norm(x, mm)
    REAL(8) :: x
    INTEGER :: mm
    REAL(8), DIMENSION(:), ALLOCATABLE :: t
    INTEGER :: i
    ALLOCATE(t(1:5))
    DO i = 1, mm
      t(i) = t(i) + x * i
      g(i) = g(i) + t(i)
    END DO
    norm = t(mm) + x
    DEALLOCATE(t)
    RETURN
  END FUNCTION norm
"#,
    );
    let serial = check("function", &src, &[], &["norm"]);
    // norm(a(j), j) = j * j + j.
    assert_eq!(total(&serial[0]), 70.0);
}

/// By-reference scalar and element arguments the callee stores to are
/// copied back in order, with the element's subscript evaluated once.
#[test]
fn by_reference_arguments_copy_back() {
    let src = program(
        r#"    c = 0
    y = 1.5D0
    k = 1
    DO j = 1, n
      CALL bump(a(k), c)
      CALL bump(y, c)
      k = k + 1
    END DO
    total = y + c"#,
        r#"
  SUBROUTINE bump(x, kk)
    REAL(8) :: x
    INTEGER :: kk
    x = x * 2.0D0 + kk
    kk = kk + 1
  END SUBROUTINE bump
"#,
    );
    let serial = check("by reference", &src, &[], &["bump", "bump"]);
    // a(j) = 2 * j + c, with c = 2 * (j - 1) on entry.
    assert_eq!(
        serial[0].args[0],
        [2.0f64, 6.0, 10.0, 14.0, 18.0].map(f64::to_bits)
    );
}

/// One variable passed twice: both dummies copy in its value, and the
/// copies back land in argument order, so the last one wins.
#[test]
fn same_variable_passed_twice() {
    let src = program(
        r#"    total = 0.0D0
    DO j = 1, n
      z = 1.0D0 * j
      CALL both(z, z)
      total = total + z
      y = 2.0D0
      CALL first(y, y)
      total = total + y * 100.0D0
    END DO"#,
        r#"
  SUBROUTINE both(x, w)
    REAL(8) :: x, w
    x = w + 1.0D0
    w = x * 3.0D0
  END SUBROUTINE both
  SUBROUTINE first(x, w)
    REAL(8) :: x, w
    x = w * 5.0D0
  END SUBROUTINE first
"#,
    );
    let serial = check("passed twice", &src, &[], &["both", "first"]);
    // both: w's copy, 3 * (j + 1), lands last; first: w's copy (2,
    // unchanged) does.
    assert_eq!(total(&serial[0]), 60.0 + 1000.0);
}

/// An argument of another type than its dummy converts on the way in
/// and, by reference, on the way back, as a call's copies do: an
/// INTEGER variable bound to a REAL(8) dummy the body stores to, and a
/// REAL(8) constant bound to an INTEGER dummy.
#[test]
fn arguments_convert_both_ways() {
    let src = program(
        "    DO j = 1, n\n      k = j\n      CALL halve(k, 2.5D0)\n      total = total + k\n    END DO",
        r#"
  SUBROUTINE halve(x, m)
    REAL(8) :: x
    INTEGER :: m
    x = x / 2.0D0 + m
  END SUBROUTINE halve
"#,
    );
    let serial = check("conversions", &src, &[], &["halve"]);
    // m = 2 (2.5 truncated), x = j / 2 + 2, k = 2, 3, 3, 4, 4 (truncated).
    assert_eq!(total(&serial[0]), 16.0);
}

/// `outer` is a leaf only once `sq` is inlined into it: the second round
/// inlines it, `sq` block and all, into `run`.
#[test]
fn leaf_after_its_callee_is_inlined() {
    let src = program(
        "    DO j = 1, n\n      CALL outer(j)\n    END DO\n    total = g(2) + g(5)",
        r#"
  REAL(8) FUNCTION sq(x)
    REAL(8) :: x
    sq = x * x
  END FUNCTION sq
  SUBROUTINE outer(kk)
    INTEGER :: kk
    REAL(8) :: v
    g(kk) = kk * 0.5D0
    v = sq(g(kk))
    g(kk) = v + 1.0D0
  END SUBROUTINE outer
"#,
    );
    let serial = agree("leaf after its callee", &src, 5, |s| {
        assert_eq!(
            calls_and_inlines(s, "run"),
            (own(&[]), own(&["outer", "sq"]))
        );
        assert_eq!(calls_and_inlines(s, "outer"), (own(&[]), own(&["sq"])));
    });
    assert_eq!(total(&serial[0]), 2.0 + 7.25);
}

// ---------------------------------------------------------------------
// Refusal matrix: each of these stays a call
// ---------------------------------------------------------------------

#[test]
fn callee_that_calls_is_not_a_leaf() {
    let src = program(
        "    DO j = 1, n\n      CALL mid(j)\n    END DO",
        r#"
  SUBROUTINE saver(kk)
    INTEGER :: kk
    INTEGER, SAVE :: seen
    seen = seen + kk
    total = total + seen
  END SUBROUTINE saver
  SUBROUTINE mid(kk)
    INTEGER :: kk
    CALL saver(kk)
    CALL saver(kk + 1)
  END SUBROUTINE mid
"#,
    );
    check("nested call", &src, &["mid"], &[]);
}

#[test]
fn saved_local_keeps_the_call() {
    let src = program(
        "    DO j = 1, n\n      CALL count_up(j)\n    END DO",
        r#"
  SUBROUTINE count_up(kk)
    INTEGER :: kk
    REAL(8), SAVE :: s
    s = s + kk
    total = s
  END SUBROUTINE count_up
"#,
    );
    let serial = check("SAVE", &src, &["count_up"], &[]);
    assert_eq!(total(&serial[0]), 15.0);
}

#[test]
fn mid_body_return_keeps_the_call() {
    let src = program(
        "    DO j = 1, n\n      CALL early(j)\n    END DO",
        r#"
  SUBROUTINE early(kk)
    INTEGER :: kk
    IF (kk > 2) THEN
      RETURN
    END IF
    total = total + kk
  END SUBROUTINE early
"#,
    );
    let serial = check("mid-body RETURN", &src, &["early"], &[]);
    assert_eq!(total(&serial[0]), 3.0);
}

#[test]
fn array_dummy_keeps_the_call() {
    let src = program(
        "    DO j = 1, n\n      CALL head(a, j)\n    END DO",
        r#"
  SUBROUTINE head(b, kk)
    REAL(8), DIMENSION(1:5) :: b
    INTEGER :: kk
    total = b(1) + kk
  END SUBROUTINE head
"#,
    );
    check("array dummy", &src, &["head"], &[]);
}

#[test]
fn omp_in_the_callee_keeps_the_call() {
    let src = program(
        "    DO j = 1, n\n      CALL spread(j)\n    END DO",
        r#"
  SUBROUTINE spread(kk)
    INTEGER :: kk
    INTEGER :: i
    !$OMP PARALLEL DO
    DO i = 1, kk
      g(i) = i * 2.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE spread
"#,
    );
    check("OMP in the callee", &src, &["spread"], &[]);
}

#[test]
fn call_site_in_a_parallel_region_keeps_the_call() {
    let src = program(
        r#"    !$OMP PARALLEL DO
    DO j = 1, n
      CALL put(j)
    END DO
    !$OMP END PARALLEL DO"#,
        r#"
  SUBROUTINE put(kk)
    INTEGER :: kk
    g(kk) = kk * 3.0D0
  END SUBROUTINE put
"#,
    );
    check("site in a region", &src, &["put"], &[]);
}

#[test]
fn function_call_inside_an_expression_keeps_the_call() {
    let src = program(
        "    DO j = 1, n\n      total = total + half(a(j))\n    END DO",
        r#"
  REAL(8) FUNCTION half(x)
    REAL(8) :: x
    half = x * 0.5D0
  END FUNCTION half
"#,
    );
    let serial = check("not a whole right-hand side", &src, &["half"], &[]);
    assert_eq!(total(&serial[0]), 7.5);
}

/// A unit no unit calls keeps its calls, in a loop body too (a cost
/// rule, DESIGN §6): `work` calls leaf `add` once per element.
#[test]
fn entry_keeps_its_calls() {
    let src = r#"
MODULE m
  REAL(8) :: total
CONTAINS
  SUBROUTINE add(x)
    REAL(8) :: x
    total = total + x
  END SUBROUTINE add
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n, j
    total = 0.0D0
    DO j = 1, n
      CALL add(a(j))
    END DO
  END SUBROUTINE work
END MODULE m
"#;
    let serial = agree("entry", src, 5, |s| {
        assert_eq!(calls_and_inlines(s, "work"), (own(&["add"]), own(&[])));
    });
    assert_eq!(total(&serial[0]), 15.0);
}

// ---------------------------------------------------------------------
// Limits and faults
// ---------------------------------------------------------------------

/// An out-of-bounds store inside an inlined body names the callee and
/// its line on every rung, as the oracle does; a fault copying an
/// element argument in names the caller and the call's line.
#[test]
fn faults_in_an_inlined_body_name_the_callee() {
    let units = r#"
  SUBROUTINE poke(kk)
    INTEGER :: kk
    g(kk) = 1.0D0 ! poke store
  END SUBROUTINE poke
  SUBROUTINE peek(x)
    REAL(8) :: x
    total = total + x
  END SUBROUTINE peek
"#;
    let body = program("    DO j = 1, n\n      CALL poke(j + 3)\n    END DO", units);
    let serial = check("fault in the body", &body, &[], &["poke"]);
    let err = serial[0]
        .result
        .as_ref()
        .expect_err("g(6) is out of bounds");
    let line = line_of(&body, "poke store");
    assert!(err.contains(&format!("in poke at line {line}")), "{err}");
    let copy = program(
        "    DO j = 1, n\n      CALL peek(a(j + 3)) ! the call\n    END DO",
        units,
    );
    let serial = check("fault copying in", &copy, &[], &["peek"]);
    let err = serial[0]
        .result
        .as_ref()
        .expect_err("a(6) is out of bounds");
    let line = line_of(&copy, "the call");
    assert!(err.contains(&format!("in run at line {line}")), "{err}");
}

/// Runs `work` of `src` under `limits` on every rung and mode; returns
/// the oracle's outcome after checking every rung gives the same.
fn under_limits(src: &str, limits: RunLimits) -> Result<Option<Val>, String> {
    let mut oracle = None;
    for mode in MODES {
        let mut outcomes = Vec::new();
        for (tier, vector, native) in [
            (ExecTier::TreeWalk, false, false),
            (ExecTier::Vm, false, false),
            (ExecTier::Vm, true, false),
            (ExecTier::Vm, true, true),
        ] {
            let mut s = Session::compile(&[src]).expect("program compiles");
            s.set_limits(limits);
            s.set_vector_enabled(vector);
            s.set_native_enabled(native);
            s.set_native_eager(native);
            let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
            let out = s.run_tiered("work", &a, mode, tier).map(|o| o.result);
            outcomes.push(out.map_err(|e| e.to_string()));
            assert_eq!(s.fallback_count(), 0);
        }
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "{mode:?}: {outcomes:?}"
        );
        oracle.get_or_insert(outcomes.swap_remove(0));
    }
    oracle.expect("ran")
}

/// `work` → `run` → `gg` → `ff`, both leaves inlined into `run`: with a
/// depth limit of 2 the oracle trips at `gg`'s call of `ff`, and so does
/// the inner block's entry on every rung; with 3 the run completes.
#[test]
fn call_depth_limit_trips_at_the_same_call() {
    let src = program(
        "    DO j = 1, n\n      CALL gg(j)\n    END DO",
        r#"
  SUBROUTINE ff(kk)
    INTEGER :: kk
    total = total + kk
  END SUBROUTINE ff
  SUBROUTINE gg(kk)
    INTEGER :: kk
    CALL ff(kk * 2) ! f call
  END SUBROUTINE gg
"#,
    );
    let s = Session::compile(&[&src]).expect("compiles");
    assert_eq!(calls_and_inlines(&s, "run"), (own(&[]), own(&["gg", "ff"])));
    let err = under_limits(
        &src,
        RunLimits {
            max_call_depth: 2,
            ..RunLimits::default()
        },
    )
    .expect_err("depth 2 trips");
    let line = line_of(&src, "f call");
    assert!(err.contains("call depth exceeded"), "{err}");
    assert!(err.contains(&format!("(in gg at line {line})")), "{err}");
    under_limits(
        &src,
        RunLimits {
            max_call_depth: 3,
            ..RunLimits::default()
        },
    )
    .expect("depth 3 fits");
}

/// The smallest step budget `work` of `src` finishes under on one rung.
fn smallest_budget(src: &str, vector: bool, native: bool) -> u64 {
    let mut s = Session::compile(&[src]).expect("program compiles");
    s.set_vector_enabled(vector);
    s.set_native_enabled(native);
    s.set_native_eager(native);
    let mut run = |max_steps: u64| {
        s.set_limits(RunLimits {
            max_steps: Some(max_steps),
            ..RunLimits::default()
        });
        let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
        s.run_tiered("work", &a, ExecMode::Serial, ExecTier::Vm)
            .is_ok()
    };
    let (mut lo, mut hi) = (1u64, 1u64 << 16);
    assert!(run(hi), "the generous budget trips");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// An inlined body with a region in it retires the same steps on every
/// rung, entry and exit included.
#[test]
fn smallest_step_budget_is_the_same_on_every_rung() {
    let src = program(
        "    DO j = 1, n\n      CALL axpy(j * 0.5D0)\n    END DO",
        r#"
  SUBROUTINE axpy(s)
    REAL(8) :: s
    INTEGER :: i
    DO i = 1, 5
      g(i) = g(i) + s * i
    END DO
  END SUBROUTINE axpy
"#,
    );
    let s = Session::compile(&[&src]).expect("compiles");
    assert_eq!(calls_and_inlines(&s, "run"), (own(&[]), own(&["axpy"])));
    let scalar = smallest_budget(&src, false, false);
    assert_eq!(
        smallest_budget(&src, true, false),
        scalar,
        "vector rung against scalar"
    );
    assert_eq!(
        smallest_budget(&src, true, true),
        scalar,
        "eager native rung against scalar"
    );
}

/// `top` calls ten `mid`s, each ten `low`s, each ten leaves: inlining
/// stops where a unit would pass the bound, every unit stays within it,
/// and the program still runs as the oracle does.
#[test]
fn call_tree_stays_under_the_size_bound() {
    let mut src = String::from("MODULE tree\n  REAL(8) :: acc\nCONTAINS\n");
    for i in 0..10 {
        src += &format!(
            "  SUBROUTINE leaf{i}(x)\n    REAL(8) :: x\n    acc = acc + x * {i}.0D0\n    \
             acc = acc * 0.5D0\n  END SUBROUTINE leaf{i}\n"
        );
    }
    for (unit, callee) in [("low", "leaf"), ("mid", "low"), ("top", "mid")] {
        for i in 0..10 {
            let calls: String = (0..10)
                .map(|k| format!("    CALL {callee}{k}(x + {k}.0D0)\n"))
                .collect();
            src += &format!(
                "  SUBROUTINE {unit}{i}(x)\n    REAL(8) :: x\n{calls}  END SUBROUTINE {unit}{i}\n"
            );
        }
    }
    src += "  SUBROUTINE run(x)\n    REAL(8) :: x\n    acc = 0.0D0\n    CALL top0(x)\n  \
            END SUBROUTINE run\nEND MODULE tree\n";
    let art = CompiledProgram::compile(&[&src]).expect("tree compiles");
    let lowered = art.lowered_program(false);
    let inlined = lowered
        .units
        .iter()
        .zip(&art.program().units)
        .filter(|(l, p)| stmt_count(&l.body) > stmt_count(&p.body));
    assert!(inlined.count() >= 10, "every low unit inlines its leaves");
    for u in &lowered.units {
        assert!(
            stmt_count(&u.body) <= INLINE_MAX_STMTS,
            "{} grew past the bound",
            u.name
        );
    }
    let s = Session::solo(art);
    let run = |tier| {
        s.run_tiered("run", &[ArgVal::F(0.25)], ExecMode::Serial, tier)
            .expect("runs");
        s.global_scalar("tree::acc")
    };
    assert_eq!(run(ExecTier::TreeWalk), run(ExecTier::Vm));
}

/// The fused FUN3D configuration: `cell_loop` holds `angle_check`,
/// `edge_loop` and, inside that, `ioff_search`, so an op's only real
/// calls are `edgejp`'s one per cell (`cell_loop` keeps its mid-body
/// `RETURN`); the temporaries `edge_loop`'s regions contract — all ten
/// in its fused span's region, nine in the original flux loop — are
/// contracted in `cell_loop`'s copy too.
#[test]
fn fun3d_cells_make_no_calls() {
    use fun3d::variants::{build_artifact, Fun3dConfig, Fun3dVariant};
    let fused = build_artifact(Fun3dVariant::Glaf(Fun3dConfig { fuse: true, ..Default::default() }));
    let s = Session::solo(fused.clone());
    // `ioff_search`'s block is the S of the edge's fused span, which
    // holds it twice: ahead of the fused loop and between the original
    // ones.
    assert_eq!(
        calls_and_inlines(&s, "cell_loop"),
        (own(&[]), own(&["angle_check", "edge_loop", "ioff_search", "ioff_search"]))
    );
    assert_eq!(
        calls_and_inlines(&s, "edge_loop"),
        (own(&[]), own(&["ioff_search", "ioff_search"]))
    );
    assert_eq!(calls_and_inlines(&s, "edgejp"), (own(&["cell_loop"]), own(&[])));
    let contracted = |unit: &str| {
        let rep = fused.vector_report();
        rep.iter().filter(|r| r.unit == unit).map(|r| r.contracted).max().unwrap_or(0)
    };
    assert_eq!((contracted("edge_loop"), contracted("cell_loop")), (10, 10));
}

/// A span node without its timings.
#[derive(Debug, PartialEq)]
struct Shape {
    kind: fortrans::SpanKind,
    name: String,
    line: u32,
    entries: u64,
    children: Vec<Shape>,
}

fn shape(n: &SpanNode) -> Shape {
    Shape {
        kind: n.kind,
        name: n.name.clone(),
        line: n.line,
        entries: n.entries,
        children: n.children.iter().map(shape).collect(),
    }
}

/// The VM's profile of a program with inlined leaves keeps a unit span
/// per inlined call, with the callee's loops under it: the span tree is
/// the tree-walker's.
#[test]
fn profiled_span_tree_matches_the_tree_walker() {
    let src = program(
        "    DO j = 1, n\n      CALL outer(j)\n      y = sq(a(j))\n    END DO",
        r#"
  REAL(8) FUNCTION sq(x)
    REAL(8) :: x
    sq = x * x
  END FUNCTION sq
  SUBROUTINE outer(kk)
    INTEGER :: kk
    INTEGER :: i
    REAL(8) :: v
    DO i = 1, kk
      v = sq(i * 1.0D0)
      g(i) = g(i) + v
    END DO
  END SUBROUTINE outer
"#,
    );
    let s = Session::compile(&[&src]).expect("compiles");
    assert_eq!(
        calls_and_inlines(&s, "run"),
        (own(&[]), own(&["outer", "sq", "sq"]))
    );
    let profile = |tier| {
        let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
        let (_, p) = s
            .run_profiled("work", &a, ExecMode::Serial, tier)
            .expect("runs");
        p.spans.iter().map(shape).collect::<Vec<_>>()
    };
    let vm = profile(ExecTier::Vm);
    let oracle = profile(ExecTier::TreeWalk);
    assert_eq!(vm, oracle, "{vm:#?}\n{oracle:#?}");
    // work > run > the j loop > outer (> its loop > sq) and sq.
    let names: Vec<&str> = vm[0].children[0].children[0]
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, ["outer", "sq"], "{vm:?}");
}

// ---------------------------------------------------------------------
// The rules' oracle: tree-walk of rule(p) equals tree-walk of p, for
// inline_leaves, scope_temporaries, contract_temporaries and the whole
// pipeline, optimized
// ---------------------------------------------------------------------

/// The program contraction meets in `optimized`: `prog` scoped, inlined
/// and fused. Only there are GLAF's per-call work arrays fixed arrays,
/// and only there do inlined leaves bring theirs into their callers.
fn before_contraction(prog: &RProgram) -> RProgram {
    let mut p = prog.clone();
    for rule in [scope_temporaries, inline_leaves, fuse_spans] {
        if let Cow::Owned(q) = rule(&p) {
            p = q;
        }
    }
    p
}

/// Whether each rule changed the program it meets, each checked by
/// [`rewrite_agrees`]: `inline_leaves`, `scope_temporaries` and the
/// whole pipeline `optimized` on `prog`, and `contract_temporaries` on
/// [`before_contraction`] of it.
fn rules_agree(
    label: &str,
    prog: &RProgram,
    calls: &dyn Fn() -> Vec<(&'static str, Vec<ArgVal>)>,
) -> [bool; 4] {
    let agrees = |name: &str, rule: Rule, p: &RProgram| {
        rewrite_agrees(rule, &format!("{label} ({name})"), p, calls)
    };
    [
        agrees("inline_leaves", inline_leaves, prog),
        agrees("scope_temporaries", scope_temporaries, prog),
        agrees("contract_temporaries", contract_temporaries, &before_contraction(prog)),
        agrees("optimized", optimized, prog),
    ]
}

/// Each service corpus case as written, where its entry keeps its
/// calls, and behind a thin entry. The corpus is mostly one-unit
/// programs: only `value-result` calls a unit (`bump`, twice), and
/// behind a thin entry it inlines both calls. No case holds a scoped
/// temporary and none a temporary contraction takes; `vec-memset`'s
/// loops fuse, entry or not.
#[test]
fn rewrite_preserves_the_service_corpus() {
    let mut changed: [Vec<String>; 4] = Default::default();
    for case in common::corpus() {
        let calls = || vec![(case.unit, (case.mk_args)())];
        let prog = resolved(case.label, &[case.src]);
        let wrapped = thin_entry(&prog, case.unit);
        let thin = format!("{} (thin entry)", case.label);
        for (label, prog) in [(case.label.to_string(), prog), (thin, wrapped)] {
            for (labels, hit) in changed.iter_mut().zip(rules_agree(&label, &prog, &calls)) {
                if hit {
                    labels.push(label.clone());
                }
            }
        }
    }
    let [inlined, scoped, contracted, optimized] = changed;
    assert_eq!(inlined, ["value-result (thin entry)"], "cases inlining");
    assert_eq!(scoped, [""; 0], "cases scoping");
    assert_eq!(contracted, [""; 0], "cases contracting");
    let fused = [
        "value-result (thin entry)",
        "vec-memset",
        "vec-memset (thin entry)",
    ];
    assert_eq!(optimized, fused, "cases the pipeline changes");
}

/// A generated program makes its calls from its main program, an
/// entry, which keeps them; behind a thin entry `FILLUP`, `SWEEP` (a
/// constant argument) and `STIR` (the loop variable, by reference)
/// inline in every program. `BLEND` is called inside a sum, so it
/// never does. As written, no rule changes a generated program: no
/// program allocates, none holds a run fusion takes, and none a
/// per-iteration array temporary.
#[test]
fn rewrite_preserves_the_generated_corpus() {
    for seed in 0..200u64 {
        let files = fortrans::gen::generate(seed);
        let srcs: Vec<&str> = files.iter().map(String::as_str).collect();
        let label = format!("seed {seed}");
        let prog = resolved(&label, &srcs);
        let wrapped = thin_entry(&prog, "main");
        let calls = || vec![("main", vec![])];
        let changed = rules_agree(&label, &prog, &calls);
        assert_eq!(changed, [false; 4], "{label}: inlined, scoped, contracted, optimized");
        let label = format!("{label} (thin entry)");
        let art = CompiledProgram::from_resolved(wrapped.clone()).expect("wrapped compiles");
        let (kept, mut inlines) = calls_and_inlines(&Session::solo(art), "main%body");
        inlines.sort();
        assert_eq!(inlines, ["fillup", "stir", "sweep"], "{label}");
        assert!(kept.iter().all(|c| c == "blend"), "{label}: {kept:?}");
        let changed = rules_agree(&label, &wrapped, &calls);
        assert_eq!(
            changed,
            [true, false, false, true],
            "{label}: inlined, scoped, contracted, optimized"
        );
    }
}

/// The GLAF source sets inline where a called unit calls a leaf: every
/// FUN3D configuration's `cell_loop` or `edge_loop`, and the band
/// integrations of SARB's serial, v2 and v3 sets; v0 and v1 (sets 1
/// and 2) parallelize every band loop, so no band unit is a leaf, and
/// `run_columns`, an entry, keeps its calls. The FUN3D configurations
/// that allocate `edge_loop`'s work arrays on every call (sets 5, 6, 9,
/// 11 and 12) hold scoped temporaries, and once scoped those of every
/// set but 12, whose edge loop is a `PARALLEL DO`, contract. The
/// pipeline changes the sets that inline, and set 2, which fuses.
#[test]
fn rewrite_preserves_the_glaf_source_sets() {
    let mut changed: [Vec<usize>; 4] = Default::default();
    for (k, set) in sources::glaf_source_sets().iter().enumerate() {
        let srcs: Vec<&str> = set.iter().map(String::as_str).collect();
        let sarb = srcs.iter().any(|s| s.contains("SUBROUTINE run_columns"));
        let calls = || {
            if sarb {
                vec![("run_columns", vec![ArgVal::I(2)])]
            } else {
                let mesh = ("build_mesh", vec![ArgVal::I(24)]);
                vec![mesh, ("zero_jac", vec![]), ("edgejp", vec![])]
            }
        };
        let label = format!("GLAF set {k}");
        let prog = resolved(&label, &srcs);
        for (sets, hit) in changed.iter_mut().zip(rules_agree(&label, &prog, &calls)) {
            if hit {
                sets.push(k);
            }
        }
    }
    let [inlined, scoped, contracted, optimized] = changed;
    assert_eq!(contracted, [5, 6, 9, 11], "sets contracting");
    assert_eq!(
        inlined,
        [0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "sets inlining"
    );
    assert_eq!(scoped, [5, 6, 9, 11, 12], "sets scoping");
    assert_eq!(
        optimized,
        [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "sets the pipeline changes"
    );
}
