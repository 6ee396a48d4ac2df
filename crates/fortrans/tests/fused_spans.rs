//! Fused spans: the optimized build lowers `rir::rewrite::fuse_spans`
//! of the scoped and inlined program, which turns `DO v = a, b` … S … `DO v = a, b`
//! into a span whose `fast` runs S, then one loop over both bodies, and
//! whose `slow` is the original statements; the VM speculates `fast`
//! and falls back to `slow` when S faults or trips a limit, or the fused
//! region's entry refuses.
//!
//! The accepted shapes and the refusal matrix each run on four rungs in
//! Serial, `Parallel{2}` and Simulated (`common/rungs.rs`), and each
//! names the spans the optimized build of the unit under test made.
//! Then faults — the first body's over S's, S's and the second body's
//! alone, a call-depth trip in S's inlined block — and limits: the
//! smallest step budget and the trip of every smaller one on every VM
//! rung, a pre-fired cancel token, the profiled span tree. Last, the
//! rewrite's own oracle: the tree-walker runs every span's `fast` of
//! the program the optimized build lowers as it runs the resolved
//! program, over the service corpus, the generated F77 corpus and the
//! GLAF source sets.

#[path = "common/mod.rs"]
mod common;
#[path = "common/oracle.rs"]
mod oracle;
#[path = "common/rungs.rs"]
mod rungs;
#[path = "common/sources.rs"]
mod sources;

use std::sync::Arc;

use fortrans::bytecode::BInstr;
use fortrans::rir::rewrite::optimized;
use fortrans::rir::{RProgram, RStmt, RUnit, SpStmt};
use fortrans::{
    ArgVal, CancelToken, CompiledProgram, ExecMode, ExecTier, RunLimits, Session, SpanNode, Val,
};
use oracle::{resolved, team_agrees, thin_entry, tree_walk};
use rungs::{agree, line_of, MODES};

/// The spans the optimized build of `unit` made: each one's original
/// loops' DO lines and its fused region's statement count.
fn spans(s: &Session, unit: &str) -> Vec<(Vec<u32>, usize)> {
    let u = s.program().unit_id(unit).expect("unit exists");
    let bu = &s.artifact().bytecode(false)[u];
    bu.spans
        .iter()
        .map(|d| {
            let lines = d
                .loops
                .iter()
                .map(|&(start, _)| bu.line_for_pc(start).unwrap())
                .collect();
            let BInstr::VecLoop { desc, .. } = bu.code[d.fused as usize] else {
                panic!("a span fuses a region");
            };
            (lines, bu.vecs[desc as usize].stmts.len())
        })
        .collect()
}

/// `work(a, n)` over a 5-element `a`, which calls `run(a, n)` with
/// `body` as its statements, module scalars `total` and `c`, module
/// arrays `g(5)` and `h(2, 5)`, and `units` after them in the module.
/// `run` is called, so the leaves it calls are inlined into it.
fn program(body: &str, units: &str) -> String {
    program_on("a", body, units)
}

/// [`program`] whose `work` passes `arg` as `run`'s dummy `a`.
fn program_on(arg: &str, body: &str, units: &str) -> String {
    format!(
        r#"
MODULE m
  REAL(8) :: total
  INTEGER :: c
  REAL(8), DIMENSION(1:5) :: g
  REAL(8), DIMENSION(1:2, 1:5) :: h
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    CALL run({arg}, n)
  END SUBROUTINE work
  SUBROUTINE run(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    INTEGER :: i, j, k, kk, m2
    REAL(8) :: y
    REAL(8), DIMENSION(1:5) :: t
{body}
  END SUBROUTINE run
{units}
END MODULE m
"#
    )
}

/// A leaf function whose body is a masked select, FUN3D's
/// `ioff_search` in small: inlined, it is an S that runs a region.
const PICK: &str = r#"
  INTEGER FUNCTION pick(nn)
    INTEGER :: nn
    INTEGER :: kf, jj
    kf = 1
    DO jj = 1, 5
      IF (jj <= nn .AND. jj * 2 > 5) THEN
        kf = MAX(kf, jj)
      END IF
    END DO
    pick = kf
  END FUNCTION pick
"#;

/// The DO lines of `src` marked `! L1`, `! L2`, … in order.
fn loop_lines(src: &str, count: usize) -> Vec<u32> {
    (1..=count)
        .map(|k| line_of(src, &format!("! L{k}")) as u32)
        .collect()
}

/// Runs `src` on every rung and mode and checks the spans of `run`.
fn check(label: &str, src: &str, want: &[(Vec<u32>, usize)]) -> Vec<rungs::Snap> {
    agree(label, src, 5, |s| {
        assert_eq!(spans(s, "run"), want, "{label}")
    })
}

fn pair(first: &str, between: &str, second: &str) -> String {
    program(
        &format!(
            "    DO i = 1, 5 ! L1\n{first}\n    END DO\n{between}\n    DO i = 1, 5 ! L2\n{second}\n    END DO"
        ),
        PICK,
    )
}

// ---------------------------------------------------------------------
// Accepted shapes
// ---------------------------------------------------------------------

/// Two adjacent loops over one range: a module array the first writes
/// and the second reads, a dummy the first reads and the second writes,
/// all at `(i)`.
#[test]
fn adjacent_pair_fuses() {
    let src = pair(
        "      g(i) = a(i) * 2.0D0",
        "",
        "      a(i) = g(i) + a(i) * 0.5D0",
    );
    check("adjacent pair", &src, &[(loop_lines(&src, 2), 2)]);
}

/// FUN3D's prologue in small: five loops over module arrays, two with
/// inner constant-trip nests, one running an element sum over its inner
/// loop, fuse into one region of eight statements.
#[test]
fn five_loop_chain_with_inner_nests_fuses() {
    let body = r#"
    y = a(2)
    DO i = 1, 5 ! L1
      g(i) = y * i
    END DO
    DO i = 1, 5 ! L2
      DO k = 1, 3
        g(i) = g(i) + g(i) * k * 0.5D0
      END DO
    END DO
    DO i = 1, 5 ! L3
      g(i) = g(i) / 3.0D0
    END DO
    DO i = 1, 5 ! L4
      DO k = 1, 2
        h(k, i) = g(i) * k
      END DO
    END DO
    DO i = 1, 5 ! L5
      g(i) = h(1, i) + h(2, i)
    END DO"#;
    let src = program(body, "");
    check("five-loop chain", &src, &[(loop_lines(&src, 5), 8)]);
}

/// FUN3D's edge in small: a temporaries loop, an inlined select as S,
/// and an accumulation that reads the temporary and S's result. The
/// temporary is fresh in the fused loop, which contracts it: one map
/// statement is left.
#[test]
fn pair_around_an_inlined_select_fuses() {
    let src = pair(
        "      t(i) = a(i) * 2.0D0 + n",
        "    kk = pick(n)",
        "      g(i) = g(i) + t(i) * kk",
    );
    let serial = check("pair around a select", &src, &[(loop_lines(&src, 2), 1)]);
    assert!(serial[0].result.is_ok());
    let art = CompiledProgram::compile(&[&src]).expect("compiles");
    let rep = art.vector_report();
    let fused = rep
        .iter()
        .find(|r| r.unit == "run" && r.stmts == 1 && r.contracted == 1);
    assert!(fused.is_some(), "the fused region contracts `t`: {rep:?}");
}

// ---------------------------------------------------------------------
// Refusals: each program runs as written, with no span
// ---------------------------------------------------------------------

fn refused(label: &str, src: &str) {
    check(label, src, &[]);
}

/// An S that stores an element, writes a global, or makes a call (a
/// subroutine with a `SAVE`d local is no leaf, so it stays a call).
#[test]
fn s_with_side_effects_is_refused() {
    let (first, second) = ("      g(i) = a(i) * 2.0D0", "      a(i) = g(i) + 1.0D0");
    refused(
        "S stores an element",
        &pair(first, "    h(1, 1) = 2.0D0", second),
    );
    refused(
        "S writes a global",
        &pair(first, "    total = 3.0D0", second),
    );
    let saved = r#"
  SUBROUTINE tally(x)
    REAL(8) :: x
    INTEGER, SAVE :: calls
    calls = calls + 1
    x = calls
  END SUBROUTINE tally
"#;
    let src = program(
        &format!(
            "    DO i = 1, 5\n{first}\n    END DO\n    CALL tally(y)\n    DO i = 1, 5\n{second}\n    END DO"
        ),
        saved,
    );
    refused("S calls a unit", &src);
}

/// An S that reads what the first body writes, or its loop variable.
#[test]
fn s_depending_on_the_first_body_is_refused() {
    let (first, second) = ("      g(i) = a(i) * 2.0D0", "      a(i) = g(i) + y");
    refused(
        "S reads the first body's output",
        &pair(first, "    y = g(2)", second),
    );
    refused(
        "S reads the loop variable",
        &pair(first, "    y = i * 1.0D0", second),
    );
}

/// Different bounds, and bounds an S changes.
#[test]
fn bounds_that_differ_or_change_are_refused() {
    let body = r#"
    DO i = 1, 5
      g(i) = a(i) * 2.0D0
    END DO
    DO i = 1, 4
      a(i) = g(i) + 1.0D0
    END DO"#;
    refused("bounds differ", &program(body, ""));
    let body = r#"
    m2 = 5
    DO i = 1, m2
      g(i) = a(i) * 2.0D0
    END DO
    m2 = m2 - 1
    DO i = 1, m2
      a(i) = g(i) + 1.0D0
    END DO"#;
    refused("bounds change inside the span", &program(body, ""));
}

/// A reduction or a running sum in a body: no such region is fused.
#[test]
fn reduction_and_running_sum_bodies_are_refused() {
    let body = r#"
    DO i = 1, 5
      g(i) = a(i) * 2.0D0
    END DO
    DO i = 1, 5
      total = total + g(i)
    END DO"#;
    refused("reduction body", &program(body, ""));
    let body = r#"
    y = 0.0D0
    DO i = 1, 5
      g(i) = a(i) * 2.0D0
    END DO
    DO i = 1, 5
      y = y + g(i)
      a(i) = y
    END DO"#;
    refused("running-sum body", &program(body, ""));
}

/// The second body writes `a(i + 1)`, which the first body's next
/// iteration reads: fused, that read would see the new value.
#[test]
fn backward_dependence_is_refused() {
    let body = r#"
    DO i = 1, 4
      g(i) = a(i) * 2.0D0
    END DO
    DO i = 1, 4
      a(i + 1) = g(i) + 1.0D0
    END DO"#;
    let serial = check("backward dependence", &program(body, ""), &[]);
    let bits = &serial[0].args[0];
    assert_eq!(
        f64::from_bits(bits[4]),
        9.0,
        "a(5) = g(4) + 1 = 2 * a(4) + 1 as read before"
    );
}

/// `work` passes module array `g` as `run`'s dummy `a`, so the two
/// names are one object: fusion counts a dummy and a global as one
/// array. Fused, the second body would read `a(i + 1)` before the first
/// body's next iteration writes it, and S, moved ahead of the first
/// body, would read `a(2)` before it is written.
#[test]
fn global_passed_as_the_dummy_is_one_array() {
    let body = r#"
    DO i = 1, 4
      g(i) = a(i) * 2.0D0
    END DO
    DO i = 1, 4
      h(1, i) = a(i + 1)
    END DO"#;
    refused("a body reads the global through the dummy", &program_on("g", body, ""));
    let body = r#"
    DO i = 1, 5
      g(i) = a(i) * 2.0D0
    END DO
    y = a(2)
    DO i = 1, 5
      h(1, i) = g(i) + y
    END DO"#;
    refused("S reads the global through the dummy", &program_on("g", body, ""));
}

// ---------------------------------------------------------------------
// Faults: the original statements' fault, whatever S does first
// ---------------------------------------------------------------------

/// The error `work` of `src` ends in on every rung and mode, where
/// `run` holds one span.
fn fault(label: &str, src: &str) -> String {
    let serial = agree(label, src, 5, |s| {
        assert_eq!(spans(s, "run").len(), 1, "{label}")
    });
    serial[0].result.clone().expect_err("the run faults")
}

/// The first body faults at `i = 4` and S would fault at once: the
/// original order faults in the first body, so the speculated S's fault
/// must not surface.
#[test]
fn first_body_fault_wins_over_s() {
    let src = pair(
        "      g(i) = t(i + n - 3) ! first load",
        "    y = h(2, n + 1)",
        "      h(1, i) = g(i) + y",
    );
    let err = fault("first body and S", &src);
    assert!(
        err.contains(&format!("line {}", line_of(&src, "first load"))),
        "{err}"
    );
}

/// S faults alone: after the first loop, at S's line.
#[test]
fn s_fault_alone_is_the_original() {
    let src = pair(
        "      g(i) = t(i)",
        "    y = h(2, n + 1) ! s read",
        "      h(1, i) = g(i) + y",
    );
    let err = fault("S alone", &src);
    assert!(
        err.contains(&format!("line {}", line_of(&src, "s read"))),
        "{err}"
    );
}

/// The second body faults alone, at `i = 4`: the fused region's entry
/// refuses and the original statements fault there.
#[test]
fn second_body_fault_alone_is_the_original() {
    let src = pair(
        "      g(i) = t(i)",
        "",
        "      h(1, i + n - 3) = g(i) ! second store",
    );
    let err = fault("second body alone", &src);
    assert!(
        err.contains(&format!("line {}", line_of(&src, "second store"))),
        "{err}"
    );
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

/// S's inlined block is one call deeper than `run`: with a depth limit
/// of 1 its entry trips in the speculated S, and the original
/// statements trip at the same call.
#[test]
fn call_depth_trip_in_s_is_the_original() {
    let src = pair(
        "      t(i) = a(i) * 2.0D0",
        "    kk = pick(n) ! the call",
        "      g(i) = g(i) + t(i) * kk",
    );
    let limits = RunLimits {
        max_call_depth: 1,
        ..RunLimits::default()
    };
    let err = under_limits(&src, limits).expect_err("depth 1 trips");
    assert!(err.contains("call depth exceeded"), "{err}");
    assert!(
        err.contains(&format!("line {}", line_of(&src, "the call"))),
        "{err}"
    );
    under_limits(
        &src,
        RunLimits {
            max_call_depth: 2,
            ..RunLimits::default()
        },
    )
    .expect("depth 2 fits");
}

// ---------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------

/// The pair around a select, run twice over.
fn limits_program() -> String {
    pair(
        "      t(i) = a(i) * 2.0D0 + n",
        "    kk = pick(n)",
        "      g(i) = g(i) + t(i) * kk",
    )
}

/// A VM session of one rung: scalar, vector, or eager native.
fn rung_session(src: &str, vector: bool, native: bool) -> Session {
    let s = Session::compile(&[src]).expect("program compiles");
    s.set_vector_enabled(vector);
    s.set_native_enabled(native);
    s.set_native_eager(native);
    s
}

/// `work`'s outcome under a step budget of `max_steps`.
fn budgeted(s: &mut Session, max_steps: u64) -> Result<Option<Val>, String> {
    s.set_limits(RunLimits {
        max_steps: Some(max_steps),
        ..RunLimits::default()
    });
    let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
    s.run_tiered("work", &a, ExecMode::Serial, ExecTier::Vm)
        .map(|o| o.result)
        .map_err(|e| e.to_string())
}

/// A committed span retires what its original statements would: the
/// smallest budget `work` finishes under is the scalar rung's on every
/// rung, and every smaller budget trips with the same message, line
/// included — in S, in the fused loops' set-up or in the loops.
#[test]
fn step_budgets_trip_alike_on_every_rung() {
    let src = limits_program();
    let mut rungs = [
        rung_session(&src, false, false),
        rung_session(&src, true, false),
        rung_session(&src, true, true),
    ];
    let smallest = (1..4096u64)
        .find(|&b| budgeted(&mut rungs[0], b).is_ok())
        .expect("the program fits 4096 steps");
    for b in 1..=smallest {
        let scalar = budgeted(&mut rungs[0], b);
        for (k, s) in rungs.iter_mut().enumerate().skip(1) {
            assert_eq!(budgeted(s, b), scalar, "rung {k} under a budget of {b}");
        }
    }
    let entries = (rungs[1].vector_entry_count(), rungs[2].native_entry_count());
    assert!(
        entries.0 > 0 && entries.1 > 0,
        "the span committed: {entries:?}"
    );
}

/// A committed span reserves what its original statements retire and
/// not a step more: under the smallest budget `work` finishes under on
/// the scalar rung, the vector and eager-native rungs enter the regions
/// they enter with no budget, the span's fused region included.
#[test]
fn the_smallest_budget_still_commits_the_span() {
    let src = limits_program();
    let mut scalar = rung_session(&src, false, false);
    let smallest = (1..4096u64)
        .find(|&b| budgeted(&mut scalar, b).is_ok())
        .expect("the program fits 4096 steps");
    let entries = |s: &mut Session, budget: u64| {
        let before = s.vector_entry_count() + s.native_entry_count();
        budgeted(s, budget).expect("work finishes");
        s.vector_entry_count() + s.native_entry_count() - before
    };
    for native in [false, true] {
        let mut s = rung_session(&src, true, native);
        let free = entries(&mut s, u64::MAX);
        assert_eq!(entries(&mut s, smallest), free, "native {native}");
    }
}

/// A token cancelled before the run: the first safepoint trips. On the
/// vector and native rungs that is the first region's entry, which for
/// the speculated span is its S's select, then the fused region: they
/// trip where the original statements' first region does, the first
/// loop's line.
#[test]
fn prefired_cancel_trips_at_the_first_loop() {
    let src = limits_program();
    let first = line_of(&src, "! L1");
    for (vector, native) in [(true, false), (true, true)] {
        let s = rung_session(&src, vector, native);
        let token = CancelToken::new();
        token.cancel("pre-fired");
        s.set_cancel_token(Some(Arc::clone(&token)));
        let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
        let err = s
            .run_tiered("work", &a, ExecMode::Serial, ExecTier::Vm)
            .expect_err("a fired token trips")
            .to_string();
        assert!(
            err.contains("pre-fired") && err.contains(&format!("line {first}")),
            "{err}"
        );
    }
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

/// A profiled run takes the original statements: the VM's span tree,
/// the select's unit span and every loop of it, is the tree-walker's.
#[test]
fn profiled_span_tree_matches_the_tree_walker() {
    let src = limits_program();
    let s = Session::compile(&[&src]).expect("compiles");
    assert_eq!(spans(&s, "run").len(), 1);
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
}

/// FUN3D's fused configuration: the prologue's five loops are one span
/// of `cell_loop`, and each edge's flux and accumulation loops one
/// around the inlined `ioff_search`, in `edge_loop` and in `cell_loop`'s
/// copy of it.
#[test]
fn fun3d_cells_fuse_their_prologue_and_edges() {
    use fun3d::variants::{build_artifact, Fun3dConfig, Fun3dVariant};
    let art = build_artifact(Fun3dVariant::Glaf(Fun3dConfig {
        fuse: true,
        ..Default::default()
    }));
    let s = Session::solo(art);
    assert_eq!(spans(&s, "edge_loop"), [(vec![79, 94], 1)]);
    assert_eq!(
        spans(&s, "cell_loop"),
        [(vec![120, 124, 130, 134, 140], 21), (vec![79, 94], 1)]
    );
}

/// Every region falls back to code that runs. In the fused FUN3D build
/// and the SARB GLAF-serial build, each span's fused `VecLoop` falls
/// through to its first original loop's first instruction and exits at
/// the span's end, the last original loop's exit.
#[test]
fn fused_regions_fall_through_to_the_original_loops() {
    use fun3d::variants::{Fun3dConfig, Fun3dVariant};
    use sarb::variants::SarbVariant;
    let fused = Fun3dVariant::Glaf(Fun3dConfig { fuse: true, ..Default::default() });
    let builds = [
        ("FUN3D fused", fun3d::variants::build_artifact(fused)),
        ("SARB GLAF serial", sarb::variants::build_artifact(SarbVariant::GlafSerial)),
    ];
    for (label, art) in builds {
        let mut spans = 0;
        for bu in art.bytecode(false).iter() {
            for d in &bu.spans {
                let BInstr::VecLoop { exit, .. } = bu.code[d.fused as usize] else {
                    panic!("{label}: a span fuses a region");
                };
                let (first, _) = d.loops[0];
                let &(_, last) = d.loops.last().expect("a span fuses loops");
                let BInstr::DoHead { exit: end, .. } = bu.code[last as usize] else {
                    panic!("{label}: an original loop has a fused head");
                };
                assert_eq!((d.fused + 1, exit), (first, end), "{label}: span {spans}");
                spans += 1;
            }
        }
        assert!(spans > 0, "{label}: no span");
    }
}

// ---------------------------------------------------------------------
// The rewrite's oracle: tree-walk of every span's `fast` equals
// tree-walk of the program before fusion
// ---------------------------------------------------------------------

/// `prog` with every span replaced by its `fast` statements.
fn fast_of(prog: &RProgram) -> RProgram {
    fn stmts(body: &[SpStmt]) -> Vec<SpStmt> {
        let mut out = Vec::with_capacity(body.len());
        for sp in body {
            let mut sp = sp.clone();
            match &mut sp.s {
                RStmt::Span { fast, .. } => {
                    out.extend(stmts(fast));
                    continue;
                }
                RStmt::If { arms, else_body } => {
                    arms.iter_mut().for_each(|(_, b)| *b = stmts(b));
                    *else_body = stmts(else_body);
                }
                RStmt::Do { body, .. }
                | RStmt::DoWhile { body, .. }
                | RStmt::Critical { body, .. }
                | RStmt::Inlined { body, .. } => *body = stmts(body),
                _ => {}
            }
            out.push(sp);
        }
        out
    }
    let mut out = prog.clone();
    for u in &mut out.units {
        *u = Arc::new(RUnit {
            body: stmts(&u.body),
            ..RUnit::clone(u)
        });
    }
    out
}

/// How many spans `prog` holds.
fn span_count(prog: &RProgram) -> usize {
    prog.units
        .iter()
        .map(|u| {
            let mut n = 0;
            count(&u.body, &mut n);
            n
        })
        .sum()
}

fn count(body: &[SpStmt], n: &mut usize) {
    for sp in body {
        match &sp.s {
            RStmt::Span { .. } => *n += 1,
            RStmt::If { arms, else_body } => {
                arms.iter().for_each(|(_, b)| count(b, n));
                count(else_body, n);
            }
            RStmt::Do { body, .. }
            | RStmt::DoWhile { body, .. }
            | RStmt::Critical { body, .. }
            | RStmt::Inlined { body, .. } => count(body, n),
            _ => {}
        }
    }
}

/// Runs `calls` on the tree-walker over `prog` and over the program the
/// optimized build lowers (`rir::rewrite::optimized`) with every span
/// replaced by its `fast`, under Serial and `Parallel{2}`; on a run that
/// does not fault they must agree, bit for bit, and under `Parallel` up
/// to [`team_agrees`]. Returns how many spans there were.
fn fusion_agrees(
    label: &str,
    prog: RProgram,
    calls: &dyn Fn() -> Vec<(&'static str, Vec<ArgVal>)>,
) -> usize {
    let fused = optimized(&prog).into_owned();
    let n = span_count(&fused);
    if n == 0 {
        return 0;
    }
    let before = CompiledProgram::from_resolved(prog).unwrap_or_else(|e| panic!("{label}: {e}"));
    let after = CompiledProgram::from_resolved(fast_of(&fused)).expect("fast program compiles");
    for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let want = tree_walk(&Session::solo(before.clone()), &calls(), mode);
        if want.0.is_err() {
            continue;
        }
        let got = tree_walk(&Session::solo(after.clone()), &calls(), mode);
        if mode == ExecMode::Serial {
            assert_eq!(got, want, "{label}: fusion changed the Serial run");
        } else {
            assert!(
                team_agrees(&got, &want),
                "{label}: fusion changed the Parallel run"
            );
        }
    }
    n
}

/// The service corpus, as written and behind a thin entry (which
/// changes nothing for fusion, which entries take part in too).
#[test]
fn rewrite_preserves_the_service_corpus() {
    let mut fused = Vec::new();
    for case in common::corpus() {
        let calls = || vec![(case.unit, (case.mk_args)())];
        let prog = resolved(case.label, &[case.src]);
        let wrapped = thin_entry(&prog, case.unit);
        let n = fusion_agrees(case.label, prog, &calls);
        let thin = fusion_agrees(&format!("{} (thin entry)", case.label), wrapped, &calls);
        assert_eq!(n, thin, "{}", case.label);
        if n > 0 {
            fused.push((case.label, n));
        }
    }
    assert_eq!(fused, [("vec-memset", 1)], "cases with spans");
}

/// The generated F77 corpus, as written and behind a thin entry: no
/// generated program holds a run of same-range loops either.
#[test]
fn rewrite_preserves_the_generated_corpus() {
    for seed in 0..200u64 {
        let files = fortrans::gen::generate(seed);
        let srcs: Vec<&str> = files.iter().map(String::as_str).collect();
        let label = format!("seed {seed}");
        let prog = resolved(&label, &srcs);
        let wrapped = thin_entry(&prog, "main");
        let calls = || vec![("main", vec![])];
        assert_eq!(fusion_agrees(&label, prog, &calls), 0, "{label}");
        assert_eq!(
            fusion_agrees(&format!("{label} (thin entry)"), wrapped, &calls),
            0
        );
    }
}

/// The GLAF source sets: every SARB set but v0 fuses band loops, and
/// every FUN3D configuration but the fully nested parallel one its
/// prologue, its edges or both; `fast` runs each as the original does.
#[test]
fn rewrite_preserves_the_glaf_source_sets() {
    let mut counts = Vec::new();
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
        counts.push(fusion_agrees(&label, resolved(&label, &srcs), &calls));
    }
    assert_eq!(counts, [4, 0, 2, 4, 4, 3, 3, 2, 2, 2, 2, 1, 0]);
}
