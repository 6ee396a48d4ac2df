//! Contracted temporaries: the optimized build's program rule
//! `rir::rewrite::contract_temporaries` turns a frame array whose every
//! mention is an element `t(m)`, written before it is read, in the
//! straight-line body of one serial `DO m` loop into a frame REAL
//! scalar, which the vector analysis then forward-substitutes like any
//! scalar temp.
//!
//! Some programs qualify; each of the others breaks one condition the
//! rule checks and keeps the array. Every program runs on four rungs in
//! Serial, `Parallel{2}` and Simulated, and all four must agree exactly,
//! the Simulated `CostTrace` included (`common/rungs.rs`). Each program
//! also names the arrays the rule contracted, read from the optimized
//! build's slot table; the traced build never contracts one. A program
//! the rule changes also runs on the tree-walker as the rule rewrites
//! it, which must run as the program does (`common/oracle.rs`). The file
//! ends with the rule for function calls after a forwarded temp's loop,
//! which contraction relies on, and the region counts of the GLAF source
//! sets, which contraction must not lower.

#[path = "common/oracle.rs"]
mod oracle;
#[path = "common/rungs.rs"]
mod rungs;
#[path = "common/sources.rs"]
mod sources;

use fortrans::bytecode::{BInstr, VSlot, VecRefusal};
use fortrans::rir::rewrite::{contract_temporaries, scope_temporaries};
use fortrans::{ArgVal, CompiledProgram, ExecMode, Session};
use rungs::{agree, line_of, runs, Rung, Snap};

/// `unit::var`, sorted, for every array the `traced` build holds in a
/// frame REAL scalar.
fn contracted(s: &Session, traced: bool) -> Vec<String> {
    let prog = s.program();
    let mut out = Vec::new();
    for (unit, bu) in prog.units.iter().zip(s.artifact().bytecode(traced).iter()) {
        for (v, info) in unit.vars.iter().enumerate() {
            if info.rank > 0 && matches!(bu.vslots[v], VSlot::F(_)) {
                out.push(format!("{}::{}", unit.name, info.name));
            }
        }
    }
    out.sort();
    out
}

/// Runs `src` everywhere, checks the rungs agree and the rule
/// contracted exactly `want` (sorted), and returns the oracle's Serial
/// snapshots. When `want` names any array, the rule alone, applied to
/// the program with its temporaries scoped, also runs as that program
/// does on the tree-walker.
fn check(label: &str, src: &str, n: i64, want: &[&str]) -> Vec<Snap> {
    let serial = agree(label, src, n, |s| {
        assert_eq!(contracted(s, false), want, "{label}: the rule's picks");
        assert!(contracted(s, true).is_empty(), "{label}: the traced build contracted an array");
    });
    let scoped = scope_temporaries(&oracle::resolved(label, &[src])).into_owned();
    let calls = || vec![("work", vec![ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(n)])];
    let changed = oracle::rewrite_agrees(contract_temporaries, label, &scoped, &calls);
    assert_eq!(changed, !want.is_empty(), "{label}: whether the rule changes the program");
    serial
}

/// `work(a, n)` over a 5-element `a`, with `decls` after the standard
/// ones, `body` as its statements and `units` after it in the module.
fn program(decls: &str, body: &str, units: &str) -> String {
    format!(
        r#"
MODULE m
  REAL(8) :: total
  REAL(8), DIMENSION(1:5, 1:2) :: b
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:5) :: t, u
    REAL(8), DIMENSION(:), ALLOCATABLE :: s
    INTEGER :: i, j
{decls}
{body}
  END SUBROUTINE work
  REAL(8) FUNCTION twice(k)
    INTEGER :: k
    twice = 2.0D0 * k
  END FUNCTION twice
{units}
END MODULE m
"#
    )
}

/// The report line of `work`'s `k`-th region.
fn region(src: &str, k: usize) -> fortrans::VectorLoopInfo {
    let rep = CompiledProgram::compile(&[src]).expect("program compiles").vector_report();
    rep.into_iter().filter(|r| r.unit == "work").nth(k).expect("the region exists")
}

/// Column `j` (0-based) of the module array `b` after a run.
fn col(snap: &Snap, j: usize) -> Vec<f64> {
    let (name, b) = &snap.globals[0];
    assert_eq!(name, "m::b");
    let b = b.as_ref().expect("b is an array");
    b[5 * j..5 * j + 5].iter().map(|&x| f64::from_bits(x)).collect()
}

/// Why the vector analysis left `work`'s loops scalar, in source order.
fn refusals(src: &str) -> Vec<VecRefusal> {
    let art = CompiledProgram::compile(&[src]).expect("program compiles");
    art.vector_refusals().into_iter().filter(|r| r.unit == "work").map(|r| r.why).collect()
}

/// `edge_loop`'s shape: a scoped temporary and two fixed locals, each
/// written and then read in one five-trip loop, a function call after
/// it. The region streams `a` and `b` alone, and the call reads none
/// of the forwarded temporaries.
#[test]
fn scoped_and_fixed_temporaries_contract() {
    let src = program(
        "",
        r#"
    ALLOCATE(s(1:5))
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      s(i) = EXP(-ABS(t(i)))
      u(i) = t(i) * s(i) + 1.0D0
      b(i, 1) = u(i) / (1.0D0 + ABS(s(i)))
    END DO
    total = total + twice(n)
    DEALLOCATE(s)
"#,
        "",
    );
    check("edge shape", &src, 5, &["work::s", "work::t", "work::u"]);
    let r = region(&src, 0);
    assert_eq!((r.stmts, r.proven + r.checked, r.contracted), (1, 2, 3), "{r:?}");
    assert!(refusals(&src).is_empty(), "a call that is not passed a temp reads none");
    let (_, s) = runs(&src, 5, ExecMode::Serial, Rung::Vector);
    assert!(s.vector_entry_count() > 0, "no VecLoop entry");
    if fortrans::jit::available() {
        let (_, s) = runs(&src, 5, ExecMode::Serial, Rung::Native);
        assert!(s.native_entry_count() > 0, "no native entry");
    }
}

/// The home loop may sit inside other loops; the scalar carries nothing
/// from one trip of the outer loop to the next.
#[test]
fn temporary_of_an_inner_loop_contracts() {
    let src = program(
        "",
        r#"
    DO j = 1, n
      DO i = 1, 5
        t(i) = a(i) + j
        b(i, 1) = b(i, 1) + t(i) * 0.5D0
      END DO
    END DO
"#,
        "",
    );
    check("inner loop", &src, 3, &["work::t"]);
}

/// Read before the iteration writes it: the read sees the zeroed frame
/// array on every call, which a scalar would not.
#[test]
fn read_before_write_is_refused() {
    let src = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = t(i) + a(i)
      u(i) = a(i) * 3.0D0
      b(i, 1) = u(i) - 2.0D0 * t(i)
    END DO
"#,
        "",
    );
    let serial = check("read before write", &src, 5, &["work::u"]);
    for snap in &serial {
        assert_eq!(col(snap, 0), [1.0, 2.0, 3.0, 4.0, 5.0], "t(i) read 0 before its store");
    }
}

#[test]
fn read_after_the_loop_is_refused() {
    let src = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      b(i, 1) = t(i) + 1.0D0
    END DO
    total = total + t(5)
"#,
        "",
    );
    let serial = check("read after", &src, 5, &[]);
    assert_eq!(serial[1].globals[1].1, Some(vec![20.0f64.to_bits()]), "total after two calls");
}

/// The fifth trip leaves the extent: the array's store faults there, on
/// its line, as under the tree-walker.
#[test]
fn bound_past_the_extent_is_refused_and_faults_on_its_line() {
    let src = program(
        "    REAL(8), DIMENSION(1:4) :: w",
        r#"
    DO i = 1, 5
      w(i) = a(i) * 2.0D0 ! fault
      b(i, 1) = w(i) + 1.0D0
    END DO
"#,
        "",
    );
    let serial = check("past the extent", &src, 5, &[]);
    let err = serial[0].result.as_ref().expect_err("w(5) is out of range");
    let line = line_of(&src, "! fault");
    let want = format!("index 5 out of bounds 1:4 in dimension 0 of `w` (in work at line {line})");
    assert!(err.contains(&want), "{err}");
}

#[test]
fn other_subscripts_are_refused() {
    let shifted = program(
        "",
        r#"
    DO i = 1, 4
      t(i + 1) = a(i) * 2.0D0
      b(i, 1) = t(i + 1) + 1.0D0
    END DO
"#,
        "",
    );
    check("t(i + 1)", &shifted, 5, &[]);
    let fixed = program(
        "",
        r#"
    DO i = 1, 5
      t(1) = a(i) * 2.0D0
      b(i, 1) = t(1) + 1.0D0
    END DO
"#,
        "",
    );
    check("t(1)", &fixed, 5, &[]);
}

/// Each loop alone would qualify.
#[test]
fn mentions_in_two_loops_are_refused() {
    let src = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      b(i, 1) = t(i) + 1.0D0
    END DO
    DO i = 1, 5
      t(i) = a(i) - 0.5D0
      b(i, 2) = t(i) * t(i)
    END DO
"#,
        "",
    );
    check("two loops", &src, 5, &[]);
}

#[test]
fn read_inside_an_if_is_refused() {
    let src = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      IF (a(i) > 2.5D0) b(i, 1) = t(i) + 1.0D0
    END DO
"#,
        "",
    );
    check("IF", &src, 5, &[]);
}

/// By reference the callee may store to the element, and whole it
/// holds the array.
#[test]
fn temporary_passed_to_a_call_is_refused() {
    let callee = r#"
  REAL(8) FUNCTION bump(x)
    REAL(8) :: x
    bump = x + 1.0D0
    x = 0.0D0
  END FUNCTION bump
  SUBROUTINE fill(w)
    REAL(8), DIMENSION(1:5) :: w
    w(3) = 7.0D0
  END SUBROUTINE fill
"#;
    let element = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      b(i, 1) = bump(t(i)) + t(i)
    END DO
"#,
        callee,
    );
    let serial = check("element by reference", &element, 5, &[]);
    assert_eq!(col(&serial[0], 0), [3.0, 5.0, 7.0, 9.0, 11.0], "bump zeroes t(i) after reading it");
    let whole = program(
        "",
        r#"
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      b(i, 1) = t(i) + 1.0D0
    END DO
    CALL fill(t)
"#,
        callee,
    );
    check("whole array", &whole, 5, &[]);
}

/// On the loop itself the team shares (or privatizes) the array; around
/// it, `PRIVATE` gives each member a copy.
#[test]
fn temporary_under_a_parallel_do_is_refused() {
    let on_loop = program(
        "",
        r#"
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      b(i, 1) = t(i) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
"#,
        "",
    );
    check("OMP on the loop", &on_loop, 5, &[]);
    let around = program(
        "",
        r#"
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(t, i)
    DO j = 1, 2
      DO i = 1, 5
        t(i) = a(i) * j
        b(i, j) = t(i) + 1.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
"#,
        "",
    );
    let serial = check("PRIVATE around", &around, 5, &[]);
    assert_eq!(col(&serial[0], 1), [3.0, 5.0, 7.0, 9.0, 11.0]);
}

#[test]
fn saved_array_is_refused() {
    let src = program(
        "    REAL(8), DIMENSION(1:5), SAVE :: v",
        r#"
    DO i = 1, 5
      v(i) = a(i) * 2.0D0
      b(i, 1) = v(i) + 1.0D0
    END DO
"#,
        "",
    );
    check("SAVE", &src, 5, &[]);
}

/// The dummy's stores go back to the caller's array.
#[test]
fn dummy_is_refused() {
    let src = program(
        "",
        r#"
    CALL scale(a)
"#,
        r#"
  SUBROUTINE scale(w)
    REAL(8), DIMENSION(1:5) :: w
    INTEGER :: i
    DO i = 1, 5
      w(i) = 2.0D0 * i
      total = total + w(i)
    END DO
  END SUBROUTINE scale
"#,
    );
    let serial = check("dummy", &src, 5, &[]);
    assert_eq!(serial[0].args[0], [2.0f64, 4.0, 6.0, 8.0, 10.0].map(f64::to_bits));
}

/// The query makes `s` no scoped temporary, so it has no fixed extent.
#[test]
fn allocated_query_is_refused() {
    let src = program(
        "",
        r#"
    ALLOCATE(s(1:5))
    IF (ALLOCATED(s)) total = total + 1.0D0
    DO i = 1, 5
      s(i) = a(i) * 2.0D0
      b(i, 1) = s(i) + 1.0D0
    END DO
    DEALLOCATE(s)
"#,
        "",
    );
    check("ALLOCATED", &src, 5, &[]);
}

/// A chain of `k` temporaries, each the square of the one before.
/// Substituted, the last one's lane program roughly doubles per link.
fn chain(k: usize) -> String {
    let names: Vec<String> = (1..=k).map(|j| format!("c{j}")).collect();
    let decls = format!("    REAL(8), DIMENSION(1:5) :: {}", names.join(", "));
    let mut body = String::from("    DO i = 1, 5\n      c1(i) = a(i) * 0.5D0\n");
    for j in 2..=k {
        body += &format!("      c{j}(i) = c{p}(i) * c{p}(i) + 0.5D0\n", p = j - 1);
    }
    body += &format!("      b(i, 1) = c{k}(i)\n    END DO\n");
    program(&decls, &body, "")
}

/// Forward substitution copies a definition into each read, so eight
/// links outgrow a region's lane-op cap: contracted, the loop stays
/// scalar (`TooBig`), and the four rungs still agree. Contraction is a
/// rule on the program and asks the vector analysis nothing; on the
/// measured workloads no loop loses a region to it. Four links fit.
#[test]
fn contraction_can_cost_a_region_and_still_agrees() {
    let long = chain(8);
    let links = ["work::c1", "work::c2", "work::c3", "work::c4"];
    let all: Vec<String> = (1..=8).map(|j| format!("work::c{j}")).collect();
    let all: Vec<&str> = all.iter().map(String::as_str).collect();
    check("chain of 8", &long, 5, &all);
    assert_eq!(refusals(&long), [VecRefusal::TooBig]);
    let short = chain(4);
    check("chain of 4", &short, 5, &links);
    let r = region(&short, 0);
    assert_eq!((r.stmts, r.contracted), (1, 4), "{r:?}");
}

/// A function call outside a loop reads a forwarded scalar temp only
/// through an argument that names it: not passed, the loop is a region;
/// passed by reference, the callee reads its final value, which a
/// region never stores, so the loop stays scalar (`Shape`).
#[test]
fn function_calls_read_a_forwarded_temp_only_through_arguments() {
    let units = r#"
  REAL(8) FUNCTION peek(y)
    REAL(8) :: y
    peek = y * 3.0D0
  END FUNCTION peek
"#;
    let loop_ = r#"
    DO i = 1, 5
      x = a(i) * 2.0D0
      b(i, 1) = x + 1.0D0
    END DO
"#;
    let around = format!("    x = twice(n)\n{loop_}    total = total + twice(n)\n");
    let src = program("    REAL(8) :: x", &around, units);
    check("call around", &src, 5, &[]);
    assert!(refusals(&src).is_empty(), "no call is passed x");
    let by_ref = format!("{loop_}    total = total + peek(x)\n");
    let src = program("    REAL(8) :: x", &by_ref, units);
    let serial = check("x by reference", &src, 5, &[]);
    assert_eq!(refusals(&src), [VecRefusal::Shape], "peek reads x's final value");
    assert_eq!(serial[0].globals[1].1, Some(vec![30.0f64.to_bits()]), "peek(10.0)");
}

/// Contraction gives regions up to no loop: the 13 GLAF source sets
/// (five SARB, eight FUN3D) keep the region counts they had before it,
/// counted in each unit's own code. A fused span's region comes on top
/// of the regions of the loops it fuses, which its original statements
/// keep, and is counted apart; a region in its S is in both copies of
/// S. The report also lists the copies inlined
/// leaves bring into their callers (a FUN3D `cell_loop` holds
/// `edge_loop`'s regions, a SARB band integration its bands'), which it
/// counts on top.
#[test]
fn glaf_source_sets_keep_their_region_counts() {
    let counts: Vec<(usize, usize, usize)> = sources::glaf_source_sets()
        .iter()
        .map(|set| {
            let refs: Vec<&str> = set.iter().map(String::as_str).collect();
            let art = CompiledProgram::compile(&refs).expect("source set compiles");
            let own = |bu: &fortrans::bytecode::BUnit, fused: bool| {
                let at = |pc: usize| bu.unit_for_pc(pc as u32) == bu.unit;
                let span = |pc: usize| bu.spans.iter().any(|s| s.fused as usize == pc);
                let region = |(pc, i): &(usize, &BInstr)| {
                    matches!(i, BInstr::VecLoop { .. }) && at(*pc) && span(*pc) == fused
                };
                bu.code.iter().enumerate().filter(region).count()
            };
            let bc = art.bytecode(false);
            let count = |fused| bc.iter().map(|bu| own(bu, fused)).sum::<usize>();
            (count(false), count(true), art.vector_report().len())
        })
        .collect();
    let own: Vec<usize> = counts.iter().map(|c| c.0).collect();
    let fused: Vec<usize> = counts.iter().map(|c| c.1).collect();
    let reported: Vec<usize> = counts.iter().map(|c| c.2).collect();
    assert_eq!(own, [28, 5, 10, 26, 28, 19, 10, 19, 10, 18, 18, 13, 2]);
    assert_eq!(fused, [4, 0, 2, 4, 4, 2, 2, 2, 2, 2, 2, 1, 0]);
    assert_eq!(reported, [44, 5, 12, 37, 39, 37, 19, 23, 14, 21, 21, 15, 2]);
}

