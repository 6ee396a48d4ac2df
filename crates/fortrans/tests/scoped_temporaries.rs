//! Scoped temporaries: the optimized bytecode build turns a local
//! ALLOCATABLE whose whole life is one literal-bound `ALLOCATE` and one
//! `DEALLOCATE` into a fixed frame array, and emits nothing for the pair.
//!
//! One program qualifies; each of the others breaks one condition the
//! rule checks (or puts the temporary inside an OMP region, which the
//! rule allows). Every program runs on four rungs — the tree-walk
//! oracle, the scalar VM, the vector rung and eager native — in Serial,
//! `Parallel{2}` and Simulated, and all four must agree exactly
//! (`common/rungs.rs`). Each program also names the arrays the rule
//! picked, read from the optimized build's `fixed_arrays`; the traced
//! build never picks one. Every temporary here is read outside a single
//! straight-line loop, so none is contracted into a scalar instead
//! (`array_contraction.rs`).

#[path = "common/rungs.rs"]
mod rungs;

use fortrans::bytecode::VSlot;
use fortrans::{ExecMode, Session};
use rungs::{agree, line_of, runs, Rung, Snap};

/// `unit::var` for every ALLOCATABLE the `traced` build made a fixed array.
fn picked(s: &Session, traced: bool) -> Vec<String> {
    let prog = s.program();
    let mut out = Vec::new();
    for (u, bu) in s.artifact().bytecode(traced).iter().enumerate() {
        for &(slot, _, _) in &bu.fixed_arrays {
            let unit = &prog.units[u];
            for (v, info) in unit.vars.iter().enumerate() {
                if info.allocatable && bu.vslots[v] == VSlot::A(slot) {
                    out.push(format!("{}::{}", unit.name, info.name));
                }
            }
        }
    }
    out
}

/// Runs `src` everywhere, checks the rungs agree and the rule picked
/// exactly `want`, and returns the oracle's Serial snapshots.
fn check(label: &str, src: &str, n: i64, want: &[&str]) -> Vec<Snap> {
    agree(label, src, n, |s| {
        assert_eq!(picked(s, false), want, "{label}: the rule's picks");
        assert!(picked(s, true).is_empty(), "{label}: the traced build picked a temporary");
    })
}

/// `work(a, n)` over a 5-element `a`, with `decls` after the standard
/// ones and `body` as its statements.
fn program(decls: &str, body: &str) -> String {
    format!(
        r#"
MODULE m
  REAL(8) :: total
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    REAL(8), DIMENSION(:), ALLOCATABLE :: t
    INTEGER :: i
{decls}
{body}
  END SUBROUTINE work
END MODULE m
"#
    )
}

/// The shape FUN3D's `edge_loop` has: allocate, fill through vector
/// loops, read, free. The second run sees `t` zeroed again.
#[test]
fn eligible_temporary_becomes_a_frame_array() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    DO i = 1, 5
      t(i) = a(i) * 2.0D0 + t(i)
    END DO
    DO i = 1, 5
      a(i) = t(i) + 1.0D0
    END DO
    total = total + t(5)
    DEALLOCATE(t)
"#,
    );
    let serial = check("eligible", &src, 5, &["work::t"]);
    assert_eq!(serial[1].args[0], [3.0f64, 5.0, 7.0, 9.0, 11.0].map(f64::to_bits));
    assert_eq!(serial[1].globals[0].1, Some(vec![20.0f64.to_bits()]), "total after two calls");
    // The regions really ran on the fast rungs.
    let (_, s) = runs(&src, 5, ExecMode::Serial, Rung::Vector);
    assert!(s.vector_entry_count() > 0, "no VecLoop entry");
    if fortrans::jit::available() {
        let (_, s) = runs(&src, 5, ExecMode::Serial, Rung::Native);
        assert!(s.native_entry_count() > 0, "no native entry");
    }
}

#[test]
fn allocate_inside_a_do_or_an_if_is_refused() {
    let in_do = program(
        "",
        r#"
    DO i = 1, 2
      ALLOCATE(t(1:5))
      t(i) = a(i)
      a(i) = t(i) * 3.0D0
      DEALLOCATE(t)
    END DO
"#,
    );
    check("in DO", &in_do, 5, &[]);
    let in_if = program(
        "",
        r#"
    IF (n > 0) THEN
      ALLOCATE(t(1:5))
    END IF
    t(1) = a(1) ! fault
    a(2) = t(1)
    DEALLOCATE(t)
"#,
    );
    check("in IF", &in_if, 1, &[]);
    // Not taken: the read faults on its own line.
    let serial = check("in IF, not taken", &in_if, 0, &[]);
    let err = serial[0].result.as_ref().expect_err("t is unallocated");
    let line = line_of(&in_if, "! fault");
    assert!(err.contains("used before ALLOCATE") && err.contains(&format!("line {line}")), "{err}");
}

#[test]
fn second_allocate_is_refused() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    t(1) = a(1)
    DEALLOCATE(t)
    ALLOCATE(t(1:5))
    a(2) = t(1) + 1.0D0
    DEALLOCATE(t)
"#,
    );
    let serial = check("two ALLOCATEs", &src, 5, &[]);
    assert_eq!(serial[0].args[0][1], 1.0f64.to_bits(), "the second ALLOCATE zeroes");
}

#[test]
fn bounds_that_are_not_literals_are_refused() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:n))
    t(n) = a(1)
    a(2) = t(n) * SIZE(t)
    DEALLOCATE(t)
"#,
    );
    check("bound n", &src, 5, &[]);
}

#[test]
fn allocated_query_is_refused() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    IF (ALLOCATED(t)) a(1) = 7.0D0
    t(2) = a(2)
    a(3) = t(2)
    DEALLOCATE(t)
"#,
    );
    check("ALLOCATED", &src, 5, &[]);
}

/// Had the rule taken `t`, its slot would still hold an array here.
#[test]
fn reference_after_deallocate_is_refused_and_faults_on_its_line() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    t(1) = a(1)
    DEALLOCATE(t)
    a(2) = t(1) ! fault
"#,
    );
    let serial = check("after DEALLOCATE", &src, 5, &[]);
    let err = serial[0].result.as_ref().expect_err("t is freed");
    let line = line_of(&src, "! fault");
    assert!(err.contains("used before ALLOCATE") && err.contains(&format!("line {line}")), "{err}");
}

#[test]
fn reference_before_allocate_is_refused() {
    let src = program(
        "",
        r#"
    IF (n < 0) a(1) = t(1)
    ALLOCATE(t(1:5))
    t(1) = a(1) + 1.0D0
    a(2) = t(1)
    DEALLOCATE(t)
"#,
    );
    check("before ALLOCATE", &src, 5, &[]);
}

#[test]
fn saved_allocatable_is_refused() {
    let src = program(
        "    REAL(8), DIMENSION(:), ALLOCATABLE, SAVE :: s",
        r#"
    ALLOCATE(s(1:5))
    s(1) = s(1) + a(1)
    a(2) = s(1)
    DEALLOCATE(s)
"#,
    );
    check("SAVE", &src, 5, &[]);
}

/// The caller's array arrives allocated: the dummy's `ALLOCATE` must
/// still fault, on its own line. The caller's temporary qualifies.
#[test]
fn allocatable_dummy_is_refused() {
    let src = r#"
MODULE m
  REAL(8) :: total
CONTAINS
  SUBROUTINE refill(u)
    REAL(8), DIMENSION(:), ALLOCATABLE :: u
    ALLOCATE(u(1:5)) ! fault
    u(1) = 4.0D0
    DEALLOCATE(u)
  END SUBROUTINE refill
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n
    REAL(8), DIMENSION(:), ALLOCATABLE :: t
    ALLOCATE(t(1:5))
    t(2) = a(2)
    CALL refill(t)
    a(1) = t(1)
    DEALLOCATE(t)
  END SUBROUTINE work
END MODULE m
"#;
    let serial = check("dummy", src, 5, &["work::t"]);
    let err = serial[0].result.as_ref().expect_err("u arrives allocated");
    let line = line_of(src, "! fault");
    assert!(err.contains("already allocated") && err.contains(&format!("line {line}")), "{err}");
}

#[test]
fn return_between_the_pair_is_refused() {
    let src = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    t(1) = a(1)
    IF (n > 3) RETURN
    a(2) = t(1)
    DEALLOCATE(t)
"#,
    );
    check("RETURN, taken", &src, 5, &[]);
    check("RETURN, not taken", &src, 1, &[]);
}

/// Shared, the team writes the one frame array; PRIVATE, each member of
/// a real or simulated team writes its own copy of it.
#[test]
fn temporary_inside_a_parallel_do_qualifies() {
    let shared = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
    END DO
    !$OMP END PARALLEL DO
    DO i = 1, 5
      a(i) = a(i) + t(i)
    END DO
    DEALLOCATE(t)
"#,
    );
    let serial = check("OMP shared", &shared, 5, &["work::t"]);
    assert_eq!(serial[0].args[0], [3.0f64, 6.0, 9.0, 12.0, 15.0].map(f64::to_bits));
    let private = program(
        "",
        r#"
    ALLOCATE(t(1:5))
    t = 1.5D0
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(t)
    DO i = 1, 5
      t(i) = a(i) * 2.0D0
      a(i) = t(i) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
    total = total + t(1) + t(5)
    DEALLOCATE(t)
"#,
    );
    let serial = check("OMP private", &private, 5, &["work::t"]);
    assert_eq!(serial[0].args[0], [3.0f64, 5.0, 7.0, 9.0, 11.0].map(f64::to_bits));
}
