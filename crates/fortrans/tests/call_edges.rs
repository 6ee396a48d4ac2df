//! How a CALL binds its arguments, checked against values written out
//! by hand: value-result copies for a scalar passed twice, an element
//! whose subscript reads a variable the call changes, a module variable
//! passed and also written through the module, a conversion on the way
//! in and out, a function that changes its argument inside a sum and
//! inside an element store's right side, and a copy-out whose array the
//! callee deallocated.
//!
//! Each program runs on the tree-walk oracle, the scalar VM, the vector
//! rung and eager native in Serial, `Parallel{2}` and Simulated
//! (`common/rungs.rs`), twice: once with the calls in `work`, an entry,
//! whose calls stay calls in every build, and once behind `run`, which
//! `work` calls, so the optimized build inlines each leaf called as a
//! statement. The oracle's values are the ones written out here, and
//! every rung agrees with it exactly.

#[path = "common/rungs.rs"]
mod rungs;

use fortrans::bytecode::BInstr;
use fortrans::Session;
use rungs::Snap;

/// `work(a, n)` over module state: `body`, with `locals` declared, runs
/// in `work` itself, or, `behind_run`, in `run(n)`, which `work` calls;
/// `leaves` follow in the module.
fn program(locals: &str, body: &str, leaves: &str, behind_run: bool) -> String {
    let unit = |name: &str| {
        format!(
            "  SUBROUTINE {name}(n)\n    INTEGER :: n\n{locals}\n{body}\n  END SUBROUTINE {name}\n"
        )
    };
    let entry = if behind_run {
        format!(
            "  SUBROUTINE work(a, n)\n    REAL(8), DIMENSION(1:5) :: a\n    INTEGER :: n\n    \
             CALL run(n)\n  END SUBROUTINE work\n{}",
            unit("run")
        )
    } else {
        format!(
            "  SUBROUTINE work(a, n)\n    REAL(8), DIMENSION(1:5) :: a\n    INTEGER :: n\n\
             {locals}\n{body}\n  END SUBROUTINE work\n"
        )
    };
    format!(
        r#"
MODULE m
  INTEGER, DIMENSION(1:4) :: o
  INTEGER, DIMENSION(1:2) :: r
  INTEGER, DIMENSION(1:2) :: ga
  INTEGER :: g
  REAL(8), DIMENSION(:), ALLOCATABLE :: h
CONTAINS
{entry}{leaves}
END MODULE m
"#
    )
}

/// The units the optimized build of `unit` calls and inlines, in code
/// order.
fn calls_and_inlines(s: &Session, unit: &str) -> (Vec<String>, Vec<String>) {
    let prog = s.program();
    let bu = &s.artifact().bytecode(false)[prog.unit_id(unit).expect("unit exists")];
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

/// The INTEGER module array `o` after one run.
fn outputs(snap: &Snap) -> Vec<i64> {
    let (_, bits) = snap.globals.iter().find(|(g, _)| g == "m::o").expect("o");
    bits.as_ref().expect("o holds values").iter().map(|&b| b as i64).collect()
}

/// Runs the program both ways on every rung and mode. Behind `run`,
/// the optimized build inlines `inlined` and still calls the leaves of
/// `called`; as written, `work` calls both. Returns the Serial
/// oracle's snapshots of each way.
fn check(label: &str, (locals, body, leaves): (&str, &str, &str), inlined: &[&str], called: &[&str]) -> Vec<Snap> {
    let mut out = Vec::new();
    for behind_run in [false, true] {
        let src = program(locals, body, leaves, behind_run);
        let label = format!("{label}{}", if behind_run { " behind run" } else { "" });
        out.extend(rungs::agree(&label, &src, 1, |s| {
            let (unit, inlines) = if behind_run { ("run", inlined) } else { ("work", &[][..]) };
            let (calls, got) = calls_and_inlines(s, unit);
            assert_eq!(got, inlines, "{label}: inlined");
            let mut want: Vec<&str> = called.to_vec();
            if !behind_run {
                want = inlined.iter().chain(called).copied().collect();
            }
            let mut calls: Vec<&str> = calls.iter().map(String::as_str).collect();
            calls.sort_unstable();
            want.sort_unstable();
            assert_eq!(calls, want, "{label}: called");
        }));
    }
    out
}

/// Both dummies are bound to `x`: each copy goes back in argument
/// order, so the second dummy's value is the one `x` keeps.
#[test]
fn a_scalar_passed_twice_keeps_the_last_dummys_value() {
    let case = (
        "    INTEGER :: x",
        "    x = 0\n    CALL s(x, x)\n    o(1) = x",
        "  SUBROUTINE s(p, q)\n    INTEGER :: p, q\n    p = 1\n    q = 2\n  END SUBROUTINE s\n",
    );
    for snap in check("passed twice", case, &["s"], &[]) {
        assert_eq!(outputs(&snap)[0], 2);
    }
}

/// `r(k + 1)`'s subscript is taken once, on the way in: the element
/// copied back is `r(2)`, though the call leaves `k = 5`.
#[test]
fn an_elements_subscript_is_taken_once_on_the_way_in() {
    let case = (
        "    INTEGER :: k",
        "    r(1) = 0\n    r(2) = 0\n    k = 1\n    CALL t(r(k + 1), k)\n    o(1) = k\n    \
         o(2) = r(1)\n    o(3) = r(2)",
        "  SUBROUTINE t(p, q)\n    INTEGER :: p, q\n    q = 5\n    p = 7\n  END SUBROUTINE t\n",
    );
    for snap in check("element", case, &["t"], &[]) {
        assert_eq!(outputs(&snap)[..3], [5, 0, 7]);
    }
}

/// The callee writes `g` through the module and then its dummy, a copy
/// of `g`: the copy back overwrites the module write.
#[test]
fn a_module_variable_passed_and_written_through_the_module_takes_the_copy_back() {
    let case = (
        "",
        "    g = 10\n    CALL u(g)\n    o(1) = g",
        "  SUBROUTINE u(p)\n    INTEGER :: p\n    g = 3\n    p = p + 4\n  END SUBROUTINE u\n",
    );
    for snap in check("module variable", case, &["u"], &[]) {
        assert_eq!(outputs(&snap)[0], 14);
    }
}

/// An INTEGER passed to a REAL(8) dummy converts on the way in and
/// truncates on the way out: 2 + 0.75 comes back as 2.
#[test]
fn an_integer_passed_to_a_real_dummy_converts_both_ways() {
    let case = (
        "    INTEGER :: i",
        "    i = 2\n    CALL v(i)\n    o(1) = i",
        "  SUBROUTINE v(x)\n    REAL(8) :: x\n    x = x + 0.75D0\n  END SUBROUTINE v\n",
    );
    for snap in check("conversion", case, &["v"], &[]) {
        assert_eq!(outputs(&snap)[0], 2);
    }
}

/// Operands evaluate left to right: the first `y` reads 3, `f(y)`
/// doubles `y` to 6 and returns 7, the last `y` reads 6.
#[test]
fn a_function_that_changes_its_argument_inside_a_sum() {
    let case = (
        "    INTEGER :: y, s",
        "    y = 3\n    s = y + f(y) * 10 + y\n    o(1) = s\n    o(2) = y",
        "  INTEGER FUNCTION f(p)\n    INTEGER :: p\n    p = 2 * p\n    f = p + 1\n  \
         END FUNCTION f\n",
    );
    for snap in check("inside a sum", case, &[], &["f"]) {
        assert_eq!(outputs(&snap)[..2], [79, 6]);
    }
}

/// `ga(i) = bump(i)` takes its subscript before the right side runs:
/// the store lands in `ga(1)` although `bump` leaves `i = 2`.
#[test]
fn an_element_store_takes_its_subscript_before_the_call_changes_it() {
    let case = (
        "    INTEGER :: i",
        "    ga(1) = 0\n    ga(2) = 0\n    i = 1\n    ga(i) = bump(i)\n    o(1) = ga(1)\n    \
         o(2) = ga(2)\n    o(3) = i",
        "  INTEGER FUNCTION bump(k)\n    INTEGER :: k\n    k = k + 1\n    bump = 10 * k\n  \
         END FUNCTION bump\n",
    );
    for snap in check("element store", case, &[], &["bump"]) {
        assert_eq!(outputs(&snap)[..3], [20, 0, 2]);
    }
}

/// The callee deallocates the module array whose element it was
/// passed, so copying the element back faults, on the call's line.
#[test]
fn a_copy_back_into_a_deallocated_array_faults() {
    let case = (
        "",
        "    IF (ALLOCATED(h)) DEALLOCATE(h)\n    ALLOCATE(h(1:3))\n    CALL kill(h(2))\n    \
         o(1) = 1",
        "  SUBROUTINE kill(p)\n    REAL(8) :: p\n    DEALLOCATE(h)\n    p = 1.0D0\n  \
         END SUBROUTINE kill\n",
    );
    for snap in check("deallocated", case, &["kill"], &[]) {
        let err = snap.result.expect_err("the copy back faults");
        assert!(err.contains("array `h` used before ALLOCATE"), "{err}");
    }
}
