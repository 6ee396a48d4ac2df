//! INTEGER operations at the edges of `i64`, where an earlier engine
//! trapped or answered wrong on every rung: `MIN / -1`, `MOD(MIN, -1)`,
//! `-MIN`, `SIGN(MIN, -1)`, powers with a base of ±1 and powers past
//! `i64`.
//!
//! One operator table ([`fortrans::intrinsics`]) now says what each
//! computes, and every rung calls it: `+ - * / **` and negation wrap, so
//! `MIN / -1` and `-MIN` are `MIN` and `MIN ** 2` is 0, and a power
//! follows F77's integer rule, `1 / x**|n|` for `n < 0`. The programs read their operands
//! from the run-time argument `n`, so lowering cannot fold them; they
//! run on the tree-walk oracle, the scalar VM, the vector rung and eager
//! native in Serial, `Parallel{2}` and Simulated (`common/rungs.rs`),
//! which must agree exactly with no trap into the oracle. The debug
//! build runs them too, where an unchecked `-i` on `MIN` panics.

#[path = "common/rungs.rs"]
mod rungs;

use fortrans::{EngineService, ExecMode, ExecTier, Session, Val};

const MIN: i64 = i64::MIN;

/// `work(a, n)` storing `body`'s results in the module array `r`; with
/// `n = 1`, `m` is `MIN` and `n - 2` is -1, neither known to lowering.
fn program(body: &str) -> String {
    format!(
        r#"
MODULE m
  INTEGER, DIMENSION(1:8) :: r
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n, m
    m = -9223372036854775807 - n
{body}
  END SUBROUTINE work
END MODULE m
"#
    )
}

/// The module array `r` after the oracle's Serial run, on every rung.
fn results(label: &str, body: &str) -> Vec<i64> {
    let serial = rungs::agree(label, &program(body), 1, |_| {});
    let r = serial[0].globals.iter().find(|(g, _)| g.ends_with('r')).expect("the array r");
    let bits = r.1.as_ref().expect("r holds values");
    bits.iter().map(|&b| b as i64).collect()
}

#[test]
fn min_over_minus_one_wraps_on_every_rung() {
    let body = "    r(1) = m / (n - 2)\n    r(2) = MOD(m, n - 2)\n    r(3) = m / n";
    assert_eq!(results("MIN / -1", body)[..3], [MIN, 0, MIN]);
}

#[test]
fn negating_min_wraps_on_every_rung() {
    let body = "    r(1) = -m\n    r(2) = SIGN(m, n - 2)\n    r(3) = SIGN(m, n)\n    r(4) = ABS(m)";
    assert_eq!(results("-MIN", body)[..4], [MIN, MIN, MIN, MIN]);
}

/// A power past `i64` wraps like `*`: `(-2) ** 65` and `MIN ** 2` are 0.
#[test]
fn integer_powers_follow_f77_on_every_rung() {
    let body = "    r(1) = n ** (n - 2)\n    r(2) = (n - 2) ** (-3 * n)\n    \
                r(3) = (n - 2) ** (64 * n)\n    r(4) = (n + 1) ** (n - 2)\n    \
                r(5) = (n - 2) ** (65 * n)\n    r(6) = (n - n) ** (n - 2)\n    \
                r(7) = (n - 3) ** (65 * n)\n    r(8) = m ** (2 * n)";
    assert_eq!(results("powers", body), [1, -1, 1, 0, -1, 0, 0, 0]);
}

/// The same operations on literals fold at compile time, through the
/// same table: lowering's folder for assignments, `cfold` for a
/// `PARAMETER`. Compiling them used to panic inside the folder, through
/// `Session::compile`, `EngineService::compile` and the artifact cache.
#[test]
fn literal_edges_fold_without_panicking() {
    let src = r#"
MODULE lits
  INTEGER, PARAMETER :: k = 2**(-1)
  INTEGER, PARAMETER :: q = (-9223372036854775807 - 1) / (-1)
CONTAINS
  INTEGER FUNCTION f(i)
    INTEGER :: i
    INTEGER :: r1, r2, r3
    r1 = (-9223372036854775807 - 1) / (-1)
    r2 = MOD(-9223372036854775807 - 1, -1)
    r3 = (-1) ** 64 + 1 ** (-1) + k
    f = q
    IF (i == 1) f = r1
    IF (i == 2) f = r2
    IF (i == 3) f = r3
  END FUNCTION f
END MODULE lits
"#;
    assert!(EngineService::new(2).compile(&[src]).is_ok(), "the service compiles it");
    let s = Session::compile(&[src]).expect("the program compiles");
    for mode in [ExecMode::Serial, ExecMode::Simulated { threads: 2 }] {
        for tier in [ExecTier::TreeWalk, ExecTier::Vm] {
            let got: Vec<Option<Val>> = (1..=4)
                .map(|i| s.run_tiered("f", &[fortrans::ArgVal::I(i)], mode, tier).unwrap().result)
                .collect();
            let want = [Val::I(MIN), Val::I(0), Val::I(2), Val::I(MIN)].map(Some);
            assert_eq!(got, want, "{tier:?} under {mode:?}");
        }
    }
    assert_eq!(s.fallback_count(), 0);
}
