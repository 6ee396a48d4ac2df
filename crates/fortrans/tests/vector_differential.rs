//! Differential testing of the VM's vector superinstruction path.
//!
//! Every kernel runs three ways on fresh engines — VM with the vector
//! path enabled (the default), VM with it disabled
//! ([`Session::set_vector_enabled`]), and the tree-walk oracle — in all
//! three execution modes. Vector execution is designed to be
//! *bit-identical* to scalar execution (same per-element operations,
//! same statement order, same reduction fold order), so Serial and
//! Simulated snapshots must match exactly; Parallel combines reduction
//! partials in completion order, so floats get the usual tiny
//! tolerance.
//!
//! Each vectorizable kernel also asserts the vector path actually ran
//! (`Session::vector_entry_count`), so a silent de-vectorization
//! regression fails loudly here rather than only showing up as a bench
//! slowdown.

use std::sync::Arc;

use fortrans::{ArgVal, ArrayObj, ExecMode, ExecTier, RunLimits, ScalarTy, Session, Val};

const MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 4 },
];

/// Observable state of one run: result (or error string), printed
/// output, global bit dumps, argument-array bit dumps.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    result: Result<Option<Val>, String>,
    printed: String,
    globals: Vec<(String, Option<Vec<u64>>)>,
    args: Vec<Vec<u64>>,
}

fn dump(h: &ArrayObj) -> Vec<u64> {
    (0..h.len()).map(|k| h.get_bits(k)).collect()
}

fn snapshot(engine: &Session, unit: &str, args: &[ArgVal], mode: ExecMode, tier: ExecTier) -> Snap {
    let run = engine.run_tiered(unit, args, mode, tier);
    let (result, printed) = match run {
        Ok(out) => (Ok(out.result), out.printed),
        Err(e) => (Err(e.to_string()), String::new()),
    };
    let mut names = engine.global_names();
    names.sort();
    let globals = names
        .into_iter()
        .map(|n| {
            let bits = match engine.global_scalar(&n) {
                Some(Val::I(v)) => Some(vec![v as u64]),
                Some(Val::F(v)) => Some(vec![v.to_bits()]),
                Some(Val::B(v)) => Some(vec![u64::from(v)]),
                None => engine.global_array(&n).map(|h| dump(&h)),
            };
            (n, bits)
        })
        .collect();
    let args = args
        .iter()
        .filter_map(|a| match a {
            ArgVal::Arr(h) => Some(dump(h)),
            _ => None,
        })
        .collect();
    Snap { result, printed, globals, args }
}

fn f64_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Parallel-mode comparison: float results and f64 cells get a relative
/// tolerance (reduction combine order), everything else exact.
fn assert_tolerant(label: &str, x: &Snap, y: &Snap) {
    match (&x.result, &y.result) {
        (Ok(Some(Val::F(a))), Ok(Some(Val::F(b)))) => {
            assert!(f64_close(*a, *b), "{label}: results {a} vs {b}");
        }
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: results"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{label}: one side errored: {a:?} vs {b:?}"),
    }
    let close = |va: &[u64], vb: &[u64]| {
        va.len() == vb.len()
            && va
                .iter()
                .zip(vb)
                .all(|(&p, &q)| p == q || f64_close(f64::from_bits(p), f64::from_bits(q)))
    };
    assert_eq!(x.globals.len(), y.globals.len(), "{label}: global count");
    for ((n, a), (m, b)) in x.globals.iter().zip(&y.globals) {
        assert_eq!(n, m, "{label}: global order");
        match (a, b) {
            (Some(va), Some(vb)) => assert!(close(va, vb), "{label}: global {n}"),
            (a, b) => assert_eq!(a, b, "{label}: global {n}"),
        }
    }
    assert_eq!(x.args.len(), y.args.len(), "{label}: arg count");
    for (k, (va, vb)) in x.args.iter().zip(&y.args).enumerate() {
        assert!(close(va, vb), "{label}: arg array {k}");
    }
}

/// Runs `unit` three ways under every mode and cross-checks; with
/// `expect_vec` also asserts the vector path actually executed at
/// least one loop in Serial mode.
fn vector_differential(
    label: &str,
    src: &str,
    unit: &str,
    mk_args: impl Fn() -> Vec<ArgVal>,
    expect_vec: bool,
) {
    for mode in MODES {
        let von = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let voff = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        voff.set_vector_enabled(false);
        let oracle = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));

        let a_on = mk_args();
        let a_off = mk_args();
        let a_tw = mk_args();
        let s_on = snapshot(&von, unit, &a_on, mode, ExecTier::Vm);
        let s_off = snapshot(&voff, unit, &a_off, mode, ExecTier::Vm);
        let s_tw = snapshot(&oracle, unit, &a_tw, mode, ExecTier::TreeWalk);

        if matches!(mode, ExecMode::Parallel { .. }) {
            assert_tolerant(&format!("{label} vector-vs-scalar ({mode:?})"), &s_on, &s_off);
            assert_tolerant(&format!("{label} vector-vs-oracle ({mode:?})"), &s_on, &s_tw);
        } else {
            assert_eq!(s_on, s_off, "{label} under {mode:?}: vector and scalar VM diverge");
            assert_eq!(s_on, s_tw, "{label} under {mode:?}: vector VM and oracle diverge");
        }
        if expect_vec && matches!(mode, ExecMode::Serial) {
            assert!(
                !von.vector_report().is_empty(),
                "{label}: compiler emitted no vector descriptors"
            );
            assert!(
                von.vector_entry_count() > 0,
                "{label}: no loop actually ran on the vector path"
            );
            assert_eq!(
                voff.vector_entry_count(),
                0,
                "{label}: disabled engine still took the vector path"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Maps
// ---------------------------------------------------------------------

#[test]
fn vec_daxpy_map() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE daxpy(n, a, x, y)
    INTEGER :: n, i
    REAL(8) :: a
    REAL(8), DIMENSION(1:1000) :: x, y
    DO i = 1, n
      y(i) = y(i) + a * x(i)
    END DO
  END SUBROUTINE daxpy
END MODULE m
"#;
    let mk = || {
        let x: Vec<f64> = (0..1000).map(|k| 0.25 * k as f64).collect();
        let y: Vec<f64> = (0..1000).map(|k| 1.0 / (1.0 + k as f64)).collect();
        vec![ArgVal::I(1000), ArgVal::F(1.5), ArgVal::array_f(&x, 1), ArgVal::array_f(&y, 1)]
    };
    vector_differential("daxpy", src, "daxpy", mk, true);
}

#[test]
fn vec_multi_statement_fused_body() {
    // Several assignments in one loop body — the shape loop fusion
    // produces — with loads reused across statements.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE sweep(n, a, b, c, d)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:513) :: a, b, c, d
    DO i = 1, n
      c(i) = a(i) + b(i)
      d(i) = a(i) * b(i) - c(i)
      a(i) = a(i) * 0.5D0
    END DO
  END SUBROUTINE sweep
END MODULE m
"#;
    let mk = || {
        let v: Vec<f64> = (0..513).map(|k| (k as f64).sin()).collect();
        let w: Vec<f64> = (0..513).map(|k| (k as f64 * 0.1).cos()).collect();
        vec![
            ArgVal::I(513),
            ArgVal::array_f(&v, 1),
            ArgVal::array_f(&w, 1),
            ArgVal::array_f(&vec![0.0; 513], 1),
            ArgVal::array_f(&vec![0.0; 513], 1),
        ]
    };
    vector_differential("fused-body", src, "sweep", mk, true);
}

#[test]
fn vec_shifted_and_invariant_subscripts() {
    // Shifted write stream (i+1), reversed read (n-i+1, negative
    // coefficient) and an invariant term folded into the subscript.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE shift(n, k, x, y)
    INTEGER :: n, k, i
    REAL(8), DIMENSION(1:101) :: x, y
    DO i = 1, n
      y(i + 1) = x(n - i + 1) + x(k + i)
    END DO
  END SUBROUTINE shift
END MODULE m
"#;
    let mk = || {
        let x: Vec<f64> = (0..101).map(|j| j as f64 * 0.75).collect();
        vec![ArgVal::I(100), ArgVal::I(0), ArgVal::array_f(&x, 1), ArgVal::array_f(&vec![0.0; 101], 1)]
    };
    vector_differential("shifted", src, "shift", mk, true);
}

#[test]
fn vec_intrinsics_and_pow() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE planck(n, t, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:300) :: t, b
    DO i = 1, n
      b(i) = t(i)**4 * EXP(-1.0D0 / MAX(t(i), 0.5D0)) + SQRT(ABS(t(i)))
    END DO
  END SUBROUTINE planck
END MODULE m
"#;
    let mk = || {
        let t: Vec<f64> = (0..300).map(|k| 0.3 + 0.01 * k as f64).collect();
        vec![ArgVal::I(300), ArgVal::array_f(&t, 1), ArgVal::array_f(&vec![0.0; 300], 1)]
    };
    vector_differential("planck", src, "planck", mk, true);
}

#[test]
fn vec_2d_inner_column_sweep() {
    // Inner unit-stride loop over the leading (contiguous) dimension
    // with the outer index invariant — the SARB band-sweep shape.
    let src = r#"
MODULE grid_mod
  REAL(8), DIMENSION(1:64, 1:8) :: tau
  REAL(8), DIMENSION(1:64) :: acc
END MODULE grid_mod
MODULE m
  USE grid_mod
CONTAINS
  SUBROUTINE sweep()
    INTEGER :: i, j
    DO j = 1, 8
      DO i = 1, 64
        tau(i, j) = i * 1.0D0 + j * 100.0D0
      END DO
    END DO
    DO i = 1, 64
      acc(i) = 0.0D0
    END DO
    DO j = 1, 8
      DO i = 1, 64
        acc(i) = acc(i) + EXP(-tau(i, j) * 1.0D-3)
      END DO
    END DO
  END SUBROUTINE sweep
END MODULE m
"#;
    vector_differential("2d-sweep", src, "sweep", Vec::new, true);
}

// ---------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------

#[test]
fn vec_dot_product_reduction() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION dot(n, x, y)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:2000) :: x, y
    dot = 0.0D0
    DO i = 1, n
      dot = dot + x(i) * y(i)
    END DO
  END FUNCTION dot
END MODULE m
"#;
    let mk = || {
        let x: Vec<f64> = (0..2000).map(|k| (k as f64 * 0.01).sin()).collect();
        let y: Vec<f64> = (0..2000).map(|k| (k as f64 * 0.02).cos()).collect();
        vec![ArgVal::I(2000), ArgVal::array_f(&x, 1), ArgVal::array_f(&y, 1)]
    };
    vector_differential("dot", src, "dot", mk, true);
}

#[test]
fn vec_product_reduction_acc_right() {
    // Accumulator on the right-hand side of the fold operator.
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION prodr(n, x)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:400) :: x
    prodr = 1.0D0
    DO i = 1, n
      prodr = (1.0D0 + x(i) * 1.0D-3) * prodr
    END DO
  END FUNCTION prodr
END MODULE m
"#;
    let mk = || {
        let x: Vec<f64> = (0..400).map(|k| (k as f64 * 0.13).cos()).collect();
        vec![ArgVal::I(400), ArgVal::array_f(&x, 1)]
    };
    vector_differential("prodr", src, "prodr", mk, true);
}

#[test]
fn vec_reduction_into_global() {
    let src = r#"
MODULE acc_mod
  REAL(8) :: total
END MODULE acc_mod
MODULE m
  USE acc_mod
CONTAINS
  SUBROUTINE sum_into(n, x)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:777) :: x
    DO i = 1, n
      total = total + x(i)
    END DO
  END SUBROUTINE sum_into
END MODULE m
"#;
    let mk = || {
        let x: Vec<f64> = (0..777).map(|k| 1.0 / (1.0 + k as f64)).collect();
        vec![ArgVal::I(777), ArgVal::array_f(&x, 1)]
    };
    vector_differential("global-sum", src, "sum_into", mk, true);
}

// ---------------------------------------------------------------------
// Runtime guards: fallback must reproduce scalar behavior exactly
// ---------------------------------------------------------------------

#[test]
fn vec_zero_trip_loop() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE fill(n, y)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:10) :: y
    DO i = 1, n
      y(i) = 7.0D0
    END DO
  END SUBROUTINE fill
END MODULE m
"#;
    let mk = || vec![ArgVal::I(0), ArgVal::array_f(&[1.0; 10], 1)];
    // Zero-trip: the guard bails before doing anything (expect_vec off —
    // the descriptor exists but never executes).
    vector_differential("zero-trip", src, "fill", mk, false);
}

#[test]
fn vec_aliased_arguments_fall_back() {
    // Same array passed as both parameters: the write stream u(i)
    // overlaps the shifted read v(i+1), which only the runtime alias
    // guard can see. The vector path must fall back and match the
    // scalar result bit for bit.
    let src = r#"
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
"#;
    let shared = || {
        let obj = ArrayObj::new(ScalarTy::F, vec![(1, 33)]);
        for k in 0..33 {
            obj.set_f(k, k as f64 * 0.3 - 4.0);
        }
        let h = Arc::new(obj);
        vec![ArgVal::I(32), ArgVal::Arr(Arc::clone(&h)), ArgVal::Arr(h)]
    };
    vector_differential("aliased", src, "smooth", shared, false);
}

#[test]
fn vec_out_of_bounds_reported_at_scalar_iteration() {
    // The loop walks past the end of y; the bounds guard must reject
    // the whole range up front and the scalar loop then faults at the
    // exact iteration with the stock error message.
    let src = r#"
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
"#;
    let mk = || vec![ArgVal::I(12), ArgVal::array_f(&[0.0; 8], 1)];
    vector_differential("oob", src, "oob", mk, false);
}

#[test]
fn vec_step_budget_fallback_matches_scalar_error() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION spin(n)
    INTEGER :: n, i
    REAL(8) :: acc
    REAL(8), DIMENSION(1:1) :: dummy
    acc = 0.0D0
    DO i = 1, n
      acc = acc + SQRT(i * 1.0D0)
    END DO
    spin = acc
  END FUNCTION spin
END MODULE m
"#;
    for on in [true, false] {
        let mut e = Session::compile(&[src]).unwrap();
        e.set_limits(RunLimits { max_steps: Some(500), ..RunLimits::default() });
        e.set_vector_enabled(on);
        let err = e
            .run("spin", &[ArgVal::I(1_000_000)], ExecMode::Serial)
            .expect_err("budget must trip");
        assert!(
            err.to_string().contains("step budget of 500 exhausted"),
            "vector={on}: unexpected error {err}"
        );
        assert_eq!(e.vector_entry_count(), 0, "vector={on}: budget fallback must stay scalar");
    }
}

#[test]
fn vec_report_names_loops() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE two(n, x, y)
    INTEGER :: n, i
    REAL(8) :: s
    REAL(8), DIMENSION(1:64) :: x, y
    DO i = 1, n
      y(i) = x(i) * 2.0D0
    END DO
    s = 0.0D0
    DO i = 1, n
      s = s + y(i)
    END DO
    y(1) = s
  END SUBROUTINE two
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let rep = e.vector_report();
    assert_eq!(rep.len(), 2, "expected both loops vectorized: {rep:?}");
    assert!(rep.iter().all(|r| r.unit == "two"));
    assert_eq!(rep.iter().filter(|r| r.reduction).count(), 1);
}
