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
    vector_differential_in(&MODES, label, src, unit, mk_args, expect_vec);
}

fn vector_differential_in(
    modes: &[ExecMode],
    label: &str,
    src: &str,
    unit: &str,
    mk_args: impl Fn() -> Vec<ArgVal>,
    expect_vec: bool,
) {
    for &mode in modes {
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

// ---------------------------------------------------------------------
// Nest regions: short constant-trip inner loops are looked through
// ---------------------------------------------------------------------

/// The wider matrix the nest cases run under.
const NEST_MODES: [ExecMode; 5] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 2 },
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 1 },
    ExecMode::Simulated { threads: 4 },
];

/// One Serial run on the vector rung (no promotion): the argument
/// arrays afterwards (as f64), the result, and the entries it made.
fn serial_run(src: &str, unit: &str, args: Vec<ArgVal>) -> (Vec<Vec<f64>>, Option<Val>, u64) {
    let e = Session::compile(&[src]).unwrap();
    e.set_native_enabled(false);
    let out = e.run(unit, &args, ExecMode::Serial).unwrap_or_else(|e| panic!("{unit}: {e}"));
    let arrays = args
        .iter()
        .filter_map(|a| match a {
            ArgVal::Arr(h) if h.ty == ScalarTy::F => Some(h.to_f64_vec()),
            _ => None,
        })
        .collect();
    (arrays, out.result, e.vector_entry_count())
}

const GREEN_GAUSS: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE gg(n, g, w, q)
    INTEGER :: n, d, f
    REAL(8), DIMENSION(1:6) :: g
    REAL(8), DIMENSION(1:6, 1:4) :: w
    REAL(8), DIMENSION(1:4) :: q
    DO d = 1, n
      DO f = 1, 4
        g(d) = g(d) + w(d, f) * q(f)
      END DO
    END DO
  END SUBROUTINE gg
END MODULE m
"#;

fn green_gauss_args(n: i64) -> Vec<ArgVal> {
    // w(d, f) = d + 10 f, column-major; q(f) = f / 2.
    let w: Vec<f64> = (0..24).map(|k| (k % 6 + 1) as f64 + 10.0 * (k / 6 + 1) as f64).collect();
    vec![
        ArgVal::I(n),
        ArgVal::array_f(&[1.0; 6], 1),
        ArgVal::array_f_dims(&w, vec![(1, 6), (1, 4)]).unwrap(),
        ArgVal::array_f(&[0.5, 1.0, 1.5, 2.0], 1),
    ]
}

#[test]
fn nest_accumulate_chain_under_an_unrolled_index() {
    // The Green-Gauss shape: the same cell accumulates over the inner
    // index, so the four unrolled statements must stay in order.
    vector_differential_in(&NEST_MODES, "gg", GREEN_GAUSS, "gg", || green_gauss_args(6), true);
    // g(d) = 1 + sum_f (d + 10 f) f / 2 = 151 + 5 d, one entry for it.
    let (arrays, _, entries) = serial_run(GREEN_GAUSS, "gg", green_gauss_args(6));
    assert_eq!(arrays[0], [156.0, 161.0, 166.0, 171.0, 176.0, 181.0]);
    assert_eq!(entries, 1);
    let rep = Session::compile(&[GREEN_GAUSS]).unwrap().artifact().vector_report();
    assert_eq!(rep.len(), 1, "the inner loop belongs to the region: {rep:?}");
    assert_eq!((rep[0].line, rep[0].stmts), (9, 4));
}

const GATHER_NEST: &str = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION gather(cidx, qavg, qn, c2n)
    INTEGER :: cidx, m, k
    REAL(8), DIMENSION(1:5) :: qavg
    REAL(8), DIMENSION(1:5, 1:7) :: qn
    INTEGER, DIMENSION(1:4, 1:3) :: c2n
    DO m = 1, 5
      DO k = 1, 4
        qavg(m) = qavg(m) + qn(m, c2n(k, cidx))
      END DO
    END DO
    gather = 100 * m + k
  END FUNCTION gather
END MODULE m
"#;

fn array_i_dims(data: &[i64], dims: Vec<(i64, i64)>) -> ArgVal {
    let obj = ArrayObj::new(ScalarTy::I, dims);
    for (k, &v) in data.iter().enumerate() {
        obj.set_i(k, v);
    }
    ArgVal::Arr(Arc::new(obj))
}

fn gather_args(cidx: i64, nodes: &[i64; 12]) -> Vec<ArgVal> {
    // qn(m, n) = m + 10 n.
    let qn: Vec<f64> = (0..35).map(|k| (k % 5 + 1) as f64 + 10.0 * (k / 5 + 1) as f64).collect();
    vec![
        ArgVal::I(cidx),
        ArgVal::array_f(&[0.0; 5], 1),
        ArgVal::array_f_dims(&qn, vec![(1, 5), (1, 7)]).unwrap(),
        array_i_dims(nodes, vec![(1, 4), (1, 3)]),
    ]
}

const NODES: [i64; 12] = [1, 2, 3, 4, 7, 3, 5, 1, 2, 2, 6, 6];

#[test]
fn nest_indirect_invariant_subscript_and_inner_variable_after_the_nest() {
    let mk = || gather_args(2, &NODES);
    vector_differential_in(&NEST_MODES, "gather", GATHER_NEST, "gather", mk, true);
    // Cell 2 gathers nodes 7, 3, 5, 1: qavg(m) = 4 m + 10 * 16. The DO
    // variables hold their last values afterwards: m = 5, k = 4.
    let (arrays, result, entries) = serial_run(GATHER_NEST, "gather", mk());
    assert_eq!(arrays[0], [164.0, 168.0, 172.0, 176.0, 180.0]);
    assert_eq!(result, Some(Val::I(504)));
    assert_eq!(entries, 1);
}

#[test]
fn nest_inside_an_omp_body() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE cells(nc, g, w, a)
    INTEGER :: nc, c, d, f
    REAL(8), DIMENSION(1:3, 1:40) :: g
    REAL(8), DIMENSION(1:3, 1:4) :: w
    REAL(8), DIMENSION(1:4, 1:40) :: a
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(d, f)
    DO c = 1, nc
      DO d = 1, 3
        DO f = 1, 4
          g(d, c) = g(d, c) + w(d, f) * a(f, c)
        END DO
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE cells
END MODULE m
"#;
    let mk = || {
        // w(d, f) = d; a(f, c) = c.
        let w: Vec<f64> = (0..12).map(|k| (k % 3 + 1) as f64).collect();
        let a: Vec<f64> = (0..160).map(|k| (k / 4 + 1) as f64).collect();
        vec![
            ArgVal::I(40),
            ArgVal::array_f_dims(&[0.0; 120], vec![(1, 3), (1, 40)]).unwrap(),
            ArgVal::array_f_dims(&w, vec![(1, 3), (1, 4)]).unwrap(),
            ArgVal::array_f_dims(&a, vec![(1, 4), (1, 40)]).unwrap(),
        ]
    };
    vector_differential_in(&NEST_MODES, "omp-nest", src, "cells", mk, true);
    // g(d, c) = 4 d c, one three-lane entry per cell.
    let (arrays, _, entries) = serial_run(src, "cells", mk());
    let want: Vec<f64> = (0..120).map(|k| 4.0 * (k % 3 + 1) as f64 * (k / 3 + 1) as f64).collect();
    assert_eq!(arrays[0], want);
    assert_eq!(entries, 40);
}

#[test]
fn nest_two_levels_sibling_loops_and_a_forwarded_temp() {
    // Two nested unrolled loops, a REAL temp forwarded inside them
    // (nothing reads it after the loop, which would keep the loop
    // scalar), an INTEGER invariant load used as a value, and a sibling
    // loop that reuses `a`: 6 + 2 statements in one region.
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION sink(n, x, y, z, idx)
    INTEGER :: n, i, a, b
    REAL(8) :: t
    REAL(8), DIMENSION(1:40) :: x, z
    REAL(8), DIMENSION(1:40, 1:6) :: y
    INTEGER, DIMENSION(1:3) :: idx
    DO i = 1, n
      DO a = 1, 2
        DO b = 1, 3
          t = y(i, a * b) * idx(b)
          x(i) = x(i) + t / (a + b)
        END DO
      END DO
      DO a = 2, 3
        z(i) = z(i) - x(i) * a
      END DO
    END DO
    sink = 100 * a + 10 * b + i
  END FUNCTION sink
END MODULE m
"#;
    let y: Vec<f64> = (0..240).map(|k| 0.125 * (k % 17) as f64 + 1.0).collect();
    let mk = || {
        vec![
            ArgVal::I(40),
            ArgVal::array_f(&[1.0; 40], 1),
            ArgVal::array_f_dims(&y, vec![(1, 40), (1, 6)]).unwrap(),
            ArgVal::array_f(&[2.0; 40], 1),
            ArgVal::array_i(&[3, -1, 4], 1),
        ]
    };
    vector_differential_in(&NEST_MODES, "sink", src, "sink", mk, true);
    // The same arithmetic, in the nest's order.
    let idx = [3.0, -1.0, 4.0];
    let (mut x, mut z) = ([1.0f64; 40], [2.0f64; 40]);
    for i in 0..40 {
        for a in 1..=2usize {
            for b in 1..=3usize {
                let t = y[i + 40 * (a * b - 1)] * idx[b - 1];
                x[i] += t / (a + b) as f64;
            }
        }
        for a in 2..=3 {
            z[i] -= x[i] * a as f64;
        }
    }
    let (arrays, result, entries) = serial_run(src, "sink", mk());
    assert_eq!(arrays[0], x);
    assert_eq!(arrays[2], z);
    // DO variables after the nest: a = 3, b = 3, i = 40.
    assert_eq!(result, Some(Val::F(370.0)));
    assert_eq!(entries, 1);
}

#[test]
fn refusals_say_why_a_loop_stayed_scalar() {
    use fortrans::bytecode::VecRefusal::*;
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION twice(v)
    REAL(8) :: v
    twice = 2.0D0 * v
  END FUNCTION twice
  SUBROUTINE zoo(n, a, b, g, idx)
    INTEGER :: n, i, k, m
    REAL(8), DIMENSION(1:64) :: a, b
    REAL(8), DIMENSION(1:3, 1:64) :: g
    INTEGER, DIMENSION(1:64) :: idx
    DO i = 1, n
      IF (a(i) > 0.0D0) a(i) = 0.0D0
    END DO
    DO i = 1, n
      a(i) = twice(b(i))
    END DO
    DO i = 1, n
      a(idx(i)) = b(i)
    END DO
    DO i = 1, n
      a(i) = b(i + n / k)
    END DO
    DO i = 1, n
      a(i) = a(i + 1)
    END DO
    DO i = 1, n
      a(3) = b(i)
    END DO
    DO i = 1, n
      DO k = 1, 3
        g(k, i) = 0.0D0
      END DO
    END DO
    DO i = 1, n
      DO k = 1, 9
        a(i) = a(i) + b(k)
      END DO
    END DO
    DO i = 1, n, 2
      a(i) = b(i)
    END DO
    DO i = 1, n
      IF (idx(i) > m) m = MAX(m, i)
    END DO
    DO i = 1, n
      IF (idx(i) > 0 .AND. i <= n - k) m = MIN(i + 1, m)
    END DO
  END SUBROUTINE zoo
  SUBROUTINE carried(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b
    REAL(8) :: s
    s = 0.0D0
    DO i = 1, n
      b(i) = s
      s = s + a(i)
    END DO
    DO i = 1, n
      s = s + a(i)
      b(i) = a(s)
    END DO
  END SUBROUTINE carried
END MODULE m
"#;
    let art = Session::compile(&[src]).unwrap();
    let why: Vec<_> = art.artifact().vector_refusals().iter().map(|r| (r.line, r.why)).collect();
    assert_eq!(
        why,
        [
            (13, Control), // an IF that is not a select reduction
            (16, Call),
            (19, NonAffine),
            (22, ImpureInvariant),
            (25, WrittenPatterns),
            (28, NotInjective),
            (36, Control),      // nine trips are not looked through ...
            (37, NotInjective), // ... and alone the inner loop writes one cell
            (41, Shape),
            (44, Control), // the condition reads the accumulator
            (56, Shape),   // `b(i) = s` reads `s` before its update
            (60, Shape),   // a subscript would freeze the running value
        ]
    );
    // g(1, i), g(2, i), g(3, i) at 31 never meet; 47 is a masked select.
    let regions: Vec<_> = art.vector_report().iter().map(|r| (r.line, r.reduction)).collect();
    assert_eq!(regions, [(31, false), (47, true)]);
}

/// Runs `unit` with the vector path on and off and checks both fail the
/// same way: same error text (so same `in unit at line N`), same
/// partial stores, and no vector entry.
fn nest_guard_failure(src: &str, unit: &str, mk: impl Fn() -> Vec<ArgVal>, want_err: &str) {
    for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let mut seen = Vec::new();
        for on in [true, false] {
            let e = Session::compile(&[src]).unwrap();
            e.set_vector_enabled(on);
            let s = snapshot(&e, unit, &mk(), mode, ExecTier::Vm);
            assert_eq!(e.vector_entry_count(), 0, "vector={on}: a failed guard must stay scalar");
            seen.push(s);
        }
        let oracle = Session::compile(&[src]).unwrap();
        seen.push(snapshot(&oracle, unit, &mk(), mode, ExecTier::TreeWalk));
        assert_eq!(seen[0].result, Err(want_err.to_string()), "{mode:?}");
        assert_eq!(seen[0], seen[1], "vector-on and vector-off diverge under {mode:?}");
        assert_eq!(seen[0], seen[2], "VM and oracle diverge under {mode:?}");
    }
}

#[test]
fn nest_invariant_load_out_of_range_faults_where_the_scalar_nest_does() {
    // `idx` has two elements, the inner loop reads four: the guarded
    // read of idx(3) fails the entry, and the scalar nest stores
    // acc(1) twice before it faults on line 11.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE pick(acc, tab, idx)
    INTEGER :: m, k
    REAL(8), DIMENSION(1:3) :: acc
    REAL(8), DIMENSION(1:3, 1:9) :: tab
    INTEGER, DIMENSION(1:2) :: idx
    DO m = 1, 3
      DO k = 1, 4
        acc(m) = acc(m) + tab(m, idx(k))
      END DO
    END DO
  END SUBROUTINE pick
END MODULE m
"#;
    let mk = || {
        let tab: Vec<f64> = (0..27).map(|k| k as f64).collect();
        vec![
            ArgVal::array_f(&[0.0; 3], 1),
            ArgVal::array_f_dims(&tab, vec![(1, 3), (1, 9)]).unwrap(),
            ArgVal::array_i(&[2, 9], 1),
        ]
    };
    nest_guard_failure(
        src,
        "pick",
        mk,
        "index 3 out of bounds 1:2 in dimension 0 of `idx` (in pick at line 11)",
    );
    // tab(1, 2) + tab(1, 9) = 3 + 24 landed before the fault.
    let e = Session::compile(&[src]).unwrap();
    let args = mk();
    e.run("pick", &args, ExecMode::Serial).expect_err("idx(3) is out of range");
    assert_eq!(args[0].handle().unwrap().to_f64_vec(), [27.0, 0.0, 0.0]);
}

#[test]
fn nest_invariant_load_from_an_unallocated_array_faults_in_the_scalar_nest() {
    let src = r#"
MODULE m
  INTEGER, DIMENSION(:), ALLOCATABLE :: idx
CONTAINS
  SUBROUTINE pick(acc, tab)
    INTEGER :: m, k
    REAL(8), DIMENSION(1:3) :: acc
    REAL(8), DIMENSION(1:3, 1:9) :: tab
    DO m = 1, 3
      DO k = 1, 2
        acc(m) = acc(m) + tab(m, idx(k))
      END DO
    END DO
  END SUBROUTINE pick
END MODULE m
"#;
    let mk = || {
        vec![
            ArgVal::array_f(&[0.0; 3], 1),
            ArgVal::array_f_dims(&[1.0; 27], vec![(1, 3), (1, 9)]).unwrap(),
        ]
    };
    nest_guard_failure(src, "pick", mk, "array `idx` used before ALLOCATE (in pick at line 11)");
}

#[test]
fn nest_aliased_streams_fall_back() {
    // `u` and `v` are one array: the write u(d) overlaps the reads
    // v(d + f), which only the runtime alias guard can see.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE smear(n, u, v)
    INTEGER :: n, d, f
    REAL(8), DIMENSION(1:12) :: u, v
    DO d = 1, n
      DO f = 1, 3
        u(d) = u(d) + v(d + f) * 0.5D0
      END DO
    END DO
  END SUBROUTINE smear
END MODULE m
"#;
    let shared = || {
        let obj = ArrayObj::new(ScalarTy::F, vec![(1, 12)]);
        for k in 0..12 {
            obj.set_f(k, (k * k) as f64);
        }
        let h = Arc::new(obj);
        vec![ArgVal::I(9), ArgVal::Arr(Arc::clone(&h)), ArgVal::Arr(h)]
    };
    vector_differential_in(&NEST_MODES, "nest-aliased", src, "smear", shared, false);
    let e = Session::compile(&[src]).unwrap();
    e.run("smear", &shared(), ExecMode::Serial).unwrap();
    assert_eq!(e.vector_entry_count(), 0, "aliased streams must stay scalar");
    // Distinct arrays take the region.
    let distinct = || {
        let v: Vec<f64> = (0..12).map(|k| (k * k) as f64).collect();
        vec![ArgVal::I(9), ArgVal::array_f(&v, 1), ArgVal::array_f(&v, 1)]
    };
    vector_differential_in(&NEST_MODES, "nest-distinct", src, "smear", distinct, true);
}

#[test]
fn nest_step_budget_trips_at_the_same_step_on_both_paths() {
    // 200 steps run out inside the nest: the entry cannot reserve the
    // whole trip, so both paths run the scalar nest and stop after the
    // same stores.
    let mut seen = Vec::new();
    for on in [true, false] {
        let mut e = Session::compile(&[GREEN_GAUSS]).unwrap();
        e.set_limits(RunLimits { max_steps: Some(200), ..RunLimits::default() });
        e.set_vector_enabled(on);
        let args = green_gauss_args(6);
        let err = e.run("gg", &args, ExecMode::Serial).expect_err("budget must trip");
        assert!(err.to_string().contains("step budget of 200 exhausted"), "vector={on}: {err}");
        assert_eq!(e.vector_entry_count(), 0, "vector={on}: budget fallback must stay scalar");
        seen.push((err.to_string(), args[1].handle().unwrap().to_f64_vec()));
    }
    assert_eq!(seen[0], seen[1]);
    let g = &seen[0].1;
    // Five whole cells, then one inner trip of the sixth (each outer
    // iteration retires 36 steps since the inner loop's literal bounds
    // became one `DoInitK`; at 38 the sixth cell had stored nothing).
    assert!(g[0] == 156.0 && g[5] == 9.0, "tripped mid-nest, after some cells: {g:?}");
    // What the entry reserves per outer iteration is what the scalar
    // nest retires for one (profiled runs take the scalar path).
    let scalar = Session::compile(&[GREEN_GAUSS]).unwrap();
    let steps = |n: i64| {
        let run = scalar.run_profiled("gg", &green_gauss_args(n), ExecMode::Serial, ExecTier::Vm);
        run.unwrap().1.steps
    };
    let iter_cost = scalar.artifact().bytecode(false)[0].vecs[0].iter_cost;
    assert_eq!(steps(6) - steps(5), u64::from(iter_cost));
    // So with exactly the budget the scalar run needs, the entry can
    // reserve the whole trip and the region runs.
    let mut e = Session::compile(&[GREEN_GAUSS]).unwrap();
    e.set_limits(RunLimits { max_steps: Some(steps(6)), ..RunLimits::default() });
    e.set_native_enabled(false);
    e.run("gg", &green_gauss_args(6), ExecMode::Serial).expect("the budget covers the run");
    assert_eq!(e.vector_entry_count(), 1);
}

// ---------------------------------------------------------------------
// Masked select reductions: `IF (c) acc = MAX(acc, t)` over INTEGER lanes
// ---------------------------------------------------------------------

/// The modes the select and disjointness cases run under.
const SELECT_MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 2 },
    ExecMode::Simulated { threads: 2 },
];

/// `ioff_search`'s shape twice over: the largest (`MAX`) and smallest
/// (`MIN`, accumulator second, an invariant in the term) slot of node
/// `n1`'s neighbour row holding `n2`, the row cut at `nnbr(n1)`. A
/// PARALLEL DO asks one query per row of `q`.
const SEARCH: &str = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION kmax(n1, n2, nn, nbr, nnbr)
    INTEGER :: n1, n2, nn, j, k
    INTEGER, DIMENSION(1:8, 1:6) :: nbr
    INTEGER, DIMENSION(1:6) :: nnbr
    k = -1
    DO j = 1, nn
      IF (j <= nnbr(n1) .AND. nbr(j, n1) == n2) k = MAX(k, j)
    END DO
    kmax = k
  END FUNCTION kmax
  INTEGER FUNCTION kmin(n1, n2, nbr, nnbr)
    INTEGER :: n1, n2, j, k
    INTEGER, DIMENSION(1:8, 1:6) :: nbr
    INTEGER, DIMENSION(1:6) :: nnbr
    k = 99
    DO j = 1, 8
      IF (.NOT. (j > nnbr(n1)) .AND. nbr(j, n1) == n2) k = MIN(10 * j + n1, k)
    END DO
    kmin = k
  END FUNCTION kmin
  SUBROUTINE search(nq, q, nbr, nnbr, out)
    INTEGER :: nq, i
    INTEGER, DIMENSION(1:2, 1:8) :: q, out
    INTEGER, DIMENSION(1:8, 1:6) :: nbr
    INTEGER, DIMENSION(1:6) :: nnbr
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, nq
      out(1, i) = kmax(q(1, i), q(2, i), 8, nbr, nnbr)
      out(2, i) = kmin(q(1, i), q(2, i), nbr, nnbr)
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE search
  SUBROUTINE probe(n1, n2, nn, nbr, nnbr, out)
    INTEGER :: n1, n2, nn
    INTEGER, DIMENSION(1:8, 1:6) :: nbr
    INTEGER, DIMENSION(1:6) :: nnbr
    INTEGER, DIMENSION(1:2, 1:8) :: out
    out(1, 1) = 7
    out(2, 1) = kmax(n1, n2, nn, nbr, nnbr)
  END SUBROUTINE probe
END MODULE m
"#;

/// Six neighbour rows, one per case: no match (1), a match in the last
/// lane only (2), several matches (3), matches past the `nnbr` cut (4),
/// an empty row (5), every lane a match (6).
fn search_tables() -> (ArgVal, ArgVal) {
    let rows: [[i64; 8]; 6] = [
        [2, 3, 4, 5, 6, 2, 3, 4],
        [1, 3, 4, 6, 1, 3, 4, 5],
        [4, 7, 4, 1, 4, 2, 0, 0],
        [6, 6, 2, 6, 6, 6, 6, 6],
        [3, 3, 3, 3, 3, 3, 3, 3],
        [1, 1, 1, 1, 1, 1, 1, 1],
    ];
    let nbr: Vec<i64> = rows.iter().flatten().copied().collect();
    (array_i_dims(&nbr, vec![(1, 8), (1, 6)]), ArgVal::array_i(&[8, 8, 6, 2, 0, 8], 1))
}

fn search_args() -> Vec<ArgVal> {
    let (nbr, nnbr) = search_tables();
    let q: Vec<i64> = [(1, 99), (2, 5), (3, 4), (4, 6), (5, 3), (6, 1)]
        .iter()
        .flat_map(|&(n1, n2)| [n1, n2])
        .chain([0; 4])
        .collect();
    vec![
        ArgVal::I(6),
        array_i_dims(&q, vec![(1, 2), (1, 8)]),
        nbr,
        nnbr,
        array_i_dims(&[0; 16], vec![(1, 2), (1, 8)]),
    ]
}

#[test]
fn select_max_and_min_pick_their_lanes_in_order() {
    vector_differential_in(&SELECT_MODES, "search", SEARCH, "search", search_args, true);
    let e = Session::compile(&[SEARCH]).unwrap();
    let rep = e.vector_report();
    let selects: Vec<_> = rep.iter().map(|r| (r.unit.as_str(), r.stmts, r.reduction)).collect();
    assert_eq!(selects, [("kmax", 1, true), ("kmin", 1, true)]);
    e.set_native_enabled(false);
    let args = search_args();
    e.run("search", &args, ExecMode::Serial).unwrap();
    let out = args[4].handle().unwrap();
    let got: Vec<i64> = (0..12).map(|k| out.get_i(k)).collect();
    #[rustfmt::skip]
    let want = [
        -1, 99, // nothing matches
        8, 82,  // only the last lane
        5, 13,  // MAX takes the last of 1, 3, 5; MIN the first
        2, 14,  // lanes 4.. are past nnbr(4) = 2
        -1, 99, // nnbr(5) = 0 cuts every lane
        8, 16,  // every lane matches
    ];
    assert_eq!(got, want);
    assert_eq!(e.vector_entry_count(), 12, "one entry per call, every call on the vector rung");
}

#[test]
fn select_stream_out_of_range_at_the_last_lane_faults_in_the_scalar_loop() {
    // Nine trips over an eight-row table: `nbr(9, 3)` only exists for
    // the guard, which refuses the whole entry, so the scalar loop folds
    // lanes 1..8 and then faults at lane 9 on line 10, after `probe`
    // stored `out(1, 1)`.
    let mk = || {
        let (nbr, nnbr) = search_tables();
        let out = array_i_dims(&[0; 16], vec![(1, 2), (1, 8)]);
        vec![ArgVal::I(3), ArgVal::I(4), ArgVal::I(9), nbr, nnbr, out]
    };
    nest_guard_failure(
        SEARCH,
        "probe",
        mk,
        "index 9 out of bounds 1:8 in dimension 0 of `nbr` (in kmax at line 10)",
    );
    let e = Session::compile(&[SEARCH]).unwrap();
    let args = mk();
    e.run("probe", &args, ExecMode::Serial).expect_err("nbr(9, 3) is out of range");
    let out = args[5].handle().unwrap();
    assert_eq!((out.get_i(0), out.get_i(1)), (7, 0));
}

/// A thousand trips, nine in ten of them taken.
const BUSY: &str = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION busy(n, v)
    INTEGER :: n, j, k
    INTEGER, DIMENSION(1:1000) :: v
    k = 0
    DO j = 1, n
      IF (v(j) /= 0) k = MAX(k, j)
    END DO
    busy = k
  END FUNCTION busy
END MODULE m
"#;

fn busy_args(n: i64, taken: impl Fn(i64) -> bool) -> Vec<ArgVal> {
    let v: Vec<i64> = (1..=1000).map(|j| i64::from(taken(j))).collect();
    vec![ArgVal::I(n), ArgVal::array_i(&v, 1)]
}

#[test]
fn select_step_budget_covers_the_taken_ifs_or_trips_on_the_scalar_path() {
    let mostly = |j: i64| j % 10 != 0;
    let scalar = Session::compile(&[BUSY]).unwrap();
    let steps = |args: Vec<ArgVal>| {
        let run = scalar.run_profiled("busy", &args, ExecMode::Serial, ExecTier::Vm);
        run.unwrap().1.steps
    };
    // What the entry reserves is what the scalar loop retires: the
    // not-taken iteration, plus the arm for a taken one.
    let d = &scalar.artifact().bytecode(false)[0].vecs[0];
    let (iter, taken) = (u64::from(d.iter_cost), u64::from(d.taken_cost));
    assert!(d.sel.is_some() && taken > 0);
    assert_eq!(steps(busy_args(6, |_| false)) - steps(busy_args(5, |_| false)), iter);
    assert_eq!(steps(busy_args(6, |_| true)) - steps(busy_args(5, |_| true)), iter + taken);
    let full = steps(busy_args(1000, mostly));

    // A budget that covers every trip at the not-taken price but not the
    // 900 taken arms: the entry evaluates the mask, cannot reserve, and
    // both paths trip at the same step.
    let short = full - 450 * taken;
    let mut seen = Vec::new();
    for on in [true, false] {
        let mut e = Session::compile(&[BUSY]).unwrap();
        e.set_limits(RunLimits { max_steps: Some(short), ..RunLimits::default() });
        e.set_vector_enabled(on);
        e.set_native_enabled(false);
        let err = e.run("busy", &busy_args(1000, mostly), ExecMode::Serial).expect_err("trips");
        assert!(err.to_string().contains(&format!("step budget of {short} exhausted")), "{err}");
        assert_eq!(e.vector_entry_count(), 0, "vector={on}: budget fallback must stay scalar");
        seen.push(err.to_string());
    }
    assert_eq!(seen[0], seen[1]);
    // With the budget the scalar run needs, the entry reserves and runs.
    let mut e = Session::compile(&[BUSY]).unwrap();
    e.set_limits(RunLimits { max_steps: Some(full), ..RunLimits::default() });
    e.set_native_enabled(false);
    let out = e.run("busy", &busy_args(1000, mostly), ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::I(999)));
    assert_eq!(e.vector_entry_count(), 1);
    vector_differential_in(&SELECT_MODES, "busy", BUSY, "busy", || busy_args(1000, mostly), true);
}

#[test]
fn selects_outside_the_rule_stay_scalar_and_agree() {
    // A REAL accumulator, an ELSE, and a term that is not affine.
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION odd(n, v, w)
    INTEGER :: n, j, k, p
    REAL(8) :: s
    INTEGER, DIMENSION(1:50) :: v
    REAL(8), DIMENSION(1:50) :: w
    s = 0.0D0
    k = 0
    p = 0
    DO j = 1, n
      IF (v(j) > 2) s = MAX(s, w(j))
    END DO
    DO j = 1, n
      IF (v(j) > 2) THEN
        k = MAX(k, j)
      ELSE
        k = MIN(k, j)
      END IF
    END DO
    DO j = 1, n
      IF (v(j) > 2) p = MAX(p, v(j))
    END DO
    odd = s + k + p
  END FUNCTION odd
END MODULE m
"#;
    use fortrans::bytecode::VecRefusal::*;
    let e = Session::compile(&[src]).unwrap();
    let why: Vec<_> = e.artifact().vector_refusals().iter().map(|r| (r.line, r.why)).collect();
    assert_eq!(why, [(12, Control), (15, Control), (22, NonAffine)]);
    let mk = || {
        let v: Vec<i64> = (0..50).map(|j| (j * 7) % 5).collect();
        let w: Vec<f64> = (0..50).map(|j| (j as f64 * 0.3).sin()).collect();
        vec![ArgVal::I(50), ArgVal::array_i(&v, 1), ArgVal::array_f(&w, 1)]
    };
    vector_differential_in(&SELECT_MODES, "odd", src, "odd", mk, false);
}

// ---------------------------------------------------------------------
// Alias proofs: constant-subscript disjointness, frame-owned arrays
// ---------------------------------------------------------------------

const PAIR: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE pair(n, k, g, a)
    INTEGER :: n, k, i
    REAL(8), DIMENSION(1:3, 1:40) :: g
    REAL(8), DIMENSION(1:40) :: a
    DO i = 1, n
      g(1, i) = a(i) * 0.5D0
      g(2, i) = g(1, i) + g(3, i)
    END DO
    DO i = 1, n
      g(k, i) = g(1, i) + 1.0D0
    END DO
  END SUBROUTINE pair
END MODULE m
"#;

#[test]
fn literal_subscripts_that_differ_are_disjoint_and_runtime_ones_are_not() {
    use fortrans::bytecode::VecRefusal::WrittenPatterns;
    let e = Session::compile(&[PAIR]).unwrap();
    let regions: Vec<u32> = e.vector_report().iter().map(|r| r.line).collect();
    assert_eq!(regions, [8], "g(1, i), g(2, i) and g(3, i) never meet");
    let why: Vec<_> = e.artifact().vector_refusals().iter().map(|r| (r.line, r.why)).collect();
    assert_eq!(why, [(12, WrittenPatterns)], "g(k, i) may be g(1, i)");
    // Three patterns of one slot, proven apart: the guard compares only
    // the two written ones with the dummy `a`.
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    let var = |k: u32| d.accesses[k as usize].v;
    let pair = |&(i, j): &(u32, u32)| var(i).min(var(j))..=var(i).max(var(j));
    let pairs: Vec<_> = d.alias_pairs.iter().map(pair).collect();
    assert_eq!(pairs, [2..=3, 2..=3], "g(1, i) and g(2, i) against a(i), vars 2 and 3");
    for k in [1, 2] {
        let mk = move || {
            let g: Vec<f64> = (0..120).map(|c| c as f64 * 0.25).collect();
            let a: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
            vec![
                ArgVal::I(40),
                ArgVal::I(k),
                ArgVal::array_f_dims(&g, vec![(1, 3), (1, 40)]).unwrap(),
                ArgVal::array_f(&a, 1),
            ]
        };
        vector_differential_in(&SELECT_MODES, &format!("pair k={k}"), PAIR, "pair", mk, true);
        let (_, _, entries) = serial_run(PAIR, "pair", mk());
        assert_eq!(entries, 1, "k={k}: only the first loop is a region");
    }
}

#[test]
fn frame_arrays_skip_the_alias_guard_and_dummies_keep_it() {
    // `t` is the frame's own array: no pair with it is checked. `a` is a
    // dummy the caller binds to the module array `g`, which the region
    // reads one cell ahead: that pair is checked, and it deopts.
    let src = r#"
MODULE gm
  REAL(8), DIMENSION(1:33) :: g
END MODULE gm
MODULE m
  USE gm
CONTAINS
  SUBROUTINE shift(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:33) :: a, b, t
    DO i = 1, n
      t(i) = g(i + 1) * 0.5D0
      a(i) = t(i) + b(i)
    END DO
  END SUBROUTINE shift
  SUBROUTINE drive(n, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:33) :: b
    DO i = 33, 1, -1
      g(i) = i * 1.5D0
    END DO
    CALL shift(n, g, b)
  END SUBROUTINE drive
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    let names: Vec<u32> = d.accesses.iter().map(|a| a.v).collect();
    let unit = &e.program().units[0];
    let named = |(i, j): (u32, u32)| {
        let name = |k: u32| unit.vars[names[k as usize] as usize].name.as_str();
        (name(i), name(j))
    };
    let pairs: Vec<_> = d.alias_pairs.iter().map(|&p| named(p)).collect();
    assert_eq!(pairs, [("g", "a"), ("a", "b")], "only dummy and global pairs");
    let mk = || {
        let b: Vec<f64> = (0..33).map(|i| (i as f64).cos()).collect();
        vec![ArgVal::I(32), ArgVal::array_f(&b, 1)]
    };
    vector_differential_in(&SELECT_MODES, "aliased dummy", src, "drive", mk, false);
    let (_, _, entries) = serial_run(src, "drive", mk());
    assert_eq!(entries, 0, "a(i) and g(i + 1) share storage: the guard must deopt");
    // Called on an array of its own, the same region runs.
    let (_, _, entries) = serial_run(src, "shift", {
        let b: Vec<f64> = (0..33).map(|i| (i as f64).cos()).collect();
        vec![ArgVal::I(32), ArgVal::array_f(&[0.0; 33], 1), ArgVal::array_f(&b, 1)]
    });
    assert_eq!(entries, 1);
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

// ---------------------------------------------------------------------
// Entry-guard proofs: fixed-shape streams share one iteration window,
// distinct global cells drop their alias pairs
// ---------------------------------------------------------------------

/// Runs `unit` on the tree-walk oracle, the scalar VM, the vector rung
/// and eager native under [`SELECT_MODES`] and checks that all four
/// agree — exactly, or with the reduction tolerance under Parallel —
/// and that no VM run fell back to the oracle. Returns the Serial
/// vector-rung entries.
fn proof_differential(label: &str, src: &str, unit: &str, mk: impl Fn() -> Vec<ArgVal>) -> u64 {
    let mut serial_entries = 0;
    for mode in SELECT_MODES {
        let oracle = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = snapshot(&oracle, unit, &mk(), mode, ExecTier::TreeWalk);
        for (rung, vector, native) in
            [("scalar", false, false), ("vector", true, false), ("native", true, true)]
        {
            let e = Session::compile(&[src]).unwrap();
            e.set_vector_enabled(vector);
            e.set_native_enabled(native);
            e.set_native_eager(native);
            let got = snapshot(&e, unit, &mk(), mode, ExecTier::Vm);
            let what = format!("{label}: {rung} rung against the oracle under {mode:?}");
            if matches!(mode, ExecMode::Parallel { .. }) {
                assert_tolerant(&what, &got, &want);
            } else {
                assert_eq!(got, want, "{what}");
            }
            assert_eq!(e.fallback_count(), 0, "{label}: the {rung} rung fell back under {mode:?}");
            if (rung, mode) == ("vector", ExecMode::Serial) {
                serial_entries = e.vector_entry_count();
            }
        }
    }
    serial_entries
}

/// The report line of the `k`-th region of `unit` in `src`.
fn region_of(src: &str, unit: &str, k: usize) -> fortrans::VectorLoopInfo {
    let rep = Session::compile(&[src]).unwrap().vector_report();
    rep.into_iter().filter(|r| r.unit == unit).nth(k).expect("the region exists")
}

#[test]
fn proven_stream_past_its_extent_faults_where_the_scalar_loop_does() {
    // `g` is a fixed module array: proven, window [1, 6]. Eight trips
    // leave the window, so the entry fails and the scalar loop stores
    // g(1..6) and faults at i = 7 on line 9.
    let src = r#"
MODULE m
  REAL(8), DIMENSION(1:6) :: g
CONTAINS
  SUBROUTINE over(n, a)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:8) :: a
    DO i = 1, n
      g(i) = a(i) * 2.0D0
    END DO
  END SUBROUTINE over
END MODULE m
"#;
    let r = region_of(src, "over", 0);
    assert_eq!((r.proven, r.checked), (1, 1), "g is proven, the dummy a is checked");
    let mk = |n: i64| move || vec![ArgVal::I(n), ArgVal::array_f(&[1.5; 8], 1)];
    assert_eq!(proof_differential("past the extent", src, "over", mk(8)), 0);
    let e = Session::compile(&[src]).unwrap();
    let err = e.run("over", &mk(8)(), ExecMode::Serial).expect_err("g(7) is out of range");
    let want = "index 7 out of bounds 1:6 in dimension 0 of `g` (in over at line 9)";
    assert_eq!(err.to_string(), want);
    assert_eq!(e.global_array("m::g").unwrap().to_f64_vec(), [3.0; 6]);
    // Six trips are inside the window and take the region.
    assert_eq!(proof_differential("inside the extent", src, "over", mk(6)), 1);
}

#[test]
fn literal_subscript_out_of_its_dimension_never_enters_the_region() {
    // g(4, i) has no iteration in bounds: the window is empty, every
    // entry fails, and the scalar loop faults at i = 1.
    let src = r#"
MODULE m
  REAL(8), DIMENSION(1:3, 1:10) :: g
CONTAINS
  SUBROUTINE lit(n, a)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:10) :: a
    DO i = 1, n
      a(i) = g(4, i) + 1.0D0
    END DO
  END SUBROUTINE lit
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    assert_eq!(d.window, fortrans::bytecode::EMPTY_WINDOW);
    let mk = || vec![ArgVal::I(5), ArgVal::array_f(&[0.0; 10], 1)];
    assert_eq!(proof_differential("literal out of range", src, "lit", mk), 0);
    let err = e.run("lit", &mk(), ExecMode::Serial).expect_err("g(4, 1) is out of range");
    let want = "index 4 out of bounds 1:3 in dimension 0 of `g` (in lit at line 9)";
    assert_eq!(err.to_string(), want);
}

#[test]
fn negative_coefficient_streams_are_proven_on_their_reversed_range() {
    // t(6 - i) is in bounds for i in [1, 5]: five trips run both
    // regions; six leave the window and the scalar loop faults storing
    // t(0) at i = 6.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE rev(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:8) :: a, b
    REAL(8), DIMENSION(1:5) :: t
    DO i = 1, n
      t(6 - i) = a(i) * 3.0D0
    END DO
    DO i = 1, 5
      b(i) = t(i) - t(6 - i)
    END DO
  END SUBROUTINE rev
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    assert_eq!((d.accesses[0].proven, d.window), (Some((5, -1)), (1, 5)));
    let mk = |n: i64| {
        move || {
            let a: Vec<f64> = (0..8).map(|k| k as f64 + 0.5).collect();
            vec![ArgVal::I(n), ArgVal::array_f(&a, 1), ArgVal::array_f(&[0.0; 8], 1)]
        }
    };
    assert_eq!(proof_differential("reversed", src, "rev", mk(5)), 2);
    assert_eq!(proof_differential("reversed, one trip too many", src, "rev", mk(6)), 0);
    let err = e.run("rev", &mk(6)(), ExecMode::Serial).expect_err("t(0) is out of range");
    let want = "index 0 out of bounds 1:5 in dimension 0 of `t` (in rev at line 9)";
    assert_eq!(err.to_string(), want);
}

#[test]
fn per_thread_fixed_globals_are_proven_per_thread() {
    // `s` is SAVE'd, so each thread has an instance of its own, built
    // with the declared shape: proven, and each call's regions see the
    // calling thread's instance.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE acc(c, out)
    INTEGER :: c, i
    REAL(8), DIMENSION(1:4), SAVE :: s
    REAL(8), DIMENSION(1:4, 1:16) :: out
    DO i = 1, 4
      s(i) = c * 1.0D0 + i
    END DO
    DO i = 1, 4
      out(i, c) = s(i) * s(i)
    END DO
  END SUBROUTINE acc
  SUBROUTINE par(n, out)
    INTEGER :: n, c
    REAL(8), DIMENSION(1:4, 1:16) :: out
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO c = 1, n
      CALL acc(c, out)
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE par
END MODULE m
"#;
    assert_eq!(region_of(src, "acc", 0).proven, 1);
    let mk = || {
        let out = ArgVal::array_f_dims(&[0.0; 64], vec![(1, 4), (1, 16)]).unwrap();
        vec![ArgVal::I(16), out]
    };
    assert_eq!(proof_differential("per-thread SAVE", src, "par", mk), 32);
}

#[test]
fn private_copies_of_frame_arrays_are_proven() {
    // PRIVATE(t) deep-copies the frame's fixed array per thread: same
    // shape, so its streams stay proven inside the parallel body.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE priv(n, out)
    INTEGER :: n, c, i
    REAL(8), DIMENSION(1:5) :: t
    REAL(8), DIMENSION(1:5, 1:32) :: out
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(t, i)
    DO c = 1, n
      DO i = 1, 5
        t(i) = c * 0.5D0 + i
      END DO
      DO i = 1, 5
        out(i, c) = t(i) * t(i) + c
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE priv
END MODULE m
"#;
    assert_eq!(region_of(src, "priv", 0).proven, 1);
    let mk = || {
        let out = ArgVal::array_f_dims(&[0.0; 160], vec![(1, 5), (1, 32)]).unwrap();
        vec![ArgVal::I(32), out]
    };
    assert_eq!(proof_differential("PRIVATE frame array", src, "priv", mk), 64);
}

#[test]
fn explicit_shape_dummies_stay_checked_and_fault_on_a_smaller_actual() {
    // `a` is declared (1:8) but bound to a four-element actual: it is not
    // proven, so the entry's checked arithmetic sees the actual's shape,
    // fails, and the scalar loop faults at i = 5.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE fill(a, n)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:8) :: a
    DO i = 1, n
      a(i) = i * 1.0D0
    END DO
  END SUBROUTINE fill
  SUBROUTINE small(out)
    REAL(8), DIMENSION(1:4) :: w
    REAL(8), DIMENSION(1:1) :: out
    CALL fill(w, 8)
    out(1) = w(4)
  END SUBROUTINE small
END MODULE m
"#;
    let r = region_of(src, "fill", 0);
    assert_eq!((r.proven, r.checked), (0, 1));
    let mk = || vec![ArgVal::array_f(&[0.0], 1)];
    assert_eq!(proof_differential("smaller actual", src, "small", mk), 0);
    let err = Session::compile(&[src]).unwrap().run("small", &mk(), ExecMode::Serial);
    let err = err.expect_err("a(5) is out of range");
    let want = "index 5 out of bounds 1:4 in dimension 0 of `a` (in fill at line 8)";
    assert_eq!(err.to_string(), want);
}

#[test]
fn distinct_globals_written_and_read_drop_their_alias_pair() {
    // p and q are two module cells: never one array, so the only pairs
    // left are the ones with the dummy `a`, which a caller may bind to
    // either of them.
    let src = r#"
MODULE gm
  REAL(8), DIMENSION(1:16) :: p, q
END MODULE gm
MODULE m
  USE gm
CONTAINS
  SUBROUTINE two(n, a)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:16) :: a
    DO i = 1, n
      p(i) = q(i) * 0.5D0 + a(i)
      q(i) = p(i) + 1.0D0
    END DO
  END SUBROUTINE two
  SUBROUTINE drive(n)
    INTEGER :: n, i
    DO i = 1, 16
      q(i) = i * 0.25D0
    END DO
    CALL two(n, p)
  END SUBROUTINE drive
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    let unit = &e.program().units[0];
    let name = |k: u32| unit.vars[d.accesses[k as usize].v as usize].name.as_str();
    let pairs: Vec<_> = d.alias_pairs.iter().map(|&(i, j)| (name(i), name(j))).collect();
    assert_eq!(pairs, [("p", "a"), ("q", "a")], "p against q is not checked");
    assert_eq!(d.accesses.iter().filter(|a| a.proven.is_some()).count(), 2);
    let mk = || {
        let a: Vec<f64> = (0..16).map(|k| (k as f64).sin()).collect();
        vec![ArgVal::I(16), ArgVal::array_f(&a, 1)]
    };
    assert_eq!(proof_differential("distinct globals", src, "two", mk), 1);
    // Bound to p itself, `a` walks p's cells exactly: the pair's check
    // passes and the region runs.
    assert_eq!(proof_differential("dummy bound to p", src, "drive", || vec![ArgVal::I(16)]), 2);
}

#[test]
fn equivalenced_names_are_one_cell_and_keep_the_one_slot_rule() {
    // EQUIVALENCE renames Y onto the COMMON cell X. The first loop's
    // X(I) and Y(I) are one access; the second loop's X(I) and Y(I + 1)
    // are two patterns of one written slot, which no alias pair can
    // clear: it stays scalar.
    let src = "
      SUBROUTINE EQV(N)
      INTEGER N, I
      REAL X(16), Y(16), B(16)
      COMMON /BLK/ X, B
      EQUIVALENCE (X, Y)
      DO 10 I = 1, N
        X(I) = B(I) * 2.0
        B(I) = Y(I) + 1.0
   10 CONTINUE
      DO 20 I = 1, N - 1
        X(I) = Y(I + 1) * 0.5
   20 CONTINUE
      END
";
    use fortrans::bytecode::VecRefusal::WrittenPatterns;
    let e = Session::compile(&[src]).unwrap();
    let d = &e.artifact().bytecode(false)[0].vecs[0];
    assert_eq!(d.accesses.len(), 2, "X(I) and Y(I) are one stream");
    assert!(d.alias_pairs.is_empty() && d.accesses.iter().all(|a| a.proven.is_some()));
    let why: Vec<_> = e.artifact().vector_refusals().iter().map(|r| r.why).collect();
    assert_eq!(why, [WrittenPatterns]);
    assert_eq!(proof_differential("EQUIVALENCE", src, "eqv", || vec![ArgVal::I(16)]), 1);
}

#[test]
fn fun3d_descriptors_prove_what_the_entry_no_longer_checks() {
    use fun3d::variants::{build_artifact, Fun3dConfig, Fun3dVariant};
    let cfg = Fun3dConfig { fuse: true, ..Default::default() };
    let fused = build_artifact(Fun3dVariant::Glaf(cfg));
    let rep = fused.vector_report();
    // The regions of `unit` at `line`, in code order.
    let at = |unit: &str, line: u32| -> Vec<_> {
        rep.iter().filter(|r| r.unit == unit && r.line == line).cloned().collect()
    };
    // The edge span's region, then the original flux loop's, at line 79.
    let [span, edge] = at("edge_loop", 79).try_into().expect("two regions at line 79");
    // Nine of the flux loop's ten temporaries are contracted into
    // scalars; `flux` is read by the next loop and stays a stream. In the
    // span's region, which also accumulates into `jac`, it is contracted
    // too: `jac`'s stream is the one stream more.
    assert_eq!(
        (edge.proven, edge.proven + edge.checked, edge.contracted),
        (5, 7, 9),
        "{edge:?}"
    );
    assert_eq!(
        (span.proven, span.proven + span.checked, span.contracted),
        (4, 7, 10),
        "{span:?}"
    );
    // The face nest, the widest region of `cell_loop`'s own prologue
    // loops, right after the fused prologue's region and the loops it
    // stands for.
    let [face] = at("cell_loop", 140).try_into().expect("one face nest");
    assert_eq!((face.proven, face.proven + face.checked, face.alias_pairs), (4, 20, 0), "{face:?}");
}

// ---------------------------------------------------------------------
// Lane kernels: every intrinsic the vector rung admits, every PowI form
// ---------------------------------------------------------------------

/// Every intrinsic a vector lane admits, then `t(i) ** e` for the
/// unrolled exponents 2, 3 and 4, the `powi` exponents around them and
/// 65, the first that takes the `powf` route. One statement and one
/// output column per lane program, so two NaNs never meet in an add
/// (whose NaN payload rustc leaves to operand order).
const LANES: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE lanes(n, t, u, o, w)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: t, u
    REAL(8), DIMENSION(1:64, 1:20) :: o
    REAL(8), DIMENSION(1:64, 1:10) :: w
    DO i = 1, n
      o(i, 1) = ABS(t(i))
      o(i, 2) = LOG(t(i))
      o(i, 3) = ALOG(u(i))
      o(i, 4) = LOG10(t(i))
      o(i, 5) = EXP(t(i))
      o(i, 6) = SQRT(t(i))
      o(i, 7) = SIN(t(i))
      o(i, 8) = COS(t(i))
      o(i, 9) = TAN(t(i))
      o(i, 10) = ATAN(t(i))
      o(i, 11) = REAL(t(i)) * 0.5D0
      o(i, 12) = DBLE(u(i)) * 0.5D0
      o(i, 13) = MOD(t(i), u(i))
      o(i, 14) = SIGN(t(i), u(i))
      o(i, 15) = MAX(t(i), u(i))
      o(i, 16) = MIN(u(i), t(i))
      o(i, 17) = MAX(t(i), u(i), 0.5D0, -t(i))
      o(i, 18) = MIN(-1.0D0, u(i), t(i))
      o(i, 19) = HUGE(t(i)) * 0.5D0
      o(i, 20) = TINY(u(i)) * 4.0D0
    END DO
    DO i = 1, n
      w(i, 1) = t(i) ** (-3)
      w(i, 2) = t(i) ** (-1)
      w(i, 3) = t(i) ** 0
      w(i, 4) = t(i) ** 1
      w(i, 5) = t(i) ** 2
      w(i, 6) = t(i) ** 3
      w(i, 7) = t(i) ** 4
      w(i, 8) = t(i) ** 5
      w(i, 9) = t(i) ** 64
      w(i, 10) = t(i) ** 65
    END DO
  END SUBROUTINE lanes
END MODULE m
"#;

/// Signed zeros and infinities, NaNs with different payloads (one
/// signaling), subnormals, negative arguments to LOG and SQRT, and
/// values around 1 that the high powers keep finite.
fn lane_args() -> Vec<ArgVal> {
    let edges = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0002),
        f64::from_bits(0x7ff0_0000_0000_0003),
        f64::from_bits(1),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        -2.5,
        1.0274,
        -0.75,
        3.0,
        0.999,
        1e300,
        -1e-300,
        7.5,
    ];
    let t: Vec<f64> = (0..64).map(|k| edges[k % edges.len()]).collect();
    let u: Vec<f64> = (0..64).map(|k| edges[(k * 5 + 3) % edges.len()]).collect();
    vec![
        ArgVal::I(64),
        ArgVal::array_f(&t, 1),
        ArgVal::array_f(&u, 1),
        ArgVal::array_f_dims(&[0.0; 64 * 20], vec![(1, 64), (1, 20)]).unwrap(),
        ArgVal::array_f_dims(&[0.0; 64 * 10], vec![(1, 64), (1, 10)]).unwrap(),
    ]
}

#[test]
fn every_lane_intrinsic_and_powi_form_agrees_on_every_rung() {
    let rep = region_of(LANES, "lanes", 0);
    assert_eq!((rep.stmts, region_of(LANES, "lanes", 1).stmts), (20, 10), "both loops vectorize");
    let run = |rung: (&str, bool, bool), mode: ExecMode| {
        let (_, vector, native) = rung;
        let e = Session::compile(&[LANES]).unwrap();
        e.set_vector_enabled(vector);
        e.set_native_enabled(native);
        e.set_native_eager(native);
        let args = lane_args();
        let tier = if rung.0 == "oracle" { ExecTier::TreeWalk } else { ExecTier::Vm };
        let out = e.run_tiered("lanes", &args, mode, tier).expect("runs");
        assert!(out.fallback.is_none(), "{} fell back under {mode:?}", rung.0);
        let arrays: Vec<Vec<u64>> = args.iter().filter_map(|a| a.handle().map(|h| dump(h))).collect();
        (arrays, out.trace, e.vector_entry_count(), e.native_entry_count())
    };
    for mode in SELECT_MODES {
        let (want, want_trace, _, _) = run(("oracle", false, false), mode);
        for rung in [("scalar", false, false), ("vector", true, false), ("native", true, true)] {
            let (got, trace, vector_entries, native_entries) = run(rung, mode);
            assert_eq!(got, want, "{} rung against the oracle under {mode:?}", rung.0);
            assert_eq!(trace, want_trace, "{} rung's CostTrace under {mode:?}", rung.0);
            let entered = match (rung.0, mode) {
                ("vector", _) => vector_entries,
                ("native", ExecMode::Serial) => native_entries,
                _ => continue,
            };
            assert_eq!(entered, 2, "{} rung entries under {mode:?}", rung.0);
        }
    }
}

// ---------------------------------------------------------------------
// Running sums: an accumulator statement whose running value later
// statements read
// ---------------------------------------------------------------------

/// Six running sums: `+` and `*`, the accumulator on either side, frame
/// accumulators and a module one, the running value read by one later
/// statement or several, next to forwarded temps (`t` and `w`, which
/// nothing reads after the loop) and after a map statement. The
/// inputs keep two NaNs from ever meeting in one operation (whose
/// payload rustc leaves to operand order): `a` holds one signaling NaN
/// and no infinity, `b` both infinities (one NaN once they meet) and no
/// NaN, `c` neither.
const RUNNING: &str = r#"
MODULE rs_m
  REAL(8) :: gs
CONTAINS
  SUBROUTINE sums(n, a, b, c, o)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:129) :: a, b, c
    REAL(8), DIMENSION(1:129, 1:11) :: o
    REAL(8) :: s, r, p, q, v, t, w
    s = 0.5D0
    DO i = 1, n
      s = s + a(i)
      o(i, 1) = s
    END DO
    r = -0.0D0
    DO i = 1, n
      r = b(i) + r
      o(i, 2) = r * 2.0D0
      o(i, 3) = EXP(-r / MAX(c(i), 0.01D0))
    END DO
    p = 1.0D0
    DO i = 1, n
      t = c(i) * 0.5D0
      p = p * (t + 0.75D0)
      w = a(i) - 1.0D0
      o(i, 4) = p - w
      o(i, 5) = p * t
    END DO
    q = -1.0D0
    DO i = 1, n
      q = a(i) * q
      o(i, 6) = q
    END DO
    DO i = 1, n
      gs = gs + c(i) * c(i)
      o(i, 7) = gs - a(i)
    END DO
    v = 0.0D0
    DO i = 1, n
      o(i, 8) = c(i) * 3.0D0
      v = v + o(i, 8)
      o(i, 9) = v
    END DO
    o(1, 10) = s + r + p + q + v
  END SUBROUTINE sums
END MODULE rs_m
"#;

fn running_args(n: i64) -> Vec<ArgVal> {
    let edges = [0.0, -0.0, f64::from_bits(1), -f64::from_bits(0x000f_ffff_ffff_ffff), 1e-300];
    let pick = |k: usize, scale: f64| match k % 9 {
        0..=4 => edges[k % 9],
        j => scale * (j as f64 - 6.5) * (1.0 + k as f64 / 64.0),
    };
    let mut a: Vec<f64> = (0..129).map(|k| pick(k, 0.75)).collect();
    a[99] = f64::from_bits(0x7ff0_0000_0000_0003);
    let mut b: Vec<f64> = (0..129).map(|k| pick(k + 3, 2.0)).collect();
    b[9] = f64::INFINITY;
    b[69] = f64::NEG_INFINITY;
    let c: Vec<f64> = (0..129).map(|k| pick(k + 5, 0.5)).collect();
    vec![
        ArgVal::I(n),
        ArgVal::array_f(&a, 1),
        ArgVal::array_f(&b, 1),
        ArgVal::array_f(&c, 1),
        ArgVal::array_f_dims(&[0.0; 129 * 11], vec![(1, 129), (1, 11)]).unwrap(),
    ]
}

#[test]
fn running_sums_agree_on_every_rung_at_the_chunk_edges() {
    let rep: Vec<_> = Session::compile(&[RUNNING]).unwrap().vector_report();
    let shapes: Vec<_> = rep.iter().map(|r| (r.stmts, r.reduction)).collect();
    assert_eq!(shapes, [(2, true), (3, true), (3, true), (2, true), (2, true), (3, true)]);
    let run = |rung: &str, n: i64, mode: ExecMode| {
        let e = Session::compile(&[RUNNING]).unwrap();
        let (vector, native) = (rung != "scalar", rung == "native");
        e.set_vector_enabled(vector);
        e.set_native_enabled(native);
        e.set_native_eager(native);
        let args = running_args(n);
        let tier = if rung == "oracle" { ExecTier::TreeWalk } else { ExecTier::Vm };
        let out = e.run_tiered("sums", &args, mode, tier).expect("runs");
        assert!(out.fallback.is_none(), "{rung} fell back under {mode:?}");
        let globals = e.global_names();
        let gs = globals.iter().map(|g| format!("{g}: {:?}", e.global_scalar(g))).collect();
        let arrays: Vec<Vec<u64>> =
            args.iter().filter_map(|a| a.handle().map(|h| dump(h))).collect();
        let entries = (e.vector_entry_count(), e.native_entry_count(), e.native_deopt_count());
        (arrays, gs, out.trace, entries)
    };
    for n in [0, 1, 63, 64, 65, 129] {
        for mode in SELECT_MODES {
            let (want, want_gs, want_trace, _): (_, Vec<String>, _, _) = run("oracle", n, mode);
            for rung in ["scalar", "vector", "native"] {
                let (got, gs, trace, entries) = run(rung, n, mode);
                let at = format!("{rung} rung, n = {n}, {mode:?}");
                assert_eq!(got, want, "{at}: arrays against the oracle");
                assert_eq!(gs, want_gs, "{at}: globals against the oracle");
                assert_eq!(trace, want_trace, "{at}: CostTrace");
                // The JIT refuses running sums: eager native runs them on
                // the vector rung, and never deopts.
                let fast = if rung == "scalar" || n == 0 { 0 } else { 6 };
                assert_eq!(entries, (fast, 0, 0), "{at}: vector, native entries, deopts");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Forwarded temps read after the loop: the region never stores them
// ---------------------------------------------------------------------

/// The same map with a forwarded temp four times: `t` read after the
/// loop, a dummy `d` (its value goes back to the caller), the function
/// result, and a `t` nothing reads again.
const FIXUPS: &str = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION kept(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b
    REAL(8) :: t
    DO i = 1, n
      t = a(i) * 2.0D0
      b(i) = t + 1.0D0
    END DO
    kept = t - 1.0D0
  END FUNCTION kept
  SUBROUTINE dummy(n, a, b, d)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b
    REAL(8) :: d
    DO i = 1, n
      d = a(i) * 2.0D0
      b(i) = d + 1.0D0
    END DO
  END SUBROUTINE dummy
  REAL(8) FUNCTION result(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b
    DO i = 1, n
      result = a(i) * 2.0D0
      b(i) = result + 1.0D0
    END DO
  END FUNCTION result
  SUBROUTINE dropped(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b
    REAL(8) :: t
    t = 5.0D0
    DO i = 1, n
      t = a(i) * 2.0D0
      b(i) = t + 1.0D0
    END DO
  END SUBROUTINE dropped
END MODULE m
"#;

/// A forwarded temp something may read after the loop keeps the loop
/// scalar (`Shape`): `kept`, `dummy` and `result` are refused, `dropped`
/// is a region. All four agree bit for bit on the tree-walker and the
/// scalar, vector and eager-native rungs, in Serial and Simulated.
#[test]
fn a_forwarded_temp_read_after_the_loop_keeps_the_loop_scalar() {
    use fortrans::bytecode::VecRefusal;
    let e = Session::compile(&[FIXUPS]).unwrap();
    let refused: Vec<(String, VecRefusal)> =
        e.artifact().vector_refusals().into_iter().map(|r| (r.unit, r.why)).collect();
    let shape = |u: &str| (u.to_string(), VecRefusal::Shape);
    assert_eq!(refused, [shape("kept"), shape("dummy"), shape("result")]);
    let regions: Vec<String> = e.vector_report().into_iter().map(|r| r.unit).collect();
    assert_eq!(regions, ["dropped"]);
    let a: Vec<f64> = (0..64).map(|k| f64::from(k) * 0.75 - 9.0).collect();
    for unit in ["kept", "dummy", "result", "dropped"] {
        let args = || {
            let mut args =
                vec![ArgVal::I(64), ArgVal::array_f(&a, 1), ArgVal::array_f(&[0.0; 64], 1)];
            if unit == "dummy" {
                args.push(ArgVal::F(0.0));
            }
            args
        };
        for mode in [ExecMode::Serial, ExecMode::Simulated { threads: 2 }] {
            let run = |rung: &str| {
                let s = Session::compile(&[FIXUPS]).unwrap();
                s.set_vector_enabled(rung != "scalar");
                s.set_native_enabled(rung == "native");
                s.set_native_eager(rung == "native");
                let tier = if rung == "oracle" { ExecTier::TreeWalk } else { ExecTier::Vm };
                let args = args();
                let out = s.run_tiered(unit, &args, mode, tier).expect("runs");
                let result = out.result.map(|v| format!("{v:?}"));
                let arrays: Vec<Vec<u64>> =
                    args.iter().filter_map(|a| a.handle().map(|h| dump(h))).collect();
                let entries = s.vector_entry_count() + s.native_entry_count();
                ((result, arrays, out.trace), entries)
            };
            let (want, _) = run("oracle");
            for rung in ["scalar", "vector", "native"] {
                let (got, entries) = run(rung);
                let at = format!("{unit}, {rung} rung, {mode:?}");
                assert_eq!(got, want, "{at}: result, arrays and CostTrace against the oracle");
                let region = unit == "dropped" && rung != "scalar";
                assert_eq!(entries, u64::from(region), "{at}: region entries");
            }
        }
    }
}
