//! Differential testing: bytecode VM vs tree-walking interpreter.
//!
//! Every program in the corpus runs under both execution tiers
//! ([`ExecTier::Vm`] and [`ExecTier::TreeWalk`]) in all three modes, on
//! fresh engines, and the complete observable state is compared:
//!
//! * the returned result (bit-for-bit, via `Val`),
//! * every global scalar and array (bit dumps),
//! * every array argument after the run (bit dumps),
//! * captured PRINT output,
//! * the full Simulated-mode `CostTrace` event stream (`PartialEq` on
//!   every counter of every thread of every region),
//! * error `Display` strings when the program faults,
//! * the **profile**: aggregate per-`(unit, line)` loop-entry counts and
//!   the trap/fallback counters from a profiled run must be identical
//!   between the tiers, in every mode (spans are tier-invariant by
//!   construction — see `fortrans::trace`).
//!
//! Comparison policy by mode:
//! * **Serial** and **Simulated** are deterministic: everything must be
//!   bit-identical, including traces and error strings.
//! * **Parallel** combines floating reductions in thread-completion
//!   order and interleaves PRINT lines, so REAL(8) values get a tiny
//!   relative tolerance, printed output is compared as a line multiset,
//!   and both tiers merely have to agree on error-ness.

use fortrans::{ArgVal, CostTrace, ExecMode, ExecTier, ScalarTy, Schedule, Session, Val};

const MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 4 },
];

/// Bit dump of one global after the run.
#[derive(Debug, Clone, PartialEq)]
enum GSnap {
    Scalar(Option<Val>),
    Array(ScalarTy, Vec<u64>),
    Unallocated,
}

/// Everything observable from one run.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    result: Result<Option<Val>, String>,
    printed: String,
    trace: CostTrace,
    globals: Vec<(String, GSnap)>,
    /// Post-run contents of array arguments (they are shared handles).
    arg_arrays: Vec<(ScalarTy, Vec<u64>)>,
}

fn dump_arr(h: &fortrans::ArrayObj) -> (ScalarTy, Vec<u64>) {
    (h.ty, (0..h.len()).map(|k| h.get_bits(k)).collect())
}

fn snapshot(engine: &Session, unit: &str, args: &[ArgVal], mode: ExecMode, tier: ExecTier) -> Snap {
    let run = engine.run_tiered(unit, args, mode, tier);
    let (result, printed, trace) = match run {
        Ok(out) => (Ok(out.result), out.printed, out.trace),
        Err(e) => (Err(e.to_string()), String::new(), CostTrace::default()),
    };
    let mut globals = Vec::new();
    let mut names = engine.global_names();
    names.sort();
    for name in names {
        let snap = if let Some(v) = engine.global_scalar(&name) {
            GSnap::Scalar(Some(v))
        } else if let Some(h) = engine.global_array(&name) {
            let (ty, bits) = dump_arr(&h);
            GSnap::Array(ty, bits)
        } else {
            GSnap::Unallocated
        };
        globals.push((name, snap));
    }
    let arg_arrays = args
        .iter()
        .filter_map(|a| a.handle().map(|h| dump_arr(h)))
        .collect();
    Snap { result, printed, trace, globals, arg_arrays }
}

fn f64_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn bits_close(ty: ScalarTy, a: u64, b: u64) -> bool {
    match ty {
        ScalarTy::F => f64_close(f64::from_bits(a), f64::from_bits(b)),
        _ => a == b,
    }
}

fn sorted_lines(s: &str) -> Vec<&str> {
    let mut v: Vec<&str> = s.lines().collect();
    v.sort();
    v
}

/// Compares the VM snapshot against the tree-walker snapshot under the
/// mode-appropriate policy.
fn assert_equivalent(label: &str, mode: ExecMode, vm: &Snap, tw: &Snap) {
    if !matches!(mode, ExecMode::Parallel { .. }) {
        assert_eq!(vm, tw, "{label} under {mode:?}: VM and tree-walker diverge");
        return;
    }
    assert_tolerant(label, vm, tw);
}

/// The tolerance-based comparison: results, printed line multisets,
/// globals, and argument arrays must agree modulo float reduction-order
/// rounding; the cost trace is NOT compared (it legitimately differs by
/// thread interleaving or by chunk ownership across schedules).
fn assert_tolerant(label: &str, vm: &Snap, tw: &Snap) {
    match (&vm.result, &tw.result) {
        (Ok(Some(Val::F(a))), Ok(Some(Val::F(b)))) => {
            assert!(f64_close(*a, *b), "{label} Parallel result: {a} vs {b}");
        }
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label} Parallel result"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{label} Parallel: one tier errored: vm={a:?} tw={b:?}"),
    }
    assert_eq!(
        sorted_lines(&vm.printed),
        sorted_lines(&tw.printed),
        "{label} Parallel printed lines"
    );
    assert_eq!(vm.globals.len(), tw.globals.len(), "{label} global count");
    for ((vn, vg), (tn, tg)) in vm.globals.iter().zip(&tw.globals) {
        assert_eq!(vn, tn, "{label} global name order");
        match (vg, tg) {
            (GSnap::Scalar(Some(Val::F(a))), GSnap::Scalar(Some(Val::F(b)))) => {
                assert!(f64_close(*a, *b), "{label} global {vn}: {a} vs {b}");
            }
            (GSnap::Array(ta, va), GSnap::Array(tb, vb)) => {
                assert_eq!((ta, va.len()), (tb, vb.len()), "{label} global {vn} shape");
                for (k, (&x, &y)) in va.iter().zip(vb).enumerate() {
                    assert!(bits_close(*ta, x, y), "{label} global {vn}[{k}]");
                }
            }
            (a, b) => assert_eq!(a, b, "{label} global {vn}"),
        }
    }
    assert_eq!(vm.arg_arrays.len(), tw.arg_arrays.len(), "{label} arg array count");
    for (ai, ((ta, va), (tb, vb))) in vm.arg_arrays.iter().zip(&tw.arg_arrays).enumerate() {
        assert_eq!((ta, va.len()), (tb, vb.len()), "{label} arg {ai} shape");
        for (k, (&x, &y)) in va.iter().zip(vb).enumerate() {
            assert!(bits_close(*ta, x, y), "{label} arg {ai}[{k}]");
        }
    }
}

/// The tier-invariant slice of a profiled run: aggregate loop-entry
/// counts plus the engine's trap/fallback counter. `None` when the run
/// errored (both tiers must then agree on error-ness, which the Snap
/// comparison already enforces).
type ProfSnap = Option<(std::collections::BTreeMap<(String, u32), u64>, u64)>;

fn profile_snapshot(
    engine: &Session,
    unit: &str,
    args: &[ArgVal],
    mode: ExecMode,
    tier: ExecTier,
) -> ProfSnap {
    engine
        .run_profiled(unit, args, mode, tier)
        .ok()
        .map(|(_, p)| (p.loop_entry_counts(), p.fallback_count))
}

/// Schedule overrides swept over the whole corpus: every program must
/// produce the same observable state (modulo float reduction-order
/// rounding) under dynamic and guided dispatch as under the default
/// static partition.
const SCHED_SWEEP: [(&str, Schedule); 3] = [
    ("dynamic,1", Schedule::Dynamic(1)),
    ("dynamic,7", Schedule::Dynamic(7)),
    ("guided,2", Schedule::Guided(2)),
];

/// Runs `unit` from `src` under every (mode, tier) pair on fresh engines
/// (globals mutate, so tiers must not share storage) and cross-checks.
/// `runs` allows exercising global persistence across several calls; the
/// snapshots of every call are compared pairwise. A second pair of
/// engines repeats each call under the profiler and cross-checks the
/// tier-invariant profile observables. For Parallel and Simulated modes
/// the whole exercise repeats with every [`SCHED_SWEEP`] override forced
/// on all loops, and each swept snapshot is additionally checked against
/// the default-schedule baseline (schedule invariance).
fn differential_n(label: &str, src: &str, unit: &str, mk_args: impl Fn() -> Vec<ArgVal>, runs: usize) {
    for mode in MODES {
        let evm = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let etw = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let pvm = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let ptw = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut baselines = Vec::with_capacity(runs);
        for r in 0..runs {
            let vm = snapshot(&evm, unit, &mk_args(), mode, ExecTier::Vm);
            let tw = snapshot(&etw, unit, &mk_args(), mode, ExecTier::TreeWalk);
            assert_equivalent(&format!("{label} (run {r})"), mode, &vm, &tw);
            let pv = profile_snapshot(&pvm, unit, &mk_args(), mode, ExecTier::Vm);
            let pt = profile_snapshot(&ptw, unit, &mk_args(), mode, ExecTier::TreeWalk);
            assert_eq!(
                pv, pt,
                "{label} (run {r}) under {mode:?}: profiled loop-entry \
                 counts / fallback counters diverge between tiers"
            );
            baselines.push(vm);
        }
        if matches!(mode, ExecMode::Serial) {
            continue; // schedule is irrelevant without a (simulated) team
        }
        for (sname, sched) in SCHED_SWEEP {
            let svm = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
            let stw = Session::compile(&[src]).unwrap_or_else(|e| panic!("{label}: {e}"));
            svm.set_schedule_override_all(Some(sched));
            stw.set_schedule_override_all(Some(sched));
            for (r, base) in baselines.iter().enumerate() {
                let slabel = format!("{label} (run {r}, sched {sname})");
                let vm = snapshot(&svm, unit, &mk_args(), mode, ExecTier::Vm);
                let tw = snapshot(&stw, unit, &mk_args(), mode, ExecTier::TreeWalk);
                assert_equivalent(&slabel, mode, &vm, &tw);
                assert_tolerant(&format!("{slabel} vs static baseline"), base, &vm);
            }
        }
    }
}

fn differential(label: &str, src: &str, unit: &str, mk_args: impl Fn() -> Vec<ArgVal>) {
    differential_n(label, src, unit, mk_args, 1);
}

// ---------------------------------------------------------------------
// Corpus: the engine_programs / omp_semantics programs plus VM-targeted
// stress cases (fused loops, global loop variables, step expressions,
// EXIT/CYCLE through CRITICAL, call-heavy kernels).
// ---------------------------------------------------------------------

#[test]
fn diff_function_intrinsics() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION hyp(a, b)
    REAL(8) :: a, b
    hyp = SQRT(a**2 + b**2)
  END FUNCTION hyp
END MODULE m
"#;
    differential("hyp", src, "hyp", || vec![ArgVal::F(3.0), ArgVal::F(4.0)]);
}

#[test]
fn diff_scalar_value_result_args() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE bump(x)
    REAL(8) :: x
    x = x + 1.0D0
  END SUBROUTINE bump
  SUBROUTINE run2(out)
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: t
    t = 10.0D0
    CALL bump(t)
    CALL bump(t)
    out(1) = t
  END SUBROUTINE run2
END MODULE m
"#;
    differential("value-result", src, "run2", || vec![ArgVal::array_f(&[0.0], 1)]);
}

#[test]
fn diff_module_counter_persists() {
    let src = r#"
MODULE counter_mod
  INTEGER :: count
CONTAINS
  SUBROUTINE tick()
    count = count + 1
  END SUBROUTINE tick
END MODULE counter_mod
"#;
    differential_n("counter", src, "tick", Vec::new, 3);
}

#[test]
fn diff_common_blocks() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE both()
    REAL(8) :: cc
    REAL(8), DIMENSION(1:4) :: dd
    COMMON /rad/ cc, dd
    INTEGER :: i
    cc = 42.0D0
    DO i = 1, 4
      dd(i) = i * 1.0D0
    END DO
  END SUBROUTINE both
END MODULE m
"#;
    differential_n("common", src, "both", Vec::new, 2);
}

#[test]
fn diff_derived_types() {
    let src = r#"
MODULE fuliou_mod
  TYPE fuout_t
    REAL(8), DIMENSION(1:4) :: fd
    REAL(8) :: total
  END TYPE fuout_t
  TYPE(fuout_t) :: fo
END MODULE fuliou_mod
MODULE kernels
  USE fuliou_mod
CONTAINS
  SUBROUTINE fill()
    INTEGER :: i
    DO i = 1, 4
      fo%fd(i) = i * 10.0D0
    END DO
    fo%total = fo%fd(1) + fo%fd(2) + fo%fd(3) + fo%fd(4)
  END SUBROUTINE fill
END MODULE kernels
"#;
    differential("derived", src, "fill", Vec::new);
}

#[test]
fn diff_sum_reduction() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION total(a, n)
    REAL(8), DIMENSION(1:1000) :: a
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    !$OMP PARALLEL DO DEFAULT(SHARED) REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + a(i)
    END DO
    !$OMP END PARALLEL DO
    total = acc
  END FUNCTION total
END MODULE m
"#;
    let data: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
    differential("sum-reduction", src, "total", move || {
        vec![ArgVal::array_f(&data, 1), ArgVal::I(1000)]
    });
}

#[test]
fn diff_multi_reduction_with_call() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE stats(a, n, s, mx)
    REAL(8), DIMENSION(1:100) :: a
    INTEGER :: n
    REAL(8) :: s, mx
    INTEGER :: i
    s = 0.0D0
    mx = -1.0D30
    !$OMP PARALLEL DO REDUCTION(+:s) REDUCTION(MAX:mx)
    DO i = 1, n
      s = s + a(i)
      mx = MAX(mx, a(i))
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE stats
  SUBROUTINE driver(a, n, out)
    REAL(8), DIMENSION(1:100) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:2) :: out
    REAL(8) :: s, mx
    CALL stats(a, n, s, mx)
    out(1) = s
    out(2) = mx
  END SUBROUTINE driver
END MODULE m
"#;
    let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
    differential("multi-reduction", src, "driver", move || {
        vec![ArgVal::array_f(&data, 1), ArgVal::I(100), ArgVal::array_f(&[0.0, 0.0], 1)]
    });
}

#[test]
fn diff_atomic_scatter() {
    let src = r#"
MODULE accum_mod
  REAL(8), DIMENSION(1:4) :: bins
CONTAINS
  SUBROUTINE scatter(n)
    INTEGER :: n
    INTEGER :: i, b
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(b)
    DO i = 1, n
      b = MOD(i, 4) + 1
      !$OMP ATOMIC
      bins(b) = bins(b) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE scatter
END MODULE accum_mod
"#;
    differential("atomic", src, "scatter", || vec![ArgVal::I(4000)]);
}

#[test]
fn diff_critical_section() {
    let src = r#"
MODULE m
  REAL(8) :: shared_total
CONTAINS
  SUBROUTINE work(n)
    INTEGER :: n
    INTEGER :: i
    REAL(8) :: t
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(t)
    DO i = 1, n
      t = 1.0D0
      !$OMP CRITICAL (upd)
      shared_total = shared_total + t
      !$OMP END CRITICAL
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE work
END MODULE m
"#;
    differential("critical", src, "work", || vec![ArgVal::I(2000)]);
}

#[test]
fn diff_collapse_two() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE fill(a)
    REAL(8), DIMENSION(1:2, 1:60) :: a
    INTEGER :: i, j
    !$OMP PARALLEL DO DEFAULT(SHARED) COLLAPSE(2)
    DO i = 1, 2
      DO j = 1, 60
        a(i, j) = i * 100.0D0 + j
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE fill
END MODULE m
"#;
    differential("collapse", src, "fill", || {
        vec![ArgVal::array_f_dims(&vec![0.0; 120], vec![(1, 2), (1, 60)]).unwrap()]
    });
}

#[test]
fn diff_allocatable_save() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION edge_tmp()
    REAL(8), DIMENSION(:), ALLOCATABLE, SAVE :: tmp
    IF (.NOT. ALLOCATED(tmp)) ALLOCATE(tmp(1:8))
    tmp(1) = tmp(1) + 1.0D0
    edge_tmp = tmp(1)
  END FUNCTION edge_tmp
END MODULE m
"#;
    differential_n("alloc-save", src, "edge_tmp", Vec::new, 3);
}

#[test]
fn diff_allocate_deallocate() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION fresh()
    REAL(8), DIMENSION(:), ALLOCATABLE :: tmp
    ALLOCATE(tmp(1:8))
    tmp(1) = tmp(1) + 1.0D0
    fresh = tmp(1)
    DEALLOCATE(tmp)
  END FUNCTION fresh
END MODULE m
"#;
    differential_n("alloc-fresh", src, "fresh", Vec::new, 2);
}

/// An array allocated again after a `DEALLOCATE` reads zero: a bound
/// that is not a literal keeps the pair a run-time one in both builds.
#[test]
fn diff_reallocate_reads_zero() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION again(n)
    INTEGER :: n
    INTEGER :: k
    REAL(8), DIMENSION(:), ALLOCATABLE :: tmp
    again = 0.0D0
    DO k = 1, 3
      ALLOCATE(tmp(1:n))
      again = again + tmp(2) + k
      tmp(2) = 5.0D0
      DEALLOCATE(tmp)
    END DO
  END FUNCTION again
END MODULE m
"#;
    differential_n("realloc-zero", src, "again", || vec![ArgVal::I(4)], 2);
}

#[test]
fn diff_do_while_exit_cycle() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION count_down(n)
    INTEGER :: n
    INTEGER :: c
    c = 0
    DO WHILE (n > 0)
      n = n - 1
      IF (MOD(n, 2) == 0) CYCLE
      c = c + 1
      IF (c >= 3) EXIT
    END DO
    count_down = c
  END FUNCTION count_down
END MODULE m
"#;
    differential("do-while", src, "count_down", || vec![ArgVal::I(100)]);
}

#[test]
fn diff_broadcast_copy_reduce() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION demo(n)
    INTEGER :: n
    REAL(8), DIMENSION(1:10) :: a
    REAL(8), DIMENSION(1:10) :: b
    a = 2.5D0
    b = a
    demo = SUM(b) + MINVAL(a) + MAXVAL(a) + SIZE(a)
  END FUNCTION demo
END MODULE m
"#;
    differential("broadcast", src, "demo", || vec![ArgVal::I(1)]);
}

#[test]
fn diff_out_of_bounds_error() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE oops(k)
    INTEGER :: k
    REAL(8), DIMENSION(1:4) :: a
    a(k) = 1.0D0
  END SUBROUTINE oops
END MODULE m
"#;
    differential("oob", src, "oops", || vec![ArgVal::I(9)]);
}

#[test]
fn diff_div_zero_error() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION bad(n)
    INTEGER :: n
    bad = 10 / n
  END FUNCTION bad
END MODULE m
"#;
    differential("div-zero", src, "bad", || vec![ArgVal::I(0)]);
    differential("div-ok", src, "bad", || vec![ArgVal::I(3)]);
}

#[test]
fn diff_stop_error() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE halt(x)
    REAL(8) :: x
    IF (x > 0.0D0) STOP 'positive input'
    x = -x
  END SUBROUTINE halt
END MODULE m
"#;
    differential("stop", src, "halt", || vec![ArgVal::F(1.0)]);
    differential("no-stop", src, "halt", || vec![ArgVal::F(-1.0)]);
}

#[test]
fn diff_print_output() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE speak(x, k, q)
    REAL(8) :: x
    INTEGER :: k
    LOGICAL :: q
    PRINT *, 'value is', x, k, q
  END SUBROUTINE speak
END MODULE m
"#;
    differential("print", src, "speak", || {
        vec![ArgVal::F(2.5), ArgVal::I(-3), ArgVal::B(true)]
    });
}

#[test]
fn diff_simulated_trace_exp_kernel() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:100) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      a(i) = EXP(a(i)) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE work
END MODULE m
"#;
    differential("trace-exp", src, "work", || {
        vec![ArgVal::array_f(&vec![0.1; 100], 1), ArgVal::I(100)]
    });
}

#[test]
fn diff_transcendental_reduction() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION chaos(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    !$OMP PARALLEL DO REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + SIN(a(i)) * COS(a(i)) / (1.0D0 + a(i)**2)
    END DO
    !$OMP END PARALLEL DO
    chaos = acc
  END FUNCTION chaos
END MODULE m
"#;
    let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.173).collect();
    differential("chaos", src, "chaos", move || {
        vec![ArgVal::array_f(&data, 1), ArgVal::I(64)]
    });
}

#[test]
fn diff_vector_and_memset_cost_classes() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE axpy(a, b, n)
    REAL(8), DIMENSION(1:256) :: a, b
    INTEGER :: n
    INTEGER :: i
    DO i = 1, n
      a(i) = a(i) + 2.0D0 * b(i)
    END DO
    DO i = 1, n
      b(i) = 0.0D0
    END DO
  END SUBROUTINE axpy
END MODULE m
"#;
    differential("vec-memset", src, "axpy", || {
        vec![
            ArgVal::array_f(&vec![1.0; 256], 1),
            ArgVal::array_f(&vec![1.0; 256], 1),
            ArgVal::I(256),
        ]
    });
}

#[test]
fn diff_nested_parallel_regions() {
    let src = r#"
MODULE m
  REAL(8) :: acc
CONTAINS
  SUBROUTINE inner(k)
    INTEGER :: k
    INTEGER :: j
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO j = 1, 4
      !$OMP ATOMIC
      acc = acc + 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE inner
  SUBROUTINE outer(n)
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      CALL inner(i)
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE outer
END MODULE m
"#;
    differential("nested-omp", src, "outer", || vec![ArgVal::I(10)]);
}

#[test]
fn diff_threadprivate() {
    let src = r#"
MODULE m
  REAL(8), DIMENSION(1:4) :: buf
  !$OMP THREADPRIVATE(buf)
  REAL(8) :: merged
CONTAINS
  SUBROUTINE work(n)
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      buf(1) = buf(1) + 1.0D0
      !$OMP ATOMIC
      merged = merged + 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE work
END MODULE m
"#;
    differential("threadprivate", src, "work", || vec![ArgVal::I(100)]);
}

#[test]
fn diff_nested_function_calls() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION sq(x)
    REAL(8) :: x
    sq = x * x
  END FUNCTION sq
  REAL(8) FUNCTION quad(x)
    REAL(8) :: x
    quad = sq(sq(x)) + sq(x)
  END FUNCTION quad
END MODULE m
"#;
    differential("nested-calls", src, "quad", || vec![ArgVal::F(2.0)]);
}

#[test]
fn diff_parameter_folding() {
    let src = r#"
MODULE m
  INTEGER, PARAMETER :: nv = 6
  REAL(8), PARAMETER :: scale_f = 2.5D0
CONTAINS
  REAL(8) FUNCTION use_params()
    REAL(8), DIMENSION(1:nv) :: w
    INTEGER :: i
    DO i = 1, nv
      w(i) = i * scale_f
    END DO
    use_params = SUM(w)
  END FUNCTION use_params
END MODULE m
"#;
    differential("params", src, "use_params", Vec::new);
}

#[test]
fn diff_negative_step() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION walk()
    INTEGER :: i, acc
    acc = 0
    DO i = 10, 1, -2
      acc = acc + i
    END DO
    walk = acc
  END FUNCTION walk
END MODULE m
"#;
    differential("neg-step", src, "walk", Vec::new);
}

#[test]
fn diff_private_array_clause() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE hist(out, n)
    REAL(8), DIMENSION(1:4) :: out
    INTEGER :: n
    REAL(8), DIMENSION(1:4) :: scratch
    INTEGER :: i, k
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(scratch, k)
    DO i = 1, n
      DO k = 1, 4
        scratch(k) = i * 1.0D0
      END DO
      !$OMP ATOMIC
      out(MOD(i, 4) + 1) = out(MOD(i, 4) + 1) + scratch(1) / scratch(2)
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE hist
END MODULE m
"#;
    differential("private-array", src, "hist", || {
        vec![ArgVal::array_f(&[0.0; 4], 1), ArgVal::I(400)]
    });
}

#[test]
fn diff_schedule_chunk_and_num_threads() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE mark(a, n)
    REAL(8), DIMENSION(1:97) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO SCHEDULE(STATIC, 5) NUM_THREADS(2)
    DO i = 1, n
      a(i) = a(i) + i * 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE mark
END MODULE m
"#;
    differential("sched-chunk", src, "mark", || {
        vec![ArgVal::array_f(&vec![0.0; 97], 1), ArgVal::I(97)]
    });
}

#[test]
fn diff_firstprivate() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE scaleit(a, n)
    REAL(8), DIMENSION(1:40) :: a
    INTEGER :: n
    REAL(8) :: scale
    INTEGER :: i
    scale = 2.5D0
    !$OMP PARALLEL DO FIRSTPRIVATE(scale)
    DO i = 1, n
      a(i) = a(i) * scale
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE scaleit
END MODULE m
"#;
    differential("firstprivate", src, "scaleit", || {
        vec![ArgVal::array_f(&vec![2.0; 40], 1), ArgVal::I(40)]
    });
}

#[test]
fn diff_product_min_reductions() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE stats(a, n, res)
    REAL(8), DIMENSION(1:12) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:2) :: res
    REAL(8) :: p, mn
    INTEGER :: i
    p = 1.0D0
    mn = 1.0D30
    !$OMP PARALLEL DO REDUCTION(*:p) REDUCTION(MIN:mn)
    DO i = 1, n
      p = p * a(i)
      mn = MIN(mn, a(i))
    END DO
    !$OMP END PARALLEL DO
    res(1) = p
    res(2) = mn
  END SUBROUTINE stats
END MODULE m
"#;
    let data: Vec<f64> = (1..=12).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    differential("prod-min", src, "stats", move || {
        vec![ArgVal::array_f(&data, 1), ArgVal::I(12), ArgVal::array_f(&[0.0, 0.0], 1)]
    });
}

#[test]
fn diff_parallel_negative_step() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE rev(a, n)
    REAL(8), DIMENSION(1:30) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO
    DO i = n, 1, -1
      a(i) = i * 10.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE rev
END MODULE m
"#;
    differential("par-neg-step", src, "rev", || {
        vec![ArgVal::array_f(&vec![0.0; 30], 1), ArgVal::I(30)]
    });
}

#[test]
fn diff_parallel_prints() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE noisy(n)
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO
    DO i = 1, n
      PRINT *, 'iter', i
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE noisy
END MODULE m
"#;
    differential("par-print", src, "noisy", || vec![ArgVal::I(8)]);
}

#[test]
fn diff_integer_reduction() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION countup(n)
    INTEGER :: n
    INTEGER :: i, acc
    acc = 0
    !$OMP PARALLEL DO REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + i
    END DO
    !$OMP END PARALLEL DO
    countup = acc
  END FUNCTION countup
END MODULE m
"#;
    differential("int-reduction", src, "countup", || vec![ArgVal::I(100)]);
}

// ---------------- VM-targeted stress cases ----------------

#[test]
fn diff_global_loop_variable() {
    // DO variable living in module storage exercises the non-fused
    // head (the counter must be written back every iteration, with a
    // Store cost in Simulated mode).
    let src = r#"
MODULE m
  INTEGER :: gi
  REAL(8) :: total
CONTAINS
  SUBROUTINE sweep(n)
    INTEGER :: n
    total = 0.0D0
    DO gi = 1, n
      total = total + gi * 1.0D0
    END DO
  END SUBROUTINE sweep
END MODULE m
"#;
    differential("global-loop-var", src, "sweep", || vec![ArgVal::I(17)]);
}

#[test]
fn diff_step_expression_loop() {
    // Step computed from an argument: must use the general `DoInit`
    // and reject a zero step exactly like the tree-walker.
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION strided(n, s)
    INTEGER :: n, s
    INTEGER :: i, acc
    acc = 0
    DO i = 1, n, s
      acc = acc + i
    END DO
    strided = acc
  END FUNCTION strided
END MODULE m
"#;
    differential("step-expr", src, "strided", || vec![ArgVal::I(20), ArgVal::I(3)]);
    differential("step-zero", src, "strided", || vec![ArgVal::I(20), ArgVal::I(0)]);
    differential("step-neg", src, "strided", || vec![ArgVal::I(20), ArgVal::I(-1)]);
}

#[test]
fn diff_body_mutates_loop_var() {
    // The fused loop keeps its trip count in a hidden counter; writing
    // to the DO variable inside the body must not change the iteration
    // sequence (the tree-walker also re-stores the variable each trip).
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION stubborn(n)
    INTEGER :: n
    INTEGER :: i, acc
    acc = 0
    DO i = 1, n
      acc = acc + i
      i = 999
    END DO
    stubborn = acc
  END FUNCTION stubborn
END MODULE m
"#;
    differential("mutate-loop-var", src, "stubborn", || vec![ArgVal::I(5)]);
}

#[test]
fn diff_exit_cycle_through_critical() {
    let src = r#"
MODULE m
  REAL(8) :: hits
CONTAINS
  SUBROUTINE scan(n)
    INTEGER :: n
    INTEGER :: i
    DO i = 1, n
      !$OMP CRITICAL (tally)
      hits = hits + 1.0D0
      !$OMP END CRITICAL
      IF (MOD(i, 3) == 0) CYCLE
      IF (i > 7) EXIT
    END DO
  END SUBROUTINE scan
END MODULE m
"#;
    differential("exit-critical", src, "scan", || vec![ArgVal::I(50)]);
}

#[test]
fn diff_mixed_type_promotion() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION mixer(k, x)
    INTEGER :: k
    REAL(8) :: x
    INTEGER :: j
    REAL(8) :: r
    j = k / 3 + MOD(k, 5)
    r = j + x * 2
    r = r + k ** 2 + x ** k + x ** 1.5D0
    r = r - j / 2
    mixer = r + NINT(x) + INT(x) + ABS(1 - k) + SIGN(2.0D0, -x)
  END FUNCTION mixer
END MODULE m
"#;
    differential("promotion", src, "mixer", || vec![ArgVal::I(7), ArgVal::F(2.25)]);
}

#[test]
fn diff_logical_ops_and_branches() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION classify(x)
    REAL(8) :: x
    LOGICAL :: hot, cold
    hot = x > 10.0D0
    cold = x < -10.0D0
    IF (hot .AND. .NOT. cold) THEN
      classify = 1
    ELSE IF (hot .OR. cold) THEN
      classify = 2
    ELSE
      classify = 0
    END IF
  END FUNCTION classify
END MODULE m
"#;
    for v in [-20.0, -5.0, 0.0, 5.0, 20.0] {
        differential("logical", src, "classify", move || vec![ArgVal::F(v)]);
    }
}

/// Operand-addressed element access reads an INTEGER frame subscript
/// from its slot when the access executes, i.e. after the sibling
/// subscripts and a store's right-hand side. A function that changes
/// the subscript variable through copy-out in between must not be
/// observed: `a(i, bump(i))` and `g(i) = bump(i)` index with the old
/// `i`. Also nests accesses (`a(j, nbr(j))`) so one operand run is
/// lowered while another is open.
#[test]
fn diff_subscript_read_before_copy_out() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION bump(k)
    INTEGER :: k
    k = k + 1
    bump = k
  END FUNCTION bump
  INTEGER FUNCTION work(a, g)
    REAL(8), DIMENSION(1:6, 1:6) :: a
    REAL(8), DIMENSION(1:6) :: g
    INTEGER, DIMENSION(1:3) :: nbr
    INTEGER :: i, j
    i = 1
    a(i, bump(i)) = 10.0D0
    a(bump(i), i) = 20.0D0
    g(i) = bump(i)
    g(i + 1) = a(i - 3, bump(i) - 3) + a(bump(i) - 5, i - 4)
    nbr(1) = 3
    nbr(2) = 1
    nbr(3) = 2
    DO j = 1, 3
      a(j + 3, nbr(j)) = a(nbr(j), j) + g(nbr(nbr(j)) + 2) + 1.0D0
    END DO
    work = i
  END FUNCTION work
END MODULE m
"#;
    differential("subscript-copy-out", src, "work", || {
        let a: Vec<f64> = (0..36).map(|k| k as f64 * 0.5).collect();
        let g: Vec<f64> = (0..6).map(|k| 100.0 + k as f64).collect();
        vec![ArgVal::array_f_dims(&a, vec![(1, 6), (1, 6)]).unwrap(), ArgVal::array_f(&g, 1)]
    });
    // Pin the oracle's answer too, so both tiers agreeing on the wrong
    // one still fails: a(1,2)=10, a(3,3)=20, g(3)=4, final i = 6.
    let e = Session::compile(&[src]).unwrap();
    let a = ArgVal::array_f_dims(&[0.0; 36], vec![(1, 6), (1, 6)]).unwrap();
    let g = ArgVal::array_f(&[0.0; 6], 1);
    let out = e.run("work", &[a.clone(), g.clone()], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::I(6)));
    let (a, g) = (a.handle().unwrap().to_f64_vec(), g.handle().unwrap().to_f64_vec());
    assert_eq!((a[6], a[2 + 2 * 6], g[2]), (10.0, 20.0, 4.0));
}

#[test]
fn diff_call_depth_limit_error() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION ping(n)
    INTEGER :: n
    IF (n <= 0) THEN
      ping = 0
    ELSE
      ping = pong(n - 1) + 1
    END IF
  END FUNCTION ping
  INTEGER FUNCTION pong(n)
    INTEGER :: n
    IF (n <= 0) THEN
      pong = 0
    ELSE
      pong = ping(n - 1) + 1
    END IF
  END FUNCTION pong
END MODULE m
"#;
    // Within the limit: result identical; beyond: identical Limit error.
    // 200 nested frames need more stack than the 2 MiB test default in
    // debug builds, for both tiers — use a dedicated thread.
    let src = src.to_string();
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            differential("recursion-ok", &src, "ping", || vec![ArgVal::I(50)]);
            differential("recursion-deep", &src, "ping", || vec![ArgVal::I(500)]);
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Ranks 7 and 8 — the highest the front end admits, so the longest
/// subscript lists the VM's fixed buffers ever hold — through every
/// access kind: operand-addressed loads and stores (frame, module and
/// allocated arrays; the `DO k` nest is a `VecLoop` region), by-
/// reference element arguments with copy-out, ATOMIC element updates,
/// ALLOCATE bounds, and an out-of-range last subscript.
#[test]
fn diff_rank_seven_and_eight_arrays() {
    let src = r#"
MODULE hi
  REAL(8), DIMENSION(2,2,2,2,2,2,2) :: g7
  REAL(8), ALLOCATABLE, DIMENSION(:,:,:,:,:,:,:,:) :: w8
CONTAINS
  SUBROUTINE bump(x)
    REAL(8) :: x
    x = x * 2.0D0 + 1.0D0
  END SUBROUTINE bump
  SUBROUTINE fill(out, n)
    REAL(8), DIMENSION(1:4) :: out
    INTEGER :: n
    REAL(8), DIMENSION(2,2,2,2,2,2,2,2) :: t8
    INTEGER :: i, j, k
    ALLOCATE(w8(2,2,2,2,2,2,2,n))
    DO k = 1, 2
      DO j = 1, 2
        DO i = 1, 2
          t8(i,j,k,1,2,1,2,1) = i + 10 * j + 100 * k
          g7(i,j,k,2,1,2,1) = t8(i,j,k,1,2,1,2,1) * 0.5D0
          w8(i,j,k,1,1,1,1,n) = g7(i,j,k,2,1,2,1) + t8(i,j,k,1,2,1,2,1)
        END DO
      END DO
    END DO
    CALL bump(t8(2,1,2,1,2,1,2,1))
    CALL bump(w8(1,2,1,1,1,1,1,n))
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, 8
      !$OMP ATOMIC
      g7(1,1,1,2,1,2,1) = g7(1,1,1,2,1,2,1) + 1.0D0
      !$OMP ATOMIC
      w8(2,2,2,1,1,1,1,n) = w8(2,2,2,1,1,1,1,n) + t8(1,1,1,1,2,1,2,1)
    END DO
    !$OMP END PARALLEL DO
    out(1) = t8(2,1,2,1,2,1,2,1)
    out(2) = g7(1,1,1,2,1,2,1)
    out(3) = w8(1,2,1,1,1,1,1,n)
    out(4) = w8(2,2,2,1,1,1,1,n + 1 - out(4))
    DEALLOCATE(w8)
  END SUBROUTINE fill
END MODULE hi
"#;
    let args = |last: f64| move || vec![ArgVal::array_f(&[0.0, 0.0, 0.0, last], 1), ArgVal::I(3)];
    differential("rank-8", src, "fill", args(1.0));
    // `out(4) = 0` makes the last subscript of the last read `n + 1`.
    differential("rank-8-oob", src, "fill", args(0.0));

    // The scalar rung agrees bit for bit with the vector rung too.
    for mode in [ExecMode::Serial, ExecMode::Simulated { threads: 4 }] {
        for last in [1.0, 0.0] {
            let snap = |vector: bool| {
                let e = Session::compile(&[src]).unwrap();
                e.set_vector_enabled(vector);
                let s = snapshot(&e, "fill", &args(last)(), mode, ExecTier::Vm);
                (s, e.vector_entry_count())
            };
            let ((on, entered), (off, _)) = (snap(true), snap(false));
            assert_eq!(on, off, "rank-8 (last {last}) under {mode:?}: vector vs scalar rung");
            // The unrolled rank-8 patterns differ in literal subscripts,
            // so the whole nest is one region; a nest has no cost ledger,
            // so a Simulated run counts it on the scalar head.
            let simulated = matches!(mode, ExecMode::Simulated { .. });
            assert_eq!(entered > 0, !simulated, "rank-8 nest under {mode:?}: {entered} entries");
            assert_eq!(on.result.is_err(), last == 0.0, "{:?}", on.result);
        }
    }
}

#[test]
fn diff_real_to_integer_power_constants_fold_like_the_statement() {
    // `PARAMETER`, initializer and `DATA` values of `x ** 3` fold with
    // the engine's `F ** I` rule (`powi` for |e| <= 64), so they hold
    // the bits the executable statements compute on either tier.
    let free = r#"
MODULE m
  REAL(8), PARAMETER :: p = 1.0274D0 ** 3
  REAL(8) :: g = 1.0274D0 ** 3
  REAL(8) :: b, c, y, x
CONTAINS
  SUBROUTINE run()
    x = 1.0274D0
    b = 1.0274D0 ** 3
    c = x ** 3
    y = p
  END SUBROUTINE run
END MODULE m
"#;
    let fixed = "
      SUBROUTINE RUN
      DOUBLE PRECISION P, D, B, C, Y, X
      PARAMETER (P = 1.0274D0 ** 3)
      COMMON /BLK/ B, C, Y
      DATA D / P /
      X = 1.0274D0
      B = X ** 3
      C = D
      Y = P
      END
";
    let want = std::hint::black_box(1.0274f64).powi(std::hint::black_box(3));
    assert_eq!(want.to_bits(), 0x3ff1_5a00_343b_0604);
    for src in [free, fixed] {
        differential("pow-constants", src, "run", Vec::new);
        for tier in [ExecTier::TreeWalk, ExecTier::Vm] {
            let s = Session::compile(&[src]).unwrap();
            s.run_tiered("run", &[], ExecMode::Serial, tier).unwrap();
            let mut names = s.global_names();
            names.retain(|n| !n.ends_with('x'));
            assert!(names.len() >= 3, "{names:?}");
            for name in names {
                let got = match s.global_scalar(&name) {
                    Some(Val::F(v)) => v.to_bits(),
                    other => panic!("{name}: {other:?}"),
                };
                assert_eq!(got, want.to_bits(), "{name} on {tier:?}");
            }
        }
    }
}
