//! End-to-end engine tests: whole FORTRAN programs compiled and executed
//! in all three modes, exercising every §3 integration feature the GLAF
//! code generator relies on.

use fortrans::{ArgVal, ExecMode, Session, TraceEvent, Val};

fn engine(src: &str) -> Session {
    Session::compile(&[src]).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

const ALL_MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 4 },
];

#[test]
fn function_result_and_intrinsics() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION hyp(a, b)
    REAL(8) :: a, b
    hyp = SQRT(a**2 + b**2)
  END FUNCTION hyp
END MODULE m
"#;
    let e = engine(src);
    let out = e
        .run("hyp", &[ArgVal::F(3.0), ArgVal::F(4.0)], ExecMode::Serial)
        .unwrap();
    assert_eq!(out.result, Some(Val::F(5.0)));
}

#[test]
fn scalar_args_value_result() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE bump(x)
    REAL(8) :: x
    x = x + 1.0D0
  END SUBROUTINE bump
  SUBROUTINE driver(y)
    REAL(8) :: y
    CALL bump(y)
    CALL bump(y)
  END SUBROUTINE driver
END MODULE m
"#;
    let e = engine(src);
    // Top-level scalar args are copy-in only; observe through an array.
    let src2 = r#"
MODULE m2
  USE m
CONTAINS
  SUBROUTINE run2(out)
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: t
    t = 10.0D0
    CALL driver(t)
    out(1) = t
  END SUBROUTINE run2
END MODULE m2
"#;
    let e2 = Session::compile(&[src, src2]).unwrap();
    let out = ArgVal::array_f(&[0.0], 1);
    e2.run("run2", std::slice::from_ref(&out), ExecMode::Serial).unwrap();
    assert_eq!(out.handle().unwrap().get_f(0), 12.0);
    drop(e);
}

#[test]
fn module_variables_persist_across_runs() {
    let src = r#"
MODULE counter_mod
  INTEGER :: count
CONTAINS
  SUBROUTINE tick()
    count = count + 1
  END SUBROUTINE tick
END MODULE counter_mod
"#;
    let mut e = engine(src);
    for _ in 0..3 {
        e.run("tick", &[], ExecMode::Serial).unwrap();
    }
    assert_eq!(e.global_scalar("counter_mod::count"), Some(Val::I(3)));
    e.reset_globals();
    assert_eq!(e.global_scalar("counter_mod::count"), Some(Val::I(0)));
}

#[test]
fn common_blocks_share_storage_across_units() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE producer()
    REAL(8) :: cc
    REAL(8), DIMENSION(1:4) :: dd
    COMMON /rad/ cc, dd
    INTEGER :: i
    cc = 42.0D0
    DO i = 1, 4
      dd(i) = i * 1.0D0
    END DO
  END SUBROUTINE producer
  REAL(8) FUNCTION consumer()
    REAL(8) :: other_name
    REAL(8), DIMENSION(1:4) :: other_arr
    COMMON /rad/ other_name, other_arr
    consumer = other_name + other_arr(3)
  END FUNCTION consumer
END MODULE m
"#;
    let e = engine(src);
    e.run("producer", &[], ExecMode::Serial).unwrap();
    let out = e.run("consumer", &[], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::F(45.0)));
}

#[test]
fn derived_types_flattened_and_accessible() {
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
    fo%total = SUM(fo_fd_alias())
  END SUBROUTINE fill
  REAL(8) FUNCTION fo_fd_alias()
    fo_fd_alias = fo%fd(1) + fo%fd(2) + fo%fd(3) + fo%fd(4)
  END FUNCTION fo_fd_alias
END MODULE kernels
"#;
    // SUM over a %-path is not supported directly; the helper function
    // stands in (GLAF generates scalar accumulation loops anyway).
    let src = src.replace("fo%total = SUM(fo_fd_alias())", "fo%total = fo_fd_alias()");
    let e = engine(&src);
    e.run("fill", &[], ExecMode::Serial).unwrap();
    assert_eq!(e.global_scalar("fuliou_mod::fo%total"), Some(Val::F(100.0)));
    let fd = e.global_array("fuliou_mod::fo%fd").unwrap();
    assert_eq!(fd.get_f(2), 30.0);
}

#[test]
fn reduction_loop_all_modes_agree() {
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
    let e = engine(src);
    let data: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
    let expect = 500500.0;
    for mode in ALL_MODES {
        let a = ArgVal::array_f(&data, 1);
        let out = e.run("total", &[a, ArgVal::I(1000)], mode).unwrap();
        let Some(Val::F(v)) = out.result else { panic!() };
        assert!((v - expect).abs() < 1e-6, "{mode:?}: {v}");
    }
}

#[test]
fn multi_var_reduction_and_max() {
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
    let e = engine(src);
    let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
    for mode in ALL_MODES {
        let a = ArgVal::array_f(&data, 1);
        let out = ArgVal::array_f(&[0.0, 0.0], 1);
        e.run("driver", &[a, ArgVal::I(100), out.clone()], mode).unwrap();
        let h = out.handle().unwrap();
        assert_eq!(h.get_f(0), data.iter().sum::<f64>(), "{mode:?}");
        assert_eq!(h.get_f(1), 99.0, "{mode:?}");
    }
}

#[test]
fn atomic_updates_correct_under_threads() {
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
    for mode in ALL_MODES {
        let e = engine(src);
        e.run("scatter", &[ArgVal::I(4000)], mode).unwrap();
        let bins = e.global_array("accum_mod::bins").unwrap();
        for k in 0..4 {
            assert_eq!(bins.get_f(k), 1000.0, "{mode:?} bin {k}");
        }
    }
}

#[test]
fn critical_section_protects_rmw() {
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
    for mode in ALL_MODES {
        let e = engine(src);
        e.run("work", &[ArgVal::I(2000)], mode).unwrap();
        assert_eq!(e.global_scalar("m::shared_total"), Some(Val::F(2000.0)), "{mode:?}");
    }
}

#[test]
fn collapse_two_loops() {
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
    let e = engine(src);
    for mode in ALL_MODES {
        let a = ArgVal::array_f_dims(&vec![0.0; 120], vec![(1, 2), (1, 60)]).unwrap();
        e.run("fill", std::slice::from_ref(&a), mode).unwrap();
        let h = a.handle().unwrap();
        // a(2, 60) at column-major offset (2-1) + (60-1)*2 = 119.
        assert_eq!(h.get_f(119), 260.0, "{mode:?}");
        assert_eq!(h.get_f(0), 101.0, "{mode:?}");
    }
}

#[test]
fn allocatable_save_persists() {
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
    let e = engine(src);
    for expect in 1..=3 {
        let out = e.run("edge_tmp", &[], ExecMode::Serial).unwrap();
        assert_eq!(out.result, Some(Val::F(expect as f64)));
    }
}

#[test]
fn allocatable_without_save_reallocates() {
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
    let e = engine(src);
    for _ in 0..3 {
        let out = e.run("fresh", &[], ExecMode::Serial).unwrap();
        assert_eq!(out.result, Some(Val::F(1.0)), "fresh allocation each call");
    }
}

#[test]
fn do_while_exit_cycle() {
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
    let e = engine(src);
    let out = e.run("count_down", &[ArgVal::I(100)], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::I(3)));
}

#[test]
fn broadcast_and_array_copy_and_sum() {
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
    let e = engine(src);
    let out = e.run("demo", &[ArgVal::I(1)], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::F(25.0 + 2.5 + 2.5 + 10.0)));
}

#[test]
fn out_of_bounds_reported_with_context() {
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
    let e = engine(src);
    let err = e.run("oops", &[ArgVal::I(9)], ExecMode::Serial).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of bounds"), "{msg}");
    assert!(msg.contains('9'), "{msg}");
}

#[test]
fn integer_div_by_zero_is_error() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION bad(n)
    INTEGER :: n
    bad = 10 / n
  END FUNCTION bad
END MODULE m
"#;
    let e = engine(src);
    assert!(e.run("bad", &[ArgVal::I(0)], ExecMode::Serial).is_err());
    let ok = e.run("bad", &[ArgVal::I(3)], ExecMode::Serial).unwrap();
    assert_eq!(ok.result, Some(Val::I(3)));
}

#[test]
fn print_output_captured() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE speak(x)
    REAL(8) :: x
    PRINT *, 'value is', x
  END SUBROUTINE speak
END MODULE m
"#;
    let e = engine(src);
    let out = e.run("speak", &[ArgVal::F(2.5)], ExecMode::Serial).unwrap();
    assert!(out.printed.contains("value is 2.500000"), "{}", out.printed);
}

#[test]
fn simulated_trace_has_region_with_imbalance_attribution() {
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
    let e = engine(src);
    let a = ArgVal::array_f(&vec![0.1; 100], 1);
    let out = e
        .run("work", &[a, ArgVal::I(100)], ExecMode::Simulated { threads: 4 })
        .unwrap();
    assert_eq!(out.trace.region_count(), 1);
    let region = out
        .trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Region(r) => Some(r),
            _ => None,
        })
        .unwrap();
    assert_eq!(region.threads, 4);
    assert_eq!(region.trip, 100);
    // 100 iterations over 4 threads: every thread gets exactly 25 of the
    // transcendental ops.
    for (t, c) in region.per_thread.iter().enumerate() {
        assert_eq!(c.scalar.fspecial, 25, "thread {t}");
    }
}

#[test]
fn simulated_results_bit_identical_to_serial() {
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
    let e = engine(src);
    let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.173).collect();
    let serial = e
        .run("chaos", &[ArgVal::array_f(&data, 1), ArgVal::I(64)], ExecMode::Serial)
        .unwrap();
    let sim = e
        .run(
            "chaos",
            &[ArgVal::array_f(&data, 1), ArgVal::I(64)],
            ExecMode::Simulated { threads: 8 },
        )
        .unwrap();
    assert_eq!(serial.result, sim.result, "simulated must be bit-identical");
}

#[test]
fn vectorizable_loop_cost_lands_in_vector_bucket() {
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
  END SUBROUTINE axpy
  SUBROUTINE zinit(a, n)
    REAL(8), DIMENSION(1:256) :: a
    INTEGER :: n
    INTEGER :: i
    DO i = 1, n
      a(i) = 0.0D0
    END DO
  END SUBROUTINE zinit
END MODULE m
"#;
    let e = engine(src);
    let a = ArgVal::array_f(&vec![1.0; 256], 1);
    let b = ArgVal::array_f(&vec![1.0; 256], 1);
    let out = e
        .run("axpy", &[a.clone(), b, ArgVal::I(256)], ExecMode::Simulated { threads: 1 })
        .unwrap();
    let total = out.trace.total();
    assert!(total.vector.flop >= 512, "axpy flops vectorizable: {total:?}");
    assert_eq!(total.scalar.flop, 0, "no scalar flops expected: {total:?}");

    let out2 = e
        .run("zinit", &[a, ArgVal::I(256)], ExecMode::Simulated { threads: 1 })
        .unwrap();
    let t2 = out2.trace.total();
    assert_eq!(t2.memset_bytes, 256 * 8, "zero-init recognized as memset: {t2:?}");
}

#[test]
fn nested_parallel_regions_run_team_of_one() {
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
    for mode in ALL_MODES {
        let e = engine(src);
        e.run("outer", &[ArgVal::I(10)], mode).unwrap();
        assert_eq!(e.global_scalar("m::acc"), Some(Val::F(40.0)), "{mode:?}");
    }
    // Simulated trace records the nested forks.
    let e = engine(src);
    let out = e
        .run("outer", &[ArgVal::I(10)], ExecMode::Simulated { threads: 4 })
        .unwrap();
    let total = out.trace.total();
    assert_eq!(total.nested_forks, 10, "each inner call pays a nested fork");
}

#[test]
fn threadprivate_module_array_isolated_per_thread() {
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
    // With real threads, each thread bumps its own buf; merged counts all.
    let e = engine(src);
    e.run("work", &[ArgVal::I(100)], ExecMode::Parallel { threads: 4 })
        .unwrap();
    assert_eq!(e.global_scalar("m::merged"), Some(Val::F(100.0)));
    let buf0 = e.global_array("m::buf").unwrap();
    assert!(buf0.get_f(0) <= 100.0);
}

#[test]
fn function_called_in_expression() {
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
    let e = engine(src);
    let out = e.run("quad", &[ArgVal::F(2.0)], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::F(20.0)));
}

#[test]
fn parameter_constants_fold_into_dims_and_exprs() {
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
    let e = engine(src);
    let out = e.run("use_params", &[], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::F(21.0 * 2.5)));
}

/// Names resolve through a chain of scopes — the unit, the modules its
/// own `USE`s reach, the modules its module's `USE`s reach — and the
/// nearest declaration wins.
#[test]
fn names_resolve_through_the_scope_chain() {
    let src = r#"
MODULE c
  INTEGER, PARAMETER :: nc = 3
  TYPE pair_t
    REAL(8) :: lo
    REAL(8), DIMENSION(1:3) :: w
  END TYPE pair_t
  REAL(8) :: cv
  REAL(8) :: shade
END MODULE c
MODULE b
  USE c
  REAL(8) :: bv
END MODULE b
MODULE side
  INTEGER, PARAMETER :: ns = 2
  REAL(8) :: sv
  REAL(8) :: bv
END MODULE side
MODULE a
  USE b
  TYPE(pair_t) :: p
  REAL(8) :: shade
CONTAINS
  SUBROUTINE fill()
    USE side
    REAL(8), DIMENSION(1:nc + ns) :: t
    INTEGER :: i
    DO i = 1, nc + ns
      t(i) = i
    END DO
    cv = SUM(t)
    p%w(nc) = nc
    sv = ns
    shade = 1.0D0
    bv = 7.0D0
  END SUBROUTINE fill
END MODULE a
"#;
    let e = engine(src);
    e.run("fill", &[], ExecMode::Serial).unwrap();
    // `a USE b USE c`: a unit of `a` sees c's variable, its PARAMETER (in
    // an expression and in a local's bounds, beside one of `side`) and,
    // through the module variable `p`, its TYPE.
    assert_eq!(e.global_scalar("c::cv"), Some(Val::F(15.0)));
    assert_eq!(e.global_array("a::p%w").unwrap().get_f(2), 3.0);
    // The unit's own USE reaches a module that `a` does not use ...
    assert_eq!(e.global_scalar("side::sv"), Some(Val::F(2.0)));
    // ... and wins over what `a` sees through its own.
    assert_eq!(e.global_scalar("side::bv"), Some(Val::F(7.0)));
    assert_eq!(e.global_scalar("b::bv"), Some(Val::F(0.0)));
    // A module's own variable shadows a used module's.
    assert_eq!(e.global_scalar("a::shade"), Some(Val::F(1.0)));
    assert_eq!(e.global_scalar("c::shade"), Some(Val::F(0.0)));

    // Two used modules declaring one name is not conforming Fortran (a
    // compiler refuses the reference as ambiguous). The chain takes the
    // module of the earlier USE statement; this pins that, so that a
    // change of visit order is a decision and not an accident.
    let clash = r#"
MODULE first
  REAL(8) :: twin
END MODULE first
MODULE second
  REAL(8) :: twin
END MODULE second
MODULE user
  USE first
  USE second
CONTAINS
  SUBROUTINE poke()
    twin = 1.0D0
  END SUBROUTINE poke
END MODULE user
"#;
    let e = engine(clash);
    e.run("poke", &[], ExecMode::Serial).unwrap();
    assert_eq!(e.global_scalar("first::twin"), Some(Val::F(1.0)));
    assert_eq!(e.global_scalar("second::twin"), Some(Val::F(0.0)));
}

#[test]
fn stop_statement_surfaces() {
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
    let e = engine(src);
    let err = e.run("halt", &[ArgVal::F(1.0)], ExecMode::Serial).unwrap_err();
    assert!(err.to_string().contains("positive input"));
    assert!(e.run("halt", &[ArgVal::F(-1.0)], ExecMode::Serial).is_ok());
}

#[test]
fn negative_step_and_stride() {
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
    let e = engine(src);
    let out = e.run("walk", &[], ExecMode::Serial).unwrap();
    assert_eq!(out.result, Some(Val::I(10 + 8 + 6 + 4 + 2)));
}

#[test]
fn private_clause_array_deep_copied_per_thread() {
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
    for mode in ALL_MODES {
        let e = engine(src);
        let out = ArgVal::array_f(&[0.0; 4], 1);
        e.run("hist", &[out.clone(), ArgVal::I(400)], mode).unwrap();
        let h = out.handle().unwrap();
        for k in 0..4 {
            assert_eq!(h.get_f(k), 100.0, "{mode:?} bin {k}");
        }
    }
}
