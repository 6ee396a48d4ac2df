//! Focused OpenMP-semantics tests: scheduling clauses, NUM_THREADS,
//! firstprivate behaviour through frame cloning, product/min reductions,
//! negative-step parallel loops, and printing from parallel regions.
//!
//! `Session::run` executes on the bytecode VM by default, so every test
//! here exercises the VM's OMP implementation; the tier-matrix test at
//! the bottom additionally pins VM/tree-walker agreement for the full
//! clause set.

use fortrans::{
    ArgVal, ExecMode, ExecTier, RunError, RunLimits, Schedule, Session, TraceEvent, Val,
};

fn engine(src: &str) -> Session {
    Session::compile(&[src]).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

const ALL: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 3 },
    ExecMode::Simulated { threads: 3 },
];

#[test]
fn schedule_static_chunk_covers_iterations() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE mark(a, n)
    REAL(8), DIMENSION(1:97) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO SCHEDULE(STATIC, 5)
    DO i = 1, n
      a(i) = a(i) + i * 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE mark
END MODULE m
"#;
    let e = engine(src);
    for mode in ALL {
        let a = ArgVal::array_f(&vec![0.0; 97], 1);
        e.run("mark", &[a.clone(), ArgVal::I(97)], mode).unwrap();
        let got = a.handle().unwrap().to_f64_vec();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f64, "{mode:?} i={i}");
        }
    }
}

#[test]
fn num_threads_clause_caps_team() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE work(a)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: i
    !$OMP PARALLEL DO NUM_THREADS(2)
    DO i = 1, 64
      a(i) = i * 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE work
END MODULE m
"#;
    let e = engine(src);
    let a = ArgVal::array_f(&vec![0.0; 64], 1);
    let out = e
        .run("work", std::slice::from_ref(&a), ExecMode::Simulated { threads: 8 })
        .unwrap();
    // The trace must show a 2-thread region despite the 8-thread mode.
    let region = out
        .trace
        .events
        .iter()
        .find_map(|ev| match ev {
            fortrans::TraceEvent::Region(r) => Some(r),
            _ => None,
        })
        .expect("one region");
    assert_eq!(region.threads, 2);
    assert_eq!(a.handle().unwrap().get_f(63), 64.0);
}

#[test]
fn firstprivate_semantics_via_frame_cloning() {
    // `scale` is set before the region and read inside: every thread must
    // see the pre-region value.
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
    let e = engine(src);
    for mode in ALL {
        let a = ArgVal::array_f(&vec![2.0; 40], 1);
        e.run("scaleit", &[a.clone(), ArgVal::I(40)], mode).unwrap();
        assert_eq!(a.handle().unwrap().get_f(17), 5.0, "{mode:?}");
    }
}

#[test]
fn product_and_min_reductions() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE stats(a, n, p, mn)
    REAL(8), DIMENSION(1:12) :: a
    INTEGER :: n
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
  END SUBROUTINE stats
  SUBROUTINE driver(a, n, res)
    REAL(8), DIMENSION(1:12) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:2) :: res
    REAL(8) :: p, mn
    CALL stats(a, n, p, mn)
    res(1) = p
    res(2) = mn
  END SUBROUTINE driver
END MODULE m
"#;
    let e = engine(src);
    let data: Vec<f64> = (1..=12).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    let expect_p: f64 = data.iter().product();
    let expect_mn: f64 = data.iter().cloned().fold(f64::INFINITY, f64::min);
    for mode in ALL {
        let a = ArgVal::array_f(&data, 1);
        let res = ArgVal::array_f(&[0.0, 0.0], 1);
        e.run("driver", &[a, ArgVal::I(12), res.clone()], mode).unwrap();
        let h = res.handle().unwrap();
        assert!((h.get_f(0) - expect_p).abs() < 1e-12, "{mode:?}: {}", h.get_f(0));
        assert_eq!(h.get_f(1), expect_mn, "{mode:?}");
    }
}

#[test]
fn parallel_loop_with_negative_step() {
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
    let e = engine(src);
    for mode in ALL {
        let a = ArgVal::array_f(&vec![0.0; 30], 1);
        e.run("rev", &[a.clone(), ArgVal::I(30)], mode).unwrap();
        assert_eq!(a.handle().unwrap().get_f(0), 10.0, "{mode:?}");
        assert_eq!(a.handle().unwrap().get_f(29), 300.0, "{mode:?}");
    }
}

#[test]
fn prints_from_parallel_regions_are_collected() {
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
    let e = engine(src);
    let out = e
        .run("noisy", &[ArgVal::I(8)], ExecMode::Parallel { threads: 4 })
        .unwrap();
    assert_eq!(out.printed.matches("iter").count(), 8, "{}", out.printed);
}

#[test]
fn integer_parallel_reduction() {
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
    let e = engine(src);
    for mode in ALL {
        let out = e.run("countup", &[ArgVal::I(100)], mode).unwrap();
        assert_eq!(out.result, Some(Val::I(5050)), "{mode:?}");
    }
}

/// One kernel combining every supported worksharing clause —
/// PRIVATE, FIRSTPRIVATE, REDUCTION, COLLAPSE, SCHEDULE, ATOMIC and
/// CRITICAL — run through both execution tiers in all three modes.
/// The accumulators are integer-valued reals, so even the Parallel
/// combine is exact and both tiers must agree to the bit.
/// `IF (.NOT. ALLOCATED(tb)) ALLOCATE(tb)` on a SAVE (per-thread)
/// allocatable is check-then-act: thread 1 sees "not allocated",
/// thread 0's ALLOCATE then provisions every thread's instance, and
/// thread 1's own ALLOCATE must claim its instance instead of failing
/// with `AlreadyAllocated`. The two module flags force exactly that
/// interleaving (thread 0 waits until thread 1 has evaluated the guard,
/// thread 1 waits until thread 0 has allocated); the deadline turns a
/// broken handshake into an error instead of a hang.
#[test]
fn guarded_allocate_of_save_array_is_not_a_check_then_act_race() {
    let src = r#"
MODULE m
  INTEGER :: seen, done
CONTAINS
  SUBROUTINE touch(i, out)
    INTEGER :: i
    REAL(8), DIMENSION(1:2) :: out
    REAL(8), DIMENSION(:), ALLOCATABLE, SAVE :: tb
    IF (i == 1) THEN
      DO WHILE (seen == 0)
      END DO
      ALLOCATE(tb(1:5))
      done = 1
    ELSE
      IF (.NOT. ALLOCATED(tb)) THEN
        seen = 1
        DO WHILE (done == 0)
        END DO
        ALLOCATE(tb(1:5))
      END IF
    END IF
    tb(i) = tb(i) + i * 1.0D0
    out(i) = tb(i)
  END SUBROUTINE touch
  SUBROUTINE race(out)
    REAL(8), DIMENSION(1:2) :: out
    INTEGER :: i
    seen = 0
    done = 0
    !$OMP PARALLEL DO
    DO i = 1, 2
      CALL touch(i, out)
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE race
END MODULE m
"#;
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let mut e = engine(src);
        e.set_limits(RunLimits {
            deadline: Some(std::time::Duration::from_secs(30)),
            ..RunLimits::default()
        });
        let out = ArgVal::array_f(&[0.0; 2], 1);
        e.run_tiered("race", std::slice::from_ref(&out), ExecMode::Parallel { threads: 2 }, tier)
            .unwrap_or_else(|err| panic!("{tier:?}: {err}"));
        // Each thread wrote its own fresh, zeroed instance.
        assert_eq!(out.handle().unwrap().to_f64_vec(), vec![1.0, 2.0], "{tier:?}");
    }
}

/// The claim is one-shot: a thread that ALLOCATEs its own instance
/// twice still gets `AlreadyAllocated`, on thread 0 and inside a region.
#[test]
fn double_allocate_of_save_array_by_one_thread_still_fails() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE twice()
    REAL(8), DIMENSION(:), ALLOCATABLE, SAVE :: tb
    ALLOCATE(tb(1:5))
    ALLOCATE(tb(1:5))
  END SUBROUTINE twice
  SUBROUTINE twice_in_region()
    INTEGER :: i
    !$OMP PARALLEL DO
    DO i = 1, 2
      CALL twice()
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE twice_in_region
END MODULE m
"#;
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        for (unit, mode) in [
            ("twice", ExecMode::Serial),
            ("twice_in_region", ExecMode::Parallel { threads: 2 }),
        ] {
            let err = engine(src)
                .run_tiered(unit, &[], mode, tier)
                .expect_err("second ALLOCATE by the same thread");
            assert_eq!(
                err.root(),
                &RunError::AlreadyAllocated { var: "tb".into() },
                "{tier:?} {unit}"
            );
        }
    }
}

#[test]
fn reduction_on_module_scalar_matches_serial() {
    // `glaf-codegen` emits `REDUCTION(op:grid)` for module-scope grids
    // too: every worker's body then names one shared cell, so the
    // partial has to be privatized by the runtime, not by frame cloning.
    let src = r#"
MODULE m
  REAL(8) :: gsum, gprod, gmin
CONTAINS
  SUBROUTINE fold(a, n)
    REAL(8), DIMENSION(1:16) :: a
    INTEGER :: n
    INTEGER :: i
    gsum = 0.0D0
    gprod = 1.0D0
    gmin = 1.0D30
    !$OMP PARALLEL DO REDUCTION(+:gsum) REDUCTION(*:gprod) REDUCTION(MIN:gmin)
    DO i = 1, n
      gsum = gsum + a(i)
      gprod = gprod * a(i)
      gmin = MIN(gmin, a(i))
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE fold
END MODULE m
"#;
    let data: Vec<f64> = (1..=16).map(|i| 1.0 + f64::from(i) / 16.0).collect();
    let modes = [
        ExecMode::Serial,
        ExecMode::Parallel { threads: 4 },
        ExecMode::Simulated { threads: 4 },
    ];
    let scheds = [Schedule::StaticBlock, Schedule::Dynamic(3), Schedule::Guided(1)];
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        for mode in modes {
            for sched in scheds {
                let e = engine(src);
                e.set_schedule_override_all(Some(sched));
                let a = ArgVal::array_f(&data, 1);
                e.run_tiered("fold", &[a, ArgVal::I(16)], mode, tier).unwrap();
                let g = |name: &str| e.global_scalar(name).unwrap().as_f();
                let at = format!("{tier:?} {mode:?} {sched:?}");
                // Sixteenths sum exactly in any order; the product's
                // grouping moves its last bits (the paper's 1e-7 RMS
                // gate exists for exactly that).
                assert_eq!(g("m::gsum"), 24.5, "{at}");
                let prod = g("m::gprod");
                assert!((prod - 681.7614347287937).abs() < 1e-9, "{at}: {prod}");
                assert_eq!(g("m::gmin"), 1.0625, "{at}");
            }
        }
    }
}

#[test]
fn collapsed_region_with_stepped_outer_loop_counts_real_iterations() {
    // `DO i = 1, 8, 2` collapsed with `DO j = 1, 3` is 4 x 3 iterations.
    // Sizing the region (and its owner map) by the unit-step extent
    // instead — 24 — would hand all twelve to thread 0 of a static team
    // of two.
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE fill(a)
    REAL(8), DIMENSION(1:8, 1:3) :: a
    INTEGER :: i, j
    !$OMP PARALLEL DO COLLAPSE(2)
    DO i = 1, 8, 2
      DO j = 1, 3
        a(i, j) = 1.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE fill
END MODULE m
"#;
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let a = ArgVal::array_f_dims(&[0.0; 24], vec![(1, 8), (1, 3)]).unwrap();
        let out = engine(src)
            .run_tiered("fill", std::slice::from_ref(&a), ExecMode::Simulated { threads: 2 }, tier)
            .unwrap();
        let regions: Vec<_> = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Region(r) => Some(r),
                TraceEvent::Serial(_) => None,
            })
            .collect();
        assert_eq!(regions.len(), 1, "{tier:?}");
        assert_eq!(regions[0].trip, 12, "{tier:?}");
        let stores: Vec<u64> = regions[0].per_thread.iter().map(|c| c.scalar.store).collect();
        assert_eq!(stores, [6, 6], "{tier:?}");
        assert_eq!(a.handle().unwrap().to_f64_vec().iter().sum::<f64>(), 12.0, "{tier:?}");
    }
}

#[test]
fn clause_matrix_agrees_across_tiers() {
    let src = r#"
MODULE m
  REAL(8) :: crit_total
  REAL(8), DIMENSION(1:8) :: bins
CONTAINS
  SUBROUTINE kitchen_sink(a, n, m, res)
    REAL(8), DIMENSION(1:6, 1:40) :: a
    INTEGER :: n, m
    REAL(8), DIMENSION(1:2) :: res
    REAL(8) :: base, acc
    REAL(8), DIMENSION(1:4) :: scratch
    INTEGER :: i, j, k, b
    base = 3.0D0
    acc = 0.0D0
    !$OMP PARALLEL DO DEFAULT(SHARED) COLLAPSE(2) SCHEDULE(STATIC, 7) &
    !$OMP&  FIRSTPRIVATE(base) PRIVATE(scratch, k, b) REDUCTION(+:acc)
    DO i = 1, n
      DO j = 1, m
        DO k = 1, 4
          scratch(k) = i * 1.0D0 + j
        END DO
        a(i, j) = scratch(1) + scratch(4) + base
        acc = acc + a(i, j)
        b = MOD(i * 40 + j, 8) + 1
        !$OMP ATOMIC
        bins(b) = bins(b) + 1.0D0
        !$OMP CRITICAL (tot)
        crit_total = crit_total + 1.0D0
        !$OMP END CRITICAL
      END DO
    END DO
    !$OMP END PARALLEL DO
    res(1) = acc
    res(2) = crit_total
  END SUBROUTINE kitchen_sink
END MODULE m
"#;
    // The clause's own SCHEDULE(STATIC, 7) first, then every schedule
    // kind as a session override, each under every team size.
    let scheds = [
        None,
        Some(Schedule::StaticBlock),
        Some(Schedule::StaticChunk(5)),
        Some(Schedule::Dynamic(3)),
        Some(Schedule::Guided(2)),
    ];
    let modes = [2, 3, 4, 8].into_iter().flat_map(|threads| {
        [ExecMode::Parallel { threads }, ExecMode::Simulated { threads }]
    });
    let matrix = std::iter::once(ExecMode::Serial)
        .chain(modes)
        .flat_map(|mode| scheds.map(|sched| (mode, sched)));
    for (mode, sched) in matrix {
        let run_tier = |tier| {
            let e = engine(src);
            e.set_schedule_override_all(sched);
            let a = ArgVal::array_f_dims(&vec![0.0; 240], vec![(1, 6), (1, 40)]).unwrap();
            let res = ArgVal::array_f(&[0.0, 0.0], 1);
            let out = e
                .run_tiered(
                    "kitchen_sink",
                    &[a.clone(), ArgVal::I(6), ArgVal::I(40), res.clone()],
                    mode,
                    tier,
                )
                .unwrap();
            let bins = e.global_array("m::bins").unwrap().to_f64_vec();
            (out.result, a.handle().unwrap().to_f64_vec(), res.handle().unwrap().to_f64_vec(), bins)
        };
        let vm = run_tier(ExecTier::Vm);
        let tw = run_tier(ExecTier::TreeWalk);
        assert_eq!(vm, tw, "tier divergence under {mode:?} {sched:?}");
        // Sanity: 240 iterations hit the critical section exactly once.
        assert_eq!(vm.2[1], 240.0, "{mode:?} {sched:?}");
    }
}

/// `VecLoop` entries are counted per VM and folded into the session's
/// counters when a team member retires and when the run ends: a team
/// must report exactly the entries the serial run does.
#[test]
fn rung_entry_counts_survive_the_fold_from_team_members() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE rows(a, n, m)
    REAL(8), DIMENSION(1:64, 1:40) :: a
    INTEGER :: n, m
    INTEGER :: i, j
    !$OMP PARALLEL DO PRIVATE(i)
    DO j = 1, m
      DO i = 1, n
        a(i, j) = a(i, j) * 2.0D0 + 1.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE rows
END MODULE m
"#;
    for native in [false, true] {
        // One session per mode: promotion heat lives on the artifact.
        let entries = |mode: ExecMode| {
            let e = engine(src);
            e.set_native_enabled(native);
            let a = ArgVal::array_f_dims(&vec![1.0; 64 * 40], vec![(1, 64), (1, 40)]).unwrap();
            for _ in 0..3 {
                e.run("rows", &[a.clone(), ArgVal::I(64), ArgVal::I(40)], mode).unwrap();
            }
            assert_eq!(a.handle().unwrap().get_f(0), 15.0, "{mode:?}");
            (e.vector_entry_count(), e.native_entry_count())
        };
        let (sv, sn) = entries(ExecMode::Serial);
        let (pv, pn) = entries(ExecMode::Parallel { threads: 2 });
        assert_eq!(sv + sn, 3 * 40, "native={native}: one entry per row per run");
        if native {
            // Promotion heat may split the two rungs differently.
            assert_eq!(pv + pn, sv + sn);
        } else {
            assert_eq!((pv, pn), (sv, 0));
        }
    }
}

/// Members of a dynamic-schedule region keep their outcomes to
/// themselves until they run out of work, and a region without
/// reductions keeps nothing but faults; the fault that is reported is
/// still the one of the lowest iteration.
#[test]
fn dynamic_region_without_reductions_reports_the_lowest_keyed_fault() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE poke(a)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: i
    !$OMP PARALLEL DO SCHEDULE(DYNAMIC)
    DO i = 1, 64
      IF (i == 37 .OR. i == 5) THEN
        a(i + 100) = 1.0D0
      ELSE
        a(i) = 1.0D0
      END IF
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE poke
END MODULE m
"#;
    let e = engine(src);
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        for threads in [2, 3] {
            for _ in 0..20 {
                let a = ArgVal::array_f(&[0.0; 64], 1);
                let err = e
                    .run_tiered("poke", &[a], ExecMode::Parallel { threads }, tier)
                    .expect_err("two iterations fault");
                assert!(
                    matches!(err.root(), RunError::OutOfBounds { index: 105, .. }),
                    "{tier:?} x{threads}: {err}"
                );
            }
        }
    }
}

/// Runtime-dispatched schedules hand chunks to whichever thread asks
/// first, but partials are keyed by a chunk's first iteration and folded
/// in key order, so a floating-point reduction does not depend on who
/// ran what.
#[test]
fn dynamic_and_guided_reductions_are_bit_reproducible() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION dyn3(n)
    INTEGER :: n
    INTEGER :: i
    REAL(8) :: s
    s = 0.0D0
    !$OMP PARALLEL DO SCHEDULE(DYNAMIC, 3) REDUCTION(+:s)
    DO i = 1, n
      s = s + (10.0D0 ** MOD(i, 13)) / (i * 1.0D0)
    END DO
    !$OMP END PARALLEL DO
    dyn3 = s
  END FUNCTION dyn3
  REAL(8) FUNCTION guided(n)
    INTEGER :: n
    INTEGER :: i
    REAL(8) :: s
    s = 0.0D0
    !$OMP PARALLEL DO SCHEDULE(GUIDED) REDUCTION(+:s)
    DO i = 1, n
      s = s + (10.0D0 ** MOD(i, 13)) / (i * 1.0D0)
    END DO
    !$OMP END PARALLEL DO
    guided = s
  END FUNCTION guided
END MODULE m
"#;
    let e = engine(src);
    for unit in ["dyn3", "guided"] {
        let run = || {
            let out = e.run(unit, &[ArgVal::I(1000)], ExecMode::Parallel { threads: 2 }).unwrap();
            match out.result {
                Some(Val::F(v)) => v.to_bits(),
                other => panic!("{unit}: {other:?}"),
            }
        };
        let first = run();
        for k in 1..50 {
            assert_eq!(run(), first, "{unit}: run {k} folded in another order");
        }
    }
}

/// A trailing `!` comment on a directive line is a comment in both source
/// forms: the same loop, written free-form and on fixed-form cards with a
/// comment after each directive, compiles and computes the same thing.
#[test]
fn directive_lines_may_carry_a_trailing_comment_in_both_forms() {
    let free = "\
MODULE m
CONTAINS
  SUBROUTINE scale(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO PRIVATE(i) ! hot loop
    DO i = 1, n
      a(i) = a(i) * 2.5D0 + i
    END DO
    !$OMP END PARALLEL DO ! end of the hot loop
  END SUBROUTINE scale
END MODULE m
";
    let fixed = "
      SUBROUTINE SCALE(A, N)
      DOUBLE PRECISION A(64)
      INTEGER N
C$OMP PARALLEL DO PRIVATE(I) ! hot loop
      DO I = 1, N
        A(I) = A(I) * 2.5D0 + I
      END DO
C$OMP END PARALLEL DO ! end of the hot loop
      END
";
    let input: Vec<f64> = (0..64).map(|k| 0.25 * k as f64).collect();
    let want: Vec<f64> = input.iter().zip(1..).map(|(x, i)| x * 2.5 + f64::from(i)).collect();
    for src in [free, fixed] {
        let e = engine(src);
        for mode in ALL {
            let a = ArgVal::array_f(&input, 1);
            e.run("scale", &[a.clone(), ArgVal::I(64)], mode).unwrap();
            assert_eq!(a.handle().unwrap().to_f64_vec(), want, "{mode:?}\n{src}");
        }
    }
}
