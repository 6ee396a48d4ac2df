//! End-to-end tests for [`Session::run_profiled`]: span shape, omprt
//! region capture, trap/fallback surfacing, and the zero-overhead guard
//! for the disabled-tracing path.

use fortrans::{ArgVal, ExecMode, ExecTier, FaultPlan, RunLimits, Session, SpanKind};

const KERNEL: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE helper(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    INTEGER :: k
    DO k = 1, n
      a(k) = a(k) + 1.0D0
    END DO
  END SUBROUTINE helper
  REAL(8) FUNCTION work(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i, j
    CALL helper(a, n)
    acc = 0.0D0
    DO j = 1, 3
      !$OMP PARALLEL DO REDUCTION(+:acc)
      DO i = 1, n
        acc = acc + a(i) * 0.5D0
      END DO
      !$OMP END PARALLEL DO
    END DO
    work = acc
  END FUNCTION work
END MODULE m
"#;

fn args() -> Vec<ArgVal> {
    vec![ArgVal::array_f(&vec![1.0; 64], 1), ArgVal::I(64)]
}

#[test]
fn profile_records_units_loops_and_regions() {
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let engine = Session::compile(&[KERNEL]).unwrap();
        let (out, p) = engine
            .run_profiled("work", &args(), ExecMode::Parallel { threads: 2 }, tier)
            .unwrap();
        assert!(out.result.is_some());
        assert_eq!(p.entry, "work");
        assert_eq!(p.mode, "parallel(2)");
        assert!(p.steps > 0, "{tier:?}: steps not recorded");
        assert!(p.wall_ns > 0);
        assert!(p.fallback.is_none());

        // Span tree: the entry unit, the helper call, the serial DO in
        // helper, the serial j loop, the OMP region under it.
        assert_eq!(p.spans.len(), 1);
        let root = &p.spans[0];
        assert_eq!((root.kind, root.name.as_str(), root.entries), (SpanKind::Unit, "work", 1));
        let helper = root
            .children
            .iter()
            .find(|c| c.kind == SpanKind::Unit && c.name == "helper")
            .expect("helper call span");
        assert_eq!(helper.entries, 1);
        assert_eq!(helper.children.len(), 1, "helper's DO loop");
        assert_eq!(helper.children[0].kind, SpanKind::Loop);
        let jloop = root
            .children
            .iter()
            .find(|c| c.kind == SpanKind::Loop)
            .expect("serial j loop span");
        assert_eq!(jloop.entries, 1);
        let omp = jloop
            .children
            .iter()
            .find(|c| c.kind == SpanKind::OmpLoop)
            .expect("omp region span");
        assert_eq!(omp.entries, 3, "{tier:?}: region entered once per j iteration");

        // The three forks each produced one omprt utilization record.
        assert_eq!(p.regions.len(), 3, "{tier:?}: one RegionReport per fork");
        for r in &p.regions {
            assert_eq!(r.threads, 2);
            assert_eq!(r.busy_ns.len(), 2);
            // Wake latency per thread: both got into the closure, and
            // neither before the fork nor after the join.
            assert_eq!(r.start_ns.len(), 2);
            for (start, busy) in r.start_ns.iter().zip(&r.busy_ns) {
                assert!(start + busy <= r.wall_ns, "{tier:?}: {r:?}");
            }
        }

        // Unprofiled runs stay silent: the pool must not keep recording.
        engine.run("work", &args(), ExecMode::Parallel { threads: 2 }).unwrap();
        let (_, p2) = engine
            .run_profiled("work", &args(), ExecMode::Parallel { threads: 2 }, tier)
            .unwrap();
        assert_eq!(p2.regions.len(), 3, "{tier:?}: leftover records from unprofiled run");
    }
}

#[test]
fn steps_headroom_tracks_run_limits() {
    let mut engine = Session::compile(&[KERNEL]).unwrap();
    engine.set_limits(RunLimits { max_steps: Some(1_000_000), ..RunLimits::default() });
    let (_, p) = engine
        .run_profiled("work", &args(), ExecMode::Serial, ExecTier::Vm)
        .unwrap();
    assert_eq!(p.max_steps, Some(1_000_000));
    let headroom = p.steps_headroom().expect("budget configured");
    assert_eq!(headroom, 1_000_000 - p.steps);
}

#[test]
fn forced_trap_appears_in_profile() {
    let engine = Session::compile(&[KERNEL]).unwrap();
    engine.debug_faults(FaultPlan { vm_trap: true, ..FaultPlan::default() });
    let (out, p) = engine
        .run_profiled("work", &args(), ExecMode::Serial, ExecTier::Vm)
        .unwrap();
    // The VM trapped; the oracle re-ran and produced the answer.
    assert!(out.result.is_some());
    assert_eq!(p.tier, "tree-walk", "answer tier after fallback");
    let fb = p.fallback.as_ref().expect("fallback diagnostics in profile");
    assert_eq!(fb.unit, "work");
    assert!(!fb.what.is_empty());
    assert_eq!(p.fallback_count, 1);
    assert_eq!(p.fallback_count, engine.fallback_count());
    // The profile describes the oracle execution, not the aborted VM one.
    assert_eq!(p.spans.len(), 1);
    assert_eq!(p.spans[0].name, "work");
    assert_eq!(p.spans[0].entries, 1);

    // The next run is clean and keeps the engine-lifetime counter.
    let (_, p2) = engine
        .run_profiled("work", &args(), ExecMode::Serial, ExecTier::Vm)
        .unwrap();
    assert_eq!(p2.tier, "vm");
    assert!(p2.fallback.is_none());
    assert_eq!(p2.fallback_count, 1, "lifetime counter is monotonic");
}

/// Zero-overhead guard: the disabled-tracing path (`Session::run`, which
/// passes no collector) must stay within noise of the profiled path's
/// *lower* bound — i.e. profiling is cheap enough that `run` showing up
/// slower than `run_profiled * 4` can only mean the disabled path grew a
/// real cost. Min-of-N with generous slack keeps this robust on loaded
/// CI machines; the benchmark's `harness.trace_overhead_share` is the
/// measured number.
#[test]
fn disabled_tracing_is_within_noise_of_profiled() {
    // Loop-heavy kernel: many iterations per span boundary, so span
    // bookkeeping is amortized and the comparison is about the per-step
    // hot path, where the disabled branch must cost nothing measurable.
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION spin(n)
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i, j
    acc = 0.0D0
    DO j = 1, 50
      DO i = 1, n
        acc = acc + i * 1.0D-6
      END DO
    END DO
    spin = acc
  END FUNCTION spin
END MODULE m
"#;
    let engine = Session::compile(&[src]).unwrap();
    let a = [ArgVal::I(2000)];
    let min_of = |f: &dyn Fn()| -> u64 {
        (0..7)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap()
    };
    // Warm up (first run pays bytecode compilation).
    engine.run("spin", &a, ExecMode::Serial).unwrap();
    let plain = min_of(&|| {
        engine.run("spin", &a, ExecMode::Serial).unwrap();
    });
    let profiled = min_of(&|| {
        engine
            .run_profiled("spin", &a, ExecMode::Serial, ExecTier::Vm)
            .unwrap();
    });
    assert!(
        plain <= profiled.saturating_mul(4) + 2_000_000,
        "disabled tracing got expensive: plain {plain} ns vs profiled {profiled} ns"
    );
}
