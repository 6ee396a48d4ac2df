//! The apply side of the feedback loop: a measured profile's per-region
//! imbalance produces schedule overrides that demonstrably change the
//! schedule an imbalanced region runs under on the next run.

use fortrans::{ArgVal, ExecMode, ExecTier, Session};
use glaf_bench::observe::reschedule;

/// Triangular workload: iteration `i` performs `i * 300` flops, so a
/// static block partition hands the last thread ~1.7x the mean work
/// (64 iterations over 4 threads: max/mean = sum(49..64)/sum(1..64)*4).
const SKEWED: &str = r#"
MODULE w
  REAL(8), DIMENSION(1:64) :: out
CONTAINS
  SUBROUTINE skewed(n, reps)
    INTEGER :: n, reps
    INTEGER :: r, i, k
    REAL(8) :: acc
    DO r = 1, reps
      !$OMP PARALLEL DO DEFAULT(SHARED)
      DO i = 1, n
        acc = 0.0D0
        DO k = 1, i * 300
          acc = acc + DBLE(k) * 1.0D-9
        END DO
        out(i) = acc
      END DO
      !$OMP END PARALLEL DO
    END DO
  END SUBROUTINE skewed
END MODULE w
"#;

#[test]
fn measured_imbalance_flips_static_region_to_dynamic() {
    let engine = Session::compile(&[SKEWED]).unwrap();
    let args = [ArgVal::I(64), ArgVal::I(3)];
    let mode = ExecMode::Parallel { threads: 4 };

    let (_, before) = engine.run_profiled("skewed", &args, mode, ExecTier::Vm).unwrap();
    let static_regions: Vec<_> =
        before.regions.iter().filter(|r| r.sched.starts_with("static")).collect();
    assert!(!static_regions.is_empty(), "baseline run recorded no static regions");
    let worst_before =
        static_regions.iter().map(|r| r.imbalance()).fold(0.0f64, f64::max);

    // The triangular skew is structural: the last static chunk carries
    // ~1.7x the mean work, so the measured imbalance must clear the
    // threshold and the feedback pass must propose an override.
    let overrides = reschedule(&before, 1.25);
    assert!(
        !overrides.is_empty(),
        "no override proposed despite worst imbalance {worst_before:.2}"
    );
    let line = overrides[0].0;
    assert_eq!(overrides[0].1, fortrans::Schedule::Dynamic(1));

    // Apply and re-run: the region at that line now runs dynamically.
    engine.set_schedule_overrides(overrides);
    let (_, after) = engine.run_profiled("skewed", &args, mode, ExecTier::Vm).unwrap();
    let rescheduled: Vec<_> =
        after.regions.iter().filter(|r| r.line == u64::from(line)).collect();
    assert!(!rescheduled.is_empty(), "rescheduled line {line} recorded no regions");
    for r in &rescheduled {
        assert_eq!(r.sched, "dynamic,1", "line {line} still reports {}", r.sched);
    }
    let worst_after = rescheduled.iter().map(|r| r.imbalance()).fold(0.0f64, f64::max);
    eprintln!(
        "imbalance before (static) {worst_before:.2} -> after (dynamic,1) {worst_after:.2}"
    );

    // A second feedback round has nothing left to fix on that line:
    // the region no longer runs a static schedule.
    assert!(
        reschedule(&after, 1.25).iter().all(|&(l, _)| l != line),
        "feedback proposed the same line twice"
    );
}
