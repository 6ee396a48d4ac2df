//! Execution limits ([`fortrans::RunLimits`]) and runtime fault
//! context, on both execution tiers.
//!
//! The two tiers meter differently — the tree-walker ticks once per
//! statement, the VM once per instruction — so each tier is tested
//! against its own budget rather than through the differential harness.

use std::time::Duration;

use fortrans::{
    ArgVal, EngineService, ExecMode, ExecTier, FaultPlan, Job, JobPolicy, PolicyAction, RunError,
    RunLimits, Session, Val,
};

const SPIN: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE spin(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    DO i = 1, n
      acc = acc + SQRT(i * 1.0D0)
    END DO
    out(1) = acc
  END SUBROUTINE spin
END MODULE m
"#;

fn spin_engine(limits: RunLimits) -> Session {
    let mut engine = Session::compile(&[SPIN]).unwrap();
    engine.set_limits(limits);
    engine
}

fn run_spin(engine: &Session, n: i64, tier: ExecTier) -> Result<f64, String> {
    let out = ArgVal::array_f(&[0.0], 1);
    engine
        .run_tiered("spin", &[ArgVal::I(n), out.clone()], ExecMode::Serial, tier)
        .map(|_| out.handle().unwrap().get_f(0))
        .map_err(|e| e.to_string())
}

#[test]
fn step_budget_trips_on_both_tiers() {
    let engine = spin_engine(RunLimits { max_steps: Some(1_000), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 1_000_000, tier).expect_err("budget trips");
        assert!(err.contains("step budget of 1000 exhausted"), "{tier:?}: {err}");
    }
}

#[test]
fn generous_step_budget_does_not_trip() {
    let engine = spin_engine(RunLimits { max_steps: Some(10_000_000), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let got = run_spin(&engine, 1_000, tier).expect("run completes");
        let want: f64 = (1..=1000).map(|i| (i as f64).sqrt()).sum();
        assert!((got - want).abs() < 1e-9, "{tier:?}: {got} vs {want}");
    }
}

#[test]
fn deadline_trips_on_both_tiers() {
    let engine =
        spin_engine(RunLimits { deadline: Some(Duration::ZERO), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 10_000_000, tier).expect_err("deadline trips");
        assert!(err.contains("deadline exceeded"), "{tier:?}: {err}");
    }
}

#[test]
fn generous_deadline_does_not_trip() {
    let engine =
        spin_engine(RunLimits { deadline: Some(Duration::from_secs(120)), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        run_spin(&engine, 10_000, tier).expect("run completes");
    }
}

/// The retry policy tells the two `Limit` trips apart: an exhausted
/// step budget is transient (the degraded rung counts statements, not
/// instructions, so the same budget goes further), a wall-clock
/// deadline is final.
#[test]
fn step_budget_trip_retries_and_deadline_trip_does_not() {
    let service = EngineService::new(4);
    let artifact = service.compile(&[SPIN]).unwrap();
    let policy = JobPolicy { retries: 1, degrade: true, ..JobPolicy::default() };
    let job = |limits: RunLimits| {
        let out = ArgVal::array_f(&[0.0], 1);
        (Job::new("spin", vec![ArgVal::I(1_000), out.clone()]).limits(limits).policy(policy), out)
    };
    // 1000 iterations: a few thousand VM instructions, about a thousand
    // tree-walk statements.
    let (budget, out) = job(RunLimits { max_steps: Some(2_500), ..RunLimits::default() });
    let (deadline, _) = job(RunLimits { deadline: Some(Duration::ZERO), ..RunLimits::default() });
    let mut queue = service.queue(1);
    queue.submit(&artifact, budget);
    queue.submit(&artifact, deadline);
    let results = queue.run_batch_report().results;

    let retried = &results[0];
    assert!(retried.result.is_ok(), "{:?}", retried.result.as_ref().err());
    assert_eq!(retried.action, PolicyAction::Degraded);
    assert_eq!(retried.attempts.len(), 2);
    let first = retried.attempts[0].error.as_deref().unwrap_or_default();
    assert!(first.contains("step budget of 2500 exhausted"), "{first}");
    assert_eq!(retried.attempts[1].tier, ExecTier::TreeWalk);
    let want: f64 = (1..=1000).map(|i| (i as f64).sqrt()).sum();
    assert!((out.handle().unwrap().get_f(0) - want).abs() < 1e-9);

    let refused = &results[1];
    let err = refused.result.as_ref().expect_err("deadline trips").to_string();
    assert!(err.contains("deadline exceeded"), "{err}");
    assert_eq!(refused.action, PolicyAction::Failed);
    assert_eq!(refused.attempts.len(), 1, "a deadline trip must not be retried");
}

/// A backoff never outlives the job's deadline: the wait is cut short
/// where the deadline falls, the job ends `Cancelled`, and the log
/// records the wait actually slept. (The whole 2 s backoff used to run
/// first, and the log said `2s`.)
#[test]
fn backoff_is_cut_short_at_the_job_deadline() {
    let service = EngineService::new(4);
    let artifact = service.compile(&[SPIN]).unwrap();
    let deadline = Duration::from_millis(50);
    let policy = JobPolicy {
        deadline: Some(deadline),
        retries: 1,
        backoff: Duration::from_secs(2),
        degrade: false,
    };
    // The whole first attempt fails (VM trap, then oracle trap): a
    // transient fault, so the policy backs off and retries.
    let faults = FaultPlan { vm_trap: true, oracle_traps: 1, ..FaultPlan::default() };
    let args = vec![ArgVal::I(1_000), ArgVal::array_f(&[0.0], 1)];
    let mut queue = service.queue(1);
    queue.submit(&artifact, Job::new("spin", args).policy(policy).debug_faults(faults));
    let report = queue.run_batch_report();

    let jr = &report.results[0];
    assert_eq!(jr.action, PolicyAction::Cancelled);
    let err = jr.result.as_ref().expect_err("the deadline cancels the retry").to_string();
    assert!(err.contains("job deadline of 50ms exceeded"), "{err}");
    assert!(jr.wall < Duration::from_secs(1), "the backoff outlived the deadline: {:?}", jr.wall);
    assert_eq!(jr.attempts.len(), 2);
    assert!(jr.attempts[1].backoff <= deadline, "logged backoff {:?}", jr.attempts[1].backoff);
}

const FORKS: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE go(a)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: i, r
    DO r = 1, 10
      !$OMP PARALLEL DO
      DO i = 1, 64
        a(i) = a(i) + 1.0D0
      END DO
      !$OMP END PARALLEL DO
    END DO
  END SUBROUTINE go
END MODULE m
"#;

/// One step budget covers the whole run, however many teams it forks:
/// a member starts from the forker's count and hands back what it
/// retired. (Each member used to start from zero at every region, so
/// ten regions of 64 iterations never met a budget one region fits in.)
#[test]
fn step_budget_is_enforced_across_forks() {
    // Total work is ~640 statements / a few thousand instructions; one
    // region's share of it fits either budget many times over.
    let tight = |tier| if tier == ExecTier::Vm { 1_000 } else { 300 };
    let modes = [1, 2, 4].map(|threads| ExecMode::Parallel { threads });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let run = |max_steps: u64, mode: ExecMode| {
            let mut engine = Session::compile(&[FORKS]).unwrap();
            engine.set_limits(RunLimits { max_steps: Some(max_steps), ..RunLimits::default() });
            let a = ArgVal::array_f(&[0.0; 64], 1);
            engine
                .run_profiled("go", std::slice::from_ref(&a), mode, tier)
                .map(|(_, profile)| (a.handle().unwrap().to_f64_vec(), profile.steps))
                .map_err(|e| e.to_string())
        };
        let (_, serial_steps) = run(100_000, ExecMode::Serial).expect("budget covers the work");
        assert!(serial_steps > tight(tier), "{tier:?}: {serial_steps} steps");
        for mode in std::iter::once(ExecMode::Serial).chain(modes) {
            let err = run(tight(tier), mode).expect_err("budget trips");
            let stock = format!("step budget of {} exhausted", tight(tier));
            assert!(err.contains(&stock), "{tier:?} {mode:?}: {err}");

            let (a, steps) = run(100_000, mode).expect("budget covers the work");
            assert_eq!(a, vec![10.0; 64], "{tier:?} {mode:?}");
            // Nothing is lost in the fold: the team retired what the
            // serial run did.
            assert_eq!(steps, serial_steps, "{tier:?} {mode:?}");
        }
    }
}

const PINGPONG: &str = r#"
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

#[test]
fn call_depth_limit_is_configurable() {
    let mut engine = Session::compile(&[PINGPONG]).unwrap();
    engine.set_limits(RunLimits { max_call_depth: 16, ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        // Ten nested frames fit under a depth cap of 16 ...
        let ok = engine
            .run_tiered("ping", &[ArgVal::I(10)], ExecMode::Serial, tier)
            .unwrap_or_else(|e| panic!("{tier:?}: {e}"));
        assert_eq!(ok.result, Some(Val::I(10)));
        // ... a hundred do not.
        let err = engine
            .run_tiered("ping", &[ArgVal::I(100)], ExecMode::Serial, tier)
            .expect_err("depth cap trips");
        assert!(err.to_string().contains("call depth exceeded"), "{tier:?}: {err}");
    }
}

#[test]
fn limit_defaults_are_off_except_call_depth() {
    let limits = RunLimits::default();
    assert_eq!(limits.max_steps, None);
    assert_eq!(limits.deadline, None);
    assert!(limits.max_call_depth > 0);
    let engine = Session::compile(&[SPIN]).unwrap();
    assert_eq!(engine.limits().max_steps, None);
}

// ---------------------------------------------------------------------
// Fault context: runtime errors carry unit and line, on both tiers.
// ---------------------------------------------------------------------

#[test]
fn runtime_faults_carry_unit_and_line_context() {
    let src = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION shatter(n)
    INTEGER :: n
    shatter = 10 / n
  END FUNCTION shatter
END MODULE m
"#;
    let engine = Session::compile(&[src]).unwrap();
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = engine
            .run_tiered("shatter", &[ArgVal::I(0)], ExecMode::Serial, tier)
            .expect_err("division by zero");
        let s = err.to_string();
        assert!(s.contains("in shatter at line "), "{tier:?} context missing: {s}");
    }
}

/// Element accesses whose subscripts the VM reads straight from frame
/// slots / the subscript table (no pushes, name looked up only on the
/// error path) fault exactly like the tree-walker: same `RunError`
/// variant and fields, same `in unit at line N` context.
#[test]
fn operand_addressed_access_faults_match_the_oracle() {
    let src = r#"
MODULE m
  REAL(8), ALLOCATABLE, DIMENSION(:, :) :: heap
CONTAINS
  REAL(8) FUNCTION dyn_load(a, i, j)
    REAL(8), DIMENSION(1:4, 0:2) :: a
    INTEGER :: i, j
    dyn_load = a(i, j)
  END FUNCTION dyn_load
  SUBROUTINE dyn_store(a, i, j)
    REAL(8), DIMENSION(1:4, 0:2) :: a
    INTEGER :: i, j
    a(i, 2) = 1.0D0
    a(i, j) = 2.0D0
  END SUBROUTINE dyn_store
  REAL(8) FUNCTION fixed_local(i)
    INTEGER :: i
    REAL(8), DIMENSION(1:3, 1:2) :: t
    t(i, 2) = 5.0D0
    fixed_local = t(2, i)
  END FUNCTION fixed_local
  REAL(8) FUNCTION unallocated(i)
    INTEGER :: i
    unallocated = heap(i, 1)
  END FUNCTION unallocated
END MODULE m
"#;
    let oob = |var: &str, dim, index, lo, hi| RunError::OutOfBounds {
        var: var.to_string(),
        dim,
        index,
        lo,
        hi,
    };
    let a = || ArgVal::array_f_dims(&[0.0; 12], vec![(1, 4), (0, 2)]).unwrap();
    let flat = || ArgVal::array_f(&[0.0; 12], 1);
    type Case = (&'static str, Vec<ArgVal>, u32, RunError);
    let cases: Vec<Case> = vec![
        ("dyn_load", vec![a(), ArgVal::I(5), ArgVal::I(0)], 8, oob("a", 0, 5, 1, 4)),
        ("dyn_load", vec![a(), ArgVal::I(4), ArgVal::I(-1)], 8, oob("a", 1, -1, 0, 2)),
        // Both subscripts bad: the first dimension is reported.
        ("dyn_load", vec![a(), ArgVal::I(0), ArgVal::I(3)], 8, oob("a", 0, 0, 1, 4)),
        ("dyn_store", vec![a(), ArgVal::I(0), ArgVal::I(0)], 13, oob("a", 0, 0, 1, 4)),
        ("dyn_store", vec![a(), ArgVal::I(1), ArgVal::I(3)], 14, oob("a", 1, 3, 0, 2)),
        // A rank-1 handle behind a rank-2 dummy.
        (
            "dyn_load",
            vec![flat(), ArgVal::I(1), ArgVal::I(1)],
            8,
            RunError::Type { msg: "`a`: rank 1 referenced with 2 subscripts".into() },
        ),
        ("fixed_local", vec![ArgVal::I(4)], 19, oob("t", 0, 4, 1, 3)),
        ("fixed_local", vec![ArgVal::I(3)], 20, oob("t", 1, 3, 1, 2)),
        ("unallocated", vec![ArgVal::I(1)], 24, RunError::Unallocated { var: "heap".into() }),
    ];
    let engine = Session::compile(&[src]).unwrap();
    for (unit, args, line, want) in cases {
        let fault = |tier| {
            engine
                .run_tiered(unit, &args, ExecMode::Serial, tier)
                .expect_err("the access faults")
        };
        let (vm, tw) = (fault(ExecTier::Vm), fault(ExecTier::TreeWalk));
        assert_eq!(vm.root(), &want, "{unit}: VM fault");
        assert_eq!(tw.root(), &want, "{unit}: oracle fault");
        let ctx = format!("(in {unit} at line {line})");
        assert!(vm.to_string().ends_with(&ctx), "{unit}: VM context: {vm}");
        assert_eq!(vm.to_string(), tw.to_string(), "{unit}: rendered fault");
    }
}

#[test]
fn limit_errors_carry_context_too() {
    let engine = spin_engine(RunLimits { max_steps: Some(100), ..RunLimits::default() });
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let err = run_spin(&engine, 1_000_000, tier).expect_err("budget trips");
        assert!(err.contains("in spin at line "), "{tier:?} context missing: {err}");
    }
}

/// One region of each shape over 64 trips: a map, a reduction, a masked
/// select, a nest and a running sum; and a map whose forwarded temp is
/// read after the loop, which keeps it scalar.
const SHAPES: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE map(n, a, b, k, g, out)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    DO i = 1, n
      b(i) = a(i) * 2.0D0 + 1.0D0
    END DO
  END SUBROUTINE map
  SUBROUTINE red(n, a, b, k, g, out)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    REAL(8) :: s
    s = 0.0D0
    DO i = 1, n
      s = s + a(i) * a(i)
    END DO
    out(1) = s
  END SUBROUTINE red
  SUBROUTINE sel(n, a, b, k, g, out)
    INTEGER :: n, i, j
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    j = 0
    DO i = 1, n
      IF (k(i) > 3) j = MAX(j, i)
    END DO
    out(1) = j
  END SUBROUTINE sel
  SUBROUTINE nest(n, a, b, k, g, out)
    INTEGER :: n, i, d
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    DO i = 1, n
      DO d = 1, 3
        g(d, i) = a(i) * d
      END DO
    END DO
  END SUBROUTINE nest
  SUBROUTINE fwd(n, a, b, k, g, out)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    REAL(8) :: t
    DO i = 1, n
      t = a(i) * 2.0D0
      b(i) = t + 1.0D0
    END DO
    out(1) = t
  END SUBROUTINE fwd
  SUBROUTINE run(n, a, b, k, g, out)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:64) :: a, b, out
    INTEGER, DIMENSION(1:64) :: k
    REAL(8), DIMENSION(1:3, 1:64) :: g
    REAL(8) :: s
    s = 1.0D0
    DO i = 1, n
      s = s + a(i)
      b(i) = s * 0.5D0
    END DO
    out(1) = s
  END SUBROUTINE run
END MODULE m
"#;

/// The arguments every unit of [`SHAPES`] runs on.
fn shape_args() -> [ArgVal; 6] {
    let a: Vec<f64> = (0..64).map(|x| f64::from(x) * 0.25).collect();
    let k: Vec<i64> = (0..64).map(|x| x % 7).collect();
    [
        ArgVal::I(64),
        ArgVal::array_f(&a, 1),
        ArgVal::array_f(&[0.0; 64], 1),
        ArgVal::array_i(&k, 1),
        ArgVal::array_f_dims(&[0.0; 3 * 64], vec![(1, 3), (1, 64)]).unwrap(),
        ArgVal::array_f(&[0.0; 64], 1),
    ]
}

/// The smallest step budget `unit` finishes under on one rung, and the
/// region entries (vector, native) its run at that budget made.
fn smallest_budget(unit: &str, vector: bool, native: bool) -> (u64, u64, u64) {
    let mut engine = Session::compile(&[SHAPES]).unwrap();
    engine.set_vector_enabled(vector);
    engine.set_native_enabled(native);
    engine.set_native_eager(native);
    let mut run = |max_steps: u64| {
        engine.set_limits(RunLimits { max_steps: Some(max_steps), ..RunLimits::default() });
        let args = shape_args();
        let before = (engine.vector_entry_count(), engine.native_entry_count());
        let ok = engine.run_tiered(unit, &args, ExecMode::Serial, ExecTier::Vm).is_ok();
        let after = (engine.vector_entry_count(), engine.native_entry_count());
        (ok, (after.0 - before.0, after.1 - before.1))
    };
    let (mut lo, mut hi) = (1u64, 1u64 << 16);
    assert!(run(hi).0, "{unit}: the generous budget trips");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run(mid).0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (ok, (vec_entries, native_entries)) = run(lo);
    assert!(ok);
    (lo, vec_entries, native_entries)
}

/// `RunLimits` trips at the same step on every rung: a committed region
/// entry retires exactly what its scalar loop would — every trip and the
/// loop head once more to leave — so the smallest budget a run finishes
/// under is the same on the scalar, vector and eager-native rungs, and
/// at that budget the fast rungs still take the region. `fwd`'s loop is
/// refused (`Shape`): it takes no region, and leaves the same arrays on
/// the tree-walker and every VM rung.
#[test]
fn smallest_step_budget_is_the_same_on_every_rung() {
    for unit in ["map", "red", "sel", "nest", "fwd", "run"] {
        let region = u64::from(unit != "fwd");
        let (scalar, ..) = smallest_budget(unit, false, false);
        let (vector, vec_entries, _) = smallest_budget(unit, true, false);
        assert_eq!((vector, vec_entries), (scalar, region), "{unit}: vector rung against scalar");
        let (native, vec_entries, native_entries) = smallest_budget(unit, true, true);
        assert_eq!(native, scalar, "{unit}: eager native rung against scalar");
        // Selects and running sums stay on the vector rung.
        assert_eq!(vec_entries + native_entries, region, "{unit}: eager native rung entries");
    }
    let engine = Session::compile(&[SHAPES]).unwrap();
    let refused: Vec<_> =
        engine.artifact().vector_refusals().into_iter().map(|r| (r.unit, r.why)).collect();
    assert_eq!(refused, [("fwd".to_string(), fortrans::bytecode::VecRefusal::Shape)]);
    let run = |vector: bool, native: bool, tier: ExecTier| {
        let s = Session::compile(&[SHAPES]).unwrap();
        s.set_vector_enabled(vector);
        s.set_native_enabled(native);
        s.set_native_eager(native);
        let args = shape_args();
        s.run_tiered("fwd", &args, ExecMode::Serial, tier).expect("fwd runs");
        let bits = |h: &fortrans::ArrayObj| (0..h.len()).map(|k| h.get_bits(k)).collect();
        args.iter().filter_map(|x| x.handle().map(|h| bits(h))).collect::<Vec<Vec<u64>>>()
    };
    let want = run(false, false, ExecTier::TreeWalk);
    for (vector, native) in [(false, false), (true, false), (true, true)] {
        let at = format!("fwd: vector {vector}, native {native}");
        assert_eq!(run(vector, native, ExecTier::Vm), want, "{at}");
    }
}
