//! Tier-interaction tests for the native (tier-3) execution path:
//! cancellation and deadlines must trip *inside* JIT'd loops, session
//! recycling must scrub native-run state, guard-failure deopts must be
//! counted and surfaced through `run_profiled`, and concurrent sessions
//! sharing one native cache must stay bit-identical to the oracle. A
//! region promotes on its `DEFAULT_HOT_THRESHOLD`th entry, counted
//! across every session over the artifact, and the worker VMs of every
//! fork enter the region an earlier fork compiled.
//!
//! Every test runs on every platform: where the JIT backend is
//! unavailable (`!fortrans::jit::available()`), eager promotion is a
//! no-op and the runs take the VM's vector/scalar paths, every
//! behavioral assertion still holds, and only the native-counter
//! assertions are gated.

use std::sync::Arc;
use std::time::Duration;

use fortrans::{
    ArgVal, CancelToken, EngineService, ExecMode, ExecTier, RunLimits, ScalarTy, Session, Val,
};

/// A long vectorizable reduction — the same shape `run_limits` meters;
/// promoted to native code on its first entry on an [`eager`] session.
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

/// A solo session with eager native promotion: every `VecLoop` region is
/// compiled on its first entry, so a single run exercises the JIT.
fn eager(src: &str) -> Session {
    let session = Session::compile(&[src]).unwrap();
    session.set_native_eager(true);
    session
}

fn spin_args(n: i64) -> (Vec<ArgVal>, ArgVal) {
    let out = ArgVal::array_f(&[0.0], 1);
    (vec![ArgVal::I(n), out.clone()], out)
}

#[test]
fn cancel_token_fires_inside_native_loop() {
    let engine = eager(SPIN);
    let token = CancelToken::new();
    engine.set_cancel_token(Some(Arc::clone(&token)));
    let (args, _out) = spin_args(2_000_000_000);
    let arm = Arc::clone(&token);
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        arm.cancel("tier-3 watchdog");
    });
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm)
        .expect_err("a 2e9-iteration loop must not outrun the token");
    watchdog.join().unwrap();
    let msg = err.to_string();
    assert!(msg.contains("cancelled"), "unexpected error: {msg}");
    assert!(msg.contains("tier-3 watchdog"), "reason lost: {msg}");
    if fortrans::jit::available() {
        assert!(
            engine.native_entry_count() > 0,
            "cancellation should have interrupted a *native* loop entry"
        );
    }
}

#[test]
fn deadline_trips_inside_native_loop() {
    let mut engine = eager(SPIN);
    engine.set_limits(RunLimits {
        deadline: Some(Duration::from_millis(25)),
        ..RunLimits::default()
    });
    let (args, _out) = spin_args(2_000_000_000);
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm)
        .expect_err("deadline must trip mid-loop");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    if fortrans::jit::available() {
        assert!(
            engine.native_entry_count() > 0,
            "the deadline should have interrupted a *native* loop entry"
        );
    }
}

#[test]
fn step_budget_and_results_agree_with_oracle() {
    // Tight budget: the native tier pre-reserves the whole trip count,
    // sees it cannot fit, and falls through so the scalar loop trips
    // with the stock error at the exact iteration — same text as Vm.
    let mut engine = eager(SPIN);
    engine.set_limits(RunLimits { max_steps: Some(1_000), ..RunLimits::default() });
    let (args, _out) = spin_args(1_000_000);
    let err = engine
        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm)
        .expect_err("budget trips");
    assert!(err.to_string().contains("step budget of 1000 exhausted"), "{err}");

    // Generous budget: the native answer is bit-identical to the
    // tree-walking oracle.
    let mut native = eager(SPIN);
    native.set_limits(RunLimits { max_steps: Some(100_000_000), ..RunLimits::default() });
    let (nargs, nout) = spin_args(100_000);
    native.run_tiered("spin", &nargs, ExecMode::Serial, ExecTier::Vm).unwrap();
    let oracle = Session::compile(&[SPIN]).unwrap();
    let (oargs, oout) = spin_args(100_000);
    oracle.run_tiered("spin", &oargs, ExecMode::Serial, ExecTier::TreeWalk).unwrap();
    assert_eq!(
        nout.handle().unwrap().get_bits(0),
        oout.handle().unwrap().get_bits(0),
        "native result must be bit-identical to the oracle"
    );
    if fortrans::jit::available() {
        assert!(native.native_entry_count() > 0, "loop never promoted");
        assert_eq!(native.native_deopt_count(), 0, "clean run must not deopt");
    }
}

/// Statically vectorizable, dynamically alias-hazardous: `a` and `b`
/// are distinct parameters, so the analyzer emits a `VecLoop`, but the
/// caller may pass one array for both — only the runtime entry guard
/// can see that.
const SHIFT: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE shift(a, b)
    REAL(8), DIMENSION(1:64) :: a, b
    INTEGER :: i
    DO i = 1, 63
      a(i) = b(i + 1) * 2.0D0 + 1.0D0
    END DO
  END SUBROUTINE shift
END MODULE m
"#;

#[test]
fn aliased_streams_deopt_and_match_oracle() {
    let init: Vec<f64> = (1..=64).map(|k| k as f64).collect();

    // Aliased call: same handle for both parameters. The promoted
    // region's entry guard must refuse (write a(i) overlaps read
    // b(i+1) in the same storage) and the scalar path must produce
    // exactly what the oracle produces for the same aliased call.
    let native = eager(SHIFT);
    let arr = ArgVal::array_f(&init, 1);
    native
        .run_tiered("shift", &[arr.clone(), arr.clone()], ExecMode::Serial, ExecTier::Vm)
        .unwrap();

    let oracle = Session::compile(&[SHIFT]).unwrap();
    let oarr = ArgVal::array_f(&init, 1);
    oracle
        .run_tiered("shift", &[oarr.clone(), oarr.clone()], ExecMode::Serial, ExecTier::TreeWalk)
        .unwrap();

    let (nh, oh) = (arr.handle().unwrap(), oarr.handle().unwrap());
    for k in 0..64 {
        assert_eq!(nh.get_bits(k), oh.get_bits(k), "aliased element {k} diverges from oracle");
    }
    if fortrans::jit::available() {
        assert!(native.native_deopt_count() >= 1, "alias guard failure must count as a deopt");
        assert_eq!(native.native_entry_count(), 0, "aliased entries must never commit");
    }

    // Distinct arrays: the same session now passes the guard and runs
    // natively (the compiled region was cached by the deopted call).
    let (a, b) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    native.run_tiered("shift", &[a.clone(), b], ExecMode::Serial, ExecTier::Vm).unwrap();
    assert_eq!(a.handle().unwrap().get_f(0), 2.0 * 2.0 + 1.0);
    if fortrans::jit::available() {
        assert!(native.native_entry_count() > 0, "unaliased call should run natively");
    }
}

/// One `shift` entry over distinct arrays: the region commits on
/// whichever fast rung the session's promotion state picks.
fn shift_once(session: &Session) {
    let init: Vec<f64> = (1..=64).map(|k| k as f64).collect();
    let (a, b) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    session.run_tiered("shift", &[a.clone(), b], ExecMode::Serial, ExecTier::Vm).unwrap();
    assert_eq!(a.handle().unwrap().get_f(0), 2.0 * 2.0 + 1.0);
}

#[test]
fn default_promotion_compiles_at_the_hot_threshold() {
    let threshold = fortrans::jit::DEFAULT_HOT_THRESHOLD;
    assert_eq!(threshold, 32, "DESIGN and the benchmark notes quote 32 entries");
    let session = Session::compile(&[SHIFT]).unwrap();
    let compiled = || session.artifact().native_cache().compiled_count();
    for k in 1..u64::from(threshold) {
        shift_once(&session);
        assert_eq!(session.native_entry_count(), 0, "entry {k} is below the threshold");
        assert_eq!(compiled(), 0, "entry {k} compiled early");
        assert_eq!(session.vector_entry_count(), k);
    }
    // Entry 32 compiles and runs natively, and so does every later one.
    shift_once(&session);
    shift_once(&session);
    if fortrans::jit::available() {
        assert_eq!(session.native_entry_count(), 2);
        assert_eq!(compiled(), 1);
        assert_eq!(session.vector_entry_count(), u64::from(threshold) - 1);
    } else {
        assert_eq!(session.vector_entry_count(), u64::from(threshold) + 1);
    }
}

#[test]
fn sessions_over_one_artifact_share_promotion_heat() {
    let artifact = fortrans::CompiledProgram::compile(&[SHIFT]).unwrap();
    let first = Session::solo(Arc::clone(&artifact));
    let second = Session::solo(Arc::clone(&artifact));
    let half = fortrans::jit::DEFAULT_HOT_THRESHOLD / 2;
    for _ in 0..half {
        shift_once(&first);
    }
    for _ in 1..half {
        shift_once(&second);
    }
    assert_eq!(first.native_entry_count() + second.native_entry_count(), 0);
    assert_eq!(artifact.native_cache().compiled_count(), 0);
    // The second session's 16th entry is the region's 32nd: it compiles,
    // and the first session's next entry runs that code.
    shift_once(&second);
    shift_once(&first);
    if fortrans::jit::available() {
        assert_eq!(second.native_entry_count(), 1);
        assert_eq!(first.native_entry_count(), 1);
        assert_eq!(artifact.native_cache().compiled_count(), 1, "compiled once for both");
    }
}

/// A vectorizable loop inside an OMP body: every team member's VM
/// enters it, and each fork makes fresh worker VMs.
const ROWS: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE rows(a, n, m)
    REAL(8), DIMENSION(1:64, 1:40) :: a
    INTEGER :: n, m
    INTEGER :: i, j
    !$OMP PARALLEL DO PRIVATE(i)
    DO j = 1, m
      DO i = 1, n
        a(i, j) = a(i, j) * 1.1D0 + SQRT(i * 0.5D0)
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE rows
END MODULE m
"#;

#[test]
fn team_workers_enter_promoted_regions_on_every_fork() {
    let native = eager(ROWS);
    let oracle = Session::compile(&[ROWS]).unwrap();
    let init: Vec<f64> = (0..64 * 40).map(|k| k as f64 * 0.25).collect();
    let arr = || ArgVal::array_f_dims(&init, vec![(1, 64), (1, 40)]).unwrap();
    let (a, o) = (arr(), arr());
    let mode = ExecMode::Parallel { threads: 2 };
    let mut compiled = None;
    for run in 1..=2u64 {
        let args = |x: &ArgVal| [x.clone(), ArgVal::I(64), ArgVal::I(40)];
        native.run_tiered("rows", &args(&a), mode, ExecTier::Vm).unwrap();
        oracle.run_tiered("rows", &args(&o), mode, ExecTier::TreeWalk).unwrap();
        let (got, want) = (a.handle().unwrap(), o.handle().unwrap());
        for k in 0..64 * 40 {
            assert_eq!(got.get_bits(k), want.get_bits(k), "run {run}: element {k} diverges");
        }
        assert_eq!(native.fallback_count(), 0);
        if fortrans::jit::available() {
            // One entry per row, all native: workers of the second fork
            // find the region the first fork compiled.
            assert_eq!(native.native_entry_count(), 40 * run, "run {run}");
            assert_eq!(native.vector_entry_count(), 0, "run {run}");
            let now = native.artifact().native_cache().compiled_count();
            assert_eq!(now, 1, "run {run}");
            assert_eq!(*compiled.get_or_insert(now), now, "run {run} compiled again");
        } else {
            assert_eq!(native.vector_entry_count(), 40 * run, "run {run}");
        }
    }
}

/// Region entry borrows each stream's array from the frame's handle
/// bank or the VM's global-handle cache instead of cloning the `Arc`.
/// The invariant that makes the borrow sound — no `Alloc`/`Dealloc`
/// executes inside a region, and the frame and the cache own the `Arc`s
/// for the entry's duration — is attacked from outside the region here:
/// the same promoted regions are re-entered after their frame
/// allocatables were `DEALLOCATE`d and re-`ALLOCATE`d at a different
/// size (recycled through the VM's allocation pool), and after a callee
/// re-allocated the global stream (which must invalidate the cached
/// handle). Any stream resolved from a previous entry's array would
/// read stale cells or walk past the new bounds.
const CHURN: &str = r#"
MODULE m
  REAL(8), ALLOCATABLE, DIMENSION(:) :: gbuf
CONTAINS
  SUBROUTINE regrow(n)
    INTEGER :: n
    INTEGER :: i
    IF (ALLOCATED(gbuf)) DEALLOCATE(gbuf)
    ALLOCATE(gbuf(1:n))
    DO i = 1, n
      gbuf(i) = i * 0.25D0
    END DO
  END SUBROUTINE regrow
  SUBROUTINE churn(out, rounds)
    REAL(8), DIMENSION(1:16) :: out
    INTEGER :: rounds
    REAL(8), ALLOCATABLE, DIMENSION(:) :: t, u
    INTEGER :: r, i, n
    DO r = 1, rounds
      n = 3 + MOD(r * 5, 11)
      ALLOCATE(t(1:n))
      ALLOCATE(u(1:n))
      CALL regrow(n)
      DO i = 1, n
        t(i) = gbuf(i) + r * 1.0D0
      END DO
      DO i = 1, n
        u(i) = t(i) * 2.0D0 + gbuf(i)
      END DO
      DO i = 1, n
        out(i) = out(i) + u(i)
      END DO
      DEALLOCATE(t)
      DEALLOCATE(u)
    END DO
  END SUBROUTINE churn
END MODULE m
"#;

#[test]
fn reallocated_streams_between_entries_never_read_stale() {
    const ROUNDS: i64 = 200;
    // Every operation is exact in f64, so the expectation is too.
    let mut want = [0.0f64; 16];
    for r in 1..=ROUNDS {
        let n = 3 + (r * 5) % 11;
        for i in 1..=n {
            let g = i as f64 * 0.25;
            want[i as usize - 1] += (g + r as f64) * 2.0 + g;
        }
    }
    let run = |session: &Session, tier| {
        let out = ArgVal::array_f(&[0.0; 16], 1);
        session
            .run_tiered("churn", &[out.clone(), ArgVal::I(ROUNDS)], ExecMode::Serial, tier)
            .unwrap();
        out.handle().unwrap().to_f64_vec()
    };
    let oracle = run(&Session::compile(&[CHURN]).unwrap(), ExecTier::TreeWalk);
    assert_eq!(oracle, want);

    // Eager native, default promotion (regions go native mid-run, after
    // 32 vector-rung entries), and the vector rung alone.
    let native = eager(CHURN);
    let promoted = Session::compile(&[CHURN]).unwrap();
    let vector = Session::compile(&[CHURN]).unwrap();
    vector.set_native_enabled(false);
    for (label, session) in [("eager", &native), ("promoted", &promoted), ("vector", &vector)] {
        let got = run(session, ExecTier::Vm);
        for (k, (g, w)) in got.iter().zip(&oracle).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: out({}) diverges from oracle", k + 1);
        }
        assert_eq!(session.fallback_count(), 0, "{label}: no trap-and-fallback");
    }
    // `regrow`'s loop and `churn`'s three, fused into one span, are
    // regions and every entry commits: the guards see the arrays of
    // *this* entry, so none of them fails.
    assert_eq!(vector.vector_entry_count(), 2 * ROUNDS as u64);
    if fortrans::jit::available() {
        assert_eq!(native.native_entry_count(), 2 * ROUNDS as u64);
        assert_eq!(native.native_deopt_count(), 0);
        assert!(promoted.native_entry_count() > 0 && promoted.native_deopt_count() == 0);
    }
}

#[test]
fn run_profiled_surfaces_native_counters() {
    let engine = eager(SHIFT);
    let init: Vec<f64> = (1..=64).map(|k| k as f64).collect();

    // One deopting (aliased) call and one committing (clean) call...
    let arr = ArgVal::array_f(&init, 1);
    engine
        .run_tiered("shift", &[arr.clone(), arr.clone()], ExecMode::Serial, ExecTier::Vm)
        .unwrap();
    let (a, b) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    engine.run_tiered("shift", &[a, b], ExecMode::Serial, ExecTier::Vm).unwrap();

    // ...then a profiled run. Profiled runs themselves take the scalar
    // path (they want per-iteration loop events), but the profile must
    // surface the session-lifetime native entry/deopt counters.
    let (c, d) = (ArgVal::array_f(&init, 1), ArgVal::array_f(&init, 1));
    let (_out, profile) = engine
        .run_profiled("shift", &[c, d], ExecMode::Serial, ExecTier::Vm)
        .unwrap();
    assert_eq!(profile.native_entries, engine.native_entry_count());
    assert_eq!(profile.native_deopts, engine.native_deopt_count());
    if fortrans::jit::available() {
        assert!(profile.native_entries >= 1, "profile lost the native entry count");
        assert!(profile.native_deopts >= 1, "profile lost the native deopt count");
    }
    // The JSON rendering carries them too.
    let counters = format!(
        "\"native_entries\":{},\"native_deopts\":{}}}",
        profile.native_entries, profile.native_deopts
    );
    assert!(profile.to_json().ends_with(&counters), "{}", profile.to_json());
}

/// Module globals mutated by vectorizable loops: a filled table plus a
/// reduction total, both touched natively.
const ACCUM: &str = r#"
MODULE state
  REAL(8), DIMENSION(1:128) :: tbl
  REAL(8) :: total
END MODULE state
MODULE m
CONTAINS
  SUBROUTINE accum(x)
    USE state
    REAL(8) :: x
    INTEGER :: i
    DO i = 1, 128
      tbl(i) = tbl(i) + x * (i * 1.0D0)
    END DO
    total = 0.0D0
    DO i = 1, 128
      total = total + tbl(i)
    END DO
  END SUBROUTINE accum
END MODULE m
"#;

fn global_bits(engine: &Session) -> Vec<(String, Vec<u64>)> {
    let mut names = engine.global_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bits = if let Some(v) = engine.global_scalar(&name) {
                match v {
                    Val::F(f) => vec![f.to_bits()],
                    Val::I(i) => vec![i as u64],
                    Val::B(b) => vec![b as u64],
                }
            } else if let Some(h) = engine.global_array(&name) {
                assert_eq!(h.ty, ScalarTy::F);
                (0..h.len()).map(|k| h.get_bits(k)).collect()
            } else {
                Vec::new()
            };
            (name, bits)
        })
        .collect()
}

#[test]
fn reset_globals_after_native_run_matches_fresh_session() {
    let run = |e: &Session, x: f64| {
        e.run_tiered("accum", &[ArgVal::F(x)], ExecMode::Serial, ExecTier::Vm).unwrap()
    };

    // Dirty a session with two native runs, then reset and run once.
    let mut recycled = eager(ACCUM);
    run(&recycled, 3.0);
    run(&recycled, 7.0);
    recycled.reset_globals();
    run(&recycled, 1.5);

    // A fresh session's single run must match bit-for-bit — and so
    // must the tree-walking oracle's view of the same program.
    let fresh = eager(ACCUM);
    run(&fresh, 1.5);
    assert_eq!(global_bits(&recycled), global_bits(&fresh), "reset session diverged from fresh");

    let oracle = Session::compile(&[ACCUM]).unwrap();
    oracle.run_tiered("accum", &[ArgVal::F(1.5)], ExecMode::Serial, ExecTier::TreeWalk).unwrap();
    assert_eq!(global_bits(&fresh), global_bits(&oracle), "native globals diverged from oracle");

    if fortrans::jit::available() {
        assert!(recycled.native_entry_count() > 0, "loops never promoted");
    }
}

#[test]
fn eight_thread_native_stress_is_bit_identical() {
    const THREADS: usize = 8;
    const REPS: usize = 12;

    let service = EngineService::new(16);
    let artifact = service.compile(&[SPIN]).expect("spin compiles");

    // Scalar baseline: native off, plain VM, one fresh session.
    let baseline = {
        let session = service.session_for(&artifact);
        session.set_native_enabled(false);
        let (args, out) = spin_args(20_000);
        session.run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm).unwrap();
        out.handle().unwrap().get_bits(0)
    };

    // Eight sessions over the same artifact hammer the shared native
    // cache concurrently; every result must be bit-identical to the
    // scalar baseline, and no run may deopt or fall back.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            let artifact = artifact.clone();
            scope.spawn(move || {
                let session = service.session_for(&artifact);
                session.set_native_eager(true);
                for rep in 0..REPS {
                    let (args, out) = spin_args(20_000);
                    let run = session
                        .run_tiered("spin", &args, ExecMode::Serial, ExecTier::Vm)
                        .unwrap_or_else(|e| panic!("thread {t} rep {rep}: {e}"));
                    assert!(run.fallback.is_none(), "thread {t} rep {rep}: fell back");
                    assert_eq!(
                        out.handle().unwrap().get_bits(0),
                        baseline,
                        "thread {t} rep {rep}: native result diverged"
                    );
                }
                if fortrans::jit::available() {
                    assert!(
                        session.native_entry_count() >= REPS as u64,
                        "thread {t}: every rep should have entered natively"
                    );
                    assert_eq!(session.native_deopt_count(), 0, "thread {t}: unexpected deopt");
                }
            });
        }
    });
}
