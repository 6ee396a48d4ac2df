//! Concurrent differential stress: the multi-tenant service contract.
//!
//! One [`fortrans::EngineService`] compiles the whole corpus once; then
//! 8 OS threads, each opening 4 sessions in turn, run every program in
//! every mode against that shared artifact set. The locks:
//!
//! * **Determinism under sharing** — every Serial and Simulated run in
//!   every session is bit-identical (result, globals, argument arrays,
//!   PRINT output) to a single-session baseline; Parallel runs agree
//!   modulo float reduction order. Sharing compiled artifacts and the
//!   pool set must be observationally invisible.
//! * **Artifact identity** — every session holds literally the same
//!   `Arc<CompiledProgram>` the baseline compiled (pointer equality),
//!   and the cache records one miss per distinct program, everything
//!   else hits.
//! * **Session isolation** — per-session counters (`fallback_count`)
//!   and per-session `RunLimits` never bleed: a session forced to trap
//!   or starved of steps observes its own failure while concurrent
//!   sibling sessions on the same artifact stay clean.

mod common;

use std::sync::Arc;

use common::{assert_equivalent, corpus, snapshot, Snap};
use fortrans::{ArgVal, CompiledProgram, EngineService, ExecMode, FaultPlan, RunError, RunLimits};

const OS_THREADS: usize = 8;
const SESSIONS_PER_THREAD: usize = 4;

const MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 4 },
];

/// Runs each thread body on a dedicated OS thread with enough stack for
/// the tree-walk oracle and joins, propagating panics.
fn fan_out(bodies: Vec<Box<dyn FnOnce() + Send>>) {
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            std::thread::Builder::new()
                .name(format!("stress-{i}"))
                .stack_size(16 << 20)
                .spawn(body)
                .expect("spawn stress thread")
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
}

#[test]
fn concurrent_sessions_are_bit_identical_to_a_single_session_baseline() {
    let service = Arc::new(EngineService::new(64));
    let cases = corpus();

    // Baseline: one fresh session per (case, mode), single-threaded.
    // Globals persist within a session, so every snapshot gets a
    // pristine session — exactly what the concurrent side does too.
    let mut baselines: Vec<(usize, ExecMode, Snap, Arc<CompiledProgram>)> = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        for mode in MODES {
            let session = service.session(&[case.src]).expect(case.label);
            let snap = snapshot(&session, case, mode);
            baselines.push((ci, mode, snap, Arc::clone(session.artifact())));
        }
    }
    let baselines = Arc::new(baselines);
    let misses_after_baseline = service.cache().misses();
    assert_eq!(
        misses_after_baseline,
        cases.len() as u64,
        "one compile per distinct program, all later opens hit"
    );

    let cases = Arc::new(cases);
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..OS_THREADS)
        .map(|t| {
            let (service, cases, baselines) =
                (Arc::clone(&service), Arc::clone(&cases), Arc::clone(&baselines));
            Box::new(move || {
                for s in 0..SESSIONS_PER_THREAD {
                    for (ci, mode, base, base_artifact) in baselines.iter() {
                        let case = &cases[*ci];
                        let session = service.session(&[case.src]).expect(case.label);
                        assert!(
                            Arc::ptr_eq(session.artifact(), base_artifact),
                            "{}: session did not share the cached artifact",
                            case.label
                        );
                        let snap = snapshot(&session, case, *mode);
                        assert_equivalent(
                            &format!("{} (thread {t}, session {s})", case.label),
                            *mode,
                            &snap,
                            base,
                        );
                        assert_eq!(
                            session.fallback_count(),
                            0,
                            "{}: clean run must not tick the fallback counter",
                            case.label
                        );
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    fan_out(bodies);

    // Cache accounting: no concurrent open compiled anything new.
    assert_eq!(service.cache().misses(), misses_after_baseline, "stress phase was all hits");
    let expected_hits =
        (OS_THREADS * SESSIONS_PER_THREAD * baselines.len()) as u64 + baselines.len() as u64
            - misses_after_baseline;
    assert_eq!(service.cache().hits(), expected_hits);
    assert!(service.cache().hit_rate() > 0.95, "hit rate: {}", service.cache().hit_rate());
    // The shared pools stayed healthy (error-path programs return clean
    // RunErrors; nothing panicked into a pool).
    assert_eq!(service.pools().contained_panics(), 0);
}

const SCALE_SRC: &str = r#"
MODULE demo
CONTAINS
  SUBROUTINE scale(a, n, f)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    REAL(8) :: f
    INTEGER :: i
    DO i = 1, n
      a(i) = a(i) * f
    END DO
  END SUBROUTINE scale
END MODULE demo
"#;

fn scale_args() -> Vec<ArgVal> {
    vec![ArgVal::array_f(&vec![1.0; 64], 1), ArgVal::I(64), ArgVal::F(2.0)]
}

/// Sessions sharing one artifact: traps and limits are strictly
/// per-session. Half the concurrent sessions are forced to trap (VM
/// falls back to the oracle), a quarter run under a starvation-level
/// step budget (clean `Limit` error), and the rest must observe zero
/// fallbacks and full results — all interleaved on the same artifact
/// and pool set.
#[test]
fn fallbacks_and_limits_never_bleed_between_sessions() {
    let service = Arc::new(EngineService::new(4));
    let artifact = service.compile(&[SCALE_SRC]).expect("compiles");

    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..OS_THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let artifact = Arc::clone(&artifact);
            Box::new(move || {
                for s in 0..SESSIONS_PER_THREAD {
                    let mut session = service.session_for(&artifact);
                    match (t + s) % 4 {
                        0 => {
                            // Forced trap: oracle answers, one fallback.
                            session.debug_faults(FaultPlan { vm_trap: true, ..FaultPlan::default() });
                            let out = session
                                .run("scale", &scale_args(), ExecMode::Serial)
                                .expect("trapped run recovers via the oracle");
                            assert!(out.fallback.is_some(), "trap diagnostic reported");
                            assert_eq!(session.fallback_count(), 1);
                        }
                        1 => {
                            // Starved session: clean Limit error, no
                            // fallback (a budget stop is not a trap).
                            session.set_limits(RunLimits {
                                max_steps: Some(8),
                                ..RunLimits::default()
                            });
                            let err = session
                                .run("scale", &scale_args(), ExecMode::Serial)
                                .expect_err("8 steps cannot finish 64 iterations");
                            assert!(
                                matches!(err.root(), RunError::Limit { .. }),
                                "starved session fails with Limit, got: {err}"
                            );
                            assert_eq!(session.fallback_count(), 0);
                        }
                        _ => {
                            // Clean sibling: full result, zero fallbacks,
                            // default limits — untouched by the others.
                            let out = session
                                .run("scale", &scale_args(), ExecMode::Parallel { threads: 4 })
                                .expect("clean session succeeds");
                            assert!(out.fallback.is_none(), "no cross-session fallback bleed");
                            assert_eq!(session.fallback_count(), 0);
                            assert_eq!(session.limits().max_steps, RunLimits::default().max_steps);
                        }
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    fan_out(bodies);

    // The forced traps panicked *inside the engine boundary*, not into
    // the shared pools: Serial-mode traps never touch a pool.
    assert_eq!(service.pools().contained_panics(), 0);
    // And the pools still work: a fresh parallel run succeeds.
    let session = service.session_for(&artifact);
    let out = session.run("scale", &scale_args(), ExecMode::Parallel { threads: 4 }).unwrap();
    assert!(out.fallback.is_none());
}

/// Debug bytecode injection is session-local: a corrupted session falls
/// back to the oracle while concurrent sessions on the *same artifact*
/// keep executing the pristine shared bytecode on the VM tier.
#[test]
fn injected_bytecode_corrupts_only_the_injecting_session() {
    use fortrans::bytecode::{compile_program, BInstr};

    let service = Arc::new(EngineService::new(4));
    let artifact = service.compile(&[SCALE_SRC]).expect("compiles");
    let lowered = artifact.lowered_program(false);
    let mut bad = compile_program(lowered, false);
    let u = (0..bad.len())
        .find(|&u| lowered.units[u].name == "scale")
        .expect("entry unit present");
    bad[u].code[0] = BInstr::AddI; // operand-stack underflow at pc 0

    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..OS_THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let artifact = Arc::clone(&artifact);
            let bad = bad.clone();
            Box::new(move || {
                for _ in 0..SESSIONS_PER_THREAD {
                    let session = service.session_for(&artifact);
                    if t % 2 == 0 {
                        session.debug_faults(FaultPlan {
                            bytecode: Some((false, bad.clone())),
                            ..FaultPlan::default()
                        });
                        let out = session
                            .run("scale", &scale_args(), ExecMode::Serial)
                            .expect("corrupt session recovers via the oracle");
                        assert!(out.fallback.is_some(), "corruption trapped and diagnosed");
                        assert_eq!(session.fallback_count(), 1);
                    } else {
                        let out = session
                            .run("scale", &scale_args(), ExecMode::Serial)
                            .expect("pristine session runs the shared bytecode");
                        assert!(out.fallback.is_none(), "shared artifact stayed pristine");
                        assert_eq!(session.fallback_count(), 0);
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    fan_out(bodies);
}
