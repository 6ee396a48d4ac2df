//! Session recycling: `Session::reset_globals` must make a reused
//! session observationally identical to a fresh one — over the whole
//! shared corpus, across execution modes, and even after the session
//! just survived a trapped run with an oracle fallback. Batch queues
//! recycle nothing today (each job gets a private session), but the
//! engine service hands sessions to callers who *do* reuse them; this
//! suite is the contract that makes that safe.

mod common;

use common::{assert_equivalent, corpus, snapshot};
use fortrans::{ArgVal, EngineService, ExecMode, ExecTier, FaultPlan, Schedule, Session};

#[test]
fn recycled_session_matches_fresh_over_corpus() {
    let service = EngineService::new(64);
    for case in corpus() {
        let artifact = service.compile(&[case.src]).expect(case.label);
        for mode in
            [ExecMode::Serial, ExecMode::Parallel { threads: 2 }, ExecMode::Simulated { threads: 2 }]
        {
            // Dirty a session with two runs, then reset it.
            let mut recycled = service.session_for(&artifact);
            let _ = snapshot(&recycled, &case, mode);
            let _ = snapshot(&recycled, &case, mode);
            recycled.reset_globals();
            let after_reset = snapshot(&recycled, &case, mode);

            let fresh = service.session_for(&artifact);
            let expect = snapshot(&fresh, &case, mode);
            assert_equivalent(case.label, mode, &after_reset, &expect);
        }
    }
}

#[test]
fn reset_after_trapped_run_restores_fresh_behavior() {
    // A forced trap runs the oracle fallback inside the same session;
    // reset_globals must still return it to a pristine state (the
    // fallback counter survives — it is diagnostics, not program state).
    let service = EngineService::new(8);
    for case in corpus() {
        let artifact = service.compile(&[case.src]).expect(case.label);
        let mut recycled = service.session_for(&artifact);
        recycled.debug_faults(FaultPlan { vm_trap: true, ..FaultPlan::default() });
        let trapped = recycled.run_tiered(
            case.unit,
            &(case.mk_args)(),
            ExecMode::Serial,
            fortrans::ExecTier::Vm,
        );
        // Error-family cases fail under the oracle too; either way the
        // session must reset cleanly below.
        let fell_back = matches!(&trapped, Ok(out) if out.fallback.is_some());
        if trapped.is_ok() {
            assert!(fell_back, "{}: forced trap must be diagnosed", case.label);
        }
        recycled.reset_globals();
        let after_reset = snapshot(&recycled, &case, ExecMode::Serial);

        let fresh = service.session_for(&artifact);
        let expect = snapshot(&fresh, &case, ExecMode::Serial);
        assert_equivalent(case.label, ExecMode::Serial, &after_reset, &expect);
        assert!(
            recycled.fallback_count() >= 1 || trapped.is_err(),
            "{}: fallback diagnostics survive reset",
            case.label
        );
    }
}

#[test]
fn recycled_session_runs_clean_batches_repeatedly() {
    // One session reused across "batches" of sequential runs with a
    // reset between batches: every batch must reproduce the first.
    let service = EngineService::new(4);
    let artifact = service
        .compile(&[r#"
MODULE m
  REAL(8) :: acc
CONTAINS
  SUBROUTINE add(x, out)
    REAL(8) :: x
    REAL(8), DIMENSION(1:1) :: out
    acc = acc + x
    out(1) = acc
  END SUBROUTINE add
END MODULE m
"#])
        .expect("compile");
    let mut session = service.session_for(&artifact);
    let mut first_batch: Vec<u64> = Vec::new();
    for batch in 0..3 {
        let mut outs = Vec::new();
        for k in 0..4 {
            let out = ArgVal::array_f(&[0.0], 1);
            session
                .run_tiered(
                    "add",
                    &[ArgVal::F(k as f64 + 0.25), out.clone()],
                    ExecMode::Serial,
                    ExecTier::Vm,
                )
                .expect("run");
            outs.push(out.handle().expect("arr").get_bits(0));
        }
        if batch == 0 {
            first_batch = outs;
        } else {
            assert_eq!(outs, first_batch, "batch {batch} diverged after reset");
        }
        session.reset_globals();
    }
}

#[test]
fn racing_schedule_setters_keep_both_overrides() {
    // The per-line and the blanket override share one snapshot; each
    // setter must replace its half without losing the other's.
    let session = Session::compile(&[r#"
MODULE m
CONTAINS
  SUBROUTINE two(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n, i
    !$OMP PARALLEL DO
    DO i = 1, n
      a(i) = a(i) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
    !$OMP PARALLEL DO
    DO i = 1, n
      a(i) = a(i) * 2.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE two
END MODULE m
"#])
    .expect("compile");
    let scheds = || {
        let args = [ArgVal::array_f(&[1.0; 64], 1), ArgVal::I(64)];
        let mode = ExecMode::Parallel { threads: 2 };
        let (_, p) = session.run_profiled("two", &args, mode, ExecTier::Vm).expect("run");
        p.regions.iter().map(|r| (r.line, r.sched.clone())).collect::<Vec<_>>()
    };
    let lines: Vec<u64> = scheds().iter().map(|r| r.0).collect();
    let [first, second] = lines[..] else { panic!("two regions expected: {lines:?}") };
    let expect = vec![(first, "dynamic,1".to_string()), (second, "guided,2".to_string())];
    // Overrides for lines with no loop: a large per-line set is slow to
    // build and to clone, which is where an unguarded setter loses the
    // other one's update.
    let by_line = || {
        let pad = (10_000..11_000).map(|l| (l, Schedule::StaticBlock));
        pad.chain([(first as u32, Schedule::Dynamic(1))])
    };
    let start = std::sync::Barrier::new(2);
    for round in 0..2000 {
        session.set_schedule_overrides([]);
        session.set_schedule_override_all(None);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                session.set_schedule_overrides(by_line());
            });
            s.spawn(|| {
                start.wait();
                session.set_schedule_override_all(Some(Schedule::Guided(2)));
            });
        });
        assert_eq!(scheds(), expect, "round {round}: an override was lost");
    }
}

/// A global's two accessors answer by its rank, never panic: after a
/// FUN3D mesh build, `mesh_mod::ncell` is a scalar to `global_scalar`
/// and `None` to `global_array`, and `mesh_mod::c2n` the other way
/// round.
#[test]
fn global_accessors_answer_by_rank() {
    use fortrans::Val;
    use fun3d::variants::{build_artifact, Fun3dVariant};
    let s = Session::solo(build_artifact(Fun3dVariant::OriginalSerial));
    s.run("build_mesh", &[ArgVal::I(24)], ExecMode::Serial).expect("mesh builds");
    assert_eq!(s.global_scalar("mesh_mod::ncell"), Some(Val::I(24)));
    assert!(s.global_array("mesh_mod::ncell").is_none());
    assert!(s.global_scalar("mesh_mod::c2n").is_none());
    assert_eq!(s.global_array("mesh_mod::c2n").map(|h| h.len()), Some(4 * 24));
}
