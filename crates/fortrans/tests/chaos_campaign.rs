//! Chaos campaign integration tests, including the PR's acceptance
//! batch: 30 mixed jobs — hung, trapping, bytecode-corrupted, and clean
//! — through one queue, with every clean job bit-equal to a quiet
//! baseline, every bad job returning a structured [`JobResult`] naming
//! the policy action, and the pools still usable afterwards.

use std::time::Duration;

use fortrans::{
    ArgVal, EngineService, ExecMode, ExecTier, FaultPlan, Job, JobPolicy, PolicyAction,
    QuarantineMode, QuarantinePolicy, RunError, RunLimits, Session,
};

#[path = "common/chaos.rs"]
mod chaos;
#[path = "common/mutate.rs"]
mod mutate;

use chaos::{run_campaign, CampaignConfig};

#[test]
fn default_campaign_survives() {
    let cfg = CampaignConfig { rounds: 4, jobs_per_round: 8, ..CampaignConfig::default() };
    let report = run_campaign(&cfg);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(report.injected_total() > 0);
    assert!(report.jobs >= 32);
}

#[test]
fn campaign_is_deterministic_in_its_fault_plan() {
    let cfg = CampaignConfig { rounds: 3, jobs_per_round: 6, ..CampaignConfig::default() };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.injected, b.injected, "fault plan must be a pure function of the seed");
    assert!(a.ok() && b.ok(), "violations: {:?} / {:?}", a.violations, b.violations);
}

#[test]
fn pin_oracle_quarantine_probe_stays_usable() {
    let cfg = CampaignConfig {
        rounds: 4,
        jobs_per_round: 6,
        quarantine: Some(QuarantinePolicy { threshold: 4, mode: QuarantineMode::PinOracle }),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    assert!(report.ok(), "violations: {:#?}", report.violations);
}

#[test]
fn refuse_mode_campaign_survives() {
    // A short campaign on the default seed, and a long fixed-seed one
    // that must clear 200 injected faults.
    for (seed, rounds, jobs_per_round, min_faults) in
        [(CampaignConfig::default().seed, 5, 10, 30), (0x00C0_FFEE, 20, 16, 200)]
    {
        let report = run_campaign(&CampaignConfig {
            seed,
            rounds,
            jobs_per_round,
            ..CampaignConfig::default()
        });
        assert!(report.ok(), "seed {seed:#x}: violations: {:#?}", report.violations);
        assert!(
            report.injected_total() >= min_faults,
            "seed {seed:#x}: campaign too quiet: {:?}",
            report.injected
        );
        assert!(report.cancelled >= 1, "seed {seed:#x}: no deadline ever fired");
        assert!(report.actions.contains_key("completed"));
        assert!(report.actions.contains_key("cancelled"));
    }
}

#[test]
fn quarantine_off_campaign_survives() {
    let report = run_campaign(&CampaignConfig {
        seed: 0xDEAD_BEEF,
        rounds: 4,
        jobs_per_round: 8,
        quarantine: None,
        ..CampaignConfig::default()
    });
    assert!(report.ok(), "violations: {:#?}", report.violations);
}

/// The acceptance batch: 30 jobs, mixed clean/hung/trapping/corrupted,
/// one queue, one drain.
#[test]
fn thirty_job_mixed_batch_acceptance() {
    let service = EngineService::new(16);
    service.cache().set_quarantine_policy(Some(QuarantinePolicy {
        threshold: 64, // high: this test exercises policies, not the breaker
        mode: QuarantineMode::Refuse,
    }));

    let corpus = chaos::base_corpus();
    let arts: Vec<_> = corpus
        .iter()
        .map(|p| service.compile(&[p.source.as_str()]).expect("corpus compiles"))
        .collect();
    let hog = service.compile(&[chaos::hog_source("acceptance").as_str()]).expect("hog compiles");

    // Quiet per-(program, mode) baselines from solo sessions.
    let mut baselines = std::collections::BTreeMap::new();
    for (pi, prog) in corpus.iter().enumerate() {
        for (mk, mode) in [(0usize, ExecMode::Serial), (1, ExecMode::Parallel { threads: 2 })] {
            let session = Session::solo(arts[pi].clone());
            let (args, out) = chaos::make_args(prog.entry);
            session.run_tiered(prog.entry, &args, mode, ExecTier::Vm).expect("baseline");
            baselines.insert((pi, mk), chaos::out_bits(&out));
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Plan {
        Clean { base: usize, mk: usize },
        Hung,
        Trap { base: usize },
        Corrupt,
    }

    let mut queue = service.queue(4);
    let mut plans: Vec<(Plan, ArgVal)> = Vec::new();
    for j in 0..30 {
        match j % 6 {
            // 15 clean jobs across programs and modes.
            0 | 2 | 4 => {
                let base = j % corpus.len();
                let mode = if j % 4 == 0 && base != 2 {
                    ExecMode::Parallel { threads: 2 }
                } else {
                    ExecMode::Serial
                };
                let mk = matches!(mode, ExecMode::Parallel { .. }) as usize;
                let (args, out) = chaos::make_args(corpus[base].entry);
                queue.submit(&arts[base], Job::new(corpus[base].entry, args).mode(mode));
                plans.push((Plan::Clean { base, mk }, out));
            }
            // 5 hung jobs: their deadline must cancel them.
            1 => {
                let (args, out) = chaos::make_args("spin");
                queue.submit(
                    &hog,
                    Job::new("spin", args)
                        .limits(RunLimits {
                            deadline: Some(Duration::from_secs(2)),
                            ..RunLimits::default()
                        })
                        .policy(JobPolicy {
                            deadline: Some(Duration::from_millis(30)),
                            ..JobPolicy::default()
                        }),
                );
                plans.push((Plan::Hung, out));
            }
            // 5 trapping jobs: oracle fallback recovers bit-equal.
            3 => {
                let (args, out) = chaos::make_args(corpus[0].entry);
                queue.submit(
                    &arts[0],
                    Job::new(corpus[0].entry, args)
                        .debug_faults(FaultPlan { vm_trap: true, ..FaultPlan::default() }),
                );
                plans.push((Plan::Trap { base: 0 }, out));
            }
            // 5 corrupted-bytecode jobs: structured result, no bleed.
            _ => {
                let mut bunits = (*arts[1].bytecode(false)).clone();
                let _ = mutate::corrupt(&mut bunits, 0x1000 + j as u64);
                let (args, out) = chaos::make_args(corpus[1].entry);
                queue.submit(
                    &arts[1],
                    Job::new(corpus[1].entry, args).debug_faults(FaultPlan {
                        bytecode: Some((false, bunits)),
                        ..FaultPlan::default()
                    }),
                );
                plans.push((Plan::Corrupt, out));
            }
        }
    }

    let report = queue.run_batch_report();
    assert_eq!(report.results.len(), 30, "queue must drain all 30 jobs");

    for (j, ((plan, out), jr)) in plans.iter().zip(&report.results).enumerate() {
        match plan {
            Plan::Clean { base, mk } => {
                let ok = jr.result.as_ref().unwrap_or_else(|e| panic!("clean job {j}: {e}"));
                assert!(ok.fallback.is_none(), "clean job {j} fell back");
                assert_eq!(jr.action, PolicyAction::Completed, "clean job {j}");
                assert_eq!(
                    chaos::out_bits(out),
                    baselines[&(*base, *mk)],
                    "clean job {j} diverged from quiet baseline"
                );
            }
            Plan::Hung => {
                let err = jr.result.as_ref().expect_err("hung job must not complete");
                assert!(
                    matches!(err.root(), RunError::Cancelled { .. }),
                    "hung job {j}: expected Cancelled, got {err}"
                );
                assert_eq!(jr.action, PolicyAction::Cancelled, "hung job {j}");
                assert!(!jr.attempts.is_empty(), "hung job {j} logged no attempts");
            }
            Plan::Trap { base } => {
                let ok = jr.result.as_ref().unwrap_or_else(|e| panic!("trap job {j}: {e}"));
                assert!(ok.fallback.is_some(), "trap job {j} not diagnosed");
                assert_eq!(jr.action, PolicyAction::Completed, "trap job {j}");
                assert_eq!(
                    chaos::out_bits(out),
                    baselines[&(*base, 0)],
                    "trap job {j}: oracle recovery diverged"
                );
            }
            Plan::Corrupt => {
                // Structured either way; when the oracle recovered it,
                // the output matches the baseline.
                if let Ok(ok) = &jr.result {
                    if ok.fallback.is_some() {
                        assert_eq!(
                            chaos::out_bits(out),
                            baselines[&(1, 0)],
                            "corrupt job {j}: oracle recovery diverged"
                        );
                    }
                }
                assert!(
                    matches!(jr.action, PolicyAction::Completed | PolicyAction::Failed),
                    "corrupt job {j}: unexpected verdict {}",
                    jr.action
                );
            }
        }
    }
    assert!(
        report.action_count(PolicyAction::Cancelled) >= 5,
        "all five hung jobs should trip their deadline"
    );

    // No pool left unusable: a fresh all-clean batch on the same
    // service completes with zero faults — under a fully armed policy
    // that must never trigger (one attempt each, verdict `completed`).
    let mut queue = service.queue(4);
    queue.set_default_policy(JobPolicy {
        deadline: Some(Duration::from_secs(30)),
        retries: 2,
        backoff: Duration::from_millis(1),
        degrade: true,
    });
    let mut outs = Vec::new();
    for (pi, prog) in corpus.iter().enumerate() {
        let (args, out) = chaos::make_args(prog.entry);
        queue.submit(&arts[pi], Job::new(prog.entry, args).mode(ExecMode::Parallel { threads: 2 }));
        outs.push((pi, out));
    }
    for (k, jr) in queue.run_batch_report().results.iter().enumerate() {
        let ok = jr.result.as_ref().unwrap_or_else(|e| panic!("post-batch job {k}: {e}"));
        assert!(ok.fallback.is_none(), "post-batch job {k} fell back");
        assert_eq!(jr.action, PolicyAction::Completed, "post-batch job {k}");
        assert_eq!(jr.attempts.len(), 1, "post-batch job {k} needed a retry");
        let (pi, out) = &outs[k];
        assert_eq!(
            chaos::out_bits(out),
            baselines[&(*pi, 1)],
            "post-batch job {k} diverged — pool damaged by the chaos batch"
        );
    }
}

/// A team whose members never finish: each spins `n` times in an inner
/// loop of the parallel DO.
const TEAM_HOG: &str = r"MODULE tmod
CONTAINS
  SUBROUTINE team_spin(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:4) :: out
    REAL(8) :: s
    INTEGER :: i, k
    !$OMP PARALLEL DO PRIVATE(k, s)
    DO i = 1, 4
      s = 0.0
      DO k = 1, n
        s = s + 1.0
      END DO
      out(i) = s
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE team_spin
END MODULE tmod
";

/// A deadline reaches into a team: a Parallel job hung inside its
/// `!$OMP PARALLEL DO` ends `Cancelled` at its policy deadline, long
/// before its `RunLimits` backstop, and the shared pools it forked serve
/// the next batch's clean Parallel job bit-equal to a solo run.
#[test]
fn deadline_cancels_a_job_inside_its_team() {
    let service = EngineService::new(4);
    let team = ExecMode::Parallel { threads: 2 };
    let deadline = Duration::from_millis(30);
    let hog = service.compile(&[TEAM_HOG]).expect("team hog compiles");
    let args = vec![ArgVal::I(4_000_000_000), ArgVal::array_f(&[0.0; 4], 1)];
    let mut queue = service.queue(2);
    queue.submit(
        &hog,
        Job::new("team_spin", args)
            .mode(team)
            .limits(RunLimits { deadline: Some(deadline * 40), ..RunLimits::default() })
            .policy(JobPolicy { deadline: Some(deadline), ..JobPolicy::default() }),
    );
    let report = queue.run_batch_report();
    let jr = &report.results[0];
    let err = jr.result.as_ref().expect_err("hung team must not complete");
    assert!(
        err.root().to_string().starts_with("cancelled: job deadline of 30ms exceeded"),
        "expected the deadline's Cancelled, got {err}"
    );
    assert_eq!(jr.action, PolicyAction::Cancelled);
    assert!(jr.wall < deadline * 20, "cancelled only after {:?}", jr.wall);

    let prog = &chaos::base_corpus()[0];
    let art = service.compile(&[prog.source.as_str()]).expect("corpus compiles");
    let (args, out) = chaos::make_args(prog.entry);
    Session::solo(art.clone()).run_tiered(prog.entry, &args, team, ExecTier::Vm).expect("solo");
    let solo = chaos::out_bits(&out);
    let (args, out) = chaos::make_args(prog.entry);
    let mut queue = service.queue(2);
    queue.submit(&art, Job::new(prog.entry, args).mode(team));
    let report = queue.run_batch_report();
    let jr = &report.results[0];
    let ok = jr.result.as_ref().unwrap_or_else(|e| panic!("clean team job after the hog: {e}"));
    assert!(ok.fallback.is_none(), "clean team job fell back");
    assert_eq!(jr.action, PolicyAction::Completed);
    assert_eq!(chaos::out_bits(&out), solo, "clean team job diverged from its solo run");
}

/// The campaign's trace invariant, driven directly over many seeds: a
/// corrupted traced build run in Simulated mode never yields a cost
/// trace different from the oracle's unless the verifier rejects the
/// stream or the VM traps. Ledger corruptions are the sharp case — they
/// change no result and trip no guard, so an injected one *does* bend
/// the trace, and the verifier is the only thing standing in the way.
#[test]
fn corrupted_traced_streams_never_bend_the_trace_unnoticed() {
    use fortrans::verify::verify_program;
    let corpus = chaos::base_corpus();
    let sumsq = &corpus[1];
    let art = fortrans::CompiledProgram::compile(&[sumsq.source.as_str()]).expect("compiles");
    let mode = ExecMode::Simulated { threads: 2 };
    let oracle = Session::solo(art.clone())
        .run_tiered(sumsq.entry, &chaos::make_args(sumsq.entry).0, mode, ExecTier::TreeWalk)
        .expect("oracle runs")
        .trace;
    let (mut ledger_hits, mut bent) = (0, 0);
    for seed in 0..400u64 {
        let mut bunits = (*art.bytecode(true)).clone();
        let Some(m) = mutate::corrupt(&mut bunits, seed) else { continue };
        let rejected = verify_program(art.program(), &bunits).is_err();
        let mut session = Session::solo(art.clone());
        session.set_limits(RunLimits { max_steps: Some(2_000_000), ..RunLimits::default() });
        session.debug_faults(FaultPlan { bytecode: Some((true, bunits)), ..FaultPlan::default() });
        let run = session.run(sumsq.entry, &chaos::make_args(sumsq.entry).0, mode);
        let diverged = matches!(&run, Ok(out) if out.fallback.is_none() && out.trace != oracle);
        assert!(!diverged || rejected, "seed {seed}: trace diverged unnoticed after {m}");
        if m.kind == "vec-iter-ledger" {
            ledger_hits += 1;
            bent += usize::from(diverged);
        }
    }
    assert!(ledger_hits >= 10, "only {ledger_hits} ledger corruptions in 400 seeds");
    assert!(bent > 0, "no injected ledger corruption reached the trace: the check is vacuous");
}

#[test]
fn policy_named_in_structured_results() {
    // Every policy action renders to a stable lowercase name the batch
    // reports aggregate on.
    for (action, name) in [
        (PolicyAction::Completed, "completed"),
        (PolicyAction::Retried, "retried"),
        (PolicyAction::Degraded, "degraded"),
        (PolicyAction::Cancelled, "cancelled"),
        (PolicyAction::Quarantined, "quarantined"),
        (PolicyAction::Failed, "failed"),
    ] {
        assert_eq!(action.to_string(), name);
    }
}
