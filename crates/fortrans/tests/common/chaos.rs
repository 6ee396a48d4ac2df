//! Chaos campaign harness for the resilient service runtime.
//!
//! A campaign drives randomized rounds of concurrent batches through an
//! [`EngineService`], injecting the faults the resilience layer exists
//! to absorb — forced VM traps, corrupted bytecode streams, forced
//! deadline misses, OMP worker panics, oracle-trap retry ladders,
//! quarantine hammering, and cache-eviction storms — then checks the
//! survival invariants after every round:
//!
//! * **drain** — every submitted job produces exactly one structured
//!   [`JobResult`]; no panic escapes the batch;
//! * **no silent trace drift** — a corrupted traced build run in
//!   Simulated mode may only yield a cost trace different from the
//!   oracle's if the static verifier rejects the stream or the VM traps
//!   (a wrong `VecLoop` cost ledger changes no result, only the trace);
//! * **clean-job fidelity** — jobs with no injected fault complete with
//!   no fallback and outputs bit-equal to a quiet per-mode baseline
//!   (parallel reductions combine partials in a fixed order, so the
//!   baseline is per `(program, mode)` — float association differs
//!   between serial and parallel, deterministically);
//! * **no cross-session bleed** — the corpus includes a program that
//!   accumulates into a module global; its clean jobs must see a fresh
//!   global every time even while sibling jobs trap and cancel;
//! * **policy verdicts** — deadline-missed jobs end `Cancelled`,
//!   recovered traps end `Completed`-with-fallback bit-equal to the
//!   baseline, retry/degrade ladders end `Retried`/`Degraded`, and a
//!   quarantined artifact's probe ends `Quarantined`;
//! * **self-heal** — the final round is all-clean on the same pools and
//!   must be violation-free, and clearing the quarantined artifact
//!   restores it to `Completed`.
//!
//! The campaign is fully deterministic for a given [`CampaignConfig`]
//! (the RNG is the same xorshift64* the differential fuzzer uses), so a
//! CI failure reproduces locally from the seed alone. Faulty jobs run
//! on per-job variant artifacts (the base source plus a distinguishing
//! trailing comment) so their fault-ledger entries never accumulate
//! against the clean artifacts' hashes; only the dedicated victim
//! artifact is hammered past the quarantine threshold.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fortrans::{
    ArgVal, CompiledProgram, EngineService, ExecMode, ExecTier, FaultPlan, Job, JobPolicy,
    JobResult, PolicyAction, QuarantineMode, QuarantinePolicy, RunError, RunLimits, Session,
};

use crate::mutate::{corrupt, Rng};

/// Array length shared by the corpus programs.
pub const LANES: usize = 64;

/// The mode corrupted traced builds run in.
const SIMULATED: ExecMode = ExecMode::Simulated { threads: 2 };

/// One corpus program: a label for reports, the entry subroutine, and
/// the source (optionally tagged with a trailing comment so variants of
/// the same semantics hash to distinct artifacts).
pub struct ChaosProgram {
    pub label: &'static str,
    pub entry: &'static str,
    pub source: String,
}

fn scale_src(tag: &str) -> String {
    format!(
        r"MODULE smod
CONTAINS
  SUBROUTINE scale(a, n, f)
    REAL(8), DIMENSION(1:{LANES}) :: a
    INTEGER :: n
    REAL(8) :: f
    INTEGER :: i
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      a(i) = a(i) * f + 0.5
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE scale
END MODULE smod
! chaos variant: {tag}
"
    )
}

fn reduce_src(tag: &str) -> String {
    format!(
        r"MODULE rmod
CONTAINS
  SUBROUTINE sumsq(a, n, out)
    REAL(8), DIMENSION(1:{LANES}) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:4) :: out
    REAL(8) :: s, t
    INTEGER :: i
    s = 0.0
    !$OMP PARALLEL DO DEFAULT(SHARED) REDUCTION(+:s)
    DO i = 1, n
      s = s + a(i) * a(i)
    END DO
    !$OMP END PARALLEL DO
    out(1) = s
    out(2) = s * 0.25
    t = 0.0
    DO i = 1, n
      t = t + a(i) * 0.5
    END DO
    out(3) = t
  END SUBROUTINE sumsq
END MODULE rmod
! chaos variant: {tag}
"
    )
}

fn glob_src(tag: &str) -> String {
    format!(
        r"MODULE gmod
  REAL(8) :: acc
CONTAINS
  SUBROUTINE bump(x, out)
    REAL(8) :: x
    REAL(8), DIMENSION(1:4) :: out
    acc = acc + x * 2.0
    out(1) = acc
  END SUBROUTINE bump
END MODULE gmod
! chaos variant: {tag}
"
    )
}

fn hog_src(tag: &str) -> String {
    format!(
        r"MODULE hmod
CONTAINS
  SUBROUTINE spin(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:4) :: out
    REAL(8) :: s
    INTEGER :: i
    s = 0.0
    DO i = 1, n
      s = s + 1.0
    END DO
    out(1) = s
  END SUBROUTINE spin
END MODULE hmod
! chaos variant: {tag}
"
    )
}

/// A tagged copy of the spin-loop hog program (the deadline-miss
/// workload) for tests that build their own mixed batches.
pub fn hog_source(tag: &str) -> String {
    hog_src(tag)
}

/// The three clean base programs (indices are stable: 0 = scale,
/// 1 = sumsq reduction, 2 = global-accumulator bump).
pub fn base_corpus() -> Vec<ChaosProgram> {
    vec![
        ChaosProgram { label: "scale", entry: "scale", source: scale_src("base") },
        ChaosProgram { label: "sumsq", entry: "sumsq", source: reduce_src("base") },
        ChaosProgram { label: "bump", entry: "bump", source: glob_src("base") },
    ]
}

/// Fresh deterministic arguments for a corpus entry. Returns the arg
/// vector and the handle-bearing output array to read results from.
pub fn make_args(entry: &str) -> (Vec<ArgVal>, ArgVal) {
    let input: Vec<f64> = (0..LANES).map(|i| 1.0 + i as f64 * 0.5).collect();
    match entry {
        "scale" => {
            let a = ArgVal::array_f(&input, 1);
            (vec![a.clone(), ArgVal::I(LANES as i64), ArgVal::F(1.5)], a)
        }
        "sumsq" => {
            let a = ArgVal::array_f(&input, 1);
            let out = ArgVal::array_f(&[0.0; 4], 1);
            (vec![a, ArgVal::I(LANES as i64), out.clone()], out)
        }
        "bump" => {
            let out = ArgVal::array_f(&[0.0; 4], 1);
            (vec![ArgVal::F(2.5), out.clone()], out)
        }
        "spin" => {
            let out = ArgVal::array_f(&[0.0; 4], 1);
            (vec![ArgVal::I(400_000_000), out.clone()], out)
        }
        other => panic!("unknown chaos corpus entry {other:?}"),
    }
}

/// Bit pattern of an output array (the harness compares exact bits, not
/// approximate floats — determinism is the invariant).
pub fn out_bits(out: &ArgVal) -> Vec<u64> {
    let Some(arr) = out.handle() else {
        return Vec::new();
    };
    (0..arr.len()).map(|i| arr.get_f(i).to_bits()).collect()
}

/// Which fault (if any) a campaign job carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Clean,
    ForcedTrap,
    CorruptBytecode,
    DeadlineMiss,
    WorkerPanic,
    OracleRetryDegrade,
    RetrySameRung,
    QuarantineHammer,
    QuarantineProbe,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Clean => "clean",
            FaultKind::ForcedTrap => "forced_trap",
            FaultKind::CorruptBytecode => "corrupt_bytecode",
            FaultKind::DeadlineMiss => "deadline_miss",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::OracleRetryDegrade => "oracle_retry_degrade",
            FaultKind::RetrySameRung => "retry_same_rung",
            FaultKind::QuarantineHammer => "quarantine_hammer",
            FaultKind::QuarantineProbe => "quarantine_probe",
        }
    }
}

/// Campaign shape. The default is a short campaign;
/// `tests/chaos_campaign.rs` raises `rounds`/`jobs_per_round` to clear
/// the ≥200-injected-faults bar.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// RNG seed; the whole campaign is a pure function of the config.
    pub seed: u64,
    /// Number of batch rounds (the last is forced all-clean to prove
    /// the pools and cache self-healed).
    pub rounds: usize,
    /// Randomly-drawn jobs per round (hammer/probe jobs are appended on
    /// top of these).
    pub jobs_per_round: usize,
    /// Batch pool width.
    pub queue_width: usize,
    /// Policy deadline for deadline-miss jobs; their hard `RunLimits`
    /// deadline backstop is 40x this, so a deadline that never fires shows up as
    /// an invariant violation, never a hung campaign.
    pub deadline: Duration,
    /// Unique throwaway artifacts compiled per round to churn the LRU
    /// cache while batches run.
    pub eviction_storm: usize,
    /// Artifact cache capacity for the campaign's service.
    pub cache_capacity: usize,
    /// Quarantine policy installed on the service (None leaves the
    /// breaker off; hammer jobs then just exercise fallback).
    pub quarantine: Option<QuarantinePolicy>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x00C0_FFEE,
            rounds: 6,
            jobs_per_round: 12,
            queue_width: 4,
            deadline: Duration::from_millis(25),
            eviction_storm: 2,
            cache_capacity: 8,
            quarantine: Some(QuarantinePolicy {
                threshold: 5,
                mode: QuarantineMode::Refuse,
            }),
        }
    }
}

/// What a campaign survived: counts per injected fault kind and per
/// policy verdict, deadline/eviction accounting, and every invariant
/// violation observed (empty = the campaign passed).
#[derive(Debug, Default)]
pub struct CampaignReport {
    pub jobs: usize,
    /// Injected fault count per kind label (eviction-storm compiles
    /// count as injections: they are deliberate cache abuse).
    pub injected: BTreeMap<String, u64>,
    /// Job count per policy-verdict label.
    pub actions: BTreeMap<String, u64>,
    /// Jobs whose deadline cancelled them (verdict `Cancelled`).
    pub cancelled: u64,
    pub cache_evictions: u64,
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// Total injected faults across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One planned job's bookkeeping: what was injected, which baseline its
/// output must match, and where to read the output.
struct Planned {
    kind: FaultKind,
    base: usize,
    mode: ExecMode,
    out: ArgVal,
}

fn mode_key(mode: ExecMode) -> usize {
    match mode {
        ExecMode::Parallel { .. } => 1,
        _ => 0,
    }
}

fn compile_or_die(service: &EngineService, src: &str) -> Arc<CompiledProgram> {
    match service.compile(&[src]) {
        Ok(a) => a,
        Err(e) => panic!("chaos corpus failed to compile: {e}"),
    }
}

/// Quiet per-(program, mode) baselines: each base program run once in a
/// solo session per mode key, outputs captured as bits.
fn quiet_baselines(
    arts: &[Arc<CompiledProgram>],
    corpus: &[ChaosProgram],
) -> BTreeMap<(usize, usize), Vec<u64>> {
    let mut base = BTreeMap::new();
    for (pi, prog) in corpus.iter().enumerate() {
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let session = Session::solo(Arc::clone(&arts[pi]));
            let (args, out) = make_args(prog.entry);
            session
                .run_tiered(prog.entry, &args, mode, ExecTier::Vm)
                .unwrap_or_else(|e| panic!("quiet baseline run failed for {}: {e}", prog.label));
            base.insert((pi, mode_key(mode)), out_bits(&out));
        }
    }
    base
}

/// Runs a chaos campaign and reports what it survived. Deterministic
/// for a given config; panics only on corpus bugs (the corpus is part
/// of this module), never on injected faults — those must surface as
/// structured results or be recorded as violations.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let service = EngineService::new(cfg.cache_capacity);
    service.cache().set_quarantine_policy(cfg.quarantine);
    let mut rng = Rng::new(cfg.seed);
    let corpus = base_corpus();
    let arts: Vec<Arc<CompiledProgram>> =
        corpus.iter().map(|p| compile_or_die(&service, &p.source)).collect();
    let baselines = quiet_baselines(&arts, &corpus);
    let sumsq_trace = {
        let (args, _) = make_args("sumsq");
        Session::solo(Arc::clone(&arts[1]))
            .run_tiered("sumsq", &args, SIMULATED, ExecTier::TreeWalk)
            .unwrap_or_else(|e| panic!("oracle trace run failed: {e}"))
            .trace
    };

    let victim_src = scale_src("victim");
    let victim = compile_or_die(&service, &victim_src);
    let victim_hash = victim.source_hash();

    let retry_policy = JobPolicy {
        deadline: None,
        retries: 2,
        backoff: Duration::from_millis(1),
        degrade: false,
    };
    let degrade_policy = JobPolicy { degrade: true, ..retry_policy };
    let deadline_policy = JobPolicy {
        deadline: Some(cfg.deadline),
        retries: 0,
        backoff: Duration::ZERO,
        degrade: false,
    };
    // Hard backstop: even if its deadline never fired, a hog job cannot run
    // past 40x the policy deadline — it would trip this RunLimits
    // deadline instead, which the checker flags as a violation (the
    // root must be Cancelled, not Limit).
    let hog_limits = RunLimits { deadline: Some(cfg.deadline * 40), ..RunLimits::default() };

    let trap = FaultPlan { vm_trap: true, ..FaultPlan::default() };
    let double_fault = FaultPlan { oracle_traps: 1, ..trap.clone() };

    let mut report = CampaignReport::default();
    let inject = |report: &mut CampaignReport, kind: FaultKind| {
        *report.injected.entry(kind.label().to_string()).or_insert(0) += 1;
    };

    // Weighted draw: 4/12 clean, the rest split across the fault kinds.
    let table = [
        FaultKind::Clean,
        FaultKind::Clean,
        FaultKind::Clean,
        FaultKind::Clean,
        FaultKind::ForcedTrap,
        FaultKind::ForcedTrap,
        FaultKind::CorruptBytecode,
        FaultKind::CorruptBytecode,
        FaultKind::DeadlineMiss,
        FaultKind::WorkerPanic,
        FaultKind::OracleRetryDegrade,
        FaultKind::RetrySameRung,
    ];

    for round in 0..cfg.rounds {
        let clean_only = round + 1 == cfg.rounds;
        let mut queue = service.queue(cfg.queue_width);
        let mut planned: Vec<Planned> = Vec::new();
        // Simulated jobs whose corrupted stream the verifier let through.
        let mut verifier_passed: Vec<usize> = Vec::new();

        for j in 0..cfg.jobs_per_round {
            let kind =
                if clean_only { FaultKind::Clean } else { table[rng.below(table.len())] };
            let tag = format!("{}-r{round}-j{j}", kind.label());
            match kind {
                FaultKind::Clean => {
                    let base = rng.below(corpus.len());
                    // bump's global accumulator makes Parallel ordering
                    // moot (single scalar statement); rotate modes on
                    // the loopy programs only.
                    let mode = match rng.below(3) {
                        0 if base != 2 => ExecMode::Parallel { threads: 2 },
                        1 => ExecMode::Simulated { threads: 2 },
                        _ => ExecMode::Serial,
                    };
                    let (args, out) = make_args(corpus[base].entry);
                    queue.submit(&arts[base], Job::new(corpus[base].entry, args).mode(mode));
                    planned.push(Planned { kind, base, mode, out });
                }
                FaultKind::ForcedTrap => {
                    // Forced VM traps fire before any user code runs, so
                    // the oracle fallback recomputes from pristine args:
                    // output must still be bit-equal to the baseline.
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &scale_src(&tag));
                    let (args, out) = make_args("scale");
                    queue.submit(&art, Job::new("scale", args).debug_faults(trap.clone()));
                    planned.push(Planned { kind, base: 0, mode: ExecMode::Serial, out });
                }
                FaultKind::CorruptBytecode => {
                    // Corrupt a private copy of one bytecode build (the
                    // traced one runs Simulated) and inject it into this
                    // job's session only; the shared artifact stays
                    // pristine. Corruption may trap (then the oracle
                    // recovers) or silently change semantics, so the
                    // invariants are structure, isolation, and that only
                    // a stream the verifier rejects may bend the trace.
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &reduce_src(&tag));
                    let traced = rng.below(2) == 1;
                    let mode = if traced { SIMULATED } else { ExecMode::Serial };
                    let mut bunits = (*art.bytecode(traced)).clone();
                    let _ = corrupt(&mut bunits, rng.next_u64());
                    if traced && fortrans::verify::verify_program(art.program(), &bunits).is_ok() {
                        verifier_passed.push(planned.len());
                    }
                    let (args, out) = make_args("sumsq");
                    queue.submit(
                        &art,
                        Job::new("sumsq", args).mode(mode).debug_faults(FaultPlan {
                            bytecode: Some((traced, bunits)),
                            ..FaultPlan::default()
                        }),
                    );
                    planned.push(Planned { kind, base: 1, mode, out });
                }
                FaultKind::DeadlineMiss => {
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &hog_src(&tag));
                    let (args, out) = make_args("spin");
                    queue.submit(
                        &art,
                        Job::new("spin", args)
                            .limits(hog_limits)
                            .policy(deadline_policy),
                    );
                    planned.push(Planned { kind, base: 0, mode: ExecMode::Serial, out });
                }
                FaultKind::WorkerPanic => {
                    // The reduction's OMP region reads the shared array
                    // and writes `out` only after the region joins, so a
                    // mid-region worker panic leaves the args pristine
                    // for the oracle re-run: bit-equal recovery holds.
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &reduce_src(&tag));
                    let (args, out) = make_args("sumsq");
                    let mode = ExecMode::Parallel { threads: 2 };
                    queue.submit(
                        &art,
                        Job::new("sumsq", args).mode(mode).debug_faults(FaultPlan {
                            worker_panic: Some(1),
                            ..FaultPlan::default()
                        }),
                    );
                    planned.push(Planned { kind, base: 1, mode, out });
                }
                FaultKind::OracleRetryDegrade => {
                    // Attempt 1: VM forced trap AND oracle forced trap —
                    // the whole attempt fails as transient. With degrade
                    // on, attempt 2 runs the oracle rung clean.
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &scale_src(&tag));
                    let (args, out) = make_args("scale");
                    queue.submit(
                        &art,
                        Job::new("scale", args)
                            .policy(degrade_policy)
                            .debug_faults(double_fault.clone()),
                    );
                    planned.push(Planned { kind, base: 0, mode: ExecMode::Serial, out });
                }
                FaultKind::RetrySameRung => {
                    // Same double fault, but no degradation: attempt 2
                    // re-runs the same VM rung, whose forced trap was
                    // consumed by attempt 1 — it succeeds as Retried.
                    inject(&mut report, kind);
                    let art = compile_or_die(&service, &scale_src(&tag));
                    let (args, out) = make_args("scale");
                    queue.submit(
                        &art,
                        Job::new("scale", args)
                            .policy(retry_policy)
                            .debug_faults(double_fault.clone()),
                    );
                    planned.push(Planned { kind, base: 0, mode: ExecMode::Serial, out });
                }
                FaultKind::QuarantineHammer | FaultKind::QuarantineProbe => unreachable!(),
            }
        }

        // Deterministic quarantine schedule on the dedicated victim:
        // rounds 0-1 hammer it with forced traps (each records a fault),
        // later non-final rounds probe it once.
        if !clean_only && cfg.quarantine.is_some() {
            if round < 2 {
                for _ in 0..3 {
                    inject(&mut report, FaultKind::QuarantineHammer);
                    let (args, out) = make_args("scale");
                    queue.submit(&victim, Job::new("scale", args).debug_faults(trap.clone()));
                    planned.push(Planned {
                        kind: FaultKind::QuarantineHammer,
                        base: 0,
                        mode: ExecMode::Serial,
                        out,
                    });
                }
            } else {
                inject(&mut report, FaultKind::QuarantineProbe);
                let (args, out) = make_args("scale");
                queue.submit(&victim, Job::new("scale", args));
                planned.push(Planned {
                    kind: FaultKind::QuarantineProbe,
                    base: 0,
                    mode: ExecMode::Serial,
                    out,
                });
            }
        }

        // Cache-eviction storm: unique throwaway compiles churn the LRU
        // while this round's artifacts are live via their Arcs.
        for k in 0..cfg.eviction_storm {
            if !clean_only {
                *report.injected.entry("eviction_storm".to_string()).or_insert(0) += 1;
                let _ = compile_or_die(&service, &glob_src(&format!("storm-r{round}-k{k}")));
            }
        }

        let batch = queue.run_batch_report();
        report.cancelled += batch.action_count(PolicyAction::Cancelled) as u64;
        report.jobs += planned.len();

        if batch.results.len() != planned.len() {
            report.violations.push(format!(
                "round {round}: queue did not drain — {} results for {} jobs",
                batch.results.len(),
                planned.len()
            ));
            continue;
        }

        for (slot, (p, jr)) in planned.iter().zip(&batch.results).enumerate() {
            *report.actions.entry(jr.action.to_string()).or_insert(0) += 1;
            check_job(round, slot, p, jr, &baselines, cfg, &mut report.violations);
        }
        for slot in verifier_passed {
            if let Ok(out) = &batch.results[slot].result {
                if out.fallback.is_none() && out.trace != sumsq_trace {
                    report.violations.push(format!(
                        "round {round} job {slot}: Simulated trace of a corrupted stream \
                         diverged from the oracle with no verifier rejection and no trap"
                    ));
                }
            }
        }

        if service.cache().len() > cfg.cache_capacity {
            report.violations.push(format!(
                "round {round}: cache over capacity ({} > {})",
                service.cache().len(),
                cfg.cache_capacity
            ));
        }
    }

    report.cache_evictions = service.cache().evictions();

    // Self-heal: clearing the victim's quarantine must restore it.
    if cfg.quarantine.is_some() {
        if !service.cache().is_quarantined(victim_hash) {
            report
                .violations
                .push("victim artifact never tripped its circuit breaker".to_string());
        }
        service.cache().clear_quarantine(victim_hash);
        let mut queue = service.queue(cfg.queue_width);
        let (args, out) = make_args("scale");
        queue.submit(&victim, Job::new("scale", args));
        let results = queue.run_batch_report().results;
        let healed = results.first().is_some_and(|jr| {
            jr.result.is_ok() && out_bits(&out) == baselines[&(0, 0)]
        });
        if !healed {
            report
                .violations
                .push("victim artifact did not recover after clear_quarantine".to_string());
        }
    }

    report
}

#[allow(clippy::too_many_arguments)]
fn check_job(
    round: usize,
    slot: usize,
    p: &Planned,
    jr: &JobResult,
    baselines: &BTreeMap<(usize, usize), Vec<u64>>,
    cfg: &CampaignConfig,
    violations: &mut Vec<String>,
) {
    let mut fail = |what: String| {
        violations.push(format!("round {round} job {slot} [{}]: {what}", p.kind.label()));
    };
    let baseline = &baselines[&(p.base, mode_key(p.mode))];

    match p.kind {
        FaultKind::Clean => match &jr.result {
            Ok(out) => {
                if out.fallback.is_some() {
                    fail("clean job fell back to the oracle".to_string());
                }
                if jr.session.as_ref().is_some_and(|s| s.fallback_count() > 0) {
                    fail("clean job's session recorded a fallback".to_string());
                }
                if out_bits(&p.out) != *baseline {
                    fail("clean job output diverged from the quiet baseline".to_string());
                }
            }
            Err(e) => fail(format!("clean job failed: {e}")),
        },
        FaultKind::ForcedTrap | FaultKind::QuarantineHammer => match &jr.result {
            Ok(out) => {
                // A hammer whose siblings already tripped the breaker
                // may run pinned to the oracle (verdict Quarantined, no
                // VM attempt so no fallback record) — the breaker doing
                // its job. Every other success must carry the fallback.
                let pinned = p.kind == FaultKind::QuarantineHammer
                    && jr.action == PolicyAction::Quarantined;
                if out.fallback.is_none() && !pinned {
                    fail("forced trap produced no fallback record".to_string());
                }
                if out_bits(&p.out) != *baseline {
                    fail("oracle recovery diverged from the quiet baseline".to_string());
                }
            }
            // A hammer job may be refused once sibling hammers already
            // tripped the breaker mid-batch — that IS the breaker
            // working; anything else is a violation.
            Err(e)
                if p.kind == FaultKind::QuarantineHammer
                    && matches!(e.root(), RunError::Quarantined { .. }) => {}
            Err(e) => fail(format!("forced-trap job failed outright: {e}")),
        },
        FaultKind::CorruptBytecode => {
            // Corruption may trap (recovered by the oracle), trip a
            // structured limit, or silently alter semantics; the
            // invariants are only that the result is structured and,
            // when the oracle recovered it, bit-equal to the baseline.
            if let Ok(out) = &jr.result {
                if out.fallback.is_some() && out_bits(&p.out) != *baseline {
                    fail("oracle recovery of corrupted stream diverged".to_string());
                }
            }
        }
        FaultKind::DeadlineMiss => match &jr.result {
            Ok(_) => fail("hog job finished under its deadline (spin too short?)".to_string()),
            Err(e) => match e.root() {
                RunError::Cancelled { .. } => {
                    if jr.action != PolicyAction::Cancelled {
                        fail(format!("deadline miss verdict was {}", jr.action));
                    }
                }
                other => fail(format!(
                    "deadline miss surfaced as {other} (deadline never fired? backstop tripped)"
                )),
            },
        },
        FaultKind::WorkerPanic => match &jr.result {
            Ok(out) => {
                if out.fallback.is_none() {
                    fail("worker panic produced no fallback record".to_string());
                }
                if out_bits(&p.out) != *baseline {
                    fail("recovery after worker panic diverged from baseline".to_string());
                }
            }
            Err(e) => fail(format!("worker-panic job failed outright: {e}")),
        },
        FaultKind::OracleRetryDegrade => match &jr.result {
            Ok(_) => {
                if jr.action != PolicyAction::Degraded {
                    fail(format!("expected Degraded verdict, got {}", jr.action));
                }
                if jr.attempts.len() != 2 {
                    fail(format!("expected 2 attempts, saw {}", jr.attempts.len()));
                } else if jr.attempts[1].tier != ExecTier::TreeWalk {
                    fail("degraded rung did not reach the oracle tier".to_string());
                }
                if out_bits(&p.out) != *baseline {
                    fail("degraded run diverged from baseline".to_string());
                }
            }
            Err(e) => fail(format!("retry ladder failed outright: {e}")),
        },
        FaultKind::RetrySameRung => match &jr.result {
            Ok(_) => {
                if jr.action != PolicyAction::Retried {
                    fail(format!("expected Retried verdict, got {}", jr.action));
                }
                if out_bits(&p.out) != *baseline {
                    fail("retried run diverged from baseline".to_string());
                }
            }
            Err(e) => fail(format!("same-rung retry failed outright: {e}")),
        },
        FaultKind::QuarantineProbe => match cfg.quarantine.map(|q| q.mode) {
            Some(QuarantineMode::Refuse) => match &jr.result {
                Ok(_) => fail("probe of quarantined artifact was not refused".to_string()),
                Err(e) => {
                    if !matches!(e.root(), RunError::Quarantined { .. }) {
                        fail(format!("probe refused with wrong error: {e}"));
                    }
                    if jr.action != PolicyAction::Quarantined {
                        fail(format!("probe verdict was {}", jr.action));
                    }
                }
            },
            Some(QuarantineMode::PinOracle) => match &jr.result {
                Ok(_) => {
                    if jr.action != PolicyAction::Quarantined {
                        fail(format!("pinned probe verdict was {}", jr.action));
                    }
                    if out_bits(&p.out) != *baseline {
                        fail("oracle-pinned probe diverged from baseline".to_string());
                    }
                }
                Err(e) => fail(format!("oracle-pinned probe failed: {e}")),
            },
            None => {}
        },
    }
}
