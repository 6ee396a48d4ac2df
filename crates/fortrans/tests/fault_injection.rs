//! Fault-injection harness: seeded bytecode corruption against the
//! hardened engine.
//!
//! The contract under test (ISSUE: hardened execution):
//!
//! 1. Every corruption produced by the seeded mutator
//!    (`common/mutate.rs`) is **rejected by the static
//!    verifier** — no corrupt stream reaches the VM through the normal
//!    compile path.
//! 2. When corrupt bytecode is injected *past* the verifier (via the
//!    `FaultPlan::bytecode` hook, simulating a verifier gap or a
//!    miscompile), the engine still never lets a panic escape
//!    `Session::run`: the VM traps, the call falls back to the
//!    tree-walk oracle, and the caller sees either a clean `RunError`
//!    or a correct result carrying a [`fortrans::TierFallback`]
//!    diagnostic.
//!
//! Deliberately **no `catch_unwind` anywhere in this file**: an escaped
//! panic fails the test at the harness boundary, which is exactly the
//! property being locked.

use fortrans::bytecode::{compile_program, BUnit};
use fortrans::verify::verify_program;
use fortrans::{ArgVal, ExecMode, FaultPlan, RunLimits, Session};

#[path = "common/mutate.rs"]
mod mutate;

/// The plan that swaps `bunits` in for a session's optimized build.
fn inject(bunits: Vec<BUnit>) -> FaultPlan {
    FaultPlan { bytecode: Some((false, bunits)), ..FaultPlan::default() }
}

/// The plan whose next VM-tier run traps.
fn vm_trap() -> FaultPlan {
    FaultPlan { vm_trap: true, ..FaultPlan::default() }
}

// ---------------------------------------------------------------------
// Corpus: small programs with enough instruction variety (loops with
// literal strides, branches, calls with mixed argument kinds, OMP
// regions, allocatables, PRINT/STOP) that every mutation kind in
// `mutate::corrupt` finds a target.
// ---------------------------------------------------------------------

struct Prog {
    label: &'static str,
    src: &'static str,
    entry: &'static str,
    mk_args: fn() -> Vec<ArgVal>,
}

fn corpus() -> Vec<Prog> {
    vec![
        Prog {
            label: "arith",
            src: r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION mixy(a, b, k)
    REAL(8) :: a, b
    INTEGER :: k
    REAL(8) :: t
    t = SQRT(a**2 + b**2) + ABS(a - b)
    IF (MOD(k, 2) == 0) THEN
      t = t * 2.0D0
    ELSE
      t = t / 2.0D0
    END IF
    mixy = t + k
  END FUNCTION mixy
END MODULE m
"#,
            entry: "mixy",
            mk_args: || vec![ArgVal::F(3.0), ArgVal::F(4.0), ArgVal::I(7)],
        },
        Prog {
            label: "loops",
            src: r#"
MODULE m
CONTAINS
  SUBROUTINE sweep(a, n)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n
    INTEGER :: i, j
    DO i = 1, n
      a(i) = i * 1.5D0
    END DO
    DO i = n, 1, -2
      a(i) = a(i) + 0.25D0
    END DO
    DO i = 1, 4
      DO j = 1, 4
        a((i - 1) * 4 + j) = a((i - 1) * 4 + j) + i * j
      END DO
    END DO
  END SUBROUTINE sweep
END MODULE m
"#,
            entry: "sweep",
            mk_args: || vec![ArgVal::array_f(&[0.0; 64], 1), ArgVal::I(64)],
        },
        Prog {
            label: "calls",
            src: r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION area(w, h)
    REAL(8) :: w, h
    area = w * h
  END FUNCTION area
  SUBROUTINE bump(x, by)
    REAL(8) :: x, by
    x = x + by
  END SUBROUTINE bump
  SUBROUTINE driver(out, n)
    REAL(8), DIMENSION(1:8) :: out
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    DO i = 1, n
      CALL bump(acc, area(i * 1.0D0, 2.0D0))
      out(i) = acc
    END DO
  END SUBROUTINE driver
END MODULE m
"#,
            entry: "driver",
            mk_args: || vec![ArgVal::array_f(&[0.0; 8], 1), ArgVal::I(8)],
        },
        Prog {
            label: "omp",
            src: r#"
MODULE m
  REAL(8) :: shared_total
CONTAINS
  SUBROUTINE reduce_all(a, n, out)
    REAL(8), DIMENSION(1:128) :: a
    INTEGER :: n
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    !$OMP PARALLEL DO DEFAULT(SHARED) REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + a(i)
    END DO
    !$OMP END PARALLEL DO
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      !$OMP CRITICAL (upd)
      shared_total = shared_total + 1.0D0
      !$OMP END CRITICAL
    END DO
    !$OMP END PARALLEL DO
    out(1) = acc
  END SUBROUTINE reduce_all
END MODULE m
"#,
            entry: "reduce_all",
            mk_args: || {
                let data: Vec<f64> = (1..=128).map(|i| i as f64).collect();
                vec![ArgVal::array_f(&data, 1), ArgVal::I(128), ArgVal::array_f(&[0.0], 1)]
            },
        },
        Prog {
            label: "gloop",
            // A module-global loop variable defeats the fused loop head,
            // so the compiler emits the `Const(1); DoInit{check:false}`
            // sequence the zero-stride mutation targets.
            src: r#"
MODULE gm
  INTEGER :: gi
CONTAINS
  SUBROUTINE gfill(a, n)
    REAL(8), DIMENSION(1:16) :: a
    INTEGER :: n
    DO gi = 1, n
      a(gi) = gi * 2.0D0
    END DO
  END SUBROUTINE gfill
END MODULE gm
"#,
            entry: "gfill",
            mk_args: || vec![ArgVal::array_f(&[0.0; 16], 1), ArgVal::I(16)],
        },
        Prog {
            label: "redux",
            // A serial REAL reduction loop: compiles to a vector
            // descriptor with a reduction tail, the target of the
            // native-tier corruption kinds (`vec-red-slot` et al.).
            src: r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION dotp(a, b, n)
    REAL(8), DIMENSION(1:32) :: a
    REAL(8), DIMENSION(1:32) :: b
    INTEGER :: n
    REAL(8) :: s
    INTEGER :: i
    s = 0.0D0
    DO i = 1, n
      s = s + a(i) * b(i)
    END DO
    dotp = s
  END FUNCTION dotp
END MODULE m
"#,
            entry: "dotp",
            mk_args: || {
                let a: Vec<f64> = (1..=32).map(|i| i as f64 * 0.5).collect();
                let b: Vec<f64> = (1..=32).map(|i| 33.0 - i as f64).collect();
                vec![ArgVal::array_f(&a, 1), ArgVal::array_f(&b, 1), ArgVal::I(32)]
            },
        },
        Prog {
            label: "alloc",
            src: r#"
MODULE m
CONTAINS
  SUBROUTINE scratch(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:1) :: out
    REAL(8), DIMENSION(:), ALLOCATABLE :: w
    INTEGER :: i
    IF (n < 1) THEN
      STOP 'bad n'
    END IF
    ALLOCATE(w(1:n))
    DO i = 1, n
      w(i) = i * 0.5D0
    END DO
    out(1) = w(1) + w(n)
    PRINT *, 'scratch done', out(1)
    DEALLOCATE(w)
  END SUBROUTINE scratch
END MODULE m
"#,
            entry: "scratch",
            mk_args: || vec![ArgVal::I(16), ArgVal::array_f(&[0.0], 1)],
        },
        // Last, so the seeds of the programs above keep their mutations:
        // a nest region (unrolled inner loop, guarded invariant loads).
        Prog {
            label: "nest",
            src: r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION pick(acc, tab, idx)
    REAL(8), DIMENSION(1:5) :: acc
    REAL(8), DIMENSION(1:12) :: tab
    INTEGER, DIMENSION(1:3) :: idx
    INTEGER :: m, k
    DO m = 1, 5
      DO k = 1, 3
        acc(m) = acc(m) + tab(m + idx(k))
      END DO
    END DO
    pick = acc(1) + acc(5) * k
  END FUNCTION pick
END MODULE m
"#,
            entry: "pick",
            mk_args: || {
                let tab: Vec<f64> = (1..=12).map(|i| i as f64 * 1.5).collect();
                vec![
                    ArgVal::array_f(&[0.25; 5], 1),
                    ArgVal::array_f(&tab, 1),
                    ArgVal::array_i(&[0, 3, 7], 1),
                ]
            },
        },
        // Proven streams: a frame array of the unit's own and a module
        // array, whose bounds lowering proved (the `vec-proof` target).
        Prog {
            label: "proven",
            src: r#"
MODULE gm
  REAL(8), DIMENSION(1:16) :: g
END MODULE gm
MODULE m
  USE gm
CONTAINS
  REAL(8) FUNCTION spread(n)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:16) :: t
    DO i = 1, n
      t(i) = i * 0.5D0
      g(i) = t(i) + 1.0D0
    END DO
    spread = g(n) + t(1)
  END FUNCTION spread
END MODULE m
"#,
            entry: "spread",
            mk_args: || vec![ArgVal::I(16)],
        },
        // A running sum after a map statement (the `vec-running-sum`
        // target).
        Prog {
            label: "running",
            src: r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION scan(a, n)
    REAL(8), DIMENSION(1:16) :: a
    INTEGER :: n, i
    REAL(8), DIMENSION(1:16) :: c
    REAL(8) :: s
    s = 0.0D0
    DO i = 1, n
      c(i) = a(i) * 0.5D0
      s = s + c(i)
      a(i) = s * 2.0D0
    END DO
    scan = s + a(n)
  END FUNCTION scan
END MODULE m
"#,
            entry: "scan",
            mk_args: || {
                let a: Vec<f64> = (1..=16).map(|i| i as f64 * 0.25).collect();
                vec![ArgVal::array_f(&a, 1), ArgVal::I(16)]
            },
        },
        // Inlined leaves in a called unit, one nested in the other's
        // block (the `inline-enter` target).
        Prog {
            label: "inlined",
            src: r#"
MODULE m
  REAL(8), DIMENSION(1:8) :: w
CONTAINS
  REAL(8) FUNCTION sq(x)
    REAL(8) :: x
    sq = x * x
  END FUNCTION sq
  SUBROUTINE put(k, x)
    INTEGER :: k
    REAL(8) :: x
    REAL(8) :: t
    t = sq(x)
    w(k) = t + k
  END SUBROUTINE put
  SUBROUTINE spread(n)
    INTEGER :: n, i
    DO i = 1, n
      CALL put(i, i * 0.5D0)
    END DO
  END SUBROUTINE spread
  REAL(8) FUNCTION fill(n)
    INTEGER :: n
    CALL spread(n)
    fill = w(1) + w(n)
  END FUNCTION fill
END MODULE m
"#,
            entry: "fill",
            mk_args: || vec![ArgVal::I(8)],
        },
        // One unit, so every seed that draws it can find the span: the
        // flux and accumulation loops fuse around the leaf call between
        // them, as FUN3D's edge loops do.
        Prog {
            label: "spans",
            src: r#"
MODULE m
  REAL(8), DIMENSION(1:5) :: acc
CONTAINS
  SUBROUTINE edge(q, n)
    REAL(8), DIMENSION(1:5) :: q
    INTEGER :: n
    REAL(8), DIMENSION(1:5) :: flux
    INTEGER :: i, j, kk
    kk = 1
    DO i = 1, 5
      flux(i) = q(i) * 0.5D0 + n
    END DO
    DO j = 1, n
      IF (j * 2 > n) THEN
        kk = MAX(kk, j)
      END IF
    END DO
    DO i = 1, 5
      acc(i) = acc(i) + flux(i) * kk
    END DO
  END SUBROUTINE edge
END MODULE m
"#,
            entry: "edge",
            mk_args: || vec![ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(4)],
        },
    ]
}

// ---------------------------------------------------------------------
// 1. Verifier front line: every seeded corruption is rejected.
// ---------------------------------------------------------------------

/// ≥ 200 seeded corruptions across the corpus (both bytecode variants),
/// each rejected by the static verifier. Fixed seeds: fully
/// deterministic, reproducible by seed on failure.
#[test]
fn seeded_corruptions_are_all_rejected_by_the_verifier() {
    let mut applied = 0usize;
    let mut by_kind: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for (pi, p) in corpus().iter().enumerate() {
        let engine =
            Session::compile(&[p.src]).unwrap_or_else(|e| panic!("{} compiles: {e}", p.label));
        for traced in [false, true] {
            // What the session lowers: the optimized build inlines leaves.
            let prog = engine.artifact().lowered_program(traced);
            let base = compile_program(prog, traced);
            for round in 0..40u64 {
                let seed = ((pi as u64) << 40) | (u64::from(traced) << 32) | round;
                let mut mutated = base.clone();
                let Some(m) = mutate::corrupt(&mut mutated, seed) else {
                    continue;
                };
                applied += 1;
                *by_kind.entry(m.kind).or_default() += 1;
                let v = verify_program(prog, &mutated);
                assert!(
                    v.is_err(),
                    "{} seed {seed:#x}: corruption escaped the verifier: {m}",
                    p.label
                );
            }
        }
    }
    assert!(applied >= 200, "harness under-exercised: only {applied} corruptions applied");
    // Diversity guard: the rotation must exercise every mutation kind.
    for kind in [
        "retargeted-jump",
        "slot-out-of-range",
        "opcode-flip",
        "truncated-stream",
        "zero-stride",
        "call-arity",
        "call-bind",
        "vec-op-oob",
        "vec-unbalance",
        "vec-iter-cost",
        "vec-access-slot",
        "vec-red-slot",
        "vec-iter-ledger",
        "vec-proof",
        "sub-operand",
        "vec-running-sum",
        "inline-enter",
        "span",
        "scalar-glue",
    ] {
        assert!(by_kind.contains_key(kind), "mutation kind {kind} never applied: {by_kind:?}");
    }
}

// ---------------------------------------------------------------------
// 2. Behind the verifier: injected corruption must trap, never escape.
// ---------------------------------------------------------------------

/// Injects corrupt bytecode *past* the verifier and runs it. The engine
/// boundary must hold: each run returns `Ok` or `Err` — any panic
/// escaping `Session::run` fails this test (there is no `catch_unwind`
/// here). A step budget bounds corruptions that turn loops infinite
/// (e.g. a zeroed stride).
#[test]
fn injected_corruption_never_panics_across_the_engine_boundary() {
    let mut ran = 0usize;
    let mut diagnosed = 0u64;
    let mut counted = 0u64;
    for (pi, p) in corpus().iter().enumerate() {
        let mut engine =
            Session::compile(&[p.src]).unwrap_or_else(|e| panic!("{} compiles: {e}", p.label));
        engine.set_limits(RunLimits { max_steps: Some(2_000_000), ..RunLimits::default() });
        let base = compile_program(engine.artifact().lowered_program(false), false);
        for round in 0..24u64 {
            let seed = ((pi as u64) << 32) | round;
            let mut mutated = base.clone();
            let Some(m) = mutate::corrupt(&mut mutated, seed) else {
                continue;
            };
            engine.debug_faults(inject(mutated));
            // The lock: this call must return, not unwind. Wrong results
            // are acceptable here (the verifier, tested above, is the
            // layer that prevents them in the real pipeline).
            let r = engine.run(p.entry, &(p.mk_args)(), ExecMode::Serial);
            engine.debug_faults(inject(base.clone()));
            ran += 1;
            if let Ok(out) = r {
                if let Some(fb) = out.fallback {
                    assert_eq!(fb.unit, p.entry, "fallback names the entry unit ({m})");
                    assert!(!fb.what.is_empty(), "fallback carries the trap description");
                    diagnosed += 1;
                }
            }
        }
        counted += engine.fallback_count();
    }
    assert!(ran >= 100, "harness under-exercised: only {ran} injected runs");
    assert!(diagnosed >= 1, "no injected corruption ever exercised the trap-and-fallback path");
    // Every fallback reported in a RunOutcome is also counted by the
    // engine; traps on runs that ultimately errored may add more.
    assert!(counted >= diagnosed, "fallback_count ({counted}) < diagnostics seen ({diagnosed})");
}

/// Native-tier contract under corruption: a vector descriptor corrupted
/// *behind* the verifier is refused at promotion (the JIT re-verifies
/// every descriptor before emitting machine code) or deopts to the
/// scalar head — machine code is never compiled from a corrupt
/// descriptor, the run completes with the scalar loop's (correct)
/// answer, no trap-and-fallback fires, and no panic escapes. Eager
/// promotion removes the warm-up so every seed exercises the decision.
#[test]
fn corrupt_vector_descriptors_are_refused_at_promotion_or_deopt() {
    let mut vec_hits = 0usize;
    let mut by_kind: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for (pi, p) in corpus().iter().enumerate() {
        if !matches!(p.label, "loops" | "redux" | "nest") {
            continue; // only the vector-bearing programs have descriptors
        }
        for round in 0..48u64 {
            let seed = ((pi as u64) << 32) | round;
            // Fresh engine per seed: the shared native cache memoizes
            // promotion verdicts per (unit, descriptor) key, and a prior
            // seed's verdict must not mask this seed's corruption.
            let engine =
                Session::compile(&[p.src]).unwrap_or_else(|e| panic!("{} compiles: {e}", p.label));
            let clean = engine
                .run(p.entry, &(p.mk_args)(), ExecMode::Serial)
                .expect("clean run succeeds")
                .result;
            let engine = Session::compile(&[p.src]).unwrap();
            let mut mutated = compile_program(engine.artifact().lowered_program(false), false);
            let Some(m) = mutate::corrupt(&mut mutated, seed) else { continue };
            // The descriptor-level kinds: these must deopt cleanly. The
            // op-level kinds (`vec-op-oob`, `vec-unbalance`) are still
            // refused at promotion but may trap on the VM vector tier,
            // which the never-panics test above already locks.
            if !matches!(m.kind, "vec-iter-cost" | "vec-access-slot" | "vec-red-slot") {
                continue;
            }
            vec_hits += 1;
            *by_kind.entry(m.kind).or_default() += 1;
            engine.debug_faults(inject(mutated));
            engine.set_native_eager(true);
            let out = engine
                .run(p.entry, &(p.mk_args)(), ExecMode::Serial)
                .unwrap_or_else(|e| panic!("{} seed {seed:#x} ({m}): corrupt descriptor must \
                     deopt to the scalar loop, got error: {e}", p.label));
            assert!(
                out.fallback.is_none(),
                "{} seed {seed:#x} ({m}): descriptor corruption must deopt, not trap",
                p.label
            );
            assert_eq!(
                out.result.as_ref().map(|v| format!("{v:?}")),
                clean.as_ref().map(|v| format!("{v:?}")),
                "{} seed {seed:#x} ({m}): scalar deopt diverged from the clean run",
                p.label
            );
            if fortrans::jit::available() {
                assert_eq!(
                    engine.native_entry_count(),
                    0,
                    "{} seed {seed:#x} ({m}): native code ran from a corrupt descriptor",
                    p.label
                );
            }
        }
    }
    assert!(vec_hits >= 20, "harness under-exercised: only {vec_hits} descriptor corruptions");
    for kind in ["vec-iter-cost", "vec-access-slot", "vec-red-slot"] {
        assert!(by_kind.contains_key(kind), "kind {kind} never applied: {by_kind:?}");
    }
}

// ---------------------------------------------------------------------
// 3. Trap-and-fallback: a trapped VM run returns the oracle's answer.
// ---------------------------------------------------------------------

const SCALE_SRC: &str = r#"
MODULE demo
CONTAINS
  SUBROUTINE scale(a, n, f)
    REAL(8), DIMENSION(1:4) :: a
    INTEGER :: n
    REAL(8) :: f
    INTEGER :: i
    DO i = 1, n
      a(i) = a(i) * f
    END DO
  END SUBROUTINE scale
END MODULE demo
"#;

/// A forced VM trap is transparently recovered: the caller gets the
/// tree-walk oracle's (correct) result plus a `TierFallback` diagnostic,
/// and the engine's fallback counter ticks exactly once.
#[test]
fn forced_vm_trap_falls_back_to_the_oracle_with_the_correct_result() {
    let engine = Session::compile(&[SCALE_SRC]).unwrap();
    engine.debug_faults(vm_trap());
    let a = ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0], 1);
    let out = engine
        .run("scale", &[a.clone(), ArgVal::I(4), ArgVal::F(3.0)], ExecMode::Serial)
        .expect("trapped run recovers via the oracle");
    let fb = out.fallback.expect("fallback diagnostic is reported");
    assert_eq!(fb.unit, "scale");
    assert!(fb.what.contains("forced VM trap"), "diagnostic carries the payload: {}", fb.what);
    assert_eq!(engine.fallback_count(), 1);
    for (k, want) in [(0usize, 3.0f64), (1, 6.0), (2, 9.0), (3, 12.0)] {
        assert_eq!(a.handle().unwrap().get_f(k), want, "oracle result at {k}");
    }
    // The hook is one-shot: the next run stays on the VM tier.
    let out2 = engine
        .run("scale", &[a.clone(), ArgVal::I(4), ArgVal::F(1.0)], ExecMode::Serial)
        .unwrap();
    assert!(out2.fallback.is_none());
    assert_eq!(engine.fallback_count(), 1);
}

/// Same recovery through real corruption: bytecode whose first
/// instruction underflows the operand stack panics the VM; the engine
/// traps it and the oracle (which interprets the original program, not
/// the corrupt bytecode) still produces the right answer.
#[test]
fn trapped_corruption_recovers_the_oracle_answer() {
    use fortrans::bytecode::BInstr;
    let engine = Session::compile(&[SCALE_SRC]).unwrap();
    let lowered = engine.artifact().lowered_program(false);
    let mut bad = compile_program(lowered, false);
    let u = (0..bad.len())
        .find(|&u| lowered.units[u].name == "scale")
        .expect("entry unit present");
    // Operand-stack underflow at pc 0 — the verifier would reject this
    // stream (checked below); injection bypasses it on purpose.
    bad[u].code[0] = BInstr::AddI;
    assert!(verify_program(lowered, &bad).is_err(), "verifier rejects the stream");
    engine.debug_faults(inject(bad));
    let a = ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0], 1);
    let out = engine
        .run("scale", &[a.clone(), ArgVal::I(4), ArgVal::F(5.0)], ExecMode::Serial)
        .expect("trapped run recovers via the oracle");
    assert!(out.fallback.is_some(), "corruption surfaced as a fallback diagnostic");
    assert_eq!(engine.fallback_count(), 1);
    for (k, want) in [(0usize, 5.0f64), (1, 10.0), (2, 15.0), (3, 20.0)] {
        assert_eq!(a.handle().unwrap().get_f(k), want, "oracle result at {k}");
    }
}

// ---------------------------------------------------------------------
// 4. Batched execution: faults are per-job, the shared pool self-heals.
// ---------------------------------------------------------------------

/// A batch mixing clean jobs with a forced-trap job and a
/// step-starved job, across all three modes on one shared artifact and
/// pool set. The locks: sibling jobs stay bit-identical to an all-clean
/// baseline batch, each fault is confined to its own job's session, the
/// shared pools contain no panics, and a follow-up batch on the same
/// queue runs fully clean (nothing was poisoned).
#[test]
fn batched_faults_do_not_poison_sibling_jobs_or_the_pool() {
    use fortrans::{EngineService, Job, RunError};

    let service = EngineService::new(4);
    let artifact = service.compile(&[SCALE_SRC]).expect("compiles");
    let modes = [
        ExecMode::Serial,
        ExecMode::Simulated { threads: 4 },
        ExecMode::Parallel { threads: 2 },
    ];
    let mk = || {
        let a = ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0], 1);
        (a.clone(), vec![a, ArgVal::I(4), ArgVal::F(3.0)])
    };
    let expect = [3.0f64, 6.0, 9.0, 12.0];

    // Baseline: all-clean batch, one job per mode.
    let mut queue = service.queue(4);
    let mut baseline_arrs = Vec::new();
    for mode in modes {
        let (arr, args) = mk();
        queue.submit(&artifact, Job::new("scale", args).mode(mode));
        baseline_arrs.push(arr);
    }
    for jr in queue.run_batch_report().results {
        jr.result.expect("baseline job succeeds");
    }
    let baseline: Vec<Vec<u64>> = baseline_arrs
        .iter()
        .map(|a| {
            let h = a.handle().unwrap();
            (0..h.len()).map(|k| h.get_bits(k)).collect()
        })
        .collect();
    for (m, bits) in baseline.iter().enumerate() {
        for (k, &b) in bits.iter().enumerate() {
            assert_eq!(f64::from_bits(b), expect[k], "baseline mode {m} elem {k}");
        }
    }

    // Mixed batch: per mode, a clean job, a forced-trap job, and a
    // starved job — interleaved in one dispatch.
    let mut clean_arrs = Vec::new(); // (mode index, array)
    for (mi, mode) in modes.iter().enumerate() {
        let (arr, args) = mk();
        queue.submit(&artifact, Job::new("scale", args).mode(*mode));
        clean_arrs.push((mi, arr));
        let (_, args) = mk();
        queue.submit(&artifact, Job::new("scale", args).mode(*mode).debug_faults(vm_trap()));
        let (_, args) = mk();
        queue.submit(
            &artifact,
            Job::new("scale", args)
                .mode(*mode)
                .limits(RunLimits { max_steps: Some(2), ..RunLimits::default() }),
        );
    }
    let results = queue.run_batch_report().results;
    assert_eq!(results.len(), 9);
    for (j, jr) in results.iter().enumerate() {
        match j % 3 {
            0 => {
                // Clean sibling: success, no fallback, counter untouched.
                let out = jr.result.as_ref().expect("clean sibling succeeds");
                assert!(out.fallback.is_none(), "job {j}: no bleed from faulted siblings");
                assert_eq!(jr.session.as_ref().expect("session").fallback_count(), 0, "job {j}");
            }
            1 => {
                // Forced trap: recovered via the oracle, diagnosed, and
                // counted on this job's session only.
                let out = jr.result.as_ref().expect("trapped job recovers via the oracle");
                let fb = out.fallback.as_ref().expect("trap diagnostic reported");
                assert_eq!(fb.unit, "scale");
                assert_eq!(jr.session.as_ref().expect("session").fallback_count(), 1, "job {j}");
            }
            _ => {
                // Starved: a clean Limit error, not a trap, no fallback.
                let err = jr.result.as_ref().expect_err("2 steps cannot finish");
                assert!(
                    matches!(err.root(), RunError::Limit { .. }),
                    "job {j} fails with Limit, got: {err}"
                );
                assert_eq!(jr.session.as_ref().expect("session").fallback_count(), 0, "job {j}");
            }
        }
    }
    // Sibling outputs are bit-identical to the all-clean baseline.
    for (mi, arr) in &clean_arrs {
        let h = arr.handle().unwrap();
        let bits: Vec<u64> = (0..h.len()).map(|k| h.get_bits(k)).collect();
        assert_eq!(&bits, &baseline[*mi], "mode {mi}: sibling diverged from clean baseline");
    }
    // Faults were contained at the engine boundary, not in the pools.
    assert_eq!(service.pools().contained_panics(), 0);

    // Self-heal probe: the next batch on the same queue is fully clean.
    for mode in modes {
        let (_, args) = mk();
        queue.submit(&artifact, Job::new("scale", args).mode(mode));
    }
    for (j, jr) in queue.run_batch_report().results.into_iter().enumerate() {
        let out = jr.result.unwrap_or_else(|e| panic!("post-fault batch job {j} failed: {e}"));
        assert!(out.fallback.is_none(), "job {j}: pool left unhealthy");
    }
    assert_eq!(service.pools().contained_panics(), 0);
}

/// The compile path itself refuses corrupt bytecode: mutating what
/// `compile_program` produced and re-verifying yields a
/// `CompileError::Verify` whose display names the unit and pc.
#[test]
fn verify_error_display_names_unit_and_pc() {
    let engine = Session::compile(&[SCALE_SRC]).unwrap();
    let lowered = engine.artifact().lowered_program(false);
    let mut bad = compile_program(lowered, false);
    let m = mutate::corrupt(&mut bad, 1).expect("mutator finds a target");
    let err = verify_program(lowered, &bad).expect_err("rejected");
    let s = err.to_string();
    assert!(
        s.contains("bytecode verification failed in `"),
        "display format: {s} (mutation: {m})"
    );
    assert!(s.contains("at pc "), "display carries the pc: {s}");
}
