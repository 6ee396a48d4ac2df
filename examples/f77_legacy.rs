//! Legacy ingestion end to end: a multi-file, COMMON-heavy fixed-form
//! F77 program through the whole stack.
//!
//! 1. Three classic punched-card sources (main + SUBROUTINE + FUNCTION,
//!    coupled only through COMMON blocks) compile as one program via
//!    [`fortrans::ArtifactCache`] — the second request is a cache hit.
//! 2. The program runs on both execution tiers (bytecode VM and the
//!    tree-walking oracle); printed output and every COMMON bit pattern
//!    must be identical.
//! 3. The parsed program lifts into `glaf_ir` through [`glaf::ingest`]
//!    and the auto-parallelization back-end explains, loop by loop, what
//!    it would parallelize — a [`glaf_autopar::DecisionLog`] over
//!    *ingested* legacy code, not hand-built GPI programs.
//!
//! Run with: `cargo run --release --example f77_legacy`

use glaf_repro::fortrans::{self, ArtifactCache, ExecMode, ExecTier, Session};

/// Main program: DATA-initialized control block, sweep driver, report.
const MAIN_F: &str = "\
\n      PROGRAM HEAT
      COMMON /FIELD/ U(64), V(64), RESID
      COMMON /CTRL/ NITER, RELAXW
      DATA NITER /8/, RELAXW /1.8D0/
C     Initial condition: a spike in the middle of the rod.
      DO 10 I = 1, 64
      U(I) = 0.0D0
      V(I) = 0.0D0
   10 CONTINUE
      U(32) = 100.0D0
      DO 20 K = 1, NITER
      CALL SWEEP
   20 CONTINUE
      PRINT *, 'RESID', RESID
      PRINT *, 'ENERGY', ENORM(64)
      END
";

/// Jacobi-style sweep over the COMMON field, OMP-annotated.
const SWEEP_F: &str = "\
\n      SUBROUTINE SWEEP
      COMMON /FIELD/ U(64), V(64), RESID
      COMMON /CTRL/ NITER, RELAXW
C$OMP PARALLEL DO PRIVATE(I)
      DO 10 I = 2, 63
      V(I) = U(I) + 0.25D0 * (U(I-1) - 2.0D0*U(I) + U(I+1))
   10 CONTINUE
      RESID = 0.0D0
      DO 20 I = 2, 63
      RESID = RESID + ABS(V(I) - U(I))
      U(I) = V(I)
   20 CONTINUE
      END
";

/// Energy norm of the field; IMPLICIT typing (E -> REAL) throughout.
const NORM_F: &str = "\
\n      FUNCTION ENORM(N)
      COMMON /FIELD/ U(64), V(64), RESID
      ENORM = 0.0D0
      DO 10 I = 1, N
      ENORM = ENORM + U(I) * U(I)
   10 CONTINUE
      ENORM = SQRT(ENORM)
      END
";

fn main() {
    let sources = [MAIN_F, SWEEP_F, NORM_F];

    // 1. Compile through the artifact cache; re-requesting the same
    //    multi-file set must hit, not recompile.
    let cache = ArtifactCache::new(8);
    let artifact = cache.get_or_compile(&sources).expect("legacy sources compile");
    let again = cache.get_or_compile(&sources).expect("second lookup");
    assert!(std::sync::Arc::ptr_eq(&artifact, &again));
    println!(
        "compiled {} fixed-form files as one program (cache: {} hit / {} miss)",
        sources.len(),
        cache.hits(),
        cache.misses()
    );

    // 2. Run on both tiers and compare everything observable.
    let mut outputs = Vec::new();
    for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
        let engine = Session::solo(artifact.clone());
        let out = engine
            .run_tiered("heat", &[], ExecMode::Serial, tier)
            .expect("legacy program runs");
        print!("{:?} says:\n{}", tier, out.printed);
        let mut names = engine.global_names();
        names.sort();
        let mut state: Vec<(String, String)> = Vec::new();
        for n in names {
            if let Some(v) = engine.global_scalar(&n) {
                state.push((n, format!("{v:?}")));
            } else if let Some(h) = engine.global_array(&n) {
                let bits: Vec<u64> = (0..h.len()).map(|k| h.get_bits(k)).collect();
                state.push((n, format!("{bits:?}")));
            }
        }
        outputs.push((out.printed, state));
    }
    assert_eq!(outputs[0], outputs[1], "VM and oracle tiers diverged");
    println!("VM and tree-walk oracle agree bit-for-bit on every COMMON slot\n");

    // 3. Lift the parsed program into glaf_ir and let autopar explain
    //    its decisions over the ingested loops.
    let set = fortrans::ProgramSet::from_sources(&sources).expect("parses");
    let report = glaf::ingest::lift_ast(&set.ast, "heat77");
    println!(
        "lifted {} DO nest(s) into glaf_ir; {} construct(s) outside the GLAF subset",
        report.lifted_loops,
        report.skipped.len()
    );
    for note in &report.skipped {
        println!("  note: {note}");
    }
    let (_, log) = glaf_autopar::analyze_program_with_log(&report.program);
    println!("\n== autopar decision log over the ingested program ==");
    println!("{}", log.render());
}
