//! The FUN3D Jacobian-reconstruction case study end-to-end (paper §4.2):
//! the five-function GLAF decomposition, the §4.2.1 RMS acceptance check,
//! and the Fig. 7 parallelization/no-reallocation option space.
//!
//! Run with: `cargo run --release --example fun3d_jacobian [ncells]`

use std::sync::Arc;

use glaf_repro::fun3d::mesh::Mesh;
use glaf_repro::fun3d::native::{native_jacobian, native_jacobian_parallel};
use glaf_repro::fortrans::bytecode::{compile_program, BInstr};
use glaf_repro::fortrans::rir::rewrite;
use glaf_repro::fortrans::verify::verify_program;
use glaf_repro::fortrans::{sema, ArgVal, ExecMode, ProgramSet, Session};
use glaf_repro::fun3d::variants::{
    build_artifact, run_real, run_simulated, variant_sources as fun3d_sources,
    Fun3dConfig, Fun3dVariant,
};
use glaf_repro::glaf::{compare_slices, rms};
use glaf_repro::sarb::variants::{variant_sources as sarb_sources, SarbVariant};
use glaf_repro::simcpu::MachineModel;

fn main() {
    let ncell: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    println!("mesh: {ncell} cells, {} edges", ncell * 6);

    // 1. Reference outputs: engine original == Rust oracle, bitwise.
    let mesh = Mesh::build(ncell as usize);
    let reference = native_jacobian(&mesh);
    let engine_jac = run_real(Fun3dVariant::OriginalSerial, ncell, 1);
    assert_eq!(reference, engine_jac, "oracle and engine agree bitwise");
    println!(
        "reference RMS of the output array: {:.6e} (the §4.2.1 acceptance datum)",
        rms(&reference)
    );

    // 2. §4.2.1: every parallel configuration must reproduce the outputs
    //    at 1e-7 RMS.
    println!("\n=== RMS acceptance across configurations (4 real threads) ===");
    for cfg in [
        Fun3dConfig::default(),
        Fun3dConfig::best(),
        Fun3dConfig { par_cell_loop: true, no_realloc: true, ..Default::default() },
        Fun3dConfig {
            par_edgejp: true,
            par_cell_loop: true,
            par_edge_loop: true,
            par_ioff_search: true,
            no_realloc: true,
            fuse: false,
        },
    ] {
        let jac = run_real(Fun3dVariant::Glaf(cfg), ncell, 4);
        let r = compare_slices(&reference, &jac);
        println!(
            "  {:36} rms diff {:.2e}  -> {}",
            cfg.tag(),
            r.rms_diff,
            if r.passes_rms(1e-7) { "PASS" } else { "FAIL" }
        );
    }
    let parallel_jac = native_jacobian_parallel(&mesh);
    let r = compare_slices(&reference, &parallel_jac);
    println!("  {:36} rms diff {:.2e}  -> native parallel oracle", "omprt fork-join fold", r.rms_diff);

    // 3. Fig. 7 highlights on the simulated dual-Xeon.
    println!("\n=== Fig. 7 highlights (simulated, 16 threads) ===");
    let m = MachineModel::xeon_e5_2637v4_dual_like();
    let base = run_simulated(Fun3dVariant::OriginalSerial, ncell, 16, &m);
    let show = |label: &str, v: Fun3dVariant| {
        let r = run_simulated(v, ncell, 16, &m);
        println!(
            "  {:40} {:>9.3}x   (alloc {:.1e} cyc, fork {:.1e} cyc)",
            label,
            base.report.total_cycles / r.report.total_cycles,
            r.report.alloc_cycles,
            r.report.fork_join_cycles
        );
    };
    show("manual parallel (paper 3.85x)", Fun3dVariant::ManualParallel);
    show("GLAF EdgeJP + noRealloc (paper best 1.67x)", Fun3dVariant::Glaf(Fun3dConfig::best()));
    show(
        "GLAF EdgeJP + realloc (realloc storm)",
        Fun3dVariant::Glaf(Fun3dConfig { par_edgejp: true, ..Default::default() }),
    );
    show(
        "GLAF fully nested + realloc (paper ~1/128x)",
        Fun3dVariant::Glaf(Fun3dConfig {
            par_edgejp: true,
            par_cell_loop: true,
            par_edge_loop: true,
            par_ioff_search: true,
            no_realloc: false,
            fuse: false,
        }),
    );

    // 4. Where the fused configuration leaves the scalar rung: the loops
    //    compiled to `VecLoop` regions, what their entry still checks
    //    (streams lowering did not prove, alias pairs), how many of
    //    their temporaries became scalars instead of streams, why each
    //    other DO was not a region, and which loops fused into spans.
    println!("\n=== vector regions, GLAF serial fused ===");
    let fused = build_artifact(Fun3dVariant::Glaf(Fun3dConfig { fuse: true, ..Default::default() }));
    for r in fused.vector_report() {
        println!(
            "  {:12} line {:>3}  region, {} statements, streams {} proven / {} checked, \
             {} alias pairs, {} contracted",
            r.unit, r.line, r.stmts, r.proven, r.checked, r.alias_pairs, r.contracted
        );
    }
    for r in fused.vector_refusals() {
        println!("  {:12} line {:>3}  scalar: {:?}", r.unit, r.line, r.why);
    }
    // Same-range loops fused into spans (DESIGN §6, "Fused spans"): the
    // DO lines of the loops each span fuses, and how many statements the
    // one region that runs them all in their place holds. Its regions
    // are among those above: the fused region at the first loop's line,
    // then the original loops' own, which the span falls back to.
    let lowered = fused.lowered_program(false);
    for bu in fused.bytecode(false).iter() {
        for d in &bu.spans {
            let lines: Vec<String> = d
                .loops
                .iter()
                .filter_map(|&(start, _)| bu.line_for_pc(start))
                .map(|l| l.to_string())
                .collect();
            let BInstr::VecLoop { desc, .. } = bu.code[d.fused as usize] else { continue };
            println!(
                "  {:12} lines {}  span, one region of {} statements",
                lowered.units[bu.unit as usize].name,
                lines.join(", "),
                bu.vecs[desc as usize].stmts.len()
            );
        }
    }
    // Which rung ran those regions over one `zero_jac` + `edgejp` op
    // after a warm-up op, on the vector rung alone and with eager native
    // promotion: the benchmark's `vm.vector_entries.fun3d` and
    // `jit.*.fun3d` rows, which it measures at 3000 cells.
    println!("\n=== rung entries per op, GLAF serial fused ===");
    for native in [false, true] {
        let session = Session::solo(Arc::clone(&fused));
        session.run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial).expect("mesh builds");
        session.set_native_enabled(native);
        session.set_native_eager(native);
        let op = || {
            for unit in ["zero_jac", "edgejp"] {
                session.run(unit, &[], ExecMode::Serial).expect("runs");
            }
        };
        op();
        let count = |s: &Session| {
            (s.vector_entry_count(), s.native_entry_count(), s.native_deopt_count())
        };
        let before = count(&session);
        op();
        let after = count(&session);
        println!(
            "  {:18} {:>7} vector, {:>7} native entries, {} deopts, {} regions compiled",
            if native { "native, eager" } else { "vector rung only" },
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            fused.native_cache().compiled_count(),
        );
    }

    // 5. The same noRealloc option on this engine's own clock. The
    //    optimized build already makes the reallocated temporaries
    //    frame-fixed arrays (scoped temporaries, DESIGN §6), while the
    //    SAVE'd ones of noRealloc still pay `ALLOCATED` and a global
    //    handle per access, so noRealloc is the slower of the two here
    //    (EXPERIMENTS.md, "FUN3D: scoped temporaries").
    println!("\n=== noRealloc, wall clock on the VM (Serial, best of 12) ===");
    for no_realloc in [false, true] {
        let cfg = Fun3dConfig { fuse: true, no_realloc, ..Default::default() };
        let session = Session::solo(build_artifact(Fun3dVariant::Glaf(cfg)));
        session.run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial).expect("mesh builds");
        let best = (0..12)
            .map(|_| {
                let t = std::time::Instant::now();
                for unit in ["zero_jac", "edgejp"] {
                    session.run(unit, &[], ExecMode::Serial).expect("runs");
                }
                t.elapsed()
            })
            .min()
            .expect("twelve runs");
        println!("  {:36} {:>9.2} ms", cfg.tag(), best.as_secs_f64() * 1e3);
    }

    // 6. What one region entry costs on each rung: a leaf unit whose
    //    only loop is an `edge_loop`-shaped five-lane region over two
    //    frame temporaries and two module arrays, called 100 k times.
    //    The rungs differ only in how that region runs, so the spread
    //    between them is the entry and its five lanes. The leaf reads
    //    both temporaries after the loop, so they stay arrays (not
    //    contracted) and the region keeps its five streams.
    println!("\n=== one-region leaf, ns per call (Serial, best of 5 x 100k calls) ===");
    let rungs = [("scalar", false, false), ("vector", true, false), ("native", true, true)];
    for (rung, vector, native) in rungs {
        let session = Session::compile(&[ENTRY_PROBE]).expect("probe compiles");
        session.set_vector_enabled(vector);
        session.set_native_enabled(native);
        session.set_native_eager(native);
        let calls = 100_000;
        let run = || session.run("drive", &[ArgVal::I(calls)], ExecMode::Serial).expect("runs");
        run();
        let best = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                run();
                t.elapsed()
            })
            .min()
            .expect("five runs");
        println!(
            "  {rung:7} {:>7.1} ns  ({} vector, {} native entries in all)",
            best.as_secs_f64() * 1e9 / calls as f64,
            session.vector_entry_count(),
            session.native_entry_count()
        );
    }

    // 7. What a call costs, and what inlining a leaf saves: three
    //    callees, each run inlined (a leaf the optimized build inlines)
    //    and as a real call (the same body with one SAVE'd local, which
    //    keeps it a call). The driver loop is the same around both, so
    //    the difference is the call: depth check, frame reset, argument
    //    copies and the callee's dispatch.
    println!("\n=== per-call probe, ns per call (Serial, vector rung, best of 5 x 100k calls) ===");
    let src = call_probe_source();
    let session = Session::compile(&[&src]).expect("call probe compiles");
    session.run("fill", &[], ExecMode::Serial).expect("fill runs");
    // The leaf loops call nothing; each SAVE'd twin's loop keeps its call.
    let calls_in = |unit: &str| {
        let u = session.program().unit_id(unit).expect("probe unit");
        let bu = &session.artifact().bytecode(false)[u];
        bu.code.iter().filter(|i| matches!(i, BInstr::Call { .. })).count()
    };
    for callee in ["empty", "inc", "search"] {
        let counts = (calls_in(&format!("loop_{callee}_leaf")), calls_in(&format!("loop_{callee}_call")));
        assert_eq!(counts, (0, 1), "{callee}: calls left in the leaf and the SAVE'd loop");
    }
    let calls = 100_000;
    let time = |unit: &str| {
        let run = || session.run(unit, &[ArgVal::I(calls)], ExecMode::Serial).expect("runs");
        run();
        let best = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                run();
                t.elapsed()
            })
            .min()
            .expect("five runs");
        best.as_secs_f64() * 1e9 / calls as f64
    };
    println!("  {:22} {:>9} {:>9} {:>9}", "callee", "inlined", "called", "saved");
    for (callee, label) in [
        ("empty", "empty subroutine"),
        ("inc", "INTEGER function(i)"),
        ("search", "ioff_search body"),
    ] {
        let inlined = time(&format!("drive_{callee}_leaf"));
        let called = time(&format!("drive_{callee}_call"));
        println!("  {label:22} {inlined:>9.1} {called:>9.1} {:>9.1}", called - inlined);
    }

    // 8. What the optimized build's compile stages cost: the four
    //    program rewrites `rewrite::optimized` chains, lowering the
    //    rewritten program and verifying what it lowered to, each the
    //    median of 25 compiles, and how many instructions the build
    //    holds. The benchmark's `fun3d_warm` runs the fused FUN3D set,
    //    `sarb_warm` the SARB GLAF-serial one.
    println!("\n=== compile stages, us per compile (median of 25) ===");
    println!(
        "  {:20} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7}",
        "source set", "scope", "inline", "fuse", "contract", "lower", "verify", "instrs"
    );
    let fun3d = |cfg| fun3d_sources(Fun3dVariant::Glaf(cfg));
    let sets = [
        ("FUN3D fused", fun3d(Fun3dConfig { fuse: true, ..Default::default() })),
        ("FUN3D default", fun3d(Fun3dConfig::default())),
        ("SARB GLAF serial", sarb_sources(SarbVariant::GlafSerial)),
    ];
    for (label, sources) in sets {
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let ast = ProgramSet::from_sources(&refs).expect("source set parses").ast;
        let prog = sema::resolve(&ast).expect("source set resolves");
        let mut times = [(); 6].map(|_| Vec::new());
        let mut instrs = 0;
        for _ in 0..25 {
            let mut lap = std::time::Instant::now();
            let mut stage = |k: usize| {
                times[k].push(lap.elapsed().as_secs_f64() * 1e6);
                lap = std::time::Instant::now();
            };
            let scoped = rewrite::scope_temporaries(&prog);
            stage(0);
            let inlined = rewrite::inline_leaves(&scoped);
            stage(1);
            let fused = rewrite::fuse_spans(&inlined);
            stage(2);
            let lowered = rewrite::contract_temporaries(&fused);
            stage(3);
            let bunits = compile_program(&lowered, false);
            stage(4);
            verify_program(&lowered, &bunits).expect("the optimized build verifies");
            stage(5);
            instrs = bunits.iter().map(|bu| bu.code.len()).sum::<usize>();
        }
        let median = |t: &mut Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let [s, i, f, c, l, v] = times.each_mut().map(median);
        println!("  {label:20} {s:>7.0} {i:>7.0} {f:>7.0} {c:>8.0} {l:>7.0} {v:>7.0} {instrs:>7}");
    }
}

/// Section 7's callees, each twice: as a leaf the optimized build
/// inlines, and as the same body made a real call by one SAVE'd local.
/// The bodies are an empty subroutine, a one-argument INTEGER function
/// and `ioff_search`'s search. Each `drive_*` entry calls a `loop_*`
/// unit that makes the calls: only a unit that is called inlines.
fn call_probe_source() -> String {
    let mut units = String::new();
    for (suffix, save) in [("leaf", ""), ("call", "\n    INTEGER, SAVE :: pin")] {
        units += &format!(
            r#"
  SUBROUTINE empty_{suffix}(){save}
  END SUBROUTINE empty_{suffix}
  INTEGER FUNCTION inc_{suffix}(i)
    INTEGER :: i{save}
    inc_{suffix} = i + 1
  END FUNCTION inc_{suffix}
  INTEGER FUNCTION search_{suffix}(n1v, n2v)
    INTEGER :: n1v, n2v, kfound, j{save}
    kfound = 1
    DO j = 1, 8
      IF (j <= nnbr(n1v) .AND. nbr(j, n1v) == n2v) THEN
        kfound = MAX(kfound, j)
      END IF
    END DO
    search_{suffix} = kfound
    RETURN
  END FUNCTION search_{suffix}
  SUBROUTINE drive_empty_{suffix}(n)
    INTEGER :: n
    CALL loop_empty_{suffix}(n)
  END SUBROUTINE drive_empty_{suffix}
  SUBROUTINE loop_empty_{suffix}(n)
    INTEGER :: n, k
    DO k = 1, n
      CALL empty_{suffix}()
    END DO
  END SUBROUTINE loop_empty_{suffix}
  SUBROUTINE drive_inc_{suffix}(n)
    INTEGER :: n
    CALL loop_inc_{suffix}(n)
  END SUBROUTINE drive_inc_{suffix}
  SUBROUTINE loop_inc_{suffix}(n)
    INTEGER :: n, k
    DO k = 1, n
      acc = inc_{suffix}(k)
    END DO
  END SUBROUTINE loop_inc_{suffix}
  SUBROUTINE drive_search_{suffix}(n)
    INTEGER :: n
    CALL loop_search_{suffix}(n)
  END SUBROUTINE drive_search_{suffix}
  SUBROUTINE loop_search_{suffix}(n)
    INTEGER :: n, k, n1
    DO k = 1, n
      n1 = MOD(k, 4) + 1
      acc = search_{suffix}(n1, 3)
    END DO
  END SUBROUTINE loop_search_{suffix}
"#
        );
    }
    format!(
        r#"
MODULE call_probe
  INTEGER, DIMENSION(1:8, 1:4) :: nbr
  INTEGER, DIMENSION(1:4) :: nnbr
  INTEGER :: acc
CONTAINS
  SUBROUTINE fill()
    INTEGER :: n, j
    DO n = 1, 4
      nnbr(n) = 4 + MOD(n, 3)
      DO j = 1, 8
        nbr(j, n) = MOD(j * n, 5) + 1
      END DO
    END DO
  END SUBROUTINE fill
{units}
END MODULE call_probe
"#
    )
}

/// The per-entry probe of section 6.
const ENTRY_PROBE: &str = r#"
MODULE probe_m
  REAL(8), DIMENSION(1:5, 1:2) :: q
  REAL(8), DIMENSION(1:5) :: r
  REAL(8) :: last
CONTAINS
  SUBROUTINE leaf()
    INTEGER :: m
    REAL(8), DIMENSION(1:5) :: t, u
    DO m = 1, 5
      t(m) = q(m, 1) * 0.5D0
      u(m) = q(m, 2) - t(m)
      r(m) = r(m) + u(m) * t(m)
    END DO
    last = t(5) + u(5)
  END SUBROUTINE leaf
  SUBROUTINE drive(n)
    INTEGER :: n, k
    DO k = 1, n
      CALL leaf()
    END DO
  END SUBROUTINE drive
END MODULE probe_m
"#;
