//! The Synoptic SARB case study end-to-end (paper §4.1): generate the six
//! kernels with GLAF, show the legacy-integration features in the output,
//! substitute them into the legacy code base, verify §4.1.1-style,
//! print the Fig. 5 speed-up ladder, and time `g_sw_band`'s direct-beam
//! attenuation loop on each VM rung.
//!
//! Run with: `cargo run --release --example sarb_integration`

use glaf_repro::fortrans::{ArgVal, ExecMode, Session};
use glaf_repro::glaf::compare_slices;
use glaf_repro::sarb::variants::{
    generated_source, run_real, run_simulated, SarbVariant,
};
use glaf_repro::simcpu::MachineModel;

fn main() {
    // 1. The generated code carries every §3 integration feature.
    let src = generated_source(SarbVariant::GlafSerial).unwrap();
    println!("=== §3 integration features in the generated FORTRAN ===");
    for needle in [
        "USE fuliou_mod",                     // §3.1 existing modules
        "COMMON /radparams/ u0, ee, tsfc",    // §3.2 COMMON blocks
        "REAL(8), DIMENSION(1:60) :: bf",     // §3.3 module-scope buffers
        "SUBROUTINE adjust2()",               // §3.4 subroutines
        "fi%pt",                              // §3.5 TYPE elements
        "ALOG(",                              // §3.6 extended library
    ] {
        let hit = src.lines().find(|l| l.contains(needle)).unwrap_or("(missing!)");
        println!("  {needle:40} -> {}", hit.trim());
    }

    // 2. §4.1.1 verification: substitute the GLAF subroutines into the
    //    legacy code base and compare side by side.
    println!("\n=== functional correctness (§4.1.1) ===");
    let original = run_real(SarbVariant::OriginalSerial, 4, 1);
    for v in [
        SarbVariant::GlafSerial,
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(3),
    ] {
        let serial = run_real(v, 4, 1);
        let threaded = run_real(v, 4, 4);
        let rs = compare_slices(&original.flat(), &serial.flat());
        let rt = compare_slices(&original.flat(), &threaded.flat());
        println!(
            "  {:20} serial max|diff| = {:.1e}   4-thread max|diff| = {:.1e}",
            v.name(),
            rs.max_abs_diff,
            rt.max_abs_diff
        );
    }

    // 3. The Fig. 5 ladder on the simulated i5-2400.
    println!("\n=== Fig. 5 ladder (simulated, 8 columns, 4 threads) ===");
    let machine = MachineModel::i5_2400_like();
    let base = run_simulated(SarbVariant::OriginalSerial, 8, 4, &machine);
    for v in SarbVariant::table2() {
        let r = run_simulated(v, 8, 4, &machine);
        println!(
            "  {:20} {:>6.2}x",
            r.variant_name,
            base.report.total_cycles / r.report.total_cycles
        );
    }

    // 4. What one `g_sw_band` attenuation loop costs per call on each
    //    rung: the running sum (`taucum` carried from trip to trip and
    //    read by the `swdir` statement), and the same loop without the
    //    recurrence. The JIT refuses running sums, so the native row of
    //    the first loop runs on the vector rung.
    println!("\n=== g_sw_band attenuation loop, us per call (Serial, best of 9 x 20k calls) ===");
    let rungs = [("scalar", false, false), ("vector", true, false), ("native", true, true)];
    for (loop_name, driver) in [("running sum", "drive_band"), ("no recurrence", "drive_flat")] {
        for (rung, vector, native) in rungs {
            let session = Session::compile(&[SW_PROBE]).expect("probe compiles");
            session.set_vector_enabled(vector);
            session.set_native_enabled(native);
            session.set_native_eager(native);
            session.run("fill", &[], ExecMode::Serial).expect("inputs fill");
            let calls = 20_000;
            let run = || session.run(driver, &[ArgVal::I(calls)], ExecMode::Serial).expect("runs");
            run();
            let best = (0..9)
                .map(|_| {
                    let t = std::time::Instant::now();
                    run();
                    t.elapsed()
                })
                .min()
                .expect("nine runs");
            println!(
                "  {loop_name:13} {rung:7} {:>6.2} us  ({} vector, {} native entries in all)",
                best.as_secs_f64() * 1e6 / calls as f64,
                session.vector_entry_count(),
                session.native_entry_count()
            );
        }
    }
}

/// `g_sw_band` as GLAF generates it (`u0` a global cell, as in the
/// COMMON block), beside a copy of its attenuation loop without the
/// recurrence; each driver calls one of them once per band in turn, on
/// the inputs `fill` leaves in the module.
const SW_PROBE: &str = r#"
MODULE swprobe_m
  REAL(8), DIMENSION(1:6, 1:60) :: tau_sw
  REAL(8), DIMENSION(1:60) :: swdir
  REAL(8) :: u0
CONTAINS
  SUBROUTINE g_sw_band(kbnd)
    INTEGER :: kbnd, i
    REAL(8) :: s0w, taucum
    s0w = 1.36D3 / 2D0 ** kbnd * 7D-1
    taucum = 0D0
    DO i = 1, 60
      taucum = taucum + tau_sw(kbnd, i)
      swdir(i) = s0w * u0 * EXP((-taucum) / MAX(u0, 1D-2))
    END DO
  END SUBROUTINE g_sw_band
  SUBROUTINE g_sw_flat(kbnd)
    INTEGER :: kbnd, i
    REAL(8) :: s0w
    s0w = 1.36D3 / 2D0 ** kbnd * 7D-1
    DO i = 1, 60
      swdir(i) = s0w * u0 * EXP((-tau_sw(kbnd, i)) / MAX(u0, 1D-2))
    END DO
  END SUBROUTINE g_sw_flat
  SUBROUTINE fill()
    INTEGER :: k, i
    u0 = 0.5D0
    DO k = 1, 6
      DO i = 1, 60
        tau_sw(k, i) = 0.01D0 * i / k
      END DO
    END DO
  END SUBROUTINE fill
  SUBROUTINE drive_band(n)
    INTEGER :: n, k
    DO k = 1, n
      CALL g_sw_band(MOD(k, 6) + 1)
    END DO
  END SUBROUTINE drive_band
  SUBROUTINE drive_flat(n)
    INTEGER :: n, k
    DO k = 1, n
      CALL g_sw_flat(MOD(k, 6) + 1)
    END DO
  END SUBROUTINE drive_flat
END MODULE swprobe_m
"#;
