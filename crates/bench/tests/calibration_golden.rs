//! Golden tests for the measurement-calibrated cost model.
//!
//! The cost model's `simd_speedup` and `native_speedup` were fitted to
//! per-kernel `(speedup over the scalar VM, loop entries)` samples
//! measured when the vector and native rungs landed. This suite locks
//! the feedback loop that replaces the flat `simd_speedup = 4.0` prior
//! with the entry-weighted geometric mean of those samples, and pins the
//! SARB/FUN3D directive verdicts the recalibrated advisor produces — so
//! any change to the calibration math, the samples, or the cost model
//! shows up as an exact diff here.

use glaf_autopar::{
    analyze_program_with_log_using, calibrate_native_speedup, calibrate_simd_speedup, CostAdvisor,
    CostParams, DecisionLog,
};

/// `(scalar-over-vector speedup, vector loop entries)` of the SARB
/// longwave integration, the fused FUN3D edge gather and the 4096-element
/// dot product, in that order.
const VECTOR_SAMPLES: [(f64, u64); 3] = [(2.025, 4464), (1.618, 40889), (15.591, 512)];

/// `(scalar-over-native speedup, native loop entries)` of the same three
/// kernels, same order.
const NATIVE_SAMPLES: [(f64, u64); 3] = [(3.411, 10224), (1.444, 40888), (12.649, 512)];

fn calibrated_params() -> CostParams {
    CostParams::calibrated_simd(&VECTOR_SAMPLES)
}

/// The fully-measured model: both speedups from their samples.
fn native_calibrated_params() -> CostParams {
    let mut p = calibrated_params();
    p.native_speedup = calibrate_native_speedup(&NATIVE_SAMPLES).expect("samples carry weight");
    p
}

/// Compact per-loop verdict rendering: one line per analyzed loop.
fn verdicts(log: &DecisionLog) -> String {
    let mut out = String::new();
    for l in &log.loops {
        out.push_str(&format!(
            "{} step {}: advisor={}\n",
            l.function,
            l.step_index,
            l.advisor.name()
        ));
    }
    out
}

#[test]
fn calibrated_value_is_pinned() {
    let v = calibrate_simd_speedup(&VECTOR_SAMPLES).expect("samples carry weight");
    // Entry-weighted geometric mean of (2.025, w=4464), (1.618, w=40889),
    // (15.591, w=512): dominated by the large fun3d gather kernel, pulled
    // up slightly by the reduction microbenchmark.
    assert_eq!((v * 1000.0).round() / 1000.0, 1.696, "calibrated simd_speedup = {v}");
    // Sanity: strictly below the flat prior — measured vector gains on
    // real kernels are smaller than the 4.0 default assumed.
    assert!(v < CostParams::default().simd_speedup);
}

#[test]
fn calibrated_params_only_change_simd_speedup() {
    let cal = calibrated_params();
    let def = CostParams::default();
    assert_ne!(cal.simd_speedup, def.simd_speedup);
    let mut def_patched = def;
    def_patched.simd_speedup = cal.simd_speedup;
    assert_eq!(format!("{cal:?}"), format!("{def_patched:?}"));
}

#[test]
fn sarb_decisions_under_calibrated_model() {
    let program = sarb::glaf_model::build_sarb_program();
    let advisor = CostAdvisor::new(calibrated_params());
    let (_, log) = analyze_program_with_log_using(&advisor, &program);
    let expected = "\
g_lw_emis step 0: advisor=threads
g_lw_trn step 0: advisor=simd
g_lw_dn step 0: advisor=simd
g_lw_up step 0: advisor=simd
lw_spectral_integration step 0: advisor=simd
lw_spectral_integration step 1: advisor=simd
lw_spectral_integration step 2: advisor=serial
lw_spectral_integration step 4: advisor=simd
lw_spectral_integration step 5: advisor=simd
g_ent_band step 1: advisor=simd
longwave_entropy_model step 0: advisor=simd
longwave_entropy_model step 1: advisor=threads
longwave_entropy_model step 2: advisor=simd
longwave_entropy_model step 3: advisor=threads
longwave_entropy_model step 5: advisor=simd
g_sw_band step 1: advisor=simd
g_sw_band step 2: advisor=simd
sw_spectral_integration step 0: advisor=simd
sw_spectral_integration step 1: advisor=simd
sw_spectral_integration step 2: advisor=serial
sw_spectral_integration step 3: advisor=simd
shortwave_entropy_model step 0: advisor=simd
entropy_interface step 1: advisor=simd
entropy_interface step 4: advisor=simd
adjust2 step 1: advisor=simd
adjust2 step 2: advisor=simd
adjust2 step 3: advisor=simd
adjust2 step 4: advisor=simd
";
    assert_eq!(verdicts(&log), expected);
}

#[test]
fn fun3d_decisions_under_calibrated_model() {
    let program = fun3d::glaf_model::build_fun3d_program();
    let advisor = CostAdvisor::new(calibrated_params());
    let (_, log) = analyze_program_with_log_using(&advisor, &program);
    let expected = "\
ioff_search step 1: advisor=serial
edge_loop step 1: advisor=simd
edge_loop step 2: advisor=simd
edge_loop step 3: advisor=simd
edge_loop step 4: advisor=simd
edge_loop step 5: advisor=simd
edge_loop step 6: advisor=simd
edge_loop step 7: advisor=simd
edge_loop step 8: advisor=simd
edge_loop step 9: advisor=simd
edge_loop step 10: advisor=simd
edge_loop step 12: advisor=simd
cell_loop step 1: advisor=simd
cell_loop step 2: advisor=simd
cell_loop step 3: advisor=simd
cell_loop step 4: advisor=simd
cell_loop step 5: advisor=simd
cell_loop step 6: advisor=serial
edgejp step 0: advisor=serial
";
    assert_eq!(verdicts(&log), expected);
}

#[test]
fn native_calibrated_value_is_pinned() {
    let v = calibrate_native_speedup(&NATIVE_SAMPLES).expect("samples carry weight");
    // Entry-weighted geometric mean of (3.411, w=10224), (1.444,
    // w=40888), (12.649, w=512): as with the vector calibration, the
    // heavyweight fun3d gather kernel dominates, and the deep SARB
    // band loops plus the reduction microbenchmark pull it up.
    assert_eq!((v * 1000.0).round() / 1000.0, 1.749, "calibrated native_speedup = {v}");
    // Sanity: the native tier measures faster than the vector tier it
    // replaces on the same kernels.
    let simd = calibrate_simd_speedup(&VECTOR_SAMPLES).unwrap();
    assert!(v > simd, "native {v} should beat vector {simd}");
}

/// The flips: which verdicts the measured calibration actually changes
/// relative to the flat `simd_speedup = 4.0` prior. A lower measured
/// speedup makes "leave it to compiler SIMD" less attractive, so flips
/// can only move loops away from the SIMD verdict.
#[test]
fn calibration_flips_vs_default_are_pinned() {
    let advisor = CostAdvisor::new(calibrated_params());
    let mut flips = String::new();
    for program in
        [sarb::glaf_model::build_sarb_program(), fun3d::glaf_model::build_fun3d_program()]
    {
        let (_, def_log) = glaf_autopar::analyze_program_with_log(&program);
        let (_, cal_log) = analyze_program_with_log_using(&advisor, &program);
        assert_eq!(def_log.loops.len(), cal_log.loops.len());
        for (d, c) in def_log.loops.iter().zip(&cal_log.loops) {
            if d.advisor != c.advisor {
                flips.push_str(&format!(
                    "{} step {}: {} -> {}\n",
                    d.function,
                    d.step_index,
                    d.advisor.name(),
                    c.advisor.name()
                ));
            }
        }
    }
    // Exactly one loop flips: the SARB emissivity nest is vectorizable
    // but heavy enough that, once the measured 1.696x (not 4.0x) vector
    // gain is priced in, threading beats leaving it to compiler SIMD.
    assert_eq!(flips, "g_lw_emis step 0: simd -> threads\n");
}

/// Per-program calibration: the advisor for one code uses that code's
/// own kernel measurement, not the fleet-wide entry-weighted mean.
fn per_kernel_native_params(sample: (f64, u64)) -> CostParams {
    let mut p = calibrated_params();
    p.native_speedup = calibrate_native_speedup(&[sample]).expect("sample carries weight");
    p
}

fn flips_between(a: &CostAdvisor, b: &CostAdvisor, program: &glaf_ir::Program) -> String {
    let (_, a_log) = analyze_program_with_log_using(a, program);
    let (_, b_log) = analyze_program_with_log_using(b, program);
    assert_eq!(a_log.loops.len(), b_log.loops.len());
    let mut flips = String::new();
    for (x, y) in a_log.loops.iter().zip(&b_log.loops) {
        if x.advisor != y.advisor {
            flips.push_str(&format!(
                "{} step {}: {} -> {}\n",
                x.function,
                x.step_index,
                x.advisor.name(),
                y.advisor.name()
            ));
        }
    }
    flips
}

/// The native tier's flips: which verdicts the PR 10 measurements change
/// relative to the PR 6 vector-only calibration. A faster serial tier
/// makes fork/join overhead harder to justify, so flips can only move
/// loops away from the threads verdict.
#[test]
fn native_tier_flips_vs_vector_calibration_are_pinned() {
    let vec_advisor = CostAdvisor::new(calibrated_params());

    // The fleet-wide entry-weighted mean (1.749x) is dominated by the
    // fun3d gather kernel, whose native gain (1.444x) is *below* the
    // vector tier's — globally the native tier barely moves the model,
    // and no verdict flips. Pinned so a future backend improvement
    // that starts flipping verdicts shows up here as an exact diff.
    let global = CostAdvisor::new(native_calibrated_params());
    for program in
        [sarb::glaf_model::build_sarb_program(), fun3d::glaf_model::build_fun3d_program()]
    {
        assert_eq!(flips_between(&vec_advisor, &global, &program), "");
    }

    // Calibrated from SARB's own measured 3.411x, the serial native
    // tier overtakes threading for the emissivity nest — undoing the
    // PR 6 flip above.
    let sarb_native = CostAdvisor::new(per_kernel_native_params(NATIVE_SAMPLES[0]));
    assert_eq!(
        flips_between(&vec_advisor, &sarb_native, &sarb::glaf_model::build_sarb_program()),
        "g_lw_emis step 0: threads -> simd\n"
    );

    // FUN3D's own native measurement (1.444x) loses to the vector
    // tier, so `max(simd, native)` leaves every verdict alone.
    let fun3d_native = CostAdvisor::new(per_kernel_native_params(NATIVE_SAMPLES[1]));
    assert_eq!(
        flips_between(&vec_advisor, &fun3d_native, &fun3d::glaf_model::build_fun3d_program()),
        ""
    );
}
