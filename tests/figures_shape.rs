//! Shape assertions for every reproduced figure: the qualitative findings
//! the paper reports must hold on small inputs, so a regression anywhere
//! in the stack (analysis, codegen, engine, machine model) fails CI.

use glaf_repro::fun3d::variants::{
    run_simulated as f3d, Fun3dConfig, Fun3dVariant,
};
use glaf_repro::sarb::variants::{run_simulated as sarb, SarbVariant};
use glaf_repro::simcpu::MachineModel;

fn sarb_speedup(v: SarbVariant, threads: usize) -> f64 {
    let m = MachineModel::i5_2400_like();
    let base = sarb(SarbVariant::OriginalSerial, 4, threads, &m);
    let r = sarb(v, 4, threads, &m);
    base.report.total_cycles / r.report.total_cycles
}

/// Speed-ups over the original serial code of the Fig. 5 ladder
/// `[GLAF serial, v0, v1, v2, v3]`, 4 columns at 4 threads on `m`.
fn fig5_ladder(m: &MachineModel) -> [f64; 5] {
    let base = sarb(SarbVariant::OriginalSerial, 4, 4, m).report.total_cycles;
    [
        SarbVariant::GlafSerial,
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(1),
        SarbVariant::GlafParallel(2),
        SarbVariant::GlafParallel(3),
    ]
    .map(|v| base / sarb(v, 4, 4, m).report.total_cycles)
}

#[test]
fn fig5_ladder_ordering() {
    let [glaf_serial, v0, v1, v2, v3] = fig5_ladder(&MachineModel::i5_2400_like());

    // Paper: 0.89, 0.48, 0.66, 1.11, 1.41 — the load-bearing orderings:
    assert!(glaf_serial < 1.0, "GLAF serial slightly below original: {glaf_serial}");
    assert!(glaf_serial > 0.7, "but not catastrophically: {glaf_serial}");
    assert!(v0 < glaf_serial, "naive all-loops parallelization loses: {v0}");
    assert!(v0 < 1.0 && v1 < 1.0, "v0/v1 below the serial line: {v0} {v1}");
    assert!(v1 >= v0, "removing init-loop directives helps: {v1} vs {v0}");
    assert!(v2 > 1.0, "dropping simple single loops crosses 1.0: {v2}");
    assert!(v3 > v2, "v3 is the fastest ladder rung: {v3} vs {v2}");
    assert!(v3 > 1.2 && v3 < 1.8, "v3 in the paper's ballpark (1.41): {v3}");
}

#[test]
fn fig5_cost_model_matches_or_beats_v3() {
    let v3 = sarb_speedup(SarbVariant::GlafParallel(3), 4);
    let cm = sarb_speedup(SarbVariant::GlafCostModel, 4);
    assert!(
        cm >= v3 * 0.99,
        "the future-work advisor reaches the hand-tuned configuration: {cm} vs {v3}"
    );
}

/// The orderings `fig5_ladder_ordering` asserts, without its ballpark
/// bounds on v3.
fn fig5_ordering_holds(&[glaf_serial, v0, v1, v2, v3]: &[f64; 5]) -> bool {
    v0 < glaf_serial && v0 < 1.0 && v1 < 1.0 && v1 >= v0 && v2 > 1.0 && v3 > v2
}

/// Are the values strictly falling from one sweep point to the next?
fn falls(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] < w[0])
}

#[test]
fn fig5_shape_across_fork_cost_sweep() {
    // The v0 -> v3 story is fork cost against loop size, and
    // `fork_join_base` is a literal (1100 cycles). Swept over 80x:
    // v0 0.64 .. 0.07, v3 1.43 .. 0.94.
    let forks = [250.0, 500.0, 1_100.0, 2_500.0, 5_000.0, 20_000.0];
    let ladders = forks.map(|fork| {
        let mut m = MachineModel::i5_2400_like();
        m.fork_join_base = fork;
        fig5_ladder(&m)
    });
    assert!(falls(&ladders.map(|l| l[1])), "v0 falls as forks get dearer: {ladders:?}");
    assert!(falls(&ladders.map(|l| l[4])), "v3 falls as forks get dearer: {ladders:?}");
    for (fork, l) in forks.iter().zip(&ladders) {
        assert!(l[1] < 1.0, "v0 loses to the original at every fork cost ({fork}): {l:?}");
        // The whole ordering survives from 0.23x to 4.5x the default;
        // at 18x even v3's few regions cost more than they save.
        assert_eq!(fig5_ordering_holds(l), *fork <= 5_000.0, "fork {fork}: {l:?}");
    }
    assert!(ladders[5][4] < 1.0, "v3 below the serial line at 20000 cycles: {ladders:?}");
}

#[test]
fn fig5_shape_across_simd_width_sweep() {
    // How much of the serial baseline's edge is the compiler-
    // vectorization model (`simd_width`, default 4): the wider the
    // vectors the serial code gets, the less threads are worth.
    // v0 1.05 .. 0.25, v3 1.52 .. 1.25.
    let widths = [1.0, 2.0, 4.0, 8.0];
    let ladders = widths.map(|width| {
        let mut m = MachineModel::i5_2400_like();
        m.simd_width = width;
        fig5_ladder(&m)
    });
    assert!(falls(&ladders.map(|l| l[1])), "v0 falls as vectors widen: {ladders:?}");
    assert!(falls(&ladders.map(|l| l[4])), "v3 falls as vectors widen: {ladders:?}");
    for (width, l) in widths.iter().zip(&ladders) {
        assert!(l[4] > 1.0, "v3 beats the original at every width ({width}): {l:?}");
        // With no vectorization at all (width 1) even v0 edges past the
        // original: its loss in Fig. 5 is the serial code's SIMD.
        assert_eq!(fig5_ordering_holds(l), *width >= 2.0, "width {width}: {l:?}");
    }
    assert!(ladders[0][1] > 1.0, "v0 above the serial line at width 1: {ladders:?}");
}

#[test]
fn fig6_thread_scaling_shape() {
    let m = MachineModel::i5_2400_like();
    let base = sarb(SarbVariant::GlafSerial, 4, 1, &m);
    let sp = |t: usize| {
        let r = sarb(SarbVariant::GlafParallel(3), 4, t, &m);
        base.report.total_cycles / r.report.total_cycles
    };
    let (t1, t2, t4, t8) = (sp(1), sp(2), sp(4), sp(8));
    // Paper: 0.92, 1.24, 1.59, 0.70.
    assert!(t1 < 1.05, "1 thread pays OpenMP overhead: {t1}");
    assert!(t2 > t1, "2 threads beat 1: {t2} vs {t1}");
    assert!(t4 > t2, "4 threads beat 2: {t4} vs {t2}");
    assert!(t8 < t4, "8 threads oversubscribe the 4-core part: {t8} vs {t4}");
    assert!(t8 < 1.0, "oversubscription drops below serial (paper: 0.70): {t8}");
}

fn f3d_speedup(v: Fun3dVariant) -> f64 {
    let m = MachineModel::xeon_e5_2637v4_dual_like();
    let base = f3d(Fun3dVariant::OriginalSerial, 400, 16, &m);
    let r = f3d(v, 400, 16, &m);
    base.report.total_cycles / r.report.total_cycles
}

#[test]
fn fig7_realloc_gates_parallel_benefit() {
    // "Once this dynamic reallocation was eliminated ... parallelization
    // began to yield a performance benefit."
    let with_realloc = f3d_speedup(Fun3dVariant::Glaf(Fun3dConfig {
        par_edgejp: true,
        ..Default::default()
    }));
    let without = f3d_speedup(Fun3dVariant::Glaf(Fun3dConfig::best()));
    assert!(with_realloc < 1.0, "reallocation storm erases the gain: {with_realloc}");
    assert!(without > 1.0, "EdgeJP + noRealloc beats the original: {without}");
}

#[test]
fn fig7_coarsest_granularity_wins() {
    // "The best performance is achieved when parallelized at the coarsest
    // granularity."
    let best = f3d_speedup(Fun3dVariant::Glaf(Fun3dConfig::best()));
    for cfg in Fun3dConfig::all() {
        if cfg == Fun3dConfig::best() {
            continue;
        }
        let s = f3d_speedup(Fun3dVariant::Glaf(cfg));
        assert!(
            s <= best * 1.02,
            "{} ({s}) must not beat EdgeJP+noRealloc ({best})",
            cfg.tag()
        );
    }
}

#[test]
fn fig7_manual_beats_best_glaf() {
    // "This manual version ends up outperforming the best GLAF version by
    // almost 2.3-fold."
    let manual = f3d_speedup(Fun3dVariant::ManualParallel);
    let best = f3d_speedup(Fun3dVariant::Glaf(Fun3dConfig::best()));
    let ratio = manual / best;
    assert!(manual > 2.0, "manual parallel gets real speedup: {manual}");
    assert!(
        (1.4..=3.5).contains(&ratio),
        "manual/best-GLAF ratio in the paper's ballpark (2.3): {ratio}"
    );
}

#[test]
fn fig7_nested_parallelism_is_catastrophic() {
    // The 1/128x-style floor: all levels parallel with reallocation.
    let s = f3d_speedup(Fun3dVariant::Glaf(Fun3dConfig {
        par_edgejp: true,
        par_cell_loop: true,
        par_edge_loop: true,
        par_ioff_search: true,
        no_realloc: false,
        fuse: false,
    }));
    assert!(s < 0.05, "fully nested + realloc collapses (paper ~1/128): {s}");
}
