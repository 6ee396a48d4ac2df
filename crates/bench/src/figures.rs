//! The three speed-up figures, each said once: the case table, the
//! paper's values, the machine model and how a bar is measured. Every
//! `repro_fig*` binary and `repro_all` build their output from these.
//!
//! `long_labels` picks the labels the standalone figure prints (they
//! spell out the variant and quote the paper's number) over the short
//! ones of the `repro_all` summary and its JSON.

use crate::{Bar, Experiment};
use fun3d::variants::{run_simulated as fun3d_run, Fun3dConfig, Fun3dVariant};
use sarb::variants::{run_simulated as sarb_run, SarbVariant};
use simcpu::MachineModel;

/// Figure 5: SARB speed-up of every variant vs. the original serial code.
pub fn fig5(ncol: i64, threads: usize) -> Experiment {
    let m = MachineModel::i5_2400_like();
    let base = sarb_run(SarbVariant::OriginalSerial, ncol, threads, &m);
    let cases = [
        (SarbVariant::OriginalSerial, Some(1.00)),
        (SarbVariant::GlafSerial, Some(0.89)),
        (SarbVariant::GlafParallel(0), Some(0.48)),
        (SarbVariant::GlafParallel(1), Some(0.66)),
        (SarbVariant::GlafParallel(2), Some(1.11)),
        (SarbVariant::GlafParallel(3), Some(1.41)),
        (SarbVariant::GlafCostModel, None),
    ];
    let bars = cases
        .into_iter()
        .map(|(v, paper)| {
            let r = sarb_run(v, ncol, threads, &m);
            let measured = base.report.total_cycles / r.report.total_cycles;
            Bar { label: r.variant_name, paper, measured }
        })
        .collect();
    Experiment {
        id: "fig5".into(),
        description: "SARB speed-up vs original serial, 4 threads, i5-2400-like".into(),
        bars,
    }
}

/// Figure 6: thread scaling of GLAF-parallel v3 vs. GLAF serial.
pub fn fig6(ncol: i64, long_labels: bool) -> Experiment {
    let m = MachineModel::i5_2400_like();
    let base = sarb_run(SarbVariant::GlafSerial, ncol, 1, &m);
    let bars = [(1usize, 0.92), (2, 1.24), (4, 1.59), (8, 0.70)]
        .into_iter()
        .map(|(t, paper)| {
            let r = sarb_run(SarbVariant::GlafParallel(3), ncol, t, &m);
            let label =
                if long_labels { format!("GLAF-parallel v3 ({t}T)") } else { format!("v3 {t}T") };
            let measured = base.report.total_cycles / r.report.total_cycles;
            Bar { label, paper: Some(paper), measured }
        })
        .collect();
    Experiment {
        id: "fig6".into(),
        description: "SARB v3 thread scaling vs GLAF serial, i5-2400-like".into(),
        bars,
    }
}

/// Figure 7: the FUN3D option matrix — the bars the paper names (the
/// ones with a paper value), then all 32 option combinations in
/// [`Fun3dConfig::all`] order.
pub fn fig7(ncell: i64, threads: usize, long_labels: bool) -> Experiment {
    let m = MachineModel::xeon_e5_2637v4_dual_like();
    let base = fun3d_run(Fun3dVariant::OriginalSerial, ncell, threads, &m);
    let speedup = |v: Fun3dVariant| {
        base.report.total_cycles / fun3d_run(v, ncell, threads, &m).report.total_cycles
    };
    let worst = Fun3dConfig {
        par_edgejp: true,
        par_cell_loop: true,
        par_edge_loop: true,
        par_ioff_search: true,
        no_realloc: false,
        fuse: false,
    };
    // (short label, long label, paper, variant)
    let anchors = [
        ("manual parallel", "manual parallel (paper: 3.85x)", 3.85, Fun3dVariant::ManualParallel),
        (
            "GLAF EdgeJP noRealloc (best)",
            "GLAF EdgeJP noRealloc (best, paper: 1.67x)",
            1.67,
            Fun3dVariant::Glaf(Fun3dConfig::best()),
        ),
        (
            "GLAF all levels + realloc (worst)",
            "GLAF all levels + realloc (worst, ~1/128x)",
            1.0 / 128.0,
            Fun3dVariant::Glaf(worst),
        ),
    ];
    let mut bars = vec![Bar { label: "original serial".into(), paper: Some(1.0), measured: 1.0 }];
    bars.extend(anchors.into_iter().map(|(short, long, paper, v)| Bar {
        label: if long_labels { long } else { short }.into(),
        paper: Some(paper),
        measured: speedup(v),
    }));
    bars.extend(Fun3dConfig::all().into_iter().map(|cfg| Bar {
        label: format!("GLAF {}", cfg.tag()),
        paper: None,
        measured: speedup(Fun3dVariant::Glaf(cfg)),
    }));
    Experiment {
        id: "fig7".into(),
        description: format!("FUN3D 16-thread option matrix, {ncell} cells, 2x E5-2637v4-like"),
        bars,
    }
}
