//! `fun3d_warm`: `zero_jac` + `edgejp` Serial on the fused GLAF FUN3D
//! configuration over a 3000-cell mesh built in set-up.

use std::time::Instant;

use fortrans::{ArgVal, ExecMode, ExecTier, Session};
use fun3d::variants::{Fun3dConfig, Fun3dVariant};

use super::{
    kernel_counts, ladder, median_ms, vecloop_entries, warm_up, Metric, OpOutcome, Setup, Workload,
};
use crate::check;
use crate::spans::Recorder;

pub const NCELL: i64 = 3000;
const WARM_UP_OPS: u64 = 5;
const FUSED: Fun3dConfig = Fun3dConfig {
    par_edgejp: false,
    par_cell_loop: false,
    par_edge_loop: false,
    par_ioff_search: false,
    no_realloc: false,
    fuse: true,
};

pub struct Fun3dWarm {
    session: Session,
    reference: Vec<f64>,
    vector_entries_per_op: u64,
}

/// A fresh session over a fresh artifact of `cfg` with an `ncell` mesh.
pub fn session_with_mesh(cfg: Fun3dConfig, ncell: i64) -> Session {
    let s = Session::solo(fun3d::variants::build_artifact(Fun3dVariant::Glaf(cfg)));
    s.run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial)
        .expect("mesh builds");
    s
}

/// The op: reset the Jacobian, then reconstruct it.
pub fn jacobian(session: &Session, mode: ExecMode, tier: ExecTier) -> Result<(), String> {
    for unit in ["zero_jac", "edgejp"] {
        let out = session
            .run_tiered(unit, &[], mode, tier)
            .map_err(|e| format!("{unit} failed: {e}"))?;
        if let Some(fb) = out.fallback {
            return Err(format!(
                "{unit}: VM trapped and fell back to the oracle: {}",
                fb.what
            ));
        }
    }
    Ok(())
}

impl Fun3dWarm {
    pub fn set_up(setup: &mut Setup) -> Result<Fun3dWarm, String> {
        let reference = setup.oracle(|| check::fun3d_reference(NCELL));
        let session = setup.step("compile_and_mesh".into(), || {
            session_with_mesh(FUSED, NCELL)
        });
        let mut w = Fun3dWarm {
            session,
            reference,
            vector_entries_per_op: 0,
        };
        warm_up(&mut w, 0..WARM_UP_OPS, 1, setup)?;
        let before = vecloop_entries(&w.session);
        warm_up(&mut w, WARM_UP_OPS..WARM_UP_OPS + 1, 1, setup)?;
        w.vector_entries_per_op = vecloop_entries(&w.session) - before;
        Ok(w)
    }
}

impl Workload for Fun3dWarm {
    fn first_op(&self) -> u64 {
        WARM_UP_OPS + 1
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _i: u64, rec: &Recorder) -> OpOutcome {
        let t = Instant::now();
        let run = rec.span("session.run", || {
            jacobian(&self.session, ExecMode::Serial, ExecTier::Vm)
        });
        let timed = t.elapsed();
        let check = run.and_then(|()| {
            check::bits_equal(
                "mesh_mod::jac",
                &check::read_jac(&self.session),
                &self.reference,
            )
        });
        OpOutcome { timed, check }
    }

    fn counts(&self) -> Vec<(String, f64)> {
        kernel_counts(&self.session, self.vector_entries_per_op)
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let mesh = fun3d::mesh::Mesh::build(NCELL as usize);
        let floor = || {
            std::hint::black_box(fun3d::native::native_jacobian(std::hint::black_box(&mesh)));
        };
        let mut out = ladder::measure(
            &ladder::Kernel {
                suffix: "fun3d",
                fresh: &|| session_with_mesh(FUSED, NCELL),
                run: &|s, tier| jacobian(s, ExecMode::Serial, tier).expect("ladder rung runs"),
                retired_steps: &|s| {
                    ["zero_jac", "edgejp"]
                        .iter()
                        .map(|unit| {
                            s.run_profiled(unit, &[], ExecMode::Serial, ExecTier::Vm)
                                .expect("profiled run")
                                .1
                                .steps
                        })
                        .sum()
                },
                rust_floor: Some(&floor),
            },
            rec,
        );
        // Size sweep, one fresh session each: where the cost per cell
        // stops being flat is where the working set left a cache level.
        for (label, ncell, reps) in [("3k", 3_000, 5), ("30k", 30_000, 3), ("300k", 300_000, 1)] {
            let ms = rec.span("probe.vm.size_sweep", || {
                let s = session_with_mesh(FUSED, ncell);
                if reps > 1 {
                    jacobian(&s, ExecMode::Serial, ExecTier::Vm).expect("sweep warm-up runs");
                }
                median_ms(reps, || {
                    jacobian(&s, ExecMode::Serial, ExecTier::Vm).expect("sweep runs")
                })
            });
            out.push((
                format!("vm.fun3d_ms_per_kcell.{label}"),
                ms / (ncell as f64 / 1e3),
            ));
        }
        out
    }
}
