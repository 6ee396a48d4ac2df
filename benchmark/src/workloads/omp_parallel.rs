//! `omp_parallel`: `run_columns(48)` with real threads on SARB
//! GLAF-parallel v3 — the only workload where `omprt` fork/join, barrier,
//! static scheduling and reduction combine sit on the blocking path.
//!
//! FUN3D `noRealloc` parallel configurations are excluded: under real
//! threads they trap with `AlreadyAllocated { var: "tb" }` (ROADMAP open
//! item), and a workload must not contain ops that fail.

use std::time::Instant;

use fortrans::{ArgVal, ExecMode, ExecTier, Session};
use fun3d::variants::Fun3dConfig;
use omprt::{Barrier, Dispenser, Schedule, ThreadPool};
use sarb::variants::{SarbOutputs, SarbVariant};

use super::fun3d_warm::{jacobian, session_with_mesh};
use super::sarb_warm::{run_columns, NCOL};
use super::{median_ms, warm_up, Metric, OpOutcome, Setup, Workload};
use crate::check;
use crate::host;
use crate::spans::Recorder;

const WARM_UP_OPS: u64 = 20;

pub struct OmpParallel {
    session: Session,
    threads: usize,
    reference: Vec<f64>,
}

impl OmpParallel {
    pub fn set_up(setup: &mut Setup) -> Result<OmpParallel, String> {
        let reference = setup.oracle(|| check::sarb_reference(NCOL)).flat();
        let artifact = setup.step("compile".into(), || {
            sarb::variants::build_artifact(SarbVariant::GlafParallel(3))
        });
        let mut w = OmpParallel {
            session: Session::solo(artifact),
            threads: host::nproc().min(4),
            reference,
        };
        warm_up(&mut w, 0..WARM_UP_OPS, 1, setup)?;
        Ok(w)
    }

    fn mode(&self) -> ExecMode {
        ExecMode::Parallel {
            threads: self.threads,
        }
    }
}

impl Workload for OmpParallel {
    fn first_op(&self) -> u64 {
        WARM_UP_OPS
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _i: u64, rec: &Recorder) -> OpOutcome {
        let t = Instant::now();
        let run = rec.span("session.run", || {
            run_columns(&self.session, NCOL, self.mode(), ExecTier::Vm)
        });
        let timed = t.elapsed();
        // Parallel reductions reorder the sums, so the check is the
        // paper's RMS criterion, not bit identity.
        let check = run.and_then(|()| {
            check::rms_within(
                "sarb outputs",
                &SarbOutputs::read(&self.session).flat(),
                &self.reference,
            )
        });
        OpOutcome { timed, check }
    }

    fn counts(&self) -> Vec<(String, f64)> {
        vec![("threads".into(), self.threads as f64)]
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let team = self.threads;
        let mode = self.mode();

        let forkjoin_us = rec.span("probe.omprt.forkjoin", || {
            let pool = ThreadPool::new(team);
            median_ms(2000, || pool.run(|_tid| {}).expect("empty region runs")) * 1e3
        });
        // One region of many barrier phases: the fork is amortized away.
        let barrier_us = rec.span("probe.omprt.barrier", || {
            const PHASES: usize = 2000;
            let pool = ThreadPool::new(team);
            let barrier = Barrier::new(team);
            let region_ms = median_ms(5, || {
                pool.run(|_tid| {
                    for _ in 0..PHASES {
                        barrier.wait();
                    }
                })
                .expect("barrier region runs")
            });
            (region_ms * 1e3 - forkjoin_us) / PHASES as f64
        });
        let claim_ns = rec.span("probe.omprt.dispenser_claim", || {
            const CLAIMS: usize = 100_000;
            median_ms(5, || {
                let d = Dispenser::new(Schedule::Dynamic(1), CLAIMS, team);
                while std::hint::black_box(d.claim()).is_some() {}
            }) * 1e6
                / CLAIMS as f64
        });

        let (regions_per_op, utilization) = rec.span("probe.omprt.profile", || {
            let (_, profile) = self
                .session
                .run_profiled("run_columns", &[ArgVal::I(NCOL)], mode, ExecTier::Vm)
                .expect("profiled parallel run");
            let busy: u64 = profile.regions.iter().flat_map(|r| &r.busy_ns).sum();
            let capacity: u64 = profile.regions.iter().map(|r| r.wall_ns * r.threads).sum();
            (
                profile.regions.len() as f64,
                busy as f64 / capacity.max(1) as f64,
            )
        });

        let run = |s: &Session, mode| run_columns(s, NCOL, mode, ExecTier::Vm).expect("probe run");
        let parallel_ms = rec.span("probe.omprt.parallel", || {
            median_ms(9, || run(&self.session, mode))
        });
        let serial_ms = rec.span("probe.omprt.serial", || {
            median_ms(9, || run(&self.session, ExecMode::Serial))
        });
        // Every loop parallel: the paper's slowdown case, fork-bound.
        let v0_ms = rec.span("probe.omprt.sarb_v0", || {
            let v0 = Session::solo(sarb::variants::build_artifact(SarbVariant::GlafParallel(0)));
            run(&v0, mode);
            median_ms(5, || run(&v0, mode))
        });
        let edgejp_ms = rec.span("probe.omprt.fun3d_edgejp", || {
            let cfg = Fun3dConfig {
                par_edgejp: true,
                ..Default::default()
            };
            let s = session_with_mesh(cfg, super::fun3d_warm::NCELL);
            jacobian(&s, mode, ExecTier::Vm).expect("probe warm-up");
            median_ms(5, || jacobian(&s, mode, ExecTier::Vm).expect("probe run"))
        });

        vec![
            ("omprt.forkjoin_us".into(), forkjoin_us),
            ("omprt.barrier_us".into(), barrier_us),
            ("omprt.dispenser_claim_ns".into(), claim_ns),
            ("omprt.regions_per_op".into(), regions_per_op),
            ("omprt.utilization".into(), utilization),
            ("omprt.speedup_vs_serial".into(), serial_ms / parallel_ms),
            ("omprt.sarb_v0_run_ms".into(), v0_ms),
            ("omprt.fun3d_edgejp_run_ms".into(), edgejp_ms),
        ]
    }
}
