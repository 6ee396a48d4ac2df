//! `simulated`: `run_columns(24)` in `ExecMode::Simulated` on SARB
//! GLAF-parallel v3 plus `simcpu::time_trace` — the *traced, unvectorized*
//! bytecode build emitting cost events, which every `repro_*` figure pays
//! for and no other workload touches.

use std::time::Instant;

use fortrans::{ArgVal, ExecMode, Session};
use sarb::variants::{SarbOutputs, SarbVariant};
use simcpu::{time_trace, MachineModel, SimReport};

use super::{median_ms, warm_up, Metric, OpOutcome, Setup, Workload};
use crate::check;
use crate::spans::Recorder;

const NCOL: i64 = 24;
const SIM_THREADS: usize = 4;
const WARM_UP_OPS: u64 = 8;

pub struct Simulated {
    session: Session,
    machine: MachineModel,
    reference: Vec<f64>,
    /// The first op's report; the simulation is deterministic, so every
    /// later op must reproduce it exactly.
    first_report: Option<SimReport>,
    trace_events: usize,
}

impl Simulated {
    pub fn set_up(setup: &mut Setup) -> Result<Simulated, String> {
        let reference = setup.oracle(|| check::sarb_reference(NCOL)).flat();
        let artifact = setup.step("compile".into(), || {
            sarb::variants::build_artifact(SarbVariant::GlafParallel(3))
        });
        let mut w = Simulated {
            session: Session::solo(artifact),
            machine: MachineModel::i5_2400_like(),
            reference,
            first_report: None,
            trace_events: 0,
        };
        warm_up(&mut w, 0..WARM_UP_OPS, 1, setup)?;
        Ok(w)
    }

    fn run_traced(&self) -> Result<fortrans::RunOutcome, String> {
        self.session
            .run(
                "run_columns",
                &[ArgVal::I(NCOL)],
                ExecMode::Simulated {
                    threads: SIM_THREADS,
                },
            )
            .map_err(|e| format!("simulated run failed: {e}"))
    }
}

impl Workload for Simulated {
    fn first_op(&self) -> u64 {
        WARM_UP_OPS
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _i: u64, rec: &Recorder) -> OpOutcome {
        let t = Instant::now();
        let ran = rec.span("session.run", || self.run_traced()).map(|out| {
            let report = rec.span("simcpu.time_trace", || {
                time_trace(&out.trace, &self.machine)
            });
            (out, report)
        });
        let timed = t.elapsed();
        let check = ran.and_then(|(out, report)| {
            if let Some(fb) = out.fallback {
                return Err(format!(
                    "VM trapped and fell back to the oracle: {}",
                    fb.what
                ));
            }
            self.trace_events = out.trace.events.len();
            let first = self.first_report.get_or_insert_with(|| report.clone());
            if *first != report {
                return Err(format!(
                    "SimReport changed between ops: {report:?} vs first {first:?}"
                ));
            }
            check::bits_equal(
                "sarb outputs",
                &SarbOutputs::read(&self.session).flat(),
                &self.reference,
            )
        });
        OpOutcome { timed, check }
    }

    fn counts(&self) -> Vec<(String, f64)> {
        let report = self.first_report.as_ref();
        vec![
            (
                "sim_seconds".into(),
                report.map_or(0.0, SimReport::total_seconds),
            ),
            (
                "sim_total_cycles".into(),
                report.map_or(0.0, |r| r.total_cycles),
            ),
            ("trace_events".into(), self.trace_events as f64),
        ]
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let traced_run_ms = rec.span("probe.vm.traced_run", || {
            median_ms(9, || drop(self.run_traced().expect("traced run")))
        });
        let out = self.run_traced().expect("traced run");
        let time_trace_us = rec.span("probe.simcpu.time_trace", || {
            median_ms(200, || {
                drop(std::hint::black_box(time_trace(&out.trace, &self.machine)))
            }) * 1e3
        });
        let sim_seconds = self
            .first_report
            .as_ref()
            .map_or(0.0, SimReport::total_seconds);
        vec![
            ("vm.traced_run_ms".into(), traced_run_ms),
            ("simcpu.time_trace_us".into(), time_trace_us),
            ("simcpu.trace_events".into(), out.trace.events.len() as f64),
            ("simcpu.sim_seconds".into(), sim_seconds),
        ]
    }
}
