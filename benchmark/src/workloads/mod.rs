//! The six workloads. Each owns its set-up (inputs, compile, oracle
//! reference, warm-up), its op, its counts that must repeat exactly, and
//! the probes of the layers it exercises.

use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::median;

mod cold_compile;
mod fun3d_warm;
mod ladder;
mod omp_parallel;
mod sarb_warm;
mod service_mix;
mod simulated;

pub const NAMES: [&str; 6] = [
    "sarb_warm",
    "fun3d_warm",
    "cold_compile",
    "service_mix",
    "omp_parallel",
    "simulated",
];

/// What one op did: the wall time of its timed section (output checks and
/// input generation sit outside it) and the verdict of the output check.
pub struct OpOutcome {
    pub timed: Duration,
    pub check: Result<(), String>,
}

/// A named per-layer measurement; its unit is in `metrics::PER_LAYER`.
pub type Metric = (String, f64);

pub trait Workload {
    /// Index of the first op after set-up's warm-up ops: the timed loop
    /// continues the seed's schedule where warm-up left off.
    fn first_op(&self) -> u64;

    /// Period of the schedule: ops `i` and `i + cycle()` do exactly the
    /// same work on the same inputs, so their times are repetitions of one
    /// measurement. 1 for the kernel workloads, whose every op is the same.
    fn cycle(&self) -> u64;

    /// Runs op number `i` of the seed's schedule.
    fn op(&mut self, i: u64, rec: &Recorder) -> OpOutcome;

    /// Counts taken over a fixed amount of work in set-up. The program is
    /// deterministic, so these must repeat exactly from round to round.
    fn counts(&self) -> Vec<(String, f64)>;

    /// Per-layer metrics of the layers this workload exercises: derived
    /// from the traced round's spans plus dedicated probes of each layer's
    /// public entry points. Called once, after the traced round.
    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric>;
}

/// Times a workload's set-up step by step. `setup_s` counts the steps the
/// *system* takes before the first timed op (input generation, IR build,
/// compile, mesh build, warm-up ops); the benchmark's own checker computing
/// expected outputs on the oracle is not the system's set-up and is left out.
pub struct Setup<'a> {
    pub rec: &'a Recorder,
    /// `(step, wall ns)` in order; the same steps in every round of a run.
    pub steps: Vec<(String, u64)>,
}

impl Setup<'_> {
    /// One step of the system's set-up.
    pub fn step<R>(&mut self, name: String, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = self.rec.span("setup.step", f);
        self.steps.push((name, t.elapsed().as_nanos() as u64));
        out
    }

    /// The checker's work: an expected output from the oracle. Not counted.
    pub fn oracle<R>(&self, f: impl FnOnce() -> R) -> R {
        self.rec.span("setup.oracle", f)
    }
}

/// Builds the workload's inputs from `seed`, compiles, computes the oracle
/// reference and warms up.
pub fn set_up(name: &str, seed: u64, setup: &mut Setup) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sarb_warm" => Box::new(sarb_warm::SarbWarm::set_up(setup)?),
        "fun3d_warm" => Box::new(fun3d_warm::Fun3dWarm::set_up(setup)?),
        "cold_compile" => Box::new(cold_compile::ColdCompile::set_up(seed, setup)?),
        "service_mix" => Box::new(service_mix::ServiceMix::set_up(seed, setup)?),
        "omp_parallel" => Box::new(omp_parallel::OmpParallel::set_up(setup)?),
        "simulated" => Box::new(simulated::Simulated::set_up(setup)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// Runs the fixed warm-up ops of a workload, every `ops_per_step` of them one
/// set-up step (a step of well under a millisecond would mostly time the
/// clock). A failing warm-up op fails set-up, since nothing measured
/// afterwards could be trusted.
fn warm_up(
    w: &mut dyn Workload,
    ops: std::ops::Range<u64>,
    ops_per_step: u64,
    setup: &mut Setup,
) -> Result<(), String> {
    let mut step_ns = 0;
    for i in ops.clone() {
        let out = w.op(i, setup.rec);
        out.check.map_err(|e| format!("warm-up op {i}: {e}"))?;
        step_ns += out.timed.as_nanos() as u64;
        if (i + 1 - ops.start).is_multiple_of(ops_per_step) || i + 1 == ops.end {
            setup.steps.push((format!("warmup.{i}"), step_ns));
            step_ns = 0;
        }
    }
    Ok(())
}

/// `VecLoop` entries of a session so far, whichever rung (vector or native)
/// took them: the split moves while regions are being promoted, the sum does
/// not.
fn vecloop_entries(session: &fortrans::Session) -> u64 {
    session.vector_entry_count() + session.native_entry_count()
}

/// The determinism-gate counts of the two warm kernel workloads.
fn kernel_counts(session: &fortrans::Session, vecloop_entries_per_op: u64) -> Vec<(String, f64)> {
    let compiled = session.artifact().native_cache().compiled_count();
    vec![
        (
            "vecloop_entries_per_op".into(),
            vecloop_entries_per_op as f64,
        ),
        ("jit_regions_compiled".into(), compiled as f64),
    ]
}

/// The `&[&str]` view of a source set that the compile entry points take.
fn refs(sources: &[String]) -> Vec<&str> {
    sources.iter().map(String::as_str).collect()
}

/// Median wall time in milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
