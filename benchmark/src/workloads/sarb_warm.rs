//! `sarb_warm`: `run_columns(48)` Serial on the default rung ladder over a
//! pre-compiled GLAF-serial SARB artifact.

use std::time::Instant;

use fortrans::{ArgVal, CompiledProgram, ExecMode, ExecTier, Session};
use sarb::variants::{SarbOutputs, SarbVariant};

use super::{kernel_counts, ladder, vecloop_entries, warm_up, Metric, OpOutcome, Setup, Workload};
use crate::check;
use crate::spans::Recorder;

pub const NCOL: i64 = 48;
const WARM_UP_OPS: u64 = 20;

pub struct SarbWarm {
    session: Session,
    reference: Vec<f64>,
    vector_entries_per_op: u64,
}

pub fn run_columns(
    session: &Session,
    ncol: i64,
    mode: ExecMode,
    tier: ExecTier,
) -> Result<(), String> {
    let out = session
        .run_tiered("run_columns", &[ArgVal::I(ncol)], mode, tier)
        .map_err(|e| format!("run_columns({ncol}) failed: {e}"))?;
    match out.fallback {
        Some(fb) => Err(format!(
            "VM trapped and fell back to the oracle: {}",
            fb.what
        )),
        None => Ok(()),
    }
}

impl SarbWarm {
    pub fn set_up(setup: &mut Setup) -> Result<SarbWarm, String> {
        let reference = setup.oracle(|| check::sarb_reference(NCOL)).flat();
        let artifact = setup.step("compile".into(), || {
            sarb::variants::build_artifact(SarbVariant::GlafSerial)
        });
        let mut w = SarbWarm {
            session: Session::solo(artifact),
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

impl Workload for SarbWarm {
    fn first_op(&self) -> u64 {
        WARM_UP_OPS + 1
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _i: u64, rec: &Recorder) -> OpOutcome {
        let t = Instant::now();
        let run = rec.span("session.run", || {
            run_columns(&self.session, NCOL, ExecMode::Serial, ExecTier::Vm)
        });
        let timed = t.elapsed();
        let check = run.and_then(|()| {
            check::bits_equal(
                "sarb outputs",
                &SarbOutputs::read(&self.session).flat(),
                &self.reference,
            )
        });
        OpOutcome { timed, check }
    }

    fn counts(&self) -> Vec<(String, f64)> {
        kernel_counts(&self.session, self.vector_entries_per_op)
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let sarb_floor = || {
            std::hint::black_box(sarb::native::run_columns_native(std::hint::black_box(NCOL)));
        };
        let mut out = ladder::measure(
            &ladder::Kernel {
                suffix: "sarb",
                fresh: &|| Session::solo(sarb::variants::build_artifact(SarbVariant::GlafSerial)),
                run: &|s, tier| {
                    run_columns(s, NCOL, ExecMode::Serial, tier).expect("ladder rung runs");
                },
                retired_steps: &|s| {
                    let (_, profile) = s
                        .run_profiled(
                            "run_columns",
                            &[ArgVal::I(NCOL)],
                            ExecMode::Serial,
                            ExecTier::Vm,
                        )
                        .expect("profiled run");
                    profile.steps
                },
                rust_floor: Some(&sarb_floor),
            },
            rec,
        );
        out.extend(dotp_ladder(rec));
        out
    }
}

/// The micro reduction of `BENCH_pr10.json`: a 4096-element dot product,
/// 64 calls per run — one `VecLoop` with a reduction and nothing else, the
/// best case for the vector and native rungs.
const DOTP_SRC: &str = r#"
MODULE mr
CONTAINS
  SUBROUTINE dotp(a, b, n, s)
    REAL(8), DIMENSION(1:4096) :: a
    REAL(8), DIMENSION(1:4096) :: b
    INTEGER :: n
    REAL(8) :: s
    INTEGER :: i
    s = 0.0D0
    DO i = 1, n
      s = s + a(i) * b(i)
    END DO
  END SUBROUTINE dotp
END MODULE mr
"#;

fn dotp_ladder(rec: &Recorder) -> Vec<Metric> {
    let a: Vec<f64> = (0..4096).map(|i| f64::from(i % 97) * 0.01).collect();
    let b: Vec<f64> = (0..4096).map(|i| f64::from(i % 89) * 0.02 - 0.5).collect();
    let args = [
        ArgVal::array_f(&a, 1),
        ArgVal::array_f(&b, 1),
        ArgVal::I(4096),
        ArgVal::F(0.0),
    ];
    ladder::measure(
        &ladder::Kernel {
            suffix: "dotp",
            fresh: &|| Session::solo(CompiledProgram::compile(&[DOTP_SRC]).expect("dotp compiles")),
            run: &|s, tier| {
                for _ in 0..64 {
                    s.run_tiered("dotp", &args, ExecMode::Serial, tier)
                        .expect("dotp runs");
                }
            },
            retired_steps: &|s| {
                let (_, profile) = s
                    .run_profiled("dotp", &args, ExecMode::Serial, ExecTier::Vm)
                    .expect("profiled run");
                profile.steps * 64
            },
            rust_floor: None,
        },
        rec,
    )
}
