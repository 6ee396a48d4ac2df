//! Schedule matrix: static vs dynamic vs guided, measured wall time on
//! real threads.
//!
//! Three kernels:
//!
//! * **SARB v3** — the full parallel longwave/shortwave pipeline. Uniform
//!   column work, so static should win or tie (dispatch overhead only).
//! * **FUN3D edgejp** — the edge/cell sweeps. The cost model emits
//!   `SCHEDULE(DYNAMIC)` for the indirect-subscript stages; the engine
//!   legalizes the stages that stage through SAVE'd temps back to static
//!   (see DESIGN.md §6), so this measures the legal mixed schedule.
//! * **skewed triangular** — iteration `i` costs `i` flops: the injected
//!   imbalance case, where dynamic dispatch must recover the idle time a
//!   static block partition leaves on the last thread.
//!
//! Criterion measures the full run; the per-schedule comparison table
//! prints once at the end of each group.

use criterion::{criterion_group, criterion_main, Criterion};
use fortrans::{ArgVal, ExecMode, Schedule, Session};

const THREADS: usize = 4;

const SCHEDULES: [(&str, Option<Schedule>); 3] = [
    ("static", None),
    ("dynamic1", Some(Schedule::Dynamic(1))),
    ("guided2", Some(Schedule::Guided(2))),
];

/// Triangular workload (same shape as the reschedule feedback test).
const SKEWED: &str = r#"
MODULE w
  REAL(8), DIMENSION(1:128) :: out
CONTAINS
  SUBROUTINE skewed(n)
    INTEGER :: n
    INTEGER :: i, k
    REAL(8) :: acc
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      acc = 0.0D0
      DO k = 1, i * 400
        acc = acc + DBLE(k) * 1.0D-9
      END DO
      out(i) = acc
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE skewed
END MODULE w
"#;

fn bench_sarb(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_matrix_sarb");
    g.sample_size(10);
    for (name, sched) in SCHEDULES {
        let engine = Session::solo(sarb::variants::build_artifact(
            sarb::variants::SarbVariant::GlafParallel(3),
        ));
        engine.set_schedule_override_all(sched);
        g.bench_function(format!("run_columns_{name}"), |b| {
            b.iter(|| {
                engine
                    .run("run_columns", &[ArgVal::I(4)], ExecMode::Parallel { threads: THREADS })
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_fun3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_matrix_fun3d");
    g.sample_size(10);
    for (name, sched) in SCHEDULES {
        let cfg = fun3d::variants::Fun3dConfig::best();
        let engine = Session::solo(fun3d::variants::build_artifact(
            fun3d::variants::Fun3dVariant::Glaf(cfg),
        ));
        engine.set_schedule_override_all(sched);
        engine.run("build_mesh", &[ArgVal::I(120)], ExecMode::Serial).unwrap();
        g.bench_function(format!("edgejp_{name}"), |b| {
            b.iter(|| {
                engine.run("edgejp", &[], ExecMode::Parallel { threads: THREADS }).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_skewed(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_matrix_skewed");
    g.sample_size(10);
    for (name, sched) in SCHEDULES {
        let engine = Session::compile(&[SKEWED]).unwrap();
        engine.set_schedule_override_all(sched);
        g.bench_function(format!("triangular_{name}"), |b| {
            b.iter(|| {
                engine
                    .run("skewed", &[ArgVal::I(128)], ExecMode::Parallel { threads: THREADS })
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sarb, bench_fun3d, bench_skewed);
criterion_main!(benches);
