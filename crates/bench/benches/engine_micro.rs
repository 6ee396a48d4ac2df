//! Microbenchmarks of the reproduction stack itself: lexing/parsing/
//! resolution throughput, interpreter execution in each mode, and the
//! GLAF pipeline (analyze + generate).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fortrans::{ArgVal, ExecMode, ExecTier, Session};
use glaf::Glaf;
use glaf_codegen::CodegenOptions;

const KERNEL: &str = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION work(a, n)
    REAL(8), DIMENSION(1:4096) :: a
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    !$OMP PARALLEL DO REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + SIN(a(i)) * COS(a(i)) + SQRT(ABS(a(i)))
    END DO
    !$OMP END PARALLEL DO
    work = acc
  END FUNCTION work
END MODULE m
"#;

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    g.bench_function("parse_resolve_sarb_original", |b| {
        b.iter(|| {
            Session::compile(&[
                sarb::legacy::FULIOU_MOD_SRC,
                sarb::original::ORIGINAL_KERNELS_SRC,
                sarb::legacy::DRIVER_SRC,
            ])
            .unwrap()
        })
    });
    g.bench_function("glaf_pipeline_sarb", |b| {
        b.iter(|| {
            let g = Glaf::new(sarb::glaf_model::build_sarb_program()).unwrap();
            g.generate(glaf::Lang::Fortran, &CodegenOptions::parallel_version(3))
        })
    });
    g.finish();
}

fn bench_exec_modes(c: &mut Criterion) {
    let engine = Session::compile(&[KERNEL]).unwrap();
    let data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.001).collect();
    let mut g = c.benchmark_group("exec_modes");
    g.sample_size(20);
    for (name, mode) in [
        ("serial", ExecMode::Serial),
        ("parallel_4t", ExecMode::Parallel { threads: 4 }),
        ("simulated_4t", ExecMode::Simulated { threads: 4 }),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || ArgVal::array_f(&data, 1),
                |a| engine.run("work", &[a, ArgVal::I(4096)], mode).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The zero-overhead contract of `fortrans::trace`: `plain` (no
/// collector — the default `Session::run` path) against `profiled`
/// (`Session::run_profiled`, spans + step counts + omprt metrics on).
/// Tracing only branches at unit/loop/region boundaries, so the two
/// series should be indistinguishable on this iteration-heavy kernel;
/// a gap opening up here means the disabled path grew a real cost.
fn bench_tracing_overhead(c: &mut Criterion) {
    let engine = Session::compile(&[KERNEL]).unwrap();
    let data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.001).collect();
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(20);
    g.bench_function("plain", |b| {
        b.iter_batched(
            || ArgVal::array_f(&data, 1),
            |a| engine.run("work", &[a, ArgVal::I(4096)], ExecMode::Serial).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("profiled", |b| {
        b.iter_batched(
            || ArgVal::array_f(&data, 1),
            |a| {
                engine
                    .run_profiled("work", &[a, ArgVal::I(4096)], ExecMode::Serial, ExecTier::Vm)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("omprt");
    g.sample_size(30);
    let pool = omprt::ThreadPool::new(4);
    g.bench_function("fork_join_empty", |b| {
        b.iter(|| pool.run(|_tid| {}).unwrap());
    });
    g.bench_function("atomic_f64_add_10k", |b| {
        let cell = omprt::AtomicF64Cell::new(0.0);
        b.iter(|| {
            for _ in 0..10_000 {
                cell.fetch_add(1.0);
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_compile, bench_exec_modes, bench_tracing_overhead, bench_runtime);
criterion_main!(benches);
