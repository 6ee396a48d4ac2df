//! Ablation studies over the machine model and the directive policies —
//! the design-choice experiments DESIGN.md §4 calls out:
//!
//! * **fork-cost sweep** — how the Fig. 5 ladder's crossover moves as the
//!   OpenMP fork/join cost varies (the paper's entire v0→v3 story is a
//!   fork-cost-vs-loop-size tradeoff);
//! * **SIMD-width sweep** — how much of the serial baseline's advantage
//!   comes from the compiler-vectorization model;
//! * **cost-model policy** — the §4.1.2 future-work advisor vs. the
//!   manual ladder (decision quality measured as simulated cycles).

use criterion::{criterion_group, criterion_main, Criterion};
use fortrans::{ArgVal, ExecMode, Session};
use sarb::variants::{build_artifact, SarbVariant};
use simcpu::{time_trace, MachineModel};

fn trace_for(variant: SarbVariant, threads: usize) -> fortrans::CostTrace {
    Session::solo(build_artifact(variant))
        .run("run_columns", &[ArgVal::I(2)], ExecMode::Simulated { threads })
        .unwrap()
        .trace
}

fn bench_fork_cost_sweep(c: &mut Criterion) {
    let v0 = trace_for(SarbVariant::GlafParallel(0), 4);
    let mut g = c.benchmark_group("ablation_fork_cost");
    g.sample_size(30);
    for fork in [500.0f64, 1_100.0, 5_000.0, 20_000.0] {
        let mut m = MachineModel::i5_2400_like();
        m.fork_join_base = fork;
        g.bench_function(format!("v0_time_trace_fork{fork}"), |b| {
            b.iter(|| time_trace(&v0, &m))
        });
    }
    g.finish();

    // Report the ablation data itself once (criterion measures the model's
    // evaluation cost; the interesting numbers go to stdout).
    let serial = trace_for(SarbVariant::OriginalSerial, 4);
    println!("\nfork-cost ablation (v0 speed-up vs original serial):");
    for fork in [250.0f64, 500.0, 1_100.0, 2_500.0, 5_000.0, 20_000.0] {
        let mut m = MachineModel::i5_2400_like();
        m.fork_join_base = fork;
        let s = time_trace(&serial, &m).total_cycles / time_trace(&v0, &m).total_cycles;
        println!("  fork_join_base {fork:>8.0} cycles -> v0 speed-up {s:.3}");
    }
}

fn bench_simd_sweep(c: &mut Criterion) {
    let serial = trace_for(SarbVariant::OriginalSerial, 4);
    let v3 = trace_for(SarbVariant::GlafParallel(3), 4);
    let mut g = c.benchmark_group("ablation_simd_width");
    g.sample_size(30);
    g.bench_function("time_trace_baseline", |b| {
        let m = MachineModel::i5_2400_like();
        b.iter(|| time_trace(&serial, &m))
    });
    g.finish();

    println!("\nSIMD-width ablation (v3 speed-up vs original serial):");
    for width in [1.0f64, 2.0, 4.0, 8.0] {
        let mut m = MachineModel::i5_2400_like();
        m.simd_width = width;
        let s = time_trace(&serial, &m).total_cycles / time_trace(&v3, &m).total_cycles;
        println!("  simd_width {width:>3.0} -> v3 speed-up {s:.3}");
    }
}

fn bench_costmodel_vs_ladder(c: &mut Criterion) {
    let m = MachineModel::i5_2400_like();
    let serial = trace_for(SarbVariant::OriginalSerial, 4);
    let base = time_trace(&serial, &m).total_cycles;
    let mut g = c.benchmark_group("ablation_costmodel");
    g.sample_size(10);
    g.bench_function("costmodel_full_run", |b| {
        b.iter(|| trace_for(SarbVariant::GlafCostModel, 4))
    });
    g.finish();

    println!("\ncost-model policy vs manual ladder (speed-up vs original serial):");
    for v in [
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(1),
        SarbVariant::GlafParallel(2),
        SarbVariant::GlafParallel(3),
        SarbVariant::GlafCostModel,
    ] {
        let t = trace_for(v, 4);
        println!("  {:26} {:.3}", v.name(), base / time_trace(&t, &m).total_cycles);
    }
}

criterion_group!(benches, bench_fork_cost_sweep, bench_simd_sweep, bench_costmodel_vs_ladder);
criterion_main!(benches);
