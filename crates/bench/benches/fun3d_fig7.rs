//! Figure 7 measurement kernels under criterion: the key FUN3D
//! configurations (the full matrix is printed by `repro_fig7`).

use criterion::{criterion_group, criterion_main, Criterion};
use fun3d::variants::{run_simulated, Fun3dConfig, Fun3dVariant};
use simcpu::MachineModel;

const NC: i64 = 300;

fn bench_fig7_key_configs(c: &mut Criterion) {
    let m = MachineModel::xeon_e5_2637v4_dual_like();
    let mut g = c.benchmark_group("fig7_key_configs");
    g.sample_size(10);
    let cases: Vec<(&str, Fun3dVariant)> = vec![
        ("original_serial", Fun3dVariant::OriginalSerial),
        ("manual_parallel", Fun3dVariant::ManualParallel),
        ("glaf_serial_realloc", Fun3dVariant::Glaf(Fun3dConfig::default())),
        (
            "glaf_serial_norealloc",
            Fun3dVariant::Glaf(Fun3dConfig { no_realloc: true, ..Default::default() }),
        ),
        ("glaf_best_edgejp_norealloc", Fun3dVariant::Glaf(Fun3dConfig::best())),
        (
            "glaf_all_nested_realloc",
            Fun3dVariant::Glaf(Fun3dConfig {
                par_edgejp: true,
                par_cell_loop: true,
                par_edge_loop: true,
                par_ioff_search: true,
                no_realloc: false,
                fuse: false,
            }),
        ),
    ];
    for (name, v) in cases {
        g.bench_function(name, |b| b.iter(|| run_simulated(v, NC, 16, &m)));
    }
    g.finish();
}

fn bench_native_oracles(c: &mut Criterion) {
    let mesh = fun3d::mesh::Mesh::build(2000);
    let mut g = c.benchmark_group("fun3d_native");
    g.sample_size(20);
    g.bench_function("native_serial", |b| b.iter(|| fun3d::native::native_jacobian(&mesh)));
    g.bench_function("native_parallel", |b| {
        b.iter(|| fun3d::native::native_jacobian_parallel(&mesh))
    });
    g.finish();
}

criterion_group!(benches, bench_fig7_key_configs, bench_native_oracles);
criterion_main!(benches);
