//! Benchmark the Figure 2 machinery: the per-component least-squares fits
//! (Table II line 10).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hslb_cesm::{calib, Component, Resolution};
use hslb_nlsq::{fit_scaling, ScalingFitOptions};

fn bench_component_fits(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_fit");
    for &component in &Component::OPTIMIZED {
        let data = calib::observations(Resolution::EighthDegree, component);
        group.bench_with_input(
            BenchmarkId::from_parameter(component.label()),
            &data,
            |b, data| {
                b.iter(|| {
                    let fit = fit_scaling(data, &ScalingFitOptions::default()).unwrap();
                    std::hint::black_box(fit.r_squared)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_component_fits
}
criterion_main!(benches);
