//! Design-space sweep scaling: wall time of a parallel sweep (the
//! `cpusim::shard` executor) at different space sizes. Together with
//! `simulator.rs` this quantifies why sampled DSE matters: full-space cost
//! grows linearly in the number of configurations, while the surrogate
//! needs only the sampled fraction.

use cpusim::{try_sweep_design_space, Benchmark, DesignSpace, SimOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let full = DesignSpace::table1();
    let opts = SimOptions {
        instructions: 4_000,
        ..Default::default()
    };
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(6));
    for &n in &[16usize, 64, 256] {
        let sub = DesignSpace::from_configs(full.configs()[..n].to_vec());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &sub, |b, sub| {
            b.iter(|| black_box(try_sweep_design_space(sub, Benchmark::Applu, &opts, None)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
