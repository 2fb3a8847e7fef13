//! Simulator throughput: cycles simulated per wall second for one
//! configuration per benchmark. This is the per-point cost the predictive
//! models amortize away (the paper: "each element in the design space can
//! take hours to days to simulate" on real workloads).
//!
//! Also times the serial prologue every sweep runs before its workers
//! start: trace generation alone, and a SimPoint sweep's whole
//! materialization (phase analysis plus the representative windows).

use cpusim::core::Core;
use cpusim::runner::materialize;
use cpusim::trace::TraceGenerator;
use cpusim::{Benchmark, CpuConfig, SimOptions};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const INSTS: u64 = 20_000;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(6));
    group.throughput(Throughput::Elements(INSTS));
    for b in [Benchmark::Applu, Benchmark::Gcc, Benchmark::Mcf] {
        group.bench_function(b.name(), |bench| {
            bench.iter(|| {
                let mut gen = TraceGenerator::for_benchmark(b, 99);
                let mut core = Core::new(CpuConfig::baseline());
                black_box(core.run(&mut gen, INSTS))
            })
        });
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.throughput(Throughput::Elements(INSTS));
    for b in [Benchmark::Applu, Benchmark::Mcf, Benchmark::Gcc] {
        group.bench_function(b.name(), |bench| {
            bench.iter(|| {
                let mut gen = TraceGenerator::for_benchmark(b, 99);
                black_box(gen.take_vec(INSTS as usize))
            })
        });
    }
    group.finish();
}

/// A SimPoint sweep's prologue at the shape perfbench's `sweep` runs:
/// 10 candidate intervals of 30k instructions, `max_k` 4.
fn bench_simpoint(c: &mut Criterion) {
    let opts = SimOptions {
        instructions: 30_000,
        seed: 99,
        use_simpoints: true,
        n_intervals: 10,
        max_k: 4,
    };
    let mut group = c.benchmark_group("simpoint");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.throughput(Throughput::Elements(
        opts.n_intervals as u64 * opts.instructions,
    ));
    group.bench_function(Benchmark::Gcc.name(), |bench| {
        bench.iter(|| black_box(materialize(Benchmark::Gcc, &opts)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_trace_generation,
    bench_simpoint
);
criterion_main!(benches);
