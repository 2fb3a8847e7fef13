//! End-to-end sampled-DSE cost at the paper's 1 % sampling rate: sweep
//! the Medium design space once (setup, untimed), then time the full
//! sample → train → cross-validate → predict-the-space pipeline.
//!
//! This is the macro-benchmark behind the selection speedup claim: the
//! linear-regression methods route through `try_select`'s incremental
//! Gram engine, so their end-to-end cost here moves with the `selection`
//! micro-benchmarks.

use bench::Scale;
use cpusim::runner::try_sweep_design_space;
use cpusim::Benchmark;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dse::adaptive::{try_run_adaptive, AdaptiveConfig, EvalMode};
use dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use mlmodels::ModelKind;
use std::hint::black_box;
use std::time::Instant;

fn config(sim: cpusim::SimOptions, models: Vec<ModelKind>) -> SampledConfig {
    SampledConfig {
        sampling_rates: vec![0.01],
        strategy: SamplingStrategy::Random,
        models,
        sim,
        seed: 0xD5E,
        estimate_errors: true,
        export_models: None,
    }
}

fn bench_dse(c: &mut Criterion) {
    let scale = Scale::Medium;
    let space = scale.space();
    let sim = scale.sim_options();
    // One sweep shared by every iteration: the simulator's cost is covered
    // by the `simulator` benchmark; here only the modelling pipeline is
    // timed.
    let sweep = try_sweep_design_space(&space, Benchmark::Gcc, &sim, None)
        .expect("sweep")
        .results;

    // Record one representative end-to-end timing into telemetry counters
    // (visible in `--metrics-out` manifests).
    let t0 = Instant::now();
    let run = try_run_sampled_dse(
        Benchmark::Gcc,
        &space,
        &config(sim, vec![ModelKind::LrS, ModelKind::LrB]),
        Some(sweep.clone()),
        None,
    )
    .expect("sampled DSE");
    telemetry::counter_add("bench/dse_lr_1pct_ns", t0.elapsed().as_nanos() as u64);
    assert!(
        !run.points.is_empty(),
        "sampled DSE produced no measurements"
    );

    let mut group = c.benchmark_group("dse");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    for (name, models) in [
        ("sampled_1pct_lr", vec![ModelKind::LrS, ModelKind::LrB]),
        ("sampled_1pct_nnq", vec![ModelKind::NnQ]),
    ] {
        let cfg = config(sim, models);
        group.bench_function(name, |b| {
            b.iter_batched(
                || sweep.clone(),
                |sw| {
                    black_box(try_run_sampled_dse(
                        Benchmark::Gcc,
                        &space,
                        &cfg,
                        Some(sw),
                        None,
                    ))
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // Adaptive (query-by-committee) trajectory at equal budget against the
    // one-shot random baseline, on a precomputed sweep so only the
    // modelling + acquisition loop is timed.
    let quick_space = Scale::Quick.space();
    let quick_sim = Scale::Quick.sim_options();
    let quick_sweep = try_sweep_design_space(&quick_space, Benchmark::Gcc, &quick_sim, None)
        .expect("sweep")
        .results;
    let acfg = AdaptiveConfig {
        initial: 16,
        batch: 8,
        rounds: 2,
        committee: 3,
        eval: EvalMode::FullSpace,
        member: ModelKind::NnS,
        final_model: ModelKind::NnS,
        sim: quick_sim,
        seed: 0xADA,
        ..Default::default()
    };
    let mut agroup = c.benchmark_group("dse");
    agroup.sample_size(10);
    agroup.warm_up_time(std::time::Duration::from_millis(500));
    agroup.measurement_time(std::time::Duration::from_secs(5));
    agroup.bench_function("adaptive_vs_random_quick", |b| {
        b.iter_batched(
            || quick_sweep.clone(),
            |sw| {
                black_box(try_run_adaptive(
                    Benchmark::Gcc,
                    &quick_space,
                    &acfg,
                    Some(sw),
                    None,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    agroup.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
