//! Ablation of the sampling strategy.
//!
//! §4.2 attributes error-rate wobble to random sample selection: "even
//! though the data selection is random, it is possible that the selected
//! points may not be uniform through out the design space". This harness
//! compares the paper's uniform-random draw against systematic and
//! predictor-stratified sampling at 1 % and 3 %.

use bench::banner;
use cpusim::runner::try_sweep_design_space;
use cpusim::Benchmark;
use dse::report::{f, try_render_table};
use dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use mlmodels::ModelKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _run) = banner(
        "ablation: sampling strategy (random vs systematic vs stratified)",
        &[],
    )?;

    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;
    // Share one sweep across all strategies.
    let sweep = try_sweep_design_space(&space, Benchmark::Gcc, &sim, None)?.results;

    let mut rows = Vec::new();
    for (name, strategy) in [
        ("random (paper)", SamplingStrategy::Random),
        ("systematic", SamplingStrategy::Systematic),
        ("stratified", SamplingStrategy::StratifiedByPredictor),
    ] {
        let cfg = SampledConfig {
            sampling_rates: vec![0.01, 0.03],
            strategy,
            models: vec![ModelKind::NnS, ModelKind::LrB],
            sim,
            seed,
            estimate_errors: false,
            export_models: None,
        };
        let run = try_run_sampled_dse(Benchmark::Gcc, &space, &cfg, Some(sweep.clone()), None)?;
        // A fit that failed is dropped from the run, not fatal: render "-".
        let cell = |kind, rate| {
            run.point(kind, rate)
                .map_or_else(|| "-".to_string(), |p| f(p.true_error, 2))
        };
        rows.push(vec![
            name.to_string(),
            cell(ModelKind::NnS, 0.01),
            cell(ModelKind::NnS, 0.03),
            cell(ModelKind::LrB, 0.01),
            cell(ModelKind::LrB, 0.03),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "strategy".into(),
                "NN-S @1%".into(),
                "NN-S @3%".into(),
                "LR-B @1%".into(),
                "LR-B @3%".into(),
            ],
            &rows,
        )?
    );
    Ok(())
}
