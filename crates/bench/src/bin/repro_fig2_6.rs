//! Reproduces **Figures 2–6** — estimated vs. true error for the sampled
//! design-space exploration of one benchmark (applu, equake, gcc, mcf,
//! mesa), plotting NN-E, NN-S, and LR-B at 1–5 % sampling.
//!
//! Usage: `repro_fig2_6 [--scale quick|medium|full] [--app applu] [--all]`
//! — `--all` runs all five presented applications (Figures 2 through 6).

use bench::banner;
use cpusim::{Benchmark, DesignSpace};
use dse::report::render_series;
use dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use fault::args::Flag;
use mlmodels::ModelKind;
use std::process::ExitCode;

fn run_one(b: Benchmark, space: &DesignSpace, cfg: &SampledConfig) -> fault::Result<()> {
    let figure = match b {
        Benchmark::Applu => "Figure 2",
        Benchmark::Equake => "Figure 3",
        Benchmark::Gcc => "Figure 4",
        Benchmark::Mcf => "Figure 5",
        Benchmark::Mesa => "Figure 6",
        _ => "(extension)",
    };
    let run = try_run_sampled_dse(b, space, cfg, None, None)?;
    println!(
        "{figure}: {} — mean % error vs training sample size (space {} configs, cycle range {:.2})",
        b.name(),
        run.space_size,
        run.range
    );
    let xs: Vec<String> = cfg
        .sampling_rates
        .iter()
        .map(|r| format!("{:.0}", r * 100.0))
        .collect();
    let mut curves: Vec<(&str, Vec<f64>)> = Vec::new();
    let names = ["NN-E", "NN-E-est", "NN-S", "NN-S-est", "LR-B", "LR-B-est"];
    let models = [ModelKind::NnE, ModelKind::NnS, ModelKind::LrB];
    for (mi, m) in models.iter().enumerate() {
        let true_curve: Vec<f64> = cfg
            .sampling_rates
            .iter()
            .map(|&r| run.point(*m, r).expect("point").true_error)
            .collect();
        let est_curve: Vec<f64> = cfg
            .sampling_rates
            .iter()
            .map(|&r| {
                run.point(*m, r)
                    .expect("point")
                    .estimated
                    .expect("estimation enabled")
                    .max
            })
            .collect();
        curves.push((names[mi * 2], true_curve));
        curves.push((names[mi * 2 + 1], est_curve));
    }
    print!("{}", render_series("sample%", &xs, &curves));
    println!();
    Ok(())
}

/// This harness's flags besides the common ones.
const FLAGS: &[Flag] = &[Flag::value("--app", "NAME"), Flag::switch("--all")];

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, run) = banner("Figures 2–6: sampled design-space exploration", FLAGS)?;

    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;
    let cfg = SampledConfig {
        sampling_rates: vec![0.01, 0.02, 0.03, 0.04, 0.05],
        strategy: SamplingStrategy::Random,
        models: ModelKind::FIGURE2_ORDER.to_vec(),
        sim,
        seed,
        estimate_errors: true,
        export_models: None,
    };

    let benches: Vec<Benchmark> = if run.args.has("--all") {
        Benchmark::PRESENTED.to_vec()
    } else {
        let name = run.args.value("--app").unwrap_or("applu");
        vec![Benchmark::from_name(name)
            .ok_or_else(|| fault::Error::invalid(format!("unknown benchmark '{name}'")))?]
    };
    for b in benches {
        run_one(b, &space, &cfg)?;
    }
    Ok(())
}
