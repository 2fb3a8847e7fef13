//! Shape validation: paper's headline orderings on reduced spaces.
use cpusim::{Benchmark, DesignSpace, SimOptions};
use dse::{
    try_run_chronological, try_run_sampled_dse, ChronoConfig, SampledConfig, SamplingStrategy,
};
use mlmodels::ModelKind;
use specdata::ProcessorFamily;
use std::time::Instant;

fn main() -> fault::Result<()> {
    // Sampled DSE on a 1152-config subspace, 2% and 5% sampling.
    let full = DesignSpace::table1();
    let sub = DesignSpace::from_configs(full.configs().iter().copied().step_by(4).collect());
    for b in [Benchmark::Applu, Benchmark::Mcf] {
        let t0 = Instant::now();
        let cfg = SampledConfig {
            sampling_rates: vec![0.02, 0.05],
            strategy: SamplingStrategy::Random,
            models: vec![ModelKind::NnE, ModelKind::NnS, ModelKind::LrB],
            sim: SimOptions {
                instructions: 60_000,
                ..Default::default()
            },
            seed: 11,
            estimate_errors: true,
            export_models: None,
        };
        let run = try_run_sampled_dse(b, &sub, &cfg, None, None)?;
        println!(
            "== {} (range {:.2}) in {:.0?}",
            b.name(),
            run.range,
            t0.elapsed()
        );
        for p in &run.points {
            println!(
                "  {} rate {:.0}% n={} true {:.2}% est(max) {:.2}%",
                p.model.abbrev(),
                p.rate * 100.0,
                p.sample_size,
                p.true_error,
                p.estimated.map(|e| e.max).unwrap_or(f64::NAN)
            );
        }
    }
    // Chronological on three families.
    for fam in [
        ProcessorFamily::Xeon,
        ProcessorFamily::Opteron2,
        ProcessorFamily::Opteron8,
    ] {
        let cfg = ChronoConfig::default();
        let t0 = Instant::now();
        let r = try_run_chronological(fam, &cfg)?;
        println!(
            "== {} (train {} test {}) in {:.0?}",
            fam.name(),
            r.n_train,
            r.n_test,
            t0.elapsed()
        );
        for p in &r.points {
            println!(
                "  {} {:.2}% ± {:.2}",
                p.model.abbrev(),
                p.error_mean,
                p.error_std
            );
        }
    }
    Ok(())
}
