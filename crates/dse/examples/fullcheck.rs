//! Full-space sampled-DSE check at the paper's rates.
use cpusim::{Benchmark, DesignSpace, SimOptions};
use dse::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use mlmodels::ModelKind;
use std::time::Instant;

fn main() -> fault::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map(|s| s.as_str()).unwrap_or("applu");
    let insts: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let b = Benchmark::from_name(bench)
        .ok_or_else(|| fault::Error::invalid(format!("unknown benchmark '{bench}'")))?;
    let space = DesignSpace::table1();
    let t0 = Instant::now();
    let cfg = SampledConfig {
        sampling_rates: vec![0.01, 0.03, 0.05],
        strategy: SamplingStrategy::Random,
        models: vec![ModelKind::NnE, ModelKind::NnS, ModelKind::LrB],
        sim: SimOptions {
            instructions: insts,
            ..Default::default()
        },
        seed: 11,
        estimate_errors: true,
        export_models: None,
    };
    let run = try_run_sampled_dse(b, &space, &cfg, None, None)?;
    println!(
        "== {} range {:.2} var {:.3} ({} cfgs in {:.0?})",
        b.name(),
        run.range,
        run.variation,
        run.space_size,
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
    Ok(())
}
