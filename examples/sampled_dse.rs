//! Sampled design-space exploration, end to end — the paper's §4.2 workflow
//! on one benchmark, comparing all ten models and the *select* method.
//!
//! Run with: `cargo run --release --example sampled_dse [benchmark]`
//! (default benchmark: mesa)

use perfpredict::cpusim::{Benchmark, DesignSpace, SimOptions};
use perfpredict::dse::report::{pct, try_render_table};
use perfpredict::dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use perfpredict::dse::selectbest::select_method_series;
use perfpredict::error::{Error, Result};
use perfpredict::mlmodels::ModelKind;

fn main() -> Result<()> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mesa".into());
    let benchmark = Benchmark::from_name(&name).ok_or_else(|| {
        Error::invalid(format!(
            "unknown benchmark '{name}' (try applu/equake/gcc/mesa/mcf)"
        ))
    })?;

    // Every 4th configuration keeps the example minutes-fast while
    // preserving the lattice structure.
    let full = DesignSpace::table1();
    let space = DesignSpace::from_configs(full.configs().iter().copied().step_by(4).collect());

    let cfg = SampledConfig {
        sampling_rates: vec![0.02, 0.05],
        strategy: SamplingStrategy::Random,
        models: ModelKind::ALL.to_vec(),
        sim: SimOptions {
            instructions: 40_000,
            ..Default::default()
        },
        seed: 7,
        estimate_errors: true,
        export_models: None,
    };

    println!(
        "sampled DSE on {} — {} configurations, sampling at 2% and 5%…",
        benchmark.name(),
        space.len()
    );
    let run = try_run_sampled_dse(benchmark, &space, &cfg, None, None)?;
    println!(
        "cycle range over the space: {:.2}x, variation {:.3}\n",
        run.range, run.variation
    );

    for &rate in &cfg.sampling_rates {
        println!("sampling rate {:.0}%:", rate * 100.0);
        let mut rows: Vec<Vec<String>> = Vec::new();
        for m in ModelKind::ALL {
            let p = run.point(m, rate).expect("point");
            rows.push(vec![
                m.abbrev().to_string(),
                pct(p.true_error),
                pct(p.estimated.expect("estimated").max),
            ]);
        }
        rows.sort_by(|a, b| {
            a[1].parse::<f64>()
                .unwrap()
                .total_cmp(&b[1].parse::<f64>().unwrap())
        });
        print!(
            "{}",
            try_render_table(
                &[
                    "model".into(),
                    "true err %".into(),
                    "estimated (max) %".into()
                ],
                &rows,
            )?
        );
        println!();
    }

    println!("select method (best estimated error wins):");
    for s in select_method_series(&run)? {
        println!(
            "  at {:.0}% sampling -> picks {} (true error {:.2}%)",
            s.rate * 100.0,
            s.chosen.abbrev(),
            s.true_error
        );
    }
    Ok(())
}
