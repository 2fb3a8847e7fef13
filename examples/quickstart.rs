//! Quickstart: train a surrogate on a small sample of the microprocessor
//! design space and use it to find fast configurations without simulating
//! them.
//!
//! Run with: `cargo run --release --example quickstart`

use perfpredict::cpusim::{try_sweep_design_space, Benchmark, DesignSpace, SimOptions};
use perfpredict::dse::data::try_table_from_sweep;
use perfpredict::mlmodels::{try_train, ModelKind};

fn main() -> perfpredict::error::Result<()> {
    // 1. A design space: every 8th point of the paper's 4608-point lattice
    //    keeps this example fast (576 configurations).
    let full = DesignSpace::table1();
    let space = DesignSpace::from_configs(full.configs().iter().copied().step_by(8).collect());
    println!("design space: {} configurations", space.len());

    // 2. Simulate a 5% sample — the only simulator time we spend.
    let sim = SimOptions {
        instructions: 30_000,
        ..Default::default()
    };
    let sample_configs: Vec<_> = space.configs().iter().copied().step_by(20).collect(); // 5% systematic sample
    let sample_space = DesignSpace::from_configs(sample_configs);
    println!("simulating {} sampled configurations…", sample_space.len());
    let sample_results = try_sweep_design_space(&sample_space, Benchmark::Gcc, &sim, None)?.results;
    let sample_table = try_table_from_sweep(&sample_results)?;

    // 3. Train the paper's best model (NN-E, exhaustive-prune network).
    println!("training NN-E on the sample…");
    let model = try_train(ModelKind::NnE, &sample_table, 42)?;

    // 4. Predict the whole space and rank configurations — no simulation.
    // Ground truth for the demo.
    let all_results = try_sweep_design_space(&space, Benchmark::Gcc, &sim, None)?.results;
    let full_table = try_table_from_sweep(&all_results)?;
    let predictions = model.try_predict(&full_table)?;

    let mut ranked: Vec<(usize, f64)> = predictions.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));

    println!("\npredicted fastest configurations for gcc:");
    for &(idx, pred) in ranked.iter().take(3) {
        let cfg = &space.configs()[idx];
        let actual = all_results[idx].cycles;
        println!(
            "  L1I {:>2}KB L1D {:>2}KB L2 {:>4}KB L3 {} bpred {:<11} width {}: predicted {:.0} cycles, simulated {:.0} ({:+.1}% off)",
            cfg.l1i.size_kb,
            cfg.l1d.size_kb,
            cfg.l2.size_kb,
            if cfg.l3.is_some() { "8MB" } else { " - " },
            cfg.bpred.name(),
            cfg.width,
            pred,
            actual,
            100.0 * (pred - actual) / actual,
        );
    }

    // 5. How good is the surrogate overall?
    let (mape, std) = perfpredict::linalg::stats::mape(
        &predictions,
        &all_results.iter().map(|r| r.cycles).collect::<Vec<_>>(),
    );
    println!("\nsurrogate error over the whole space: {mape:.2}% ± {std:.2}%");
    println!(
        "simulator work saved: {} of {} configurations never simulated (in a real DSE)",
        space.len() - sample_space.len(),
        space.len()
    );
    Ok(())
}
