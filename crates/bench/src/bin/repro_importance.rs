//! Reproduces the **§4.4 importance analysis**: the most important
//! predictors for the chronological models.
//!
//! Paper findings: for Opteron systems the neural network ranks processor
//! speed (0.659), memory frequency (0.154), L2 on/off chip (0.147), and L1
//! data cache size (0.139); the regression keeps processor speed (β* 0.915)
//! and memory size (β* 0.119). For Pentium D the network adds L2 cache
//! size (0.500) and sharing flags; the regression keeps processor speed
//! (0.733), L2 size (0.583), memory size, memory frequency, and L1 size.

use bench::banner;
use dse::chrono::{try_run_chronological, ChronoConfig};
use dse::report::{f, try_render_table};
use mlmodels::ModelKind;
use specdata::ProcessorFamily;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (_, seed, _run) = banner("§4.4: predictor importance", &[])?;

    for fam in [ProcessorFamily::Opteron, ProcessorFamily::PentiumD] {
        let cfg = ChronoConfig {
            train_year: 2005,
            models: vec![ModelKind::NnE, ModelKind::LrE],
            data_seed: seed,
            seed,
            estimate_errors: false,
            export_models: None,
        };
        let r = try_run_chronological(fam, &cfg)?;
        println!("{} — top predictors:", fam.name());
        for p in &r.points {
            let label = if p.model.is_linear() {
                "|standardized beta|"
            } else {
                "sensitivity (top = 1.0)"
            };
            println!("  {} ({label}):", p.model.abbrev());
            let rows: Vec<Vec<String>> = p
                .importance
                .iter()
                .take(6)
                .map(|imp| vec![imp.name.clone(), f(imp.score, 3)])
                .collect();
            let table = try_render_table(&["predictor".into(), "score".into()], &rows)?;
            for line in table.lines() {
                println!("    {line}");
            }
        }
        println!();
    }
    println!(
        "Paper reference — Opteron NN: processor speed 0.659, memory freq 0.154, \
         L2 on/off chip 0.147, L1D size 0.139; Opteron LR: speed 0.915, memory size 0.119."
    );
    println!(
        "Pentium D NN: speed 0.570, L2 size 0.500, L1 shared 0.206, L2 shared 0.154, \
         L1D 0.145, bus 0.120; LR: speed 0.733, L2 0.583, mem size 0.001, mem freq 0.094, L1 0.297."
    );
    Ok(())
}
