//! Ablation: adaptive (query-by-committee) sampling vs. the paper's
//! one-shot random sampling at equal simulation budgets.

use bench::{banner, parse_common_args};
use cpusim::runner::try_sweep_design_space;
use cpusim::Benchmark;
use dse::adaptive::{try_run_adaptive, AdaptiveConfig};
use dse::report::{f, try_render_table};
use mlmodels::ModelKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner(
        "ablation: adaptive sampling (query-by-committee) vs random",
        scale,
    );

    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;

    for b in [Benchmark::Mesa, Benchmark::Gcc] {
        let sweep = try_sweep_design_space(&space, b, &sim, None)?.results;
        let n = space.len();
        // 1% of the space per round, but never below a trainable floor
        // (quick-scale spaces are small).
        let unit = (n / 100).max(12);
        let cfg = AdaptiveConfig {
            initial: unit,
            batch: unit,
            rounds: 4, // seed + 4 rounds = up to ~5% of the space
            committee: 5,
            member: ModelKind::NnQ,
            final_model: ModelKind::NnE,
            sim,
            seed,
            ..Default::default()
        };
        let r = try_run_adaptive(b, &space, &cfg, Some(sweep), None)?;
        println!("{} ({} configs):", b.name(), n);
        let rows: Vec<Vec<String>> = r
            .trajectory
            .iter()
            .map(|p| {
                vec![
                    p.budget.to_string(),
                    f(p.adaptive_error, 2),
                    f(p.random_error, 2),
                    f(p.random_error - p.adaptive_error, 2),
                ]
            })
            .collect();
        print!(
            "{}",
            try_render_table(
                &[
                    "budget".into(),
                    "adaptive err %".into(),
                    "random err %".into(),
                    "gain %".into(),
                ],
                &rows,
            )?
        );
        println!();
    }
    Ok(())
}
