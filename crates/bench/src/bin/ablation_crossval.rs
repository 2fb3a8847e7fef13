//! Ablation of the §3.3 error-estimation protocol.
//!
//! The paper takes the *maximum* of five 50 %-split estimates, noting that
//! "both of the error estimates are very close, and in general maximum
//! gives a closer estimate". This harness measures, over many sampled-DSE
//! repetitions, which statistic (mean vs max of the splits) lands closer
//! to the true error.

use bench::{banner, parse_common_args};
use cpusim::runner::try_sweep_design_space;
use cpusim::Benchmark;
use dse::data::try_table_from_sweep;
use dse::report::{f, try_render_table};
use linalg::dist::{child_seed, sample_indices, seeded_rng};
use linalg::stats::mape;
use mlmodels::crossval::try_estimate_error;
use mlmodels::{try_train, ModelKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner(
        "ablation: estimated-error statistic (mean vs max of 5 splits)",
        scale,
    );

    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;
    let results = try_sweep_design_space(&space, Benchmark::Mesa, &sim, None)?.results;
    let full = try_table_from_sweep(&results)?;
    let n = full.n_rows();
    let k = (n / 20).max(24); // 5% sample

    let mut rows = Vec::new();
    for kind in [ModelKind::LrB, ModelKind::NnS] {
        let mut mean_gap = Vec::new();
        let mut max_gap = Vec::new();
        let mut underestimates_mean = 0usize;
        let mut underestimates_max = 0usize;
        let reps = 8;
        for rep in 0..reps {
            let rep_seed = child_seed(seed, 100 + rep);
            let mut rng = seeded_rng(rep_seed);
            let rows_idx = sample_indices(&mut rng, n, k);
            let sample = full.select_rows(&rows_idx);
            let model = try_train(kind, &sample, rep_seed)?;
            let (true_err, _) = mape(&model.try_predict(&full)?, full.target());
            let est = try_estimate_error(kind, &sample, child_seed(rep_seed, 1))?;
            mean_gap.push((est.mean - true_err).abs());
            max_gap.push((est.max - true_err).abs());
            if est.mean < true_err {
                underestimates_mean += 1;
            }
            if est.max < true_err {
                underestimates_max += 1;
            }
        }
        rows.push(vec![
            kind.abbrev().to_string(),
            f(linalg::stats::mean(&mean_gap), 2),
            f(linalg::stats::mean(&max_gap), 2),
            format!("{underestimates_mean}/{reps}"),
            format!("{underestimates_max}/{reps}"),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "model".into(),
                "|mean est - true|".into(),
                "|max est - true|".into(),
                "mean underestimates".into(),
                "max underestimates".into(),
            ],
            &rows,
        )?
    );
    println!(
        "\npaper's claim to check: the max statistic tracks the true error more \
         closely (smaller gap) and underestimates less often."
    );
    Ok(())
}
