//! Reproduces the **sampled design-space study** (§4.2) from one
//! `try_run_sampled_dse` per presented application (applu, equake, gcc,
//! mesa, mcf), each simulated once, with NN-E, NN-S and LR-B trained at
//! 1–5 % sampling and their errors estimated:
//!
//! * **Figures 2–6** — estimated vs. true error of each application;
//! * **Table 3** — "Average accuracy results from SPEC simulations": the
//!   mean true error over the five applications for LR-B, NN-E, NN-S and
//!   the *select* method, above the paper's values;
//! * **§4.1** — each application's cycle range and variation over the
//!   simulated design space, next to the paper's.
//!
//! A fit that failed is dropped from its run, not fatal: its cells print
//! as "-" (a Table 3 cell as soon as one application lacks the point),
//! and the reasons go to stderr.
//!
//! Usage: `repro_sampled [--scale quick|medium|full] [--seed N]`

use bench::banner;
use cpusim::Benchmark;
use dse::report::{f, pct, render_series, try_render_table};
use dse::sampled::{try_run_sampled_dse, SampledConfig, SampledRun, SamplingStrategy};
use dse::selectbest::try_select_method_error;
use linalg::stats::mean;
use mlmodels::ModelKind;
use std::process::ExitCode;

/// The paper's sampling rates.
const RATES: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];

/// Table 3 as printed in the paper.
const PAPER_TABLE3: [(&str, [f64; 5]); 4] = [
    ("LR-B", [4.2, 4.0, 3.82, 3.8, 3.8]),
    ("NN-E", [3.48, 2.04, 1.14, 0.94, 0.88]),
    ("NN-S", [5.94, 3.18, 2.22, 1.16, 1.5]),
    ("Select", [3.4, 2.6, 1.14, 0.94, 0.88]),
];

/// The figure that plots an application, and its §4.1 cycle range and
/// variation as printed in the paper.
fn paper(b: Benchmark) -> (&'static str, Option<(f64, f64)>) {
    match b {
        Benchmark::Applu => ("Figure 2", Some((1.62, 0.16))),
        Benchmark::Equake => ("Figure 3", Some((1.73, 0.19))),
        Benchmark::Gcc => ("Figure 4", Some((5.27, 0.33))),
        Benchmark::Mcf => ("Figure 5", Some((6.38, 0.71))),
        Benchmark::Mesa => ("Figure 6", Some((2.22, 0.19))),
        _ => ("(extension)", None),
    }
}

/// A two-decimal cell, or "-" for a value a dropped fit left missing.
fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), pct)
}

/// One application's figure: true and estimated error per model and rate.
fn figure(run: &SampledRun) -> String {
    let xs: Vec<String> = RATES.iter().map(|r| f(r * 100.0, 0)).collect();
    let names = ["NN-E", "NN-E-est", "NN-S", "NN-S-est", "LR-B", "LR-B-est"];
    let mut curves = Vec::new();
    for (m, names) in ModelKind::FIGURE2_ORDER.into_iter().zip(names.chunks(2)) {
        let point = |r| run.point(m, r);
        let truth = RATES.map(|r| point(r).map_or(f64::NAN, |p| p.true_error));
        let estimate = RATES.map(|r| {
            point(r)
                .and_then(|p| p.estimated)
                .map_or(f64::NAN, |e| e.max)
        });
        curves.push((names[0], truth.to_vec()));
        curves.push((names[1], estimate.to_vec()));
    }
    format!(
        "{}: {} — mean % error vs training sample size (space {} configs, cycle range {:.2})\n{}\n",
        paper(run.benchmark).0,
        run.benchmark.name(),
        run.space_size,
        run.range,
        render_series("sample%", &xs, &curves)
    )
}

/// Table 3: per model and rate, the mean true error over `runs`; the
/// *select* row takes each run's model with the lowest estimated error.
fn table3(runs: &[SampledRun]) -> fault::Result<String> {
    let mut rows = Vec::new();
    for m in [ModelKind::LrB, ModelKind::NnE, ModelKind::NnS] {
        let mut row = vec![m.abbrev().to_string()];
        row.extend(RATES.iter().map(|&r| {
            let errors: Option<Vec<f64>> = runs
                .iter()
                .map(|run| run.point(m, r).map(|p| p.true_error))
                .collect();
            cell(errors.map(|e| mean(&e)))
        }));
        rows.push(row);
    }
    let mut row = vec!["Select".to_string()];
    row.extend(RATES.iter().map(|&r| {
        let errors: fault::Result<Vec<f64>> = runs
            .iter()
            .map(|run| Ok(try_select_method_error(run, r)?.true_error))
            .collect();
        match errors {
            Ok(e) => cell(Some(mean(&e))),
            Err(e) => {
                eprintln!("select at {}%: {e}", f(r * 100.0, 0));
                cell(None)
            }
        }
    }));
    rows.push(row);
    for (name, vals) in PAPER_TABLE3 {
        let mut row = vec![format!("paper {name}")];
        row.extend(vals.iter().map(|v| f(*v, 2)));
        rows.push(row);
    }
    try_render_table(
        &["method", "1%", "2%", "3%", "4%", "5%"].map(String::from),
        &rows,
    )
}

/// §4.1: each application's cycle range and variation over the space.
fn simulated_space(runs: &[SampledRun]) -> fault::Result<String> {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let theirs = paper(run.benchmark).1;
            vec![
                run.benchmark.name().to_string(),
                f(run.range, 2),
                cell(theirs.map(|p| p.0)),
                f(run.variation, 2),
                cell(theirs.map(|p| p.1)),
            ]
        })
        .collect();
    try_render_table(
        &[
            "benchmark",
            "range",
            "paper range",
            "variation",
            "paper var",
        ]
        .map(String::from),
        &rows,
    )
}

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _run) = banner(
        "sampled design-space exploration (Figures 2–6, Table 3, §4.1)",
        &[],
    )?;
    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;
    let cfg = SampledConfig {
        sampling_rates: RATES.to_vec(),
        strategy: SamplingStrategy::Random,
        models: ModelKind::FIGURE2_ORDER.to_vec(),
        sim,
        seed,
        estimate_errors: true,
        export_models: None,
    };

    let mut runs = Vec::new();
    for b in Benchmark::PRESENTED {
        let run = try_run_sampled_dse(b, &space, &cfg, None, None)?;
        for d in &run.dropped {
            eprintln!(
                "{}: dropped {} at {}%: {}",
                b.name(),
                d.model.abbrev(),
                f(d.rate * 100.0, 0),
                d.detail
            );
        }
        print!("{}", figure(&run));
        runs.push(run);
    }
    println!(
        "Table 3: average sampled-DSE accuracy (mean true error % over the five applications)"
    );
    print!("{}", table3(&runs)?);
    println!(
        "\n§4.1 simulated design-space statistics ({} configs):",
        space.len()
    );
    print!("{}", simulated_space(&runs)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse::sampled::{DroppedFit, SampledPoint};
    use mlmodels::crossval::ErrorEstimate;

    /// Every (model, rate) point for `b` with true error 10 × rate and
    /// estimate 2.0, except a `missing` one, whose fit is recorded as
    /// dropped.
    fn sampled_run(b: Benchmark, missing: Option<(ModelKind, f64)>) -> SampledRun {
        let mut points = Vec::new();
        for model in ModelKind::FIGURE2_ORDER {
            for rate in RATES {
                if missing != Some((model, rate)) {
                    points.push(SampledPoint {
                        model,
                        rate,
                        sample_size: 8,
                        true_error: 10.0 * rate,
                        true_error_std: 0.0,
                        estimated: Some(ErrorEstimate {
                            mean: 1.0,
                            max: 2.0,
                        }),
                    });
                }
            }
        }
        let dropped = missing
            .map(|(model, rate)| DroppedFit {
                model,
                rate,
                reason: "diverged".into(),
                detail: "diverged".into(),
            })
            .into_iter()
            .collect();
        SampledRun {
            benchmark: b,
            space_size: 288,
            range: 2.0,
            variation: 0.25,
            points,
            dropped,
        }
    }

    /// The cells of the row of `table` whose first cell is `first`.
    fn row<'a>(table: &'a str, first: &str) -> Vec<&'a str> {
        let line = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(first))
            .unwrap_or_else(|| panic!("no row {first} in\n{table}"));
        line.split_whitespace().collect()
    }

    #[test]
    fn a_dropped_fit_renders_as_a_dash() {
        let mcf = sampled_run(Benchmark::Mcf, Some((ModelKind::NnS, 0.03)));
        let fig = figure(&mcf);
        assert!(fig.starts_with("Figure 5: mcf"), "{fig}");
        assert_eq!(
            row(&fig, "3"),
            ["3", "0.30", "2.00", "-", "-", "0.30", "2.00"]
        );
        assert_eq!(
            row(&fig, "4"),
            ["4", "0.40", "2.00", "0.40", "2.00", "0.40", "2.00"]
        );

        let t3 = table3(&[sampled_run(Benchmark::Applu, None), mcf]).expect("table 3");
        assert_eq!(
            row(&t3, "NN-S"),
            ["NN-S", "0.10", "0.20", "-", "0.40", "0.50"]
        );
        assert_eq!(
            row(&t3, "LR-B"),
            ["LR-B", "0.10", "0.20", "0.30", "0.40", "0.50"]
        );
        assert_eq!(
            row(&t3, "Select"),
            ["Select", "0.10", "0.20", "0.30", "0.40", "0.50"]
        );
    }

    #[test]
    fn the_simulated_space_table_sets_each_application_beside_the_paper() {
        let t = simulated_space(&[sampled_run(Benchmark::Gcc, None)]).expect("table");
        assert_eq!(row(&t, "gcc"), ["gcc", "2.00", "5.27", "0.25", "0.33"]);
    }
}
