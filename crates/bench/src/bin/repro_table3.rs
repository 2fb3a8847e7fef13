//! Reproduces **Table 3** — "Average accuracy results from SPEC
//! simulations": the mean (over the five presented applications) of the
//! true error for LR-B, NN-E, NN-S, and the *select* method at 1–5 %
//! sampling.
//!
//! Paper values:
//! ```text
//!          1%    2%    3%    4%    5%
//! LR-B    4.20  4.00  3.82  3.80  3.80
//! NN-E    3.48  2.04  1.14  0.94  0.88
//! NN-S    5.94  3.18  2.22  1.16  1.50
//! Select  3.40  2.60  1.14  0.94  0.88
//! ```

use bench::{banner, parse_common_args};
use cpusim::Benchmark;
use dse::report::{f, try_render_table};
use dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use dse::selectbest::try_select_method_error;
use mlmodels::ModelKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner("Table 3: average sampled-DSE accuracy", scale);

    let rates = [0.01, 0.02, 0.03, 0.04, 0.05];
    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;
    let cfg = SampledConfig {
        sampling_rates: rates.to_vec(),
        strategy: SamplingStrategy::Random,
        models: ModelKind::FIGURE2_ORDER.to_vec(),
        sim,
        seed,
        estimate_errors: true,
        export_models: None,
    };

    // Accumulate true errors per (model, rate) and the select method.
    let mut acc: std::collections::HashMap<(ModelKind, usize), Vec<f64>> = Default::default();
    let mut select_acc: Vec<Vec<f64>> = vec![Vec::new(); rates.len()];
    for b in Benchmark::PRESENTED {
        let run = try_run_sampled_dse(b, &space, &cfg, None, None)?;
        for (ri, &r) in rates.iter().enumerate() {
            for m in ModelKind::FIGURE2_ORDER {
                let p = run.point(m, r).expect("point");
                acc.entry((m, ri)).or_default().push(p.true_error);
            }
            select_acc[ri].push(try_select_method_error(&run, r)?.true_error);
        }
        eprintln!("  … {} done", b.name());
    }

    let paper: &[(&str, [f64; 5])] = &[
        ("LR-B", [4.2, 4.0, 3.82, 3.8, 3.8]),
        ("NN-E", [3.48, 2.04, 1.14, 0.94, 0.88]),
        ("NN-S", [5.94, 3.18, 2.22, 1.16, 1.5]),
        ("Select", [3.4, 2.6, 1.14, 0.94, 0.88]),
    ];

    let mut rows = Vec::new();
    for m in [ModelKind::LrB, ModelKind::NnE, ModelKind::NnS] {
        let mut row = vec![m.abbrev().to_string()];
        for ri in 0..rates.len() {
            row.push(f(linalg::stats::mean(&acc[&(m, ri)]), 2));
        }
        rows.push(row);
    }
    let mut row = vec!["Select".to_string()];
    for sel in &select_acc {
        row.push(f(linalg::stats::mean(sel), 2));
    }
    rows.push(row);
    for (name, vals) in paper {
        let mut row = vec![format!("paper {name}")];
        row.extend(vals.iter().map(|v| f(*v, 2)));
        rows.push(row);
    }

    print!(
        "{}",
        try_render_table(
            &[
                "method".into(),
                "1%".into(),
                "2%".into(),
                "3%".into(),
                "4%".into(),
                "5%".into(),
            ],
            &rows,
        )?
    );
    Ok(())
}
