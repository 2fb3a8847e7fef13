//! Reproduces **Table 2** — "The best accuracy and the model that achieves
//! this for single and multi-processor chronological predictive modeling."
//!
//! Paper row: Xeon 2.1 (LR-E), Pentium D 2.2 (LR-E), Pentium 4 1.5 (LR-E),
//! Opteron 2.1 (LR-B/LR-S), Opteron 2 3.1, Opteron 4 3.2, Opteron 8 3.5
//! (all LR-B/LR-S).

use bench::{banner, parse_common_args};
use dse::chrono::{try_run_chronological, ChronoConfig};
use dse::report::{f, try_render_table};
use mlmodels::ModelKind;
use specdata::ProcessorFamily;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner("Table 2: best chronological accuracy per family", scale);

    let paper: &[(&str, f64, &str)] = &[
        ("Xeon", 2.1, "LR-E"),
        ("Pentium D", 2.2, "LR-E"),
        ("Pentium 4", 1.5, "LR-E"),
        ("Opteron", 2.1, "LR-B/LR-S"),
        ("Opteron 2", 3.1, "LR-B/LR-S"),
        ("Opteron 4", 3.2, "LR-B/LR-S"),
        ("Opteron 8", 3.5, "LR-B/LR-S"),
    ];

    let mut rows = Vec::new();
    for &(name, paper_err, paper_method) in paper {
        let fam = ProcessorFamily::from_name(name).expect("family name");
        let cfg = ChronoConfig {
            train_year: 2005,
            models: ModelKind::FIGURE7_ORDER.to_vec(),
            data_seed: seed,
            seed,
            estimate_errors: false,
            export_models: None,
        };
        let r = try_run_chronological(fam, &cfg)?;
        let (_, best_err) = r.try_best()?;
        let winners = r.best_set(0.02)?;
        let winners: Vec<&str> = winners.iter().map(|m| m.abbrev()).collect();
        rows.push(vec![
            name.to_string(),
            f(best_err, 2),
            f(paper_err, 1),
            winners.join("/"),
            paper_method.to_string(),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "family".into(),
                "best err %".into(),
                "paper".into(),
                "method(s)".into(),
                "paper method".into(),
            ],
            &rows,
        )?
    );
    Ok(())
}
