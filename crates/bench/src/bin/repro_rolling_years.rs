//! Extension of §4.3: rolling-year chronological evaluation.
//!
//! The paper fixes the split at 2005 → 2006. This harness slides the
//! training year across each family's full history (train on year Y,
//! predict Y+1), showing that the LR-over-NN finding is stable over time
//! and how error shrinks as the database accumulates records.

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
    let (_, seed, _run) = banner("§4.3 extension: rolling-year chronological evaluation", &[])?;

    for fam in [ProcessorFamily::Xeon, ProcessorFamily::Opteron2] {
        let (y0, y1) = fam.year_span();
        println!("{} — train year Y, predict Y+1:", fam.name());
        let mut rows = Vec::new();
        for train_year in y0..y1 {
            // Skip splits whose training year is too thin to fit anything
            // (the early database years hold a handful of records).
            let probe = specdata::AnnouncementSet::generate(fam, seed);
            if probe.year(train_year).len() < 10 {
                continue;
            }
            let cfg = ChronoConfig {
                train_year,
                models: vec![
                    ModelKind::LrE,
                    ModelKind::LrS,
                    ModelKind::NnQ,
                    ModelKind::NnE,
                ],
                data_seed: seed,
                seed,
                estimate_errors: false,
                export_models: None,
            };
            let r = try_run_chronological(fam, &cfg)?;
            let err = |m: ModelKind| {
                r.points
                    .iter()
                    .find(|p| p.model == m)
                    .map(|p| f(p.error_mean, 2))
                    .unwrap_or_default()
            };
            rows.push(vec![
                format!("{train_year}->{}", train_year + 1),
                r.n_train.to_string(),
                r.n_test.to_string(),
                err(ModelKind::LrE),
                err(ModelKind::LrS),
                err(ModelKind::NnQ),
                err(ModelKind::NnE),
            ]);
        }
        print!(
            "{}",
            try_render_table(
                &[
                    "split".into(),
                    "n_train".into(),
                    "n_test".into(),
                    "LR-E %".into(),
                    "LR-S %".into(),
                    "NN-Q %".into(),
                    "NN-E %".into(),
                ],
                &rows,
            )?
        );
        println!();
    }
    Ok(())
}
