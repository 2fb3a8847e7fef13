//! Extension of §4.3 the paper ran but cut for space: chronological
//! prediction of **individual SPEC application** ratios ("we have also
//! tested individual SPEC applications and show that they can also be
//! accurately estimated, however due to space constraints their
//! presentations are omitted").
//!
//! Trains LR-E and NN-E on each of the twelve SPECint2000 per-application
//! ratios for 2005 and predicts 2006, per family.

use bench::{banner, parse_common_args};
use dse::data::try_table_from_announcements_app;
use dse::report::{f, try_render_table};
use linalg::stats::mape;
use mlmodels::{try_train, ModelKind};
use specdata::rating::SPECINT_APPS;
use specdata::{Announcement, AnnouncementSet, ProcessorFamily};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner(
        "§4.3 extension: per-application chronological prediction",
        scale,
    );

    for fam in [ProcessorFamily::Xeon, ProcessorFamily::Opteron2] {
        let set = AnnouncementSet::generate(fam, seed);
        let (train_recs, test_recs): (Vec<&Announcement>, Vec<&Announcement>) =
            set.try_chronological_split(2005)?;
        println!(
            "{} — per-application error, 2005 ({}) -> 2006 ({}):",
            fam.name(),
            train_recs.len(),
            test_recs.len()
        );
        let mut rows = Vec::new();
        let mut lr_errors = Vec::new();
        for (app, name) in SPECINT_APPS.iter().enumerate() {
            let train_table = try_table_from_announcements_app(&train_recs, app)?;
            let test_table = try_table_from_announcements_app(&test_recs, app)?;
            let lr = try_train(ModelKind::LrE, &train_table, seed)?;
            let (lr_err, _) = mape(&lr.try_predict(&test_table)?, test_table.target());
            let nn = try_train(ModelKind::NnQ, &train_table, seed)?;
            let (nn_err, _) = mape(&nn.try_predict(&test_table)?, test_table.target());
            lr_errors.push(lr_err);
            rows.push(vec![name.to_string(), f(lr_err, 2), f(nn_err, 2)]);
        }
        print!(
            "{}",
            try_render_table(
                &[
                    "application".into(),
                    "LR-E err %".into(),
                    "NN-Q err %".into()
                ],
                &rows,
            )?
        );
        println!(
            "mean LR-E error across applications: {:.2}%\n",
            linalg::stats::mean(&lr_errors)
        );
    }
    Ok(())
}
