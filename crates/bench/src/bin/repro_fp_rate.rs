//! Extension: chronological prediction of the **SPECfp2000 rate** — the
//! paper's §4 names both rates ("SPECint2000 rate (and SPECfp2000 rate)")
//! but presents only the integer rate in §4.3.

use bench::banner;
use dse::data::{try_table_from_announcements, try_table_from_announcements_fp};
use dse::report::{f, try_render_table};
use linalg::stats::mape;
use mlmodels::{try_train, ModelKind};
use specdata::{Announcement, AnnouncementSet, ProcessorFamily};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (_, seed, _run) = banner("§4.3 extension: SPECfp2000 rate prediction", &[])?;

    let mut rows = Vec::new();
    for fam in ProcessorFamily::ALL {
        let set = AnnouncementSet::generate(fam, seed);
        let (train_recs, test_recs): (Vec<&Announcement>, Vec<&Announcement>) =
            set.try_chronological_split(2005)?;

        let eval = |train_t: &mlmodels::Table, test_t: &mlmodels::Table| -> fault::Result<f64> {
            let m = try_train(ModelKind::LrE, train_t, seed)?;
            let (err, _) = mape(&m.try_predict(test_t)?, test_t.target());
            Ok(err)
        };
        let int_err = eval(
            &try_table_from_announcements(&train_recs)?,
            &try_table_from_announcements(&test_recs)?,
        )?;
        let fp_err = eval(
            &try_table_from_announcements_fp(&train_recs)?,
            &try_table_from_announcements_fp(&test_recs)?,
        )?;
        rows.push(vec![fam.name().to_string(), f(int_err, 2), f(fp_err, 2)]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "family".into(),
                "LR-E int err %".into(),
                "LR-E fp err %".into()
            ],
            &rows,
        )?
    );
    println!(
        "\nexpectation: fp errors track the int errors closely — the same \
         components drive both rates, fp with a slightly noisier tilt."
    );
    Ok(())
}
