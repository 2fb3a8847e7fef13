//! Reproduces **Figure 7** — chronological predictions (train on 2005,
//! predict 2006) for (a) Xeon, (b) Pentium 4, and (c) Pentium D: mean and
//! standard deviation of the percentage error for all nine models.

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
    let (_, seed, _run) = banner("Figure 7: chronological predictions (Intel families)", &[])?;

    for (panel, fam) in [
        ("(a)", ProcessorFamily::Xeon),
        ("(b)", ProcessorFamily::Pentium4),
        ("(c)", ProcessorFamily::PentiumD),
    ] {
        let cfg = ChronoConfig {
            train_year: 2005,
            models: ModelKind::FIGURE7_ORDER.to_vec(),
            data_seed: seed,
            seed,
            estimate_errors: false,
            export_models: None,
        };
        let r = try_run_chronological(fam, &cfg)?;
        println!(
            "Figure 7{panel}: {} — train 2005 ({} records) -> predict 2006 ({} records)",
            fam.name(),
            r.n_train,
            r.n_test
        );
        let rows: Vec<Vec<String>> = r
            .points
            .iter()
            .map(|p| {
                vec![
                    p.model.abbrev().to_string(),
                    f(p.error_mean, 2),
                    f(p.error_std, 2),
                ]
            })
            .collect();
        print!(
            "{}",
            try_render_table(&["model".into(), "mean err %".into(), "std".into()], &rows)?
        );
        let (best, err) = r.try_best()?;
        println!("best: {} at {:.2}%\n", best.model.abbrev(), err);
    }
    Ok(())
}
