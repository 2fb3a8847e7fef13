//! Reproduces the **chronological study** (§4.3) from one
//! `try_run_chronological` per processor family (train on the 2005
//! announcements, predict 2006, all nine Figure 7 models):
//!
//! * **Figure 7** — mean and standard deviation of the percentage error
//!   for (a) Xeon, (b) Pentium 4 and (c) Pentium D;
//! * **Figure 8** — the same for AMD Opteron SMP systems with (a) one,
//!   (b) two, (c) four and (d) eight processors;
//! * **Table 2** — "The best accuracy and the model that achieves this
//!   for single and multi-processor chronological predictive modeling",
//!   with every model within 2 % of the best (paper: Xeon 2.1 (LR-E),
//!   Pentium D 2.2 (LR-E), Pentium 4 1.5 (LR-E), Opteron 2.1 (LR-B/LR-S),
//!   Opteron 2 3.1, Opteron 4 3.2, Opteron 8 3.5, all LR-B/LR-S);
//! * **§4.1** — each family's SPEC record count, rating range and
//!   variation (paper: Opteron 138/1.40/0.08 … Xeon 216/1.34/0.09);
//! * **§4.4** — the most important predictors of the NN-E and LR-E fits
//!   for Opteron and Pentium D. Paper findings: for Opteron the network
//!   ranks processor speed (0.659), memory frequency (0.154), L2 on/off
//!   chip (0.147) and L1 data cache size (0.139); the regression keeps
//!   processor speed (β* 0.915) and memory size (β* 0.119). For Pentium D
//!   the network adds L2 cache size (0.500) and sharing flags; the
//!   regression keeps processor speed (0.733), L2 size (0.583), memory
//!   size, memory frequency and L1 size.
//!
//! Usage: `repro_chrono [--seed N]` (the study has no simulation, so
//! `--scale` changes nothing).

use bench::banner;
use dse::chrono::{try_run_chronological, ChronoConfig, ChronoResult};
use dse::report::{f, try_render_table};
use mlmodels::ModelKind;
use specdata::{AnnouncementSet, ProcessorFamily};
use std::process::ExitCode;

/// Table 2 as printed in the paper, in its row order.
const PAPER_TABLE2: [(ProcessorFamily, f64, &str); 7] = [
    (ProcessorFamily::Xeon, 2.1, "LR-E"),
    (ProcessorFamily::PentiumD, 2.2, "LR-E"),
    (ProcessorFamily::Pentium4, 1.5, "LR-E"),
    (ProcessorFamily::Opteron, 2.1, "LR-B/LR-S"),
    (ProcessorFamily::Opteron2, 3.1, "LR-B/LR-S"),
    (ProcessorFamily::Opteron4, 3.2, "LR-B/LR-S"),
    (ProcessorFamily::Opteron8, 3.5, "LR-B/LR-S"),
];

/// The panel of Figure 7 or 8 that plots a family.
fn panel_title(family: ProcessorFamily) -> &'static str {
    match family {
        ProcessorFamily::Xeon => "Figure 7(a)",
        ProcessorFamily::Pentium4 => "Figure 7(b)",
        ProcessorFamily::PentiumD => "Figure 7(c)",
        ProcessorFamily::Opteron => "Figure 8(a)",
        ProcessorFamily::Opteron2 => "Figure 8(b)",
        ProcessorFamily::Opteron4 => "Figure 8(c)",
        ProcessorFamily::Opteron8 => "Figure 8(d)",
    }
}

/// One panel of Figure 7 or 8: every model's error on the test year.
fn panel(r: &ChronoResult) -> fault::Result<String> {
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
    let (best, err) = r.try_best()?;
    Ok(format!(
        "{}: {} — train 2005 ({} records) -> predict 2006 ({} records)\n{}best: {} at {err:.2}%\n\n",
        panel_title(r.family),
        r.family.name(),
        r.n_train,
        r.n_test,
        try_render_table(&["model", "mean err %", "std"].map(String::from), &rows)?,
        best.model.abbrev(),
    ))
}

/// Table 2: each family's best error and the models within 2 % of it.
fn table2(runs: &[ChronoResult]) -> fault::Result<String> {
    let mut rows = Vec::new();
    for (family, paper_err, paper_method) in PAPER_TABLE2 {
        let Some(r) = runs.iter().find(|r| r.family == family) else {
            continue;
        };
        let (_, best_err) = r.try_best()?;
        let winners: Vec<&str> = r.best_set(0.02)?.iter().map(|m| m.abbrev()).collect();
        rows.push(vec![
            family.name().to_string(),
            f(best_err, 2),
            f(paper_err, 1),
            winners.join("/"),
            paper_method.to_string(),
        ]);
    }
    try_render_table(
        &["family", "best err %", "paper", "method(s)", "paper method"].map(String::from),
        &rows,
    )
}

/// §4.1: each family's announcement population against the paper's.
fn populations(seed: u64) -> fault::Result<String> {
    let rows: Vec<Vec<String>> = ProcessorFamily::ALL
        .iter()
        .map(|&fam| {
            let (n, range, var) = AnnouncementSet::generate(fam, seed).summary();
            let p = fam.paper_stats();
            vec![
                fam.name().to_string(),
                n.to_string(),
                p.records.to_string(),
                f(range, 2),
                f(p.range, 2),
                f(var, 2),
                f(p.variation, 2),
            ]
        })
        .collect();
    try_render_table(
        &[
            "family",
            "records",
            "paper rec",
            "range",
            "paper range",
            "variation",
            "paper var",
        ]
        .map(String::from),
        &rows,
    )
}

/// §4.4: the top six predictors of a family's NN-E and LR-E fits.
fn importance(r: &ChronoResult) -> fault::Result<String> {
    let mut out = format!("{} — top predictors:\n", r.family.name());
    for m in [ModelKind::NnE, ModelKind::LrE] {
        let Some(p) = r.points.iter().find(|p| p.model == m) else {
            out.push_str(&format!("  {} (fit dropped)\n", m.abbrev()));
            continue;
        };
        let label = if m.is_linear() {
            "|standardized beta|"
        } else {
            "sensitivity (top = 1.0)"
        };
        out.push_str(&format!("  {} ({label}):\n", m.abbrev()));
        let rows: Vec<Vec<String>> = p
            .importance
            .iter()
            .take(6)
            .map(|imp| vec![imp.name.clone(), f(imp.score, 3)])
            .collect();
        for line in try_render_table(&["predictor", "score"].map(String::from), &rows)?.lines() {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out.push('\n');
    Ok(out)
}

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (_, seed, _run) = banner(
        "chronological predictions (Figures 7–8, Table 2, §4.1, §4.4)",
        &[],
    )?;
    let cfg = ChronoConfig {
        train_year: 2005,
        models: ModelKind::FIGURE7_ORDER.to_vec(),
        data_seed: seed,
        seed,
        estimate_errors: false,
        export_models: None,
    };
    let runs = ProcessorFamily::ALL
        .iter()
        .map(|&fam| try_run_chronological(fam, &cfg))
        .collect::<fault::Result<Vec<_>>>()?;

    for r in &runs {
        print!("{}", panel(r)?);
    }
    println!("Table 2: best chronological accuracy per family (models within 2 % of the best)");
    print!("{}", table2(&runs)?);
    println!("\n§4.1 SPEC announcement populations:");
    print!("{}", populations(seed)?);
    println!("\n§4.4 predictor importance:");
    for fam in [ProcessorFamily::Opteron, ProcessorFamily::PentiumD] {
        for r in runs.iter().filter(|r| r.family == fam) {
            print!("{}", importance(r)?);
        }
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
