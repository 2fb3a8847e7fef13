//! Chronological prediction, end to end — the paper's §4.3 workflow:
//! train on 2005 SPEC announcements, predict the 2006 systems, and inspect
//! which components drive the prediction.
//!
//! Run with: `cargo run --release --example chronological [family]`
//! (default: "Opteron 2"; families: Xeon, "Pentium 4", "Pentium D",
//! Opteron, "Opteron 2", "Opteron 4", "Opteron 8")

use perfpredict::dse::chrono::{try_run_chronological, ChronoConfig};
use perfpredict::dse::report::{f, try_render_table};
use perfpredict::error::{Error, Result};
use perfpredict::mlmodels::ModelKind;
use perfpredict::specdata::ProcessorFamily;

fn main() -> Result<()> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Opteron 2".into());
    let family = ProcessorFamily::from_name(&name)
        .ok_or_else(|| Error::invalid(format!("unknown family '{name}'")))?;

    let cfg = ChronoConfig {
        train_year: 2005,
        models: ModelKind::FIGURE7_ORDER.to_vec(),
        data_seed: 42,
        seed: 7,
        estimate_errors: true,
        export_models: None,
    };
    println!(
        "chronological prediction for {} (2005 -> 2006)…\n",
        family.name()
    );
    let r = try_run_chronological(family, &cfg)?;
    println!(
        "training records (2005): {}   test records (2006): {}\n",
        r.n_train, r.n_test
    );

    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.model.abbrev().to_string(),
                f(p.error_mean, 2),
                f(p.error_std, 2),
                p.estimated.map(|e| f(e.max, 2)).unwrap_or_default(),
            ]
        })
        .collect();
    print!(
        "{}",
        try_render_table(
            &[
                "model".into(),
                "2006 err %".into(),
                "std".into(),
                "est (2005, max) %".into(),
            ],
            &rows,
        )?
    );

    let (best, err) = r.try_best()?;
    println!(
        "\nbest model: {} at {err:.2}% mean error",
        best.model.abbrev()
    );
    println!("\nwhat the best model looks at (§4.4-style importance):");
    for imp in best.importance.iter().take(5) {
        println!("  {:<22} {:.3}", imp.name, imp.score);
    }
    println!(
        "\npaper's finding: linear regression beats neural networks here — networks \
         over-fit the training year and extrapolate poorly into the next."
    );
    Ok(())
}
