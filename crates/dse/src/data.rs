//! Adapters: simulator sweeps and SPEC announcements → model tables.
//!
//! Every builder returns a [`fault::Result`]: each defect — an empty
//! sweep, a categorical vocabulary too large for its code type, an
//! out-of-range application index, a table that fails validation —
//! propagates as a typed [`fault::Error`] instead of panicking. The one
//! panicking form left, [`table_from_announcements`], exists only
//! because the frozen perfbench sources call it.

use std::collections::HashMap;

use cpusim::config::CpuConfig;
use cpusim::runner::SimResult;
use fault::{Error, Result};
use mlmodels::Table;
use specdata::Announcement;

/// Build the sampled-DSE table from sweep results: the 24 Table-1
/// parameters as predictors (branch predictor categorical, wrong-path a
/// flag, the rest numeric), simulated cycles as the target. An empty
/// sweep or a feature list missing the wrong-path flag is
/// [`Error::DegenerateData`]; the built table is validated before it is
/// returned.
pub fn try_table_from_sweep(results: &[SimResult]) -> Result<Table> {
    if results.is_empty() {
        return Err(Error::degenerate("empty sweep"));
    }
    let configs: Vec<CpuConfig> = results.iter().map(|r| r.config).collect();
    table_from_config_rows(&configs, results.iter().map(|r| r.cycles).collect())
}

/// Feature-only table for *unlabeled* configurations, with a zero target.
///
/// Used to score acquisition candidates with a trained committee: the
/// predict surfaces transform the predictor columns through the model's
/// stored preprocessor and never read the target, so the placeholder
/// target is inert. Column names and types are identical to
/// [`try_table_from_sweep`] by construction (one shared row builder), so
/// a model trained on labeled rows can predict these rows directly.
pub(crate) fn try_table_from_configs(configs: &[CpuConfig]) -> Result<Table> {
    if configs.is_empty() {
        return Err(Error::degenerate("empty candidate set"));
    }
    table_from_config_rows(configs, vec![0.0; configs.len()])
}

/// Shared row builder behind [`try_table_from_sweep`] and
/// [`try_table_from_configs`]: the 24 Table-1 parameters as predictors
/// (branch predictor categorical, wrong-path a flag, the rest numeric),
/// with a caller-supplied target.
fn table_from_config_rows(configs: &[CpuConfig], target: Vec<f64>) -> Result<Table> {
    let mut numeric: Vec<(usize, Vec<f64>)> = Vec::new();
    let names = CpuConfig::feature_names();

    // All numeric features except the categorical bpred and the flag
    // issue_wrong_path. `CpuConfig::feature_names()` is a compile-time
    // constant list that includes "issue_wrong_path" (a unit test in
    // cpusim pins it), but a missing entry degrades to a typed error.
    let flag_idx = names
        .iter()
        .position(|&n| n == "issue_wrong_path")
        .ok_or_else(|| {
            Error::degenerate("CpuConfig feature list has no issue_wrong_path column")
        })?;
    for (j, _) in names.iter().enumerate() {
        if j == CpuConfig::BPRED_FEATURE_INDEX || j == flag_idx {
            continue;
        }
        let col: Vec<f64> = configs.iter().map(|c| c.features()[j]).collect();
        numeric.push((j, col));
    }

    let mut t = Table::new();
    for (j, col) in numeric {
        t.add_numeric(names[j], col);
    }
    t.add_flag(
        "issue_wrong_path",
        configs.iter().map(|c| c.issue_wrong_path).collect(),
    );
    t.add_categorical(
        "bpred",
        configs.iter().map(|c| c.bpred.code() as u32).collect(),
        cpusim::BranchPredictorKind::ALL
            .iter()
            .map(|b| b.name().to_string())
            .collect(),
    );
    t.set_target(target);
    t.try_validate()?;
    Ok(t)
}

/// [`try_table_from_announcements`], panicking on its error.
///
/// Kept only because the frozen perfbench sources
/// (`crates/bench/examples/perfbench`) call it; everything else uses
/// the `try_` form.
pub fn table_from_announcements(records: &[&Announcement]) -> Table {
    match try_table_from_announcements(records) {
        Ok(t) => t,
        Err(e) => panic!("announcement table: {e}"),
    }
}

/// Build a chronological-modelling table from announcements: all 32
/// parameters typed as §3.4 expects, SPECint rate as the target. An
/// empty record set is [`Error::DegenerateData`], and a categorical
/// vocabulary too large for the `u32` code space is reported instead of
/// silently truncated.
pub fn try_table_from_announcements(records: &[&Announcement]) -> Result<Table> {
    if records.is_empty() {
        return Err(Error::degenerate("empty announcement set"));
    }

    let mut t = Table::new();
    // The three identifier fields are categorical: sort-dedup the values
    // into a level vocabulary, then code each row through a map built
    // alongside it — no positional search, no unchecked narrowing.
    for (name, get) in [
        ("company", 0usize),
        ("system_name", 1),
        ("processor_model", 2),
    ] {
        let values: Vec<String> = records
            .iter()
            .map(|r| r.categorical_features()[get].to_string())
            .collect();
        let mut levels: Vec<String> = values.clone();
        levels.sort();
        levels.dedup();
        let mut code_of: HashMap<&str, u32> = HashMap::with_capacity(levels.len());
        for (i, level) in levels.iter().enumerate() {
            let code = u32::try_from(i).map_err(|_| {
                Error::degenerate(format!(
                    "categorical '{name}' has {} levels, exceeding the u32 code space",
                    levels.len()
                ))
            })?;
            code_of.insert(level.as_str(), code);
        }
        let codes: Vec<u32> = values
            .iter()
            .map(|v| {
                code_of.get(v.as_str()).copied().ok_or_else(|| {
                    Error::degenerate(format!(
                        "categorical '{name}': value '{v}' missing from its own level vocabulary"
                    ))
                })
            })
            .collect::<Result<_>>()?;
        t.add_categorical(name, codes, levels);
    }

    // Numeric/flag parameters. Flags keep their flag type; disk type is a
    // proper categorical.
    let num = |f: fn(&Announcement) -> f64| -> Vec<f64> { records.iter().map(|r| f(r)).collect() };
    let flag =
        |f: fn(&Announcement) -> bool| -> Vec<bool> { records.iter().map(|r| f(r)).collect() };

    t.add_numeric("bus_frequency_mhz", num(|r| r.bus_frequency_mhz));
    t.add_numeric("processor_speed_mhz", num(|r| r.processor_speed_mhz));
    t.add_flag("fpu", flag(|r| r.fpu));
    t.add_numeric("total_cores", num(|r| r.total_cores as f64));
    t.add_numeric("total_chips", num(|r| r.total_chips as f64));
    t.add_numeric("cores_per_chip", num(|r| r.cores_per_chip as f64));
    t.add_flag("smt", flag(|r| r.smt));
    t.add_flag("parallel", flag(|r| r.parallel));
    t.add_numeric("l1i_kb", num(|r| r.l1i_kb as f64));
    t.add_numeric("l1d_kb", num(|r| r.l1d_kb as f64));
    t.add_flag("l1_per_core", flag(|r| r.l1_per_core));
    t.add_numeric("l2_kb", num(|r| r.l2_kb as f64));
    t.add_flag("l2_on_chip", flag(|r| r.l2_on_chip));
    t.add_flag("l2_shared", flag(|r| r.l2_shared));
    t.add_flag("l2_unified", flag(|r| r.l2_unified));
    t.add_numeric("l3_kb", num(|r| r.l3_kb as f64));
    t.add_flag("l3_on_chip", flag(|r| r.l3_on_chip));
    t.add_flag("l3_per_core", flag(|r| r.l3_per_core));
    t.add_flag("l3_shared", flag(|r| r.l3_shared));
    t.add_flag("l3_unified", flag(|r| r.l3_unified));
    t.add_numeric("l4_kb", num(|r| r.l4_kb as f64));
    t.add_numeric("l4_shared_count", num(|r| r.l4_shared_count as f64));
    t.add_flag("l4_on_chip", flag(|r| r.l4_on_chip));
    t.add_numeric("memory_gb", num(|r| r.memory_gb));
    t.add_numeric("memory_freq_mhz", num(|r| r.memory_freq_mhz));
    t.add_numeric("disk_gb", num(|r| r.disk_gb));
    t.add_numeric("disk_rpm", num(|r| r.disk_rpm));
    t.add_categorical(
        "disk_type",
        records.iter().map(|r| r.disk_type.code() as u32).collect(),
        vec!["SCSI".into(), "SATA".into(), "IDE".into()],
    );
    t.add_numeric("extra_components", num(|r| r.extra_components as f64));

    t.set_target(records.iter().map(|r| r.specint_rate).collect());
    t.try_validate()?;
    Ok(t)
}

/// Like [`try_table_from_announcements`] but targeting the SPECfp2000
/// rate — the floating-point counterpart the paper mentions in §4
/// ("SPECint2000 rate (and SPECfp2000 rate)").
pub fn try_table_from_announcements_fp(records: &[&Announcement]) -> Result<Table> {
    let mut t = try_table_from_announcements(records)?;
    t.set_target(records.iter().map(|r| r.specfp_rate).collect());
    t.try_validate()?;
    Ok(t)
}

/// Like [`try_table_from_announcements`] but targeting one *individual*
/// application's normalized ratio instead of the overall rate — the
/// per-application estimation the paper ran but omitted for space ("we
/// have also tested individual SPEC applications and show that they can
/// also be accurately estimated"). An `app` index some record has no
/// ratio for is [`Error::InvalidInput`].
pub fn try_table_from_announcements_app(records: &[&Announcement], app: usize) -> Result<Table> {
    if let Some(r) = records.iter().find(|r| app >= r.app_ratios.len()) {
        return Err(Error::invalid(format!(
            "application index {app} out of range ({} per-application ratios)",
            r.app_ratios.len()
        )));
    }
    let mut t = try_table_from_announcements(records)?;
    t.set_target(records.iter().map(|r| r.app_ratios[app]).collect());
    t.try_validate()?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::{try_sweep_design_space, Benchmark, DesignSpace, SimOptions};
    use specdata::{AnnouncementSet, ProcessorFamily};

    #[test]
    fn sweep_table_has_24_parameters() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..12].to_vec());
        let res = try_sweep_design_space(&space, Benchmark::Applu, &SimOptions::quick(), None)
            .expect("sweep")
            .results;
        let t = try_table_from_sweep(&res).expect("sweep table");
        assert_eq!(t.n_cols(), 24, "Table 1 has 24 parameters");
        assert_eq!(t.n_rows(), 12);
        assert!(t.target().iter().all(|&c| c > 0.0));
        assert!(t.column("bpred").is_some());
        assert!(t.column("l2_size_kb").is_some());
    }

    #[test]
    fn announcement_table_has_32_parameters() {
        let set = AnnouncementSet::generate(ProcessorFamily::Opteron, 42);
        let refs: Vec<&Announcement> = set.records.iter().collect();
        let t = try_table_from_announcements(&refs).expect("announcement table");
        assert_eq!(t.n_cols(), 32, "each record provides 32 parameters");
        assert_eq!(t.n_rows(), set.len());
        assert!(t.column("processor_speed_mhz").is_some());
        assert!(t.column("company").is_some());
    }

    #[test]
    fn fp_table_targets_the_fp_rate() {
        let set = AnnouncementSet::generate(ProcessorFamily::Xeon, 42);
        let refs: Vec<&Announcement> = set.records.iter().collect();
        let t = try_table_from_announcements_fp(&refs).expect("fp table");
        for (y, rec) in t.target().iter().zip(&set.records) {
            assert_eq!(*y, rec.specfp_rate);
        }
    }

    #[test]
    fn per_app_table_targets_the_ratio() {
        let set = AnnouncementSet::generate(ProcessorFamily::Opteron, 42);
        let refs: Vec<&Announcement> = set.records.iter().collect();
        let t = try_table_from_announcements_app(&refs, 3).expect("per-app table");
        for (y, rec) in t.target().iter().zip(&set.records) {
            assert_eq!(*y, rec.app_ratios[3]);
        }
    }

    /// Regression: an out-of-range application index used to trip an
    /// `assert!`; it is now a typed `InvalidInput`.
    #[test]
    fn per_app_table_rejects_out_of_range_index() {
        let set = AnnouncementSet::generate(ProcessorFamily::Opteron, 42);
        let refs: Vec<&Announcement> = set.records.iter().collect();
        let n_apps = set.records[0].app_ratios.len();
        let e = try_table_from_announcements_app(&refs, n_apps).expect_err("index past the end");
        assert_eq!(e.kind(), "invalid");
        assert!(e.to_string().contains(&format!("index {n_apps}")), "{e}");
    }

    #[test]
    fn empty_inputs_are_typed_degenerate_errors() {
        assert_eq!(
            try_table_from_sweep(&[]).expect_err("empty sweep").kind(),
            "degenerate"
        );
        assert_eq!(
            try_table_from_announcements(&[])
                .expect_err("empty set")
                .kind(),
            "degenerate"
        );
        assert_eq!(
            try_table_from_announcements_fp(&[])
                .expect_err("empty set")
                .kind(),
            "degenerate"
        );
    }

    #[test]
    fn announcement_targets_are_rates() {
        let set = AnnouncementSet::generate(ProcessorFamily::Xeon, 42);
        let refs: Vec<&Announcement> = set.records.iter().collect();
        let t = try_table_from_announcements(&refs).expect("announcement table");
        for (row, rec) in t.target().iter().zip(&set.records) {
            assert_eq!(*row, rec.specint_rate);
        }
    }
}
