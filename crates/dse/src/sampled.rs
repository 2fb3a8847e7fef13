//! Sampled design-space exploration (Figure 1a, §4.2).
//!
//! The flow: simulate the full design space once (the expensive part the
//! models exist to avoid), then for each sampling rate draw a random
//! training subset, fit each model, estimate its error with the §3.3
//! cross-validation protocol, and score the *true* error of its
//! predictions over the entire space — exactly how Figures 2–6 plot
//! `NN-E / NN-S / LR-B` vs `NN-E-est / NN-S-est / LR-B-est`.

use std::collections::HashMap;

use crate::data::try_table_from_sweep;
use cpusim::runner::{try_sweep_design_space, SimOptions, SimResult};
use cpusim::shard::open_ledger;
use cpusim::{Benchmark, DesignSpace};
use fault::checkpoint;
use fault::{Error, Result};
use linalg::dist::{child_seed, permutation, sample_indices, seeded_rng};
use linalg::stats::mape;
use mlmodels::crossval::{try_estimate_error, ErrorEstimate};
use mlmodels::{try_train, ModelKind, Table};
use serde::{Deserialize, Serialize};
use telemetry::json::JsonObject;

/// How training points are drawn from the design space.
///
/// The paper samples uniformly at random ("randomly sampling 1% to 5% of
/// the data") and notes the resulting run-to-run wobble; the alternatives
/// exist for the ablation study in `crates/bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Uniform random without replacement (the paper's choice).
    Random,
    /// Every k-th point of the lattice (deterministic, well spread).
    Systematic,
    /// Random within each branch-predictor stratum, proportionally
    /// allocated — guarantees every predictor kind is represented even in
    /// tiny samples.
    StratifiedByPredictor,
}

/// Configuration of a sampled-DSE experiment.
#[derive(Debug, Clone)]
pub struct SampledConfig {
    /// Sampling rates as fractions (the paper sweeps 0.01..=0.05).
    pub sampling_rates: Vec<f64>,
    /// How the training subset is drawn.
    pub strategy: SamplingStrategy,
    /// Models to evaluate (Figures 2–6 use NN-E, NN-S, LR-B).
    pub models: Vec<ModelKind>,
    /// Simulator options for the sweep.
    pub sim: SimOptions,
    /// Master seed (sampling, training, cross-validation).
    pub seed: u64,
    /// Whether to run the §3.3 estimated-error protocol (adds 5 extra
    /// trainings per model and rate).
    pub estimate_errors: bool,
    /// Directory to export every freshly trained model into as a
    /// `.ppmodel` artifact (`None` disables export; fits restored from a
    /// checkpoint are not re-exported — their models were never rebuilt).
    pub export_models: Option<String>,
}

impl Default for SampledConfig {
    fn default() -> Self {
        SampledConfig {
            sampling_rates: vec![0.01, 0.02, 0.03, 0.04, 0.05],
            strategy: SamplingStrategy::Random,
            models: ModelKind::FIGURE2_ORDER.to_vec(),
            sim: SimOptions::default(),
            seed: 0xD5E,
            estimate_errors: true,
            export_models: None,
        }
    }
}

/// One (model, sampling-rate) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampledPoint {
    /// Model evaluated.
    pub model: ModelKind,
    /// Sampling rate (fraction of the space used for training).
    pub rate: f64,
    /// Rows in the training sample.
    pub sample_size: usize,
    /// True mean percentage error over the whole design space.
    pub true_error: f64,
    /// Std-dev of the percentage error over the whole space.
    pub true_error_std: f64,
    /// §3.3 estimated error (None when estimation was disabled).
    pub estimated: Option<ErrorEstimate>,
}

/// A (model, rate) fit that failed and was dropped from the candidate
/// set — the §3.3 *select* protocol degrades gracefully instead of
/// poisoning the whole run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DroppedFit {
    /// Model that failed.
    pub model: ModelKind,
    /// Sampling rate it failed at.
    pub rate: f64,
    /// Stable failure tag (`fault::Error::kind`).
    pub reason: String,
    /// Full human-readable error.
    pub detail: String,
}

/// Full result of one benchmark's sampled-DSE experiment.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Design-space size.
    pub space_size: usize,
    /// §4.1 framework stats of the sweep (range, variation).
    pub range: f64,
    /// Coefficient of variation of cycles.
    pub variation: f64,
    /// All (model, rate) measurements.
    pub points: Vec<SampledPoint>,
    /// Fits that failed, with their recorded reasons.
    pub dropped: Vec<DroppedFit>,
}

impl SampledRun {
    /// The measurement for a model at a rate (if present).
    pub fn point(&self, model: ModelKind, rate: f64) -> Option<&SampledPoint> {
        self.points
            .iter()
            .find(|p| p.model == model && (p.rate - rate).abs() < 1e-12)
    }
}

/// Draw `k` training rows from `n` according to the strategy.
///
/// `k` is clamped to `n` (a rounded-up sample can exceed a tiny table)
/// and an empty population is a typed [`Error::InvalidInput`] instead of
/// an underflow panic in the stride arithmetic below.
pub fn draw_sample(
    strategy: SamplingStrategy,
    results: &[SimResult],
    n: usize,
    k: usize,
    seed: u64,
) -> Result<Vec<usize>> {
    if n == 0 {
        return Err(Error::invalid(
            "cannot draw a training sample from an empty design space",
        ));
    }
    let k = k.min(n);
    let mut rng = seeded_rng(seed);
    Ok(match strategy {
        SamplingStrategy::Random => sample_indices(&mut rng, n, k),
        SamplingStrategy::Systematic => {
            // Evenly spaced with a random phase. The final `.min(n - 1)`
            // clamp can fold the last strides onto the same row; dedup so
            // a fold never carries duplicate training rows (the indices
            // are non-decreasing by construction).
            let stride = n as f64 / k as f64;
            let phase: f64 = rand::Rng::random::<f64>(&mut rng) * stride;
            let mut rows: Vec<usize> = (0..k)
                .map(|i| ((phase + i as f64 * stride) as usize).min(n - 1))
                .collect();
            rows.dedup();
            rows
        }
        SamplingStrategy::StratifiedByPredictor => {
            // Group rows by predictor kind, then sample proportionally.
            let mut strata: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for (i, r) in results.iter().enumerate() {
                strata.entry(r.config.bpred.code()).or_default().push(i);
            }
            let mut rows = Vec::with_capacity(k);
            let n_strata = strata.len();
            for (si, (_, members)) in strata.into_iter().enumerate() {
                let quota = (k * (si + 1)) / n_strata - (k * si) / n_strata;
                let quota = quota.min(members.len());
                let perm = permutation(&mut rng, members.len());
                rows.extend(perm[..quota].iter().map(|&j| members[j]));
            }
            // Top up (rounding) from anywhere.
            while rows.len() < k {
                let cand = rand::Rng::random_range(&mut rng, 0..n);
                if !rows.contains(&cand) {
                    rows.push(cand);
                }
            }
            rows
        }
    })
}

/// Evaluate one trained model's true error over the full space table.
fn true_error(model: &mlmodels::TrainedModel, full: &Table) -> Result<(f64, f64)> {
    let preds = model.try_predict(full)?;
    Ok(mape(&preds, full.target()))
}

/// A restored per-fit checkpoint record.
enum RestoredFit {
    Fit(SampledPoint),
    Drop(DroppedFit),
}

/// Parse the `"fit"` / `"drop"` records of a shared checkpoint file into
/// a `(rate index, model)`-keyed map. Later records win, mirroring the
/// sim-record dedupe in the sweep reader.
fn restore_fits(
    path: &str,
    records: &[telemetry::json::Value],
    cfg: &SampledConfig,
) -> Result<HashMap<(usize, ModelKind), RestoredFit>> {
    let mut restored = HashMap::new();
    for rec in records {
        let ty = checkpoint::str_field(path, rec, "type")?;
        if ty != "fit" && ty != "drop" {
            continue;
        }
        let ri = checkpoint::u64_field(path, rec, "rate_idx")? as usize;
        if ri >= cfg.sampling_rates.len() {
            return Err(Error::checkpoint(
                path,
                format!(
                    "{ty} record rate_idx {ri} outside the {} configured rates",
                    cfg.sampling_rates.len()
                ),
            ));
        }
        let abbrev = checkpoint::str_field(path, rec, "model")?;
        let kind = ModelKind::from_abbrev(abbrev)
            .ok_or_else(|| Error::checkpoint(path, format!("unknown model '{abbrev}'")))?;
        let rate = checkpoint::f64_field(path, rec, "rate")?;
        if (rate - cfg.sampling_rates[ri]).abs() > 1e-12 {
            return Err(Error::checkpoint(
                path,
                format!(
                    "{ty} record rate {rate} does not match configured rate {} at index {ri}",
                    cfg.sampling_rates[ri]
                ),
            ));
        }
        let value = if ty == "fit" {
            RestoredFit::Fit(SampledPoint {
                model: kind,
                rate,
                sample_size: checkpoint::u64_field(path, rec, "sample_size")? as usize,
                true_error: checkpoint::f64_field(path, rec, "true_error")?,
                true_error_std: checkpoint::f64_field(path, rec, "true_error_std")?,
                estimated: match rec.get("est_max") {
                    Some(_) => Some(ErrorEstimate {
                        mean: checkpoint::f64_field(path, rec, "est_mean")?,
                        max: checkpoint::f64_field(path, rec, "est_max")?,
                    }),
                    None => None,
                },
            })
        } else {
            RestoredFit::Drop(DroppedFit {
                model: kind,
                rate,
                reason: checkpoint::str_field(path, rec, "reason")?.to_string(),
                detail: checkpoint::str_field(path, rec, "detail")?.to_string(),
            })
        };
        restored.insert((ri, kind), value);
    }
    Ok(restored)
}

/// Render a completed fit as a checkpoint line.
fn fit_line(ri: usize, p: &SampledPoint) -> String {
    let mut obj = JsonObject::new()
        .str("type", "fit")
        .uint("rate_idx", ri as u64)
        .str("model", p.model.abbrev())
        .num("rate", p.rate)
        .uint("sample_size", p.sample_size as u64)
        .num("true_error", p.true_error)
        .num("true_error_std", p.true_error_std);
    if let Some(est) = &p.estimated {
        obj = obj.num("est_mean", est.mean).num("est_max", est.max);
    }
    obj.finish()
}

/// Render a dropped fit as a checkpoint line.
fn drop_line(ri: usize, d: &DroppedFit) -> String {
    JsonObject::new()
        .str("type", "drop")
        .uint("rate_idx", ri as u64)
        .str("model", d.model.abbrev())
        .num("rate", d.rate)
        .str("reason", &d.reason)
        .str("detail", &d.detail)
        .finish()
}

/// Run the sampled-DSE experiment for one benchmark over a design space.
///
/// `precomputed` sweep results may be passed to share the expensive
/// simulation across experiments. Fault handling, none of which changes
/// the no-fault results:
///
/// * Sweep rows with non-finite cycles are dropped (with a telemetry
///   counter) before the table is built; fewer than 8 usable rows is
///   [`Error::DegenerateData`].
/// * A model whose fit fails (singular design, divergence surviving all
///   retries, degenerate sample) is recorded in [`SampledRun::dropped`]
///   with its reason instead of aborting the run — the §4.4 *select*
///   protocol then simply never chooses it.
/// * A failed §3.3 error estimation leaves `estimated: None` on an
///   otherwise valid point.
/// * With `checkpoint: Some(path)`, the sweep and every completed fit are
///   appended to one JSONL file; on restart, completed work is restored
///   and only the remainder runs. The file must belong to the same
///   (benchmark, space, sim options) run.
pub fn try_run_sampled_dse(
    benchmark: Benchmark,
    space: &DesignSpace,
    cfg: &SampledConfig,
    precomputed: Option<Vec<SimResult>>,
    checkpoint: Option<&str>,
) -> Result<SampledRun> {
    let _span = telemetry::span!(
        "sampled_dse",
        benchmark = benchmark.name(),
        rates = cfg.sampling_rates.len(),
        models = cfg.models.len(),
    );
    for &rate in &cfg.sampling_rates {
        if !(rate > 0.0 && rate < 1.0) {
            return Err(Error::invalid(format!(
                "sampling rate out of range: {rate}"
            )));
        }
    }

    let results = match precomputed {
        Some(r) if r.len() != space.len() => {
            return Err(Error::invalid(format!(
                "precomputed sweep has {} results for a {}-point space",
                r.len(),
                space.len()
            )));
        }
        Some(r) => r,
        None => try_sweep_design_space(space, benchmark, &cfg.sim, checkpoint)?.results,
    };
    // The sweep's ledger doubles as the fit checkpoint: restore prior fit
    // records and append new ones through the same file.
    let ledger = checkpoint
        .map(|path| open_ledger(path, space, benchmark, &cfg.sim))
        .transpose()?;
    let restored = match &ledger {
        Some(l) => restore_fits(l.writer.path(), &l.records, cfg)?,
        None => HashMap::new(),
    };
    if !restored.is_empty() {
        telemetry::point!("sampled/resume", fits = restored.len());
    }
    let writer = ledger.as_ref().map(|l| &l.writer);

    let bad_rows = results.iter().filter(|r| !r.cycles.is_finite()).count();
    if bad_rows > 0 {
        telemetry::counter_add("dse/dropped_rows", bad_rows as u64);
        telemetry::point!("sampled/dropped_rows", rows = bad_rows);
    }
    let results: Vec<SimResult> = results
        .into_iter()
        .filter(|r| r.cycles.is_finite())
        .collect();
    if results.len() < 8 {
        return Err(Error::degenerate(format!(
            "sweep of {} left {} finite-cycle rows; need at least 8 to fit anything",
            benchmark.name(),
            results.len()
        )));
    }
    let summary = cpusim::runner::summarize_sweep(&results);
    let full = try_table_from_sweep(&results)?;
    let n = full.n_rows();
    if let Some(dir) = &cfg.export_models {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir.clone(), e))?;
    }

    let mut points = Vec::new();
    let mut dropped = Vec::new();
    let progress = telemetry::Progress::new(
        "sampled_dse",
        (cfg.sampling_rates.len() * cfg.models.len()) as u64,
    );
    for (ri, &rate) in cfg.sampling_rates.iter().enumerate() {
        let _rate_span = telemetry::span!("rate", rate = rate);
        // `.max(8)` keeps tiny rates trainable; `.min(n)` keeps tiny
        // tables from being over-indexed when the floor exceeds them.
        let k = ((n as f64 * rate).round() as usize).max(8).min(n);
        let rows = draw_sample(
            cfg.strategy,
            &results,
            n,
            k,
            child_seed(cfg.seed, 0x5A + ri as u64),
        )?;
        let sample = full.select_rows(&rows);

        for (mi, &kind) in cfg.models.iter().enumerate() {
            if let Some(prior) = restored.get(&(ri, kind)) {
                match prior {
                    RestoredFit::Fit(p) => points.push(p.clone()),
                    RestoredFit::Drop(d) => dropped.push(d.clone()),
                }
                progress.inc();
                continue;
            }
            let _model_span = telemetry::span!("model", model = kind.abbrev(), rate = rate);
            let train_seed = child_seed(cfg.seed, (ri as u64) << 8 | mi as u64);
            let fit = {
                let _train_span = telemetry::span!("fit", model = kind.abbrev(), sample_size = k);
                try_train(kind, &sample, train_seed)
            };
            match fit {
                Err(e) => {
                    telemetry::point!("sampled/drop_fit", model = kind.abbrev(), reason = e.kind());
                    let d = DroppedFit {
                        model: kind,
                        rate,
                        reason: e.kind().to_string(),
                        detail: e.to_string(),
                    };
                    if let Some(w) = writer {
                        w.append_record(&drop_line(ri, &d))?;
                    }
                    dropped.push(d);
                }
                Ok(model) => {
                    if let Some(dir) = &cfg.export_models {
                        let path =
                            format!("{dir}/{}_{}_r{ri}.ppmodel", benchmark.name(), kind.abbrev());
                        mlmodels::ModelArtifact::from_training(model.clone(), &sample)
                            .save(&path)?;
                        telemetry::point!("sampled/export", model = kind.abbrev(), path = path);
                    }
                    let (te, te_std) = true_error(&model, &full)?;
                    let estimated = if cfg.estimate_errors {
                        let _est_span = telemetry::span!("estimate_error", model = kind.abbrev());
                        match try_estimate_error(kind, &sample, child_seed(train_seed, 0xE5)) {
                            Ok(est) => Some(est),
                            Err(e) => {
                                telemetry::point!(
                                    "sampled/estimate_failed",
                                    model = kind.abbrev(),
                                    reason = e.kind()
                                );
                                None
                            }
                        }
                    } else {
                        None
                    };
                    let point = SampledPoint {
                        model: kind,
                        rate,
                        sample_size: sample.n_rows(),
                        true_error: te,
                        true_error_std: te_std,
                        estimated,
                    };
                    if let Some(w) = writer {
                        // A non-finite error would round-trip as JSON null;
                        // re-fit on resume instead of checkpointing it.
                        if te.is_finite() && te_std.is_finite() {
                            w.append_record(&fit_line(ri, &point))?;
                        } else {
                            telemetry::point!("sampled/skip_checkpoint", model = kind.abbrev());
                        }
                    }
                    points.push(point);
                }
            }
            progress.inc();
        }
    }

    Ok(SampledRun {
        benchmark,
        space_size: n,
        range: summary.range,
        variation: summary.variation,
        points,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::runner::try_sweep_design_space;

    fn small_cfg() -> SampledConfig {
        SampledConfig {
            sampling_rates: vec![0.05, 0.10],
            strategy: SamplingStrategy::Random,
            models: vec![ModelKind::LrB, ModelKind::NnS],
            sim: SimOptions::quick(),
            seed: 7,
            estimate_errors: true,
            export_models: None,
        }
    }

    fn small_space() -> DesignSpace {
        DesignSpace::from_configs(
            DesignSpace::table1_reduced()
                .configs()
                .iter()
                .copied()
                .step_by(2)
                .collect(),
        )
    }

    #[test]
    fn produces_points_for_every_model_and_rate() {
        let run = try_run_sampled_dse(Benchmark::Applu, &small_space(), &small_cfg(), None, None)
            .expect("sampled run");
        assert_eq!(run.points.len(), 4);
        assert_eq!(run.space_size, 288);
        for p in &run.points {
            assert!(p.true_error.is_finite() && p.true_error >= 0.0);
            assert!(p.sample_size >= 8);
            let est = p.estimated.expect("estimation enabled");
            assert!(est.max >= est.mean);
        }
    }

    #[test]
    fn models_beat_trivial_scaling() {
        // Even small samples should predict far better than a constant
        // predictor, whose MAPE equals the population spread.
        let run = try_run_sampled_dse(Benchmark::Applu, &small_space(), &small_cfg(), None, None)
            .expect("sampled run");
        let worst = run
            .points
            .iter()
            .map(|p| p.true_error)
            .fold(0.0f64, f64::max);
        assert!(
            worst < 100.0 * (run.variation),
            "true error {worst}% should beat the naive spread {}%",
            100.0 * run.variation
        );
    }

    #[test]
    fn precomputed_sweep_matches_internal() {
        let space = small_space();
        let cfg = small_cfg();
        let sweep = try_sweep_design_space(&space, Benchmark::Mesa, &cfg.sim, None)
            .expect("sweep")
            .results;
        let a = try_run_sampled_dse(Benchmark::Mesa, &space, &cfg, Some(sweep), None)
            .expect("sampled run");
        let b =
            try_run_sampled_dse(Benchmark::Mesa, &space, &cfg, None, None).expect("sampled run");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.true_error, y.true_error);
        }
    }

    #[test]
    fn point_lookup_works() {
        let run = try_run_sampled_dse(Benchmark::Applu, &small_space(), &small_cfg(), None, None)
            .expect("sampled run");
        let p = run.point(ModelKind::LrB, 0.05).expect("point exists");
        assert_eq!(p.model, ModelKind::LrB);
        assert!(run.point(ModelKind::NnE, 0.05).is_none());
    }

    fn tmp_checkpoint(name: &str) -> String {
        let dir = std::env::temp_dir().join("perfpredict-sampled-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn checkpointed_run_restores_completed_fits() {
        let space = small_space();
        let cfg = small_cfg();
        let path = tmp_checkpoint("fits.jsonl");
        let fresh = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path))
            .expect("first run");
        let lines_after_first = std::fs::read_to_string(&path)
            .expect("read")
            .lines()
            .count();
        // Header + 288 sims + 4 fits.
        assert_eq!(lines_after_first, 1 + 288 + 4);

        let resumed =
            try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path)).expect("resume");
        assert_eq!(resumed.points.len(), fresh.points.len());
        for (a, b) in fresh.points.iter().zip(&resumed.points) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.true_error, b.true_error);
            assert_eq!(a.estimated.map(|e| e.max), b.estimated.map(|e| e.max));
        }
        // Fully restored: the resume appended nothing.
        let lines_after_second = std::fs::read_to_string(&path)
            .expect("read")
            .lines()
            .count();
        assert_eq!(lines_after_first, lines_after_second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_fit_checkpoint_resumes_to_identical_results() {
        let space = small_space();
        let cfg = small_cfg();
        let path = tmp_checkpoint("fits-partial.jsonl");
        let fresh = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path))
            .expect("first run");
        // Keep the header, all sims, and the first two fit records.
        let text = std::fs::read_to_string(&path).expect("read");
        let keep: Vec<&str> = text.lines().take(1 + 288 + 2).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("truncate");

        let resumed =
            try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path)).expect("resume");
        for (a, b) in fresh.points.iter().zip(&resumed.points) {
            assert_eq!(
                a.true_error,
                b.true_error,
                "{}@{}",
                a.model.abbrev(),
                a.rate
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn precomputed_checkpoint_gets_a_header() {
        let space = small_space();
        let cfg = small_cfg();
        let path = tmp_checkpoint("fits-precomputed.jsonl");
        let sweep = try_sweep_design_space(&space, Benchmark::Applu, &cfg.sim, None)
            .expect("sweep")
            .results;
        try_run_sampled_dse(
            Benchmark::Applu,
            &space,
            &cfg,
            Some(sweep.clone()),
            Some(&path),
        )
        .expect("precomputed run");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.lines().next().expect("header").contains("\"header\""));
        // Resume also works with the precomputed sweep.
        let resumed = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, Some(sweep), Some(&path))
            .expect("resume");
        assert_eq!(resumed.points.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sample_size_is_clamped_to_tiny_tables() {
        // 40 usable rows: a 5 % draw wants 2 rows and floors to 8; a 97 %
        // draw rounds to 39. Neither may exceed n on a tiny table.
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..40].to_vec());
        let cfg = SampledConfig {
            sampling_rates: vec![0.05, 0.97],
            models: vec![ModelKind::LrE],
            estimate_errors: false,
            ..small_cfg()
        };
        let run = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, None)
            .expect("tiny table must not over-index");
        assert_eq!(run.space_size, 40);
        assert!(!run.points.is_empty(), "dropped: {:?}", run.dropped);
        for p in &run.points {
            assert!((8..=40).contains(&p.sample_size), "{p:?}");
        }
    }

    #[test]
    fn draw_sample_rejects_empty_population() {
        let err =
            draw_sample(SamplingStrategy::Systematic, &[], 0, 8, 1).expect_err("empty population");
        assert_eq!(err.kind(), "invalid");
    }

    #[test]
    fn systematic_indices_are_unique_and_in_range() {
        for (n, k) in [(10usize, 10usize), (7, 20), (288, 15), (9, 8)] {
            let rows = draw_sample(SamplingStrategy::Systematic, &[], n, k, 99).expect("non-empty");
            assert!(rows.iter().all(|&r| r < n), "n={n} k={k}: {rows:?}");
            let mut uniq = rows.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(
                uniq.len(),
                rows.len(),
                "n={n} k={k}: duplicates in {rows:?}"
            );
        }
    }

    #[test]
    fn export_models_writes_loadable_artifacts() {
        let dir = std::env::temp_dir().join("perfpredict-sampled-export");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SampledConfig {
            sampling_rates: vec![0.05],
            models: vec![ModelKind::LrB],
            estimate_errors: false,
            export_models: Some(dir.to_string_lossy().into_owned()),
            ..small_cfg()
        };
        let run = try_run_sampled_dse(Benchmark::Applu, &small_space(), &cfg, None, None)
            .expect("run with export");
        assert_eq!(run.points.len(), 1);
        let path = dir.join("applu_LR-B_r0.ppmodel");
        let art = mlmodels::ModelArtifact::load(&path.to_string_lossy()).expect("loadable");
        assert_eq!(art.model.kind, ModelKind::LrB);
        assert_eq!(art.schema.columns.len(), 24, "Table-1 parameter count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_rate_is_a_typed_error() {
        let cfg = SampledConfig {
            sampling_rates: vec![1.5],
            ..small_cfg()
        };
        let err = try_run_sampled_dse(Benchmark::Applu, &small_space(), &cfg, None, None)
            .expect_err("rate out of range");
        assert_eq!(err.kind(), "invalid");
    }

    #[test]
    fn nan_cycles_are_dropped_not_fatal() {
        let space = small_space();
        let cfg = small_cfg();
        let mut sweep = try_sweep_design_space(&space, Benchmark::Applu, &cfg.sim, None)
            .expect("sweep")
            .results;
        for r in sweep.iter_mut().take(20) {
            r.cycles = f64::NAN;
        }
        let run = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, Some(sweep), None)
            .expect("run survives NaN rows");
        assert_eq!(run.space_size, 288 - 20);
        assert_eq!(run.points.len(), 4);
    }

    #[test]
    fn all_nan_sweep_is_degenerate() {
        let space = small_space();
        let cfg = small_cfg();
        let mut sweep = try_sweep_design_space(&space, Benchmark::Applu, &cfg.sim, None)
            .expect("sweep")
            .results;
        for r in sweep.iter_mut() {
            r.cycles = f64::NAN;
        }
        let err = try_run_sampled_dse(Benchmark::Applu, &space, &cfg, Some(sweep), None)
            .expect_err("nothing usable");
        assert_eq!(err.kind(), "degenerate");
    }
}
