//! Chronological predictive modelling (Figure 1b, §4.3).
//!
//! Train every model on the announcements of one year and predict the
//! following year's systems. The paper's headline: linear regression wins
//! (networks over-fit the training year and extrapolate poorly), LR-E best
//! on the Intel single-socket families, LR-S/LR-B best on the Opteron
//! SMPs, and everything within ~2 % on Pentium D's short, homogeneous
//! history.

use crate::data::try_table_from_announcements;
use fault::{Error, Result};
use linalg::dist::child_seed;
use linalg::stats::mape;
use mlmodels::crossval::{try_estimate_error, Dropped, ErrorEstimate};
use mlmodels::importance::{importance, Importance};
use mlmodels::{try_train, ModelKind};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use specdata::{AnnouncementSet, ProcessorFamily};

/// Configuration of a chronological experiment.
#[derive(Debug, Clone)]
pub struct ChronoConfig {
    /// Training year (the paper uses 2005 → 2006).
    pub train_year: u32,
    /// Models to evaluate (Figures 7–8 plot all nine).
    pub models: Vec<ModelKind>,
    /// Data-generation seed.
    pub data_seed: u64,
    /// Training seed.
    pub seed: u64,
    /// Whether to run §3.3 error estimation on the training year.
    pub estimate_errors: bool,
    /// Directory to export every successfully trained model into as a
    /// `.ppmodel` artifact (`None` disables export).
    pub export_models: Option<String>,
}

impl Default for ChronoConfig {
    fn default() -> Self {
        ChronoConfig {
            train_year: 2005,
            models: ModelKind::FIGURE7_ORDER.to_vec(),
            data_seed: 42,
            seed: 0xC4,
            estimate_errors: false,
            export_models: None,
        }
    }
}

/// One model's chronological prediction quality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChronoPoint {
    /// Model evaluated.
    pub model: ModelKind,
    /// Mean percentage error on the future year.
    pub error_mean: f64,
    /// Std-dev of the percentage error (the Figure 7/8 error bars).
    pub error_std: f64,
    /// Estimated error from the training year (when requested).
    pub estimated: Option<ErrorEstimate>,
    /// Predictor importance from this trained model.
    pub importance: Vec<Importance>,
}

/// Full chronological result for one family.
#[derive(Debug, Clone)]
pub struct ChronoResult {
    /// Processor family.
    pub family: ProcessorFamily,
    /// Training rows (train year).
    pub n_train: usize,
    /// Test rows (train year + 1).
    pub n_test: usize,
    /// Per-model results, in `cfg.models` order (failed models omitted).
    pub points: Vec<ChronoPoint>,
    /// Models whose fit failed, with their recorded reasons.
    pub dropped: Vec<Dropped>,
}

impl ChronoResult {
    /// The best (lowest mean error) model and its error — Table 2's
    /// cells — among those with a finite mean error, or
    /// [`Error::NoViableModel`] when every candidate failed or scored
    /// non-finite.
    pub fn try_best(&self) -> Result<(&ChronoPoint, f64)> {
        let p = self
            .points
            .iter()
            .filter(|p| p.error_mean.is_finite())
            .min_by(|a, b| a.error_mean.total_cmp(&b.error_mean));
        match p {
            Some(p) => Ok((p, p.error_mean)),
            None => {
                let mut reasons: Vec<(String, String)> = self
                    .points
                    .iter()
                    .map(|p| {
                        (
                            p.model.abbrev().to_string(),
                            format!("non-finite mean error ({})", p.error_mean),
                        )
                    })
                    .collect();
                reasons.extend(
                    self.dropped
                        .iter()
                        .map(|d| (d.kind.abbrev().to_string(), d.detail.clone())),
                );
                Err(Error::NoViableModel { reasons })
            }
        }
    }

    /// All models within `slack` (relative) of the best — the paper lists
    /// ties like "LR-B/LR-S". Errors as [`Self::try_best`] does.
    pub fn best_set(&self, slack: f64) -> Result<Vec<ModelKind>> {
        let (_, best) = self.try_best()?;
        Ok(self
            .points
            .iter()
            .filter(|p| p.error_mean <= best * (1.0 + slack))
            .map(|p| p.model)
            .collect())
    }
}

/// Run the chronological experiment for one family.
///
/// An empty training or test year is [`Error::DegenerateData`]. A model
/// whose fit fails is recorded in [`ChronoResult::dropped`] with its
/// reason instead of poisoning the family's whole result; a failed §3.3
/// estimation leaves `estimated: None` on an otherwise valid point.
pub fn try_run_chronological(family: ProcessorFamily, cfg: &ChronoConfig) -> Result<ChronoResult> {
    let _span = telemetry::span!(
        "chronological",
        family = family.name(),
        train_year = cfg.train_year,
        models = cfg.models.len(),
    );
    let set = AnnouncementSet::generate(family, cfg.data_seed);
    let (train_recs, test_recs) = set.try_chronological_split(cfg.train_year)?;
    let train_table = try_table_from_announcements(&train_recs)?;
    let test_table = try_table_from_announcements(&test_recs)?;
    if let Some(dir) = &cfg.export_models {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir.clone(), e))?;
    }

    let progress = telemetry::Progress::new("chronological", cfg.models.len() as u64);
    type Outcome = std::result::Result<(ChronoPoint, Option<mlmodels::TrainedModel>), Dropped>;
    let outcomes: Vec<Result<Outcome>> = cfg
        .models
        .par_iter()
        .enumerate()
        .map(|(mi, &kind)| {
            let _model_span =
                telemetry::span!("model", model = kind.abbrev(), family = family.name());
            let seed = child_seed(cfg.seed, mi as u64);
            let fit = {
                let _fit_span = telemetry::span!("fit", model = kind.abbrev());
                try_train(kind, &train_table, seed)
            };
            let model = match fit {
                Ok(m) => m,
                Err(e) => {
                    telemetry::point!(
                        "chrono/drop_model",
                        model = kind.abbrev(),
                        reason = e.kind()
                    );
                    progress.inc();
                    return Ok(Err(Dropped {
                        kind,
                        reason: e.kind().to_string(),
                        detail: e.to_string(),
                    }));
                }
            };
            let preds = model.try_predict(&test_table)?;
            let (error_mean, error_std) = mape(&preds, test_table.target());
            let estimated = if cfg.estimate_errors {
                let _est_span = telemetry::span!("estimate_error", model = kind.abbrev());
                match try_estimate_error(kind, &train_table, child_seed(seed, 0xE5)) {
                    Ok(est) => Some(est),
                    Err(e) => {
                        telemetry::point!(
                            "chrono/estimate_failed",
                            model = kind.abbrev(),
                            reason = e.kind()
                        );
                        None
                    }
                }
            } else {
                None
            };
            progress.inc();
            let imp = importance(&model, &train_table);
            let keep_model = cfg.export_models.is_some();
            Ok(Ok((
                ChronoPoint {
                    model: kind,
                    error_mean,
                    error_std,
                    estimated,
                    importance: imp,
                },
                keep_model.then_some(model),
            )))
        })
        .collect();

    let mut points = Vec::new();
    let mut dropped = Vec::new();
    for outcome in outcomes {
        match outcome? {
            Ok((p, model)) => {
                if let (Some(dir), Some(model)) = (&cfg.export_models, model) {
                    let path = format!(
                        "{dir}/{}_{}_y{}.ppmodel",
                        family.name(),
                        p.model.abbrev(),
                        cfg.train_year
                    );
                    mlmodels::ModelArtifact::from_training(model, &train_table).save(&path)?;
                    telemetry::point!("chrono/export", model = p.model.abbrev(), path = path);
                }
                points.push(p);
            }
            Err(d) => dropped.push(d),
        }
    }

    Ok(ChronoResult {
        family,
        n_train: train_table.n_rows(),
        n_test: test_table.n_rows(),
        points,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ChronoConfig {
        ChronoConfig {
            models: vec![ModelKind::LrE, ModelKind::LrB, ModelKind::NnS],
            ..Default::default()
        }
    }

    #[test]
    fn produces_results_for_each_model() {
        let r = try_run_chronological(ProcessorFamily::Opteron, &quick_cfg())
            .expect("chronological run");
        assert_eq!(r.points.len(), 3);
        assert!(r.n_train > 10 && r.n_test > 10);
        for p in &r.points {
            assert!(p.error_mean.is_finite() && p.error_mean >= 0.0);
            assert!(p.error_std >= 0.0);
            assert!(!p.importance.is_empty());
        }
    }

    #[test]
    fn linear_models_predict_the_future_year_well() {
        for fam in [ProcessorFamily::Opteron, ProcessorFamily::Xeon] {
            let r = try_run_chronological(fam, &quick_cfg()).expect("chronological run");
            let lr_best = r
                .points
                .iter()
                .filter(|p| p.model.is_linear())
                .map(|p| p.error_mean)
                .fold(f64::INFINITY, f64::min);
            assert!(
                lr_best < 10.0,
                "{}: best LR error {lr_best}% too high",
                fam.name()
            );
        }
    }

    #[test]
    fn processor_speed_dominates_importance() {
        let r = try_run_chronological(ProcessorFamily::Opteron, &quick_cfg())
            .expect("chronological run");
        // For the LR-E model the top importance should be processor speed
        // (paper: standardized beta 0.915).
        let lre = r.points.iter().find(|p| p.model == ModelKind::LrE).unwrap();
        assert_eq!(
            lre.importance[0].name,
            "processor_speed_mhz",
            "importances: {:?}",
            &lre.importance[..3.min(lre.importance.len())]
        );
    }

    #[test]
    fn best_set_includes_the_minimum() {
        let r = try_run_chronological(ProcessorFamily::PentiumD, &quick_cfg())
            .expect("chronological run");
        let (best_point, _) = r.try_best().expect("a viable model");
        assert!(r
            .best_set(0.1)
            .expect("a viable model")
            .contains(&best_point.model));
    }

    #[test]
    fn estimated_errors_present_when_requested() {
        let cfg = ChronoConfig {
            models: vec![ModelKind::LrE],
            estimate_errors: true,
            ..Default::default()
        };
        let r = try_run_chronological(ProcessorFamily::Opteron, &cfg).expect("chronological run");
        let est = r.points[0].estimated.expect("requested estimation");
        assert!(est.max >= est.mean);
    }

    #[test]
    fn train_year_is_configurable() {
        let cfg = ChronoConfig {
            train_year: 2004,
            models: vec![ModelKind::LrE],
            ..Default::default()
        };
        let r = try_run_chronological(ProcessorFamily::Opteron4, &cfg).expect("chronological run");
        assert!(r.n_train > 0 && r.n_test > 0);
    }

    #[test]
    fn empty_year_is_a_typed_error() {
        let cfg = ChronoConfig {
            train_year: 1980,
            models: vec![ModelKind::LrE],
            ..Default::default()
        };
        let err = try_run_chronological(ProcessorFamily::Opteron, &cfg).expect_err("no 1980 data");
        assert_eq!(err.kind(), "degenerate");
    }

    #[test]
    fn export_models_writes_loadable_artifacts() {
        let dir = std::env::temp_dir().join("perfpredict-chrono-export");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ChronoConfig {
            models: vec![ModelKind::LrE, ModelKind::NnS],
            export_models: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let r = try_run_chronological(ProcessorFamily::Opteron, &cfg).expect("chronological run");
        assert_eq!(r.points.len(), 2);
        let mut exported: Vec<_> = std::fs::read_dir(&dir)
            .expect("export dir")
            .map(|e| e.expect("entry").path())
            .collect();
        exported.sort();
        assert_eq!(exported.len(), 2, "{exported:?}");
        for path in &exported {
            let art = mlmodels::ModelArtifact::load(&path.to_string_lossy()).expect("loadable");
            assert_eq!(art.schema.columns.len(), 32, "announcement parameter count");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_per_seeds() {
        let a = try_run_chronological(ProcessorFamily::Opteron2, &quick_cfg())
            .expect("chronological run");
        let b = try_run_chronological(ProcessorFamily::Opteron2, &quick_cfg())
            .expect("chronological run");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.error_mean, y.error_mean);
        }
    }
}
