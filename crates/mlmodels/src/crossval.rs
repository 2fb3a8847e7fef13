//! Error estimation by repeated 50 % cross-validation — the §3.3 protocol.
//!
//! "Clementine randomly divides the training data into two equal sets,
//! using half of the data to train the model and the other half to
//! simulate. … we have generated five random sets of 50 % of the training
//! data, and calculated the error the model achieves on these data subsets
//! using cross-validation. We have taken the average predictive error on
//! these data sets, as well as the maximum of the error. … in general
//! maximum gives a closer estimate."

use crate::gramcache::LrGramCache;
use crate::model::{try_train_cached, ModelKind};
use crate::table::Table;
use fault::{Error, Result};
use linalg::dist::{child_seed, permutation, seeded_rng};
use linalg::stats::mape;
use serde::{Deserialize, Serialize};

/// Number of random splits (the paper uses five).
pub(crate) const N_SPLITS: usize = 5;

/// Estimated predictive error from the five-split protocol.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ErrorEstimate {
    /// Mean of the five per-split mean-percentage errors.
    pub mean: f64,
    /// Maximum of the five — the estimate the paper reports and the
    /// *select* method uses.
    pub max: f64,
}

/// A candidate model dropped from a selection set, with the reason — the
/// §3.3 *select* method degrades gracefully instead of poisoning the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropped {
    /// The candidate that failed.
    pub kind: ModelKind,
    /// Error kind tag (`diverged`, `degenerate`, `singular`, …).
    pub reason: String,
    /// Full error message.
    pub detail: String,
}

/// Run the §3.3 estimation for one model kind on a training table: each
/// split trains on a random half and
/// measures the mean percentage error on the complementary half, splits
/// in parallel. A failed split fit (diverged, singular, degenerate) fails
/// the whole estimate — the candidate is then dropped by
/// [`estimate_all_fallible`] with the reason recorded.
pub fn try_estimate_error(kind: ModelKind, table: &Table, seed: u64) -> Result<ErrorEstimate> {
    let _span = telemetry::span!("estimate", model = kind.abbrev());
    let n = table.n_rows();
    if n < 8 {
        return Err(Error::degenerate(format!(
            "need at least 8 rows for 50% cross-validation, got {n}"
        )));
    }
    // One unscaled full-table Gram shared by every split: each fold's
    // statistics are derived by held-out-row subtraction + rescaling
    // instead of re-accumulating from the fold's rows.
    let cache = if kind.is_linear() {
        LrGramCache::new(table)
    } else {
        None
    };
    let errors: Vec<Result<f64>> =
        telemetry::par_map(N_SPLITS, telemetry::default_workers(), |s| {
            let _span = telemetry::span!("fold", model = kind.abbrev(), split = s);
            let split_seed = child_seed(seed, 0xCE + s as u64);
            let mut rng = seeded_rng(split_seed);
            let perm = permutation(&mut rng, n);
            let half = n / 2;
            let train_rows = &perm[..half];
            let test_rows = &perm[half..];
            let tr = table.select_rows(train_rows);
            let te = table.select_rows(test_rows);
            let t_fit = telemetry::enabled().then(std::time::Instant::now);
            let model = try_train_cached(
                kind,
                &tr,
                child_seed(split_seed, 1),
                cache.as_ref(),
                test_rows,
            )?;
            if let Some(t) = t_fit {
                telemetry::hist_observe_ns("train/fold_fit_ns", t.elapsed());
            }
            let preds = model.try_predict(&te)?;
            let (m, _) = mape(&preds, te.target());
            Ok(m)
        });
    let errors = errors.into_iter().collect::<Result<Vec<f64>>>()?;
    let mean = linalg::stats::mean(&errors);
    let max = errors.iter().cloned().fold(0.0f64, f64::max);
    if !max.is_finite() {
        return Err(Error::degenerate(format!(
            "{}: cross-validation produced a non-finite error estimate",
            kind.abbrev()
        )));
    }
    Ok(ErrorEstimate { mean, max })
}

/// Estimate every candidate's error, candidates in parallel, degrading
/// gracefully: a candidate whose
/// estimation fails is moved to the dropped list with its reason
/// (telemetry point `select/drop_model`) instead of failing the run —
/// mirroring how the paper's select falls back to the next-best model.
pub fn estimate_all_fallible(
    kinds: &[ModelKind],
    table: &Table,
    seed: u64,
) -> (Vec<(ModelKind, ErrorEstimate)>, Vec<Dropped>) {
    let results: Vec<(ModelKind, Result<ErrorEstimate>)> =
        telemetry::par_map(kinds.len(), telemetry::default_workers(), |i| {
            let k = kinds[i];
            (
                k,
                try_estimate_error(
                    k,
                    table,
                    child_seed(seed, k.abbrev().len() as u64 * 31 + k as u64),
                ),
            )
        });
    let mut estimates = Vec::new();
    let mut dropped = Vec::new();
    for (kind, r) in results {
        match r {
            Ok(est) => estimates.push((kind, est)),
            Err(e) => {
                telemetry::point!(
                    "select/drop_model",
                    model = kind.abbrev(),
                    reason = e.kind()
                );
                dropped.push(Dropped {
                    kind,
                    reason: e.kind().to_string(),
                    detail: e.to_string(),
                });
            }
        }
    }
    (estimates, dropped)
}

/// The paper's *select* method: the candidate with the smallest maximum
/// estimated error. Candidates with non-finite max estimates are
/// ignored; if none remain, [`Error::NoViableModel`] lists every
/// candidate with why it was unusable.
pub fn try_select_best(estimates: &[(ModelKind, ErrorEstimate)]) -> Result<ModelKind> {
    let viable = estimates
        .iter()
        .filter(|(_, est)| est.max.is_finite())
        .min_by(|a, b| a.1.max.total_cmp(&b.1.max));
    match viable {
        Some((kind, _)) => Ok(*kind),
        None => Err(Error::NoViableModel {
            reasons: estimates
                .iter()
                .map(|(k, est)| {
                    (
                        k.abbrev().to_string(),
                        format!("non-finite max error estimate ({})", est.max),
                    )
                })
                .collect(),
        }),
    }
}

/// Generalized k-fold cross-validation (an extension of the paper's fixed
/// 2-fold×5-repeat protocol): partition the rows into `k` folds, train on
/// k−1, test on the held-out fold, and average the mean percentage errors.
///
/// Precondition violations surface as
/// [`Error::InvalidInput`] instead of panicking; a failed fold fit
/// propagates its typed error. Linear folds score candidates against the
/// shared full-table Gram ([`LrGramCache`]) — each fold holds out only
/// `n/k` rows, so deriving its statistics by subtraction is ~k× cheaper
/// than re-accumulating them.
pub fn try_kfold_error(kind: ModelKind, table: &Table, k: usize, seed: u64) -> Result<f64> {
    let n = table.n_rows();
    if k < 2 {
        return Err(Error::invalid(format!("k-fold needs k >= 2, got {k}")));
    }
    if n < 2 * k {
        return Err(Error::invalid(format!(
            "k-fold needs at least 2 rows per fold: {n} rows for k = {k}"
        )));
    }
    let cache = if kind.is_linear() {
        LrGramCache::new(table)
    } else {
        None
    };
    let mut rng = seeded_rng(child_seed(seed, 0xF0_1D));
    let perm = permutation(&mut rng, n);
    let errors: Vec<Result<f64>> = telemetry::par_map(k, telemetry::default_workers(), |fold| {
        let _span = telemetry::span!("fold", model = kind.abbrev(), fold = fold, k = k);
        let test_rows: Vec<usize> = perm
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k == fold)
            .map(|(_, &r)| r)
            .collect();
        let train_rows: Vec<usize> = perm
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k != fold)
            .map(|(_, &r)| r)
            .collect();
        let tr = table.select_rows(&train_rows);
        let te = table.select_rows(&test_rows);
        let t_fit = telemetry::enabled().then(std::time::Instant::now);
        let model = try_train_cached(
            kind,
            &tr,
            child_seed(seed, fold as u64),
            cache.as_ref(),
            &test_rows,
        )?;
        if let Some(t) = t_fit {
            telemetry::hist_observe_ns("train/fold_fit_ns", t.elapsed());
        }
        let (m, _) = mape(&model.try_predict(&te)?, te.target());
        Ok(m)
    });
    let errors = errors.into_iter().collect::<Result<Vec<f64>>>()?;
    Ok(linalg::stats::mean(&errors))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> Table {
        let xs: Vec<f64> = (0..n).map(|i| (i % 23) as f64).collect();
        let zs: Vec<f64> = (0..n).map(|i| ((i * 7) % 19) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .zip(&zs)
            .map(|(x, z)| 50.0 + 3.0 * x - z)
            .collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).add_numeric("z", zs).set_target(y);
        t
    }

    #[test]
    fn linear_data_gives_tiny_estimated_error_for_lr() {
        let t = table(100);
        let est = try_estimate_error(ModelKind::LrE, &t, 1).expect("estimate");
        assert!(est.mean < 0.5, "mean {}", est.mean);
        assert!(est.max < 1.0, "max {}", est.max);
        assert!(est.max >= est.mean);
    }

    #[test]
    fn estimates_are_deterministic() {
        let t = table(80);
        let a = try_estimate_error(ModelKind::LrB, &t, 9).expect("estimate");
        let b = try_estimate_error(ModelKind::LrB, &t, 9).expect("estimate");
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn select_best_picks_lowest_max() {
        let ests = vec![
            (
                ModelKind::LrE,
                ErrorEstimate {
                    mean: 2.0,
                    max: 4.0,
                },
            ),
            (
                ModelKind::NnE,
                ErrorEstimate {
                    mean: 2.5,
                    max: 3.0,
                },
            ),
            (
                ModelKind::NnS,
                ErrorEstimate {
                    mean: 1.0,
                    max: 5.0,
                },
            ),
        ];
        assert_eq!(try_select_best(&ests).expect("viable"), ModelKind::NnE);
    }

    #[test]
    fn estimate_all_fallible_records_dropped_candidates() {
        // 6 rows cannot support 50% cross-validation: every candidate is
        // dropped with a recorded reason instead of panicking.
        let t = table(6);
        let (ests, dropped) = estimate_all_fallible(&[ModelKind::LrE, ModelKind::NnS], &t, 1);
        assert!(ests.is_empty());
        assert_eq!(dropped.len(), 2);
        for d in &dropped {
            assert_eq!(d.reason, "degenerate");
            assert!(d.detail.contains("8 rows"), "{}", d.detail);
        }
    }

    #[test]
    fn try_select_best_skips_non_finite_and_reports_no_viable() {
        let nan_est = ErrorEstimate {
            mean: f64::NAN,
            max: f64::NAN,
        };
        let good = ErrorEstimate {
            mean: 2.0,
            max: 3.0,
        };
        let picked =
            try_select_best(&[(ModelKind::LrE, nan_est), (ModelKind::NnE, good)]).expect("viable");
        assert_eq!(picked, ModelKind::NnE);
        match try_select_best(&[(ModelKind::LrE, nan_est)]) {
            Err(fault::Error::NoViableModel { reasons }) => {
                assert_eq!(reasons.len(), 1);
                assert_eq!(reasons[0].0, "LR-E");
            }
            other => panic!("expected NoViableModel, got {other:?}"),
        }
    }

    #[test]
    fn kfold_error_is_small_on_linear_data() {
        let t = table(90);
        let err = try_kfold_error(ModelKind::LrE, &t, 5, 7).expect("k-fold");
        assert!(err < 0.5, "5-fold LR error on linear data: {err}");
    }

    #[test]
    fn kfold_is_deterministic() {
        let t = table(60);
        assert_eq!(
            try_kfold_error(ModelKind::LrB, &t, 3, 1).expect("k-fold"),
            try_kfold_error(ModelKind::LrB, &t, 3, 1).expect("k-fold")
        );
    }

    #[test]
    fn try_kfold_reports_invalid_input_instead_of_panicking() {
        let t = table(60);
        match try_kfold_error(ModelKind::LrE, &t, 1, 0) {
            Err(fault::Error::InvalidInput { detail }) => {
                assert!(detail.contains("k >= 2"), "{detail}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let tiny = table(7);
        match try_kfold_error(ModelKind::LrE, &tiny, 4, 0) {
            Err(fault::Error::InvalidInput { detail }) => {
                assert!(detail.contains("2 rows per fold"), "{detail}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    /// The shared-Gram fold statistics must not change what CV measures:
    /// every fold model equals one trained directly on the fold's rows.
    #[test]
    fn cached_folds_match_direct_training() {
        use crate::model::try_train;
        use linalg::dist::{child_seed, permutation, seeded_rng};
        let t = table(80);
        for kind in [ModelKind::LrS, ModelKind::LrF, ModelKind::LrB] {
            let seed = 11;
            let est = try_estimate_error(kind, &t, seed).expect("estimate");
            // Re-run the split protocol without the cache.
            let n = t.n_rows();
            let mut errors = Vec::new();
            for s in 0..N_SPLITS {
                let split_seed = child_seed(seed, 0xCE + s as u64);
                let mut rng = seeded_rng(split_seed);
                let perm = permutation(&mut rng, n);
                let half = n / 2;
                let tr = t.select_rows(&perm[..half]);
                let te = t.select_rows(&perm[half..]);
                let model = try_train(kind, &tr, child_seed(split_seed, 1)).expect("direct train");
                let (m, _) = mape(&model.try_predict(&te).expect("predict"), te.target());
                errors.push(m);
            }
            let direct_max = errors.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                (est.max - direct_max).abs() <= 1e-9 * (1.0 + direct_max),
                "{}: cached {} vs direct {direct_max}",
                kind.abbrev(),
                est.max
            );
        }
    }

    #[test]
    fn select_prefers_lr_on_linear_data() {
        let t = table(100);
        let (ests, dropped) = estimate_all_fallible(&[ModelKind::LrE, ModelKind::NnS], &t, 3);
        assert!(dropped.is_empty(), "{dropped:?}");
        assert_eq!(try_select_best(&ests).expect("viable"), ModelKind::LrE);
    }
}
