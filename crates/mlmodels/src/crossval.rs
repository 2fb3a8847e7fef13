//! Error estimation by repeated 50 % cross-validation — the §3.3 protocol.
//!
//! "Clementine randomly divides the training data into two equal sets,
//! using half of the data to train the model and the other half to
//! simulate. … we have generated five random sets of 50 % of the training
//! data, and calculated the error the model achieves on these data subsets
//! using cross-validation. We have taken the average predictive error on
//! these data sets, as well as the maximum of the error. … in general
//! maximum gives a closer estimate."
//!
//! This five-split protocol is the workspace's only cross-validation, and
//! every split is an ordinary [`try_train`] fit of its training half.

use crate::model::{try_train, ModelKind};
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
    let errors = split_errors(kind, table, seed)?;
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

/// The per-split mean percentage errors, in split order. Each split's
/// model is a plain [`try_train`] fit of its random half, so a fold
/// scores exactly the model a standalone fit of those rows would give.
fn split_errors(kind: ModelKind, table: &Table, seed: u64) -> Result<Vec<f64>> {
    let n = table.n_rows();
    if n < 8 {
        return Err(Error::degenerate(format!(
            "need at least 8 rows for 50% cross-validation, got {n}"
        )));
    }
    let errors: Vec<Result<f64>> =
        telemetry::par_map(N_SPLITS, telemetry::default_workers(), |s| {
            let _span = telemetry::span!("fold", model = kind.abbrev(), split = s);
            let split_seed = child_seed(seed, 0xCE + s as u64);
            let mut rng = seeded_rng(split_seed);
            let perm = permutation(&mut rng, n);
            let half = n / 2;
            let tr = table.select_rows(&perm[..half]);
            let te = table.select_rows(&perm[half..]);
            let t_fit = telemetry::enabled().then(std::time::Instant::now);
            let model = try_train(kind, &tr, child_seed(split_seed, 1))?;
            if let Some(t) = t_fit {
                telemetry::hist_observe_ns("train/fold_fit_ns", t.elapsed());
            }
            let preds = model.try_predict(&te)?;
            let (m, _) = mape(&preds, te.target());
            Ok(m)
        });
    errors.into_iter().collect()
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

    /// Cross-validation measures exactly what it claims: every split's
    /// error is, bit for bit, the error of a standalone `try_train` fit of
    /// that split's training half scored on the other half.
    #[test]
    fn cached_folds_match_direct_training() {
        let t = table(80);
        let n = t.n_rows();
        let seed = 11;
        for kind in [ModelKind::LrS, ModelKind::LrF, ModelKind::LrB] {
            let direct: Vec<f64> = (0..N_SPLITS)
                .map(|s| {
                    let split_seed = child_seed(seed, 0xCE + s as u64);
                    let perm = permutation(&mut seeded_rng(split_seed), n);
                    let tr = t.select_rows(&perm[..n / 2]);
                    let te = t.select_rows(&perm[n / 2..]);
                    let model =
                        try_train(kind, &tr, child_seed(split_seed, 1)).expect("direct train");
                    mape(&model.try_predict(&te).expect("predict"), te.target()).0
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<u64>>();
            let splits = split_errors(kind, &t, seed).expect("splits");
            assert_eq!(bits(&splits), bits(&direct), "{}", kind.abbrev());
            let est = try_estimate_error(kind, &t, seed).expect("estimate");
            let direct_max = direct.iter().cloned().fold(0.0f64, f64::max);
            assert_eq!(est.max.to_bits(), direct_max.to_bits(), "{}", kind.abbrev());
            assert_eq!(
                est.mean.to_bits(),
                linalg::stats::mean(&direct).to_bits(),
                "{}",
                kind.abbrev()
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
