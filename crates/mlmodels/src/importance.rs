//! Predictor-importance analysis (§4.4).
//!
//! The paper reports two importance measures: for neural networks, a
//! sensitivity score in [0, 1] ("0 denoting that the field has no effect on
//! the prediction and 1.0 denoting that the field completely determines the
//! prediction"); for linear regression, the standardized beta
//! coefficients. Both are reproduced here:
//!
//! * NN sensitivity: sweep each input across its training range at every
//!   data point (others held fixed), record the mean output swing, and
//!   normalize by the largest swing.
//! * LR importance: |standardized beta| per active predictor, with encoded
//!   features mapped back to their source columns.

use crate::model::{Estimator, TrainedModel};
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// Importance of one source predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Importance {
    /// Predictor (source column) name.
    pub name: String,
    /// Relative importance score.
    pub score: f64,
}

/// Number of grid points per input sweep.
const SWEEP_POINTS: usize = 7;
/// Number of data rows sampled as sweep bases.
const SWEEP_BASES: usize = 32;

/// Compute per-predictor importance for a trained model, sorted descending.
///
/// Scores are grouped by *source column* (one-hot indicator columns of the
/// same categorical field merge into one entry) and normalized so the top
/// predictor scores 1.0 for networks, matching the paper's convention;
/// linear models report |standardized beta| unnormalized, as §4.4 does.
pub fn importance(model: &TrainedModel, table: &Table) -> Vec<Importance> {
    let feats = model.prep.features();
    let mut by_source: std::collections::BTreeMap<usize, f64> = Default::default();

    match &model.estimator {
        Estimator::Linear(fit) => {
            for (k, &col) in fit.active.iter().enumerate() {
                let src = feats[col].source_column;
                let entry = by_source.entry(src).or_insert(0.0);
                *entry = entry.max(fit.std_betas[k].abs());
            }
        }
        Estimator::Network(net) => {
            let x = model.prep.transform(table);
            let n = x.rows();
            let stride = (n / SWEEP_BASES).max(1);
            for (j, _f) in feats.iter().enumerate() {
                if net.input_is_dead(j) {
                    by_source.entry(feats[j].source_column).or_insert(0.0);
                    continue;
                }
                // Swing of the output as input j sweeps its scaled range.
                let mut total_swing = 0.0;
                let mut bases = 0usize;
                let mut i = 0;
                while i < n && bases < SWEEP_BASES {
                    let mut row = x.row(i).to_vec();
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for g in 0..SWEEP_POINTS {
                        row[j] = g as f64 / (SWEEP_POINTS - 1) as f64;
                        let p = net.forward(&row);
                        lo = lo.min(p);
                        hi = hi.max(p);
                    }
                    total_swing += hi - lo;
                    bases += 1;
                    i += stride;
                }
                let swing = total_swing / bases.max(1) as f64;
                let entry = by_source.entry(feats[j].source_column).or_insert(0.0);
                *entry = entry.max(swing);
            }
            // Normalize to [0, 1] by the dominant swing.
            let top = by_source.values().cloned().fold(0.0f64, f64::max);
            if top > 0.0 {
                for v in by_source.values_mut() {
                    *v /= top;
                }
            }
        }
    }

    let names = table.names();
    let mut out: Vec<Importance> = by_source
        .into_iter()
        .map(|(src, score)| Importance {
            name: names[src].clone(),
            score,
        })
        .collect();
    // total_cmp: a NaN score (degenerate weight column) sorts last
    // instead of panicking mid-report.
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{try_train, ModelKind};

    /// x0 dominates y; x1 minor; x2 irrelevant.
    fn table(n: usize) -> Table {
        let a: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 100.0 + 10.0 * a[i] + 1.0 * b[i] + 0.0 * c[i])
            .collect();
        let mut t = Table::new();
        t.add_numeric("dominant", a)
            .add_numeric("minor", b)
            .add_numeric("irrelevant", c)
            .set_target(y);
        t
    }

    #[test]
    fn linear_importance_ranks_dominant_first() {
        let t = table(90);
        let m = try_train(ModelKind::LrE, &t, 1).expect("train");
        let imp = importance(&m, &t);
        assert_eq!(imp[0].name, "dominant");
        assert!(imp[0].score > 2.0 * imp[1].score);
    }

    #[test]
    fn network_importance_ranks_dominant_first_and_normalizes() {
        let t = table(120);
        let m = try_train(ModelKind::NnQ, &t, 2).expect("train");
        let imp = importance(&m, &t);
        assert_eq!(imp[0].name, "dominant");
        assert!(
            (imp[0].score - 1.0).abs() < 1e-12,
            "top score normalized to 1"
        );
        let irr = imp.iter().find(|i| i.name == "irrelevant").unwrap();
        assert!(irr.score < 0.5, "irrelevant score {}", irr.score);
    }

    #[test]
    fn one_hot_features_merge_into_source_column() {
        let mut t = table(60);
        let codes: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
        t.add_categorical("bpred", codes, vec!["a".into(), "b".into(), "c".into()]);
        let m = try_train(ModelKind::NnQ, &t, 3).expect("train");
        let imp = importance(&m, &t);
        let n_bpred = imp.iter().filter(|i| i.name.starts_with("bpred")).count();
        assert_eq!(n_bpred, 1, "indicator columns must merge: {imp:?}");
    }

    #[test]
    fn importances_are_sorted_descending() {
        let t = table(90);
        let m = try_train(ModelKind::LrB, &t, 4).expect("train");
        let imp = importance(&m, &t);
        for w in imp.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
