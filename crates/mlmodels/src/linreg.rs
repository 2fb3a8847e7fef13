//! Ordinary least squares with regression diagnostics.
//!
//! §3.1: the response is modelled as `y = β0 + β1 x1 + … + βp xp + ε`,
//! fitted by least squares. Beyond the fit itself, the selection drivers in
//! [`crate::select`] need the residual sum of squares and partial-F
//! statistics, and §4.4 reports *standardized beta coefficients* as the
//! importance measure — all computed here.

use fault::{Error, Result};
use linalg::matrix::dot;
use linalg::solve::{lstsq_ridge, spd_inverse, try_lstsq};
use linalg::special::t_sf_two_sided;
use linalg::stats::{mean, sample_variance};
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted linear model over a subset of predictors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearFit {
    /// Indices of the active predictors (columns of the design matrix).
    pub active: Vec<usize>,
    /// Intercept β0.
    pub intercept: f64,
    /// Coefficients, aligned with `active`.
    pub coefs: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Total sum of squares of the response.
    pub tss: f64,
    /// Observation count.
    pub n: usize,
    /// Standardized betas (βj · sd(xj)/sd(y)), aligned with `active`.
    pub std_betas: Vec<f64>,
    /// Two-sided p-values of each coefficient's t statistic, aligned with
    /// `active` (1.0 when not computable).
    pub p_values: Vec<f64>,
}

impl LinearFit {
    /// Strict fit on the columns `active` of `x` (full design matrix, no
    /// intercept column — one is added internally): a rank-deficient
    /// active set yields [`Error::SingularSystem`] instead of a
    /// ridge-blurred solution. Selection drivers use this to *skip*
    /// collinear candidates.
    pub fn try_fit(x: &Matrix, y: &[f64], active: &[usize]) -> Result<LinearFit> {
        Self::fit_impl(x, y, active, false)
    }

    /// [`Self::try_fit`] with a ridge fallback for collinear active sets
    /// (the Enter method regresses on all predictors regardless of
    /// redundancy). Still errors on non-finite data or too few
    /// observations.
    pub fn try_fit_ridge(x: &Matrix, y: &[f64], active: &[usize]) -> Result<LinearFit> {
        Self::fit_impl(x, y, active, true)
    }

    fn fit_impl(x: &Matrix, y: &[f64], active: &[usize], ridge: bool) -> Result<LinearFit> {
        let n = x.rows();
        if n != y.len() {
            return Err(Error::degenerate(format!(
                "design/target length mismatch: {n} rows vs {} targets",
                y.len()
            )));
        }
        if n <= active.len() + 1 {
            return Err(Error::degenerate(format!(
                "{n} observations cannot support {} predictors",
                active.len()
            )));
        }

        let sub = x.select_cols(active);
        // Design with leading intercept column.
        let mut design = Matrix::zeros(n, active.len() + 1);
        for i in 0..n {
            design[(i, 0)] = 1.0;
            design.row_mut(i)[1..].copy_from_slice(sub.row(i));
        }
        let (beta, _) = if ridge {
            lstsq_ridge(&design, y)?
        } else {
            try_lstsq(&design, y)?
        };

        let mut rss = 0.0;
        for (i, &yi) in y.iter().enumerate() {
            let e = yi - dot(design.row(i), &beta);
            rss += e * e;
        }
        let my = mean(y);
        let tss: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();

        // Diagnostics.
        let p = active.len();
        let df = n.saturating_sub(p + 1).max(1) as f64;
        let sigma2 = rss / df;
        let sd_y = sample_variance(y).sqrt();
        let inv = spd_inverse(&{
            // Ridge-stabilized Gram for the covariance when collinear.
            let mut g = design.gram();
            let scale = (0..g.rows()).map(|i| g[(i, i)]).fold(1.0f64, f64::max);
            for i in 0..g.rows() {
                g[(i, i)] += 1e-10 * scale;
            }
            g
        });

        let mut std_betas = Vec::with_capacity(p);
        let mut p_values = Vec::with_capacity(p);
        for (k, &col) in active.iter().enumerate() {
            let xj = x.col(col);
            let sd_x = sample_variance(&xj).sqrt();
            let b = beta[k + 1];
            std_betas.push(if sd_y > 0.0 { b * sd_x / sd_y } else { 0.0 });
            let pv = match &inv {
                Some(inv) => {
                    let se = (sigma2 * inv[(k + 1, k + 1)]).max(0.0).sqrt();
                    if se > 0.0 {
                        t_sf_two_sided(b / se, df)
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            p_values.push(pv);
        }

        Ok(LinearFit {
            active: active.to_vec(),
            intercept: beta[0],
            coefs: beta[1..].to_vec(),
            rss,
            tss,
            n,
            std_betas,
            p_values,
        })
    }

    /// The feature width a prediction row must provide: one past the
    /// highest column index any active term reads.
    pub fn min_width(&self) -> usize {
        self.active.iter().map(|&c| c + 1).max().unwrap_or(0)
    }

    /// Predict one row of the full design matrix, checking the row is
    /// wide enough for every active term first. Narrow rows are a typed
    /// `InvalidInput` instead of an out-of-bounds panic.
    pub fn try_predict_row(&self, row: &[f64]) -> Result<f64> {
        let need = self.min_width();
        if row.len() < need {
            return Err(Error::invalid(format!(
                "linear fit reads feature column {}; expected at least {} features, got {}",
                need - 1,
                need,
                row.len()
            )));
        }
        Ok(self.row_kernel(row))
    }

    /// Intercept plus every active term; the caller has checked `row`
    /// is at least [`Self::min_width`] wide.
    fn row_kernel(&self, row: &[f64]) -> f64 {
        let mut y = self.intercept;
        for (&c, &b) in self.active.iter().zip(&self.coefs) {
            y += b * row[c];
        }
        y
    }

    /// Predict every row of a design matrix, rejecting width mismatches
    /// with a typed error instead of panicking.
    pub fn try_predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let need = self.min_width();
        if x.cols() < need {
            return Err(Error::invalid(format!(
                "linear fit reads feature column {}; expected at least {} design columns, got {}",
                need - 1,
                need,
                x.cols()
            )));
        }
        Ok((0..x.rows()).map(|i| self.row_kernel(x.row(i))).collect())
    }

    /// Coefficient of determination.
    pub fn r2(&self) -> f64 {
        if self.tss <= 0.0 {
            return 0.0;
        }
        1.0 - self.rss / self.tss
    }

    /// Partial-F statistic for adding this (larger) model over a smaller
    /// nested one: `F = ((RSS_small - RSS_big)/q) / (RSS_big/(n-p-1))`.
    pub(crate) fn partial_f_vs(&self, smaller: &LinearFit) -> f64 {
        assert!(
            self.active.len() > smaller.active.len(),
            "models must be nested"
        );
        let q = (self.active.len() - smaller.active.len()) as f64;
        let df = (self.n - self.active.len() - 1).max(1) as f64;
        let denom = (self.rss / df).max(1e-30);
        ((smaller.rss - self.rss) / q / denom).max(0.0)
    }

    /// Residual degrees of freedom.
    pub(crate) fn df_residual(&self) -> f64 {
        (self.n - self.active.len() - 1).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 3 + 2 x0 - x1, exact.
    fn exact_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let a = (i % 7) as f64 / 7.0;
                let b = (i % 5) as f64 / 5.0;
                let c = ((i * 13) % 11) as f64 / 11.0; // irrelevant
                vec![a, b, c]
            })
            .collect();
        let y = rows.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn recovers_exact_coefficients() {
        let (x, y) = exact_data();
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 1]).expect("ridge fit");
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.coefs[0] - 2.0).abs() < 1e-9);
        assert!((fit.coefs[1] + 1.0).abs() < 1e-9);
        assert!(fit.rss < 1e-18);
        assert!(fit.r2() > 0.999999);
    }

    /// Regression (predict-path edge cases): a feature-width mismatch
    /// used to index out of bounds and panic; it is now a typed
    /// `InvalidInput` with the expected-vs-got widths.
    #[test]
    fn narrow_rows_are_typed_invalid_input_not_panics() {
        let (x, y) = exact_data();
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 2]).expect("ridge fit");
        assert_eq!(fit.min_width(), 3);
        let e = fit
            .try_predict_row(&[1.0, 2.0])
            .expect_err("row too narrow");
        assert_eq!(e.kind(), "invalid");
        let msg = e.to_string();
        assert!(
            msg.contains("at least 3") && msg.contains("got 2"),
            "expected-vs-got widths in: {msg}"
        );
        let narrow = Matrix::from_rows(&[vec![0.5], vec![0.25]]);
        let e = fit.try_predict(&narrow).expect_err("matrix too narrow");
        assert_eq!(e.kind(), "invalid");
        // Wide-enough inputs still predict, row by row identically.
        let ok = fit.try_predict(&x).expect("full-width design");
        for (i, p) in ok.iter().enumerate() {
            let row = fit.try_predict_row(x.row(i)).expect("full-width row");
            assert_eq!(p.to_bits(), row.to_bits(), "row {i}");
        }
    }

    /// The two fits part ways only on a rank-deficient design: the
    /// strict fit refuses it, the ridge fit (the former infallible
    /// `LinearFit::fit`) absorbs it. The pinned bits are that former
    /// wrapper's output on this design.
    #[test]
    fn collinear_design_is_singular_strict_and_pinned_under_ridge() {
        let (x, y) = exact_data();
        // A fourth column duplicating the first makes [0, 1, 3] singular.
        let rows: Vec<Vec<f64>> = (0..x.rows())
            .map(|i| {
                let mut r = x.row(i).to_vec();
                r.push(r[0]);
                r
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let e = LinearFit::try_fit(&x, &y, &[0, 1, 3]).expect_err("rank-deficient");
        assert_eq!(e.kind(), "singular", "{e}");
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 1, 3]).expect("ridge absorbs it");
        assert_eq!(fit.intercept.to_bits(), 0x4007_ffff_e9bd_6d34);
        let coefs: Vec<u64> = fit.coefs.iter().map(|c| c.to_bits()).collect();
        assert_eq!(
            coefs,
            [
                0x3ff0_0000_07a5_b592,
                0xbfef_ffff_68b5_55d5,
                0x3ff0_0000_07b1_1df5
            ]
        );
        assert_eq!(fit.rss.to_bits(), 0x3d4e_7e1d_4d70_988c);
    }

    #[test]
    fn irrelevant_predictor_has_high_p_value() {
        let (x, mut y) = exact_data();
        // Tiny noise so the p-value is meaningful.
        for (i, v) in y.iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.01 } else { -0.01 };
        }
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 1, 2]).expect("ridge fit");
        assert!(
            fit.p_values[0] < 0.001,
            "x0 significant: {}",
            fit.p_values[0]
        );
        assert!(
            fit.p_values[1] < 0.001,
            "x1 significant: {}",
            fit.p_values[1]
        );
        assert!(fit.p_values[2] > 0.05, "x2 irrelevant: {}", fit.p_values[2]);
    }

    #[test]
    fn standardized_betas_rank_importance() {
        // y = 10*x0 + 1*x1 with equal predictor spreads: x0 dominates.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64, ((i / 3) % 8) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 10.0 * r[0] + r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 1]).expect("ridge fit");
        assert!(fit.std_betas[0].abs() > 5.0 * fit.std_betas[1].abs());
    }

    #[test]
    fn partial_f_detects_useful_predictor() {
        let (x, y) = exact_data();
        let small = LinearFit::try_fit_ridge(&x, &y, &[0]).expect("ridge fit");
        let big = LinearFit::try_fit_ridge(&x, &y, &[0, 1]).expect("ridge fit");
        let f = big.partial_f_vs(&small);
        assert!(f > 100.0, "adding x1 should be hugely significant, F={f}");
        // Adding the irrelevant predictor gives a tiny F.
        let bigger = LinearFit::try_fit_ridge(&x, &y, &[0, 1, 2]).expect("ridge fit");
        let f2 = bigger.partial_f_vs(&big);
        assert!(f2 < 10.0, "irrelevant predictor F={f2}");
    }

    #[test]
    fn predict_matches_fit_on_training_rows() {
        let (x, y) = exact_data();
        let fit = LinearFit::try_fit_ridge(&x, &y, &[0, 1]).expect("ridge fit");
        let preds = fit.try_predict(&x).expect("predict");
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_active_set_is_intercept_only() {
        let (x, y) = exact_data();
        let fit = LinearFit::try_fit_ridge(&x, &y, &[]).expect("ridge fit");
        let my = mean(&y);
        assert!((fit.intercept - my).abs() < 1e-9);
        assert!((fit.rss - fit.tss).abs() < 1e-9);
    }
}
