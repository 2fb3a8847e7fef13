//! Data preparation: Clementine's §3.4 behaviours.
//!
//! * All inputs are scaled to 0–1 (min/max from the *training* data; test
//!   rows may fall outside — that is the point of the chronological
//!   experiments, where 2006 systems extrapolate past 2005's hull).
//! * Flags encode as 0/1.
//! * Categorical fields: one-hot for neural networks ("neural network
//!   models can have any type of input"); numeric level codes for linear
//!   regression ("inputs need to be mapped to numeric values"), or omitted
//!   entirely when the field is free-text-like (too many levels to encode
//!   meaningfully — Clementine's "omitted by Clementine" case).
//! * Zero-variance predictors are dropped ("Clementine omits some predictor
//!   variables because these input parameters does not have any
//!   variation").

use crate::table::{Column, Table};
use fault::{Error, Result};
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// How categorical fields are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Encoding {
    /// Linear-regression mode: numeric level codes, free-text-like fields
    /// omitted.
    NumericCoded,
    /// Neural-network mode: one-hot indicator columns.
    OneHot,
}

/// Maximum categorical cardinality for `NumericCoded` mode; fields with more
/// levels are treated as identifiers/names and omitted — Clementine's "this
/// kind of transformation is not possible, hence these are omitted".
const MAX_CODED_LEVELS: usize = 8;

/// Per-output-feature provenance, used by importance reporting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureInfo {
    /// Name of the encoded feature (e.g. `bpred=2-level` for one-hot).
    pub name: String,
    /// Index of the source column in the original table.
    pub source_column: usize,
    /// Training minimum (pre-scaling).
    pub min: f64,
    /// Training maximum.
    pub max: f64,
}

/// A fitted preprocessor: encoding plan plus training min/max per feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preprocessor {
    pub(crate) encoding: Encoding,
    pub(crate) features: Vec<FeatureInfo>,
    /// Encoded-but-unscaled extractors, represented as a plan per feature.
    pub(crate) plan: Vec<FeaturePlan>,
    /// Names of dropped (constant or omitted) source columns.
    pub(crate) dropped: Vec<String>,
    /// Target min/max for 0-1 target scaling.
    pub(crate) target_min: f64,
    pub(crate) target_max: f64,
}

/// How to compute one encoded feature from a table row. Public so the
/// serve layer can compile artifacts into specialized predictors that
/// extract features straight from request cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeaturePlan {
    /// Numeric column value.
    Numeric {
        /// Source column index.
        col: usize,
    },
    /// Flag column as 0/1.
    Flag {
        /// Source column index.
        col: usize,
    },
    /// Categorical level code as a number.
    Code {
        /// Source column index.
        col: usize,
    },
    /// Indicator for one categorical level.
    Indicator {
        /// Source column index.
        col: usize,
        /// Level code this indicator fires on.
        level: u32,
    },
}

impl Preprocessor {
    /// Fit the preprocessing plan on a training table, rejecting a table
    /// that fails [`Table::try_validate`].
    pub fn try_fit(table: &Table, encoding: Encoding) -> Result<Self> {
        table.try_validate()?;
        let mut plan = Vec::new();
        let mut features = Vec::new();
        let mut dropped = Vec::new();

        for (ci, (name, col)) in table.names().iter().zip(table.columns()).enumerate() {
            if col.is_constant() {
                dropped.push(name.clone());
                continue;
            }
            match col {
                Column::Numeric(_) => {
                    plan.push(FeaturePlan::Numeric { col: ci });
                    features.push(FeatureInfo {
                        name: name.clone(),
                        source_column: ci,
                        min: 0.0,
                        max: 0.0,
                    });
                }
                Column::Flag(_) => {
                    plan.push(FeaturePlan::Flag { col: ci });
                    features.push(FeatureInfo {
                        name: name.clone(),
                        source_column: ci,
                        min: 0.0,
                        max: 0.0,
                    });
                }
                Column::Categorical { codes, levels } => match encoding {
                    Encoding::NumericCoded => {
                        if levels.len() > MAX_CODED_LEVELS {
                            dropped.push(name.clone());
                        } else {
                            plan.push(FeaturePlan::Code { col: ci });
                            features.push(FeatureInfo {
                                name: name.clone(),
                                source_column: ci,
                                min: 0.0,
                                max: 0.0,
                            });
                        }
                    }
                    Encoding::OneHot => {
                        // Only levels present in training data get columns;
                        // skip high-cardinality identifier-like fields too
                        // (every row its own level carries no signal).
                        let mut present: Vec<u32> = codes.clone();
                        present.sort_unstable();
                        present.dedup();
                        // Identifier-like fields (one level per few rows)
                        // carry no transferable signal; expanding them would
                        // also let the network memorize rows.
                        if present.len() > (table.n_rows() / 4).max(8) {
                            dropped.push(name.clone());
                        } else {
                            for &lv in &present {
                                plan.push(FeaturePlan::Indicator { col: ci, level: lv });
                                features.push(FeatureInfo {
                                    name: format!("{}={}", name, levels[lv as usize]),
                                    source_column: ci,
                                    min: 0.0,
                                    max: 0.0,
                                });
                            }
                        }
                    }
                },
            }
        }

        let mut pp = Preprocessor {
            encoding,
            features,
            plan,
            dropped,
            target_min: 0.0,
            target_max: 1.0,
        };

        // Fit min/max per encoded feature from the training data.
        let raw = pp.encode_unscaled(table);
        for (j, f) in pp.features.iter_mut().enumerate() {
            let col = raw.col(j);
            let (lo, hi) = linalg::stats::min_max(&col);
            f.min = lo;
            f.max = if hi > lo { hi } else { lo + 1.0 };
        }
        let (tlo, thi) = linalg::stats::min_max(table.target());
        pp.target_min = tlo;
        pp.target_max = if thi > tlo { thi } else { tlo + 1.0 };
        Ok(pp)
    }

    /// Encoded feature metadata.
    pub fn features(&self) -> &[FeatureInfo] {
        &self.features
    }

    /// Names of columns the preprocessor dropped.
    pub fn dropped(&self) -> &[String] {
        &self.dropped
    }

    /// The fitted encoding mode.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The per-feature extraction plan, aligned with [`Self::features`].
    pub fn plan(&self) -> &[FeaturePlan] {
        &self.plan
    }

    /// Target `(min, max)` used for 0–1 target scaling.
    pub fn target_range(&self) -> (f64, f64) {
        (self.target_min, self.target_max)
    }

    /// Check that `table` has the columns this plan reads, with the
    /// types it expects. Mismatches are typed `InvalidInput` (with the
    /// expected-vs-got shape) instead of downstream panics.
    pub(crate) fn try_check_table(&self, table: &Table) -> Result<()> {
        let cols = table.columns();
        for (fp, info) in self.plan.iter().zip(&self.features) {
            let (col, want) = match *fp {
                FeaturePlan::Numeric { col } => (col, "numeric"),
                FeaturePlan::Flag { col } => (col, "flag"),
                FeaturePlan::Code { col } | FeaturePlan::Indicator { col, .. } => {
                    (col, "categorical")
                }
            };
            let got = match cols.get(col) {
                None => {
                    return Err(Error::invalid(format!(
                        "feature '{}' reads column {}, but the table has only {} columns",
                        info.name,
                        col,
                        cols.len()
                    )))
                }
                Some(Column::Numeric(_)) => "numeric",
                Some(Column::Flag(_)) => "flag",
                Some(Column::Categorical { .. }) => "categorical",
            };
            if got != want {
                return Err(Error::invalid(format!(
                    "feature '{}' expects a {} column at index {}, got {}",
                    info.name, want, col, got
                )));
            }
        }
        Ok(())
    }

    /// [`Self::transform`] with the shape check of
    /// [`Self::try_check_table`] run first, so a table that does not
    /// match the fitted plan is a typed error rather than a panic.
    pub(crate) fn try_transform(&self, table: &Table) -> Result<Matrix> {
        self.try_check_table(table)?;
        Ok(self.transform(table))
    }

    /// Encode without scaling (used to fit min/max, and by the CV Gram
    /// cache, which accumulates unscaled statistics once and applies each
    /// fold's min/max as an affine transform).
    pub(crate) fn encode_unscaled(&self, table: &Table) -> Matrix {
        let n = table.n_rows();
        let p = self.plan.len();
        let cols = table.columns();
        let mut m = Matrix::zeros(n, p);
        for (j, fp) in self.plan.iter().enumerate() {
            match *fp {
                FeaturePlan::Numeric { col } => {
                    if let Column::Numeric(v) = &cols[col] {
                        for i in 0..n {
                            m[(i, j)] = v[i];
                        }
                    } else {
                        unreachable!("plan/type mismatch")
                    }
                }
                FeaturePlan::Flag { col } => {
                    if let Column::Flag(v) = &cols[col] {
                        for i in 0..n {
                            m[(i, j)] = v[i] as u8 as f64;
                        }
                    } else {
                        unreachable!("plan/type mismatch")
                    }
                }
                FeaturePlan::Code { col } => {
                    if let Column::Categorical { codes, .. } = &cols[col] {
                        for i in 0..n {
                            m[(i, j)] = codes[i] as f64;
                        }
                    } else {
                        unreachable!("plan/type mismatch")
                    }
                }
                FeaturePlan::Indicator { col, level } => {
                    if let Column::Categorical { codes, .. } = &cols[col] {
                        for i in 0..n {
                            m[(i, j)] = (codes[i] == level) as u8 as f64;
                        }
                    } else {
                        unreachable!("plan/type mismatch")
                    }
                }
            }
        }
        m
    }

    /// Encode and scale a table to the 0–1 design matrix.
    ///
    /// Values outside the training min/max scale past [0, 1] — intentional:
    /// that is how a 2006 system looks to a model fitted on 2005.
    pub fn transform(&self, table: &Table) -> Matrix {
        let mut m = self.encode_unscaled(table);
        for i in 0..m.rows() {
            let row = m.row_mut(i);
            for (j, f) in self.features.iter().enumerate() {
                row[j] = (row[j] - f.min) / (f.max - f.min);
            }
        }
        m
    }

    /// Scale a target value to 0–1 (training range).
    pub fn scale_target(&self, y: f64) -> f64 {
        (y - self.target_min) / (self.target_max - self.target_min)
    }

    /// Invert target scaling.
    pub fn unscale_target(&self, y01: f64) -> f64 {
        self.target_min + y01 * (self.target_max - self.target_min)
    }

    /// Scaled target vector for a table.
    pub(crate) fn scaled_targets(&self, table: &Table) -> Vec<f64> {
        table
            .target()
            .iter()
            .map(|&y| self.scale_target(y))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new();
        t.add_numeric("speed", vec![1000.0, 2000.0, 3000.0, 4000.0])
            .add_flag("smt", vec![true, false, true, false])
            .add_numeric("constant", vec![5.0; 4])
            .add_categorical(
                "bpred",
                vec![0, 1, 2, 1],
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(vec![10.0, 20.0, 30.0, 50.0]);
        t
    }

    #[test]
    fn constant_columns_are_dropped() {
        let pp = Preprocessor::try_fit(&sample(), Encoding::NumericCoded).expect("valid table");
        assert_eq!(pp.dropped(), &["constant".to_string()]);
        assert!(pp.features().iter().all(|f| f.name != "constant"));
    }

    #[test]
    fn numeric_coded_has_one_column_per_kept_field() {
        let pp = Preprocessor::try_fit(&sample(), Encoding::NumericCoded).expect("valid table");
        let names: Vec<_> = pp.features().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["speed", "smt", "bpred"]);
    }

    #[test]
    fn one_hot_expands_categories() {
        let pp = Preprocessor::try_fit(&sample(), Encoding::OneHot).expect("valid table");
        let names: Vec<_> = pp.features().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "speed",
                "smt",
                "bpred=perfect",
                "bpred=bimodal",
                "bpred=gshare"
            ]
        );
        let m = pp.transform(&sample());
        // Row 0 has bpred=perfect.
        assert_eq!(m[(0, 2)], 1.0);
        assert_eq!(m[(0, 3)], 0.0);
        // One-hot columns sum to 1 per row.
        for i in 0..4 {
            let s = m[(i, 2)] + m[(i, 3)] + m[(i, 4)];
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn scaling_maps_training_data_to_unit_interval() {
        let t = sample();
        let pp = Preprocessor::try_fit(&t, Encoding::NumericCoded).expect("valid table");
        let m = pp.transform(&t);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert!((-1e-12..=1.0 + 1e-12).contains(&m[(i, j)]), "{}", m[(i, j)]);
            }
        }
        // speed spans the full range.
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(3, 0)], 1.0);
    }

    #[test]
    fn out_of_hull_rows_scale_past_one() {
        let train = sample();
        let pp = Preprocessor::try_fit(&train, Encoding::NumericCoded).expect("valid table");
        let mut future = Table::new();
        future
            .add_numeric("speed", vec![6000.0])
            .add_flag("smt", vec![true])
            .add_numeric("constant", vec![5.0])
            .add_categorical(
                "bpred",
                vec![0],
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(vec![70.0]);
        let m = pp.transform(&future);
        assert!(m[(0, 0)] > 1.0, "2006-style extrapolation must exceed 1.0");
    }

    #[test]
    fn target_scaling_roundtrips() {
        let t = sample();
        let pp = Preprocessor::try_fit(&t, Encoding::OneHot).expect("valid table");
        for &y in t.target() {
            let s = pp.scale_target(y);
            assert!((0.0..=1.0).contains(&s));
            assert!((pp.unscale_target(s) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn high_cardinality_categoricals_omitted_in_coded_mode() {
        let mut t = Table::new();
        let levels: Vec<String> = (0..40).map(|i| format!("sys{i}")).collect();
        t.add_categorical("system_name", (0..40).collect(), levels)
            .add_numeric("speed", (0..40).map(|i| i as f64).collect())
            .set_target((0..40).map(|i| i as f64).collect());
        let pp = Preprocessor::try_fit(&t, Encoding::NumericCoded).expect("valid table");
        assert!(pp.dropped().contains(&"system_name".to_string()));
        assert_eq!(pp.features().len(), 1);
    }
}
