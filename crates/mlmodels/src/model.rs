//! Unified model interface: the paper's nine models plus NN-S.
//!
//! [`try_train`] dispatches a [`ModelKind`] to the linear-regression or
//! neural-network pipeline, handling the §3.4 preparation differences
//! (numeric coding for LR, one-hot + target scaling for NN). The returned
//! [`TrainedModel`] carries its preprocessor, so prediction takes raw
//! [`Table`]s.

use crate::linreg::LinearFit;
use crate::methods::{try_train_nn, NnMethod};
use crate::nn::Mlp;
use crate::prep::{Encoding, Preprocessor};
use crate::select::{try_select, SelectionMethod, Thresholds};
use crate::table::Table;
use fault::Result;
use serde::{Deserialize, Serialize};

/// Every model evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Linear regression, Enter method.
    LrE,
    /// Linear regression, Stepwise.
    LrS,
    /// Linear regression, Backward.
    LrB,
    /// Linear regression, Forward.
    LrF,
    /// Neural network, Quick.
    NnQ,
    /// Neural network, Dynamic.
    NnD,
    /// Neural network, Multiple.
    NnM,
    /// Neural network, Prune.
    NnP,
    /// Neural network, Exhaustive Prune.
    NnE,
    /// Neural network, Single layer (Ipek-style).
    NnS,
}

impl ModelKind {
    /// The nine models of Figures 7–8, in the paper's x-axis order.
    pub const FIGURE7_ORDER: [ModelKind; 9] = [
        ModelKind::LrE,
        ModelKind::LrS,
        ModelKind::LrB,
        ModelKind::LrF,
        ModelKind::NnQ,
        ModelKind::NnD,
        ModelKind::NnM,
        ModelKind::NnP,
        ModelKind::NnE,
    ];

    /// The three models of Figures 2–6.
    pub const FIGURE2_ORDER: [ModelKind; 3] = [ModelKind::NnE, ModelKind::NnS, ModelKind::LrB];

    /// All ten models.
    pub const ALL: [ModelKind; 10] = [
        ModelKind::LrE,
        ModelKind::LrS,
        ModelKind::LrB,
        ModelKind::LrF,
        ModelKind::NnQ,
        ModelKind::NnD,
        ModelKind::NnM,
        ModelKind::NnP,
        ModelKind::NnE,
        ModelKind::NnS,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            ModelKind::LrE => "LR-E",
            ModelKind::LrS => "LR-S",
            ModelKind::LrB => "LR-B",
            ModelKind::LrF => "LR-F",
            ModelKind::NnQ => "NN-Q",
            ModelKind::NnD => "NN-D",
            ModelKind::NnM => "NN-M",
            ModelKind::NnP => "NN-P",
            ModelKind::NnE => "NN-E",
            ModelKind::NnS => "NN-S",
        }
    }

    /// Parse the paper abbreviation.
    pub fn from_abbrev(s: &str) -> Option<ModelKind> {
        ModelKind::ALL.iter().copied().find(|m| m.abbrev() == s)
    }

    /// Whether this is a linear-regression model.
    pub fn is_linear(self) -> bool {
        matches!(
            self,
            ModelKind::LrE | ModelKind::LrS | ModelKind::LrB | ModelKind::LrF
        )
    }

    fn selection(self) -> Option<SelectionMethod> {
        match self {
            ModelKind::LrE => Some(SelectionMethod::Enter),
            ModelKind::LrS => Some(SelectionMethod::Stepwise),
            ModelKind::LrB => Some(SelectionMethod::Backward),
            ModelKind::LrF => Some(SelectionMethod::Forward),
            _ => None,
        }
    }

    fn nn_method(self) -> Option<NnMethod> {
        match self {
            ModelKind::NnQ => Some(NnMethod::Quick),
            ModelKind::NnD => Some(NnMethod::Dynamic),
            ModelKind::NnM => Some(NnMethod::Multiple),
            ModelKind::NnP => Some(NnMethod::Prune),
            ModelKind::NnE => Some(NnMethod::ExhaustivePrune),
            ModelKind::NnS => Some(NnMethod::Single),
            _ => None,
        }
    }
}

/// The fitted estimator behind a [`TrainedModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Estimator {
    /// Linear fit (coefficients over the coded design matrix).
    Linear(LinearFit),
    /// Neural network (over the one-hot design matrix, scaled target).
    Network(Mlp),
}

/// A trained model with its preprocessing baked in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Which model this is.
    pub kind: ModelKind,
    /// Fitted preprocessor.
    pub prep: Preprocessor,
    /// Fitted estimator.
    pub estimator: Estimator,
}

impl TrainedModel {
    /// Predict the target for every row of a raw table, rejecting
    /// malformed inputs with typed errors instead of panicking:
    /// `DegenerateData` when the table cannot state a row count
    /// (no columns and no target), `InvalidInput` when its columns do
    /// not match the preprocessing plan or the resulting design width
    /// does not fit the estimator.
    pub fn try_predict(&self, table: &Table) -> Result<Vec<f64>> {
        let _span = telemetry::span!("predict", model = self.kind.abbrev(), rows = table.n_rows());
        table.try_n_rows()?;
        let x = self.prep.try_transform(table)?;
        match &self.estimator {
            Estimator::Linear(fit) => fit.try_predict(&x),
            Estimator::Network(net) => Ok(net
                .try_predict(&x)?
                .into_iter()
                .map(|p| self.prep.unscale_target(p))
                .collect()),
        }
    }

    /// The linear fit, when this is a regression model.
    pub fn linear_fit(&self) -> Option<&LinearFit> {
        match &self.estimator {
            Estimator::Linear(f) => Some(f),
            Estimator::Network(_) => None,
        }
    }

    /// The network, when this is an NN model.
    pub fn network(&self) -> Option<&Mlp> {
        match &self.estimator {
            Estimator::Network(n) => Some(n),
            Estimator::Linear(_) => None,
        }
    }
}

/// Train `kind` on a table. Deterministic per `(kind, table, seed)`.
/// Failures surface as typed [`fault::Error`]s:
/// `DegenerateData` for unusable tables, `SingularSystem` for
/// unsalvageable designs, `Diverged` when NN retries are exhausted.
pub fn try_train(kind: ModelKind, table: &Table, seed: u64) -> Result<TrainedModel> {
    let _span = telemetry::span!("train", model = kind.abbrev(), rows = table.n_rows());
    telemetry::counter_add("train/fits", 1);
    if let Some(selection) = kind.selection() {
        let prep = Preprocessor::try_fit(table, Encoding::NumericCoded)?;
        let x = prep.transform(table);
        let fit = try_select(&x, table.target(), selection, Thresholds::default())?;
        Ok(TrainedModel {
            kind,
            prep,
            estimator: Estimator::Linear(fit),
        })
    } else {
        let method = kind.nn_method().expect("model is LR or NN");
        let prep = Preprocessor::try_fit(table, Encoding::OneHot)?;
        let x = prep.transform(table);
        let y01 = prep.scaled_targets(table);
        let net = try_train_nn(method, &x, &y01, seed)?;
        Ok(TrainedModel {
            kind,
            prep,
            estimator: Estimator::Network(net),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mildly nonlinear synthetic system table.
    fn table(n: usize) -> Table {
        let speeds: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 20) as f64 * 100.0).collect();
        let mems: Vec<f64> = (0..n)
            .map(|i| [266.0, 333.0, 400.0, 533.0][i % 4])
            .collect();
        let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                0.01 * speeds[i] * (1.0 + 0.1 * (mems[i] / 400.0).ln())
                    + if smt[i] { 1.5 } else { 0.0 }
            })
            .collect();
        let mut t = Table::new();
        t.add_numeric("speed", speeds)
            .add_numeric("mem_freq", mems)
            .add_flag("smt", smt)
            .set_target(y);
        t
    }

    #[test]
    fn all_kinds_train_and_predict_reasonably() {
        let t = table(120);
        for kind in ModelKind::ALL {
            let m = try_train(kind, &t, 3).expect("train");
            let preds = m.try_predict(&t).expect("predict");
            let (mape, _) = linalg::stats::mape(&preds, t.target());
            assert!(mape < 8.0, "{}: training MAPE {mape}", kind.abbrev());
        }
    }

    #[test]
    fn linear_models_expose_fits_and_nn_models_networks() {
        let t = table(60);
        let lr = try_train(ModelKind::LrB, &t, 1).expect("train");
        assert!(lr.linear_fit().is_some());
        assert!(lr.network().is_none());
        let nn = try_train(ModelKind::NnS, &t, 1).expect("train");
        assert!(nn.network().is_some());
        assert!(nn.linear_fit().is_none());
    }

    /// Regression (predict-path edge cases): predicting through a table
    /// that does not match the fitted plan used to panic deep in the
    /// design-matrix indexing; `try_predict` reports typed errors, and
    /// a column-less table is `DegenerateData` rather than a silent
    /// empty prediction vector.
    #[test]
    fn try_predict_rejects_mismatched_and_column_less_tables() {
        let t = table(60);
        for kind in [ModelKind::LrE, ModelKind::NnQ] {
            let m = try_train(kind, &t, 3).expect("train");
            // Fewer columns than the plan reads.
            let mut narrow = Table::new();
            narrow
                .add_numeric("speed", vec![1500.0, 2500.0])
                .set_target(vec![0.0, 0.0]);
            let e = m.try_predict(&narrow).expect_err("narrow table");
            assert_eq!(e.kind(), "invalid", "{}", kind.abbrev());
            // Right arity, wrong column type where the plan expects a flag.
            let mut retyped = Table::new();
            retyped
                .add_numeric("speed", vec![1500.0])
                .add_numeric("mem_freq", vec![333.0])
                .add_numeric("smt", vec![1.0])
                .set_target(vec![0.0]);
            let e = m.try_predict(&retyped).expect_err("retyped column");
            assert_eq!(e.kind(), "invalid", "{}", kind.abbrev());
            assert!(e.to_string().contains("flag"), "{}: {e}", kind.abbrev());
            // Column-less table: previously a silent empty Vec.
            let e = m.try_predict(&Table::new()).expect_err("column-less table");
            assert_eq!(e.kind(), "degenerate", "{}", kind.abbrev());
        }
    }

    #[test]
    fn abbreviations_roundtrip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_abbrev(kind.abbrev()), Some(kind));
        }
        assert_eq!(ModelKind::from_abbrev("??"), None);
    }

    #[test]
    fn figure_orders_have_expected_membership() {
        assert_eq!(ModelKind::FIGURE7_ORDER.len(), 9);
        assert!(!ModelKind::FIGURE7_ORDER.contains(&ModelKind::NnS));
        assert_eq!(
            ModelKind::FIGURE2_ORDER.to_vec(),
            vec![ModelKind::NnE, ModelKind::NnS, ModelKind::LrB]
        );
    }

    #[test]
    fn training_is_deterministic() {
        let t = table(80);
        let a = try_train(ModelKind::NnE, &t, 5).expect("train");
        let b = try_train(ModelKind::NnE, &t, 5).expect("train");
        assert_eq!(
            a.try_predict(&t).expect("predict"),
            b.try_predict(&t).expect("predict")
        );
    }

    #[test]
    fn generalizes_to_held_out_rows() {
        let t = table(160);
        let train_rows: Vec<usize> = (0..160).filter(|i| i % 2 == 0).collect();
        let test_rows: Vec<usize> = (0..160).filter(|i| i % 2 == 1).collect();
        let tr = t.select_rows(&train_rows);
        let te = t.select_rows(&test_rows);
        // LR must nail the (nearly linear) surface; the pruned network is
        // allowed a looser bound — architecture search on 80 rows is noisy.
        for (kind, bound) in [(ModelKind::LrE, 5.0), (ModelKind::NnE, 20.0)] {
            let m = try_train(kind, &tr, 9).expect("train");
            let preds = m.try_predict(&te).expect("predict");
            let (mape, _) = linalg::stats::mape(&preds, te.target());
            assert!(mape < bound, "{}: held-out MAPE {mape}", kind.abbrev());
        }
    }
}
