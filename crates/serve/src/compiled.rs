//! Topology-specialized ("compiled") predictors over loaded artifacts.
//!
//! The generic predict path interprets a loaded `.ppmodel` per call:
//! build a [`mlmodels::Table`] from the requests, re-run the
//! preprocessor's transform, and walk the estimator's weight structures
//! (for networks, rebuilding each layer's weight [`Matrix`] per call).
//! [`compile_with`] does all shape-dependent work once at load time
//! instead:
//!
//! * **LR / LR-E** compile to a single fused dot product — intercept
//!   plus one `coef * scale(extract(cell))` term per *active* feature,
//!   reading request cells directly (inactive features are never
//!   extracted at all).
//! * **NN** compiles to a fixed pipeline for the artifact's exact
//!   topology: fused extract+scale straight into the design row, dead
//!   inputs pinned to zero, prebuilt `outputs x inputs` weight matrices
//!   feeding [`Matrix::affine_nt`] with in-place tanh between layers,
//!   and the target unscale folded onto the output.
//!
//! Both are **bit-identical** to the interpreted path: every arithmetic
//! step keeps the same operand order and grouping as `transform` +
//! `LinearFit::try_predict` / `Mlp::try_predict`. The interpreted path
//! is the oracle in tests only: `tests/compiled_prop.rs` compares the
//! two bit for bit across every model kind.

use crate::request::{Cell, Request};
use fault::{Error, Result};
use linalg::Matrix;
use mlmodels::artifact::{ColumnSchema, ModelArtifact};
use mlmodels::model::Estimator;
use mlmodels::prep::FeaturePlan;

/// Numeric precision a compiled predictor serves in. Serving is f64
/// only, so this has one variant; it stays an enum so the
/// [`compile_with`] signature is stable for existing callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Double precision — bit-identical to the interpreted path.
    F64,
}

/// One fused extract+scale: read the plan's source cell and apply the
/// training min/max scaling, exactly as `encode_unscaled` + `transform`
/// would for the matching design-matrix column.
#[derive(Debug, Clone)]
struct FeatureExtract {
    plan: FeaturePlan,
    min: f64,
    max: f64,
}

impl FeatureExtract {
    /// The unscaled feature value — the same mapping `encode_unscaled`
    /// applies to a batch-table column built from these cells.
    fn raw(&self, cells: &[Cell]) -> f64 {
        match self.plan {
            FeaturePlan::Numeric { col } => match cells[col] {
                Cell::Num(x) => x,
                ref other => unreachable!("validated numeric cell, got {other:?}"),
            },
            FeaturePlan::Flag { col } => match cells[col] {
                Cell::Flag(b) => b as u8 as f64,
                ref other => unreachable!("validated flag cell, got {other:?}"),
            },
            FeaturePlan::Code { col } => match cells[col] {
                Cell::Code(c) => c as f64,
                ref other => unreachable!("validated categorical cell, got {other:?}"),
            },
            FeaturePlan::Indicator { col, level } => match cells[col] {
                Cell::Code(c) => (c == level) as u8 as f64,
                ref other => unreachable!("validated categorical cell, got {other:?}"),
            },
        }
    }

    /// Scaled value, with the exact expression `transform` uses.
    fn scaled(&self, cells: &[Cell]) -> f64 {
        (self.raw(cells) - self.min) / (self.max - self.min)
    }
}

/// Predictor specialized to the artifact's topology.
#[derive(Debug)]
enum Predictor {
    /// `intercept + Σ coef · scaled(feature)`, active terms only, in
    /// the fit's active order — the same fold as `LinearFit::try_predict`.
    Linear {
        intercept: f64,
        terms: Vec<(FeatureExtract, f64)>,
    },
    /// Fixed-topology network: fused design-row build, prebuilt weight
    /// matrices, affine+tanh per layer, target unscale on the output.
    Network {
        features: Vec<FeatureExtract>,
        dead: Vec<bool>,
        weights: Vec<Matrix>,
        biases: Vec<Vec<f64>>,
        target_min: f64,
        target_max: f64,
    },
}

/// A loaded artifact compiled into a topology-specialized predictor.
#[derive(Debug)]
pub struct CompiledModel {
    /// The artifact this was compiled from (schema, model metadata).
    pub artifact: ModelArtifact,
    predictor: Predictor,
}

/// Compile an artifact into its specialized predictor. The only
/// precision is [`Precision::F64`]; a malformed artifact is a typed
/// `invalid` error.
pub fn compile_with(artifact: ModelArtifact, _precision: Precision) -> Result<CompiledModel> {
    let extracts = check_plan(&artifact)?;
    let predictor = build(&artifact, &extracts)?;
    Ok(CompiledModel {
        artifact,
        predictor,
    })
}

impl CompiledModel {
    /// Predict every request (schema-validated cells). Infallible by
    /// construction: every shape and type the prediction reads was
    /// checked when the artifact was compiled.
    pub fn predict_requests(&self, requests: &[&Request]) -> Vec<f64> {
        predict(&self.predictor, requests)
    }
}

/// Validate the artifact's preprocessing plan against its own schema and
/// return the fused extractors. A malformed artifact (plan reading
/// columns the schema does not have, or with mismatched types) is a
/// typed error at compile time instead of a panic per request.
fn check_plan(artifact: &ModelArtifact) -> Result<Vec<FeatureExtract>> {
    let prep = &artifact.model.prep;
    let plan = prep.plan();
    let features = prep.features();
    let columns = &artifact.schema.columns;
    let mut extracts = Vec::with_capacity(plan.len());
    for (fp, info) in plan.iter().zip(features) {
        let (col, want) = match *fp {
            FeaturePlan::Numeric { col } => (col, "numeric"),
            FeaturePlan::Flag { col } => (col, "flag"),
            FeaturePlan::Code { col } | FeaturePlan::Indicator { col, .. } => (col, "categorical"),
        };
        let got = match columns.get(col) {
            None => {
                return Err(Error::invalid(format!(
                    "artifact plan reads column {} ('{}'), but the schema has {} columns",
                    col,
                    info.name,
                    columns.len()
                )))
            }
            Some(ColumnSchema::Numeric { .. }) => "numeric",
            Some(ColumnSchema::Flag { .. }) => "flag",
            Some(ColumnSchema::Categorical { .. }) => "categorical",
        };
        if got != want {
            return Err(Error::invalid(format!(
                "artifact feature '{}' expects a {} column at index {}, schema has {}",
                info.name, want, col, got
            )));
        }
        extracts.push(FeatureExtract {
            plan: fp.clone(),
            min: info.min,
            max: info.max,
        });
    }
    Ok(extracts)
}

fn build(artifact: &ModelArtifact, extracts: &[FeatureExtract]) -> Result<Predictor> {
    let model = &artifact.model;
    match &model.estimator {
        Estimator::Linear(fit) => {
            if fit.min_width() > extracts.len() {
                return Err(Error::invalid(format!(
                    "artifact linear fit reads design column {}, but the plan produces only {} features",
                    fit.min_width() - 1,
                    extracts.len()
                )));
            }
            Ok(Predictor::Linear {
                intercept: fit.intercept,
                terms: fit
                    .active
                    .iter()
                    .zip(&fit.coefs)
                    .map(|(&c, &b)| (extracts[c].clone(), b))
                    .collect(),
            })
        }
        Estimator::Network(net) => {
            if net.inputs() != extracts.len() {
                return Err(Error::invalid(format!(
                    "artifact network expects {} inputs, but the plan produces {} features",
                    net.inputs(),
                    extracts.len()
                )));
            }
            let (target_min, target_max) = model.prep.target_range();
            Ok(Predictor::Network {
                features: extracts.to_vec(),
                dead: net.dead_inputs().to_vec(),
                weights: (0..net.n_layers())
                    .map(|l| net.layer_weights(l).clone())
                    .collect(),
                biases: (0..net.n_layers())
                    .map(|l| net.layer_bias(l).to_vec())
                    .collect(),
                target_min,
                target_max,
            })
        }
    }
}

fn predict(p: &Predictor, requests: &[&Request]) -> Vec<f64> {
    match p {
        Predictor::Linear { intercept, terms } => requests
            .iter()
            .map(|r| {
                let mut y = *intercept;
                for (fx, coef) in terms {
                    y += coef * fx.scaled(&r.cells);
                }
                y
            })
            .collect(),
        Predictor::Network {
            features,
            dead,
            weights,
            biases,
            target_min,
            target_max,
        } => {
            let n = requests.len();
            let p_in = features.len();
            let mut x = Matrix::zeros(n, p_in);
            for (i, r) in requests.iter().enumerate() {
                let row = x.row_mut(i);
                for (j, fx) in features.iter().enumerate() {
                    // Dead inputs are pinned to exactly 0.0, matching the
                    // post-transform mask in `Mlp::try_predict`.
                    row[j] = if dead[j] { 0.0 } else { fx.scaled(&r.cells) };
                }
            }
            let mut a = x;
            let last = weights.len() - 1;
            for (l, (w, b)) in weights.iter().zip(biases).enumerate() {
                a = a.affine_nt(w, b);
                if l != last {
                    for v in a.as_mut_slice() {
                        *v = v.tanh();
                    }
                }
            }
            a.as_slice()
                .iter()
                .map(|&y| target_min + y * (target_max - target_min))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::parse_request_line;
    use mlmodels::{try_train, ModelKind, Table};

    fn training_table(n: usize) -> Table {
        let speeds: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 12) as f64 * 250.0).collect();
        let mems: Vec<f64> = (0..n)
            .map(|i| [266.0, 333.0, 400.0, 533.0][i % 4])
            .collect();
        let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let bpred: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                0.01 * speeds[i] * (1.0 + 0.1 * (mems[i] / 400.0).ln())
                    + if smt[i] { 1.5 } else { 0.0 }
                    + bpred[i] as f64 * 0.3
            })
            .collect();
        let mut t = Table::new();
        t.add_numeric("speed", speeds)
            .add_numeric("mem_freq", mems)
            .add_flag("smt", smt)
            .add_categorical(
                "bpred",
                bpred,
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(y);
        t
    }

    fn artifact(kind: ModelKind) -> ModelArtifact {
        let t = training_table(96);
        ModelArtifact::from_training(try_train(kind, &t, 7).expect("train"), &t)
    }

    fn requests(art: &ModelArtifact, n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let speed = 1000.0 + (i % 17) as f64 * 175.0;
                let mem = [266.0, 333.0, 400.0, 533.0][i % 4];
                let smt = i % 2 == 0;
                let bpred = ["perfect", "bimodal", "gshare"][i % 3];
                parse_request_line(
                    &art.schema,
                    &format!(
                        "{{\"speed\":{speed},\"mem_freq\":{mem},\"smt\":{smt},\"bpred\":\"{bpred}\"}}"
                    ),
                    i as u64 + 1,
                )
                .expect("valid request")
            })
            .collect()
    }

    /// The compiled path must be bit-identical to the interpreted
    /// batch-table path, for both estimator families.
    #[test]
    fn compiled_matches_interpreted_bitwise() {
        for kind in [
            ModelKind::LrE,
            ModelKind::LrB,
            ModelKind::NnQ,
            ModelKind::NnE,
        ] {
            let art = artifact(kind);
            let reqs = requests(&art, 40);
            let refs: Vec<&Request> = reqs.iter().collect();
            let table = crate::request::batch_table(&art.schema, &refs);
            let interpreted = art.model.try_predict(&table).expect("predict");
            let compiled = compile_with(art, Precision::F64).expect("compiles");
            let fast = compiled.predict_requests(&refs);
            assert_eq!(interpreted.len(), fast.len());
            for (i, (a, b)) in interpreted.iter().zip(&fast).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} request {i}: interpreted {a} vs compiled {b}",
                    kind.abbrev()
                );
            }
        }
    }

    /// A malformed artifact (plan reading columns its schema lacks) is a
    /// typed compile-time error, not a per-request panic.
    #[test]
    fn mismatched_plan_fails_compilation_with_typed_error() {
        let mut art = artifact(ModelKind::LrE);
        art.schema.columns.truncate(1);
        let e = compile_with(art, Precision::F64).expect_err("plan reads missing columns");
        assert_eq!(e.kind(), "invalid");
    }
}
