//! Property tests for the compiled predictors: for **every**
//! [`ModelKind`], `compile_with(..)?.predict_requests` is bit-identical
//! to the interpreted `model.try_predict(&table)` on a table built from the
//! same configuration values. Configurations are drawn both on the
//! training grid and between its points (off-grid, slightly overhanging
//! the training domain), in batches, so the network path's batched
//! `affine_nt` is exercised at several row counts.

use proptest::prelude::*;
use serve::{compile_with, CompiledModel, Precision, Request};

use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use std::sync::OnceLock;

const SPEEDS: [f64; 12] = [
    1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0, 2750.0, 3000.0, 3250.0, 3500.0, 3750.0,
];
const MEMS: [f64; 4] = [266.0, 333.0, 400.0, 533.0];
const LEVELS: [&str; 3] = ["perfect", "bimodal", "gshare"];

/// One configuration: `(speed, mem_freq, smt, bpred level code)`.
type Config = (f64, f64, bool, u32);

fn levels() -> Vec<String> {
    LEVELS.iter().map(|l| l.to_string()).collect()
}

fn training_table() -> Table {
    let n = 72;
    let speeds: Vec<f64> = (0..n).map(|i| SPEEDS[i % SPEEDS.len()]).collect();
    let mems: Vec<f64> = (0..n).map(|i| MEMS[i % MEMS.len()]).collect();
    let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let bpred: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            0.01 * speeds[i] * (1.0 + 0.1 * (mems[i] / 400.0).ln())
                + if smt[i] { 1.5 } else { 0.0 }
                + f64::from(bpred[i]) * 0.3
        })
        .collect();
    let mut t = Table::new();
    t.add_numeric("speed", speeds)
        .add_numeric("mem_freq", mems)
        .add_flag("smt", smt)
        .add_categorical("bpred", bpred, levels())
        .set_target(y);
    t
}

/// One compiled model per [`ModelKind`], trained once and shared across
/// cases (training dominates; prediction is the thing under test).
fn models() -> &'static Vec<(ModelKind, CompiledModel)> {
    static MODELS: OnceLock<Vec<(ModelKind, CompiledModel)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let t = training_table();
        ModelKind::ALL
            .iter()
            .map(|&kind| {
                let art = ModelArtifact::from_training(try_train(kind, &t, 13).expect("train"), &t);
                let compiled = compile_with(art, Precision::F64)
                    .unwrap_or_else(|e| panic!("{} fails to compile: {e}", kind.abbrev()));
                (kind, compiled)
            })
            .collect()
    })
}

/// The interpreted oracle's input: a prediction table holding exactly
/// `configs`, in the training table's column order.
fn table_of(configs: &[Config]) -> Table {
    let mut t = Table::new();
    t.add_numeric("speed", configs.iter().map(|c| c.0).collect())
        .add_numeric("mem_freq", configs.iter().map(|c| c.1).collect())
        .add_flag("smt", configs.iter().map(|c| c.2).collect())
        .add_categorical("bpred", configs.iter().map(|c| c.3).collect(), levels())
        .set_target(vec![0.0; configs.len()]);
    t
}

/// The compiled path's input: the same values as JSONL request lines.
fn requests_of(model: &CompiledModel, configs: &[Config]) -> Vec<Request> {
    configs
        .iter()
        .enumerate()
        .map(|(i, &(speed, mem, smt, code))| {
            let bpred = LEVELS[code as usize];
            let line = format!(
                "{{\"speed\":{speed},\"mem_freq\":{mem},\"smt\":{smt},\"bpred\":\"{bpred}\"}}"
            );
            serve::parse_request_line(&model.artifact.schema, &line, i as u64 + 1)
                .expect("valid request")
        })
        .collect()
}

fn assert_bit_identical(configs: &[Config]) {
    let table = table_of(configs);
    for (kind, model) in models() {
        let reqs = requests_of(model, configs);
        let refs: Vec<&Request> = reqs.iter().collect();
        let compiled = model.predict_requests(&refs);
        let interpreted = model.artifact.model.try_predict(&table).expect("predict");
        prop_assert_eq!(compiled.len(), interpreted.len());
        for (i, (a, b)) in interpreted.iter().zip(&compiled).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} row {i} {:?}: interpreted {a} vs compiled {b}",
                kind.abbrev(),
                configs[i]
            );
        }
    }
}

fn on_grid() -> impl Strategy<Value = Config> {
    (
        prop::sample::select(SPEEDS.to_vec()),
        prop::sample::select(MEMS.to_vec()),
        any::<bool>(),
        0u32..3,
    )
}

fn off_grid() -> impl Strategy<Value = Config> {
    (900.0f64..3900.0, 250.0f64..550.0, any::<bool>(), 0u32..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Configurations the models were trained on.
    #[test]
    fn compiled_is_bit_identical_on_grid_for_every_model_kind(
        configs in prop::collection::vec(on_grid(), 1..12),
    ) {
        assert_bit_identical(&configs);
    }

    /// Configurations between (and slightly beyond) the training grid.
    #[test]
    fn compiled_is_bit_identical_off_grid_for_every_model_kind(
        configs in prop::collection::vec(off_grid(), 1..12),
    ) {
        assert_bit_identical(&configs);
    }
}
