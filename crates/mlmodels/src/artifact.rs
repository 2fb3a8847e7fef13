//! Versioned, self-describing model artifacts.
//!
//! The paper's economics only work if a trained surrogate outlives the
//! process that trained it: §4.2 predicts 95–99 % of a 4608-point design
//! space from a 1–5 % sample, so the expensive part is training once —
//! every later query should be a cheap artifact load plus a forward pass.
//! This module is the persistence half of that bargain: a
//! [`ModelArtifact`] captures a [`TrainedModel`] (linear fits with their
//! selected-term metadata, or the full MLP topology and weights) together
//! with the [`TableSchema`] of the table it was trained on, so a serving
//! process can validate incoming configurations without ever seeing the
//! training data.
//!
//! ## On-disk format (`.ppmodel`)
//!
//! Two newline-terminated JSON lines, mirroring the checkpoint idiom:
//!
//! ```text
//! {"type":"perfpredict-model","format_version":1,"kind":"NN-E",
//!  "payload_bytes":N,"checksum":"fnv1a64:<16 hex digits>"}
//! <payload: one JSON object of exactly N bytes>
//! ```
//!
//! The header is self-describing (readable with `head -1`), the checksum
//! is FNV-1a 64 over the payload bytes, and `payload_bytes` makes
//! truncation detectable without parsing. Every corruption mode —
//! truncated payload, flipped byte, future `format_version`, malformed
//! structure — surfaces as a typed [`Error::Artifact`] (exit code 4,
//! like its checkpoint sibling), never a panic.
//!
//! Floating-point values are written with Rust's shortest round-trip
//! `Display` and parsed back with `str::parse::<f64>`, so a load →
//! predict is bit-identical to the in-memory model (pinned by proptests
//! in `tests/artifact_roundtrip.rs`). Non-finite values are rejected at
//! save time — they have no JSON representation and no place in a
//! servable model.

use crate::linreg::LinearFit;
use crate::model::{Estimator, ModelKind, TrainedModel};
use crate::nn::{Layer, Mlp};
use crate::prep::{Encoding, FeatureInfo, FeaturePlan, Preprocessor};
use crate::table::{Column, Table};
use fault::{Error, Result};
use linalg::Matrix;
use telemetry::json::{self, JsonObject, Value};

/// Current artifact format version. Readers accept this version only;
/// anything newer is a typed error telling the operator to upgrade.
pub(crate) const FORMAT_VERSION: u64 = 1;

/// Cap on the per-column observed-value list stored in a
/// [`TableSchema`] — enough for every lattice the paper sweeps, bounded
/// for free-form numeric columns.
pub(crate) const DOMAIN_CAP: usize = 64;

/// FNV-1a 64-bit hash — the artifact checksum. Not cryptographic; it
/// exists to catch torn writes and bit rot, same as the checkpoint
/// layer's truncation tolerance catches killed processes.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Schema of one predictor column, as seen at training time.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSchema {
    /// Numeric column, with up to [`DOMAIN_CAP`] distinct observed
    /// values (sorted) for workload generation and diagnostics.
    Numeric {
        /// Column name.
        name: String,
        /// Sorted distinct values observed in training (capped).
        observed: Vec<f64>,
    },
    /// Boolean flag column.
    Flag {
        /// Column name.
        name: String,
    },
    /// Categorical column with its full level vocabulary; request
    /// validation maps level names back to the training codes.
    Categorical {
        /// Column name.
        name: String,
        /// Level names, indexed by code — the training table's list.
        levels: Vec<String>,
    },
}

impl ColumnSchema {
    /// The column name.
    pub fn name(&self) -> &str {
        match self {
            ColumnSchema::Numeric { name, .. }
            | ColumnSchema::Flag { name }
            | ColumnSchema::Categorical { name, .. } => name,
        }
    }
}

/// The predictor schema of a training table: column names, types, and
/// categorical vocabularies, in training order. Prediction-time tables
/// must reproduce this structure exactly — the fitted preprocessor
/// addresses columns by index.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Columns in training order.
    pub columns: Vec<ColumnSchema>,
}

impl TableSchema {
    /// Capture the schema of a training table.
    pub(crate) fn of(table: &Table) -> TableSchema {
        let columns = table
            .names()
            .iter()
            .zip(table.columns())
            .map(|(name, col)| match col {
                Column::Numeric(v) => {
                    let mut observed: Vec<f64> = v.clone();
                    observed.sort_by(f64::total_cmp);
                    observed.dedup();
                    observed.truncate(DOMAIN_CAP);
                    ColumnSchema::Numeric {
                        name: name.clone(),
                        observed,
                    }
                }
                Column::Flag(_) => ColumnSchema::Flag { name: name.clone() },
                Column::Categorical { levels, .. } => ColumnSchema::Categorical {
                    name: name.clone(),
                    levels: levels.clone(),
                },
            })
            .collect();
        TableSchema { columns }
    }

    /// Column schema by name.
    pub fn column(&self, name: &str) -> Option<&ColumnSchema> {
        self.columns.iter().find(|c| c.name() == name)
    }
}

/// A trained model plus the schema needed to validate and encode raw
/// configurations at prediction time — the unit of model serving.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The trained model (preprocessor + estimator).
    pub model: TrainedModel,
    /// Schema of the training table.
    pub schema: TableSchema,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Render a finite f64, or a typed error naming where the bad value sits.
fn num(label: &str, x: f64, what: &str) -> Result<String> {
    if x.is_finite() {
        Ok(json::number(x))
    } else {
        Err(Error::artifact(
            label,
            format!("non-finite value in {what}: {x}"),
        ))
    }
}

fn num_array(label: &str, xs: &[f64], what: &str) -> Result<String> {
    let mut parts = Vec::with_capacity(xs.len());
    for x in xs {
        parts.push(num(label, *x, what)?);
    }
    Ok(format!("[{}]", parts.join(",")))
}

fn str_array(xs: &[String]) -> String {
    let parts: Vec<String> = xs
        .iter()
        .map(|s| format!("\"{}\"", json::escape(s)))
        .collect();
    format!("[{}]", parts.join(","))
}

fn uint_array(xs: &[usize]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

fn bool_array(xs: &[bool]) -> String {
    let parts: Vec<&str> = xs
        .iter()
        .map(|&x| if x { "true" } else { "false" })
        .collect();
    format!("[{}]", parts.join(","))
}

fn encode_schema(label: &str, schema: &TableSchema) -> Result<String> {
    let mut cols = Vec::with_capacity(schema.columns.len());
    for c in &schema.columns {
        let obj = match c {
            ColumnSchema::Numeric { name, observed } => JsonObject::new()
                .str("name", name)
                .str("type", "numeric")
                .raw(
                    "observed",
                    &num_array(label, observed, "schema observed values")?,
                ),
            ColumnSchema::Flag { name } => JsonObject::new().str("name", name).str("type", "flag"),
            ColumnSchema::Categorical { name, levels } => JsonObject::new()
                .str("name", name)
                .str("type", "categorical")
                .raw("levels", &str_array(levels)),
        };
        cols.push(obj.finish());
    }
    Ok(format!("[{}]", cols.join(",")))
}

fn encode_prep(label: &str, prep: &Preprocessor) -> Result<String> {
    let features: Vec<String> = {
        let mut out = Vec::with_capacity(prep.features.len());
        for f in &prep.features {
            out.push(
                JsonObject::new()
                    .str("name", &f.name)
                    .usize("source_column", f.source_column)
                    .raw("min", &num(label, f.min, "feature min")?)
                    .raw("max", &num(label, f.max, "feature max")?)
                    .finish(),
            );
        }
        out
    };
    let plan: Vec<String> = prep
        .plan
        .iter()
        .map(|p| match *p {
            FeaturePlan::Numeric { col } => JsonObject::new()
                .str("op", "numeric")
                .usize("col", col)
                .finish(),
            FeaturePlan::Flag { col } => JsonObject::new()
                .str("op", "flag")
                .usize("col", col)
                .finish(),
            FeaturePlan::Code { col } => JsonObject::new()
                .str("op", "code")
                .usize("col", col)
                .finish(),
            FeaturePlan::Indicator { col, level } => JsonObject::new()
                .str("op", "indicator")
                .usize("col", col)
                .uint("level", u64::from(level))
                .finish(),
        })
        .collect();
    Ok(JsonObject::new()
        .str(
            "encoding",
            match prep.encoding {
                Encoding::NumericCoded => "numeric_coded",
                Encoding::OneHot => "one_hot",
            },
        )
        .raw("features", &format!("[{}]", features.join(",")))
        .raw("plan", &format!("[{}]", plan.join(",")))
        .raw("dropped", &str_array(&prep.dropped))
        .raw("target_min", &num(label, prep.target_min, "target_min")?)
        .raw("target_max", &num(label, prep.target_max, "target_max")?)
        .finish())
}

fn encode_estimator(label: &str, est: &Estimator) -> Result<String> {
    match est {
        Estimator::Linear(fit) => Ok(JsonObject::new()
            .str("type", "linear")
            .raw("active", &uint_array(&fit.active))
            .raw("intercept", &num(label, fit.intercept, "intercept")?)
            .raw("coefs", &num_array(label, &fit.coefs, "coefficients")?)
            .raw("rss", &num(label, fit.rss, "rss")?)
            .raw("tss", &num(label, fit.tss, "tss")?)
            .usize("n", fit.n)
            .raw("std_betas", &num_array(label, &fit.std_betas, "std_betas")?)
            .raw("p_values", &num_array(label, &fit.p_values, "p_values")?)
            .finish()),
        Estimator::Network(net) => {
            let mut layers = Vec::with_capacity(net.layers.len());
            for (li, layer) in net.layers.iter().enumerate() {
                let mut rows = Vec::with_capacity(layer.outputs());
                for o in 0..layer.outputs() {
                    rows.push(num_array(
                        label,
                        layer.w.row(o),
                        &format!("layer {li} weights"),
                    )?);
                }
                layers.push(
                    JsonObject::new()
                        .raw("w", &format!("[{}]", rows.join(",")))
                        .raw(
                            "b",
                            &num_array(label, &layer.b, &format!("layer {li} biases"))?,
                        )
                        .finish(),
                );
            }
            Ok(JsonObject::new()
                .str("type", "network")
                .raw("dead_inputs", &bool_array(&net.dead_inputs))
                .raw("layers", &format!("[{}]", layers.join(",")))
                .finish())
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn bad(label: &str, detail: impl Into<String>) -> Error {
    Error::artifact(label, detail)
}

fn get<'a>(label: &str, v: &'a Value, key: &str) -> Result<&'a Value> {
    v.get(key)
        .ok_or_else(|| bad(label, format!("payload missing field '{key}'")))
}

fn get_str<'a>(label: &str, v: &'a Value, key: &str) -> Result<&'a str> {
    get(label, v, key)?
        .as_str()
        .ok_or_else(|| bad(label, format!("field '{key}' is not a string")))
}

fn get_f64(label: &str, v: &Value, key: &str) -> Result<f64> {
    get(label, v, key)?
        .as_f64()
        .ok_or_else(|| bad(label, format!("field '{key}' is not a finite number")))
}

fn get_usize(label: &str, v: &Value, key: &str) -> Result<usize> {
    get(label, v, key)?
        .as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| {
            bad(
                label,
                format!("field '{key}' is not a non-negative integer in range"),
            )
        })
}

fn get_arr<'a>(label: &str, v: &'a Value, key: &str) -> Result<&'a [Value]> {
    match get(label, v, key)? {
        Value::Arr(items) => Ok(items),
        _ => Err(bad(label, format!("field '{key}' is not an array"))),
    }
}

fn f64_vec(label: &str, items: &[Value], what: &str) -> Result<Vec<f64>> {
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| bad(label, format!("non-numeric entry in {what}")))
        })
        .collect()
}

fn usize_vec(label: &str, items: &[Value], what: &str) -> Result<Vec<usize>> {
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| bad(label, format!("non-integer entry in {what}")))
        })
        .collect()
}

fn string_vec(label: &str, items: &[Value], what: &str) -> Result<Vec<String>> {
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(label, format!("non-string entry in {what}")))
        })
        .collect()
}

fn bool_vec(label: &str, items: &[Value], what: &str) -> Result<Vec<bool>> {
    items
        .iter()
        .map(|v| match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(bad(label, format!("non-boolean entry in {what}"))),
        })
        .collect()
}

fn decode_schema(label: &str, v: &Value) -> Result<TableSchema> {
    let cols = get_arr(label, v, "columns")?;
    let mut columns = Vec::with_capacity(cols.len());
    for c in cols {
        let name = get_str(label, c, "name")?.to_string();
        let col = match get_str(label, c, "type")? {
            "numeric" => ColumnSchema::Numeric {
                name,
                observed: f64_vec(label, get_arr(label, c, "observed")?, "observed values")?,
            },
            "flag" => ColumnSchema::Flag { name },
            "categorical" => ColumnSchema::Categorical {
                name,
                levels: string_vec(label, get_arr(label, c, "levels")?, "levels")?,
            },
            other => return Err(bad(label, format!("unknown column type '{other}'"))),
        };
        columns.push(col);
    }
    Ok(TableSchema { columns })
}

fn decode_prep(label: &str, v: &Value) -> Result<Preprocessor> {
    let encoding = match get_str(label, v, "encoding")? {
        "numeric_coded" => Encoding::NumericCoded,
        "one_hot" => Encoding::OneHot,
        other => return Err(bad(label, format!("unknown encoding '{other}'"))),
    };
    let mut features = Vec::new();
    for f in get_arr(label, v, "features")? {
        features.push(FeatureInfo {
            name: get_str(label, f, "name")?.to_string(),
            source_column: get_usize(label, f, "source_column")?,
            min: get_f64(label, f, "min")?,
            max: get_f64(label, f, "max")?,
        });
    }
    let mut plan = Vec::new();
    for p in get_arr(label, v, "plan")? {
        let col = get_usize(label, p, "col")?;
        plan.push(match get_str(label, p, "op")? {
            "numeric" => FeaturePlan::Numeric { col },
            "flag" => FeaturePlan::Flag { col },
            "code" => FeaturePlan::Code { col },
            "indicator" => FeaturePlan::Indicator {
                col,
                level: get_usize(label, p, "level")? as u32,
            },
            other => return Err(bad(label, format!("unknown plan op '{other}'"))),
        });
    }
    if plan.len() != features.len() {
        return Err(bad(
            label,
            format!(
                "plan/feature length mismatch: {} plan steps vs {} features",
                plan.len(),
                features.len()
            ),
        ));
    }
    Ok(Preprocessor {
        encoding,
        features,
        plan,
        dropped: string_vec(label, get_arr(label, v, "dropped")?, "dropped columns")?,
        target_min: get_f64(label, v, "target_min")?,
        target_max: get_f64(label, v, "target_max")?,
    })
}

fn decode_estimator(label: &str, v: &Value) -> Result<Estimator> {
    match get_str(label, v, "type")? {
        "linear" => {
            let coefs = f64_vec(label, get_arr(label, v, "coefs")?, "coefs")?;
            let active = usize_vec(label, get_arr(label, v, "active")?, "active")?;
            if coefs.len() != active.len() {
                return Err(bad(
                    label,
                    format!(
                        "linear fit has {} coefficients for {} active terms",
                        coefs.len(),
                        active.len()
                    ),
                ));
            }
            Ok(Estimator::Linear(LinearFit {
                active,
                intercept: get_f64(label, v, "intercept")?,
                coefs,
                rss: get_f64(label, v, "rss")?,
                tss: get_f64(label, v, "tss")?,
                n: get_usize(label, v, "n")?,
                std_betas: f64_vec(label, get_arr(label, v, "std_betas")?, "std_betas")?,
                p_values: f64_vec(label, get_arr(label, v, "p_values")?, "p_values")?,
            }))
        }
        "network" => {
            let dead_inputs = bool_vec(label, get_arr(label, v, "dead_inputs")?, "dead_inputs")?;
            let mut layers: Vec<Layer> = Vec::new();
            for (li, l) in get_arr(label, v, "layers")?.iter().enumerate() {
                let mut w = Vec::new();
                for row in get_arr(label, l, "w")? {
                    let Value::Arr(items) = row else {
                        return Err(bad(label, format!("layer {li} weight row is not an array")));
                    };
                    w.push(f64_vec(label, items, "weights")?);
                }
                let b = f64_vec(label, get_arr(label, l, "b")?, "biases")?;
                if w.len() != b.len() {
                    return Err(bad(
                        label,
                        format!("layer {li}: {} weight rows vs {} biases", w.len(), b.len()),
                    ));
                }
                let inputs = w.first().map_or(0, Vec::len);
                if w.iter().any(|r| r.len() != inputs) {
                    return Err(bad(label, format!("layer {li}: ragged weight rows")));
                }
                let expected = match layers.last() {
                    Some(prev) => prev.outputs(),
                    None => dead_inputs.len(),
                };
                if inputs != expected {
                    return Err(bad(
                        label,
                        format!("layer {li}: expects {expected} inputs, weights have {inputs}"),
                    ));
                }
                layers.push(Layer {
                    w: Matrix::from_rows(&w),
                    b,
                });
            }
            if layers.is_empty() {
                return Err(bad(label, "network has no layers"));
            }
            if layers.last().map(Layer::outputs) != Some(1) {
                return Err(bad(
                    label,
                    "network output layer must have exactly one unit",
                ));
            }
            Ok(Estimator::Network(Mlp {
                layers,
                dead_inputs,
            }))
        }
        other => Err(bad(label, format!("unknown estimator type '{other}'"))),
    }
}

// ---------------------------------------------------------------------
// Artifact assembly
// ---------------------------------------------------------------------

impl ModelArtifact {
    /// Pair a trained model with the schema of its training table.
    pub fn new(model: TrainedModel, schema: TableSchema) -> ModelArtifact {
        ModelArtifact { model, schema }
    }

    /// Shorthand: capture the schema from the training table directly.
    pub fn from_training(model: TrainedModel, training_table: &Table) -> ModelArtifact {
        let schema = TableSchema::of(training_table);
        ModelArtifact { model, schema }
    }

    /// Serialize to the two-line on-disk format.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let label = "<in-memory>";
        let payload = JsonObject::new()
            .str("kind", self.model.kind.abbrev())
            .raw(
                "schema",
                &JsonObject::new()
                    .raw("columns", &encode_schema(label, &self.schema)?)
                    .finish(),
            )
            .raw("prep", &encode_prep(label, &self.model.prep)?)
            .raw(
                "estimator",
                &encode_estimator(label, &self.model.estimator)?,
            )
            .finish();
        let header = JsonObject::new()
            .str("type", "perfpredict-model")
            .uint("format_version", FORMAT_VERSION)
            .str("kind", self.model.kind.abbrev())
            .usize("payload_bytes", payload.len())
            .str(
                "checksum",
                &format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes())),
            )
            .finish();
        let mut out = Vec::with_capacity(header.len() + payload.len() + 2);
        out.extend_from_slice(header.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(payload.as_bytes());
        out.push(b'\n');
        Ok(out)
    }

    /// Deserialize from the two-line format. `label` names the source in
    /// error messages (a path, or `"<stdin>"`).
    pub fn from_bytes(label: &str, bytes: &[u8]) -> Result<ModelArtifact> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| bad(label, format!("artifact is not UTF-8: {e}")))?;
        let (header_line, rest) = text
            .split_once('\n')
            .ok_or_else(|| bad(label, "truncated: no header line"))?;
        let header =
            json::parse(header_line).map_err(|e| bad(label, format!("malformed header: {e}")))?;
        if get_str(label, &header, "type")? != "perfpredict-model" {
            return Err(bad(label, "not a perfpredict model artifact"));
        }
        let version = get(label, &header, "format_version")?
            .as_u64()
            .ok_or_else(|| bad(label, "format_version is not an integer"))?;
        if version > FORMAT_VERSION {
            return Err(bad(
                label,
                format!(
                    "format version {version} is newer than supported {FORMAT_VERSION} — \
                     upgrade perfpredict to read this artifact"
                ),
            ));
        }
        if version == 0 {
            return Err(bad(label, "format version 0 is not valid"));
        }
        let payload_bytes = get_usize(label, &header, "payload_bytes")?;
        let payload = rest.strip_suffix('\n').unwrap_or(rest);
        if payload.len() != payload_bytes {
            return Err(bad(
                label,
                format!(
                    "payload is {} bytes, header promises {payload_bytes} — truncated or corrupt",
                    payload.len()
                ),
            ));
        }
        let checksum = get_str(label, &header, "checksum")?;
        let want = checksum
            .strip_prefix("fnv1a64:")
            .ok_or_else(|| bad(label, format!("unknown checksum algorithm in '{checksum}'")))?;
        let got = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if got != want {
            return Err(bad(
                label,
                format!("checksum mismatch: stored fnv1a64:{want}, computed fnv1a64:{got}"),
            ));
        }
        let body =
            json::parse(payload).map_err(|e| bad(label, format!("malformed payload: {e}")))?;
        let abbrev = get_str(label, &body, "kind")?;
        let kind = ModelKind::from_abbrev(abbrev)
            .ok_or_else(|| bad(label, format!("unknown model kind '{abbrev}'")))?;
        let header_kind = get_str(label, &header, "kind")?;
        if header_kind != abbrev {
            return Err(bad(
                label,
                format!("header kind '{header_kind}' disagrees with payload kind '{abbrev}'"),
            ));
        }
        let schema = decode_schema(label, get(label, &body, "schema")?)?;
        let prep = decode_prep(label, get(label, &body, "prep")?)?;
        let estimator = decode_estimator(label, get(label, &body, "estimator")?)?;
        match (&estimator, kind.is_linear()) {
            (Estimator::Linear(_), true) | (Estimator::Network(_), false) => {}
            _ => {
                return Err(bad(
                    label,
                    format!("estimator type does not match model kind {abbrev}"),
                ));
            }
        }
        Ok(ModelArtifact {
            model: TrainedModel {
                kind,
                prep,
                estimator,
            },
            schema,
        })
    }

    /// Write the artifact to `path`.
    pub fn save(&self, path: &str) -> Result<()> {
        let _span = telemetry::span!("artifact/save", kind = self.model.kind.abbrev());
        let bytes = self.to_bytes()?;
        std::fs::write(path, &bytes).map_err(|e| Error::io(path, e))?;
        telemetry::counter_add("artifact/saved", 1);
        Ok(())
    }

    /// Read an artifact from `path`.
    pub fn load(path: &str) -> Result<ModelArtifact> {
        let _span = telemetry::span!("artifact/load", path = path);
        let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
        let artifact = Self::from_bytes(path, &bytes)?;
        telemetry::counter_add("artifact/loaded", 1);
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::try_train;

    fn table(n: usize) -> Table {
        let speeds: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 10) as f64 * 200.0).collect();
        let mems: Vec<f64> = (0..n)
            .map(|i| [266.0, 333.0, 400.0, 533.0][i % 4])
            .collect();
        let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let bpred: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 0.01 * speeds[i] + 0.002 * mems[i] + if smt[i] { 1.5 } else { 0.0 })
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

    #[test]
    fn round_trip_preserves_predictions_linear_and_network() {
        let t = table(80);
        for kind in [ModelKind::LrB, ModelKind::NnQ] {
            let model = try_train(kind, &t, 7).expect("train");
            let expect = model.try_predict(&t).expect("predict");
            let art = ModelArtifact::from_training(model, &t);
            let bytes = art.to_bytes().expect("serialize");
            let back = ModelArtifact::from_bytes("test", &bytes).expect("deserialize");
            assert_eq!(back.model.kind, kind);
            assert_eq!(back.schema, art.schema);
            assert_eq!(
                back.model.try_predict(&t).expect("predict"),
                expect,
                "{}",
                kind.abbrev()
            );
        }
    }

    #[test]
    fn schema_captures_types_and_levels() {
        let t = table(12);
        let s = TableSchema::of(&t);
        assert_eq!(s.columns.len(), 4);
        match s.column("bpred").expect("bpred present") {
            ColumnSchema::Categorical { levels, .. } => {
                assert_eq!(levels, &["perfect", "bimodal", "gshare"]);
            }
            other => panic!("bpred should be categorical, got {other:?}"),
        }
        match s.column("speed").expect("speed present") {
            ColumnSchema::Numeric { observed, .. } => {
                assert!(observed.len() <= DOMAIN_CAP);
                assert!(observed.windows(2).all(|w| w[0] < w[1]));
            }
            other => panic!("speed should be numeric, got {other:?}"),
        }
    }

    #[test]
    fn truncated_artifact_is_a_typed_error() {
        let t = table(40);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 1).expect("train"), &t);
        let bytes = art.to_bytes().expect("serialize");
        for cut in [10, bytes.len() / 2, bytes.len() - 5] {
            let err = ModelArtifact::from_bytes("cut", &bytes[..cut]).expect_err("truncated");
            assert_eq!(err.kind(), "artifact", "cut={cut}: {err}");
        }
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let t = table(40);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 1).expect("train"), &t);
        let mut bytes = art.to_bytes().expect("serialize");
        // Flip a digit inside the payload (header stays intact).
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("newline");
        let pos = bytes[header_end..]
            .iter()
            .position(|&b| b.is_ascii_digit())
            .map(|i| header_end + i)
            .expect("digit in payload");
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        let err = ModelArtifact::from_bytes("flip", &bytes).expect_err("corrupt");
        assert_eq!(err.kind(), "artifact");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn future_format_version_is_rejected() {
        let t = table(40);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 1).expect("train"), &t);
        let bytes = art.to_bytes().expect("serialize");
        let text = String::from_utf8(bytes).expect("utf8");
        let bumped = text.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FORMAT_VERSION + 1),
            1,
        );
        let err = ModelArtifact::from_bytes("future", bumped.as_bytes()).expect_err("future");
        assert_eq!(err.kind(), "artifact");
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("perfpredict-artifact-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("m.ppmodel").to_string_lossy().into_owned();
        let t = table(60);
        let model = try_train(ModelKind::NnS, &t, 3).expect("train");
        let expect = model.try_predict(&t).expect("predict");
        ModelArtifact::from_training(model, &t)
            .save(&path)
            .expect("save");
        let back = ModelArtifact::load(&path).expect("load");
        assert_eq!(back.model.try_predict(&t).expect("predict"), expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
