//! JSONL request parsing and schema validation.
//!
//! A request line is one JSON object mapping column names to values, with
//! an optional `"id"` field echoed back in the response:
//!
//! ```text
//! {"id":"q17","speed":1800,"smt":true,"bpred":"gshare","mem_freq":400}
//! ```
//!
//! Validation is strict and typed: every schema column must be present
//! with the right type (categorical levels must be in the training
//! vocabulary), and unknown fields are rejected — a typo'd column name
//! silently defaulting would be a wrong prediction served with a straight
//! face. All failures are [`fault::Error::InvalidInput`] naming the line
//! and field, so a bad replay file exits with code 2 instead of panicking
//! inside the preprocessor.

use fault::{Error, Result};
use mlmodels::artifact::{ColumnSchema, TableSchema};
#[cfg(test)]
use mlmodels::Table;
use telemetry::json::{self, Value};

/// One validated configuration cell, typed like its training column.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Numeric value (finite).
    Num(f64),
    /// Flag value.
    Flag(bool),
    /// Categorical level code (index into the schema's level list).
    Code(u32),
}

/// A validated request: cells in schema column order, plus the id echoed
/// in the response.
#[derive(Debug, Clone)]
pub struct Request {
    /// Response id: the request's `"id"` field, or the 1-based line
    /// number rendered as a string when absent.
    pub id: String,
    /// One cell per schema column, in schema order.
    pub cells: Vec<Cell>,
}

impl Request {
    /// Canonical cache key: one `u64` per cell, in schema order. Numeric
    /// cells use the f64 bit pattern with `-0.0` folded into `0.0`, so
    /// arithmetically identical configs share a key.
    pub(crate) fn canonical_key(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| match *c {
                Cell::Num(x) => (if x == 0.0 { 0.0f64 } else { x }).to_bits(),
                Cell::Flag(b) => u64::from(b),
                Cell::Code(code) => u64::from(code),
            })
            .collect()
    }
}

fn invalid(line_no: u64, detail: impl std::fmt::Display) -> Error {
    Error::invalid(format!("request line {line_no}: {detail}"))
}

/// Parse and validate one JSONL request line against the schema.
/// `line_no` is 1-based and used both for error messages and as the
/// default id.
pub fn parse_request_line(schema: &TableSchema, line: &str, line_no: u64) -> Result<Request> {
    let value = json::parse(line).map_err(|e| invalid(line_no, format!("malformed JSON: {e}")))?;
    let Value::Obj(fields) = &value else {
        return Err(invalid(line_no, "request must be a JSON object"));
    };
    request_from_fields(schema, fields, line_no)
}

/// Validate an already-parsed field map against the schema. The daemon
/// calls this directly after stripping its envelope keys (`op`, `model`,
/// `deadline_ms`) from the frame, so schema validation stays identical
/// between one-shot replay and daemon mode; [`parse_request_line`]
/// delegates here. `line_no` is the 1-based frame number, used for error
/// messages and the default id.
pub(crate) fn request_from_fields(
    schema: &TableSchema,
    fields: &std::collections::BTreeMap<String, Value>,
    line_no: u64,
) -> Result<Request> {
    for key in fields.keys() {
        if key != "id" && schema.column(key).is_none() {
            return Err(invalid(
                line_no,
                format!("unknown field '{key}' (not a schema column)"),
            ));
        }
    }
    let id = match fields.get("id") {
        None => line_no.to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(x)) => json::number(*x),
        Some(_) => return Err(invalid(line_no, "'id' must be a string or number")),
    };
    let mut cells = Vec::with_capacity(schema.columns.len());
    for col in &schema.columns {
        let name = col.name();
        let v = fields
            .get(name)
            .ok_or_else(|| invalid(line_no, format!("missing field '{name}'")))?;
        let cell = match col {
            ColumnSchema::Numeric { .. } => match v.as_f64() {
                // Canonicalize -0.0 at the boundary so every stored
                // cell (and anything derived from it — cache keys,
                // design rows, compiled-predictor inputs) sees one
                // representation per arithmetic value. NaN and the
                // infinities fail the is_finite gate with a typed
                // error, so they can never reach the cache or dedup.
                Some(x) if x.is_finite() => Cell::Num(if x == 0.0 { 0.0 } else { x }),
                _ => {
                    return Err(invalid(
                        line_no,
                        format!("field '{name}' must be a finite number"),
                    ))
                }
            },
            ColumnSchema::Flag { .. } => match v {
                Value::Bool(b) => Cell::Flag(*b),
                _ => {
                    return Err(invalid(
                        line_no,
                        format!("field '{name}' must be true or false"),
                    ))
                }
            },
            ColumnSchema::Categorical { levels, .. } => {
                let s = v.as_str().ok_or_else(|| {
                    invalid(line_no, format!("field '{name}' must be a level name"))
                })?;
                let code = levels.iter().position(|l| l == s).ok_or_else(|| {
                    invalid(
                        line_no,
                        format!(
                            "field '{name}': unknown level '{s}' (training levels: {})",
                            levels.join(", ")
                        ),
                    )
                })?;
                // Level index comes from the artifact schema, which is
                // external input: convert checked so a pathological
                // schema cannot wrap the code.
                Cell::Code(u32::try_from(code).map_err(|_| {
                    invalid(
                        line_no,
                        format!("field '{name}': level index {code} exceeds u32 range"),
                    )
                })?)
            }
        };
        cells.push(cell);
    }
    Ok(Request { id, cells })
}

/// Assemble a prediction [`Table`] from validated requests, in schema
/// column order — the order the artifact's preprocessor addresses columns
/// by. The target is a placeholder (predictions never read it). Test-only:
/// it feeds the interpreted oracle the compiled predictors are checked
/// against.
#[cfg(test)]
pub(crate) fn batch_table(schema: &TableSchema, requests: &[&Request]) -> Table {
    let n = requests.len();
    let mut table = Table::new();
    for (j, col) in schema.columns.iter().enumerate() {
        match col {
            ColumnSchema::Numeric { name, .. } => {
                let vals = requests
                    .iter()
                    .map(|r| match r.cells[j] {
                        Cell::Num(x) => x,
                        ref other => unreachable!("validated numeric cell, got {other:?}"),
                    })
                    .collect();
                table.add_numeric(name.clone(), vals);
            }
            ColumnSchema::Flag { name } => {
                let vals = requests
                    .iter()
                    .map(|r| match r.cells[j] {
                        Cell::Flag(b) => b,
                        ref other => unreachable!("validated flag cell, got {other:?}"),
                    })
                    .collect();
                table.add_flag(name.clone(), vals);
            }
            ColumnSchema::Categorical { name, levels } => {
                let codes = requests
                    .iter()
                    .map(|r| match r.cells[j] {
                        Cell::Code(c) => c,
                        ref other => unreachable!("validated categorical cell, got {other:?}"),
                    })
                    .collect();
                table.add_categorical(name.clone(), codes, levels.clone());
            }
        }
    }
    table.set_target(vec![0.0; n]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema {
            columns: vec![
                ColumnSchema::Numeric {
                    name: "speed".into(),
                    observed: vec![1000.0, 1800.0],
                },
                ColumnSchema::Flag { name: "smt".into() },
                ColumnSchema::Categorical {
                    name: "bpred".into(),
                    levels: vec!["perfect".into(), "gshare".into()],
                },
            ],
        }
    }

    #[test]
    fn valid_line_parses_in_schema_order() {
        let r = parse_request_line(
            &schema(),
            r#"{"bpred":"gshare","id":"q1","smt":true,"speed":1800}"#,
            1,
        )
        .expect("valid");
        assert_eq!(r.id, "q1");
        assert_eq!(
            r.cells,
            vec![Cell::Num(1800.0), Cell::Flag(true), Cell::Code(1)]
        );
    }

    #[test]
    fn missing_id_defaults_to_line_number() {
        let r = parse_request_line(
            &schema(),
            r#"{"bpred":"perfect","smt":false,"speed":1000}"#,
            42,
        )
        .expect("valid");
        assert_eq!(r.id, "42");
    }

    #[test]
    fn bad_requests_are_typed_invalid_input() {
        let s = schema();
        let cases = [
            ("not json", "malformed"),
            (r#"{"smt":true,"speed":1800}"#, "missing field 'bpred'"),
            (
                r#"{"bpred":"gshare","smt":true,"speed":1800,"typo":1}"#,
                "unknown field 'typo'",
            ),
            (
                r#"{"bpred":"gshare","smt":"yes","speed":1800}"#,
                "must be true or false",
            ),
            (
                r#"{"bpred":"neural","smt":true,"speed":1800}"#,
                "unknown level 'neural'",
            ),
            (
                r#"{"bpred":"gshare","smt":true,"speed":"fast"}"#,
                "finite number",
            ),
        ];
        for (line, want) in cases {
            let err = parse_request_line(&s, line, 7).expect_err(line);
            assert_eq!(err.kind(), "invalid", "{line}");
            let msg = err.to_string();
            assert!(
                msg.contains("line 7") && msg.contains(want),
                "{line}: {msg}"
            );
        }
    }

    #[test]
    fn canonical_key_folds_negative_zero_and_distinguishes_configs() {
        let s = schema();
        let a = parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":0}"#, 1).unwrap();
        let b =
            parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":-0.0}"#, 2).unwrap();
        let c = parse_request_line(&s, r#"{"bpred":"perfect","smt":true,"speed":0}"#, 3).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    /// Regression (cache-key canonicalization): `-0.0` is rewritten to
    /// `0.0` *in the stored cell* at validation time, so every consumer
    /// of the cells — cache keys, batch tables, compiled predictors —
    /// sees one representation per arithmetic value.
    #[test]
    fn negative_zero_is_canonicalized_in_the_cell_itself() {
        let s = schema();
        let r =
            parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":-0.0}"#, 1).unwrap();
        match r.cells[0] {
            Cell::Num(x) => assert_eq!(x.to_bits(), 0.0f64.to_bits(), "stored cell must be +0.0"),
            ref other => panic!("expected numeric cell, got {other:?}"),
        }
    }

    /// Regression (NaN rejection): non-finite numerics — including
    /// overflow-to-infinity literals like 1e999 — are typed
    /// `InvalidInput` at validation, so NaN can never poison the cache
    /// key space or the in-window dedup map.
    #[test]
    fn non_finite_numerics_are_rejected_at_validation() {
        let s = schema();
        for line in [
            r#"{"bpred":"perfect","smt":false,"speed":1e999}"#,
            r#"{"bpred":"perfect","smt":false,"speed":-1e999}"#,
        ] {
            let err = parse_request_line(&s, line, 5).expect_err(line);
            assert_eq!(err.kind(), "invalid", "{line}");
            assert!(err.to_string().contains("finite number"), "{line}: {err}");
        }
        // And via the daemon's pre-parsed field-map entry point too.
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("speed".to_string(), Value::Num(f64::NAN));
        fields.insert("smt".to_string(), Value::Bool(false));
        fields.insert("bpred".to_string(), Value::Str("perfect".into()));
        let err = request_from_fields(&s, &fields, 9).expect_err("NaN cell");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("finite number"), "{err}");
    }

    #[test]
    fn batch_table_reconstructs_training_shape() {
        let s = schema();
        let r1 =
            parse_request_line(&s, r#"{"bpred":"gshare","smt":true,"speed":1800}"#, 1).unwrap();
        let r2 =
            parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":1000}"#, 2).unwrap();
        let t = batch_table(&s, &[&r1, &r2]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.names(), ["speed", "smt", "bpred"]);
        t.try_validate().expect("consistent table");
    }
}
