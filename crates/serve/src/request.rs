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
use std::borrow::Cow;
use std::ops::Range;
use telemetry::json::{self, Scalar};

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

/// The canonical cache key of a request's cells: one `u64` per cell, in
/// schema order. Numeric cells use the f64 bit pattern with `-0.0` folded
/// into `0.0`, so arithmetically identical configs share a key.
pub(crate) fn canonical_key(cells: &[Cell]) -> impl Iterator<Item = u64> + '_ {
    cells.iter().map(|c| match *c {
        Cell::Num(x) => (if x == 0.0 { 0.0f64 } else { x }).to_bits(),
        Cell::Flag(b) => u64::from(b),
        Cell::Code(code) => u64::from(code),
    })
}

/// A typed `InvalidInput` naming the 1-based request line.
pub(crate) fn invalid(line_no: u64, detail: impl std::fmt::Display) -> Error {
    Error::invalid(format!("request line {line_no}: {detail}"))
}

/// Parse and validate one JSONL request line against the schema.
/// `line_no` is 1-based and used both for error messages and as the
/// default id.
pub fn parse_request_line(schema: &TableSchema, line: &str, line_no: u64) -> Result<Request> {
    let mut members = Members::default();
    parse_object(line, line_no, |key, value| members.push(key, value))?;
    let all = 0..members.len();
    Ok(Request {
        id: request_id(members.get(all.clone(), "id").cloned(), line_no)?.into_owned(),
        cells: Validator::new(schema).cells(&members, all, line_no)?,
    })
}

/// Parse one request frame, handing each member to `member` in document
/// order, or a typed `InvalidInput`.
fn parse_object<'a>(
    line: &'a str,
    line_no: u64,
    member: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Result<()> {
    match json::parse_members(line, member) {
        Ok(true) => Ok(()),
        Ok(false) => Err(invalid(line_no, "request must be a JSON object")),
        Err(e) => Err(invalid(line_no, format!("malformed JSON: {e}"))),
    }
}

/// Object members in document order, of one frame or of a whole window,
/// whose frames each own a range of them. Keys and values sit in
/// parallel vectors: two narrow pushes per member cost less than one
/// push of the pair.
#[derive(Default)]
pub(crate) struct Members<'a> {
    keys: Vec<Cow<'a, str>>,
    values: Vec<Scalar<'a>>,
}

impl<'a> Members<'a> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Members {
            keys: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, key: Cow<'a, str>, value: Scalar<'a>) {
        self.keys.push(key);
        self.values.push(value);
    }

    pub(crate) fn truncate(&mut self, len: usize) {
        self.keys.truncate(len);
        self.values.truncate(len);
    }

    /// The value of `key` among the members in `range`; the last
    /// occurrence wins, as in a JSON map.
    pub(crate) fn get(&self, range: Range<usize>, key: &str) -> Option<&Scalar<'a>> {
        let at = self.keys[range.clone()].iter().rposition(|k| k == key)?;
        Some(&self.values[range.start + at])
    }
}

/// The keys of a daemon frame that the daemon reads itself instead of
/// validating them against a schema, each by its last occurrence, as a
/// JSON map keeps it.
#[derive(Default)]
pub(crate) struct Envelope<'a> {
    pub(crate) id: Option<Scalar<'a>>,
    pub(crate) op: Option<Scalar<'a>>,
    pub(crate) model: Option<Scalar<'a>>,
    pub(crate) deadline_ms: Option<Scalar<'a>>,
}

/// Parse one daemon frame in one scan: its configuration members are
/// appended to `members` and its envelope is returned. `"id"` is both
/// (the [`Validator`] skips it); `"op"`, `"model"` and `"deadline_ms"`
/// are only envelope. On error `members` is left as it was.
pub(crate) fn parse_frame<'a>(
    line: &'a str,
    line_no: u64,
    members: &mut Members<'a>,
) -> Result<Envelope<'a>> {
    let start = members.len();
    let mut envelope = Envelope::default();
    let parsed = parse_object(line, line_no, |key, value| {
        let slot = match key.as_ref() {
            "id" => {
                envelope.id = Some(value.clone());
                members.push(key, value);
                return;
            }
            "op" => &mut envelope.op,
            "model" => &mut envelope.model,
            "deadline_ms" => &mut envelope.deadline_ms,
            _ => {
                members.push(key, value);
                return;
            }
        };
        *slot = Some(value);
    });
    match parsed {
        Ok(()) => Ok(envelope),
        Err(e) => {
            members.truncate(start);
            Err(e)
        }
    }
}

/// A request's response id from its `"id"` value (a string, or a number
/// rendered as JSON), or its 1-based line number when it has none.
pub(crate) fn request_id(id: Option<Scalar<'_>>, line_no: u64) -> Result<Cow<'_, str>> {
    match id {
        None => Ok(Cow::Owned(line_no.to_string())),
        Some(Scalar::Str(s)) => Ok(s),
        Some(Scalar::Num(x)) => Ok(Cow::Owned(json::number(x))),
        Some(_) => Err(invalid(line_no, "'id' must be a string or number")),
    }
}

/// Validates frames against one schema, reusing its scratch from frame
/// to frame.
pub(crate) struct Validator<'s> {
    schema: &'s TableSchema,
    /// The schema's column names, in schema order.
    names: Vec<&'s str>,
    /// The column named `"id"`, if the schema has one; otherwise an
    /// `"id"` member is the response id only.
    id_column: Option<usize>,
    /// Per schema column, the index of the member that sets it, or
    /// `usize::MAX` when none does.
    member_of: Vec<usize>,
}

impl<'s> Validator<'s> {
    pub(crate) fn new(schema: &'s TableSchema) -> Self {
        let names: Vec<&str> = schema.columns.iter().map(ColumnSchema::name).collect();
        Validator {
            schema,
            id_column: names.iter().position(|&n| n == "id"),
            names,
            member_of: Vec::with_capacity(schema.columns.len()),
        }
    }

    /// Validate a frame's members, those of `members` in `range`, and
    /// return its cells in schema order.
    /// Besides `"id"`, every key must be a schema column (the daemon
    /// keeps its envelope keys apart while parsing), and a repeated
    /// key's last value wins. When several fields are wrong, the first
    /// unknown key in key order is reported, else the first bad column
    /// in schema order.
    /// `line_no` is the 1-based frame number.
    pub(crate) fn cells(
        &mut self,
        members: &Members<'_>,
        range: Range<usize>,
        line_no: u64,
    ) -> Result<Vec<Cell>> {
        let keys = &members.keys[range.clone()];
        let values = &members.values[range];
        let columns = &self.schema.columns;
        self.member_of.clear();
        self.member_of.resize(columns.len(), usize::MAX);
        let mut unknown: Option<&str> = None;
        let mut next = 0;
        for (m, key) in keys.iter().enumerate() {
            // Frames usually list the columns in schema order, so the
            // column after the previous match is tried first.
            let column = if self.names.get(next).is_some_and(|&n| n == key) {
                Some(next)
            } else if key == "id" {
                self.id_column
            } else {
                self.names.iter().position(|&n| n == key)
            };
            match column {
                Some(j) => {
                    self.member_of[j] = m;
                    next = j + 1;
                }
                None if key != "id" && unknown.is_none_or(|u| key.as_ref() < u) => {
                    unknown = Some(key);
                }
                None => {}
            }
        }
        if let Some(key) = unknown {
            return Err(invalid(
                line_no,
                format!("unknown field '{key}' (not a schema column)"),
            ));
        }
        // Collected by hand: `collect` into a `Result` cannot size the
        // vector up front.
        let mut cells = Vec::with_capacity(columns.len());
        for (col, &m) in columns.iter().zip(&self.member_of) {
            let v = values
                .get(m)
                .ok_or_else(|| invalid(line_no, format!("missing field '{}'", col.name())))?;
            cells.push(cell_from_value(col, v, line_no)?);
        }
        Ok(cells)
    }
}

fn cell_from_value(col: &ColumnSchema, v: &Scalar<'_>, line_no: u64) -> Result<Cell> {
    let name = col.name();
    Ok(match col {
        ColumnSchema::Numeric { .. } => match v.as_f64() {
            // Canonicalize -0.0 at the boundary so every stored cell
            // (and anything derived from it — cache keys, design rows,
            // compiled-predictor inputs) sees one representation per
            // arithmetic value. NaN and the infinities fail the
            // is_finite gate with a typed error, so they can never reach
            // the cache or dedup.
            Some(x) if x.is_finite() => Cell::Num(if x == 0.0 { 0.0 } else { x }),
            _ => {
                return Err(invalid(
                    line_no,
                    format!("field '{name}' must be a finite number"),
                ))
            }
        },
        ColumnSchema::Flag { .. } => match v {
            Scalar::Bool(b) => Cell::Flag(*b),
            _ => {
                return Err(invalid(
                    line_no,
                    format!("field '{name}' must be true or false"),
                ))
            }
        },
        ColumnSchema::Categorical { levels, .. } => {
            let s = v
                .as_str()
                .ok_or_else(|| invalid(line_no, format!("field '{name}' must be a level name")))?;
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
            // external input: convert checked so a pathological schema
            // cannot wrap the code.
            Cell::Code(u32::try_from(code).map_err(|_| {
                invalid(
                    line_no,
                    format!("field '{name}': level index {code} exceeds u32 range"),
                )
            })?)
        }
    })
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

    /// The members are matched as a JSON map would be: the last of a
    /// repeated key wins, and of several unknown keys the first in key
    /// order is reported, before any column error.
    #[test]
    fn repeated_and_unknown_keys_behave_like_a_map() {
        let s = schema();
        let r = parse_request_line(
            &s,
            r#"{"speed":1000,"bpred":"gshare","smt":true,"speed":1800,"id":"a","id":"b"}"#,
            1,
        )
        .expect("valid");
        assert_eq!(r.id, "b");
        assert_eq!(r.cells[0], Cell::Num(1800.0));
        let err = parse_request_line(&s, r#"{"zeta":1,"speed":"x","alpha":2}"#, 3)
            .expect_err("unknown keys");
        assert!(err.to_string().contains("unknown field 'alpha'"), "{err}");
    }

    #[test]
    fn canonical_key_folds_negative_zero_and_distinguishes_configs() {
        let s = schema();
        let a = parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":0}"#, 1).unwrap();
        let b =
            parse_request_line(&s, r#"{"bpred":"perfect","smt":false,"speed":-0.0}"#, 2).unwrap();
        let c = parse_request_line(&s, r#"{"bpred":"perfect","smt":true,"speed":0}"#, 3).unwrap();
        let key = |r: &Request| canonical_key(&r.cells).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
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
        // And via the daemon's pre-parsed members entry point too.
        let mut members = Members::default();
        members.push(Cow::Borrowed("speed"), Scalar::Num(f64::NAN));
        members.push(Cow::Borrowed("smt"), Scalar::Bool(false));
        members.push(
            Cow::Borrowed("bpred"),
            Scalar::Str(Cow::Borrowed("perfect")),
        );
        let err = Validator::new(&s)
            .cells(&members, 0..3, 9)
            .expect_err("NaN cell");
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
