//! Minimal JSON writing and parsing.
//!
//! The vendored serde stand-in (`crates/compat/serde`) has no data model,
//! so machine-readable output is produced here instead: [`JsonObject`]
//! builds one RFC 8259 object as a `String`, and [`parse`] reads one back
//! into a [`Value`] tree. Both sides are used in-tree — the JSON-lines
//! manifest sink writes with [`JsonObject`], and the manifest tests (plus
//! any downstream tooling) read with [`parse`] — so every line the sink
//! emits is round-trip checked by the test suite.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a float the way JSON expects (no NaN/Inf — mapped to null).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // Shortest representation that round-trips is overkill here;
        // `{}` on f64 already round-trips in Rust.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Incremental builder for a single JSON object.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Add a float field (NaN/Inf become null).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Add an unsigned integer field.
    pub fn uint(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a `usize` field — the typed conversion callers would
    /// otherwise spell as `x as u64` at every count/length site.
    pub fn usize(self, k: &str, v: usize) -> Self {
        self.uint(k, u64::try_from(v).unwrap_or(u64::MAX))
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON value verbatim (object, array, …).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion order not preserved; keyed lookup).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric content as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }
}

/// Parse one JSON document. Errors carry a byte offset and description.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let Some(c) = rest.chars().next() else {
                    return Err(format!("unterminated string at byte {}", *pos));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let line = JsonObject::new()
            .str("type", "span")
            .str("path", "a/b")
            .num("wall_ms", 12.5)
            .uint("count", 42)
            .bool("ok", true)
            .raw("attrs", "{\"model\":\"NN-E\"}")
            .finish();
        let v = parse(&line).expect("parses");
        assert_eq!(v.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("wall_ms").unwrap().as_f64(), Some(12.5));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("attrs").unwrap().get("model").unwrap().as_str(),
            Some("NN-E")
        );
    }

    #[test]
    fn histogram_and_profile_records_round_trip() {
        // The two PR 6 manifest record shapes: a histogram with a sparse
        // nested bucket array, and a flat profile row.
        let mut h = crate::hist::Histogram::new();
        for v in [1u64, 64, 4_096, 1_000_000] {
            h.observe(v);
        }
        let line = h.to_manifest_record("serve/latency_ns");
        let v = parse(&line).expect("histogram record parses");
        assert_eq!(v.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(4));
        let Some(Value::Arr(buckets)) = v.get("buckets") else {
            panic!("buckets must be an array: {line}");
        };
        assert_eq!(buckets.len(), 4);
        let (name, back) =
            crate::hist::Histogram::from_manifest(&v).expect("histogram record decodes");
        assert_eq!(name, "serve/latency_ns");
        assert_eq!(back, h);

        let entry = crate::profile::ProfileEntry {
            path: "sweep/simulate".to_string(),
            calls: 288,
            total_ns: 1_500_000,
            self_ns: 1_200_000,
        };
        let v = parse(&entry.to_manifest_record()).expect("profile record parses");
        assert_eq!(v.get("type").unwrap().as_str(), Some("profile"));
        assert_eq!(v.get("path").unwrap().as_str(), Some("sweep/simulate"));
        assert_eq!(v.get("calls").unwrap().as_u64(), Some(288));
        assert_eq!(v.get("total_ns").unwrap().as_u64(), Some(1_500_000));
        assert_eq!(v.get("self_ns").unwrap().as_u64(), Some(1_200_000));
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let line = JsonObject::new().str("k", "a\"b\\c\nd\te\u{1}").finish();
        let v = parse(&line).expect("parses");
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":-1.5e2}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-150.0));
        match v.get("a") {
            Some(Value::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b"), Some(&Value::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        let line = JsonObject::new().num("x", f64::NAN).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("x"), Some(&Value::Null));
    }
}
