//! Minimal JSON writing and parsing.
//!
//! The vendored serde stand-in (`crates/compat/serde`) has no data model,
//! so machine-readable output is produced here instead: [`JsonObject`]
//! builds one RFC 8259 object as a `String`, and [`parse`] reads one back
//! into a [`Value`] tree. Both sides are used in-tree — the JSON-lines
//! manifest sink writes with [`JsonObject`], and the manifest tests (plus
//! any downstream tooling) read with [`parse`] — so every line the sink
//! emits is round-trip checked by the test suite.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    // Copy runs that need no escaping in one go; every escaped char is
    // ASCII, so each run ends on a char boundary.
    while let Some(i) = rest
        .bytes()
        .position(|c| c == b'"' || c == b'\\' || c < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c);
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Format a float the way JSON expects (no NaN/Inf — mapped to null).
pub fn number(x: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, x);
    out
}

/// [`number`], appending to `out`.
pub fn number_into(out: &mut String, x: f64) {
    if x.is_finite() {
        // Shortest representation that round-trips is overkill here;
        // `{}` on f64 already round-trips in Rust.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
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
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Add a float field (NaN/Inf become null).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        number_into(&mut self.buf, v);
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
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos)?;
    expect_end(input.as_bytes(), pos)?;
    Ok(value)
}

/// A member value returned by [`parse_members`]: scalars borrow from the
/// input where they can, and arrays and objects are syntax-checked but
/// not kept.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string, borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array or an object.
    Nested,
}

impl Scalar<'_> {
    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric content as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }
}

/// An object's `(key, value)` members in document order.
pub type Members<'a> = Vec<(Cow<'a, str>, Scalar<'a>)>;

/// Parse one JSON object into its members in document order, without
/// building a map: keys and unescaped strings borrow from `input`.
/// Duplicate keys are all kept (a [`Value::Obj`] keeps the last). Returns
/// `Ok(None)` for a valid JSON document that is not an object; errors are
/// exactly those of [`parse`].
pub fn parse_members(input: &str) -> Result<Option<Members<'_>>, String> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    if b.get(pos) != Some(&b'{') {
        return parse(input).map(|_| None);
    }
    // Sized for one member per eight bytes, so typical frames never regrow.
    let mut members = Vec::with_capacity(input.len() / 8);
    parse_object_with(input, &mut pos, |key, pos| {
        skip_ws(b, pos);
        let value = match b.get(*pos) {
            Some(b'"') => Scalar::Str(parse_str(input, pos)?),
            _ => match parse_value(input, pos)? {
                Value::Null => Scalar::Null,
                Value::Bool(v) => Scalar::Bool(v),
                Value::Num(x) => Scalar::Num(x),
                Value::Str(s) => Scalar::Str(Cow::Owned(s)),
                Value::Arr(_) | Value::Obj(_) => Scalar::Nested,
            },
        };
        members.push((key, value));
        Ok(())
    })?;
    expect_end(b, pos)?;
    Ok(Some(members))
}

/// Only whitespace may follow a document.
fn expect_end(b: &[u8], mut pos: usize) -> Result<(), String> {
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(input: &str, pos: &mut usize) -> Result<Value, String> {
    let b = input.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            let mut map = BTreeMap::new();
            parse_object_with(input, pos, |key, pos| {
                map.insert(key.into_owned(), parse_value(input, pos)?);
                Ok(())
            })?;
            Ok(Value::Obj(map))
        }
        Some(b'[') => parse_array(input, pos),
        Some(b'"') => Ok(Value::Str(parse_str(input, pos)?.into_owned())),
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
    let digits = text.strip_prefix('-').unwrap_or(text);
    if (1..=15).contains(&digits.len()) && digits.bytes().all(|c| c.is_ascii_digit()) {
        // Integers below 10^15 < 2^53 are exact in f64, so this is the
        // value `parse` returns (including -0.0 for "-0"), only cheaper.
        let n = digits
            .bytes()
            .fold(0u64, |n, c| n * 10 + u64::from(c - b'0')) as f64;
        return Ok(Value::Num(if digits.len() < text.len() { -n } else { n }));
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

/// The string at `input[*pos] == '"'`, borrowed when it has no escapes.
fn parse_str<'a>(input: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let b = input.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // The run up to the next quote or escape. Both delimiters are
        // ASCII, so the run ends on a char boundary.
        let start = *pos;
        let end = b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .map_or(b.len(), |n| start + n);
        let run = &input[start..end];
        *pos = end;
        match b.get(end) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                // Every escape pushes a char, so an empty `out` means
                // there was none and the string is the run itself.
                if out.is_empty() {
                    return Ok(Cow::Borrowed(run));
                }
                out.push_str(run);
                return Ok(Cow::Owned(out));
            }
            Some(_) => {
                out.push_str(run);
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
        }
    }
}

/// Parse the object at `input[*pos] == '{'`, handing each member's key to
/// `member`, which parses the value at `*pos`.
fn parse_object_with<'a>(
    input: &'a str,
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let b = input.as_bytes();
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(input, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        member(key, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(input: &str, pos: &mut usize) -> Result<Value, String> {
    let b = input.as_bytes();
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(input, pos)?);
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
    fn integer_fast_path_matches_float_parsing() {
        for text in [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "1800",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740993",
            "1.5",
            "-2e3",
        ] {
            let fast = parse(text).expect(text).as_f64().expect(text);
            let slow: f64 = text.parse().expect(text);
            assert_eq!(fast.to_bits(), slow.to_bits(), "{text}");
        }
    }

    #[test]
    fn parse_members_agrees_with_parse() {
        let docs = [
            r#"{"id":"q1","x":1.5,"ok":true,"n":null,"s":"a\"b\u0041"}"#,
            r#" { "b" : [1,{"c":2}] , "a" : {"d":[]} , "b" : 3 } "#,
            r#"{}"#,
            r#"{"k\n":"v"}"#,
            "[1,2]",
            "\"top\"",
            "7",
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":1} extra"#,
            r#"{"a":"unterminated"#,
            r#"{"a":"bad \q escape"}"#,
            r#"{"a":[1 2]}"#,
            r#"{"a":tru}"#,
            r#"{"a":1e}"#,
            r#"{"q":"\"","b":"x\\","u":"\u00e9t\u00e9","raw":"ünï","n":[{"s":"a\tb"}]}"#,
            r#"{"a":"tr\u00"}"#,
            r#"{"a":"ends in \"#,
            r#"{"n":-0,"m":007,"big":12345678901234567,"f":-1.5e3}"#,
        ];
        for doc in docs {
            match (parse(doc), parse_members(doc)) {
                (Err(a), Err(b)) => assert_eq!(a, b, "{doc}"),
                (Ok(Value::Obj(map)), Ok(Some(members))) => {
                    // Last occurrence wins, as in the map.
                    let mut last = BTreeMap::new();
                    for (k, v) in &members {
                        last.insert(k.to_string(), v.clone());
                    }
                    assert_eq!(last.len(), map.len(), "{doc}");
                    for (k, v) in &map {
                        let m = &last[k];
                        match v {
                            Value::Str(s) => assert_eq!(m.as_str(), Some(s.as_str()), "{doc}"),
                            Value::Num(x) => assert_eq!(m.as_f64(), Some(*x), "{doc}"),
                            Value::Bool(x) => assert_eq!(m, &Scalar::Bool(*x), "{doc}"),
                            Value::Null => assert_eq!(m, &Scalar::Null, "{doc}"),
                            Value::Arr(_) | Value::Obj(_) => {
                                assert_eq!(m, &Scalar::Nested, "{doc}")
                            }
                        }
                    }
                }
                (Ok(v), Ok(None)) => assert!(!matches!(v, Value::Obj(_)), "{doc}"),
                (a, b) => panic!("{doc}: parse {a:?} vs parse_members {b:?}"),
            }
        }
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        let line = JsonObject::new().num("x", f64::NAN).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("x"), Some(&Value::Null));
    }
}
