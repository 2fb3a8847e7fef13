//! `json::parse_members` is the single-scan member parser the serve
//! daemon reads every frame with; `json::parse` builds the `Value` tree.
//! On generated frames, and on the same frames with a byte deleted,
//! inserted, replaced or cut off, the two must agree: the same error
//! string byte for byte (offsets included), or the same members, where
//! `parse_members`' last occurrence of a key is the map's value and
//! numbers agree bit for bit.

use proptest::prelude::*;
use std::collections::BTreeMap;
use telemetry::json::{self, Scalar, Value};

const KEYS: [&str; 10] = [
    "\"id\"",
    "\"op\"",
    "\"model\"",
    "\"x\"",
    "\"l1d_size_kb\"",
    "\"bpred\"",
    "\"\\u0069d\"",
    "\"k\\\"q\"",
    "\"\\n\\t\"",
    "\"é\"",
];

const VALUES: [&str; 28] = [
    "0",
    "-0",
    "7",
    "-42",
    "007",
    "1800",
    "999999999999999",
    "-999999999999999",
    "1000000000000000",
    "12345678901234567",
    "1.5",
    "-2e3",
    "1e999",
    "0.1e-2",
    "true",
    "false",
    "null",
    "\"gshare\"",
    "\"\"",
    "\"a\\\"b\\\\c\\/d\"",
    "\"\\u00e9t\\u00E9\"",
    "\"\\ud800\"",
    "\"tab\\there\"",
    "\"ünï\"",
    "[]",
    "[1,{\"b\":[null]},\"s\"]",
    "{}",
    "{\"n\":{\"m\":-1.25e-3}}",
];

const WHITESPACE: [&str; 5] = ["", " ", "\t", "\r\n", "  \n "];

/// Bytes a mutation inserts or writes: JSON punctuation, the starts of
/// literals and numbers, and escape letters.
const NOISE: &[u8] = b"{}[]:,\"\\ -+.eE0123456789tfnux/";

/// One object built from `choices`: keys (duplicates and escaped
/// spellings included), values of every kind, and whitespace anywhere
/// JSON allows it.
fn frame(choices: &[u32]) -> String {
    let pick = |i: usize, n: usize| choices.get(i).map_or(0, |&c| c as usize % n);
    let ws = |i: usize| WHITESPACE[pick(i, WHITESPACE.len())];
    let members = choices.len() / 5;
    let mut out = String::from(ws(0));
    out.push('{');
    for m in 0..members {
        let at = 5 * m;
        if m > 0 {
            out.push(',');
        }
        out.push_str(ws(at + 1));
        out.push_str(KEYS[pick(at + 2, KEYS.len())]);
        out.push_str(ws(at + 3));
        out.push(':');
        out.push_str(ws(at + 4));
        out.push_str(VALUES[pick(at, VALUES.len())]);
    }
    out.push_str(ws(choices.len()));
    out.push('}');
    out.push_str(ws(choices.len() + 1));
    out
}

/// `doc` with one edit at byte `at`: 0 deletes, 1 inserts, 2 replaces,
/// 3 truncates, 4 leaves it whole. The result may not be UTF-8, in
/// which case there is nothing to compare.
fn mutate(doc: &str, kind: u32, at: usize, noise: usize) -> Option<String> {
    let mut b = doc.as_bytes().to_vec();
    let at = at % (b.len() + 1);
    let byte = NOISE[noise % NOISE.len()];
    match kind {
        0 if at < b.len() => {
            b.remove(at);
        }
        1 => b.insert(at, byte),
        2 if at < b.len() => b[at] = byte,
        3 => b.truncate(at),
        _ => {}
    }
    String::from_utf8(b).ok()
}

fn same_number(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Assert that `parse` and `parse_members` agree on `doc`.
fn check(doc: &str) -> Result<(), String> {
    let mut members = Vec::new();
    let scanned = json::parse_members(doc, |k, v| members.push((k, v)));
    match (json::parse(doc), scanned) {
        (Err(a), Err(b)) if a == b => Ok(()),
        (Ok(Value::Obj(map)), Ok(true)) => {
            let mut last = BTreeMap::new();
            for (k, v) in &members {
                last.insert(k.to_string(), v);
            }
            if last.len() != map.len() {
                return Err(format!("{doc:?}: keys {last:?} vs {map:?}"));
            }
            for (k, v) in &map {
                let m = last[k];
                let agree = match (v, m) {
                    (Value::Null, Scalar::Null) => true,
                    (Value::Bool(a), Scalar::Bool(b)) => a == b,
                    (Value::Num(a), Scalar::Num(b)) => same_number(*a, *b),
                    (Value::Str(a), Scalar::Str(b)) => a == b,
                    (Value::Arr(_) | Value::Obj(_), Scalar::Nested) => true,
                    _ => false,
                };
                if !agree {
                    return Err(format!("{doc:?}: '{k}' is {v:?} vs {m:?}"));
                }
            }
            Ok(())
        }
        (Ok(v), Ok(false)) if !matches!(v, Value::Obj(_)) => Ok(()),
        (a, b) => Err(format!("{doc:?}: parse {a:?} vs parse_members {b:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_members_agrees_with_parse(
        choices in prop::collection::vec(0u32..10_000, 0..60),
        kind in 0u32..5,
        at in 0usize..4096,
        noise in 0usize..64,
    ) {
        let doc = frame(&choices);
        prop_assert!(check(&doc).is_ok(), "{}", check(&doc).unwrap_err());
        if let Some(mutant) = mutate(&doc, kind, at, noise) {
            prop_assert!(check(&mutant).is_ok(), "{}", check(&mutant).unwrap_err());
        }
    }
}

/// Scalars and documents that are not objects take the same paths as
/// `parse`, errors included.
#[test]
fn non_objects_and_bare_values_agree_with_parse() {
    for doc in VALUES
        .iter()
        .chain(&["", " ", "-", "--1", "1-2", "tru", "nul", "[1 2]", "x"])
    {
        check(doc).unwrap();
    }
}
