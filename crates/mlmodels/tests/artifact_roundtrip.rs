//! Property tests for the versioned model-artifact format: a trained
//! model must survive `serialize → deserialize → predict` with
//! bit-identical predictions for every [`ModelKind`], and corrupted
//! bytes must surface as typed `artifact` errors rather than panics or
//! silently-wrong models.

use mlmodels::table::Table;
use mlmodels::{try_train, ModelArtifact, ModelKind};
use proptest::prelude::*;

/// A small random table shaped like the paper's data: numeric, flag and
/// categorical predictors with a linear-ish target. Sized so every
/// model kind trains without a singular system.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(0.0f64..100.0, 24..48),
        prop::collection::vec(any::<bool>(), 24..48),
        0.1f64..5.0,
    )
        .prop_map(|(xs, flags, slope)| {
            let n = xs.len().min(flags.len());
            let xs = &xs[..n];
            let flags = &flags[..n];
            let codes: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
            let y: Vec<f64> = (0..n)
                .map(|i| 10.0 + slope * xs[i] + if flags[i] { 3.0 } else { 0.0 } + codes[i] as f64)
                .collect();
            let mut t = Table::new();
            t.add_numeric("x", xs.to_vec())
                .add_flag("f", flags.to_vec())
                .add_categorical("c", codes, vec!["a".into(), "b".into(), "z".into()])
                .set_target(y);
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `serialize → deserialize → predict` is bit-identical for every
    /// model kind that trains on the table. Exact `to_bits` equality,
    /// not an epsilon: the format stores every f64 with shortest
    /// round-trip formatting, so nothing may drift.
    #[test]
    fn roundtrip_predictions_are_bit_identical(t in arb_table()) {
        for kind in ModelKind::ALL {
            // A degenerate draw may make one kind untrainable (singular
            // system); that is a typed numeric error, not a format bug.
            let Ok(model) = try_train(kind, &t, 7) else { continue };
            let artifact = ModelArtifact::from_training(model, &t);
            let bytes = artifact.to_bytes().expect("serialize");
            let back = ModelArtifact::from_bytes("<roundtrip>", &bytes).expect("deserialize");
            prop_assert_eq!(back.model.kind, kind);
            prop_assert_eq!(back.schema.columns.len(), artifact.schema.columns.len());
            let before = artifact.model.try_predict(&t).expect("predict");
            let after = back.model.try_predict(&t).expect("predict");
            prop_assert_eq!(before.len(), after.len());
            for (b, a) in before.iter().zip(&after) {
                prop_assert_eq!(b.to_bits(), a.to_bits(), "kind {}", kind.abbrev());
            }
            // A second encode of the decoded artifact is byte-stable.
            prop_assert_eq!(&bytes, &back.to_bytes().expect("re-serialize"));
        }
    }

    /// Truncating the artifact at any prefix length is a typed
    /// `artifact` error — never a panic, never an Ok.
    #[test]
    fn truncation_is_always_a_typed_error(t in arb_table(), cut in 0.0f64..1.0) {
        let model = try_train(ModelKind::LrB, &t, 7).expect("LR-B trains");
        let bytes = ModelArtifact::from_training(model, &t)
            .to_bytes()
            .expect("serialize");
        let len = (bytes.len() as f64 * cut) as usize;
        prop_assert!(len < bytes.len());
        let err = ModelArtifact::from_bytes("<truncated>", &bytes[..len])
            .expect_err("truncated artifact must not load");
        prop_assert_eq!(err.kind(), "artifact");
        prop_assert_eq!(err.exit_code(), 4);
    }

    /// Flipping any single payload byte trips the checksum (or the JSON
    /// parser) — again a typed error, never a silently different model.
    #[test]
    fn single_byte_corruption_is_detected(t in arb_table(), pos in 0.0f64..1.0) {
        let model = try_train(ModelKind::NnQ, &t, 7).expect("NN-Q trains");
        let bytes = ModelArtifact::from_training(model, &t)
            .to_bytes()
            .expect("serialize");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
        let payload_len = bytes.len() - header_end - 1; // trailing newline
        let i = header_end + ((payload_len - 1) as f64 * pos) as usize;
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        let err = ModelArtifact::from_bytes("<flipped>", &corrupt)
            .expect_err("corrupted payload must not load");
        prop_assert_eq!(err.kind(), "artifact");
    }
}

/// Build a valid artifact byte blob for the hand-corruption tests below.
fn valid_bytes() -> Vec<u8> {
    let mut t = Table::new();
    let n = 32;
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
    t.add_numeric("x", xs)
        .add_flag("f", (0..n).map(|i| i % 2 == 0).collect())
        .set_target(y);
    let model = try_train(ModelKind::LrB, &t, 7).expect("LR-B trains");
    ModelArtifact::from_training(model, &t)
        .to_bytes()
        .expect("serialize")
}

fn patched_header(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&bytes[..header_end]).expect("utf-8 header");
    assert!(header.contains(from), "header {header} lacks {from}");
    let mut out = header.replacen(from, to, 1).into_bytes();
    out.extend_from_slice(&bytes[header_end..]);
    out
}

#[test]
fn future_format_version_is_rejected_as_newer() {
    let bytes = patched_header(
        &valid_bytes(),
        "\"format_version\":1",
        "\"format_version\":99",
    );
    let err = ModelArtifact::from_bytes("<future>", &bytes).expect_err("future version");
    assert_eq!(err.kind(), "artifact");
    assert!(err.to_string().contains("newer"), "{err}");
}

#[test]
fn version_zero_is_rejected() {
    let bytes = patched_header(
        &valid_bytes(),
        "\"format_version\":1",
        "\"format_version\":0",
    );
    let err = ModelArtifact::from_bytes("<v0>", &bytes).expect_err("version 0");
    assert_eq!(err.kind(), "artifact");
}

#[test]
fn header_kind_must_match_payload_kind() {
    // Same-length abbreviation keeps payload_bytes honest, so only the
    // kind cross-check can catch the mismatch.
    let bytes = patched_header(&valid_bytes(), "\"kind\":\"LR-B\"", "\"kind\":\"NN-Q\"");
    let err = ModelArtifact::from_bytes("<kind>", &bytes).expect_err("kind mismatch");
    assert_eq!(err.kind(), "artifact");
}

#[test]
fn flipped_checksum_is_rejected() {
    let bytes = valid_bytes();
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&bytes[..header_end]).expect("utf-8 header");
    let tag = "\"checksum\":\"fnv1a64:";
    let at = header.find(tag).expect("checksum field") + tag.len();
    let mut patched = bytes.clone();
    // Rotate the first checksum hex digit to a different one.
    patched[at] = if patched[at] == b'0' { b'1' } else { b'0' };
    let err = ModelArtifact::from_bytes("<checksum>", &patched).expect_err("bad checksum");
    assert_eq!(err.kind(), "artifact");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn garbage_is_a_typed_error() {
    for garbage in [
        &b""[..],
        &b"\n"[..],
        &b"not json\n{}\n"[..],
        &b"{\"type\":\"something-else\"}\n{}\n"[..],
    ] {
        let err = ModelArtifact::from_bytes("<garbage>", garbage).expect_err("garbage");
        assert_eq!(err.kind(), "artifact", "input {garbage:?}");
    }
}

#[test]
fn save_load_roundtrips_through_disk() {
    let dir = std::env::temp_dir().join("perfpredict_artifact_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("m.ppmodel").to_string_lossy().into_owned();
    let bytes = valid_bytes();
    let artifact = ModelArtifact::from_bytes("<mem>", &bytes).expect("valid");
    artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    assert_eq!(loaded.to_bytes().expect("re-encode"), bytes);
    std::fs::remove_file(&path).expect("cleanup");
}

/// FNV-1a 64, the checksum an artifact header states for its payload.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An artifact file for `payload` whose header is valid: the right
/// `payload_bytes` and checksum, so the bytes get past both checks and
/// reach the payload parser and decoders.
fn headed(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{{\"type\":\"perfpredict-model\",\"format_version\":1,\"kind\":\"{kind}\",\
         \"payload_bytes\":{},\"checksum\":\"fnv1a64:{:016x}\"}}\n",
        payload.len(),
        fnv1a64(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// The table the splice tests train on, and predict through whatever
/// artifact a splice still decodes to.
fn splice_table() -> Table {
    let n = 32;
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
    let mut t = Table::new();
    t.add_numeric("x", xs)
        .add_flag("f", (0..n).map(|i| i % 2 == 0).collect())
        .add_categorical(
            "c",
            (0..n).map(|i| (i % 3) as u32).collect(),
            vec!["a".into(), "b".into(), "z".into()],
        )
        .set_target(y);
    t
}

/// A valid artifact's payload line for `kind`, trained on [`splice_table`].
fn valid_payload(kind: ModelKind) -> Vec<u8> {
    let t = splice_table();
    let model = try_train(kind, &t, 7).expect("trains");
    let bytes = ModelArtifact::from_training(model, &t)
        .to_bytes()
        .expect("serialize");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    bytes[header_end..bytes.len() - 1].to_vec()
}

/// JSON pieces that glue into malformed, mistyped or misshapen payloads:
/// structure, numbers of every awkward kind, the payload's own keys and
/// kinds, escapes, multi-byte characters and line breaks.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u0000",
    "0",
    "1",
    "2",
    "3",
    "7",
    "64",
    "-1",
    "-0",
    "2.5e3",
    "1e999",
    "-1e999",
    "1e-400",
    "18446744073709551616",
    "null",
    "true",
    "false",
    "\"\"",
    "\"kind\"",
    "\"LR-B\"",
    "\"NN-Q\"",
    "\"schema\"",
    "\"columns\"",
    "\"prep\"",
    "\"estimator\"",
    "\"layers\"",
    "\"weights\"",
    "\"bias\"",
    "\u{e9}",
    "\u{1F980}",
    " ",
    "\n",
    "\r\n",
    "\0",
];

/// `from_bytes` on an artifact must be `Ok` or a typed `artifact` error;
/// a decoded artifact must predict or fail typed too.
fn loads_or_fails_typed(bytes: &[u8]) {
    match ModelArtifact::from_bytes("<soup>", bytes) {
        Ok(artifact) => {
            for result in [
                artifact.model.try_predict(&splice_table()).map(drop),
                artifact.to_bytes().map(drop),
            ] {
                if let Err(e) = result {
                    assert!(
                        ["artifact", "invalid", "degenerate"].contains(&e.kind()),
                        "{e}"
                    );
                }
            }
        }
        Err(e) => {
            assert_eq!(e.kind(), "artifact", "{e}");
            assert_eq!(e.exit_code(), 4, "{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes behind a valid header reach `from_bytes`'s UTF-8 and
    /// JSON checks and stop there with a typed error.
    #[test]
    fn byte_soup_payloads_are_typed_errors(bytes in prop::collection::vec(0u16..256, 0..256)) {
        let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        loads_or_fails_typed(&headed("LR-B", &payload));
    }

    /// Token soup behind a valid header: mostly JSON, rarely well formed.
    #[test]
    fn token_soup_payloads_are_typed_errors(
        toks in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..64),
        kind in prop::sample::select(vec!["LR-B", "NN-Q"]),
    ) {
        loads_or_fails_typed(&headed(kind, toks.concat().as_bytes()));
    }

    /// A valid payload with one span replaced by tokens, re-headed so the
    /// checksum holds: the decoders behind the JSON parser meet wrong
    /// types, counts and shapes in every field. Half the cases replace
    /// one number with another JSON value, which keeps the payload well
    /// formed and so reaches the decoders every time.
    #[test]
    fn spliced_payloads_are_typed_errors(
        kind in prop::sample::select(vec![ModelKind::LrB, ModelKind::NnQ]),
        at in 0.0f64..1.0,
        cut in 0usize..12,
        toks in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..4),
        swap_number in any::<bool>(),
        value in prop::sample::select(VALUES.to_vec()),
    ) {
        static PAYLOADS: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
        let payloads = PAYLOADS
            .get_or_init(|| [valid_payload(ModelKind::LrB), valid_payload(ModelKind::NnQ)]);
        let payload = &payloads[usize::from(kind == ModelKind::NnQ)];
        let (start, end, with) = if swap_number {
            let numbers = number_spans(payload);
            let (s, e) = numbers[(numbers.len() as f64 * at) as usize];
            (s, e, value.to_string())
        } else {
            let s = (payload.len() as f64 * at) as usize;
            (s, (s + cut).min(payload.len()), toks.concat())
        };
        let mut spliced = payload[..start].to_vec();
        spliced.extend_from_slice(with.as_bytes());
        spliced.extend_from_slice(&payload[end..]);
        loads_or_fails_typed(&headed(kind.abbrev(), &spliced));
    }
}

/// JSON values a number in a payload is swapped for: other magnitudes,
/// signs and precisions, and values of every other type.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "64",
    "-1",
    "-0",
    "0.5",
    "1e308",
    "1e999",
    "18446744073709551616",
    "null",
    "true",
    "\"x\"",
    "[]",
    "[0]",
    "{}",
];

/// The byte spans of the numbers in a JSON text: runs of number
/// characters that start a value (after `:`, `,` or `[`).
fn number_spans(json: &[u8]) -> Vec<(usize, usize)> {
    let is_num = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
    let mut spans = Vec::new();
    let mut i = 1;
    while i < json.len() {
        if is_num(json[i]) && b":,[".contains(&json[i - 1]) {
            let end = (i..json.len())
                .find(|&j| !is_num(json[j]))
                .unwrap_or(json.len());
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}
