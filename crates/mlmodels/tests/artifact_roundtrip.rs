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
