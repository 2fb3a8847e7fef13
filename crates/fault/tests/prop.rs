//! Property-based tests for the checkpoint layer.

use fault::checkpoint::{parse_records, CheckpointWriter};
use proptest::prelude::*;
use telemetry::json::{JsonObject, Value};

fn render_file(n_records: usize) -> String {
    let mut text = format!(
        "{}\n",
        JsonObject::new()
            .str("type", "header")
            .str("benchmark", "gcc")
            .uint("space", 4608)
            .finish()
    );
    for i in 0..n_records {
        text.push_str(&format!(
            "{}\n",
            JsonObject::new()
                .str("type", "sim")
                .uint("idx", i as u64)
                .num("cycles", 1000.0 + i as f64)
                .finish()
        ));
    }
    text
}

proptest! {
    /// Cutting a checkpoint at ANY byte offset — mid-record, mid-number,
    /// mid-escape — must parse without error and never recover more
    /// records than were completely written, nor invent field values.
    #[test]
    fn truncation_at_any_offset_is_tolerated(
        n_records in 0usize..8,
        cut_frac in 0.0f64..1.001,
    ) {
        let full = render_file(n_records);
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let cut = cut.min(full.len());
        let part = &full[..cut];
        let recs = parse_records("p", part).expect("truncation is never an error");
        let complete_lines = part.matches('\n').count();
        prop_assert!(recs.len() <= complete_lines);
        for (i, r) in recs.iter().enumerate().skip(1) {
            prop_assert_eq!(r.get("type").and_then(|v| v.as_str()), Some("sim"));
            prop_assert_eq!(r.get("idx").and_then(|v| v.as_u64()), Some(i as u64 - 1));
        }
    }

    /// Writer/reader round-trip: whatever we append comes back verbatim,
    /// in order, and re-opening for append preserves earlier records.
    #[test]
    fn append_then_load_round_trips(idxs in prop::collection::vec(0u64..1000, 0..12)) {
        let dir = std::env::temp_dir().join("perfpredict-fault-prop");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir
            .join(format!("roundtrip-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        // Two writer sessions: records must accumulate across reopens.
        for half in [&idxs[..idxs.len() / 2], &idxs[idxs.len() / 2..]] {
            let w = CheckpointWriter::append(&path).expect("open");
            for &i in half {
                w.append_record(
                    &JsonObject::new().str("type", "sim").uint("idx", i).finish(),
                )
                .expect("append");
            }
        }
        let recs = fault::checkpoint::load_records(&path).expect("load");
        prop_assert_eq!(recs.len(), idxs.len());
        for (r, &want) in recs.iter().zip(&idxs) {
            prop_assert_eq!(r.get("idx").and_then(|v| v.as_u64()), Some(want));
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Pieces of ledger lines: whole records, JSON fragments that glue into
/// malformed or non-object lines, awkward numbers, escapes, multi-byte
/// characters and every kind of line break.
const FRAGMENTS: &[&str] = &[
    "{\"type\":\"header\",\"benchmark\":\"gcc\",\"space\":4608}",
    "{\"type\":\"sim\",\"idx\":3,\"cycles\":1000.5}",
    "{\"type\":\"fit\"}",
    "{",
    "}",
    "[",
    "]",
    "\"type\"",
    "\"sim\"",
    ":",
    ",",
    "\"",
    "\\",
    "\\u12",
    "1e999",
    "-0",
    "18446744073709551616",
    "null",
    "true",
    "[1,2]",
    " ",
    "\t",
    "\r",
    "\u{e9}",
    "\u{1F980}",
    "\u{fffd}",
    "\0",
];

/// `parse_records` must return only JSON objects or a typed
/// `checkpoint` error (exit 4), whatever the text.
fn records_or_checkpoint_error(text: &str) {
    match parse_records("soup", text) {
        Ok(recs) => {
            for r in &recs {
                assert!(
                    matches!(r, Value::Obj(_)),
                    "non-object record {r:?} from {text:?}"
                );
            }
        }
        Err(e) => {
            assert_eq!(e.kind(), "checkpoint", "{e}");
            assert_eq!(e.exit_code(), 4, "{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, decoded the lossy way, with newlines common enough
    /// to cut them into many lines.
    #[test]
    fn byte_soup_is_records_or_a_checkpoint_error(
        bytes in prop::collection::vec(0u16..300, 0..256),
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| if b >= 256 { b'\n' } else { b as u8 }).collect();
        records_or_checkpoint_error(&String::from_utf8_lossy(&bytes));
    }

    /// Random lines of fragments, with or without a final newline.
    #[test]
    fn line_soup_is_records_or_a_checkpoint_error(
        lines in prop::collection::vec(
            prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..6),
            0..12,
        ),
        terminated in any::<bool>(),
    ) {
        let mut text = lines.iter().map(|l| l.concat()).collect::<Vec<_>>().join("\n");
        if terminated {
            text.push('\n');
        }
        records_or_checkpoint_error(&text);
    }
}
