//! Append-only JSONL checkpoint files with truncation-tolerant resume.
//!
//! A checkpoint is a sequence of newline-terminated JSON objects. The
//! first line is a `header` record identifying the run (benchmark,
//! design-space size, instruction budget, seed); every subsequent line
//! records one completed unit of work — a simulated configuration
//! (`"type":"sim"`) or a fitted model (`"type":"fit"`). Writers append
//! one line per completed unit and flush immediately, so the file is
//! valid after every unit and loses at most the line being written when
//! the process dies.
//!
//! That failure mode — a partial final line — is expected and tolerated:
//! [`load_records`] drops an unparseable *final* line silently, while a
//! malformed line anywhere earlier means real corruption and yields
//! [`Error::Checkpoint`](crate::Error::Checkpoint).

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::sync::Mutex;

use telemetry::json::{self, Value};

use crate::{Error, Result};

/// Serialized writer appending JSON lines to a checkpoint file.
///
/// Clones of the underlying handle are not taken; concurrent producers
/// (`par_map` workers) share one writer behind its internal mutex, and each
/// append is written and flushed atomically with respect to the others.
pub struct CheckpointWriter {
    path: String,
    file: Mutex<File>,
}

impl CheckpointWriter {
    /// Open `path` for appending, creating it if absent.
    ///
    /// If the existing file ends in a partial line (an interrupted final
    /// write), it is truncated back to the last complete line first —
    /// otherwise the next append would concatenate onto the fragment and
    /// turn a tolerated truncation into mid-file corruption.
    pub fn append(path: &str) -> Result<CheckpointWriter> {
        trim_partial_tail(path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::io(path, e))?;
        Ok(CheckpointWriter {
            path: path.to_string(),
            file: Mutex::new(file),
        })
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Append one record (a rendered JSON object, no trailing newline)
    /// and flush so the line survives an immediate kill.
    pub fn append_record(&self, json_line: &str) -> Result<()> {
        debug_assert!(
            !json_line.contains('\n'),
            "checkpoint records must be single-line JSON"
        );
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut buf = Vec::with_capacity(json_line.len() + 1);
        buf.extend_from_slice(json_line.as_bytes());
        buf.push(b'\n');
        file.write_all(&buf).map_err(|e| Error::io(&self.path, e))?;
        file.flush().map_err(|e| Error::io(&self.path, e))?;
        Ok(())
    }
}

/// Truncate `path` back to its last newline if it ends mid-line; a
/// missing file is fine. Returns the number of bytes discarded.
fn trim_partial_tail(path: &str) -> Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(Error::io(path, e)),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(0);
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let dropped = (bytes.len() - keep) as u64;
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| Error::io(path, e))?;
    file.set_len(keep as u64).map_err(|e| Error::io(path, e))?;
    telemetry::point!("checkpoint/trimmed_tail", bytes = dropped);
    Ok(dropped)
}

/// Parsed records from a checkpoint file, in file order.
///
/// * Missing file → `Ok(vec![])` — a fresh run.
/// * Unparseable **final** line → dropped (interrupted write), with a
///   telemetry point recording the loss.
/// * Unparseable earlier line, or a non-object record → `Err(Checkpoint)`.
pub fn load_records(path: &str) -> Result<Vec<Value>> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut text)
                .map_err(|e| Error::io(path, e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(Error::io(path, e)),
    }
    parse_records(path, &text)
}

/// [`load_records`] on in-memory text; split out for direct testing.
pub fn parse_records(path: &str, text: &str) -> Result<Vec<Value>> {
    // A well-formed file ends in '\n'; anything after the last newline is
    // by construction an interrupted final write.
    let (complete, tail) = match text.rfind('\n') {
        Some(i) => (&text[..=i], &text[i + 1..]),
        None => ("", text),
    };
    if !tail.trim().is_empty() {
        telemetry::point!("checkpoint/truncated_tail", bytes = tail.len());
    }
    let mut records = Vec::new();
    let lines: Vec<&str> = complete.lines().filter(|l| !l.trim().is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        match json::parse(line) {
            Ok(v @ Value::Obj(_)) => records.push(v),
            Ok(_) => {
                return Err(Error::checkpoint(
                    path,
                    format!("record {} is not a JSON object", i + 1),
                ));
            }
            Err(reason) => {
                // A malformed line is only forgivable if it is the last
                // *newline-terminated* line AND nothing follows it — i.e.
                // the process died between write and flush boundaries.
                if i + 1 == lines.len() && tail.trim().is_empty() {
                    telemetry::point!("checkpoint/truncated_tail", bytes = line.len());
                    break;
                }
                return Err(Error::checkpoint(
                    path,
                    format!("corrupt record {}: {reason}", i + 1),
                ));
            }
        }
    }
    Ok(records)
}

/// Read the string field `key` from a record, or a `Checkpoint` error
/// naming the field.
pub fn str_field<'a>(path: &str, record: &'a Value, key: &str) -> Result<&'a str> {
    record
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| Error::checkpoint(path, format!("record missing string field '{key}'")))
}

/// Read the u64 field `key` from a record, or a `Checkpoint` error.
pub fn u64_field(path: &str, record: &Value, key: &str) -> Result<u64> {
    record
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::checkpoint(path, format!("record missing integer field '{key}'")))
}

/// Read the f64 field `key` from a record, or a `Checkpoint` error.
pub fn f64_field(path: &str, record: &Value, key: &str) -> Result<f64> {
    record
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| Error::checkpoint(path, format!("record missing numeric field '{key}'")))
}

/// Verify that a header record's fields match the current run; any
/// mismatch is a `Checkpoint` error naming the divergent field.
///
/// `expected` pairs are `(field, value-as-string)`; numeric fields are
/// compared after rendering the stored value with `Display`.
pub fn check_header(path: &str, header: &Value, expected: &[(&str, String)]) -> Result<()> {
    if str_field(path, header, "type")? != "header" {
        return Err(Error::checkpoint(path, "first record is not a header"));
    }
    for (field, want) in expected {
        let got = match header.get(field) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(x)) => json::number(*x),
            Some(other) => format!("{other:?}"),
            None => {
                return Err(Error::checkpoint(
                    path,
                    format!("header missing field '{field}'"),
                ));
            }
        };
        if got != *want {
            return Err(Error::checkpoint(
                path,
                format!("header mismatch on '{field}': checkpoint has {got}, run has {want}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::JsonObject;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("perfpredict-fault-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn header_line() -> String {
        JsonObject::new()
            .str("type", "header")
            .str("benchmark", "gcc")
            .uint("space", 4608)
            .finish()
    }

    #[test]
    fn missing_file_is_empty() {
        let recs = load_records(&tmp("does-not-exist.jsonl")).expect("ok");
        assert!(recs.is_empty());
    }

    #[test]
    fn append_and_reload_round_trip() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = CheckpointWriter::append(&path).expect("open");
        w.append_record(&header_line()).expect("header");
        for i in 0..5u64 {
            let line = JsonObject::new()
                .str("type", "sim")
                .uint("idx", i)
                .num("cycles", 1000.0 + i as f64)
                .finish();
            w.append_record(&line).expect("record");
        }
        let recs = load_records(&path).expect("load");
        assert_eq!(recs.len(), 6);
        assert_eq!(str_field(&path, &recs[0], "type").expect("type"), "header");
        assert_eq!(u64_field(&path, &recs[3], "idx").expect("idx"), 2);
        assert_eq!(
            f64_field(&path, &recs[5], "cycles").expect("cycles"),
            1004.0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_dropped() {
        let path = tmp("truncated.jsonl");
        let full = format!(
            "{}\n{}\n",
            header_line(),
            JsonObject::new().str("type", "sim").uint("idx", 0).finish()
        );
        // Truncate at every byte offset: we must never error, and must
        // never recover more records than were completely written.
        for cut in 0..=full.len() {
            let part = &full[..cut];
            let recs = parse_records(&path, part).expect("tolerates truncation");
            let complete_lines = part.matches('\n').count();
            assert!(
                recs.len() <= complete_lines,
                "cut={cut}: {} records from {complete_lines} complete lines",
                recs.len()
            );
            for r in &recs {
                assert!(r.get("type").is_some(), "cut={cut}: partial record leaked");
            }
        }
    }

    #[test]
    fn appending_after_partial_tail_stays_parseable() {
        let path = tmp("partial-tail.jsonl");
        let _ = std::fs::remove_file(&path);
        let sim = JsonObject::new().str("type", "sim").uint("idx", 0).finish();
        std::fs::write(
            &path,
            format!("{}\n{}\n{}", header_line(), sim, &sim[..sim.len() / 2]),
        )
        .expect("write");
        let w = CheckpointWriter::append(&path).expect("open");
        w.append_record(&JsonObject::new().str("type", "sim").uint("idx", 1).finish())
            .expect("append");
        let recs = load_records(&path).expect("load");
        assert_eq!(recs.len(), 3, "partial tail must be trimmed, not merged");
        assert_eq!(u64_field(&path, &recs[2], "idx").expect("idx"), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_before_final_line_errors() {
        let text = format!("{}\nnot json at all\n{}\n", header_line(), header_line());
        match parse_records("p", &text) {
            Err(Error::Checkpoint { .. }) => {}
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn header_mismatch_is_detected() {
        let recs = parse_records("p", &format!("{}\n", header_line())).expect("parse");
        check_header("p", &recs[0], &[("benchmark", "gcc".to_string())]).expect("match");
        let err =
            check_header("p", &recs[0], &[("benchmark", "mcf".to_string())]).expect_err("mismatch");
        assert!(err.to_string().contains("benchmark"), "{err}");
        let err = check_header("p", &recs[0], &[("seed", "42".to_string())]).expect_err("missing");
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn non_object_record_errors() {
        let text = format!("{}\n[1,2,3]\n{}\n", header_line(), header_line());
        assert!(parse_records("p", &text).is_err());
    }
}
