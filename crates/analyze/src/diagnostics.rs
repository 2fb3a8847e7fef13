//! Diagnostics: the finding record, its `file:line:col` + excerpt
//! rendering, the JSONL rendering (same line shape as the telemetry
//! run manifest: one object per line with a `"type"` discriminator),
//! and the FNV-1a content hash that pins waivers to source text.

use crate::source::SourceFile;
use telemetry::json::JsonObject;

/// One lint finding, fully resolved to a source location.
#[derive(Debug)]
pub struct Diagnostic {
    /// Lint name (`panic-policy`, `lossy-cast`, …).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the finding's anchor token.
    pub line: usize,
    /// 1-based byte column of the anchor token.
    pub col: usize,
    /// Byte length of the flagged snippet on its line (for the caret).
    pub len: usize,
    /// Human-readable description of the violation and the fix.
    pub message: String,
    /// The source line the finding sits on (untrimmed).
    pub excerpt: String,
    /// FNV-1a hash of `lint:trimmed-line` — what a waiver must match.
    pub hash: String,
}

impl Diagnostic {
    /// Build a diagnostic anchored at byte span `[start, start+len)`.
    pub fn new(
        lint: &'static str,
        file: &SourceFile,
        start: usize,
        len: usize,
        message: String,
    ) -> Diagnostic {
        let (line, col) = file.line_col(start);
        let excerpt = file.line_text(line).to_string();
        let hash = content_hash(lint, &excerpt);
        Diagnostic {
            lint,
            path: file.path.clone(),
            line,
            col,
            len: len.max(1),
            message,
            excerpt,
            hash,
        }
    }

    /// Build a diagnostic from already-resolved parts — the path the
    /// cross-file passes use, where the original `SourceFile` is not in
    /// memory. The content hash is recomputed from `lint` + `excerpt`,
    /// so a cross-file finding pins waivers exactly like a per-file one.
    pub(crate) fn from_parts(
        lint: &'static str,
        path: String,
        line: usize,
        col: usize,
        len: usize,
        message: String,
        excerpt: String,
    ) -> Diagnostic {
        let hash = content_hash(lint, &excerpt);
        Diagnostic {
            lint,
            path,
            line,
            col,
            len: len.max(1),
            message,
            excerpt,
            hash,
        }
    }

    /// `rustc`-style text rendering:
    ///
    /// ```text
    /// crates/x/src/y.rs:12:9: [panic-policy] `.unwrap()` in library code
    ///    12 |     let v = m.get(&k).unwrap();
    ///       |                       ^^^^^^^
    /// ```
    pub fn render_text(&self) -> String {
        let gutter = format!("{:>5}", self.line);
        let caret_pad = " ".repeat(self.col.saturating_sub(1));
        let carets = "^".repeat(self.len.min(self.excerpt.len().max(1)));
        format!(
            "{}:{}:{}: [{}] {}\n{gutter} | {}\n      | {caret_pad}{carets}",
            self.path, self.line, self.col, self.lint, self.message, self.excerpt
        )
    }

    /// One JSONL line, shaped like a telemetry manifest record.
    pub fn render_json(&self) -> String {
        self.json_object().finish()
    }

    /// Like [`render_json`](Self::render_json) with a trailing
    /// `"waived":true` marker — used by `--show-waived` so waiver
    /// audits can read suppressed findings without parsing
    /// `analyze.toml`. Unwaived findings keep the unmarked shape, so
    /// default output stays byte-identical.
    pub fn render_json_waived(&self) -> String {
        self.json_object().bool("waived", true).finish()
    }

    fn json_object(&self) -> JsonObject {
        JsonObject::new()
            .str("type", "diagnostic")
            .str("lint", self.lint)
            .str("path", &self.path)
            .usize("line", self.line)
            .usize("col", self.col)
            .str("message", &self.message)
            .str("excerpt", &self.excerpt)
            .str("hash", &self.hash)
    }
}

/// FNV-1a 64-bit over `lint:trimmed-line-text`, rendered as 16 hex
/// digits. Trimming makes the hash survive re-indentation but not any
/// change to the code itself, which is exactly the staleness contract
/// `analyze.toml` waivers need: move the line, keep the waiver; edit
/// the line, re-justify it.
pub fn content_hash(lint: &str, line_text: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in lint.bytes().chain([b':']).chain(line_text.trim().bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> SourceFile {
        SourceFile::new(
            "crates/x/src/y.rs".into(),
            "fn f() {\n    let v = m.get(&k).unwrap();\n}\n".into(),
        )
    }

    #[test]
    fn text_rendering_pins_location_and_caret() {
        let f = file();
        let start = f.text.find(".unwrap").expect("fixture has .unwrap");
        let d = Diagnostic::new(
            "panic-policy",
            &f,
            start,
            9,
            "`.unwrap()` in library code".into(),
        );
        let text = d.render_text();
        assert!(
            text.starts_with("crates/x/src/y.rs:2:22: [panic-policy]"),
            "{text}"
        );
        assert!(
            text.contains("    2 |     let v = m.get(&k).unwrap();"),
            "{text}"
        );
        assert!(text.contains("^^^^^^^^^"), "{text}");
    }

    #[test]
    fn json_rendering_is_manifest_shaped() {
        let f = file();
        let d = Diagnostic::new("panic-policy", &f, 21, 7, "msg".into());
        let v = telemetry::json::parse(&d.render_json()).expect("diagnostic JSON parses");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("diagnostic"));
        assert_eq!(v.get("lint").and_then(|t| t.as_str()), Some("panic-policy"));
        assert_eq!(v.get("line").and_then(|t| t.as_f64()), Some(2.0));
        assert!(v.get("hash").and_then(|t| t.as_str()).is_some());
    }

    #[test]
    fn hash_survives_reindent_but_not_edit() {
        let a = content_hash("lossy-cast", "    let k = n as u32;");
        let b = content_hash("lossy-cast", "let k = n as u32;");
        let c = content_hash("lossy-cast", "let k = m as u32;");
        let d = content_hash("panic-policy", "let k = n as u32;");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
