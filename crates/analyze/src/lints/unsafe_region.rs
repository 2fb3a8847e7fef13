//! `unsafe-region` — every `unsafe` region is a reviewed, waived site.
//!
//! The analyzed workspace code has no `unsafe` site; this pass keeps a
//! new one from landing unreviewed. It flags **every** `unsafe` token
//! in non-test code — there is no way to write an unflagged `unsafe` —
//! so each accepted site must carry an `analyze.toml` waiver with a
//! per-site safety argument, and the content hash makes the waiver go
//! stale the moment the region's first line changes.
//!
//! The message distinguishes two cases so review effort lands where it
//! matters:
//!
//! * the region has a `// SAFETY:` comment on the same or the nearest
//!   preceding comment line — the finding asks for a waiver pinning the
//!   argument;
//! * it does not — the finding demands the comment first. A waiver for
//!   an uncommented site would pin a justification the code itself
//!   does not carry, so the message says to write the comment, not the
//!   waiver.

use super::FileCx;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;

/// True when `line` (1-based) or the run of `//` comment lines directly
/// above it carries a `SAFETY:` marker.
fn has_safety_comment(cx: &FileCx<'_>, line: usize) -> bool {
    // Same line, anywhere before or after the keyword (e.g. a trailing
    // `// SAFETY: ...` on the unsafe line itself).
    if cx.file.line_text(line).contains("SAFETY:") {
        return true;
    }
    // Walk the contiguous block of `//` comment (or attribute) lines
    // directly above; blank line or code ends the search.
    let mut l = line;
    while l > 1 {
        l -= 1;
        let text = cx.file.line_text(l).trim();
        if text.starts_with("//") {
            if text.contains("SAFETY:") {
                return true;
            }
        } else if text.starts_with("#[") || text.starts_with("#!") {
            // Attributes sit between the comment and the item.
            continue;
        } else {
            return false;
        }
    }
    false
}

pub fn check(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..cx.code.len() {
        if cx.in_test(i) || cx.kind(i) != TokenKind::Ident || cx.text(i) != "unsafe" {
            continue;
        }
        let (line, _) = cx.file.line_col(cx.code[i].start);
        let message = if has_safety_comment(cx, line) {
            "`unsafe` region — argue the safety contract in an analyze.toml waiver \
             (the // SAFETY: comment is the argument; the waiver pins it to this line)"
                .to_string()
        } else {
            "`unsafe` region without a // SAFETY: comment — document why every \
             invariant the compiler stops checking here still holds"
                .to_string()
        };
        cx.emit(out, "unsafe-region", i, i, message);
    }
}
