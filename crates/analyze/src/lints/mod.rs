//! The lint registry and the per-file context passes run against.
//!
//! Each pass is a plain function over [`FileCx`]: the lexed token
//! stream (trivia already filtered out, spans preserved), the test
//! regions to skip, and the source file for spans/excerpts. Passes
//! append [`Diagnostic`]s; waiver matching happens later in the
//! driver, so passes stay pure detectors.
//!
//! To add a pass: write `fn check(cx: &FileCx, out: &mut Vec<Diagnostic>)`
//! in a new module, give it a kebab-case name, and append it to
//! [`LINTS`]. The fixture corpus (`tests/fixtures/<name>/`) and
//! golden test pick it up by name.

pub mod bare_assert;
pub mod error_policy;
pub mod float_order;
pub mod lossy_cast;
pub mod nondet_iter;
pub mod panic_policy;
pub mod unsafe_region;

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::regions::TestRegions;
use crate::source::SourceFile;

/// A lint pass: inspects one file, appends findings.
pub type LintFn = fn(&FileCx<'_>, &mut Vec<Diagnostic>);

/// Every per-file pass the analyzer runs, in reporting order.
pub const LINTS: &[(&str, LintFn)] = &[
    ("panic-policy", panic_policy::check),
    ("bare-assert", bare_assert::check),
    ("float-order", float_order::check),
    ("nondet-iter", nondet_iter::check),
    ("lossy-cast", lossy_cast::check),
    ("error-policy", error_policy::check),
    ("unsafe-region", unsafe_region::check),
];

/// The workspace-level passes (`analyze::index`): they run once over
/// the cross-file fact index, not per file, but share the same waiver
/// machinery and count toward the full lint set in `--list-lints`.
pub const WORKSPACE_PASSES: &[&str] = &["dead-pub-api", "env-registry", "nondet-source"];

/// Everything a pass needs to inspect one file.
pub struct FileCx<'a> {
    /// The file (path, text, line index).
    pub file: &'a SourceFile,
    /// Code tokens only — trivia (whitespace/comments) removed, so
    /// `code[i + 1]` is the next *meaningful* token. Spans still index
    /// the original text.
    pub code: Vec<Token>,
    /// Test-gated byte ranges; findings inside them are suppressed.
    pub regions: TestRegions,
    /// True for a crate's `src/main.rs` (binary entry point), where
    /// `error-policy` permits `std::process::exit`.
    pub is_main: bool,
}

impl<'a> FileCx<'a> {
    /// Build the context for one file from its full token stream.
    pub fn new(file: &'a SourceFile, tokens: &[Token], is_main: bool) -> FileCx<'a> {
        let regions = crate::regions::test_regions(&file.text, tokens);
        let code = tokens.iter().filter(|t| !t.is_trivia()).copied().collect();
        FileCx {
            file,
            code,
            regions,
            is_main,
        }
    }

    /// Text of code token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.code[i].text(&self.file.text)
    }

    /// Kind of code token `i`.
    pub fn kind(&self, i: usize) -> TokenKind {
        self.code[i].kind
    }

    /// True if code token `i` lies in a test-gated region.
    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.regions.contains(self.code[i].start)
    }

    /// Does token `i` exist and carry exactly this text?
    pub(crate) fn is(&self, i: usize, text: &str) -> bool {
        i < self.code.len() && self.text(i) == text
    }

    /// Emit a diagnostic anchored on code tokens `[from, to]`.
    pub fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        lint: &'static str,
        from: usize,
        to: usize,
        message: String,
    ) {
        let start = self.code[from].start;
        let end = self.code[to.min(self.code.len() - 1)].end;
        out.push(Diagnostic::new(
            lint,
            self.file,
            start,
            end.saturating_sub(start),
            message,
        ));
    }

    /// Index of the delimiter matching the opener at `open_idx`
    /// (`(`/`)`, `[`/`]`, `{`/`}`), or `None` if unbalanced. Only the
    /// opener's own delimiter class is counted, so `(a[0])` from the
    /// `(` matches the final `)`.
    pub(crate) fn matching_close(&self, open_idx: usize) -> Option<usize> {
        let (open, close) = match self.text(open_idx) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0usize;
        for i in open_idx..self.code.len() {
            let t = self.text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Index of the statement-terminating `;` at delimiter depth 0,
    /// scanning forward from `from` (exclusive of nested bodies), or
    /// the last token if none is found. A `{` at depth 0 also ends the
    /// statement scan (block expression / loop body boundary).
    pub(crate) fn statement_end(&self, from: usize) -> usize {
        let (mut p, mut b, mut c) = (0i32, 0i32, 0i32);
        for i in from..self.code.len() {
            match self.text(i) {
                "(" => p += 1,
                ")" => p -= 1,
                "[" => b += 1,
                "]" => b -= 1,
                "{" => c += 1,
                "}" => c -= 1,
                ";" if p <= 0 && b <= 0 && c <= 0 => return i,
                _ => {}
            }
            if c < 0 || p < 0 || b < 0 {
                return i;
            }
        }
        self.code.len().saturating_sub(1)
    }
}

/// Is this identifier one of Rust's primitive numeric types that an
/// `as` cast can target?
pub(crate) fn numeric_type(text: &str) -> bool {
    matches!(
        text,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
    )
}
