//! `analyze` — perfpredict's workspace-native static-analysis engine.
//!
//! The workspace holds three hard invariants: no panicking escape
//! hatches in library code (everything fallible returns the typed
//! `fault::Error`), deterministic numerics (total float orderings,
//! byte-identical serve output for any worker count), and no silent
//! narrowing casts. This crate is what *enforces* them: a real lexer
//! ([`lexer`]: raw strings, nested block comments, char vs. lifetime
//! disambiguation, spans that exactly tile the input) plus
//! `#[cfg(test)]` region tracking ([`regions`]), and seven lint passes
//! over the token stream ([`lints`]):
//!
//! | lint | invariant |
//! |---|---|
//! | `panic-policy` | no `unwrap`/`panic!`/`todo!`/`unimplemented!`/undocumented `expect` in library code |
//! | `bare-assert` | library asserts name the violated invariant (multi-line aware) |
//! | `float-order` | `total_cmp`, never `partial_cmp`, on floats |
//! | `nondet-iter` | hash-map iteration order never reaches output or accumulation |
//! | `lossy-cast` | truncating `as` casts are typed away or argued safe |
//! | `error-policy` | exits only in `src/main.rs`; public fallible fns return `fault::Error` |
//! | `unsafe-region` | every `unsafe` region carries a `// SAFETY:` comment and a per-site waiver |
//!
//! Findings render as `file:line:col` diagnostics with a source excerpt,
//! or as JSONL (`--format json`) in the telemetry-manifest line shape.
//! Deliberate exceptions live in `analyze.toml` ([`waiver`]): each entry
//! carries a one-line justification and the flagged line's content hash,
//! so a waiver goes stale — and fails the run — the moment the code
//! under it changes. The analyzer is self-hosting: CI runs it over this
//! workspace (including this crate) with zero unwaived findings.

pub mod diagnostics;
pub mod index;
pub mod lexer;
pub mod lints;
pub mod regions;
pub mod source;
pub mod syntax;
pub mod waiver;
mod walk;

use diagnostics::Diagnostic;
use fault::{Error, Result};
use index::FileRole;
use lexer::Token;
use lints::{FileCx, LINTS};
use source::SourceFile;
use std::path::{Path, PathBuf};
use waiver::{Config, Waiver};

/// Outcome of analyzing a set of files.
pub struct Report {
    /// Unwaived findings plus stale-waiver diagnostics, sorted by
    /// (path, line, col, lint); stale-waiver entries follow.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by a valid waiver (count; `--show-waived`
    /// renders [`waived_diagnostics`](Self::waived_diagnostics)).
    pub waived: usize,
    /// The suppressed findings themselves, same sort order.
    pub waived_diagnostics: Vec<Diagnostic>,
    /// Files scanned (lintable files; reference files not included).
    pub files: usize,
}

impl Report {
    /// True when nothing is wrong: no findings, no stale waivers.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Run every lint pass over one in-memory file. The building block for
/// both the driver and the fixture tests.
pub fn analyze_source(file: &SourceFile, is_main: bool) -> Vec<Diagnostic> {
    lint_tokens(file, &lexer::lex(&file.text), is_main)
}

/// The per-file pass loop: every lint over one lexed file, findings in
/// (line, col) order.
fn lint_tokens(file: &SourceFile, tokens: &[Token], is_main: bool) -> Vec<Diagnostic> {
    let cx = FileCx::new(file, tokens, is_main);
    let mut out = Vec::new();
    for (_, pass) in LINTS {
        pass(&cx, &mut out);
    }
    out.sort_by_key(|d| (d.line, d.col));
    out
}

/// Analyze `files` (paths under `root`), applying `waivers`. Explicit
/// file lists run the seven per-file passes only — the three workspace
/// passes need the whole file set and run in [`analyze_workspace`].
///
/// Waiver semantics: a waiver matches every finding with the same
/// `(lint, path, line)` whose content hash agrees. A hash mismatch or
/// a waiver matching no finding is *stale* and produces a
/// `stale-waiver` diagnostic — both directions fail, so waivers track
/// the code they excuse or die.
pub fn analyze_files(root: &Path, files: &[PathBuf], waivers: &[Waiver]) -> Result<Report> {
    let mut findings = Vec::new();
    for path in files {
        let file = read_source(root, path)?;
        let is_main = index::role_of(&file.path) == FileRole::Binary;
        findings.extend(analyze_source(&file, is_main));
    }
    let mut report = apply_waivers(findings, waivers);
    report.files = files.len();
    Ok(report)
}

/// The full workspace pipeline: discover the lint roots under `root`,
/// load `<root>/analyze.toml` if present, run the per-file lints and
/// fact extraction over the lintable set, fact-only extraction over
/// the reference set (tests/benches/examples), the three cross-file
/// passes, and waiver matching.
pub fn analyze_workspace(root: &Path) -> Result<Report> {
    let files = walk::workspace_files(root)?;
    let ref_files = walk::reference_files(root)?;
    let config = load_config(root)?;

    let mut findings = Vec::new();
    let mut facts = Vec::new();
    for path in files.iter().chain(ref_files.iter()) {
        let file = read_source(root, path)?;
        let role = index::role_of(&file.path);
        let tokens = lexer::lex(&file.text);
        // Reference files feed the index only; lint passes never see
        // them (harness code plays by looser rules).
        if role != FileRole::Reference {
            findings.extend(lint_tokens(&file, &tokens, role == FileRole::Binary));
        }
        facts.push(index::extract_facts(&file, &tokens, role));
    }

    findings.extend(index::check_workspace(&facts, &config.envs, "analyze.toml"));
    // One deterministic global order before waiver matching, so the
    // rendered output is byte-stable run over run.
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));

    let mut report = apply_waivers(findings, &config.waivers);
    report.files = files.len();
    Ok(report)
}

/// Load `<root>/analyze.toml` (waivers + `[[env]]` registry), or an
/// empty config when the file does not exist.
pub fn load_config(root: &Path) -> Result<Config> {
    let path = root.join("analyze.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| Error::io(path.display().to_string(), e))?;
    waiver::parse_config(&text, "analyze.toml")
}

/// Match `findings` against `waivers`: valid waivers suppress (but are
/// kept for `--show-waived`), hash mismatches and unmatched waivers
/// surface as `stale-waiver` diagnostics appended after the findings.
fn apply_waivers(findings: Vec<Diagnostic>, waivers: &[Waiver]) -> Report {
    let mut diagnostics = Vec::new();
    let mut waived_diagnostics = Vec::new();
    let mut used = vec![false; waivers.len()];
    for d in findings {
        match match_waiver(waivers, &d) {
            WaiverMatch::Valid(i) => {
                used[i] = true;
                waived_diagnostics.push(d);
            }
            WaiverMatch::Stale(i) => {
                used[i] = true; // stale, but reported as such below
                diagnostics.push(stale_waiver_diag(
                    &waivers[i],
                    format!(
                        "waiver hash {} no longer matches the code at {}:{} (now {}) — \
                         the line changed; re-justify or fix the finding",
                        waivers[i].hash, d.path, d.line, d.hash
                    ),
                ));
                diagnostics.push(d);
            }
            WaiverMatch::None => diagnostics.push(d),
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        if !used[i] {
            diagnostics.push(stale_waiver_diag(
                w,
                format!(
                    "waiver matches no finding ({} at {}:{}) — the code it excused moved or \
                     was fixed; delete the entry",
                    w.lint, w.path, w.line
                ),
            ));
        }
    }
    Report {
        diagnostics,
        waived: waived_diagnostics.len(),
        waived_diagnostics,
        files: 0,
    }
}

enum WaiverMatch {
    Valid(usize),
    Stale(usize),
    None,
}

fn match_waiver(waivers: &[Waiver], d: &Diagnostic) -> WaiverMatch {
    for (i, w) in waivers.iter().enumerate() {
        if w.lint == d.lint && w.path == d.path && w.line == d.line {
            return if w.hash == d.hash {
                WaiverMatch::Valid(i)
            } else {
                WaiverMatch::Stale(i)
            };
        }
    }
    WaiverMatch::None
}

fn stale_waiver_diag(w: &Waiver, message: String) -> Diagnostic {
    Diagnostic {
        lint: "stale-waiver",
        path: "analyze.toml".into(),
        line: w.defined_at,
        col: 1,
        len: 10, // the `[[waiver]]` header
        message,
        excerpt: "[[waiver]]".into(),
        hash: w.hash.clone(),
    }
}

/// Read `path` as a [`SourceFile`] named by its workspace-relative path.
fn read_source(root: &Path, path: &Path) -> Result<SourceFile> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(path.display().to_string(), e))?;
    Ok(SourceFile::new(relative_path(root, path), text))
}

/// Workspace-relative path with `/` separators.
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(text: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), text.into())
    }

    #[test]
    fn passes_compose_over_one_file() {
        let src = "\
pub fn f(m: &std::collections::HashMap<u32, f64>, n: usize) -> f64 {
    let k = n as u32;
    for (_, v) in m {
        assert!(*v > 0.0);
    }
    k as f64
}
";
        let out = analyze_source(&lib_file(src), false);
        let lints: Vec<&str> = out.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"lossy-cast"), "{lints:?}");
        assert!(lints.contains(&"nondet-iter"), "{lints:?}");
        assert!(lints.contains(&"bare-assert"), "{lints:?}");
    }

    #[test]
    fn waiver_matching_is_hash_pinned() {
        let src = "pub fn f(n: usize) -> u32 {\n    n as u32\n}\n";
        let file = lib_file(src);
        let d = &analyze_source(&file, false)[0];
        let good = Waiver {
            lint: "lossy-cast".into(),
            path: d.path.clone(),
            line: d.line,
            hash: d.hash.clone(),
            reason: "test".into(),
            defined_at: 1,
        };
        assert!(matches!(
            match_waiver(std::slice::from_ref(&good), d),
            WaiverMatch::Valid(0)
        ));
        let stale = Waiver {
            hash: "0000000000000000".into(),
            ..good
        };
        assert!(matches!(match_waiver(&[stale], d), WaiverMatch::Stale(0)));
    }
}
