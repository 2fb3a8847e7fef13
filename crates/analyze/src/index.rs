//! Cross-crate symbol index and the workspace-level passes.
//!
//! The seven token-stream lints see one file at a time; the three
//! passes here need the whole workspace:
//!
//! * `dead-pub-api` — a `pub` item never referenced outside its
//!   defining crate (integration tests, benches, and examples count as
//!   outside consumers) is unowned API surface: demote it, delete it,
//!   or waive it as deliberately exported.
//! * `env-registry` — every `std::env::var("PERFPREDICT_*")` read must
//!   match a declared `[[env]]` entry in `analyze.toml` carrying a
//!   one-line doc string, and every declared entry must still be read
//!   somewhere. Undocumented runtime knobs (an ad-hoc `PERFPREDICT_*`
//!   oracle switch, say) get flagged at the read site; dead
//!   declarations get flagged at the declaration.
//! * `nondet-source` — wall-clock reads (`Instant::now`,
//!   `SystemTime::now`) and entropy-derived RNG seeding
//!   (`from_entropy`, `thread_rng`, `OsRng`) in library code are how
//!   nondeterminism reaches result-bearing paths (the PR 9 seed-stream
//!   bug class). Telemetry is the sanctioned consumer of wall-clock
//!   time, so `crates/telemetry` itself and statements that mention
//!   `telemetry` (the `telemetry::enabled().then(Instant::now)` gating
//!   idiom) are exempt, as are binary entry points (`src/main.rs`,
//!   `src/bin/*`), whose timing is operational, not result-bearing.
//!   Everything else needs a per-site waiver arguing the value never
//!   shapes an output (deadlines, latency accounting).
//!
//! Extraction is per-file and pure ([`extract_facts`] →
//! [`FileFacts`]); the passes ([`check_workspace`]) then run over
//! facts alone.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::lints::FileCx;
use crate::source::SourceFile;
use crate::syntax::{self, ItemKind, Vis};
use crate::waiver::EnvDecl;
use std::collections::{BTreeMap, BTreeSet};

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Lintable library source (`src/**` minus entry points).
    Library,
    /// A binary entry point (`src/main.rs`, `src/bin/*`): linted, but
    /// exempt from `error-policy` exits and `nondet-source`.
    Binary,
    /// Tests/benches/examples: never linted, but their identifier uses
    /// count as external references for `dead-pub-api`.
    Reference,
}

/// Classify a workspace-relative path into its [`FileRole`].
pub fn role_of(path: &str) -> FileRole {
    if path.ends_with("src/main.rs") || path.contains("src/bin/") {
        FileRole::Binary
    } else if path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
    {
        FileRole::Reference
    } else {
        FileRole::Library
    }
}

/// The crate a workspace-relative path belongs to: `crates/<name>/…`
/// (compat members keep their own names), everything else — root
/// `src/`, root `tests/`, `examples/` — is the root crate.
pub(crate) fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        let name = parts.next().unwrap_or("perfpredict");
        if name == "compat" {
            return format!("compat/{}", parts.next().unwrap_or("?"));
        }
        return name.to_string();
    }
    "perfpredict".to_string()
}

/// A resolved source location, self-contained so the workspace passes
/// can build diagnostics without the file text.
#[derive(Debug)]
pub struct Site {
    pub line: usize,
    pub col: usize,
    pub len: usize,
    pub excerpt: String,
}

/// One public item eligible for `dead-pub-api`.
#[derive(Debug)]
pub struct PubItem {
    pub name: String,
    /// Human label for the message (`fn`, `struct`, …).
    pub kind: String,
    pub site: Site,
    /// Identifiers appearing in the item's API surface — its signature
    /// for functions, its whole definition for type-defining items
    /// (fields and variants are API). A live item keeps every name in
    /// its surface alive: callers reach those types through inference
    /// without ever writing their names.
    pub sig_refs: Vec<String>,
}

/// One `env::var("PERFPREDICT_*")` read.
#[derive(Debug)]
pub struct EnvRead {
    pub name: String,
    pub site: Site,
}

/// One nondeterminism source reaching library code.
#[derive(Debug)]
pub struct NondetSite {
    /// What was called (`Instant::now`, `from_entropy`, …).
    pub what: String,
    pub site: Site,
}

/// Everything the workspace passes need to know about one file.
#[derive(Debug)]
pub struct FileFacts {
    pub path: String,
    pub crate_name: String,
    pub role: FileRole,
    pub pub_items: Vec<PubItem>,
    /// Distinct identifiers appearing anywhere in the file (tests
    /// included — a test is a legitimate consumer of public API).
    pub refs: Vec<String>,
    /// Identifiers inside `#[macro_export]` macro bodies. Exported
    /// macros expand at downstream call sites, so every name they
    /// mention is referenced from outside the defining crate.
    pub macro_refs: Vec<String>,
    pub env_reads: Vec<EnvRead>,
    pub nondet: Vec<NondetSite>,
}

fn site_for(cx: &FileCx<'_>, from: usize, to: usize) -> Site {
    let start = cx.code[from].start;
    let end = cx.code[to.min(cx.code.len() - 1)].end;
    let (line, col) = cx.file.line_col(start);
    Site {
        line,
        col,
        len: end.saturating_sub(start).max(1),
        excerpt: cx.file.line_text(line).to_string(),
    }
}

/// Extract the workspace-relevant facts from one file.
pub fn extract_facts(file: &SourceFile, tokens: &[Token], role: FileRole) -> FileFacts {
    let crate_name = crate_of(&file.path);
    let cx = FileCx::new(file, tokens, role == FileRole::Binary);

    let mut refs: BTreeSet<String> = BTreeSet::new();
    for i in 0..cx.code.len() {
        if cx.kind(i) == TokenKind::Ident {
            refs.insert(cx.text(i).to_string());
        }
    }

    let mut facts = FileFacts {
        path: file.path.clone(),
        crate_name,
        role,
        pub_items: Vec::new(),
        refs: refs.into_iter().collect(),
        macro_refs: Vec::new(),
        env_reads: Vec::new(),
        nondet: Vec::new(),
    };
    if role == FileRole::Reference {
        // Reference files contribute identifiers only.
        return facts;
    }

    collect_pub_items(&cx, tokens, &mut facts);
    collect_env_reads(&cx, &mut facts);
    if facts.crate_name != "telemetry" && role != FileRole::Binary {
        collect_nondet(&cx, &mut facts);
    }
    facts
}

fn kind_label(kind: ItemKind) -> Option<&'static str> {
    Some(match kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::Mod => "mod",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::TypeAlias => "type",
        ItemKind::MacroDef => "macro",
        // Unnamed / structural / alias items are not API definitions
        // the pass can own: `use` re-exports count as references to
        // their leaves, impls are covered via their methods.
        ItemKind::Impl | ItemKind::Use | ItemKind::Extern | ItemKind::MacroCall => return None,
    })
}

/// Distinct identifiers among the code tokens whose spans fall inside
/// `[lo, hi)`, minus `exclude` (an item's own name must not keep it
/// alive).
fn idents_in_range(cx: &FileCx<'_>, lo: usize, hi: usize, exclude: &str) -> Vec<String> {
    let mut set = BTreeSet::new();
    for i in 0..cx.code.len() {
        let t = &cx.code[i];
        if t.start >= lo && t.end <= hi && t.kind == TokenKind::Ident {
            let text = cx.text(i);
            if text != exclude {
                set.insert(text.to_string());
            }
        }
    }
    set.into_iter().collect()
}

fn collect_pub_items(cx: &FileCx<'_>, tokens: &[Token], facts: &mut FileFacts) {
    let nodes = syntax::parse(&cx.file.text, tokens);
    syntax::visit_items(&nodes, &mut |item, stack| {
        if item.kind == ItemKind::MacroDef && item.attrs.iter().any(|a| a.contains("macro_export"))
        {
            // Exported macro bodies are textually public API: whatever
            // they name is referenced wherever the macro is used.
            facts
                .macro_refs
                .extend(idents_in_range(cx, item.span.0, item.span.1, ""));
            facts.macro_refs.sort();
            facts.macro_refs.dedup();
        }
        if item.vis != Vis::Pub {
            return;
        }
        // Reachability along the ancestor chain: every enclosing mod
        // must itself be `pub`; an inherent impl passes visibility
        // through; anything else (trait bodies — members belong to the
        // trait; trait impls — members belong to the contract; fn
        // bodies) makes the item ineligible.
        for anc in stack {
            let transparent = match anc.kind {
                ItemKind::Mod => anc.vis == Vis::Pub,
                ItemKind::Impl => !anc.is_trait_impl,
                _ => false,
            };
            if !transparent {
                return;
            }
        }
        let Some(kind) = kind_label(item.kind) else {
            return;
        };
        let Some(name) = item.name.clone() else {
            return;
        };
        if name == "main" {
            return;
        }
        if cx.regions.contains(item.span.0) {
            return; // test-gated helpers are not API
        }
        // Items the author already marked as deliberately unused or
        // hidden are out of scope for an API-surface lint.
        if item
            .attrs
            .iter()
            .any(|a| a.contains("allow(dead_code)") || a.contains("doc(hidden)"))
        {
            return;
        }
        // Anchor on the visibility/keyword line, past any attribute
        // block — that is where a reader (and a waiver hash) looks.
        let anchor = sig_anchor(cx, item);
        let (line, col) = cx.file.line_col(anchor);
        let excerpt = cx.file.line_text(line).to_string();
        // API surface for liveness propagation: a function exposes its
        // signature; a type-defining item exposes its whole body
        // (fields, variants, and trait-method signatures are all
        // reachable by downstream code that never writes their names).
        let surface_end = match item.kind {
            ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::Const
            | ItemKind::Static
            | ItemKind::TypeAlias => item.span.1,
            _ => item.sig_end,
        };
        facts.pub_items.push(PubItem {
            name: name.clone(),
            kind: kind.to_string(),
            site: Site {
                line,
                col,
                len: item.sig_end.saturating_sub(anchor).max(1),
                excerpt,
            },
            sig_refs: idents_in_range(cx, item.span.0, surface_end, &name),
        });
    });
}

/// Byte offset of the `pub` keyword line of an item — the span start
/// minus any leading attributes (which sit on their own lines).
fn sig_anchor(cx: &FileCx<'_>, item: &syntax::Item) -> usize {
    // Find the first non-attribute, non-trivia token at or after the
    // item's span start.
    let mut pos = item.span.0;
    for attr in &item.attrs {
        // Attributes are contiguous from span.0 modulo trivia; step
        // past each one by searching for its text.
        if let Some(found) =
            cx.file.text[pos..item.span.1.min(cx.file.text.len())].find(attr.as_str())
        {
            pos = pos + found + attr.len();
        }
    }
    // Skip trivia to the visibility/keyword token.
    let rest = &cx.file.text[pos..];
    let trimmed = rest.len() - rest.trim_start().len();
    (pos + trimmed).min(cx.file.text.len().saturating_sub(1))
}

fn collect_env_reads(cx: &FileCx<'_>, facts: &mut FileFacts) {
    for i in 0..cx.code.len() {
        if cx.in_test(i) || cx.kind(i) != TokenKind::Ident {
            continue;
        }
        if !matches!(cx.text(i), "var" | "var_os") {
            continue;
        }
        // `env :: var ( "NAME" `— the `std::` prefix is optional.
        if !(i >= 3 && cx.is(i - 1, ":") && cx.is(i - 2, ":") && cx.is(i - 3, "env")) {
            continue;
        }
        if !cx.is(i + 1, "(") {
            continue;
        }
        let arg = i + 2;
        if arg >= cx.code.len() || cx.kind(arg) != TokenKind::Str {
            continue;
        }
        let lit = cx.text(arg);
        let name = lit.trim_matches('"');
        if !name.starts_with("PERFPREDICT_") {
            continue;
        }
        facts.env_reads.push(EnvRead {
            name: name.to_string(),
            site: site_for(cx, i - 3, arg),
        });
    }
}

/// Entropy/wall-clock patterns `nondet-source` hunts for.
const ENTROPY_IDENTS: &[&str] = &["from_entropy", "thread_rng", "OsRng"];

fn collect_nondet(cx: &FileCx<'_>, facts: &mut FileFacts) {
    for i in 0..cx.code.len() {
        if cx.in_test(i) || cx.kind(i) != TokenKind::Ident {
            continue;
        }
        let text = cx.text(i);
        let (what, to) = if matches!(text, "Instant" | "SystemTime")
            && cx.is(i + 1, ":")
            && cx.is(i + 2, ":")
            && cx.is(i + 3, "now")
        {
            (format!("{text}::now"), i + 3)
        } else if ENTROPY_IDENTS.contains(&text) {
            (text.to_string(), i)
        } else {
            continue;
        };
        if statement_mentions_telemetry(cx, i) {
            continue;
        }
        facts.nondet.push(NondetSite {
            what,
            site: site_for(cx, i, to),
        });
    }
}

/// Does the statement containing token `i` mention `telemetry`? That
/// marks the sanctioned wall-clock idiom
/// (`telemetry::enabled().then(Instant::now)` and span timing).
fn statement_mentions_telemetry(cx: &FileCx<'_>, i: usize) -> bool {
    // Back to the start of the statement…
    let lo = {
        let floor = i.saturating_sub(80);
        let mut j = i;
        while j > floor && !matches!(cx.text(j - 1), ";" | "{" | "}") {
            j -= 1;
        }
        j
    };
    // …forward to its end.
    let hi = cx.statement_end(i);
    (lo..=hi.min(cx.code.len() - 1))
        .any(|j| cx.kind(j) == TokenKind::Ident && cx.text(j) == "telemetry")
}

/// Run the three workspace passes over the extracted facts. `envs` is
/// the `[[env]]` registry from `analyze.toml`; `config_path` names it
/// in stale-declaration findings.
pub fn check_workspace(
    facts: &[FileFacts],
    envs: &[EnvDecl],
    config_path: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    dead_pub_api(facts, &mut out);
    env_registry(facts, envs, config_path, &mut out);
    nondet_source(facts, &mut out);
    out
}

fn dead_pub_api(facts: &[FileFacts], out: &mut Vec<Diagnostic>) {
    // Which names does each crate's *library* reference, and which
    // names do external consumers use anywhere? Reference files
    // (tests/benches/examples) are external by construction, and so
    // are binary targets: `src/main.rs` and `src/bin/*` are separate
    // crates that can only reach the library through its public API,
    // so a binary's use is exactly the evidence `pub` asks for.
    let mut crate_refs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut external_refs: BTreeSet<&str> = BTreeSet::new();
    for f in facts {
        let refs = f.refs.iter().map(String::as_str);
        if f.role == FileRole::Library {
            crate_refs.entry(&f.crate_name).or_default().extend(refs);
        } else {
            external_refs.extend(refs);
        }
        // Exported macros expand downstream: their bodies are external
        // references no matter which file holds them.
        external_refs.extend(f.macro_refs.iter().map(String::as_str));
    }
    // Per-crate liveness to a fixpoint. The seed is direct outside
    // reference; each live item then keeps its API surface alive —
    // `run.finish()` returns a `RunSummary` nobody ever names, but the
    // type is reachable, so flagging it would be wrong.
    let mut crate_items: BTreeMap<&str, Vec<&PubItem>> = BTreeMap::new();
    for f in facts {
        if f.role == FileRole::Library {
            crate_items
                .entry(&f.crate_name)
                .or_default()
                .extend(f.pub_items.iter());
        }
    }
    let mut alive: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (crate_name, items) in &crate_items {
        let outside_ref = |name: &str| {
            external_refs.contains(name)
                || crate_refs
                    .iter()
                    .any(|(c, refs)| c != crate_name && refs.contains(name))
        };
        let mut live: BTreeSet<&str> = items
            .iter()
            .filter(|i| outside_ref(&i.name))
            .map(|i| i.name.as_str())
            .collect();
        loop {
            let before = live.len();
            for item in items {
                if live.contains(item.name.as_str()) {
                    live.extend(item.sig_refs.iter().map(String::as_str));
                }
            }
            if live.len() == before {
                break;
            }
        }
        alive.insert(*crate_name, live);
    }
    for f in facts {
        if f.role != FileRole::Library {
            continue;
        }
        for item in &f.pub_items {
            let name = item.name.as_str();
            if alive
                .get(f.crate_name.as_str())
                .is_some_and(|live| live.contains(name))
            {
                continue;
            }
            out.push(Diagnostic::from_parts(
                "dead-pub-api",
                f.path.clone(),
                item.site.line,
                item.site.col,
                item.site.len,
                format!(
                    "pub {} `{}` is never referenced outside crate `{}` (tests/benches/examples \
                     included) — demote to pub(crate), delete it, or waive it as deliberate API \
                     surface",
                    item.kind, item.name, f.crate_name
                ),
                item.site.excerpt.clone(),
            ));
        }
    }
}

fn env_registry(
    facts: &[FileFacts],
    envs: &[EnvDecl],
    config_path: &str,
    out: &mut Vec<Diagnostic>,
) {
    let declared: BTreeMap<&str, &EnvDecl> = envs.iter().map(|e| (e.name.as_str(), e)).collect();
    let mut read: BTreeSet<&str> = BTreeSet::new();
    for f in facts {
        for r in &f.env_reads {
            read.insert(&r.name);
            if !declared.contains_key(r.name.as_str()) {
                out.push(Diagnostic::from_parts(
                    "env-registry",
                    f.path.clone(),
                    r.site.line,
                    r.site.col,
                    r.site.len,
                    format!(
                        "`{}` is read here but has no [[env]] entry in {config_path} — declare \
                         the knob with a one-line doc string so it is discoverable",
                        r.name
                    ),
                    r.site.excerpt.clone(),
                ));
            }
        }
    }
    for e in envs {
        if !read.contains(e.name.as_str()) {
            out.push(Diagnostic::from_parts(
                "env-registry",
                config_path.to_string(),
                e.defined_at,
                1,
                7,
                format!(
                    "[[env]] entry `{}` is declared but never read by any workspace code — \
                     the knob it documented is gone; delete the entry",
                    e.name
                ),
                "[[env]]".to_string(),
            ));
        }
    }
}

fn nondet_source(facts: &[FileFacts], out: &mut Vec<Diagnostic>) {
    for f in facts {
        for n in &f.nondet {
            out.push(Diagnostic::from_parts(
                "nondet-source",
                f.path.clone(),
                n.site.line,
                n.site.col,
                n.site.len,
                format!(
                    "`{}` in library code — wall-clock/entropy values must not reach \
                     result-bearing paths (the PR 9 seed-stream bug class); derive from the run \
                     seed or config, route through telemetry, or waive with the argument that \
                     this value never shapes an output",
                    n.what
                ),
                n.site.excerpt.clone(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts(path: &str, src: &str) -> FileFacts {
        let file = SourceFile::new(path.into(), src.into());
        let tokens = lex(&file.text);
        extract_facts(&file, &tokens, role_of(path))
    }

    #[test]
    fn roles_and_crates_classify() {
        assert_eq!(role_of("crates/x/src/lib.rs"), FileRole::Library);
        assert_eq!(role_of("crates/x/src/main.rs"), FileRole::Binary);
        assert_eq!(role_of("crates/x/src/bin/tool.rs"), FileRole::Binary);
        assert_eq!(role_of("crates/x/tests/t.rs"), FileRole::Reference);
        assert_eq!(role_of("tests/end_to_end.rs"), FileRole::Reference);
        assert_eq!(role_of("crates/bench/benches/nn.rs"), FileRole::Reference);
        assert_eq!(crate_of("crates/serve/src/core.rs"), "serve");
        assert_eq!(crate_of("crates/compat/simd/src/lib.rs"), "compat/simd");
        assert_eq!(crate_of("src/main.rs"), "perfpredict");
        assert_eq!(crate_of("tests/end_to_end.rs"), "perfpredict");
    }

    #[test]
    fn pub_items_respect_visibility_chain() {
        let src = "\
pub fn api() {}
pub(crate) fn internal() {}
fn private() {}
mod hidden { pub fn unreachable_api() {} }
pub mod open { pub fn nested_api() {} }
pub struct S;
impl S { pub fn method(&self) {} }
impl Clone for S { fn clone(&self) -> S { S } }
pub trait T { fn required(&self); }
#[cfg(test)]
mod tests { pub fn helper() {} }
";
        let f = facts("crates/x/src/lib.rs", src);
        let names: Vec<&str> = f.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["api", "open", "nested_api", "S", "method", "T"]);
    }

    #[test]
    fn env_reads_extract_perfpredict_names_only() {
        let src = "\
pub fn f() -> bool {
    let _ = std::env::var(\"HOME\");
    std::env::var(\"PERFPREDICT_MODE\").is_ok() && std::env::var_os(\"PERFPREDICT_FLAG\").is_some()
}
";
        let f = facts("crates/x/src/lib.rs", src);
        let names: Vec<&str> = f.env_reads.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["PERFPREDICT_MODE", "PERFPREDICT_FLAG"]);
    }

    #[test]
    fn nondet_sites_respect_exemptions() {
        let lib = "\
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
pub fn gated() {
    let _t = telemetry::enabled().then(std::time::Instant::now);
}
";
        let f = facts("crates/x/src/lib.rs", lib);
        assert_eq!(f.nondet.len(), 1, "telemetry-gated statement is exempt");
        assert_eq!(f.nondet[0].what, "Instant::now");

        let in_main = facts("crates/x/src/main.rs", lib);
        assert!(in_main.nondet.is_empty(), "entry points are exempt");

        let in_telemetry = facts("crates/telemetry/src/span.rs", lib);
        assert!(in_telemetry.nondet.is_empty(), "telemetry crate is exempt");
    }

    #[test]
    fn dead_pub_api_needs_an_outside_reference() {
        let a = facts(
            "crates/a/src/lib.rs",
            "pub fn used() {}\npub fn dead() {}\npub(crate) fn scoped() {}\n",
        );
        let b = facts("crates/b/src/lib.rs", "pub fn f() { a::used(); }\n");
        let diags = check_workspace(&[a, b], &[], "analyze.toml");
        let dead: Vec<String> = diags
            .iter()
            .filter(|d| d.lint == "dead-pub-api")
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(dead.len(), 2, "{dead:?}"); // `dead` in a, `f` in b
        assert!(dead[0].contains("`dead`"), "{dead:?}");
    }

    #[test]
    fn macro_bodies_and_signatures_keep_api_alive() {
        let a = facts(
            "crates/a/src/lib.rs",
            "\
pub struct Summary { pub wall: u64 }
pub fn finish() -> Summary { Summary { wall: 0 } }
pub struct Guard;
#[macro_export]
macro_rules! span { () => { $crate::Guard::default() } }
pub fn dead() {}
",
        );
        // Keyword-ish tokens (`crate`, `macro_rules`) ride along — only
        // membership matters for liveness.
        assert!(
            a.macro_refs.iter().any(|r| r == "Guard"),
            "{:?}",
            a.macro_refs
        );
        let t = facts("crates/a/tests/t.rs", "fn t() { let _s = a::finish(); }\n");
        let diags = check_workspace(&[a, t], &[], "analyze.toml");
        let dead: Vec<&str> = diags
            .iter()
            .filter(|d| d.lint == "dead-pub-api")
            .map(|d| d.message.as_str())
            .collect();
        // `finish` is named by the test; `Summary` rides its signature;
        // `Guard` is named by the exported macro body. Only `dead` dies.
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].contains("`dead`"), "{dead:?}");
    }

    #[test]
    fn reference_files_count_as_consumers() {
        let a = facts("crates/a/src/lib.rs", "pub fn tested_only() {}\n");
        let t = facts(
            "crates/a/tests/api.rs",
            "#[test]\nfn t() { a::tested_only(); }\n",
        );
        let diags = check_workspace(&[a, t], &[], "analyze.toml");
        assert!(
            diags.iter().all(|d| d.lint != "dead-pub-api"),
            "integration-test usage keeps the API alive: {diags:?}"
        );
    }

    #[test]
    fn env_registry_flags_both_directions() {
        let f = facts(
            "crates/x/src/lib.rs",
            "pub fn f() -> bool { std::env::var(\"PERFPREDICT_UNDECLARED\").is_ok() }\n",
        );
        let envs = vec![EnvDecl {
            name: "PERFPREDICT_GONE".into(),
            doc: "stale knob".into(),
            defined_at: 12,
        }];
        let diags = check_workspace(&[f], &envs, "analyze.toml");
        let msgs: Vec<&str> = diags
            .iter()
            .filter(|d| d.lint == "env-registry")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("PERFPREDICT_UNDECLARED")));
        assert!(msgs.iter().any(|m| m.contains("PERFPREDICT_GONE")));
        let stale = diags
            .iter()
            .find(|d| d.message.contains("PERFPREDICT_GONE"))
            .expect("stale decl");
        assert_eq!((stale.path.as_str(), stale.line), ("analyze.toml", 12));
    }
}
