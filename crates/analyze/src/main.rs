//! CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p analyze --                # lint the workspace, text diagnostics
//! cargo run -p analyze -- --format json  # JSONL (telemetry-manifest line shape)
//! cargo run -p analyze -- --format json --show-waived   # plus suppressed findings
//! cargo run -p analyze -- crates/serve/src/daemon.rs    # specific files
//! cargo run -p analyze -- --emit-waivers # TOML skeletons for current findings
//! cargo run -p analyze -- --list-lints   # the lint names
//! ```
//!
//! Exit codes: `0` clean, `1` findings or stale waivers, and the
//! `fault::Error` mapping for operational failures (`2` invalid
//! input/config, `3` I/O) — the same codes the rest of the pipeline
//! uses, so CI and shell drivers need one vocabulary only.

use analyze::{analyze_files, Report};
use fault::{Error, Result};
use std::path::PathBuf;

fn main() {
    match run() {
        // --help / --list-lints: informational output only, no summary.
        Ok(None) => {}
        Ok(Some(report)) if report.is_clean() => {
            // Summary goes to stderr in JSON mode so stdout stays pure JSONL.
            eprintln!(
                "analyze: clean — {} files, {} waived finding(s)",
                report.files, report.waived
            );
        }
        Ok(Some(report)) => {
            eprintln!(
                "analyze: {} finding(s) in {} files ({} waived)",
                report.diagnostics.len(),
                report.files,
                report.waived
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("analyze: error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

struct Options {
    root: PathBuf,
    format: Format,
    emit_waivers: bool,
    show_waived: bool,
    paths: Vec<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

const USAGE: &str = "usage: analyze [--root DIR] [--format text|json] [--show-waived]
               [--emit-waivers] [--list-lints] [PATH...]

Lints workspace library code (root src/ + crates/*/src, compat excluded)
for perfpredict's panic, determinism, cast, API-liveness, and env-knob
invariants. Waivers and the [[env]] registry live in <root>/analyze.toml;
see DESIGN.md \u{a7}10 for the lint catalog.

  --root DIR       workspace root (default: current directory)
  --format FMT     text (default) or json (JSONL, manifest-shaped)
  --show-waived    with --format json: also emit waiver-suppressed
                   findings, marked \"waived\":true
  --emit-waivers   print analyze.toml skeletons for unwaived findings
  --list-lints     print the lint names (per-file and workspace) and exit
  PATH...          lint these files only (per-file passes; the three
                   workspace passes need full discovery and are skipped)";

fn parse_args() -> Result<Option<Options>> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        emit_waivers: false,
        show_waived: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list-lints" => {
                for (name, _) in analyze::lints::LINTS {
                    println!("{name}");
                }
                for name in analyze::lints::WORKSPACE_PASSES {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--emit-waivers" => opts.emit_waivers = true,
            "--show-waived" => opts.show_waived = true,
            "--root" => {
                let dir = args
                    .next()
                    .ok_or_else(|| Error::invalid("--root needs a directory argument"))?;
                opts.root = PathBuf::from(dir);
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        return Err(Error::invalid(format!(
                            "--format must be `text` or `json`, got {other:?}"
                        )))
                    }
                };
            }
            flag if flag.starts_with('-') => {
                return Err(Error::invalid(format!("unknown flag `{flag}`\n{USAGE}")));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.show_waived && opts.format != Format::Json {
        return Err(Error::invalid(
            "--show-waived requires --format json (waived findings are a JSONL audit surface)",
        ));
    }
    Ok(Some(opts))
}

fn run() -> Result<Option<Report>> {
    let Some(opts) = parse_args()? else {
        return Ok(None);
    };
    let explicit_files: Vec<PathBuf> = opts
        .paths
        .iter()
        .map(|p| {
            if p.is_absolute() {
                p.clone()
            } else {
                opts.root.join(p)
            }
        })
        .collect();

    let report = if explicit_files.is_empty() {
        analyze::analyze_workspace(&opts.root)?
    } else {
        // Explicit file lists run the per-file passes only: the
        // workspace passes need the whole file set to judge liveness.
        let config = analyze::load_config(&opts.root)?;
        analyze_files(&opts.root, &explicit_files, &config.waivers)?
    };

    if opts.emit_waivers {
        emit_waivers(&report);
        return Ok(Some(report));
    }
    match opts.format {
        Format::Text => {
            for d in &report.diagnostics {
                println!("{}\n", d.render_text());
            }
        }
        Format::Json => {
            if opts.show_waived {
                // Merge unwaived and waived findings back into one
                // (path, line, col, lint)-ordered stream.
                let mut live = report.diagnostics.iter().peekable();
                let mut waived = report.waived_diagnostics.iter().peekable();
                let key =
                    |d: &analyze::diagnostics::Diagnostic| (d.path.clone(), d.line, d.col, d.lint);
                loop {
                    match (live.peek(), waived.peek()) {
                        (Some(l), Some(w)) if key(l) <= key(w) => {
                            println!("{}", live.next().expect("peeked").render_json());
                        }
                        (_, Some(_)) => {
                            println!("{}", waived.next().expect("peeked").render_json_waived());
                        }
                        (Some(_), None) => {
                            println!("{}", live.next().expect("peeked").render_json());
                        }
                        (None, None) => break,
                    }
                }
            } else {
                for d in &report.diagnostics {
                    println!("{}", d.render_json());
                }
            }
            println!(
                "{}",
                telemetry::json::JsonObject::new()
                    .str("type", "summary")
                    .usize("findings", report.diagnostics.len())
                    .usize("waived", report.waived)
                    .usize("files", report.files)
                    .finish()
            );
        }
    }
    Ok(Some(report))
}

/// Print ready-to-edit waiver entries for each unwaived finding. The
/// emitted `reason = "TODO"` deliberately fails validation, so a
/// skeleton cannot be committed without a real justification.
fn emit_waivers(report: &Report) {
    for d in &report.diagnostics {
        if d.lint == "stale-waiver" {
            continue;
        }
        println!("[[waiver]]");
        println!("lint = \"{}\"", d.lint);
        println!("path = \"{}\"", d.path);
        println!("line = {}", d.line);
        println!("hash = \"{}\"", d.hash);
        println!("reason = \"TODO\"  # {}", d.message.replace('\n', " "));
        println!();
    }
}
