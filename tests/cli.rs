//! The `perfpredict` binary and the flag tables behind it: every verb
//! rejects misuse with exit 2 and names the offending argument, cheap
//! valid runs still work, and every `perfpredict` command line the
//! documentation and CI show (and the two perfbench spawns) parses
//! against the tables.

#[path = "support/doc_lines.rs"]
mod doc_lines;

use perfpredict::cli;
use perfpredict::error::args::{self, Flag};
use perfpredict::mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use std::path::PathBuf;
use std::process::{Command, Output};

fn perfpredict(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfpredict"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn perfpredict")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `args` must exit 2 with `names` on stderr.
fn misuse(args: &[&str], names: &str) {
    let out = perfpredict(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(
        err.contains(names),
        "{args:?}: stderr does not name {names}: {err}"
    );
}

/// A verb and a placeholder for each required positional, so a flag is
/// the only fault on the line.
fn verb_line(spec: &args::Spec<'static>) -> Vec<&'static str> {
    let mut words = spec.usage.split(' ');
    let mut line: Vec<&str> = words.next().into_iter().collect();
    line.extend(words.filter(|p| p.starts_with('<')).map(|_| "x"));
    line
}

fn table(spec: &args::Spec<'static>) -> Vec<Flag> {
    spec.flags.iter().copied().flatten().copied().collect()
}

#[test]
fn every_verb_rejects_unknown_missing_and_repeated_flags() {
    for spec in cli::VERBS {
        let base = verb_line(spec);
        misuse(
            &[&base[..], &["--bogus"]].concat(),
            "unknown flag '--bogus'",
        );
        for flag in table(spec) {
            let mut repeated = base.clone();
            for _ in 0..2 {
                repeated.push(flag.name);
                if flag.value.is_some() {
                    repeated.push("1");
                }
            }
            if flag.value.is_some() {
                let missing = [&base[..], &[flag.name]].concat();
                misuse(&missing, &format!("{} requires a value", flag.name));
            }
            if !flag.repeat {
                misuse(&repeated, &format!("{} given more than once", flag.name));
            }
        }
    }
}

#[test]
fn only_the_documented_flags_repeat() {
    let mut repeatable: Vec<&str> = cli::VERBS
        .iter()
        .flat_map(table)
        .filter(|f| f.repeat)
        .map(|f| f.name)
        .collect();
    repeatable.sort_unstable();
    assert_eq!(repeatable, ["--baseline", "--current", "--preload"]);
}

#[test]
fn misuse_names_the_argument() {
    misuse(
        &["sweep", "mcf", "--space", "smoke", "--shard", "2"],
        "'--shard'",
    );
    misuse(&["simulate", "mcf", "--jsn"], "'--jsn'");
    misuse(&["chrono", "Xeon", "--year"], "--year requires a value");
    misuse(
        &["sweep", "mcf", "--step", "4", "--step", "8"],
        "--step given more than once",
    );
    misuse(&["sweep", "mcf", "gcc"], "unexpected argument 'gcc'");
    misuse(&["sweep", "mcf", "--json"], "unknown flag '--json'");
    misuse(&["simulate"], "missing benchmark argument");
    misuse(
        &["serve", "m.ppmodel", "--socket", "s"],
        "--socket is daemon-only",
    );
    misuse(
        &["sweep", "mcf", "--shards", "two"],
        "--shards expects a number, got 'two'",
    );
    let out = perfpredict(&["bogus-verb"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).starts_with("usage: perfpredict"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn values_are_taken_after_the_positional() {
    let out = perfpredict(&["gen-requests", "--n", "5", "no-such.ppmodel"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(
        err.contains("no-such.ppmodel") && !err.contains("--n"),
        "{err}"
    );
}

#[test]
fn listing_and_simulate_verbs_run() {
    for verb in ["benchmarks", "families"] {
        let out = perfpredict(&[verb]);
        assert!(out.status.success(), "{verb}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{verb}: empty stdout");
    }
    let out = perfpredict(&["simulate", "mcf", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"benchmark\":\"mcf\""), "{text}");
}

#[test]
fn perf_report_gives_its_verdict() {
    let out = perfpredict(&[
        "perf-report",
        "--current",
        "tests/fixtures/perf_report/regressed_serve.json",
        "--baseline",
        "BENCH_serve.json",
        "--baseline",
        "BENCH_sim.json",
        "--threshold",
        "25",
    ]);
    assert_eq!(out.status.code(), Some(6), "{}", stderr(&out));
}

/// A scratch directory for one test, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("perfpredict-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small LR-B artifact over a two-parameter table.
fn save_artifact(path: &str) {
    let n = 48;
    let a: Vec<f64> = (0..n).map(|i| f64::from(i % 8) * 16.0).collect();
    let b: Vec<f64> = (0..n).map(|i| f64::from(i % 6) + 1.0).collect();
    let y: Vec<f64> = a
        .iter()
        .zip(&b)
        .map(|(a, b)| 0.5 * a + 3.0 * b + 1.0)
        .collect();
    let mut t = Table::new();
    t.add_numeric("cache_kb", a)
        .add_numeric("width", b)
        .set_target(y);
    let model = try_train(ModelKind::LrB, &t, 7).expect("train LR-B");
    ModelArtifact::from_training(model, &t)
        .save(path)
        .expect("save artifact");
}

#[test]
fn gen_requests_and_both_serve_modes_run() {
    let dir = Scratch::new("serve");
    let model = dir.path("m.ppmodel");
    save_artifact(&model);
    let out = perfpredict(&["gen-requests", &model, "--n", "40", "--distinct", "8"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let reqs = dir.path("reqs.jsonl");
    std::fs::write(&reqs, &out.stdout).expect("write requests");

    let one_shot = |workers: &str| {
        let out = perfpredict(&[
            "serve",
            &model,
            "--input",
            &reqs,
            "--workers",
            workers,
            "--json",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        out.stdout
    };
    let w1 = one_shot("1");
    assert_eq!(String::from_utf8_lossy(&w1).lines().count(), 40);
    assert_eq!(w1, one_shot("4"), "replay differs across worker counts");

    let out = perfpredict(&["serve", "--daemon", &model, "--input", &reqs]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 40);
}

/// The documented `cargo run --release -- <verb>` lines run this binary
/// only because the root package names it its default run, and the
/// default test command covers every member only while
/// `default-members` lists them all.
#[test]
fn the_root_manifest_runs_perfpredict_and_tests_every_member() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("read Cargo.toml");
    assert!(
        manifest.contains("\ndefault-run = \"perfpredict\"\n"),
        "the root [package] must declare default-run = \"perfpredict\""
    );
    let list = |key: &str| -> Vec<String> {
        let start = manifest.find(&format!("\n{key} = [")).expect(key);
        let body = &manifest[start..];
        let body = &body[body.find('[').expect("[") + 1..body.find(']').expect("]")];
        body.split(',')
            .map(|p| p.trim().trim_matches('"').to_string())
            .filter(|p| !p.is_empty())
            .collect()
    };
    let (members, default) = (list("members"), list("default-members"));
    assert!(
        default.iter().any(|p| p == "."),
        "default-members misses the root package"
    );
    for m in &members {
        assert!(default.contains(m), "default-members misses {m}");
    }
}

#[test]
fn every_documented_command_line_parses() {
    let lines = doc_lines::documented(env!("CARGO_MANIFEST_DIR"));
    let lines: Vec<_> = lines
        .iter()
        .filter(|(_, program, _)| program == "perfpredict")
        .collect();
    assert!(
        lines.len() >= 40,
        "only {} perfpredict lines found",
        lines.len()
    );
    for (at, _, argv) in lines {
        let (verb, rest) = argv.split_first().expect("a verb");
        let spec = cli::verb(verb).unwrap_or_else(|| panic!("{at}: unknown verb {verb}"));
        if let Err(e) = args::parse(spec, rest) {
            panic!("{at}: {e}");
        }
    }
}

#[test]
fn usage_lists_every_verb_and_flag() {
    let text = cli::usage();
    for spec in cli::VERBS {
        assert!(
            text.contains(&format!("\n  {}", spec.usage)),
            "usage misses {}",
            spec.usage
        );
        for flag in table(spec) {
            assert!(text.contains(flag.name), "usage misses {}", flag.name);
        }
    }
}
