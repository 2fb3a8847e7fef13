//! Every reproduction harness rejects misuse before it does any work:
//! an unknown flag, a flag without its value and a repeated flag each
//! exit 2 with the flag named on stderr. Every harness command line the
//! documentation, CI and scripts show parses against its harness's table.
//! The binaries, `run_experiments.sh` and `results/` list the same harnesses.

#[path = "../../../tests/support/doc_lines.rs"]
mod doc_lines;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Every harness binary, with one of its value flags.
const HARNESSES: &[(&str, &str)] = &[
    (env!("CARGO_BIN_EXE_ablation_adaptive"), "--scale"),
    (env!("CARGO_BIN_EXE_ablation_crossval"), "--scale"),
    (env!("CARGO_BIN_EXE_ablation_sampling"), "--scale"),
    (env!("CARGO_BIN_EXE_ablation_simpoint"), "--scale"),
    (env!("CARGO_BIN_EXE_repro_chrono"), "--seed"),
    (env!("CARGO_BIN_EXE_repro_fp_rate"), "--scale"),
    (env!("CARGO_BIN_EXE_repro_per_app"), "--scale"),
    (env!("CARGO_BIN_EXE_repro_rolling_years"), "--scale"),
    (env!("CARGO_BIN_EXE_repro_sampled"), "--scale"),
    (env!("CARGO_BIN_EXE_repro_table1"), "--metrics-out"),
    (env!("CARGO_BIN_EXE_soak_serve"), "--secs"),
];

fn misuse(bin: &str, args: &[&str], names: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn harness");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(err.contains(names), "{bin} {args:?}: {err}");
}

#[test]
fn every_harness_rejects_misuse() {
    for &(bin, flag) in HARNESSES {
        misuse(bin, &["--scael", "full"], "unknown flag '--scael'");
        misuse(bin, &[flag], &format!("{flag} requires a value"));
        misuse(
            bin,
            &[flag, "quick", flag, "quick"],
            &format!("{flag} given more than once"),
        );
    }
}

#[test]
fn an_unknown_scale_is_invalid_input() {
    misuse(
        env!("CARGO_BIN_EXE_repro_table1"),
        &["--scale", "huge"],
        "unknown scale 'huge'",
    );
}

#[test]
fn an_unwritable_manifest_is_an_io_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_table1"))
        .args(["--metrics-out", "/nonexistent-dir/run.jsonl"])
        .output()
        .expect("spawn harness");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("cannot open metrics file"), "{err}");
}

/// Each documented harness line runs with a sentinel flag appended. The
/// harness checks its whole argv before it does any work and reports
/// the first fault, so an exit 2 naming the sentinel means every
/// documented argument was accepted, and nothing ran.
#[test]
fn every_documented_harness_line_parses() {
    const SENTINEL: &str = "--end-of-documented-line";
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let lines: Vec<_> = doc_lines::documented(root)
        .into_iter()
        .filter(|(_, program, _)| doc_lines::is_harness(program))
        .collect();
    assert!(
        lines.len() >= 20,
        "only {} harness lines found",
        lines.len()
    );
    for (at, program, argv) in lines {
        let bin = HARNESSES
            .iter()
            .map(|&(bin, _)| bin)
            .find(|bin| bin.rsplit('/').next() == Some(program.as_str()))
            .unwrap_or_else(|| panic!("{at}: unknown harness {program}"));
        let out = Command::new(bin)
            .args(&argv)
            .arg(SENTINEL)
            .output()
            .expect("spawn harness");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{at}: {err}");
        assert!(
            err.contains(&format!("unknown flag '{SENTINEL}'")),
            "{at}: {err}"
        );
    }
}

/// The names of the files in `dir` that end in `ext`, without it.
fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.to_str()?.strip_suffix(ext).map(str::to_string))
        .collect()
}

/// `HARNESSES` names every binary in `src/bin`, `run_experiments.sh`
/// runs all of them but the `soak_serve` stress test, and `results/`
/// holds one committed output per run line and no other.
#[test]
fn binaries_script_and_results_list_the_same_harnesses() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("../..");
    let listed: BTreeSet<String> = HARNESSES
        .iter()
        .map(|&(bin, _)| bin.rsplit('/').next().unwrap_or(bin).to_string())
        .collect();
    assert_eq!(
        stems(&manifest.join("src/bin"), ".rs"),
        listed,
        "src/bin vs HARNESSES"
    );

    let script = std::fs::read_to_string(root.join("run_experiments.sh")).expect("script");
    let run: BTreeSet<String> = script
        .lines()
        .filter_map(|line| line.strip_prefix("run "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    let mut expected = listed;
    expected.remove("soak_serve");
    assert_eq!(run, expected, "run_experiments.sh vs HARNESSES");

    let results = stems(&root.join("results"), ".txt");
    assert_eq!(results, expected, "results/*.txt vs run_experiments.sh");
}
