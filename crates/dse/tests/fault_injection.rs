//! Fault-injection suite: every injected fault must surface as a typed
//! error, a bounded retry, or a recorded degradation — never a panic.
//!
//! Faults covered, mirroring `dse::faultinject`:
//! * NaN cycle counts from the simulator (rows dropped, run completes);
//! * constant and exactly-collinear predictor columns (LR selection
//!   skips the offender);
//! * degenerate targets — constant (flat model or typed error) and NaN
//!   (typed `DegenerateData`);
//! * divergent training configurations (retries, then typed `Diverged`);
//! * checkpoint files truncated mid-write (resumed, finishing only the
//!   remaining work) and corrupted mid-file (typed `Checkpoint` reject).

use cpusim::runner::{try_sweep_design_space, SimOptions};
use cpusim::{Benchmark, DesignSpace};
use dse::data::try_table_from_sweep;
use dse::faultinject::{
    corrupt_line, divergent_train_config, nan_cycles, truncate_file, with_collinear_column,
    with_constant_column, with_constant_target, with_nan_targets,
};
use dse::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use linalg::Matrix;
use mlmodels::nn::Mlp;
use mlmodels::{try_train, ModelKind, Table};

fn small_space() -> DesignSpace {
    DesignSpace::from_configs(
        DesignSpace::table1_reduced()
            .configs()
            .iter()
            .copied()
            .step_by(4)
            .collect(),
    )
}

fn small_cfg() -> SampledConfig {
    SampledConfig {
        sampling_rates: vec![0.2],
        strategy: SamplingStrategy::Random,
        models: vec![ModelKind::LrB, ModelKind::NnS],
        sim: SimOptions::quick(),
        seed: 11,
        estimate_errors: false,
        export_models: None,
    }
}

fn sweep_table() -> Table {
    let res = try_sweep_design_space(&small_space(), Benchmark::Gcc, &SimOptions::quick(), None)
        .expect("sweep")
        .results;
    try_table_from_sweep(&res[..64]).expect("sweep table")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("perfpredict-faultsuite");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

#[test]
fn nan_cycles_degrade_gracefully() {
    let space = small_space();
    let cfg = small_cfg();
    let mut sweep = try_sweep_design_space(&space, Benchmark::Mcf, &cfg.sim, None)
        .expect("sweep")
        .results;
    nan_cycles(&mut sweep, 10, 77);
    let run = try_run_sampled_dse(Benchmark::Mcf, &space, &cfg, Some(sweep), None)
        .expect("NaN rows must be dropped, not fatal");
    assert_eq!(run.space_size, space.len() - 10);
    assert!(run.points.iter().all(|p| p.true_error.is_finite()));
}

#[test]
fn all_nan_cycles_is_a_typed_error() {
    let space = small_space();
    let cfg = small_cfg();
    let mut sweep = try_sweep_design_space(&space, Benchmark::Mcf, &cfg.sim, None)
        .expect("sweep")
        .results;
    let n = sweep.len();
    nan_cycles(&mut sweep, n, 77);
    let err = try_run_sampled_dse(Benchmark::Mcf, &space, &cfg, Some(sweep), None)
        .expect_err("nothing left to fit");
    assert_eq!(err.kind(), "degenerate");
}

#[test]
fn constant_column_still_trains() {
    let faulty = with_constant_column(&sweep_table(), "l2_size_kb");
    for kind in [ModelKind::LrE, ModelKind::LrS, ModelKind::NnS] {
        let m = try_train(kind, &faulty, 3).unwrap_or_else(|e| panic!("{}: {e}", kind.abbrev()));
        assert!(m
            .try_predict(&faulty)
            .expect("predict")
            .iter()
            .all(|p| p.is_finite()));
    }
}

#[test]
fn collinear_column_is_survivable_for_every_lr_method() {
    let faulty = with_collinear_column(&sweep_table(), "ruu_size");
    for kind in [
        ModelKind::LrE,
        ModelKind::LrS,
        ModelKind::LrB,
        ModelKind::LrF,
    ] {
        let m = try_train(kind, &faulty, 3).unwrap_or_else(|e| panic!("{}: {e}", kind.abbrev()));
        assert!(m
            .try_predict(&faulty)
            .expect("predict")
            .iter()
            .all(|p| p.is_finite()));
    }
}

#[test]
fn constant_target_never_panics() {
    let faulty = with_constant_target(&sweep_table(), 1e6);
    for kind in ModelKind::ALL {
        match try_train(kind, &faulty, 5) {
            Ok(m) => {
                // A flat surface is the only honest fit.
                for p in m.try_predict(&faulty).expect("predict") {
                    assert!(p.is_finite(), "{}: non-finite prediction", kind.abbrev());
                }
            }
            Err(e) => assert!(
                matches!(e.kind(), "degenerate" | "diverged" | "singular"),
                "{}: unexpected error kind {} ({e})",
                kind.abbrev(),
                e.kind()
            ),
        }
    }
}

#[test]
fn nan_targets_are_typed_degenerate() {
    let faulty = with_nan_targets(&sweep_table(), 3, 9);
    for kind in [ModelKind::LrB, ModelKind::NnQ] {
        let err = try_train(kind, &faulty, 5).expect_err("NaN targets must be rejected");
        assert_eq!(err.kind(), "degenerate", "{}", kind.abbrev());
    }
}

#[test]
fn divergent_config_exhausts_retries_into_typed_error() {
    let rows: Vec<Vec<f64>> = (0..32)
        .map(|i| vec![(i % 8) as f64 / 7.0, (i / 8) as f64 / 3.0])
        .collect();
    let x = Matrix::from_rows(&rows);
    let y: Vec<f64> = rows.iter().map(|r| 0.3 + 0.5 * r[0] - 0.2 * r[1]).collect();
    let mut net = Mlp::new(2, &[4], 1);
    let err = net
        .try_train(&x, &y, &divergent_train_config(1))
        .expect_err("1e12 learning rate must diverge");
    assert_eq!(err.kind(), "diverged");
    assert!(err.exit_code() == 5);
}

#[test]
fn killed_sweep_resumes_only_remaining_work() {
    let space = small_space();
    let opts = SimOptions::quick();
    let path = tmp("killed-sweep.jsonl");
    let fresh =
        try_sweep_design_space(&space, Benchmark::Equake, &opts, Some(&path)).expect("first run");
    assert_eq!(fresh.simulated, space.len());

    // Kill: keep the header, 6 complete records, and half of a seventh.
    let text = std::fs::read_to_string(&path).expect("read");
    let lines: Vec<&str> = text.lines().collect();
    let keep = format!(
        "{}\n{}",
        lines[..7].join("\n"),
        &lines[7][..lines[7].len() / 2]
    );
    std::fs::write(&path, keep).expect("simulate kill");

    let resumed =
        try_sweep_design_space(&space, Benchmark::Equake, &opts, Some(&path)).expect("resume");
    assert_eq!(resumed.restored, 6, "exactly the complete records restore");
    assert_eq!(resumed.simulated, space.len() - 6);
    for (a, b) in fresh.results.iter().zip(&resumed.results) {
        assert_eq!(a.cycles, b.cycles, "resume must not change any result");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_checkpoint_tail_is_tolerated_at_any_cut() {
    let space = small_space();
    let opts = SimOptions::quick();
    let path = tmp("truncate-any.jsonl");
    try_sweep_design_space(&space, Benchmark::Mesa, &opts, Some(&path)).expect("seed run");
    let full = std::fs::read_to_string(&path).expect("read");
    // Cut the file at several byte offsets inside the final 2 records.
    let base = full.len();
    for cut in [base - 1, base - 7, base - 40] {
        std::fs::write(&path, &full[..cut]).expect("write");
        truncate_file(&path, cut as u64).expect("truncate");
        let out = try_sweep_design_space(&space, Benchmark::Mesa, &opts, Some(&path))
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(out.results.len(), space.len());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checkpoint_is_rejected_not_trusted() {
    let space = small_space();
    let opts = SimOptions::quick();
    let path = tmp("corrupt.jsonl");
    try_sweep_design_space(&space, Benchmark::Applu, &opts, Some(&path)).expect("seed run");
    corrupt_line(&path, 3).expect("inject corruption");
    let err = try_sweep_design_space(&space, Benchmark::Applu, &opts, Some(&path))
        .expect_err("mid-file corruption must be rejected");
    assert_eq!(err.kind(), "checkpoint");
    assert_eq!(err.exit_code(), 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_from_another_experiment_is_rejected() {
    let space = small_space();
    let cfg = small_cfg();
    let path = tmp("wrong-run.jsonl");
    try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path)).expect("seed run");
    let err = try_run_sampled_dse(Benchmark::Gcc, &space, &cfg, None, Some(&path))
        .expect_err("benchmark mismatch");
    assert_eq!(err.kind(), "checkpoint");
    assert!(err.to_string().contains("benchmark"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_sampled_dse_resumes_and_matches_fresh_run() {
    let space = small_space();
    let cfg = SampledConfig {
        estimate_errors: true,
        export_models: None,
        ..small_cfg()
    };
    let path = tmp("killed-dse.jsonl");
    let fresh =
        try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path)).expect("first run");
    // Kill after the sweep and the first fit record.
    let text = std::fs::read_to_string(&path).expect("read");
    let keep: Vec<&str> = text.lines().take(1 + space.len() + 1).collect();
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("simulate kill");

    let resumed =
        try_run_sampled_dse(Benchmark::Applu, &space, &cfg, None, Some(&path)).expect("resume");
    assert_eq!(resumed.points.len(), fresh.points.len());
    for (a, b) in fresh.points.iter().zip(&resumed.points) {
        assert_eq!(a.model, b.model);
        assert_eq!(a.true_error, b.true_error);
        assert_eq!(a.estimated.map(|e| e.max), b.estimated.map(|e| e.max));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_shard_worker_preserves_merged_identity() {
    // A 2-worker sweep is killed: the ledger keeps its first 10 `sim`
    // lines and a torn half of the next. Resume must restore exactly those
    // 10, simulate the rest, and merge byte-identically to a sweep that
    // never died.
    let space = small_space();
    let opts = SimOptions::quick();

    let sequential = try_sweep_design_space(&space, Benchmark::Gcc, &opts, None).expect("oracle");
    let oracle = cpusim::merged_jsonl(&sequential.results);

    let path = tmp("killed-shard-worker.jsonl");
    cpusim::try_sweep_sharded(&space, Benchmark::Gcc, &opts, 2, Some(&path))
        .expect("seed sharded run");

    let text = std::fs::read_to_string(&path).expect("read ledger");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[1..].iter().all(|l| l.contains("\"type\":\"sim\"")));
    let torn = &lines[11][..lines[11].len() / 2];
    let keep = format!("{}\n{}", lines[..11].join("\n"), torn);
    std::fs::write(&path, keep).expect("simulate worker kill");

    let resumed = cpusim::try_sweep_sharded(&space, Benchmark::Gcc, &opts, 2, Some(&path))
        .expect("resume after worker kill");
    assert_eq!(resumed.restored, 10);
    assert_eq!(resumed.simulated, space.len() - 10);
    assert_eq!(
        cpusim::merged_jsonl(&resumed.results),
        oracle,
        "merged output must be byte-identical to the sequential sweep"
    );
    let _ = std::fs::remove_file(&path);
}
