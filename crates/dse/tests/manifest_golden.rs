//! Golden-shape test for the sampled-DSE run manifest.
//!
//! Runs a miniature sampled experiment with the JSONL sink installed and
//! asserts the manifest parses line-by-line and contains every stage the
//! observability layer promises: meta header, sweep/materialize spans,
//! per-model fit (train), estimate and predict spans, progress ticks,
//! simulator counter rollups, and the closing summary. Own test binary
//! because telemetry is process-global.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cpusim::runner::SimOptions;
use cpusim::{Benchmark, DesignSpace};
use dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use mlmodels::ModelKind;
use telemetry::json::{parse, Value};

fn manifest_path() -> PathBuf {
    std::env::temp_dir().join(format!("dse_manifest_golden_{}.jsonl", std::process::id()))
}

#[test]
fn sampled_run_manifest_has_all_expected_stages() {
    let path = manifest_path();
    let run = telemetry::install(
        telemetry::TelemetryConfig::new("sampled")
            .jsonl(&path)
            .profile(true)
            .meta("seed", 7)
            .meta("scale", "test"),
    )
    .expect("install");

    let space = DesignSpace::from_configs(
        DesignSpace::table1_reduced()
            .configs()
            .iter()
            .copied()
            .step_by(12)
            .collect(),
    );
    let cfg = SampledConfig {
        sampling_rates: vec![0.2],
        strategy: SamplingStrategy::Random,
        models: vec![ModelKind::LrB, ModelKind::NnS],
        sim: SimOptions::quick(),
        seed: 7,
        estimate_errors: true,
        export_models: None,
    };
    let result =
        try_run_sampled_dse(Benchmark::Mcf, &space, &cfg, None, None).expect("sampled run");
    assert_eq!(result.points.len(), 2);
    let summary = run.finish();

    let text = std::fs::read_to_string(&path).expect("manifest written");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("unparseable line: {e}\n{l}")))
        .collect();
    assert!(!lines.is_empty());

    // The meta header comes first and carries the install-time metadata.
    assert_eq!(lines[0].get("type").and_then(Value::as_str), Some("meta"));
    assert_eq!(
        lines[0].get("label").and_then(Value::as_str),
        Some("sampled")
    );
    assert_eq!(lines[0].get("seed").and_then(Value::as_u64), Some(7));
    assert_eq!(
        lines[0].get("schema").and_then(Value::as_str),
        Some("perfpredict.telemetry/v1")
    );

    // Every stage of the pipeline must appear as a span.
    let span_paths: BTreeSet<&str> = lines
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("span"))
        .map(|v| v.get("path").unwrap().as_str().unwrap())
        .collect();
    for expected in [
        "sampled_dse",
        "sampled_dse/sweep",
        "sampled_dse/sweep/materialize",
        "sampled_dse/rate",
        "sampled_dse/rate/model",
        "sampled_dse/rate/model/fit",
        "sampled_dse/rate/model/fit/train",
        "sampled_dse/rate/model/predict",
        "sampled_dse/rate/model/estimate_error",
        "sampled_dse/rate/model/estimate_error/estimate",
        "sampled_dse/rate/model/estimate_error/estimate/fold",
    ] {
        assert!(
            span_paths.contains(expected),
            "span '{expected}' missing; got {span_paths:?}"
        );
    }

    // Every span's wall time is non-negative and finite.
    for v in &lines {
        if v.get("type").and_then(Value::as_str) == Some("span") {
            let wall = v.get("wall_ms").unwrap().as_f64().unwrap();
            assert!(wall >= 0.0 && wall.is_finite());
        }
    }

    // Per-model counters roll up into the manifest tail and the summary.
    let counters: BTreeSet<&str> = lines
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("counter"))
        .map(|v| v.get("name").unwrap().as_str().unwrap())
        .collect();
    for expected in [
        "sim/windows",
        "sim/cycles",
        "cache/l1d_accesses",
        "bpred/branches",
        "train/fits",
    ] {
        assert!(counters.contains(expected), "counter '{expected}' missing");
    }
    // 2 models × (1 full fit + 5 cross-validation fits) = 12 trainings.
    let fits = lines
        .iter()
        .find(|v| {
            v.get("type").and_then(Value::as_str) == Some("counter")
                && v.get("name").and_then(Value::as_str) == Some("train/fits")
        })
        .and_then(|v| v.get("value").unwrap().as_u64())
        .expect("train/fits counter");
    assert_eq!(fits, 12);
    assert_eq!(
        summary
            .counters
            .iter()
            .find(|(k, _)| k == "train/fits")
            .unwrap()
            .1,
        12
    );

    // The timing distributions land as histogram records that decode
    // back into the exact histograms the run accumulated.
    let hist_names: BTreeSet<&str> = lines
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("histogram"))
        .map(|v| v.get("name").unwrap().as_str().unwrap())
        .collect();
    for expected in ["sim/config_ns", "train/epoch_ns", "train/fold_fit_ns"] {
        assert!(
            hist_names.contains(expected),
            "histogram '{expected}' missing; got {hist_names:?}"
        );
    }
    for v in &lines {
        if v.get("type").and_then(Value::as_str) == Some("histogram") {
            let (name, h) = telemetry::Histogram::from_manifest(v).expect("histogram decodes");
            let (_, run_h) = summary
                .hists
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("summary missing histogram '{name}'"));
            assert_eq!(&h, run_h, "{name} manifest/summary mismatch");
            assert!(h.count() > 0, "{name} is empty");
        }
    }

    // The profiler aggregates the span tree into profile records whose
    // paths mirror the observed spans.
    let profile_paths: BTreeSet<&str> = lines
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("profile"))
        .map(|v| v.get("path").unwrap().as_str().unwrap())
        .collect();
    assert!(
        profile_paths.contains("sampled_dse"),
        "profile root missing; got {profile_paths:?}"
    );
    assert!(profile_paths.is_subset(&span_paths));
    for v in &lines {
        if v.get("type").and_then(Value::as_str) == Some("profile") {
            assert!(v.get("calls").unwrap().as_u64().unwrap() > 0);
            let total = v.get("total_ns").unwrap().as_u64().unwrap();
            let self_ns = v.get("self_ns").unwrap().as_u64().unwrap();
            assert!(self_ns <= total, "self exceeds total: {v:?}");
        }
    }

    // Progress ticks for the sweep, and the closing summary line.
    assert!(lines.iter().any(|v| {
        v.get("type").and_then(Value::as_str) == Some("progress")
            && v.get("name").and_then(Value::as_str) == Some("sweep")
    }));
    let last = lines.last().unwrap();
    assert_eq!(last.get("type").and_then(Value::as_str), Some("summary"));
    assert!(last.get("wall_ms").unwrap().as_f64().unwrap() > 0.0);

    std::fs::remove_file(&path).ok();
}
