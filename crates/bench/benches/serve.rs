//! Serving-layer throughput: one-shot JSONL replay through
//! `Daemon::replay` (DESIGN.md §9) against pre-trained artifacts.
//!
//! Training, workload synthesis and registry loading happen outside the
//! timed region, so the numbers are pure serve cost — parse, validate,
//! cache probe, batch assembly, matrix-form predict, ordered emit. Two
//! stream shapes per model: `cached` (2 000 requests over 32 distinct
//! configs, the steady-state surrogate-query case) and `cold` (cache
//! disabled, every request pays a prediction). Before timing, the harness asserts the
//! replay is byte-identical across 1, 2 and 4 worker threads. The
//! compiled predictors' bit-identity to the interpreted model is a
//! property test (`crates/serve/tests/compiled_prop.rs`), not a bench
//! row.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlmodels::table::Table;
use mlmodels::{try_train, ModelArtifact, ModelKind};
use serve::{generate_requests, Daemon, DaemonConfig, DaemonStats, Registry, RegistryConfig};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const REQUESTS: usize = 2_000;
const DISTINCT: usize = 32;

/// Deterministic training table shaped like the paper's design space:
/// numeric lattice columns, a flag, a categorical, linear-ish target.
fn training_table() -> Table {
    let n = 256;
    let l1 = [8.0, 16.0, 32.0, 64.0];
    let l2 = [256.0, 512.0, 1024.0, 2048.0];
    let width = [2.0, 4.0, 8.0];
    let xs1: Vec<f64> = (0..n).map(|i| l1[i % l1.len()]).collect();
    let xs2: Vec<f64> = (0..n).map(|i| l2[(i / 4) % l2.len()]).collect();
    let xs3: Vec<f64> = (0..n).map(|i| width[(i / 16) % width.len()]).collect();
    let flags: Vec<bool> = (0..n).map(|i| (i / 48) % 2 == 0).collect();
    let codes: Vec<u32> = (0..n).map(|i| ((i / 96) % 3) as u32).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            1e6 / (xs1[i].log2() + 0.01 * xs2[i].sqrt() + xs3[i])
                + if flags[i] { -2e4 } else { 0.0 }
                + codes[i] as f64 * 1e4
        })
        .collect();
    let mut t = Table::new();
    t.add_numeric("l1_kb", xs1)
        .add_numeric("l2_kb", xs2)
        .add_numeric("width", xs3)
        .add_flag("wrong_path", flags)
        .add_categorical(
            "bpred",
            codes,
            vec!["Bimodal".into(), "TwoLevel".into(), "Perfect".into()],
        )
        .set_target(y);
    t
}

/// A registry holding just the artifact at `path`, with an LRU cache of
/// `cache_cap` configurations (0 disables it).
fn registry(path: &str, cache_cap: usize) -> Registry {
    let mut registry = Registry::new(RegistryConfig {
        cache_cap,
        ..RegistryConfig::default()
    });
    registry.load("m", path).expect("registry load");
    registry
}

/// One-shot replay of `stream` at the one-shot default window: the
/// response bytes and the stats.
fn replay(registry: Registry, workers: usize, stream: &str) -> (Vec<u8>, DaemonStats) {
    let config = DaemonConfig {
        window: 256,
        workers,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(config, registry).expect("daemon config");
    let mut out = Vec::new();
    let stats = daemon.replay(stream.as_bytes(), &mut out).expect("replay");
    (out, stats)
}

/// Replay `stream` through a fresh long-lived daemon instance (reader
/// thread, admission queue, variable windows) over in-memory transport.
/// Each iteration pays artifact load, daemon construction and the full
/// request loop, i.e. the daemon's overhead over the one-shot replay.
fn daemon_replay(artifact_path: &str, stream: &str) -> DaemonStats {
    let mut registry = Registry::new(RegistryConfig::default());
    registry.load("m", artifact_path).expect("registry load");
    let config = DaemonConfig {
        window: 64,
        queue_cap: 4096,
        workers: 2,
        deadline_ms: None,
        max_frame_bytes: 1 << 20,
        default_model: Some("m".to_string()),
    };
    let mut daemon = Daemon::new(config, registry).expect("daemon config");
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    daemon
        .run(
            std::io::Cursor::new(stream.as_bytes().to_vec()),
            Arc::clone(&out),
        )
        .expect("daemon replay")
}

/// Replay once per worker count and assert byte-identical output across
/// worker counts, then record one representative timing into telemetry
/// counters.
fn assert_equivalence_and_record(path: &str, stream: &str, tag: &str) {
    let t0 = Instant::now();
    let (base, stats) = replay(registry(path, 4096), 1, stream);
    telemetry::counter_add(
        &format!("bench/serve_{tag}_2k_ns"),
        t0.elapsed().as_nanos() as u64,
    );
    assert_eq!(stats.requests as usize, REQUESTS, "every request answered");
    assert!(stats.cache_hits > 0, "cache-heavy stream must hit");
    for workers in [2, 4] {
        let (out, _) = replay(registry(path, 4096), workers, stream);
        assert_eq!(base, out, "{tag}: output differs at {workers} workers");
    }
}

fn bench_serve(c: &mut Criterion) {
    let table = training_table();
    let dir = std::env::temp_dir().join(format!("perfpredict-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let artifacts: Vec<(&str, ModelArtifact, String)> =
        [("lrb", ModelKind::LrB), ("nnq", ModelKind::NnQ)]
            .into_iter()
            .map(|(tag, kind)| {
                let model = try_train(kind, &table, 0x5E2).expect("training");
                let artifact = ModelArtifact::from_training(model, &table);
                let path = dir
                    .join(format!("{tag}.ppmodel"))
                    .to_string_lossy()
                    .into_owned();
                artifact.save(&path).expect("save artifact");
                (tag, artifact, path)
            })
            .collect();
    let stream =
        generate_requests(&artifacts[0].1.schema, REQUESTS, DISTINCT, 0x5E2).expect("workload");
    for (tag, _, path) in &artifacts {
        assert_equivalence_and_record(path, &stream, tag);
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    for (tag, _, path) in &artifacts {
        // Steady state: 32 distinct configs, ~98% of requests hit the LRU.
        group.bench_function(format!("replay_cached_{tag}"), |b| {
            b.iter_batched(
                || registry(path, 4096),
                |r| black_box(replay(r, 2, &stream)),
                BatchSize::LargeInput,
            )
        });
        // Cache disabled: every request pays parse + batch + predict.
        group.bench_function(format!("replay_cold_{tag}"), |b| {
            b.iter_batched(
                || registry(path, 0),
                |r| black_box(replay(r, 2, &stream)),
                BatchSize::LargeInput,
            )
        });
    }
    // Artifact decode path: bytes -> validated model, the per-process
    // startup cost of a serve worker.
    let bytes = artifacts[1].1.to_bytes().expect("serialize");
    group.bench_function("artifact_load_nnq", |b| {
        b.iter(|| black_box(ModelArtifact::from_bytes("<bench>", black_box(&bytes))))
    });

    // Daemon mode: the same cached replay through the long-lived request
    // loop — reader thread, admission queue, variable windows —
    // measuring the daemon's overhead over the one-shot replay.
    let lrb_path = &artifacts[0].2;
    let warm = daemon_replay(lrb_path, &stream);
    assert_eq!(
        warm.requests as usize, REQUESTS,
        "daemon answers every request"
    );
    assert_eq!(warm.shed, 0, "uncontended replay must not shed");
    group.bench_function("daemon_replay_cached_lrb", |b| {
        b.iter(|| black_box(daemon_replay(lrb_path, &stream)))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
