//! Byte-identity gate for one-shot `serve`: pinned FNV-1a 64 digests of
//! the replay's response stream, plus the counters of its `--json` stats
//! line, for three seeded streams at 1, 2 and 4 workers.
//!
//! * `cold` — NN-E over a stream drawn from 3 000 sampled configurations,
//!   through a 1 024-entry cache (so it also evicts);
//! * `heavy` — LR-B over 40 configurations: almost every request hits;
//! * `mixed` — NN-E with blank and whitespace-only lines, numeric ids and
//!   missing ids (which default to the line number, blank lines counted).
//!
//! Windows are 256 requests, the one-shot default. The pins were computed
//! with the replay engine this entry point replaced and must never be
//! re-pinned to make a refactor pass: every byte, `cached` flags
//! included, is part of the contract.

use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use serve::{generate_requests, Daemon, DaemonConfig, Registry, RegistryConfig};
use telemetry::json::{self, Value};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A model over a design-space-shaped table: four numeric lattices, a
/// flag and a categorical.
fn artifact(kind: ModelKind) -> ModelArtifact {
    let n = 96;
    let speed: Vec<f64> = (0..n)
        .map(|i| 1000.0 + ((i * 7) % 32) as f64 * 50.0)
        .collect();
    let mem: Vec<f64> = (0..n)
        .map(|i| 200.0 + ((i * 5) % 12) as f64 * 33.0)
        .collect();
    let cache: Vec<f64> = (0..n)
        .map(|i| 16.0 * f64::from(1u32 << ((i * 3) % 7)))
        .collect();
    let width: Vec<f64> = (0..n).map(|i| [1.0, 2.0, 4.0, 8.0][(i * 5) % 4]).collect();
    let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let bpred: Vec<u32> = (0..n).map(|i| ((i / 2) % 3) as u32).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            speed[i] / 1000.0 * width[i].sqrt()
                + cache[i].ln() * 0.3
                + mem[i] / 400.0
                + if smt[i] { 0.4 } else { 0.0 }
                + f64::from(bpred[i]) * 0.25
        })
        .collect();
    let mut t = Table::new();
    t.add_numeric("speed", speed)
        .add_numeric("cache_kb", cache)
        .add_numeric("width", width)
        .add_numeric("mem_mhz", mem)
        .add_flag("smt", smt)
        .add_categorical(
            "bpred",
            bpred,
            vec!["perfect".into(), "bimodal".into(), "gshare".into()],
        )
        .set_target(y);
    ModelArtifact::from_training(try_train(kind, &t, 19).expect("train"), &t)
}

/// Rewrite a generated stream: a blank line before every 7th request, a
/// whitespace-only one before every 11th, numeric ids on every 4th
/// request from the second, and no id on every 4th from the third.
fn mixed_ids(text: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 7 == 3 {
            out.push('\n');
        }
        if i % 11 == 5 {
            out.push_str("   \n");
        }
        let body = line.split_once(',').map_or("", |(_, b)| b);
        match i % 4 {
            1 => out.push_str(&format!("{{\"id\":{},{body}\n", i as f64 * 0.5)),
            2 => out.push_str(&format!("{{{body}\n")),
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// One-shot replay of `input` at `workers`: the response bytes and the
/// `--json` stats line.
fn replay(path: &str, workers: usize, cache_cap: usize, input: &str) -> (Vec<u8>, String) {
    let mut registry = Registry::new(RegistryConfig {
        cache_cap,
        ..RegistryConfig::default()
    });
    registry.load("m", path).expect("load artifact");
    let config = DaemonConfig {
        window: 256,
        workers,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(config, registry).expect("config");
    let mut out = Vec::new();
    let stats = daemon.replay(input.as_bytes(), &mut out).expect("replay");
    (out, stats.to_json())
}

/// Per stream: name, response digest, response lines, and the stats
/// counters named in [`COUNTERS`], in that order.
type Pin = (&'static str, u64, usize, [u64; 8]);

const PINS: [Pin; 3] = [
    (
        "cold",
        0xafa0_0b13_5eff_dc7e,
        3000,
        [3000, 796, 2204, 2123, 12, 0, 0, 0],
    ),
    (
        "heavy",
        0x8435_61bb_0db6_8243,
        3000,
        [3000, 2744, 256, 40, 1, 0, 0, 0],
    ),
    (
        "mixed",
        0x9f8b_82a2_42d6_0fef,
        1500,
        [1500, 1054, 446, 299, 6, 0, 0, 0],
    ),
];

const COUNTERS: [&str; 8] = [
    "requests",
    "cache_hits",
    "cache_misses",
    "predictions",
    "batches",
    "shed",
    "deadline_misses",
    "degraded_rejects",
];

#[test]
fn one_shot_replay_matches_pinned_digests_and_counters() {
    let dir =
        std::env::temp_dir().join(format!("perfpredict-replay-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let nne = artifact(ModelKind::NnE);
    let lrb = artifact(ModelKind::LrB);
    let save = |art: &ModelArtifact, file: &str| {
        let path = dir.join(file).to_string_lossy().into_owned();
        art.save(&path).expect("save artifact");
        path
    };
    let (nne_path, lrb_path) = (save(&nne, "nne.ppmodel"), save(&lrb, "lrb.ppmodel"));
    let streams = [
        (
            &nne_path,
            1024,
            generate_requests(&nne.schema, 3000, 3000, 41).expect("cold stream"),
        ),
        (
            &lrb_path,
            4096,
            generate_requests(&lrb.schema, 3000, 40, 42).expect("heavy stream"),
        ),
        (
            &nne_path,
            4096,
            mixed_ids(&generate_requests(&nne.schema, 1500, 300, 43).expect("mixed stream")),
        ),
    ];
    for ((name, digest, lines, counters), (path, cache_cap, input)) in PINS.iter().zip(&streams) {
        for workers in [1, 2, 4] {
            let (out, stats) = replay(path, workers, *cache_cap, input);
            assert_eq!(
                fnv1a64(&out),
                *digest,
                "{name} at {workers} workers: response stream moved"
            );
            assert_eq!(
                out.iter().filter(|&&b| b == b'\n').count(),
                *lines,
                "{name}"
            );
            let v = json::parse(&stats).expect("stats line is JSON");
            for (key, want) in COUNTERS.iter().zip(counters) {
                let got = v.get(key).and_then(Value::as_u64);
                assert_eq!(
                    got,
                    Some(*want),
                    "{name} at {workers} workers: {key} in {stats}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
