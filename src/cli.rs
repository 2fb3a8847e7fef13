//! The `perfpredict` verbs: one flag table each. The binary parses a
//! verb's arguments against its table with [`fault::args::parse`], and
//! [`usage`] is rendered from the same tables.

use fault::args::{Flag, Spec, OBSERVE};

const JSON: Flag = Flag::switch("--json");
const CHECKPOINT: Flag = Flag::value("--checkpoint", "F");
const EXPORT_MODELS: Flag = Flag::value("--export-models", "DIR");
const SPACE: Flag = Flag::value("--space", "table1|smoke|mega");
const STEP: Flag = Flag::value("--step", "N");
const SEED: Flag = Flag::value("--seed", "S");

/// Flags only `serve --daemon` accepts; one-shot `serve` rejects them.
pub const DAEMON_ONLY: &[Flag] = &[
    Flag::value("--preload", "NAME=PATH").repeat(),
    Flag::value("--socket", "P"),
    Flag::value("--deadline-ms", "N"),
    Flag::value("--max-frame-bytes", "N"),
    Flag::value("--default-model", "NAME"),
    Flag::value("--queue-cap", "N"),
];

/// Every verb's table, in usage order.
pub const VERBS: &[Spec<'static>] = &[
    Spec {
        usage: "simulate <benchmark>",
        about: "simulate one baseline configuration",
        flags: &[&[JSON], OBSERVE],
    },
    Spec {
        usage: "sweep <benchmark>",
        about: "sweep a design space (default table1, every 16th configuration) on \
                --shards workers (default: every core)",
        flags: &[
            &[
                STEP,
                SPACE,
                Flag::value("--shards", "N"),
                Flag::value("--merged-out", "F"),
                CHECKPOINT,
            ],
            OBSERVE,
        ],
    },
    Spec {
        usage: "adaptive <benchmark>",
        about: "active-learning DSE: simulate only committee-selected configurations",
        flags: &[
            &[
                SPACE,
                STEP,
                Flag::value("--initial", "N"),
                Flag::value("--batch", "N"),
                Flag::value("--rounds", "N"),
                Flag::value("--committee", "N"),
                Flag::value("--pool", "N"),
                Flag::value("--eval", "full|none|holdout=N"),
                SEED,
                JSON,
                CHECKPOINT,
            ],
            OBSERVE,
        ],
    },
    Spec {
        usage: "sampled <benchmark>",
        about: "sampled DSE at P% (default 2) of the space; --export-models saves every \
                trained model",
        flags: &[
            &[Flag::value("--rate", "P"), JSON, CHECKPOINT, EXPORT_MODELS],
            OBSERVE,
        ],
    },
    Spec {
        usage: "chrono <family>",
        about: "train on year Y's systems (default 2005), predict year Y+1",
        flags: &[&[Flag::value("--year", "Y"), JSON, EXPORT_MODELS], OBSERVE],
    },
    Spec {
        usage: "export-model <benchmark>",
        about: "train model K (default NN-E) on a P% sample (default 5, seed 42), save it \
                (default <benchmark>_<model>.ppmodel)",
        flags: &[
            &[
                Flag::value("--model", "K"),
                Flag::value("--rate", "P"),
                SEED,
                Flag::value("--out", "F"),
                JSON,
                CHECKPOINT,
            ],
            OBSERVE,
        ],
    },
    Spec {
        usage: "serve [model.ppmodel]",
        about: "replay JSONL requests (stdin unless --input) through one model; --daemon \
                runs the multi-model daemon, the only mode that takes --preload and the \
                flags after it",
        flags: &[
            &[
                Flag::switch("--daemon"),
                Flag::value("--input", "F"),
                Flag::value("--workers", "N"),
                Flag::value("--window", "N"),
                Flag::value("--cache-cap", "N"),
                JSON,
            ],
            DAEMON_ONLY,
            OBSERVE,
        ],
    },
    Spec {
        usage: "gen-requests <model.ppmodel>",
        about: "emit N synthetic JSONL requests (default 1000, over 32 distinct \
                configurations, seed 42) on stdout",
        flags: &[
            &[
                Flag::value("--n", "N"),
                Flag::value("--distinct", "D"),
                SEED,
            ],
            OBSERVE,
        ],
    },
    Spec {
        usage: "perf-report",
        about: "compare metrics against baselines (default: ./BENCH_*.json) with ratio \
                threshold X (default 1.5); exit 6 on regression",
        flags: &[
            &[
                Flag::value("--current", "F").repeat(),
                Flag::value("--baseline", "F").repeat(),
                Flag::value("--threshold", "X"),
                JSON,
            ],
            OBSERVE,
        ],
    },
    Spec {
        usage: "families",
        about: "list SPEC processor populations",
        flags: &[OBSERVE],
    },
    Spec {
        usage: "benchmarks",
        about: "list synthetic workloads",
        flags: &[OBSERVE],
    },
];

/// The table of verb `name`, if it is one.
pub fn verb(name: &str) -> Option<&'static Spec<'static>> {
    VERBS
        .iter()
        .find(|s| s.usage.split(' ').next() == Some(name))
}

/// The usage text, rendered from [`VERBS`].
pub fn usage() -> String {
    let mut out = String::from("usage: perfpredict <command> [args]\n");
    for spec in VERBS {
        out.push_str(&format!(
            "  {}\n      {}\n",
            spec.synopsis(OBSERVE),
            spec.about
        ));
    }
    let observe = Spec {
        usage: "options (any command):",
        about: "",
        flags: &[OBSERVE],
    };
    out + &observe.synopsis(&[]) + "\n"
}
