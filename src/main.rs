//! `perfpredict` — command-line front end for the library.
//!
//! ```text
//! perfpredict simulate  <benchmark>                 one configuration, full stats
//! perfpredict sweep     <benchmark> [--step N]      design-space sweep summary over a
//!                       [--space S] [--shards N]    named space (table1, smoke, mega)
//!                       [--merged-out F]            on N workers
//! perfpredict adaptive  <benchmark> [--initial N]   query-by-committee active learning
//!                       [--batch N] [--rounds N]    with lazy simulation
//! perfpredict sampled   <benchmark> [--rate pct]    sampled-DSE experiment
//! perfpredict chrono    <family>    [--year Y]      chronological prediction
//! perfpredict export-model <benchmark> [--model K]  train + save a .ppmodel artifact
//! perfpredict serve     <model.ppmodel>             batched JSONL replay (stdin or --input)
//! perfpredict serve     --daemon [--preload n=p]…   long-lived multi-model daemon
//! perfpredict gen-requests <model.ppmodel>          synthetic JSONL workload
//! perfpredict perf-report --current <file>          compare metrics vs baselines
//! perfpredict families                              list SPEC populations
//! perfpredict benchmarks                            list workloads
//! ```
//!
//! Observability flags (any command):
//!
//! * `--trace` — verbose span/point logging to stderr (same as
//!   `PERFPREDICT_LOG=debug`).
//! * `--profile` — aggregate the span tree into a per-path self/total
//!   hot-path table on stderr at exit.
//! * `--metrics-out <path>` — write a JSON-lines run manifest with per-stage
//!   wall times, per-model train/predict timings, latency histograms, and
//!   cache/bpred counter rollups.
//! * `--json` — machine-readable result on stdout (simulate / sampled /
//!   chrono).
//! * `--checkpoint <path>` — (sweep / sampled) append completed work to a
//!   JSONL checkpoint and resume from it on restart; a killed run loses at
//!   most the work in flight.
//! * `--export-models <dir>` — (sampled / chrono) save every freshly
//!   trained model into `<dir>` as a versioned `.ppmodel` artifact.
//!
//! Exit codes: `0` success, `2` invalid usage/input (including daemon
//! protocol violations: oversized or non-UTF-8 frames), `3` I/O failure,
//! `4` corrupt checkpoint or model artifact, `5` numerical failure
//! (singular system, divergence, degenerate data, no viable model),
//! `6` perf-report regression verdict, `7` overloaded / deadline
//! exceeded (typed per-request rejections in daemon mode), `8` every
//! model version quarantined — the daemon's fail-closed termination.

use perfpredict::cpusim::{
    merged_jsonl, simulate, try_sweep_design_space, try_sweep_sharded, Benchmark, CpuConfig,
    DesignSpace, SimOptions, SpaceSpec,
};
use perfpredict::dse::adaptive::{try_run_adaptive, AdaptiveConfig, EvalMode};
use perfpredict::dse::chrono::{try_run_chronological, ChronoConfig};
use perfpredict::dse::data::try_table_from_sweep;
use perfpredict::dse::report::{f, render_trajectory, try_render_table};
use perfpredict::dse::sampled::{
    draw_sample, try_run_sampled_dse, SampledConfig, SamplingStrategy,
};
use perfpredict::error::{Error, Result};
use perfpredict::mlmodels::{self, ModelArtifact, ModelKind};
use perfpredict::serve::{generate_requests, Daemon, DaemonConfig, Registry, RegistryConfig};
use perfpredict::specdata::ProcessorFamily;
use perfpredict::telemetry::{self, json::JsonObject, ConsoleLevel, TelemetryConfig};

fn usage() -> ! {
    eprintln!(
        "usage: perfpredict <command> [args]\n\
         commands:\n\
           simulate  <benchmark>              simulate one baseline configuration\n\
           sweep     <benchmark> [--step N] [--space S]\n\
                     [--shards N] [--merged-out F]\n\
                                              sweep a design space (default: Table-1 at\n\
                                              step 16; --space table1|smoke|mega picks a\n\
                                              named space, --step applies to table1 only).\n\
                                              --shards N sets the worker count (default:\n\
                                              every core); --merged-out writes canonical\n\
                                              merged JSONL\n\
           adaptive  <benchmark> [--space S] [--initial N] [--batch N]\n\
                     [--rounds N] [--committee N] [--pool N]\n\
                     [--eval full|none|holdout=N] [--seed S]\n\
                                              active-learning DSE: simulate only the\n\
                                              committee-selected configurations\n\
           sampled   <benchmark> [--rate P]   sampled DSE at P%% (default 2)\n\
           chrono    <family> [--year Y]      train year Y (default 2005), predict Y+1\n\
           export-model <benchmark> [--model K] [--rate P] [--out F]\n\
                                              train one model on a P%% sample, save .ppmodel\n\
           serve     <model.ppmodel> [--input F] [--workers N] [--window N]\n\
                     [--cache-cap N]\n\
                                              batched one-shot replay of JSONL requests\n\
                                              (stdin unless --input) with LRU cache; stats\n\
                                              on stderr; the first invalid line exits 2\n\
           serve     --daemon [model.ppmodel] [--preload name=path]...\n\
                     [--socket P] [--input F] [--deadline-ms N]\n\
                     [--max-frame-bytes N] [--default-model NAME]\n\
                     [--workers N] [--window N] [--queue-cap N] [--cache-cap N]\n\
                                              long-lived multi-model daemon: framed JSONL\n\
                                              protocol (predict/load/reload/unload/status/\n\
                                              shutdown ops) on stdin or a unix socket\n\
           gen-requests <model.ppmodel> [--n N] [--distinct D] [--seed S]\n\
                                              emit a synthetic JSONL workload on stdout\n\
           perf-report [--current F]... [--baseline F]... [--threshold X]\n\
                                              compare bench/manifest metrics against\n\
                                              baselines; exit 6 on regression\n\
           families                           list SPEC processor populations\n\
           benchmarks                         list synthetic workloads\n\
         options (any command):\n\
           --trace                            verbose telemetry on stderr\n\
           --profile                          span-tree hot-path table on stderr at exit\n\
           --metrics-out <path>               write a JSON-lines run manifest\n\
           --json                             machine-readable result on stdout\n\
           --checkpoint <path>                (sweep/sampled) resumable JSONL checkpoint\n\
           --export-models <dir>              (sampled/chrono) save trained models as .ppmodel"
    );
    std::process::exit(2);
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse `--flag N` with a default, rejecting unparseable values instead
/// of silently falling back.
fn parse_number<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T> {
    match parse_flag(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| Error::invalid(format!("{flag} expects a number, got '{v}'"))),
    }
}

/// Remove a boolean flag from `args`, returning whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Collect every value of a repeatable `--flag value` pair, in order.
fn collect_values(args: &[String], flag: &str) -> Result<Vec<String>> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => values.push(v.clone()),
                None => return Err(Error::invalid(format!("{flag} requires a value"))),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(values)
}

/// Remove a `--flag value` pair from `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(Error::invalid(format!("{flag} requires a value")));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Build a design space from `--space` (table1 | smoke | mega) and
/// `--step` (a Table-1 decimation, meaningless for generated spaces).
fn space_arg(args: &[String]) -> Result<DesignSpace> {
    let name = parse_flag(args, "--space").unwrap_or_else(|| "table1".to_string());
    match name.as_str() {
        "table1" => {
            let step: usize = parse_number(args, "--step", 16)?;
            if step == 0 {
                return Err(Error::invalid("--step must be at least 1"));
            }
            Ok(DesignSpace::from_configs(
                DesignSpace::table1()
                    .configs()
                    .iter()
                    .copied()
                    .step_by(step)
                    .collect(),
            ))
        }
        "smoke" | "mega" => {
            if parse_flag(args, "--step").is_some() {
                return Err(Error::invalid("--step applies only to --space table1"));
            }
            let spec = if name == "smoke" {
                SpaceSpec::smoke()
            } else {
                SpaceSpec::mega()
            };
            DesignSpace::try_generate(&spec)
        }
        other => Err(Error::invalid(format!(
            "unknown space '{other}' — one of table1, smoke, mega"
        ))),
    }
}

fn benchmark_arg(args: &[String]) -> Result<Benchmark> {
    let name = args
        .first()
        .ok_or_else(|| Error::invalid("missing benchmark argument"))?;
    Benchmark::from_name(name).ok_or_else(|| {
        Error::invalid(format!(
            "unknown benchmark '{name}' — try `perfpredict benchmarks`"
        ))
    })
}

fn main() {
    match cli() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfpredict: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

fn cli() -> Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = take_switch(&mut args, "--trace");
    let profile = take_switch(&mut args, "--profile");
    let json_out = take_switch(&mut args, "--json");
    let metrics_out = take_value(&mut args, "--metrics-out")?;
    let checkpoint = take_value(&mut args, "--checkpoint")?;
    let export_models = take_value(&mut args, "--export-models")?;
    let Some(cmd) = args.first().cloned() else {
        usage()
    };
    let rest = &args[1..];

    // Install telemetry only when some sink will consume it, so plain CLI
    // runs keep the disabled fast path.
    let mut tcfg = TelemetryConfig::new(cmd.as_str())
        .meta("command", args.join(" "))
        .meta("seed", 42);
    if trace {
        tcfg = tcfg.console(ConsoleLevel::Debug);
    }
    if profile {
        tcfg = tcfg.profile(true);
    }
    if let Some(path) = &metrics_out {
        tcfg = tcfg.jsonl(path);
    }
    let run_handle = if tcfg.console > ConsoleLevel::Off || tcfg.jsonl_path.is_some() || profile {
        match telemetry::install(tcfg) {
            Ok(h) => Some(h),
            Err(e) => {
                let path = metrics_out.as_deref().unwrap_or("<none>");
                return Err(Error::io(
                    path,
                    std::io::Error::other(format!("cannot open metrics file: {e}")),
                ));
            }
        }
    } else {
        None
    };

    match cmd.as_str() {
        "benchmarks" => {
            for b in Benchmark::ALL12 {
                let p = b.profile();
                println!(
                    "{:8} {} footprint {:>5} KB, {} blocks",
                    b.name(),
                    if p.is_fp { "fp " } else { "int" },
                    p.data_footprint / 1024,
                    p.code_blocks,
                );
            }
        }
        "families" => {
            for fam in ProcessorFamily::ALL {
                let s = fam.paper_stats();
                let (y0, y1) = fam.year_span();
                println!(
                    "{:10} {:3} records, {}-{}, {} socket(s)",
                    fam.name(),
                    s.records,
                    y0,
                    y1,
                    fam.chips()
                );
            }
        }
        "simulate" => {
            let b = benchmark_arg(rest)?;
            let r = simulate(b, CpuConfig::baseline(), &SimOptions::default());
            let s = &r.stats;
            if json_out {
                println!(
                    "{}",
                    JsonObject::new()
                        .str("benchmark", b.name())
                        .num("cycles", r.cycles)
                        .uint("instructions", s.instructions)
                        .num("ipc", s.ipc())
                        .num(
                            "l1d_miss_rate",
                            s.l1d_misses as f64 / s.l1d_accesses.max(1) as f64
                        )
                        .num(
                            "l1i_miss_rate",
                            s.l1i_misses as f64 / s.l1i_accesses.max(1) as f64
                        )
                        .num("bpred_miss_rate", s.mispredict_rate())
                        .finish()
                );
            } else {
                println!("{} on the baseline configuration:", b.name());
                println!("  cycles        {:>12.0}", r.cycles);
                println!("  instructions  {:>12}", s.instructions);
                println!("  IPC           {:>12.3}", s.ipc());
                println!(
                    "  L1D miss rate {:>12.3}",
                    s.l1d_misses as f64 / s.l1d_accesses.max(1) as f64
                );
                println!(
                    "  L1I miss rate {:>12.3}",
                    s.l1i_misses as f64 / s.l1i_accesses.max(1) as f64
                );
                println!("  bpred miss    {:>12.3}", s.mispredict_rate());
            }
        }
        "sweep" => {
            let b = benchmark_arg(rest)?;
            let space = space_arg(rest)?;
            let workers: usize = parse_number(rest, "--shards", telemetry::default_workers())?;
            let merged_out = parse_flag(rest, "--merged-out");
            eprintln!("sweeping {} configurations…", space.len());
            let outcome = try_sweep_sharded(
                &space,
                b,
                &SimOptions::default(),
                workers,
                checkpoint.as_deref(),
            )?;
            if checkpoint.is_some() {
                eprintln!(
                    "checkpoint: {} restored, {} simulated",
                    outcome.restored, outcome.simulated
                );
            }
            let results = outcome.results;
            if let Some(path) = &merged_out {
                std::fs::write(path, merged_jsonl(&results)).map_err(|e| Error::io(path, e))?;
                eprintln!("merged results written to {path}");
            }
            let summary = perfpredict::cpusim::runner::summarize_sweep(&results);
            let mut by_cycles: Vec<_> = results.iter().collect();
            by_cycles.sort_by(|a, b| a.cycles.total_cmp(&b.cycles));
            println!(
                "{}: range {:.2}x, variation {:.3}",
                b.name(),
                summary.range,
                summary.variation
            );
            println!("fastest configurations:");
            for r in by_cycles.iter().take(3) {
                let c = &r.config;
                println!(
                    "  {:>10.0} cycles  L1I {:>2}K L1D {:>2}K L2 {:>4}K L3 {} {} w{}",
                    r.cycles,
                    c.l1i.size_kb,
                    c.l1d.size_kb,
                    c.l2.size_kb,
                    if c.l3.is_some() { "8M" } else { " -" },
                    c.bpred.name(),
                    c.width,
                );
            }
        }
        "adaptive" => {
            let b = benchmark_arg(rest)?;
            let space = space_arg(rest)?;
            let defaults = AdaptiveConfig::default();
            let eval = match parse_flag(rest, "--eval").as_deref() {
                None | Some("full") => EvalMode::FullSpace,
                Some("none") => EvalMode::AcquisitionOnly,
                Some(v) => match v.strip_prefix("holdout=").and_then(|k| k.parse().ok()) {
                    Some(k) => EvalMode::Holdout(k),
                    None => {
                        return Err(Error::invalid(format!(
                            "--eval expects full, none, or holdout=N, got '{v}'"
                        )))
                    }
                },
            };
            let cfg = AdaptiveConfig {
                initial: parse_number(rest, "--initial", defaults.initial)?,
                batch: parse_number(rest, "--batch", defaults.batch)?,
                rounds: parse_number(rest, "--rounds", defaults.rounds)?,
                committee: parse_number(rest, "--committee", defaults.committee)?,
                pool: parse_number(rest, "--pool", defaults.pool)?,
                eval,
                seed: parse_number(rest, "--seed", defaults.seed)?,
                ..defaults
            };
            eprintln!(
                "adaptive DSE on {} ({} configurations, budget {})…",
                b.name(),
                space.len(),
                cfg.initial + cfg.batch * cfg.rounds
            );
            let r = try_run_adaptive(b, &space, &cfg, None, checkpoint.as_deref())?;
            eprintln!("simulated {} configurations", r.simulated);
            if json_out {
                let points: Vec<String> = r
                    .trajectory
                    .iter()
                    .map(|p| {
                        let mut obj = JsonObject::new().usize("budget", p.budget);
                        if p.adaptive_error.is_finite() {
                            obj = obj.num("adaptive_error", p.adaptive_error);
                        }
                        if p.random_error.is_finite() {
                            obj = obj.num("random_error", p.random_error);
                        }
                        obj.finish()
                    })
                    .collect();
                println!(
                    "{}",
                    JsonObject::new()
                        .str("benchmark", b.name())
                        .usize("space_size", space.len())
                        .usize("simulated", r.simulated)
                        .raw("trajectory", &format!("[{}]", points.join(",")))
                        .finish()
                );
            } else {
                print!("{}", render_trajectory(&r.trajectory));
            }
        }
        "sampled" => {
            let b = benchmark_arg(rest)?;
            let rate: f64 = parse_number(rest, "--rate", 2.0)?;
            let space = DesignSpace::from_configs(
                DesignSpace::table1()
                    .configs()
                    .iter()
                    .copied()
                    .step_by(4)
                    .collect(),
            );
            let cfg = SampledConfig {
                sampling_rates: vec![rate / 100.0],
                strategy: SamplingStrategy::Random,
                models: ModelKind::FIGURE2_ORDER.to_vec(),
                sim: SimOptions::default(),
                seed: 42,
                estimate_errors: true,
                export_models: export_models.clone(),
            };
            eprintln!(
                "sampled DSE on {} ({} configs at {rate}%)…",
                b.name(),
                space.len()
            );
            let run = try_run_sampled_dse(b, &space, &cfg, None, checkpoint.as_deref())?;
            for d in &run.dropped {
                eprintln!(
                    "dropped {} at {:.0}%: {} ({})",
                    d.model.abbrev(),
                    d.rate * 100.0,
                    d.reason,
                    d.detail
                );
            }
            if json_out {
                let points: Vec<String> = run
                    .points
                    .iter()
                    .map(|p| {
                        let mut obj = JsonObject::new()
                            .str("model", p.model.abbrev())
                            .num("rate", p.rate)
                            .usize("sample_size", p.sample_size)
                            .num("true_error", p.true_error)
                            .num("true_error_std", p.true_error_std);
                        if let Some(est) = &p.estimated {
                            obj = obj
                                .num("estimated_mean", est.mean)
                                .num("estimated_max", est.max);
                        }
                        obj.finish()
                    })
                    .collect();
                println!(
                    "{}",
                    JsonObject::new()
                        .str("benchmark", b.name())
                        .usize("space_size", run.space_size)
                        .num("range", run.range)
                        .num("variation", run.variation)
                        .raw("points", &format!("[{}]", points.join(",")))
                        .finish()
                );
            } else {
                let rows: Vec<Vec<String>> = run
                    .points
                    .iter()
                    .map(|p| {
                        vec![
                            p.model.abbrev().to_string(),
                            f(p.true_error, 2),
                            p.estimated
                                .map(|est| f(est.max, 2))
                                .unwrap_or_else(|| "-".to_string()),
                        ]
                    })
                    .collect();
                print!(
                    "{}",
                    try_render_table(
                        &["model".into(), "true err %".into(), "estimated %".into()],
                        &rows,
                    )?
                );
            }
        }
        "chrono" => {
            let name = rest
                .first()
                .ok_or_else(|| Error::invalid("missing family argument"))?;
            let fam = ProcessorFamily::from_name(name).ok_or_else(|| {
                Error::invalid(format!(
                    "unknown family '{name}' — try `perfpredict families`"
                ))
            })?;
            let year: u32 = parse_number(rest, "--year", 2005)?;
            let cfg = ChronoConfig {
                train_year: year,
                models: ModelKind::FIGURE7_ORDER.to_vec(),
                data_seed: 42,
                seed: 42,
                estimate_errors: false,
                export_models: export_models.clone(),
            };
            let r = try_run_chronological(fam, &cfg)?;
            for d in &r.dropped {
                eprintln!("dropped {}: {} ({})", d.kind.abbrev(), d.reason, d.detail);
            }
            if json_out {
                let points: Vec<String> = r
                    .points
                    .iter()
                    .map(|p| {
                        JsonObject::new()
                            .str("model", p.model.abbrev())
                            .num("error_mean", p.error_mean)
                            .num("error_std", p.error_std)
                            .finish()
                    })
                    .collect();
                println!(
                    "{}",
                    JsonObject::new()
                        .str("family", fam.name())
                        .uint("train_year", u64::from(year))
                        .usize("n_train", r.n_train)
                        .usize("n_test", r.n_test)
                        .raw("points", &format!("[{}]", points.join(",")))
                        .finish()
                );
            } else {
                println!(
                    "{}: train {} ({} records) -> predict {} ({} records)",
                    fam.name(),
                    year,
                    r.n_train,
                    year + 1,
                    r.n_test
                );
                let rows: Vec<Vec<String>> = r
                    .points
                    .iter()
                    .map(|p| {
                        vec![
                            p.model.abbrev().to_string(),
                            f(p.error_mean, 2),
                            f(p.error_std, 2),
                        ]
                    })
                    .collect();
                print!(
                    "{}",
                    try_render_table(&["model".into(), "err %".into(), "std".into()], &rows)?
                );
            }
        }
        "export-model" => {
            let b = benchmark_arg(rest)?;
            let rate: f64 = parse_number(rest, "--rate", 5.0)?;
            if !(rate > 0.0 && rate <= 100.0) {
                return Err(Error::invalid(format!(
                    "--rate must be in (0, 100], got {rate}"
                )));
            }
            let kind_name = parse_flag(rest, "--model").unwrap_or_else(|| "NN-E".to_string());
            let kind = ModelKind::from_abbrev(&kind_name).ok_or_else(|| {
                Error::invalid(format!(
                    "unknown model '{kind_name}' — one of {}",
                    ModelKind::ALL
                        .iter()
                        .map(|k| k.abbrev())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            let seed: u64 = parse_number(rest, "--seed", 42)?;
            let out = parse_flag(rest, "--out")
                .unwrap_or_else(|| format!("{}_{}.ppmodel", b.name(), kind.abbrev()));
            let space = DesignSpace::from_configs(
                DesignSpace::table1()
                    .configs()
                    .iter()
                    .copied()
                    .step_by(4)
                    .collect(),
            );
            eprintln!(
                "export-model: sweeping {} configurations of {}…",
                space.len(),
                b.name()
            );
            let outcome =
                try_sweep_design_space(&space, b, &SimOptions::default(), checkpoint.as_deref())?;
            let full = try_table_from_sweep(&outcome.results)?;
            let n = full.n_rows();
            let k = ((n as f64 * rate / 100.0).round() as usize).max(8).min(n);
            let rows = draw_sample(SamplingStrategy::Random, &outcome.results, n, k, seed)?;
            let sample = full.select_rows(&rows);
            let model = mlmodels::try_train(kind, &sample, seed)?;
            let artifact = ModelArtifact::from_training(model, &sample);
            artifact.save(&out)?;
            if json_out {
                println!(
                    "{}",
                    JsonObject::new()
                        .str("benchmark", b.name())
                        .str("model", kind.abbrev())
                        .usize("sample_size", sample.n_rows())
                        .usize("space_size", n)
                        .str("path", &out)
                        .finish()
                );
            } else {
                println!(
                    "trained {} on {}/{} rows of {}, saved {out}",
                    kind.abbrev(),
                    sample.n_rows(),
                    n,
                    b.name()
                );
            }
        }
        "serve" => {
            // One request loop for both modes: one-shot replays a finite
            // stream through the daemon's window path with the artifact
            // preloaded as its only model, and exits at EOF.
            let daemon_mode = rest.iter().any(|a| a == "--daemon");
            let daemon_only = [
                "--preload",
                "--socket",
                "--deadline-ms",
                "--max-frame-bytes",
                "--default-model",
                "--queue-cap",
            ];
            if !daemon_mode {
                if let Some(flag) = rest.iter().find(|a| daemon_only.contains(&a.as_str())) {
                    return Err(Error::invalid(format!(
                        "{flag} is daemon-only (serve --daemon); one-shot serve holds one window"
                    )));
                }
            }
            let defaults = DaemonConfig::default();
            // One-shot replay keeps its larger default window.
            let window = parse_number(
                rest,
                "--window",
                if daemon_mode { defaults.window } else { 256 },
            )?;
            let config = DaemonConfig {
                window,
                queue_cap: parse_number(rest, "--queue-cap", defaults.queue_cap)?,
                workers: parse_number(rest, "--workers", defaults.workers)?,
                deadline_ms: match parse_flag(rest, "--deadline-ms") {
                    None => None,
                    Some(v) => Some(v.parse().map_err(|_| {
                        Error::invalid(format!("--deadline-ms expects a number, got '{v}'"))
                    })?),
                },
                max_frame_bytes: parse_number(rest, "--max-frame-bytes", defaults.max_frame_bytes)?,
                default_model: parse_flag(rest, "--default-model"),
            };
            let registry_defaults = RegistryConfig::default();
            let mut registry = Registry::new(RegistryConfig {
                cache_cap: parse_number(rest, "--cache-cap", registry_defaults.cache_cap)?,
                ..registry_defaults
            });
            // A corrupt preload is a startup error (exit 4): fail fast
            // before accepting traffic. Corruption *after* startup is
            // handled by quarantine instead.
            for spec in collect_values(rest, "--preload")? {
                let (name, path) = spec.split_once('=').ok_or_else(|| {
                    Error::invalid(format!("--preload expects name=path, got '{spec}'"))
                })?;
                let version = registry.load(name, path)?;
                eprintln!("daemon: preloaded {name}@{version} from {path}");
            }
            // The positional artifact is the first arg that is neither a
            // flag nor the value of a value-taking flag.
            let value_flags = [
                &daemon_only[..],
                &["--input", "--workers", "--window", "--cache-cap"],
            ]
            .concat();
            let mut positional = None;
            let mut args_iter = rest.iter();
            while let Some(arg) = args_iter.next() {
                if value_flags.contains(&arg.as_str()) {
                    let _ = args_iter.next();
                } else if !arg.starts_with("--") {
                    positional = Some(arg);
                    break;
                }
            }
            match positional {
                Some(path) => {
                    // Routes are named after the file; a stem that is not a
                    // valid route name falls back to "model".
                    let name = std::path::Path::new(path)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .filter(|s| !s.is_empty() && !s.contains('@'))
                        .unwrap_or("model")
                        .to_string();
                    let version = registry.load(&name, path)?;
                    if daemon_mode {
                        eprintln!("daemon: preloaded {name}@{version} from {path}");
                    }
                }
                None if !daemon_mode => {
                    return Err(Error::invalid("missing model-artifact argument"))
                }
                None => {}
            }
            let mut daemon = Daemon::new(config, registry)?;
            use std::io::BufRead;
            let input: Box<dyn BufRead + Send> = match parse_flag(rest, "--input") {
                Some(p) => {
                    let file = std::fs::File::open(&p).map_err(|e| Error::io(&p, e))?;
                    Box::new(std::io::BufReader::new(file))
                }
                None => Box::new(std::io::BufReader::new(std::io::stdin())),
            };
            let stats = match parse_flag(rest, "--socket") {
                Some(sock) => {
                    eprintln!("daemon: listening on unix socket {sock}");
                    daemon.run_socket(&sock)?
                }
                None if daemon_mode => {
                    let writer = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
                    daemon.run(input, writer)?
                }
                None => daemon.replay(input, &mut std::io::stdout().lock())?,
            };
            if json_out {
                eprintln!("{}", stats.to_json());
            } else {
                eprintln!(
                    "serve: {} requests ({} hits / {} misses), {} predictions in {} batches, \
                     {} shed, {} deadline misses, {} degraded rejects, {} invalid, \
                     {} control ops, p50 {:.3} ms, p99 {:.3} ms",
                    stats.requests,
                    stats.cache_hits,
                    stats.cache_misses,
                    stats.predictions,
                    stats.batches,
                    stats.shed,
                    stats.deadline_misses,
                    stats.degraded_rejects,
                    stats.invalid,
                    stats.control_ops,
                    stats.p50_ms,
                    stats.p99_ms
                );
            }
        }
        "perf-report" => {
            use std::path::Path;
            use telemetry::report::{compare, MetricSet};
            let currents = collect_values(rest, "--current")?;
            if currents.is_empty() {
                return Err(Error::invalid(
                    "perf-report requires at least one --current <file> \
                     (a bench BENCH_*.json or a --metrics-out manifest)",
                ));
            }
            let mut baselines = collect_values(rest, "--baseline")?;
            if baselines.is_empty() {
                // Default to the committed bench baselines that exist.
                baselines = ["selection", "nn", "dse", "serve", "sim"]
                    .iter()
                    .map(|b| format!("BENCH_{b}.json"))
                    .filter(|p| Path::new(p).exists())
                    .collect();
                if baselines.is_empty() {
                    return Err(Error::invalid(
                        "no --baseline given and no BENCH_*.json found in the \
                         working directory",
                    ));
                }
            }
            let threshold: f64 = parse_number(rest, "--threshold", 1.5)?;
            let mut current = MetricSet::new();
            for p in &currents {
                current.load(Path::new(p)).map_err(Error::invalid)?;
            }
            let mut baseline = MetricSet::new();
            for p in &baselines {
                baseline.load(Path::new(p)).map_err(Error::invalid)?;
            }
            let report = compare(&current, &baseline, threshold).map_err(Error::invalid)?;
            if json_out {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            if !report.passed() {
                let mut regressed = report.regressions();
                regressed.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
                return Err(Error::Regression {
                    metrics: regressed
                        .iter()
                        .map(|d| format!("{} {:.2}x", d.name, d.ratio))
                        .collect(),
                });
            }
        }
        "gen-requests" => {
            let path = rest
                .first()
                .ok_or_else(|| Error::invalid("missing model-artifact argument"))?;
            let artifact = ModelArtifact::load(path)?;
            let n: usize = parse_number(rest, "--n", 1000)?;
            let distinct: usize = parse_number(rest, "--distinct", 32)?;
            let seed: u64 = parse_number(rest, "--seed", 42)?;
            let lines = generate_requests(&artifact.schema, n, distinct, seed)?;
            print!("{lines}");
        }
        _ => usage(),
    }

    if let Some(handle) = run_handle {
        let summary = handle.finish();
        if let Some(path) = &metrics_out {
            eprintln!("{} (manifest: {path})", summary.one_line());
        }
        if profile && !summary.profile.is_empty() {
            eprint!("{}", telemetry::profile::render_table(&summary.profile));
        }
    }
    Ok(())
}
