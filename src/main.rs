//! `perfpredict` — command-line front end for the library. Each verb's
//! positionals and flags are one table in [`perfpredict::cli`]; run it
//! without arguments for the usage text rendered from those tables.
//! Exit codes are the `fault::Error::exit_code` table (DESIGN.md §7).

use perfpredict::cli::{self, DAEMON_ONLY};
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
use perfpredict::error::args::{self, Args};
use perfpredict::error::{Error, Result};
use perfpredict::mlmodels::{self, ModelArtifact, ModelKind};
use perfpredict::serve::{generate_requests, Daemon, DaemonConfig, Registry, RegistryConfig};
use perfpredict::specdata::ProcessorFamily;
use perfpredict::telemetry::{self, json::JsonObject, ConsoleLevel, TelemetryConfig};

fn usage() -> ! {
    eprint!("{}", cli::usage());
    std::process::exit(2);
}

/// Build a design space from `--space` (table1 | smoke | mega) and
/// `--step` (a Table-1 decimation, meaningless for generated spaces).
fn space_arg(args: &Args) -> Result<DesignSpace> {
    let name = args.value("--space").unwrap_or("table1");
    match name {
        "table1" => {
            let step: usize = args.num("--step")?.unwrap_or(16);
            if step == 0 {
                return Err(Error::invalid("--step must be at least 1"));
            }
            Ok(DesignSpace::table1_every(step))
        }
        "smoke" | "mega" => {
            if args.has("--step") {
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

fn benchmark_arg(args: &Args) -> Result<Benchmark> {
    let name = args.positional(0).unwrap_or_default();
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let Some(spec) = cli::verb(cmd) else { usage() };
    let args = args::parse(spec, rest)?;
    let json_out = args.has("--json");
    let checkpoint = args.value("--checkpoint");
    let export_models = args.value("--export-models").map(String::from);

    // Install telemetry only when some sink will consume it, so plain CLI
    // runs keep the disabled fast path.
    let tcfg = args.telemetry(
        TelemetryConfig::new(cmd.as_str())
            .meta("command", argv.join(" "))
            .meta("seed", 42),
    );
    let run_handle =
        if tcfg.console > ConsoleLevel::Off || tcfg.jsonl_path.is_some() || tcfg.profile {
            Some(args::install(tcfg)?)
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
            let b = benchmark_arg(&args)?;
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
            let b = benchmark_arg(&args)?;
            let space = space_arg(&args)?;
            let workers = args
                .num("--shards")?
                .unwrap_or_else(telemetry::default_workers);
            let merged_out = args.value("--merged-out");
            eprintln!("sweeping {} configurations…", space.len());
            let outcome =
                try_sweep_sharded(&space, b, &SimOptions::default(), workers, checkpoint)?;
            if checkpoint.is_some() {
                eprintln!(
                    "checkpoint: {} restored, {} simulated",
                    outcome.restored, outcome.simulated
                );
            }
            let results = outcome.results;
            if let Some(path) = merged_out {
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
            let b = benchmark_arg(&args)?;
            let space = space_arg(&args)?;
            let defaults = AdaptiveConfig::default();
            let eval = match args.value("--eval").unwrap_or("full") {
                "full" => EvalMode::FullSpace,
                "none" => EvalMode::AcquisitionOnly,
                v => match v.strip_prefix("holdout=").and_then(|k| k.parse().ok()) {
                    Some(k) => EvalMode::Holdout(k),
                    None => {
                        return Err(Error::invalid(format!(
                            "--eval expects full, none, or holdout=N, got '{v}'"
                        )))
                    }
                },
            };
            let cfg = AdaptiveConfig {
                initial: args.num("--initial")?.unwrap_or(defaults.initial),
                batch: args.num("--batch")?.unwrap_or(defaults.batch),
                rounds: args.num("--rounds")?.unwrap_or(defaults.rounds),
                committee: args.num("--committee")?.unwrap_or(defaults.committee),
                pool: args.num("--pool")?.unwrap_or(defaults.pool),
                eval,
                seed: args.num("--seed")?.unwrap_or(defaults.seed),
                ..defaults
            };
            eprintln!(
                "adaptive DSE on {} ({} configurations, budget {})…",
                b.name(),
                space.len(),
                cfg.initial + cfg.batch * cfg.rounds
            );
            let r = try_run_adaptive(b, &space, &cfg, None, checkpoint)?;
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
            let b = benchmark_arg(&args)?;
            let rate: f64 = args.num("--rate")?.unwrap_or(2.0);
            let space = DesignSpace::table1_every(4);
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
            let run = try_run_sampled_dse(b, &space, &cfg, None, checkpoint)?;
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
            let name = args.positional(0).unwrap_or_default();
            let fam = ProcessorFamily::from_name(name).ok_or_else(|| {
                Error::invalid(format!(
                    "unknown family '{name}' — try `perfpredict families`"
                ))
            })?;
            let year: u32 = args.num("--year")?.unwrap_or(2005);
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
            let b = benchmark_arg(&args)?;
            let rate: f64 = args.num("--rate")?.unwrap_or(5.0);
            if !(rate > 0.0 && rate <= 100.0) {
                return Err(Error::invalid(format!(
                    "--rate must be in (0, 100], got {rate}"
                )));
            }
            let kind_name = args.value("--model").unwrap_or("NN-E");
            let kind = ModelKind::from_abbrev(kind_name).ok_or_else(|| {
                Error::invalid(format!(
                    "unknown model '{kind_name}' — one of {}",
                    ModelKind::ALL
                        .iter()
                        .map(|k| k.abbrev())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            let seed: u64 = args.num("--seed")?.unwrap_or(42);
            let out = args.value("--out").map_or_else(
                || format!("{}_{}.ppmodel", b.name(), kind.abbrev()),
                String::from,
            );
            let space = DesignSpace::table1_every(4);
            eprintln!(
                "export-model: sweeping {} configurations of {}…",
                space.len(),
                b.name()
            );
            let outcome = try_sweep_design_space(&space, b, &SimOptions::default(), checkpoint)?;
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
            let daemon_mode = args.has("--daemon");
            if !daemon_mode {
                if let Some(flag) = DAEMON_ONLY.iter().find(|f| args.has(f.name)) {
                    return Err(Error::invalid(format!(
                        "{} is daemon-only (serve --daemon); one-shot serve holds one window",
                        flag.name
                    )));
                }
            }
            let defaults = DaemonConfig::default();
            // One-shot replay keeps its larger default window.
            let window = if daemon_mode { defaults.window } else { 256 };
            let config = DaemonConfig {
                window: args.num("--window")?.unwrap_or(window),
                queue_cap: args.num("--queue-cap")?.unwrap_or(defaults.queue_cap),
                workers: args.num("--workers")?.unwrap_or(defaults.workers),
                deadline_ms: args.num("--deadline-ms")?,
                max_frame_bytes: args
                    .num("--max-frame-bytes")?
                    .unwrap_or(defaults.max_frame_bytes),
                default_model: args.value("--default-model").map(String::from),
            };
            let registry_defaults = RegistryConfig::default();
            let mut registry = Registry::new(RegistryConfig {
                cache_cap: args
                    .num("--cache-cap")?
                    .unwrap_or(registry_defaults.cache_cap),
                ..registry_defaults
            });
            // A corrupt preload is a startup error (exit 4): fail fast
            // before accepting traffic. Corruption *after* startup is
            // handled by quarantine instead.
            for spec in args.values("--preload") {
                let (name, path) = spec.split_once('=').ok_or_else(|| {
                    Error::invalid(format!("--preload expects name=path, got '{spec}'"))
                })?;
                let version = registry.load(name, path)?;
                eprintln!("daemon: preloaded {name}@{version} from {path}");
            }
            match args.positional(0) {
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
            // The daemon reads its input in large blocks itself.
            let input: Box<dyn std::io::Read + Send> = match args.value("--input") {
                Some(p) => Box::new(std::fs::File::open(p).map_err(|e| Error::io(p, e))?),
                None => Box::new(std::io::stdin()),
            };
            let stats = match args.value("--socket") {
                Some(sock) => {
                    eprintln!("daemon: listening on unix socket {sock}");
                    daemon.run_socket(sock)?
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
            let currents = args.values("--current");
            if currents.is_empty() {
                return Err(Error::invalid(
                    "perf-report requires at least one --current <file> \
                     (a bench BENCH_*.json or a --metrics-out manifest)",
                ));
            }
            let mut baselines: Vec<String> = args
                .values("--baseline")
                .into_iter()
                .map(String::from)
                .collect();
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
            let threshold: f64 = args.num("--threshold")?.unwrap_or(1.5);
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
            let artifact = ModelArtifact::load(args.positional(0).unwrap_or_default())?;
            let n: usize = args.num("--n")?.unwrap_or(1000);
            let distinct: usize = args.num("--distinct")?.unwrap_or(32);
            let seed: u64 = args.num("--seed")?.unwrap_or(42);
            let lines = generate_requests(&artifact.schema, n, distinct, seed)?;
            print!("{lines}");
        }
        _ => usage(),
    }

    if let Some(handle) = run_handle {
        let summary = handle.finish();
        if let Some(path) = args.value("--metrics-out") {
            eprintln!("{} (manifest: {path})", summary.one_line());
        }
        if args.has("--profile") && !summary.profile.is_empty() {
            eprint!("{}", telemetry::profile::render_table(&summary.profile));
        }
    }
    Ok(())
}
