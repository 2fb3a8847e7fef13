//! The per-layer probe suite of a traced run.
//!
//! Each probe times the public calls of one layer from outside, on
//! inputs derived from `--seed` exactly like the workloads' own, so the
//! per-layer numbers of every traced run describe the same inputs
//! whichever workload it traced. No spans or counters are added inside
//! the crates; the `mlmodels` ratios come from counters the crates
//! already export through the public telemetry API.

use crate::serve::{phase_b, Kit};
use crate::spans::Recorder;
use crate::{ctx, stats, sweep, train, Checks, Options, Res};
use cpusim::core::{Core, PipelineStats};
use cpusim::trace::{Inst, ReplaySource, TraceGenerator};
use cpusim::{Benchmark, SimResult};
use linalg::dist::{child_seed, sample_indices, seeded_rng};
use linalg::Matrix;
use mlmodels::{ModelArtifact, ModelKind, Table};
use std::hint::black_box;
use std::time::Instant;
use telemetry::json::Value;

type Out = Vec<(String, f64)>;

fn push(out: &mut Out, name: impl Into<String>, v: f64) {
    out.push((name.into(), v));
}

/// Run every probe and return `(metric, value)` pairs.
pub fn run(opts: &Options, checks: &mut Checks) -> Res<Out> {
    let mut out = Out::new();
    cpusim_probe(opts.seed, checks, &mut out)?;
    mlmodels_probe(opts.seed, checks, &mut out)?;
    serve_probe(opts, checks, &mut out)?;
    Ok(out)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Trace windows a sweep replays, with their SimPoint weights.
struct Windows {
    traces: Vec<Vec<Inst>>,
    weights: Vec<f64>,
    /// Nanoseconds spent generating instructions, and how many.
    gen_ns: f64,
    generated: f64,
    /// SimPoint analysis time, when SimPoints are on.
    analyze_ms: Option<f64>,
}

/// The windows a sweep replays for `job`, built the way the simulator
/// materialises them: one window from the trace start, or the SimPoint
/// representatives in trace order with their weights.
fn windows(job: &sweep::Job) -> Windows {
    let len = job.opts.instructions as usize;
    let mut gen = TraceGenerator::for_benchmark(job.bench, job.opts.seed);
    if !job.opts.use_simpoints {
        let t = Instant::now();
        let trace = gen.take_vec(len);
        return Windows {
            traces: vec![trace],
            weights: vec![1.0],
            gen_ns: t.elapsed().as_secs_f64() * 1e9,
            generated: len as f64,
            analyze_ms: None,
        };
    }
    let t = Instant::now();
    let analysis = cpusim::simpoint::analyze(
        job.bench,
        job.opts.seed,
        job.opts.n_intervals,
        job.opts.instructions,
        job.opts.max_k,
    );
    let analyze_ms = Some(ms(t));
    let t = Instant::now();
    let (mut traces, mut weights, mut cursor) = (Vec::new(), Vec::new(), 0usize);
    for p in &analysis.points {
        while cursor < p.interval {
            for _ in 0..len {
                black_box(gen.next_inst());
            }
            cursor += 1;
        }
        traces.push(gen.take_vec(len));
        weights.push(p.weight);
        cursor += 1;
    }
    Windows {
        traces,
        weights,
        gen_ns: t.elapsed().as_secs_f64() * 1e9,
        generated: (cursor * len) as f64,
        analyze_ms,
    }
}

/// Host time and modelled counters of one benchmark's replays.
#[derive(Default)]
struct Replayed {
    run_ns: f64,
    stats: PipelineStats,
}

/// Replay every configuration of the sweep plan serially through
/// `Core::new` / `Core::run`, check the cycles match the parallel sweep
/// bit for bit, and time every piece.
fn cpusim_probe(seed: u64, checks: &mut Checks, out: &mut Out) -> Res<()> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let (mut gen_ns, mut gen_insts) = (0.0, 0.0);
    let (mut new_us, mut config_ms, mut analyze_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut serial_s, mut parallel_s) = (0.0, 0.0);
    let mut by_bench: std::collections::BTreeMap<&str, Replayed> = Default::default();
    for job in sweep::plan(seed)? {
        let t = Instant::now();
        let swept: Vec<SimResult> =
            cpusim::try_sweep_design_space(&job.space, job.bench, &job.opts, None)
                .map_err(ctx("probe sweep"))?
                .results;
        parallel_s += t.elapsed().as_secs_f64();

        let w = windows(&job);
        gen_ns += w.gen_ns;
        gen_insts += w.generated;
        analyze_ms.extend(w.analyze_ms);
        let acc = by_bench.entry(job.bench.name()).or_default();
        let sum = &mut acc.stats;
        for (config, expect) in job.space.configs().iter().zip(&swept) {
            let t_config = Instant::now();
            let mut weighted = 0.0;
            for (i, (trace, &weight)) in w.traces.iter().zip(&w.weights).enumerate() {
                let t = Instant::now();
                let mut core = Core::new(*config);
                new_us.push(t.elapsed().as_secs_f64() * 1e6);
                let mut src = ReplaySource::new(trace, child_seed(job.opts.seed, i as u64));
                let t = Instant::now();
                let s = core.run(&mut src, trace.len() as u64);
                acc.run_ns += t.elapsed().as_secs_f64() * 1e9;
                weighted += weight * s.cycles as f64;
                for (field, v) in [
                    (&mut sum.l1d_accesses, s.l1d_accesses),
                    (&mut sum.l1d_misses, s.l1d_misses),
                    (&mut sum.l2_accesses, s.l2_accesses),
                    (&mut sum.l2_misses, s.l2_misses),
                    (&mut sum.branches, s.branches),
                    (&mut sum.mispredicts, s.mispredicts),
                    (&mut sum.cycles, s.cycles),
                    (&mut sum.instructions, s.instructions),
                ] {
                    *field += v;
                }
            }
            config_ms.push(ms(t_config));
            serial_s += t_config.elapsed().as_secs_f64();
            checks.check(weighted.to_bits() == expect.cycles.to_bits(), || {
                format!(
                    "{}: serial replay gives {weighted} cycles, the sweep {}",
                    job.bench.name(),
                    expect.cycles
                )
            });
        }
    }
    let rate = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    for (b, acc) in &by_bench {
        let s = &acc.stats;
        push(
            out,
            format!("cpusim.core_run_ns_per_inst.{b}"),
            acc.run_ns / s.instructions as f64,
        );
        if *b != "gcc" {
            push(
                out,
                format!("cpusim.host_ns_per_sim_cycle.{b}"),
                acc.run_ns / s.cycles as f64,
            );
        }
        push(
            out,
            format!("cpusim.ipc.{b}"),
            rate(s.instructions, s.cycles),
        );
        push(
            out,
            format!("cpusim.l1d_miss_rate.{b}"),
            rate(s.l1d_misses, s.l1d_accesses),
        );
        push(
            out,
            format!("cpusim.l2_miss_rate.{b}"),
            rate(s.l2_misses, s.l2_accesses),
        );
        push(
            out,
            format!("cpusim.mispredict_rate.{b}"),
            rate(s.mispredicts, s.branches),
        );
    }
    push(
        out,
        "cpusim.simpoint_analyze_ms",
        stats::median(&analyze_ms),
    );
    push(out, "cpusim.trace_gen_ns_per_inst", gen_ns / gen_insts);
    push(out, "cpusim.core_new_us", stats::median(&new_us));
    // 88 configurations: p85 is the highest percentile with ten beyond it.
    let sorted = stats::sorted(&config_ms);
    push(
        out,
        "cpusim.config_ms_p50",
        stats::percentile_sorted(&sorted, 0.5),
    );
    push(
        out,
        "cpusim.config_ms_p85",
        stats::percentile_sorted(&sorted, 0.85),
    );
    push(
        out,
        "cpusim.sweep_busy_frac",
        serial_s / (parallel_s * threads),
    );

    // One acquisition-sized batch of the explorer, through its lazy path.
    let space = crate::explore::space()?;
    let cfg = crate::explore::config(seed);
    let batch = space.seeded_pool(child_seed(seed, 10), cfg.batch);
    let mut batch_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        cpusim::try_simulate_indices(&space, Benchmark::Applu, &cfg.sim, &batch, None)
            .map_err(ctx("probe batch"))?;
        batch_ms.push(ms(t));
    }
    push(out, "cpusim.batch_sim_ms", stats::median(&batch_ms));
    Ok(())
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f()?);
        times.push(ms(t));
    }
    Ok((stats::median(&times), last.expect("reps is at least one")))
}

fn counter(summary: &telemetry::RunSummary, name: &str) -> f64 {
    summary
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Training, cross-validation, prediction and the two NN kernels, on the
/// `train` workload's dataset.
fn mlmodels_probe(seed: u64, checks: &mut Checks, out: &mut Out) -> Res<()> {
    let (_space, sweep, _sim) = train::dataset(seed)?;
    let (t_ms, table) = median_ms(5, || {
        dse::data::try_table_from_sweep(&sweep).map_err(ctx("table"))
    })?;
    push(out, "dse.table_from_sweep_ms", t_ms);
    let n = table.n_rows();
    let sample = |k: usize, stream: u64| -> Table {
        let rows = sample_indices(&mut seeded_rng(child_seed(seed, stream)), n, k.min(n));
        table.select_rows(&rows)
    };
    // The sample size of 5 % of Table 1.
    let rows_230 = sample(230, 11);

    // Counters exist only while a telemetry run is installed; install one
    // around the fits whose useful-work ratios are reported.
    let run = telemetry::install(
        telemetry::TelemetryConfig::new("perfbench-probe").console(telemetry::ConsoleLevel::Off),
    )
    .map_err(ctx("install telemetry"))?;
    let mut nne = None;
    for kind in ModelKind::FIGURE2_ORDER {
        let (train_ms, model) = median_ms(1, || {
            mlmodels::try_train(kind, &rows_230, child_seed(seed, 12)).map_err(ctx("probe fit"))
        })?;
        let (est_ms, est) = median_ms(1, || {
            mlmodels::crossval::try_estimate_error(kind, &rows_230, child_seed(seed, 13))
                .map_err(ctx("probe estimate"))
        })?;
        checks.check(est.max.is_finite(), || {
            format!("{}: non-finite error estimate", kind.abbrev())
        });
        push(
            out,
            format!("mlmodels.train_ms.{}", kind.abbrev()),
            train_ms,
        );
        push(
            out,
            format!("mlmodels.estimate_ms.{}", kind.abbrev()),
            est_ms,
        );
        if kind == ModelKind::NnE {
            nne = Some(model);
        }
    }
    let set =
        specdata::AnnouncementSet::generate(specdata::ProcessorFamily::Xeon, child_seed(seed, 2));
    let (xeon_2005, _) = set
        .try_chronological_split(2005)
        .map_err(ctx("Xeon 2005 split"))?;
    let xeon = dse::data::table_from_announcements(&xeon_2005);
    let (lrs_ms, _) = median_ms(3, || {
        mlmodels::try_train(ModelKind::LrS, &xeon, child_seed(seed, 3)).map_err(ctx("LR-S fit"))
    })?;
    push(out, "mlmodels.train_ms.LR-S", lrs_ms);
    let summary = run.finish();
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    push(
        out,
        "mlmodels.prune_accept_ratio",
        ratio(
            counter(&summary, "prune/accepted"),
            counter(&summary, "prune/rejected"),
        ),
    );
    push(
        out,
        "mlmodels.select_fast_ratio",
        ratio(
            counter(&summary, "select/cand_fast"),
            counter(&summary, "select/cand_oracle"),
        ),
    );
    push(
        out,
        "mlmodels.epochs_per_fit",
        counter(&summary, "train/epochs") / counter(&summary, "train/fits").max(1.0),
    );

    // The explorer's committee member: one fit at the final budget and
    // scoring a 2048-candidate pool.
    let acquired = sample(72, 14);
    let (nnq_ms, nnq) = median_ms(5, || {
        mlmodels::try_train(ModelKind::NnQ, &acquired, child_seed(seed, 15)).map_err(ctx("NN-Q"))
    })?;
    push(out, "mlmodels.train_ms.NN-Q", nnq_ms);
    let pool = sample(crate::explore::POOL, 16);
    let (q_ms, _) = median_ms(5, || nnq.try_predict(&pool).map_err(ctx("NN-Q predict")))?;
    push(
        out,
        "mlmodels.predict_us_per_krow.NN-Q",
        q_ms * 1e3 / (pool.n_rows() as f64 / 1e3),
    );
    let nne = nne.ok_or("NN-E was not trained")?;
    let (e_ms, _) = median_ms(5, || nne.try_predict(&table).map_err(ctx("NN-E predict")))?;
    push(
        out,
        "mlmodels.predict_us_per_krow.NN-E",
        e_ms * 1e3 / (n as f64 / 1e3),
    );

    // The NN-E training kernels at its shape: half the 230-row sample
    // trains, inputs are the encoded feature width, and the first hidden
    // layer starts at 1.5x the inputs (clamped to 8..=32).
    let p = nne.prep.features().len();
    let h = (3 * p / 2).clamp(8, 32);
    let rows = 115;
    let fill = |r: usize, c: usize, salt: usize| {
        Matrix::from_fn(r, c, |i, j| {
            ((i * 31 + j * 17 + salt) % 97) as f64 / 97.0 - 0.5
        })
    };
    let (x, w, delta) = (fill(rows, p, 1), fill(h, p, 2), fill(rows, h, 3));
    let bias = vec![0.1; h];
    let kernel_us = |f: &dyn Fn() -> Matrix| {
        let iters = 2000;
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    push(
        out,
        "linalg.affine_nt_us",
        kernel_us(&|| black_box(&x).affine_nt(black_box(&w), black_box(&bias))),
    );
    push(
        out,
        "linalg.matmul_tn_us",
        kernel_us(&|| black_box(&delta).matmul_tn(black_box(&x))),
    );
    Ok(())
}

/// Parse, predict and artifact load in-process, then the shipped binary:
/// a one-shot replay and a short open-loop session against the daemon.
fn serve_probe(opts: &Options, checks: &mut Checks, out: &mut Out) -> Res<()> {
    let dir = crate::work_dir(opts)?.join("probe");
    std::fs::create_dir_all(&dir).map_err(ctx("probe directory"))?;
    let mut kit = Kit::setup(opts.seed, dir, 10_000)?;
    let path = kit
        .nne
        .to_str()
        .ok_or("non-UTF-8 artifact path")?
        .to_string();
    let (load_ms, compiled) = median_ms(5, || {
        let a = ModelArtifact::load(&path).map_err(ctx("load"))?;
        serve::compile_with(a, serve::Precision::F64).map_err(ctx("compile"))
    })?;
    push(out, "serve.artifact_load_ms", load_ms);

    let schema = &compiled.artifact.schema;
    let lines = serve::generate_requests(schema, 4096, 4096, child_seed(opts.seed, 17))
        .map_err(ctx("probe requests"))?;
    let t = Instant::now();
    let requests = lines
        .lines()
        .enumerate()
        .map(|(i, l)| serve::parse_request_line(schema, l, i as u64 + 1))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ctx("parse"))?;
    push(
        out,
        "serve.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
    );
    let lrb_path = kit
        .lrb
        .to_str()
        .ok_or("non-UTF-8 artifact path")?
        .to_string();
    let lrb = ModelArtifact::load(&lrb_path)
        .and_then(|a| serve::compile_with(a, serve::Precision::F64))
        .map_err(ctx("LR-B"))?;
    for (name, model) in [("NN-E", &compiled), ("LR-B", &lrb)] {
        let refs: Vec<&serve::Request> = requests.iter().collect();
        let (p_ms, _) = median_ms(5, || {
            Ok(refs
                .chunks(256)
                .map(|w| black_box(model.predict_requests(w)).len())
                .sum::<usize>())
        })?;
        push(
            out,
            format!("serve.predict_us_per_row.{name}"),
            p_ms * 1e3 / refs.len() as f64,
        );
    }

    let replay = kit.replay(&kit.nne, &kit.cold, "2", "probe-replay")?;
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let requests_n = field(&replay.stats, "requests").max(1.0);
    push(
        out,
        "serve.cache_hit_ratio.replay",
        field(&replay.stats, "cache_hits") / requests_n,
    );
    push(
        out,
        "serve.mean_batch",
        requests_n / field(&replay.stats, "batches").max(1.0),
    );

    let expected = kit.oneshot_predictions()?;
    let rec = Recorder::new(&opts.workload, false);
    let lat = phase_b(&mut kit, &expected, 1.0, &[], 1.0, &rec, 0)?;
    let r = &lat.reference;
    checks.ops(r.sent as u64, r.failures() as u64);
    checks.check(r.mismatches == 0 && r.duplicates == 0, || {
        format!(
            "probe session: {} mismatched and {} duplicate responses",
            r.mismatches, r.duplicates
        )
    });
    let sorted = stats::sorted(&r.latency_ms);
    let daemon_p99 = field(&lat.daemon, "p99_ms");
    let daemon_requests = field(&lat.daemon, "requests").max(1.0);
    push(
        out,
        "serve.cache_hit_ratio.daemon",
        field(&lat.daemon, "cache_hits") / daemon_requests,
    );
    push(out, "serve.daemon_p99_ms", daemon_p99);
    push(
        out,
        "serve.transport_gap_p99_ms",
        stats::percentile_sorted(&sorted, 0.99) - daemon_p99,
    );
    push(out, "serve.shed", field(&lat.daemon, "shed"));
    push(
        out,
        "serve.deadline_misses",
        field(&lat.daemon, "deadline_misses"),
    );
    push(out, "serve.invalid", field(&lat.daemon, "invalid"));
    push(out, "serve.gen_late_ms_max", r.late_ms_max);
    push(out, "serve.daemon_rss_mb", lat.daemon_rss_mb);
    Ok(())
}
