//! `perfbench` — one end-to-end benchmark for the simulate → train →
//! explore → serve pipeline.
//!
//! ```text
//! perfbench --workload <sweep|train|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <result.json>]
//! perfbench compare <dirA> <dirB>
//! ```
//!
//! Run it from the repository root: the serve workload drives the
//! `perfpredict` binary built next to this one. Every input is generated
//! from `--seed`; the program under test sees only the generated inputs.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or the
//! per-layer ones with `--trace 1`); the lines before it are a readable
//! report. Any failed correctness check makes the exit code 1.

mod catalogue;
mod compare;
mod explore;
mod probes;
mod serve;
mod spans;
mod stats;
mod sweep;
mod train;

use spans::Recorder;
use std::time::Instant;
use telemetry::json::JsonObject;

/// Errors are reported as text and end the run with exit code 2.
pub type Res<T> = Result<T, String>;

/// Attach what was being done to any displayable error.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Set-ups per run: the reported `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line options of a benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget for the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where to write the full result as JSON.
    pub out: Option<String>,
}

/// Counts of attempted and failed operations, correctness checks
/// included: a failed check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Record `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each repetition of the timed phase.
    pub run_s: Vec<f64>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set of processes the workload started and that are
    /// gone by the end, MB (the serve daemon).
    pub child_rss_mb: f64,
    /// Workload-specific end-to-end metrics: name → per-repetition values.
    pub details: Vec<(&'static str, Vec<f64>)>,
    /// Identity strings the report prints (sweep digests); `compare`
    /// checks them seed by seed.
    pub notes: Vec<(&'static str, String)>,
    /// Measured summaries the report prints (the serve ladder); `compare`
    /// ignores them.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Add a workload-specific metric.
    pub fn detail(&mut self, name: &'static str, values: Vec<f64>) {
        self.details.push((name, values));
    }
}

/// One workload: an untimed set-up, a timed phase repeated for the run's
/// budget, and a closing phase that checks and summarises.
pub trait Workload: Sized {
    /// Fewest repetitions of the timed phase a run makes.
    const MIN_REPS: u32;
    /// Seconds of the run's budget left to the repetitions, when
    /// `finish` runs a measured phase of its own.
    fn rep_budget(seconds: f64) -> f64 {
        seconds
    }
    /// Build the inputs and start what the timed phase needs.
    fn setup(opts: &Options) -> Res<Self>;
    /// One repetition of the timed phase.
    fn rep(&mut self, rec: &Recorder, rep: u32, checks: &mut Checks) -> Res<()>;
    /// Cross-repetition checks, untimed phases and workload metrics.
    fn finish(self, rec: &Recorder, checks: &mut Checks, out: &mut Outcome) -> Res<()>;
}

/// Time repetitions of `rep` until `budget_s` has passed and at least
/// `min_reps` ran. Returns per-repetition wall seconds.
pub fn timed_reps(
    min_reps: u32,
    budget_s: f64,
    mut rep: impl FnMut(u32) -> Res<()>,
) -> Res<Vec<f64>> {
    let start = Instant::now();
    let mut wall = Vec::new();
    let mut i = 0u32;
    while i < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        rep(i)?;
        wall.push(t0.elapsed().as_secs_f64());
        i += 1;
    }
    Ok(wall)
}

/// Set up [`SETUP_REPS`] times (keeping the last), run the timed phase
/// for the budget and finish. A traced run splits the budget between an
/// untraced pass, which gives the reported numbers, and a traced pass
/// whose repetition times are returned for the overhead estimate.
fn drive<W: Workload>(
    opts: &Options,
    checks: &mut Checks,
    rec: &Recorder,
) -> Res<(Outcome, Vec<f64>)> {
    let mut out = Outcome::default();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so one daemon runs at a time.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(opts)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.expect("SETUP_REPS is at least one");
    let plain = Recorder::new(&opts.workload, false);
    let budget = W::rep_budget(if rec.on() {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    out.run_s = timed_reps(W::MIN_REPS, budget, |i| w.rep(&plain, i, checks))?;
    let mut traced = Vec::new();
    if rec.on() {
        let first = u32::try_from(out.run_s.len()).unwrap_or(u32::MAX);
        traced = timed_reps(W::MIN_REPS.min(2), budget, |i| {
            w.rep(rec, first + i, checks)
        })?;
    }
    w.finish(rec, checks, &mut out)?;
    Ok((out, traced))
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's scratch directory, inside the working directory so the run
/// reads and writes nothing outside its checkout. Removed when it ends.
fn work_path(opts: &Options) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        ".perfbench/{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ))
}

/// Create the run's scratch directory and return its path.
pub fn work_dir(opts: &Options) -> Res<std::path::PathBuf> {
    let dir = work_path(opts);
    std::fs::create_dir_all(&dir).map_err(ctx("create the work directory"))?;
    Ok(dir)
}

fn parse_args(args: &[String]) -> Res<Options> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(ctx("--seed"))?,
            "--seconds" => opts.seconds = value()?.parse().map_err(ctx("--seconds"))?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !catalogue::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got '{}'",
            catalogue::WORKLOADS,
            opts.workload
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", opts.seconds));
    }
    Ok(opts)
}

fn run_workload(opts: &Options, checks: &mut Checks, rec: &Recorder) -> Res<(Outcome, Vec<f64>)> {
    match opts.workload.as_str() {
        "sweep" => drive::<sweep::Sweep>(opts, checks, rec),
        "train" => drive::<train::Train>(opts, checks, rec),
        "explore" => drive::<explore::Explore>(opts, checks, rec),
        "serve" => drive::<serve::Serve>(opts, checks, rec),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// `{"name":{"value":v,"unit":u},…}` for every metric of `list`, taking
/// values from `measured`. A metric the run did not measure is an error:
/// the result line carries numbers only.
fn metrics_json(list: &[catalogue::Metric], measured: &[(String, f64)]) -> Res<String> {
    let mut obj = JsonObject::new();
    for m in list {
        let v = measured
            .iter()
            .find(|(n, _)| n == m.name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {} was not measured", m.name))?;
        obj = obj.raw(
            m.name,
            &JsonObject::new()
                .num("value", v)
                .str("unit", m.unit)
                .finish(),
        );
    }
    Ok(obj.finish())
}

/// Per-layer metrics of a traced run: the tracing overhead, each layer's
/// self time in the traced pass, and the probe suite. Writes the spans.
fn layer_metrics(
    opts: &Options,
    outcome: &Outcome,
    traced_run_s: &[f64],
    rec: &Recorder,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Res<Vec<(String, f64)>> {
    let base = stats::median(&outcome.run_s);
    let traced = stats::median(traced_run_s);
    let mut layer = vec![(
        "bench.trace_overhead_pct".to_string(),
        100.0 * (traced - base) / base,
    )];
    let spans = rec.spans();
    for (l, s) in spans::self_seconds_by_layer(&spans) {
        layer.push((format!("bench.self_s.{l}"), s));
    }
    layer.extend(probes::run(opts, checks)?);
    std::fs::create_dir_all(".perfbench").map_err(ctx("create .perfbench"))?;
    let path = format!(".perfbench/spans-{}-{}.jsonl", opts.workload, opts.seed);
    rec.write_jsonl(std::path::Path::new(&path))
        .map_err(ctx("write spans"))?;
    report.push(format!("  spans: {} written to {path}", spans.len()));
    for (name, v) in &layer {
        report.push(format!("  {name:<40} {v:.6}"));
    }
    Ok(layer)
}

fn run(opts: &Options) -> Res<bool> {
    let mut checks = Checks::default();
    let started = Instant::now();
    let rec = Recorder::new(&opts.workload, opts.trace);
    let (outcome, traced_run_s) = run_workload(opts, &mut checks, &rec)?;

    let series: Vec<(&str, &[f64])> = [
        ("run_s", &outcome.run_s[..]),
        ("setup_s", &outcome.setup_s[..]),
    ]
    .into_iter()
    .chain(outcome.details.iter().map(|(n, v)| (*n, &v[..])))
    .collect();
    let mut measured: Vec<(String, f64)> = series
        .iter()
        .map(|(n, v)| (n.to_string(), stats::median(v)))
        .collect();
    let rss = peak_rss_mb("self").max(outcome.child_rss_mb);
    measured.push(("peak_rss_mb".into(), rss));

    let mut report = vec![format!(
        "perfbench {} seed={} seconds={} trace={} reps={} setups={} wall={:.1}s threads={} peak_rss={rss:.1}MB",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.run_s.len(),
        outcome.setup_s.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, usize::from),
    )];
    report.extend(series.iter().map(|(n, v)| summary_line(n, v)));
    for (name, note) in outcome.notes.iter().chain(&outcome.info) {
        report.push(format!("  {name:<28} {note}"));
    }
    let layer = if opts.trace {
        layer_metrics(
            opts,
            &outcome,
            &traced_run_s,
            &rec,
            &mut checks,
            &mut report,
        )?
    } else {
        Vec::new()
    };
    for f in &checks.failures {
        report.push(format!("  CHECK FAILED: {f}"));
    }
    for line in &report {
        println!("{line}");
    }

    let correct = checks.failed == 0;
    let attempted = checks.attempted.max(1);
    let metrics = if opts.trace {
        metrics_json(catalogue::PER_LAYER, &layer)?
    } else {
        metrics_json(catalogue::END_TO_END, &measured)?
    };
    if let Some(path) = &opts.out {
        let mut all = JsonObject::new();
        for (n, v) in measured.iter().chain(&layer) {
            all = all.num(n, *v);
        }
        let mut reps = JsonObject::new();
        for (n, v) in &series {
            let vs: Vec<String> = v.iter().map(|x| telemetry::json::number(*x)).collect();
            reps = reps.raw(n, &format!("[{}]", vs.join(",")));
        }
        let strings = |pairs: &[(&str, String)]| {
            pairs
                .iter()
                .fold(JsonObject::new(), |o, (n, v)| o.str(n, v))
                .finish()
        };
        let full = JsonObject::new()
            .str("workload", &opts.workload)
            .uint("seed", opts.seed)
            .num("seconds", opts.seconds)
            .bool("trace", opts.trace)
            .bool("correct", correct)
            .uint("attempted", attempted)
            .uint("failed", checks.failed)
            .raw("metrics", &all.finish())
            .raw("reps", &reps.finish())
            .raw("notes", &strings(&outcome.notes))
            .raw("info", &strings(&outcome.info))
            .finish();
        std::fs::write(path, full + "\n").map_err(ctx("write --out"))?;
    }
    let last = JsonObject::new()
        .bool("correct", correct)
        .uint("attempted", attempted)
        .uint("failed", checks.failed)
        .raw("metrics", &metrics)
        .finish();
    println!("{last}");
    Ok(correct)
}

fn summary_line(name: &str, values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    let unit = catalogue::unit_of(name);
    format!(
        "  {name:<28} median {:>12.6} {unit:<8} q1 {q1:.6} q3 {q3:.6} n={}",
        stats::median(values),
        values.len()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match compare::run(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                0
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                2
            }
        }
    } else {
        let outcome = parse_args(&args).and_then(|opts| {
            let result = run(&opts);
            let _ = std::fs::remove_dir_all(work_path(&opts));
            result
        });
        match outcome {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}
