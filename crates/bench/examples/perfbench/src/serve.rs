//! `serve`: the shipped `perfpredict` binary serving trained artifacts,
//! with no simulation or training in the timed phases.
//!
//! Set-up sweeps Table-1 configurations 0, 16, 32, … (288) for `applu`,
//! trains NN-E and LR-B on them, saves both as `.ppmodel` artifacts,
//! generates the request streams with `serve::generate_requests` and
//! starts `perfpredict serve --daemon` with both models preloaded.
//!
//! * Phase A, throughput (the timed repetitions): a one-shot
//!   `perfpredict serve nne.ppmodel --input cold.jsonl` over 50k requests
//!   drawn from 50k sampled configurations — cold, parse- and
//!   predict-bound.
//! * Phase B, latency (once, after the repetitions): an open loop over
//!   one unix-socket connection sends requests at fixed intervals, drawn
//!   from a 4096-configuration pool so the daemon's cache is hot. A
//!   reference step runs at 4k req/s; a ladder of rates (2k, 3k, 4.5k, …,
//!   34k req/s) stops at the first step that misses the limit. Latency
//!   is timed from each request's scheduled send time.
//!
//! The load generator is this process: one sending thread, one receiving
//! thread and one connection.

use crate::spans::Recorder;
use crate::stats::{self, StepOutcome};
use crate::{ctx, peak_rss_mb, Checks, Options, Outcome, Res, Workload};
use cpusim::{Benchmark, DesignSpace, SimOptions, SpaceSpec};
use linalg::dist::child_seed;
use mlmodels::{ModelArtifact, ModelKind};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use telemetry::json::{self, Value};

/// Every `SETUP_STRIDE`-th Table-1 configuration is simulated to train on.
const SETUP_STRIDE: usize = 16;
/// Instructions per simulated configuration in set-up.
const SETUP_INSTRUCTIONS: u64 = 8_000;
/// Phase A requests, each from its own sampled configuration.
const REPLAY_N: usize = 50_000;
/// Distinct configurations Phase B draws from.
const POOL: usize = 4096;
/// Phase B frames generated from the pool (and cycled).
const POOL_FRAMES: usize = 16_384;
/// The reference step: rate and length (12k samples support p99.9).
const REF_RATE: f64 = 4000.0;
const REF_S: f64 = 3.0;
/// The ladder of open-loop rates, req/s.
const LADDER: [f64; 8] = [
    2000.0, 3000.0, 4500.0, 6750.0, 10_000.0, 15_000.0, 22_500.0, 34_000.0,
];
/// Length of each ladder step.
const STEP_S: f64 = 1.0;
/// A step passes when its p99 is at most this, with no failures and no
/// growing backlog.
pub const LIMIT_P99_MS: f64 = 5.0;
/// Worker threads of every `perfpredict` process the benchmark starts.
const WORKERS: &str = "2";

/// The `perfpredict` binary built next to this one.
pub fn perfpredict() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(ctx("locate perfbench"))?;
    let bin = exe.with_file_name("perfpredict");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it first (cargo build --release --bin perfpredict)",
            bin.display()
        ))
    }
}

fn path_str(p: &Path) -> Res<&str> {
    p.to_str().ok_or(format!("non-UTF-8 path {}", p.display()))
}

/// A running `perfpredict serve --daemon`. Dropping it kills the process
/// and waits for it, so no run leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
    err: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path, nne: &Path, lrb: &Path) -> Res<Daemon> {
        let sock = dir.join("d.sock");
        let err = dir.join("daemon.err");
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(perfpredict()?)
            .args(["serve", "--daemon", "--json", "--workers", WORKERS])
            .arg("--preload")
            .arg(format!("nne={}", path_str(nne)?))
            .arg("--preload")
            .arg(format!("lrb={}", path_str(lrb)?))
            .arg("--socket")
            .arg(&sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&err).map_err(ctx("daemon stderr"))?)
            .spawn()
            .map_err(ctx("start the daemon"))?;
        let mut d = Daemon {
            child: Some(child),
            sock,
            err,
        };
        // Ready once the socket answers a status frame.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(conn) = UnixStream::connect(&d.sock) {
                let mut reader = BufReader::new(conn.try_clone().map_err(ctx("clone"))?);
                (&conn)
                    .write_all(b"{\"op\":\"status\",\"id\":\"ready\"}\n")
                    .map_err(ctx("status frame"))?;
                let mut line = String::new();
                reader.read_line(&mut line).map_err(ctx("status reply"))?;
                if line.contains("\"ready\"") {
                    return Ok(d);
                }
                return Err(format!("unexpected status reply: {line}"));
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not open its socket within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Send `shutdown` on `conn`, wait for the daemon to exit, and return
    /// its stats line and its peak resident set in MB.
    fn shutdown(mut self, conn: &UnixStream) -> Res<(Value, f64)> {
        let rss = peak_rss_mb(&self.pid());
        let mut w = conn;
        w.write_all(b"{\"op\":\"shutdown\",\"id\":\"bye\"}\n")
            .map_err(ctx("shutdown frame"))?;
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(s) = child.try_wait().map_err(ctx("wait for the daemon"))? {
                break s;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not exit within 20 s of shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok((last_json_line(&self.err)?, rss))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The last line of a file that parses as a JSON object.
fn last_json_line(path: &Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(ctx("read stats"))?;
    text.lines()
        .rev()
        .find_map(|l| json::parse(l).ok().filter(|v| matches!(v, Value::Obj(_))))
        .ok_or(format!("no JSON stats line in {}", path.display()))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Counters of one one-shot replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// FNV-1a of the response stream.
    pub digest: u64,
    /// Response lines.
    pub lines: usize,
    /// The CLI's `--json` stats line.
    pub stats: Value,
}

/// Inputs and the running daemon shared by Phase A, Phase B and the
/// probes.
pub struct Kit {
    /// Scratch directory (removed when the kit is dropped).
    pub dir: PathBuf,
    /// NN-E artifact.
    pub nne: PathBuf,
    /// LR-B artifact.
    pub lrb: PathBuf,
    /// Phase A request stream.
    pub cold: PathBuf,
    /// Phase B frame bodies (the request without its id) and the model
    /// each frame is routed to.
    pub frames: Vec<(&'static str, String)>,
    /// The daemon.
    pub daemon: Option<Daemon>,
}

impl Drop for Kit {
    fn drop(&mut self) {
        drop(self.daemon.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Kit {
    /// Simulate, train, save, generate and start the daemon in `dir`.
    pub fn setup(seed: u64, dir: PathBuf, replay_n: usize) -> Res<Kit> {
        let table1 =
            DesignSpace::try_generate(&SpaceSpec::table1()).map_err(ctx("Table-1 space"))?;
        let space = DesignSpace::from_configs(
            (0..table1.len())
                .step_by(SETUP_STRIDE)
                .map(|i| table1.config_at(i))
                .collect(),
        );
        let sim = SimOptions {
            instructions: SETUP_INSTRUCTIONS,
            seed,
            ..SimOptions::default()
        };
        let sweep = cpusim::try_sweep_design_space(&space, Benchmark::Applu, &sim, None)
            .map_err(ctx("set-up sweep"))?
            .results;
        let table = dse::data::try_table_from_sweep(&sweep).map_err(ctx("training table"))?;
        let mut saved = Vec::new();
        for (kind, file, stream) in [(ModelKind::NnE, "nne", 6), (ModelKind::LrB, "lrb", 7)] {
            let model = mlmodels::try_train(kind, &table, child_seed(seed, stream))
                .map_err(ctx("train the served model"))?;
            let path = dir.join(format!("{file}.ppmodel"));
            ModelArtifact::from_training(model, &table)
                .save(path_str(&path)?)
                .map_err(ctx("save the artifact"))?;
            saved.push(path);
        }
        let schema = ModelArtifact::load(path_str(&saved[0])?)
            .map_err(ctx("load the artifact"))?
            .schema;
        let cold = dir.join("cold.jsonl");
        let text = serve::generate_requests(&schema, replay_n, replay_n, child_seed(seed, 8))
            .map_err(ctx("generate the replay stream"))?;
        std::fs::write(&cold, text).map_err(ctx("write the replay stream"))?;
        let pool = serve::generate_requests(&schema, POOL_FRAMES, POOL, child_seed(seed, 9))
            .map_err(ctx("generate the pool stream"))?;
        let frames = pool
            .lines()
            .enumerate()
            .map(|(i, l)| {
                // `{"id":"g<i>",<body>}` → `<body>}`
                let body = l.split_once(',').map_or("", |(_, b)| b).to_string();
                (if i % 2 == 0 { "nne" } else { "lrb" }, body)
            })
            .collect();
        let (nne, lrb) = (saved[0].clone(), saved[1].clone());
        let daemon = Daemon::spawn(&dir, &nne, &lrb)?;
        Ok(Kit {
            dir,
            nne,
            lrb,
            cold,
            frames,
            daemon: Some(daemon),
        })
    }

    /// One-shot replay of `input` through `perfpredict serve <model>`.
    pub fn replay(&self, model: &Path, input: &Path, workers: &str, tag: &str) -> Res<Replay> {
        let out = self.dir.join(format!("{tag}.out"));
        let err = self.dir.join(format!("{tag}.err"));
        let t0 = Instant::now();
        let status = Command::new(perfpredict()?)
            .arg("serve")
            .arg(model)
            .arg("--input")
            .arg(input)
            .args(["--workers", workers, "--json"])
            .stdin(Stdio::null())
            .stdout(std::fs::File::create(&out).map_err(ctx("replay stdout"))?)
            .stderr(std::fs::File::create(&err).map_err(ctx("replay stderr"))?)
            .status()
            .map_err(ctx("run the replay"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        if !status.success() {
            let why = std::fs::read_to_string(&err).unwrap_or_default();
            return Err(format!("replay exited with {status}: {why}"));
        }
        let bytes = std::fs::read(&out).map_err(ctx("read the replay output"))?;
        Ok(Replay {
            wall_s,
            digest: crate::sweep::fnv1a(&bytes),
            lines: bytes.iter().filter(|&&b| b == b'\n').count(),
            stats: last_json_line(&err)?,
        })
    }

    /// The prediction the one-shot path gives for every Phase B frame
    /// body under the frame's model, as JSON number text.
    pub fn oneshot_predictions(&self) -> Res<Vec<String>> {
        let mut expected = vec![String::new(); self.frames.len()];
        for (route, model) in [("nne", &self.nne), ("lrb", &self.lrb)] {
            let picked: Vec<usize> = (0..self.frames.len())
                .filter(|&i| self.frames[i].0 == route)
                .collect();
            let input = self.dir.join(format!("expect-{route}.jsonl"));
            let text: String = picked
                .iter()
                .map(|&i| format!("{{\"id\":\"e{i}\",{}\n", self.frames[i].1))
                .collect();
            std::fs::write(&input, text).map_err(ctx("write the expectation stream"))?;
            let tag = format!("expect-{route}");
            self.replay(model, &input, WORKERS, &tag)?;
            let out = std::fs::read_to_string(self.dir.join(format!("{tag}.out")))
                .map_err(ctx("read the expectation output"))?;
            for line in out.lines() {
                let v = json::parse(line).map_err(ctx("parse a one-shot response"))?;
                let id = v.get("id").and_then(Value::as_str).unwrap_or("");
                let i: usize = id
                    .strip_prefix('e')
                    .and_then(|n| n.parse().ok())
                    .ok_or(format!("unexpected one-shot response id '{id}'"))?;
                let p = v
                    .get("prediction")
                    .and_then(Value::as_f64)
                    .ok_or(format!("one-shot response without a prediction: {line}"))?;
                expected[i] = json::number(p);
            }
        }
        Ok(expected)
    }
}

/// What one open-loop step observed.
#[derive(Debug, Default)]
pub struct Step {
    /// Requests sent.
    pub sent: usize,
    /// Latency of each request in send order, ms; infinite when the
    /// request failed or got no answer.
    pub latency_ms: Vec<f64>,
    /// Requests answered with a typed error (shed, deadline, invalid).
    pub errors: usize,
    /// Requests never answered.
    pub missing: usize,
    /// Responses for an id that was already answered, or unknown.
    pub duplicates: usize,
    /// Predictions that differ from the one-shot path's.
    pub mismatches: usize,
    /// Worst lateness of the generator against its schedule, ms.
    pub late_ms_max: f64,
}

impl Step {
    /// Requests that failed: answered with an error, or not at all.
    pub fn failures(&self) -> usize {
        self.errors + self.missing
    }

    /// The ladder's judgement of this step.
    pub fn outcome(&self) -> StepOutcome {
        let sorted = stats::sorted(&self.latency_ms);
        StepOutcome {
            p99_ms: stats::percentile_sorted(&sorted, 0.99),
            failures: self.failures(),
            backlog: stats::backlog_grows(&self.latency_ms),
        }
    }
}

/// Parse one daemon response into (request index, prediction text or
/// `None` for an error response).
fn parse_response(line: &str) -> Option<(usize, Option<String>)> {
    let v = json::parse(line.trim()).ok()?;
    let idx = v.get("id")?.as_str()?.strip_prefix('b')?.parse().ok()?;
    Some((
        idx,
        v.get("prediction")
            .and_then(Value::as_f64)
            .map(json::number),
    ))
}

/// Send `rate × secs` requests at fixed intervals over `conn` and wait
/// for their answers. Request `i` carries frame `(first + i) % frames`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &UnixStream,
    frames: &[(&'static str, String)],
    expected: &[String],
    first: usize,
    rate: f64,
    secs: f64,
    rec: &Recorder,
    rep: u32,
) -> Res<Step> {
    let n = (rate * secs).round() as usize;
    let step_span = rec.open("open_loop_step", "serve", 0, rep);
    let parent = step_span.id();
    let reader = conn.try_clone().map_err(ctx("clone the connection"))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(ctx("set a read timeout"))?;
    let done_sending = AtomicBool::new(false);
    // Schedule slightly in the future so the first request is not late
    // by the receiver's start-up.
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let (received, sent_ok, late_ms_max) = std::thread::scope(|s| -> Res<_> {
        let receiver = s.spawn(|| {
            let mut got: Vec<Option<(Instant, Option<String>)>> = vec![None; n];
            let (mut count, mut dups) = (0usize, 0usize);
            let mut r = BufReader::new(reader);
            let mut line = String::new();
            let mut quiet_since: Option<Instant> = None;
            while count < n {
                match r.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        let now = Instant::now();
                        quiet_since = None;
                        match parse_response(&line) {
                            Some((i, pred)) if i >= first && i - first < n => {
                                let slot = &mut got[i - first];
                                if slot.is_none() {
                                    *slot = Some((now, pred));
                                    count += 1;
                                } else {
                                    dups += 1;
                                }
                            }
                            _ => dups += 1,
                        }
                        line.clear();
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if done_sending.load(Ordering::SeqCst) {
                            let q = *quiet_since.get_or_insert_with(Instant::now);
                            if q.elapsed() > Duration::from_secs(3) {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            (got, dups)
        });
        let mut w = conn;
        let mut buf = String::new();
        let mut late_max = Duration::ZERO;
        let mut i = 0;
        let mut ok = true;
        while i < n {
            let now = Instant::now();
            let next = due(i);
            if next > now {
                std::thread::sleep(next - now);
                continue;
            }
            buf.clear();
            while i < n && due(i) <= now {
                let (model, body) = &frames[(first + i) % frames.len()];
                buf.push_str(&format!(
                    "{{\"id\":\"b{}\",\"model\":\"{model}\",{body}\n",
                    first + i
                ));
                i += 1;
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(next));
            if w.write_all(buf.as_bytes()).is_err() {
                ok = false;
                break;
            }
        }
        done_sending.store(true, Ordering::SeqCst);
        let received = receiver
            .join()
            .map_err(|_| "the receiving thread panicked".to_string())?;
        Ok((received, ok, late_max.as_secs_f64() * 1e3))
    })?;
    if !sent_ok {
        return Err("the daemon connection closed while sending".into());
    }
    let (got, duplicates) = received;
    let mut step = Step {
        sent: n,
        duplicates,
        late_ms_max,
        ..Step::default()
    };
    for (i, slot) in got.into_iter().enumerate() {
        match slot {
            Some((at, Some(pred))) => {
                step.latency_ms
                    .push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                let want = &expected[(first + i) % expected.len()];
                if &pred != want {
                    step.mismatches += 1;
                }
                rec.record(
                    "request",
                    "serve",
                    parent,
                    rep,
                    (first + i) as u64,
                    due(i),
                    at,
                );
            }
            answered => {
                step.latency_ms.push(f64::INFINITY);
                if answered.is_some() {
                    step.errors += 1;
                } else {
                    step.missing += 1;
                }
            }
        }
    }
    Ok(step)
}

/// Everything Phase B measured.
#[derive(Debug)]
pub struct Latency {
    /// The reference step.
    pub reference: Step,
    /// Ladder steps run, with their rates.
    pub ladder: Vec<(f64, Step)>,
    /// Daemon stats line and peak resident set (MB).
    pub daemon: Value,
    /// Daemon peak resident set, MB.
    pub daemon_rss_mb: f64,
}

impl Latency {
    /// Highest ladder rate that met the limit (0 when none did).
    pub fn max_rps(&self) -> f64 {
        self.ladder
            .iter()
            .take_while(|(_, s)| s.outcome().passes(LIMIT_P99_MS))
            .last()
            .map_or(0.0, |(r, _)| *r)
    }

    /// All steps, the reference first.
    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        std::iter::once(&self.reference).chain(self.ladder.iter().map(|(_, s)| s))
    }
}

/// Run the reference step and the ladder against the kit's daemon over
/// one connection, then shut the daemon down and collect its stats.
pub fn phase_b(
    kit: &mut Kit,
    expected: &[String],
    ref_s: f64,
    ladder: &[f64],
    step_s: f64,
    rec: &Recorder,
    rep: u32,
) -> Res<Latency> {
    let daemon = kit.daemon.take().ok_or("the daemon is not running")?;
    let conn = UnixStream::connect(&daemon.sock).map_err(ctx("connect to the daemon"))?;
    let mut first = 0;
    let reference = open_loop(
        &conn,
        &kit.frames,
        expected,
        first,
        REF_RATE,
        ref_s,
        rec,
        rep,
    )?;
    first += reference.sent;
    let mut steps = Vec::new();
    for &rate in ladder {
        let step = open_loop(&conn, &kit.frames, expected, first, rate, step_s, rec, rep)?;
        first += step.sent;
        let passed = step.outcome().passes(LIMIT_P99_MS);
        steps.push((rate, step));
        if !passed {
            break;
        }
    }
    let (stats, daemon_rss_mb) = daemon.shutdown(&conn)?;
    Ok(Latency {
        reference,
        ladder: steps,
        daemon: stats,
        daemon_rss_mb,
    })
}

/// State of a `serve` run.
pub struct Serve {
    kit: Kit,
    first: Option<Replay>,
    req_per_s: Vec<f64>,
}

impl Workload for Serve {
    const MIN_REPS: u32 = 3;

    fn rep_budget(seconds: f64) -> f64 {
        let phase_b = REF_S + STEP_S * LADDER.len() as f64;
        (seconds - phase_b).max(0.0)
    }

    fn setup(opts: &Options) -> Res<Serve> {
        let kit = Kit::setup(opts.seed, crate::work_dir(opts)?, REPLAY_N)?;
        Ok(Serve {
            kit,
            first: None,
            req_per_s: Vec::new(),
        })
    }

    fn rep(&mut self, rec: &Recorder, rep: u32, checks: &mut Checks) -> Res<()> {
        let r = {
            let _s = rec.open("perfpredict_serve_replay", "serve", 0, rep);
            self.kit
                .replay(&self.kit.nne, &self.kit.cold, WORKERS, "replay")?
        };
        if !rec.on() {
            self.req_per_s.push(REPLAY_N as f64 / r.wall_s);
        }
        checks.ops(REPLAY_N as u64, REPLAY_N.saturating_sub(r.lines) as u64);
        checks.check(r.lines == REPLAY_N, || {
            format!("replay answered {} of {REPLAY_N} requests", r.lines)
        });
        let first = self.first.get_or_insert_with(|| r.clone());
        checks.check(r.digest == first.digest, || {
            "replay output differs between repetitions".to_string()
        });
        Ok(())
    }

    fn finish(mut self, rec: &Recorder, checks: &mut Checks, out: &mut Outcome) -> Res<()> {
        let first = self.first.take().ok_or("no replay ran")?;
        let one = self
            .kit
            .replay(&self.kit.nne, &self.kit.cold, "1", "replay-w1")?;
        checks.check(one.digest == first.digest, || {
            "replay output differs between --workers 1 and --workers 2".to_string()
        });
        let expected = self.kit.oneshot_predictions()?;
        let lat = phase_b(&mut self.kit, &expected, REF_S, &LADDER, STEP_S, rec, 0)?;

        // Every request must be answered exactly once and correctly. A
        // typed error (shed, deadline) is a correct answer under overload:
        // it fails its ladder step, which is how the ladder finds the
        // highest rate, but only counts as a failed operation at the
        // reference step, whose load the daemon must carry.
        let (mut attempted, mut failed) = (0usize, 0usize);
        for s in lat.steps() {
            attempted += s.sent;
            failed += s.failures();
            checks.ops(s.sent as u64, s.missing as u64);
            checks.check(s.duplicates == 0, || {
                format!("{} duplicate or unknown responses", s.duplicates)
            });
            checks.check(s.mismatches == 0, || {
                format!(
                    "{} daemon predictions differ from one-shot ones",
                    s.mismatches
                )
            });
        }
        checks.check(lat.reference.failures() == 0, || {
            format!(
                "{} failures at the reference step",
                lat.reference.failures()
            )
        });
        let sorted = stats::sorted(&lat.reference.latency_ms);
        let p999 = if stats::supports(sorted.len(), 0.999) {
            stats::percentile_sorted(&sorted, 0.999)
        } else {
            f64::NAN
        };
        out.child_rss_mb = lat.daemon_rss_mb;
        out.detail("replay_req_per_s", self.req_per_s.clone());
        out.detail("serve_p50_ms", vec![stats::percentile_sorted(&sorted, 0.5)]);
        out.detail("serve_p999_ms", vec![p999]);
        out.detail("serve_max_rps", vec![lat.max_rps()]);
        out.detail(
            "serve_fail_frac",
            vec![failed as f64 / attempted.max(1) as f64],
        );
        let ladder: Vec<String> = lat
            .ladder
            .iter()
            .map(|(rate, s)| {
                let o = s.outcome();
                format!(
                    "{rate}:p99={:.3}ms,fail={},backlog={}",
                    o.p99_ms, o.failures, o.backlog
                )
            })
            .collect();
        out.notes
            .push(("replay_digest", format!("fnv1a64:{:016x}", first.digest)));
        out.info.push(("serve_ladder", ladder.join(" ")));
        out.info.push((
            "serve_daemon",
            format!(
                "p99 {:.3} ms, shed {}, deadline misses {}, invalid {}, rss {:.1} MB",
                num(&lat.daemon, "p99_ms"),
                num(&lat.daemon, "shed"),
                num(&lat.daemon, "deadline_misses"),
                num(&lat.daemon, "invalid"),
                lat.daemon_rss_mb
            ),
        ));
        Ok(())
    }
}
