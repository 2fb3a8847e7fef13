//! The serving daemon: one request loop for every `serve` mode.
//!
//! A [`Daemon`] holds a [`Registry`] of models and serves a framed JSONL
//! protocol. Each frame is one JSON object: a predict frame is a
//! configuration plus an optional envelope (`"id"`, `"model"` route,
//! `"deadline_ms"`); a control frame carries an `"op"`:
//!
//! ```text
//! {"op":"load","model":"mcf","path":"mcf.ppmodel"}
//! {"id":"q1","model":"mcf","speed":1800,"smt":true,"bpred":"gshare"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Each window's predicts are validated against their routed model's
//! schema and predicted one batch per route (`core::predict_window`);
//! its responses are written in frame order with one write and one
//! flush, byte-identical for any worker count. Two entry points share
//! that window path, the frame grammar and [`DaemonStats`]:
//! [`Daemon::replay`] (one-shot `serve`: see its docs) and
//! [`Daemon::run`] / [`Daemon::run_socket`], the long-lived daemon, whose
//! reader thread feeds an [`AdmissionQueue`].
//!
//! Robustness contract of the long-lived daemon:
//!
//! * **Bounded admission, explicit shedding.** When the queue is full
//!   the frame is answered immediately with a typed
//!   `{"error":"overloaded"}` line — never a silent drop, never
//!   unbounded memory.
//! * **Invalid frames are answered, not fatal.** A malformed or invalid
//!   frame gets a typed `{"error":"invalid"}` line naming its line; the
//!   daemon outlives its worst client.
//! * **Per-request deadlines, fail closed.** An admitted request whose
//!   deadline expires before the predict path reaches it gets a typed
//!   `{"error":"deadline"}` response and *no* late prediction.
//! * **Degraded mode.** A window that saw shedding or deadline misses
//!   flips the daemon into cache-hits-only service: hits are answered,
//!   misses are rejected with a typed error, and the daemon returns to
//!   normal after the first quiet window. Saturation degrades service
//!   quality, it never degrades correctness.
//! * **Quarantine, not crash.** A corrupt artifact quarantines that
//!   model version in the [`Registry`]; routing falls back to older
//!   healthy versions, and a fully-dark route still serves salvaged
//!   cache hits. Only when *every* version of *every* model is dark
//!   does the daemon give up — with a typed error (exit code 8).
//!
//! Termination paths, each with a distinct typed exit (see
//! `DESIGN.md` §12): clean EOF and `shutdown` exit 0; a protocol
//! violation (oversized or non-UTF-8 frame) exits 2; a transport write
//! failure exits 3; all-models-quarantined exits 8.

use crate::admission::AdmissionQueue;
use crate::core::predict_window;
use crate::registry::{Registry, Route};
use crate::request::{
    canonical_key, invalid, member, parse_object, request_id, Request, Validator,
};
use fault::{Error, Result};
use std::borrow::Cow;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::json::{self, JsonObject, Members, Scalar};
use telemetry::Histogram;

/// Daemon tuning knobs. The CLI maps the `serve` flags onto them.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Frames served per window.
    pub window: usize,
    /// Admission-queue capacity; frames beyond it are shed with a typed
    /// `overloaded` response. [`Daemon::replay`] holds one window and
    /// never reads it.
    pub queue_cap: usize,
    /// Worker threads for batch prediction (1 = in-line).
    pub workers: usize,
    /// Default per-request deadline in milliseconds (`None` = no
    /// deadline; a frame's `"deadline_ms"` field overrides, and `0`
    /// means already-expired — the deterministic test hook).
    pub deadline_ms: Option<u64>,
    /// Maximum frame length in bytes; a longer line is a protocol
    /// violation that terminates the daemon (exit code 2).
    pub max_frame_bytes: usize,
    /// Route for predict frames that omit `"model"`. When `None`, a
    /// single-model registry routes implicitly; otherwise such frames
    /// are rejected as invalid.
    pub default_model: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            window: 64,
            queue_cap: 256,
            workers: telemetry::default_workers(),
            deadline_ms: None,
            max_frame_bytes: 1 << 20,
            default_model: None,
        }
    }
}

impl DaemonConfig {
    fn validated(&self) -> Result<()> {
        if self.window == 0 {
            return Err(Error::invalid("serve window must be at least 1"));
        }
        if self.workers == 0 {
            return Err(Error::invalid("serve worker count must be at least 1"));
        }
        if self.max_frame_bytes < 16 {
            return Err(Error::invalid("serve max frame bytes must be at least 16"));
        }
        Ok(())
    }

    /// The long-lived daemon's admission queue, which must hold a full
    /// window.
    fn admission_queue(&self) -> Result<AdmissionQueue<Frame>> {
        if self.queue_cap < self.window {
            return Err(Error::invalid(format!(
                "serve queue capacity {} is smaller than the window {}",
                self.queue_cap, self.window
            )));
        }
        Ok(AdmissionQueue::new(self.queue_cap))
    }
}

/// Counters and latency summary for one run (the CLI's `--json` stats
/// line, and the input of the soak gate and perfbench).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonStats {
    /// Predict frames answered with a prediction (including cache hits).
    pub requests: u64,
    /// Predictions served from a model's LRU cache.
    pub cache_hits: u64,
    /// Predictions that missed the cache.
    pub cache_misses: u64,
    /// Distinct configurations actually predicted (misses after
    /// in-window dedup).
    pub predictions: u64,
    /// Prediction batches run.
    pub batches: u64,
    /// Windows served.
    pub windows: u64,
    /// Queue-depth high-water mark (for [`Daemon::replay`], the largest
    /// window held).
    pub max_queue_depth: u64,
    /// Frames shed at admission with a typed `overloaded` response.
    pub shed: u64,
    /// Admitted requests whose deadline expired before service; each
    /// got a typed `deadline` response and no (late) prediction.
    pub deadline_misses: u64,
    /// Cache misses rejected while degraded (cache-hits-only) mode was
    /// active, each with a typed error response.
    pub degraded_rejects: u64,
    /// Cache misses rejected because every candidate model version was
    /// quarantined, each with a typed `quarantined` response.
    pub quarantined_rejects: u64,
    /// Frames rejected as invalid (malformed JSON, schema violations,
    /// unknown routes), each with a typed `invalid` response.
    pub invalid: u64,
    /// Control frames executed (load/reload/unload/status/shutdown).
    pub control_ops: u64,
    /// Times the daemon entered degraded mode.
    pub degraded_entries: u64,
    /// Registry: successful version loads (including preloads).
    pub loads: u64,
    /// Registry: versions quarantined by corrupt artifacts.
    pub quarantines: u64,
    /// Registry: transient load attempts retried.
    pub load_retries: u64,
    /// Median service latency (admission → response), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile service latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub p99_ms: f64,
    /// Worst single service latency, milliseconds.
    pub max_ms: f64,
}

impl DaemonStats {
    /// Render as a single JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .uint("requests", self.requests)
            .uint("cache_hits", self.cache_hits)
            .uint("cache_misses", self.cache_misses)
            .uint("predictions", self.predictions)
            .uint("batches", self.batches)
            .uint("windows", self.windows)
            .uint("max_queue_depth", self.max_queue_depth)
            .uint("shed", self.shed)
            .uint("deadline_misses", self.deadline_misses)
            .uint("degraded_rejects", self.degraded_rejects)
            .uint("quarantined_rejects", self.quarantined_rejects)
            .uint("invalid", self.invalid)
            .uint("control_ops", self.control_ops)
            .uint("degraded_entries", self.degraded_entries)
            .uint("loads", self.loads)
            .uint("quarantines", self.quarantines)
            .uint("load_retries", self.load_retries)
            .num("p50_ms", self.p50_ms)
            .num("p95_ms", self.p95_ms)
            .num("p99_ms", self.p99_ms)
            .num("max_ms", self.max_ms)
            .finish()
    }
}

/// A control verb parsed from a frame's `"op"` field.
enum Op {
    Load { name: String, path: String },
    Reload { route: String },
    Unload { route: String },
    Status,
    Shutdown,
}

struct ControlJob {
    id: String,
    op: Op,
}

/// A frame as read: its text and where it sits in the stream. It is
/// parsed where it is served, so its keys and strings are borrowed from
/// `text` rather than copied.
struct Frame {
    text: String,
    frame_no: u64,
    admitted_at: Instant,
}

/// A predict frame: its envelope, and the configuration members still
/// to be validated against the schema of the model it routes to.
struct PredictJob<'a> {
    id: Cow<'a, str>,
    route: Option<Cow<'a, str>>,
    members: Members<'a>,
    frame_no: u64,
    admitted_at: Instant,
    deadline_ms: Option<u64>,
}

/// What a frame asks for.
enum Class<'a> {
    Predict(PredictJob<'a>),
    Control(ControlJob),
    Malformed { id: String, error: Error },
}

impl Class<'_> {
    fn id(&self) -> &str {
        match self {
            Class::Predict(j) => &j.id,
            Class::Control(j) => &j.id,
            Class::Malformed { id, .. } => id,
        }
    }
}

/// One window slot's response, rendered when the window is written.
enum Reply<'a> {
    /// Not answered yet (only between a window's start and its end).
    Pending,
    /// A served prediction.
    Predicted {
        id: Cow<'a, str>,
        prediction: f64,
        cached: bool,
    },
    /// The frame was rejected as invalid; [`Daemon::replay`] aborts here.
    Invalid { id: Cow<'a, str>, error: Error },
    /// Any other typed response (control acks, deadline misses,
    /// quarantined and degraded rejections), pre-rendered.
    Line(String),
}

impl Reply<'_> {
    fn render(&self, out: &mut String) {
        match self {
            Reply::Pending => debug_assert!(false, "every window slot is answered"),
            Reply::Predicted {
                id,
                prediction,
                cached,
            } => {
                // The `JsonObject` with fields `id`, `prediction` and
                // `cached`, written in place.
                out.push_str("{\"id\":\"");
                json::escape_into(out, id);
                out.push_str("\",\"prediction\":");
                json::number_into(out, *prediction);
                out.push_str(if *cached {
                    ",\"cached\":true}"
                } else {
                    ",\"cached\":false}"
                });
            }
            Reply::Invalid { id, error } => {
                out.push_str(&error_line(id, error.kind(), &error.to_string()));
            }
            Reply::Line(line) => out.push_str(line),
        }
        out.push('\n');
    }
}

/// What serving one window produced.
struct Served<'a> {
    replies: Vec<Reply<'a>>,
    deadline_misses: u64,
    shutdown: bool,
}

/// Why a stream ended cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    Eof,
    Shutdown,
}

fn error_line(id: &str, kind: &str, detail: &str) -> String {
    JsonObject::new()
        .str("id", id)
        .str("error", kind)
        .str("detail", detail)
        .finish()
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Write rendered response lines with one `write_all` and one `flush`:
/// the flush at every window boundary is the daemon's latency contract.
fn write_out(out: &mut dyn Write, text: &str) -> Result<()> {
    let _span = telemetry::span!("serve/write", bytes = text.len());
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| Error::io("<serve output>", e))
}

/// Render a window's replies, in frame order, into `buf`.
fn render_window(replies: &[Reply<'_>], buf: &mut String) {
    let _span = telemetry::span!("serve/render", rows = replies.len());
    buf.clear();
    for reply in replies {
        reply.render(buf);
    }
}

/// The next frame that is not blank, stamped with its admission time.
/// `Ok(None)` is EOF; a partial final line (EOF with no trailing newline)
/// is returned as a normal frame so a mid-line truncation becomes a typed
/// `invalid` response followed by a clean EOF — never a hang. Every line
/// counts toward `frame_no`, blank ones included, so a frame's default id
/// and error messages name its 1-based line in the stream. Oversized and
/// non-UTF-8 frames are protocol violations (typed `InvalidInput`, exit
/// code 2).
fn next_frame<R: BufRead>(input: &mut R, max: usize, frame_no: &mut u64) -> Result<Option<Frame>> {
    // At most one byte past a full frame and its newline is read, so an
    // oversized frame is caught without buffering all of it.
    let limit = u64::try_from(max).map_or(u64::MAX, |m| m.saturating_add(1));
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = std::io::Read::take(&mut *input, limit)
            .read_until(b'\n', &mut buf)
            .map_err(|e| Error::io("<serve input>", e))?;
        if n == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.len() > max {
            return Err(Error::invalid(format!(
                "protocol violation: frame exceeds {max} bytes"
            )));
        }
        *frame_no += 1;
        let text = String::from_utf8(std::mem::take(&mut buf))
            .map_err(|_| Error::invalid("protocol violation: frame is not valid UTF-8"))?;
        if !text.trim().is_empty() {
            return Ok(Some(Frame {
                text,
                frame_no: *frame_no,
                // Latency and deadline accounting only; never shapes a
                // prediction.
                admitted_at: Instant::now(),
            }));
        }
        buf = text.into_bytes();
    }
}

/// A string member, or an error naming it.
fn str_member<'a>(
    members: &[(Cow<'a, str>, Scalar<'a>)],
    key: &str,
) -> std::result::Result<Option<Cow<'a, str>>, String> {
    match member(members, key) {
        None => Ok(None),
        Some(Scalar::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

/// Classify one (trimmed, non-blank) frame. Every malformation becomes
/// a typed `Malformed` class naming the frame's line, answered in frame
/// order.
fn classify(line: &str, frame_no: u64, admitted_at: Instant) -> Class<'_> {
    let mut members = match parse_object(line, frame_no) {
        Ok(members) => members,
        Err(error) => {
            return Class::Malformed {
                id: frame_no.to_string(),
                error,
            }
        }
    };
    let id = match request_id(&members, frame_no) {
        Ok(id) => id,
        Err(error) => {
            return Class::Malformed {
                id: frame_no.to_string(),
                error,
            }
        }
    };
    let malformed = |id: Cow<'_, str>, detail: String| Class::Malformed {
        id: id.into_owned(),
        error: invalid(frame_no, detail),
    };
    let op = match str_member(&members, "op") {
        Ok(op) => op,
        Err(detail) => return malformed(id, detail),
    };
    let control = |op: Op| {
        Class::Control(ControlJob {
            id: id.to_string(),
            op,
        })
    };
    match op.as_deref() {
        None | Some("predict") => {
            let route = match str_member(&members, "model") {
                Ok(r) => r,
                Err(detail) => return malformed(id, detail),
            };
            let deadline_ms = match member(&members, "deadline_ms").map(Scalar::as_u64) {
                None => None,
                Some(Some(ms)) => Some(ms),
                Some(None) => {
                    return malformed(
                        id,
                        "'deadline_ms' must be a non-negative integer".to_string(),
                    )
                }
            };
            // The envelope is not part of the configuration.
            members.retain(|(k, _)| !matches!(k.as_ref(), "op" | "model" | "deadline_ms"));
            Class::Predict(PredictJob {
                id,
                route,
                members,
                frame_no,
                admitted_at,
                deadline_ms,
            })
        }
        Some("load") => match (str_member(&members, "model"), str_member(&members, "path")) {
            (Err(detail), _) | (Ok(Some(_)), Err(detail)) => malformed(id, detail),
            (Ok(None), _) => malformed(id, "'load' needs a 'model' name".to_string()),
            (Ok(Some(_)), Ok(None)) => malformed(id, "'load' needs a 'path'".to_string()),
            (Ok(Some(name)), Ok(Some(path))) => control(Op::Load {
                name: name.into_owned(),
                path: path.into_owned(),
            }),
        },
        Some(verb @ ("reload" | "unload")) => match str_member(&members, "model") {
            Ok(Some(route)) => {
                let route = route.into_owned();
                control(if verb == "reload" {
                    Op::Reload { route }
                } else {
                    Op::Unload { route }
                })
            }
            Ok(None) => malformed(id, format!("'{verb}' needs a 'model' route")),
            Err(detail) => malformed(id, detail),
        },
        Some("status") => control(Op::Status),
        Some("shutdown") => control(Op::Shutdown),
        Some(other) => malformed(id.clone(), format!("unknown op '{other}'")),
    }
}

/// Whether `text` can hold an `"op"` key: the key is the literal `"op"`
/// unless it is spelled with an escape, which needs a backslash. A frame
/// with neither is a predict or a malformed frame, never a control op.
fn may_be_control(text: &str) -> bool {
    text.contains("\"op\"") || text.contains('\\')
}

/// The reader half of the long-lived daemon: drain the transport and
/// admit frames, control frames with priority. Only a frame that
/// [may be a control op](may_be_control) is parsed here, and a shed
/// frame is parsed for its response id; the core parses every admitted
/// frame where it serves it. Returns `Ok(())` on clean EOF or after a
/// `shutdown` frame; a protocol or transport error is returned for the
/// core to surface.
fn reader_loop<R: BufRead, W: Write>(
    input: &mut R,
    queue: &AdmissionQueue<Frame>,
    writer: &Arc<Mutex<W>>,
    terminated: &AtomicBool,
    max_frame: usize,
) -> Result<()> {
    let mut frame_no = 0u64;
    loop {
        if terminated.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(frame) = next_frame(input, max_frame, &mut frame_no)? else {
            return Ok(()); // EOF
        };
        let control = if may_be_control(&frame.text) {
            match classify(frame.text.trim(), frame.frame_no, frame.admitted_at) {
                Class::Control(job) => Some(matches!(job.op, Op::Shutdown)),
                _ => None,
            }
        } else {
            None
        };
        if let Some(shutdown) = control {
            if queue.admit_priority(frame).is_err() {
                return Ok(()); // closed: the core is already terminating
            }
            if shutdown {
                return Ok(()); // frames after shutdown are not read
            }
        } else if let Err((frame, e)) = queue.try_admit(frame) {
            // Predict and malformed frames share the data plane so error
            // responses keep admission order.
            if terminated.load(Ordering::Relaxed) {
                return Ok(());
            }
            // Typed shed response, written by the reader so the core
            // never sees the frame. Never a silent drop.
            let class = classify(frame.text.trim(), frame.frame_no, frame.admitted_at);
            let mut line = error_line(class.id(), e.kind(), &e.to_string());
            line.push('\n');
            write_out(&mut *lock(writer), &line)?;
        }
    }
}

/// A multi-model serving daemon (see module docs).
pub struct Daemon {
    config: DaemonConfig,
    registry: Registry,
    /// Cache-hits-only service after a troubled window (see module docs).
    degraded: bool,
}

impl Daemon {
    /// Build a daemon over a (possibly pre-loaded) registry.
    pub fn new(config: DaemonConfig, registry: Registry) -> Result<Daemon> {
        config.validated()?;
        Ok(Daemon {
            config,
            registry,
            degraded: false,
        })
    }

    /// The hosted registry (for inspection in tests and the CLI).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Replay a finite framed stream on the calling thread, writing one
    /// ordered response line per frame to `out` (one-shot `serve`).
    ///
    /// Windows are cut at exactly `window` frames (fewer at EOF), so the
    /// output is byte-identical for any worker count and any pipe timing;
    /// there is no admission queue, nothing is shed and the replay never
    /// degrades to cache-hits-only service. Only a frame's own nonzero
    /// `"deadline_ms"` reads the clock (`0` always misses). The first invalid
    /// frame aborts the replay with a typed `InvalidInput` error naming
    /// its line (exit code 2), before its window is written. `shutdown`
    /// ends the replay early; all-models-quarantined is exit code 8.
    pub fn replay<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        out: &mut W,
    ) -> Result<DaemonStats> {
        let _span = telemetry::span!("serve/replay", models = self.registry.len());
        // A finite stream is never overloaded: full service throughout.
        self.degraded = false;
        let mut stats = DaemonStats::default();
        let mut latency = Histogram::new();
        let mut text = String::new();
        let mut frame_no = 0u64;
        let mut eof = false;
        while !eof {
            let mut window = Vec::with_capacity(self.config.window);
            let read = telemetry::span!("serve/read");
            while window.len() < self.config.window {
                let max_frame = self.config.max_frame_bytes;
                let Some(frame) = next_frame(&mut input, max_frame, &mut frame_no)? else {
                    eof = true;
                    break;
                };
                window.push(frame);
            }
            drop(read);
            if window.is_empty() {
                break;
            }
            stats.max_queue_depth = stats.max_queue_depth.max(window.len() as u64);
            telemetry::gauge_max("serve/queue_depth", window.len() as f64);
            let mut served = self.serve_window(&window, &mut stats, &mut latency);
            let first_invalid = served
                .replies
                .iter()
                .position(|r| matches!(r, Reply::Invalid { .. }));
            if let Some(Reply::Invalid { error, .. }) =
                first_invalid.map(|i| served.replies.swap_remove(i))
            {
                return Err(error);
            }
            render_window(&served.replies, &mut text);
            write_out(out, &text)?;
            if served.shutdown {
                break;
            }
            if self.registry.all_quarantined() {
                return Err(all_quarantined());
            }
        }
        self.finalize(&mut stats, &latency);
        Ok(stats)
    }

    /// Serve one framed stream to completion. Returns the run's stats on
    /// a clean end (EOF or `shutdown`); protocol violations, transport
    /// failures, and all-models-quarantined return typed errors (exit
    /// codes 2, 3, and 8).
    pub fn run<R, W>(&mut self, input: R, writer: Arc<Mutex<W>>) -> Result<DaemonStats>
    where
        R: BufRead + Send + 'static,
        W: Write + Send + 'static,
    {
        let mut stats = DaemonStats::default();
        let mut latency = Histogram::new();
        let end = self.run_stream(input, &writer, &mut stats, &mut latency);
        self.finalize(&mut stats, &latency);
        end.map(|_| stats)
    }

    /// Serve sequential connections on a unix socket at `path` until a
    /// `shutdown` frame arrives. Stats aggregate across connections.
    /// A connection-level I/O failure (client hangup mid-response) aborts
    /// that connection and the daemon accepts the next one; only the
    /// listener's own failures are transport-fatal (exit code 3).
    pub fn run_socket(&mut self, path: &str) -> Result<DaemonStats> {
        // A bad queue capacity fails before binding, not at the first
        // connection.
        self.config.admission_queue()?;
        let _ = std::fs::remove_file(path);
        let listener =
            std::os::unix::net::UnixListener::bind(path).map_err(|e| Error::io(path, e))?;
        let mut stats = DaemonStats::default();
        let mut latency = Histogram::new();
        let outcome = loop {
            let (stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) => break Err(Error::io(path, e)),
            };
            let reader = match stream.try_clone() {
                Ok(s) => std::io::BufReader::new(s),
                Err(e) => break Err(Error::io(path, e)),
            };
            let writer = Arc::new(Mutex::new(stream));
            match self.run_stream(reader, &writer, &mut stats, &mut latency) {
                Ok(EndReason::Eof) => continue, // next connection
                Ok(EndReason::Shutdown) => break Ok(()),
                // A client that disappears mid-conversation (EPIPE on a
                // pending response, a torn read) aborts *its* connection,
                // not the daemon: the transport exit code (3) is reserved
                // for the daemon's own transport — bind/accept failures.
                Err(Error::Io { .. }) => {
                    telemetry::counter_add("serve/daemon_conn_aborts", 1);
                    continue;
                }
                Err(e) => break Err(e),
            }
        };
        let _ = std::fs::remove_file(path);
        self.finalize(&mut stats, &latency);
        outcome.map(|()| stats)
    }

    fn finalize(&self, stats: &mut DaemonStats, latency: &Histogram) {
        let reg = self.registry.stats();
        stats.loads = reg.loads;
        stats.quarantines = reg.quarantines;
        stats.load_retries = reg.retries;
        let ms = |ns: u64| ns as f64 / 1e6;
        stats.p50_ms = ms(latency.quantile(0.50));
        stats.p95_ms = ms(latency.quantile(0.95));
        stats.p99_ms = ms(latency.quantile(0.99));
        stats.max_ms = ms(latency.max());
        telemetry::gauge_set("serve/p50_ms", stats.p50_ms);
        telemetry::gauge_set("serve/p95_ms", stats.p95_ms);
        telemetry::gauge_set("serve/p99_ms", stats.p99_ms);
        telemetry::gauge_set("serve/max_ms", stats.max_ms);
        telemetry::gauge_set("serve/shed", stats.shed as f64);
        telemetry::hist_merge("serve/latency_ns", latency);
    }

    /// Health transition at a window boundary: any new shedding or
    /// deadline miss enters degraded mode; the first window with neither
    /// (degraded rejects don't count as new trouble) exits it.
    fn end_window(&mut self, trouble: bool, stats: &mut DaemonStats) {
        if trouble && !self.degraded {
            stats.degraded_entries += 1;
            telemetry::counter_add("serve/degraded_entries", 1);
        }
        self.degraded = trouble;
    }

    fn run_stream<R, W>(
        &mut self,
        mut input: R,
        writer: &Arc<Mutex<W>>,
        stats: &mut DaemonStats,
        latency: &mut Histogram,
    ) -> Result<EndReason>
    where
        R: BufRead + Send + 'static,
        W: Write + Send + 'static,
    {
        let _span = telemetry::span!("serve/daemon", models = self.registry.len());
        self.degraded = false;
        let queue = Arc::new(self.config.admission_queue()?);
        let terminated = Arc::new(AtomicBool::new(false));
        let fatal: Arc<Mutex<Option<Error>>> = Arc::new(Mutex::new(None));
        let reader = {
            let queue = Arc::clone(&queue);
            let writer = Arc::clone(writer);
            let terminated = Arc::clone(&terminated);
            let fatal = Arc::clone(&fatal);
            let max_frame = self.config.max_frame_bytes;
            std::thread::spawn(move || {
                let outcome = reader_loop(&mut input, &queue, &writer, &terminated, max_frame);
                if let Err(e) = outcome {
                    *lock(&fatal) = Some(e);
                }
                // Whatever the reason, no more work is coming.
                queue.close();
            })
        };
        let mut end = EndReason::Eof;
        let mut all_dark = false;
        let mut last_shed = 0u64;
        let mut text = String::new();
        while let Some(window) = queue.pop_window(self.config.window) {
            telemetry::gauge_max("serve/queue_depth", queue.depth() as f64);
            let served = self.serve_window(&window, stats, latency);
            render_window(&served.replies, &mut text);
            write_out(&mut *lock(writer), &text)?;
            let shed_now = queue.shed_count();
            self.end_window(shed_now > last_shed || served.deadline_misses > 0, stats);
            last_shed = shed_now;
            if served.shutdown {
                end = EndReason::Shutdown;
                queue.close();
            }
            if self.registry.all_quarantined() {
                // Fail closed: drain the backlog (salvaged caches still
                // answer hits), then terminate with a typed error.
                all_dark = true;
                queue.close();
            }
        }
        terminated.store(true, Ordering::Relaxed);
        stats.shed += queue.shed_count();
        stats.max_queue_depth = stats.max_queue_depth.max(queue.high_water() as u64);
        if all_dark {
            // The core closed the queue while the transport may still be
            // open, so the reader could be parked in a blocking read that
            // nothing can interrupt. Detach it: the terminated flag makes
            // it exit silently at its next frame, and the daemon's typed
            // error must not wait on a client that went quiet.
            drop(reader);
        } else if reader.join().is_err() {
            return Err(Error::invalid("daemon reader thread panicked"));
        }
        if let Some(e) = lock(&fatal).take() {
            return Err(e);
        }
        if all_dark {
            return Err(all_quarantined());
        }
        Ok(end)
    }

    /// Serve one window of frames, answering every slot in frame
    /// order. A window is served in segments split at its control ops:
    /// each segment's frames are parsed and routed in order, then its
    /// predicts are validated and run, one batch per route; then the
    /// control op runs. So a reload can never retroactively affect
    /// predicts admitted before it.
    fn serve_window<'w>(
        &mut self,
        window: &'w [Frame],
        stats: &mut DaemonStats,
        latency: &mut Histogram,
    ) -> Served<'w> {
        stats.windows += 1;
        let mut served = Served {
            replies: (0..window.len()).map(|_| Reply::Pending).collect(),
            deadline_misses: 0,
            shutdown: false,
        };
        let mut items = window.iter().enumerate();
        loop {
            let mut groups: Vec<(String, Vec<(usize, PredictJob<'w>)>)> = Vec::new();
            let mut control = None;
            // Where frames without a `"model"` go; only a control op can
            // change it, and control ops end the segment.
            let implicit = self
                .config
                .default_model
                .clone()
                .or_else(|| self.registry.sole_name().map(String::from));
            {
                let _parse = telemetry::span!("serve/parse");
                for (slot, f) in items.by_ref() {
                    match classify(f.text.trim(), f.frame_no, f.admitted_at) {
                        Class::Malformed { id, error } => {
                            stats.invalid += 1;
                            served.replies[slot] = Reply::Invalid {
                                id: Cow::Owned(id),
                                error,
                            };
                        }
                        Class::Predict(mut job) => {
                            if let Some(line) = self.missed_deadline(&job) {
                                stats.deadline_misses += 1;
                                served.deadline_misses += 1;
                                served.replies[slot] = Reply::Line(line);
                                continue;
                            }
                            let explicit = job.route.take();
                            let Some(route) = explicit.as_deref().or(implicit.as_deref()) else {
                                stats.invalid += 1;
                                served.replies[slot] = Reply::Invalid {
                                    error: invalid(
                                        job.frame_no,
                                        "no 'model' specified and no default route",
                                    ),
                                    id: job.id,
                                };
                                continue;
                            };
                            match groups.iter_mut().find(|(r, _)| r == route) {
                                Some((_, jobs)) => jobs.push((slot, job)),
                                None => groups.push((route.to_string(), vec![(slot, job)])),
                            }
                        }
                        Class::Control(job) => {
                            control = Some((slot, job));
                            break;
                        }
                    }
                }
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            for (route, jobs) in groups {
                self.serve_group(&route, jobs, &mut served.replies, stats, latency);
            }
            let Some((slot, job)) = control else {
                return served;
            };
            let (line, is_shutdown) = self.exec_control(job, stats);
            served.replies[slot] = Reply::Line(line);
            if is_shutdown {
                // Frames after `shutdown` are not served.
                served.replies.truncate(slot + 1);
                served.shutdown = true;
                return served;
            }
        }
    }

    /// The typed `deadline` response for a predict whose deadline expired
    /// before service, if it did. Fail closed: it gets no late prediction.
    fn missed_deadline(&self, job: &PredictJob<'_>) -> Option<String> {
        let ms = job.deadline_ms.or(self.config.deadline_ms)?;
        let waited = job.admitted_at.elapsed();
        (waited >= Duration::from_millis(ms)).then(|| {
            let e = Error::deadline(waited.as_millis() as u64, ms);
            error_line(&job.id, e.kind(), &e.to_string())
        })
    }

    /// Serve one route's predicts: resolve the route, validate each frame
    /// against its schema, and predict the valid ones in one batch — or
    /// answer from the cache only, when the route is quarantined or the
    /// daemon is degraded.
    fn serve_group<'w>(
        &mut self,
        route: &str,
        jobs: Vec<(usize, PredictJob<'w>)>,
        replies: &mut [Reply<'w>],
        stats: &mut DaemonStats,
        latency: &mut Histogram,
    ) {
        let (degraded, workers) = (self.degraded, self.config.workers);
        let model = match self.registry.resolve(route) {
            Ok(Route::Ready { model, .. }) => model,
            Ok(Route::Quarantined {
                label,
                reason,
                cache,
                schema,
            }) => {
                // A dark route answers only salvaged cache hits, and only
                // for frames its salvaged schema validates.
                let dark = Error::quarantined(label.as_str(), reason.as_str());
                let mut validator = schema.map(Validator::new);
                for (slot, job) in jobs {
                    let hit = validator
                        .as_mut()
                        .and_then(|v| v.cells(&job.members, job.frame_no).ok())
                        .and_then(|cells| cache.get(&canonical_key(&cells).collect::<Vec<_>>()));
                    replies[slot] = match hit {
                        Some(prediction) => cache_hit(job, prediction, stats, latency),
                        None => {
                            stats.quarantined_rejects += 1;
                            Reply::Line(error_line(&job.id, dark.kind(), &dark.to_string()))
                        }
                    };
                }
                return;
            }
            Err(e) => {
                let detail = match e {
                    Error::InvalidInput { detail } => detail,
                    other => other.to_string(),
                };
                for (slot, job) in jobs {
                    stats.invalid += 1;
                    replies[slot] = Reply::Invalid {
                        error: invalid(job.frame_no, &detail),
                        id: job.id,
                    };
                }
                return;
            }
        };
        let validate = telemetry::span!("serve/validate", rows = jobs.len());
        let mut validator = Validator::new(&model.compiled.artifact.schema);
        let mut valid = Vec::with_capacity(jobs.len());
        for (slot, job) in jobs {
            match validator.cells(&job.members, job.frame_no) {
                Err(error) => {
                    stats.invalid += 1;
                    replies[slot] = Reply::Invalid { id: job.id, error };
                }
                // Cache-hits-only service under stress.
                Ok(cells) if degraded => {
                    let key: Vec<u64> = canonical_key(&cells).collect();
                    replies[slot] = match model.cache.get(&key) {
                        Some(prediction) => cache_hit(job, prediction, stats, latency),
                        None => {
                            stats.degraded_rejects += 1;
                            Reply::Line(error_line(
                                &job.id,
                                "overloaded",
                                "degraded mode: cache miss rejected while \
                                 recovering from overload",
                            ))
                        }
                    };
                }
                Ok(cells) => valid.push((
                    slot,
                    job,
                    Request {
                        // The response id stays with the job.
                        id: String::new(),
                        cells,
                    },
                )),
            }
        }
        drop(validate);
        if valid.is_empty() {
            return;
        }
        let refs: Vec<&Request> = valid.iter().map(|(_, _, r)| r).collect();
        let outcome = predict_window(&model.compiled, &mut model.cache, workers, &refs);
        let served = refs.len() as u64;
        stats.requests += served;
        stats.cache_hits += outcome.hits;
        stats.cache_misses += served - outcome.hits;
        stats.predictions += outcome.predictions;
        stats.batches += outcome.batches;
        for ((slot, job, _), (prediction, cached)) in valid.into_iter().zip(outcome.results) {
            replies[slot] = Reply::Predicted {
                id: job.id,
                prediction,
                cached,
            };
            latency.observe_ns(job.admitted_at.elapsed());
        }
    }

    /// Execute one control op; returns the response line and whether the
    /// op was a shutdown.
    fn exec_control(&mut self, job: ControlJob, stats: &mut DaemonStats) -> (String, bool) {
        stats.control_ops += 1;
        let ack = |op: &str| {
            JsonObject::new()
                .str("id", &job.id)
                .bool("ok", true)
                .str("op", op)
        };
        match &job.op {
            Op::Load { name, path } => match self.registry.load(name, path) {
                Ok(v) => (
                    ack("load").str("model", name).uint("version", v).finish(),
                    false,
                ),
                Err(e) => (error_line(&job.id, e.kind(), &e.to_string()), false),
            },
            Op::Reload { route } => match self.registry.reload(route) {
                Ok(v) => (
                    ack("reload")
                        .str("model", route)
                        .uint("version", v)
                        .finish(),
                    false,
                ),
                Err(e) => (error_line(&job.id, e.kind(), &e.to_string()), false),
            },
            Op::Unload { route } => match self.registry.unload(route) {
                Ok(()) => (ack("unload").str("model", route).finish(), false),
                Err(e) => (error_line(&job.id, e.kind(), &e.to_string()), false),
            },
            Op::Status => {
                let models = self.registry.status_json().join(",");
                (
                    ack("status")
                        .bool("all_quarantined", self.registry.all_quarantined())
                        .raw("models", &format!("[{models}]"))
                        .finish(),
                    false,
                )
            }
            Op::Shutdown => (ack("shutdown").finish(), true),
        }
    }
}

/// A predict answered from a model's cache.
fn cache_hit<'w>(
    job: PredictJob<'w>,
    prediction: f64,
    stats: &mut DaemonStats,
    latency: &mut Histogram,
) -> Reply<'w> {
    stats.requests += 1;
    stats.cache_hits += 1;
    latency.observe_ns(job.admitted_at.elapsed());
    Reply::Predicted {
        id: job.id,
        prediction,
        cached: true,
    }
}

fn all_quarantined() -> Error {
    Error::quarantined(
        "*",
        "every model version is quarantined; daemon cannot serve",
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
    use telemetry::json::Value;

    /// Replay `input` through a daemon whose registry holds just `artifact`
    /// (saved to a temporary file): the stats and the response text.
    pub(crate) fn replay_artifact(
        artifact: &mlmodels::ModelArtifact,
        config: DaemonConfig,
        input: &str,
    ) -> (Result<DaemonStats>, String) {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "perfpredict-replay-{}-{}.ppmodel",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let path = path.to_string_lossy().into_owned();
        artifact.save(&path).expect("save artifact");
        let mut registry = Registry::new(crate::registry::RegistryConfig::default());
        registry.load("m", &path).expect("load artifact");
        let _ = std::fs::remove_file(&path);
        let mut daemon = Daemon::new(config, registry).expect("daemon config");
        let mut out = Vec::new();
        let stats = daemon.replay(input.as_bytes(), &mut out);
        (stats, String::from_utf8(out).expect("responses are UTF-8"))
    }

    fn write_artifact(dir: &std::path::Path, file: &str) -> String {
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 5) as f64 * 25.0).collect();
        let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 3.0).collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).set_target(y);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 3).expect("train"), &t);
        let path = dir.join(file).to_string_lossy().into_owned();
        art.save(&path).expect("save artifact");
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfpredict-daemon-{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn reg_cfg() -> RegistryConfig {
        RegistryConfig {
            cache_cap: 64,
            load_retries: 0,
            backoff_ms: 1,
        }
    }

    fn cfg() -> DaemonConfig {
        DaemonConfig {
            window: 8,
            queue_cap: 64,
            workers: 2,
            deadline_ms: None,
            max_frame_bytes: 4096,
            default_model: None,
        }
    }

    fn run_daemon(
        config: DaemonConfig,
        registry: Registry,
        input: Vec<u8>,
    ) -> (Result<DaemonStats>, Vec<String>) {
        let mut daemon = Daemon::new(config, registry).expect("daemon config");
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let result = daemon.run(std::io::Cursor::new(input), Arc::clone(&out));
        let bytes = lock(&out).clone();
        let lines = String::from_utf8(bytes)
            .expect("response stream is UTF-8")
            .lines()
            .map(String::from)
            .collect();
        (result, lines)
    }

    /// The model behind [`write_artifact`]: LR-E over one column `x`.
    fn x_artifact(kind: ModelKind) -> ModelArtifact {
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 5) as f64 * 25.0).collect();
        let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 3.0).collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).set_target(y);
        ModelArtifact::from_training(try_train(kind, &t, 3).expect("train"), &t)
    }

    #[test]
    fn degenerate_config_is_rejected() {
        for bad in [
            DaemonConfig { window: 0, ..cfg() },
            DaemonConfig {
                workers: 0,
                ..cfg()
            },
            DaemonConfig {
                max_frame_bytes: 8,
                ..cfg()
            },
        ] {
            let err = Daemon::new(bad, Registry::new(reg_cfg()))
                .err()
                .expect("rejected");
            assert_eq!(err.kind(), "invalid");
        }
    }

    #[test]
    fn replay_predicts_within_window_duplicates_once() {
        let input: String = (0..16)
            .map(|i| format!("{{\"id\":\"{i}\",\"x\":150}}\n"))
            .collect();
        let config = DaemonConfig {
            window: 16,
            ..cfg()
        };
        let (stats, out) = replay_artifact(&x_artifact(ModelKind::LrE), config, &input);
        let stats = stats.expect("replay");
        assert_eq!(out.lines().count(), 16);
        assert_eq!(stats.predictions, 1, "{stats:?}");
        assert_eq!(stats.cache_misses, 16);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn replay_predictions_match_direct_model_calls() {
        let art = x_artifact(ModelKind::NnS);
        let mut t = Table::new();
        t.add_numeric("x", vec![137.5]).set_target(vec![0.0]);
        let direct = art.model.try_predict(&t).expect("predict")[0];
        let (stats, out) = replay_artifact(&art, cfg(), "{\"x\":137.5}\n");
        stats.expect("replay");
        assert_eq!(
            out,
            format!(
                "{{\"id\":\"1\",\"prediction\":{},\"cached\":false}}\n",
                json::number(direct)
            )
        );
    }

    #[test]
    fn replay_aborts_on_the_first_invalid_frame_naming_its_line() {
        // Line 2 is blank; the first bad frame is on line 4, and nothing
        // of its window is written.
        for (bad, needle) in [
            ("not json", "malformed JSON"),
            ("{\"x\":\"wide\"}", "must be a finite number"),
            ("{\"x\":150,\"typo\":1}", "unknown field 'typo'"),
            ("{\"model\":\"nope\",\"x\":150}", "unknown model 'nope'"),
            ("{\"id\":[1],\"x\":150}", "'id' must be a string or number"),
        ] {
            let input = format!("{{\"x\":150}}\n\n{{\"x\":175}}\n{bad}\n{{\"x\":\"wide\"}}\n");
            let (stats, out) = replay_artifact(&x_artifact(ModelKind::LrE), cfg(), &input);
            let err = stats.expect_err(bad);
            assert_eq!(err.kind(), "invalid", "{bad}");
            let msg = err.to_string();
            assert!(
                msg.contains("request line 4") && msg.contains(needle),
                "{bad}: {msg}"
            );
            assert!(out.is_empty(), "{bad}: {out}");
        }
    }

    #[test]
    fn replay_shares_the_control_grammar() {
        let input =
            "{\"x\":150}\n{\"id\":\"s\",\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n{\"x\":175}\n";
        let (stats, out) = replay_artifact(&x_artifact(ModelKind::LrE), cfg(), input);
        let stats = stats.expect("shutdown ends the replay cleanly");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "frames after shutdown are not served: {out}"
        );
        assert!(lines[1].contains("\"op\":\"status\""), "{}", lines[1]);
        assert!(lines[2].contains("\"op\":\"shutdown\""), "{}", lines[2]);
        assert_eq!((stats.requests, stats.control_ops), (1, 2));
    }

    #[test]
    fn replay_latency_summary_is_ordered_and_rendered() {
        let input: String = (0..300)
            .map(|i| format!("{{\"x\":{}}}\n", 100 + (i % 12) * 10))
            .collect();
        let (stats, out) = replay_artifact(&x_artifact(ModelKind::LrE), cfg(), &input);
        let stats = stats.expect("replay");
        assert_eq!(out.lines().count(), 300);
        assert!(stats.p50_ms > 0.0, "{stats:?}");
        assert!(stats.p95_ms >= stats.p50_ms, "{stats:?}");
        assert!(stats.p99_ms >= stats.p95_ms, "{stats:?}");
        assert!(stats.max_ms >= stats.p99_ms, "{stats:?}");
        let json = stats.to_json();
        for key in ["\"p50_ms\":", "\"p95_ms\":", "\"p99_ms\":", "\"max_ms\":"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn replay_deadline_zero_misses_without_degrading() {
        // The same stream as `deadline_zero_misses_and_degraded_mode_recovers`:
        // the replay answers the miss after the deadline instead of
        // rejecting it, so its output does not depend on timing.
        let input = concat!(
            "{\"id\":\"a1\",\"x\":150}\n",
            "{\"id\":\"b\",\"x\":175,\"deadline_ms\":0}\n",
            "{\"id\":\"c1\",\"x\":200}\n",
        );
        let config = DaemonConfig { window: 1, ..cfg() };
        let art = x_artifact(ModelKind::LrE);
        let (stats, out) = replay_artifact(&art, config, input);
        let stats = stats.expect("a missed deadline is answered, not fatal");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(
            lines[1].starts_with("{\"id\":\"b\",\"error\":\"deadline\""),
            "{}",
            lines[1]
        );
        let mut t = Table::new();
        t.add_numeric("x", vec![200.0]).set_target(vec![0.0]);
        let direct = art.model.try_predict(&t).expect("predict")[0];
        assert_eq!(
            lines[2],
            format!(
                "{{\"id\":\"c1\",\"prediction\":{},\"cached\":false}}",
                json::number(direct)
            )
        );
        assert_eq!(
            (
                stats.deadline_misses,
                stats.degraded_entries,
                stats.degraded_rejects
            ),
            (1, 0, 0)
        );
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn only_the_long_lived_daemon_needs_a_queue_of_a_full_window() {
        let config = DaemonConfig {
            queue_cap: 4,
            ..cfg()
        };
        let (stats, out) =
            replay_artifact(&x_artifact(ModelKind::LrE), config.clone(), "{\"x\":150}\n");
        stats.expect("the replay holds one window and has no queue");
        assert_eq!(out.lines().count(), 1);
        let (result, lines) =
            run_daemon(config, Registry::new(reg_cfg()), b"{\"x\":150}\n".to_vec());
        let err = result.expect_err("queue smaller than the window");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("queue capacity 4"), "{err}");
        assert!(lines.is_empty(), "{lines:?}");
    }

    #[test]
    fn load_predict_status_shutdown_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = write_artifact(&dir, "m.ppmodel");
        let input = format!(
            concat!(
                "{{\"id\":\"c1\",\"op\":\"load\",\"model\":\"m\",\"path\":\"{}\"}}\n",
                "{{\"id\":\"q1\",\"x\":150}}\n",
                "{{\"id\":\"c2\",\"op\":\"status\"}}\n",
                "{{\"id\":\"c3\",\"op\":\"shutdown\"}}\n",
                "{{\"id\":\"never\",\"x\":150}}\n",
            ),
            path
        );
        let (result, lines) = run_daemon(cfg(), Registry::new(reg_cfg()), input.into_bytes());
        let stats = result.expect("clean shutdown");
        assert_eq!(
            lines.len(),
            4,
            "frames after shutdown are not read: {lines:?}"
        );
        assert!(
            lines[0].contains("\"ok\":true") && lines[0].contains("\"version\":1"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"id\":\"q1\"") && lines[1].contains("\"prediction\":"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"state\":\"ready\"")
                && lines[2].contains("\"all_quarantined\":false"),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains("\"op\":\"shutdown\""), "{}", lines[3]);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.control_ops, 3);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.invalid, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_frame_gets_typed_response_then_clean_eof() {
        let dir = tmpdir("trunc");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        // Second frame is cut mid-JSON with no trailing newline — the
        // classic torn write. The daemon must answer it with a typed
        // invalid response and then end cleanly, never hang.
        let input = b"{\"id\":\"q1\",\"x\":150}\n{\"id\":\"q2\",\"x\":17".to_vec();
        let (result, lines) = run_daemon(cfg(), reg, input);
        let stats = result.expect("truncation is the client's problem, not the daemon's");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"prediction\":"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"error\":\"invalid\"") && lines[1].contains("malformed JSON"),
            "{}",
            lines[1]
        );
        assert_eq!(stats.invalid, 1);
        assert_eq!(stats.requests, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_zero_misses_and_degraded_mode_recovers() {
        let dir = tmpdir("deadline");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        // window=1 makes each frame its own window, so the degraded
        // state machine steps once per frame, deterministically.
        let config = DaemonConfig {
            window: 1,
            queue_cap: 64,
            ..cfg()
        };
        let input = concat!(
            "{\"id\":\"a1\",\"x\":150}\n",                  // predicted
            "{\"id\":\"b\",\"x\":175,\"deadline_ms\":0}\n", // deadline miss -> degraded
            "{\"id\":\"c1\",\"x\":200}\n",                  // degraded: miss rejected
            "{\"id\":\"c2\",\"x\":200}\n",                  // recovered: predicted
            "{\"id\":\"a2\",\"x\":150}\n",                  // cache hit
        )
        .as_bytes()
        .to_vec();
        let (result, lines) = run_daemon(config, reg, input);
        let stats = result.expect("clean EOF");
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert!(
            lines[0].contains("\"prediction\":") && lines[0].contains("\"cached\":false"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"error\":\"deadline\"") && lines[1].contains("\"id\":\"b\""),
            "fail-closed: no late prediction: {}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"error\":\"overloaded\"") && lines[2].contains("degraded"),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].contains("\"prediction\":") && lines[3].contains("\"cached\":false"),
            "{}",
            lines[3]
        );
        assert!(lines[4].contains("\"cached\":true"), "{}", lines[4]);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.degraded_rejects, 1);
        assert_eq!(stats.degraded_entries, 1);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_reload_fails_closed_with_typed_exit() {
        let dir = tmpdir("quarantine-exit");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        std::fs::write(&path, "garbage").expect("corrupt the artifact");
        let input = concat!(
            "{\"id\":\"q1\",\"x\":150}\n",
            "{\"id\":\"c1\",\"op\":\"reload\",\"model\":\"m\"}\n",
        )
        .as_bytes()
        .to_vec();
        let (result, lines) = run_daemon(cfg(), reg, input);
        let err = result.expect_err("all versions dark");
        assert_eq!(err.kind(), "quarantined", "{err}");
        assert!(lines[0].contains("\"prediction\":"), "{}", lines[0]);
        assert!(lines[1].contains("\"error\":\"artifact\""), "{}", lines[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Build a registry whose only model is quarantined but carries a
    /// warm salvaged cache for the config `x = warm_x`.
    fn quarantined_registry(dir: &std::path::Path, warm_x: f64) -> Registry {
        let path = write_artifact(dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        // Warm the serving cache through the real predict path.
        match reg.resolve("m").expect("ready") {
            Route::Ready { model, .. } => {
                let line = format!("{{\"x\":{warm_x}}}");
                let req = crate::request::parse_request_line(&model.artifact().schema, &line, 1)
                    .expect("valid request");
                let refs = [&req];
                let _ = predict_window(&model.compiled, &mut model.cache, 1, &refs);
            }
            Route::Quarantined { .. } => panic!("fresh load must be ready"),
        }
        std::fs::write(&path, "garbage").expect("corrupt");
        reg.reload("m").expect_err("corrupt reload");
        assert!(reg.all_quarantined());
        reg
    }

    #[test]
    fn quarantined_route_serves_salvaged_cache_hits() {
        let dir = tmpdir("salvage-hit");
        let reg = quarantined_registry(&dir, 150.0);
        let input = b"{\"id\":\"q1\",\"x\":150}\n".to_vec();
        let (result, lines) = run_daemon(cfg(), reg, input);
        assert_eq!(result.expect_err("still all dark").kind(), "quarantined");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("\"prediction\":") && lines[0].contains("\"cached\":true"),
            "degraded hit-serving: {}",
            lines[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_route_rejects_misses_with_typed_error() {
        let dir = tmpdir("salvage-miss");
        let reg = quarantined_registry(&dir, 150.0);
        let input = b"{\"id\":\"q1\",\"x\":999}\n".to_vec();
        let (result, lines) = run_daemon(cfg(), reg, input);
        assert_eq!(result.expect_err("all dark").kind(), "quarantined");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("\"error\":\"quarantined\"") && lines[0].contains("m@1"),
            "{}",
            lines[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_frame_is_a_protocol_violation() {
        let dir = tmpdir("oversized");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        let config = DaemonConfig {
            max_frame_bytes: 64,
            ..cfg()
        };
        let big = format!(
            "{{\"id\":\"q1\",\"x\":150,\"pad\":\"{}\"}}\n",
            "y".repeat(200)
        );
        let (result, _) = run_daemon(config, reg, big.into_bytes());
        let err = result.expect_err("protocol violation");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("exceeds 64 bytes"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_frame_is_a_protocol_violation() {
        let dir = tmpdir("nonutf8");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        let input = vec![0xff, 0xfe, 0x80, b'\n'];
        let (result, _) = run_daemon(cfg(), reg, input);
        let err = result.expect_err("protocol violation");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admitted_output_is_byte_identical_across_worker_counts() {
        let dir = tmpdir("workers");
        let path = write_artifact(&dir, "m.ppmodel");
        // Distinct configs only: the cached flag is then false on every
        // response no matter how the admission windows split, so full
        // output bytes are comparable.
        let mut input = String::new();
        for i in 0..60 {
            input.push_str(&format!("{{\"id\":\"q{i}\",\"x\":{}}}\n", 100 + i * 7));
        }
        let mut baseline = None;
        for workers in [1, 2, 4] {
            let mut reg = Registry::new(reg_cfg());
            reg.load("m", &path).expect("load");
            let config = DaemonConfig {
                workers,
                queue_cap: 1024,
                window: 16,
                ..cfg()
            };
            let (result, lines) = run_daemon(config, reg, input.clone().into_bytes());
            let stats = result.expect("clean EOF");
            assert_eq!(stats.shed, 0, "no shedding in this workload");
            assert_eq!(lines.len(), 60);
            match &baseline {
                None => baseline = Some(lines),
                Some(b) => assert_eq!(b, &lines, "{workers} workers diverged"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer that sleeps on every line, standing in for a slow
    /// downstream consumer.
    struct SlowWriter {
        inner: Vec<u8>,
        delay: Duration,
    }

    impl Write for SlowWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            self.inner.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn slow_consumer_sheds_typed_responses_never_silent_drops() {
        let dir = tmpdir("shed");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        let mut daemon = Daemon::new(
            DaemonConfig {
                window: 2,
                queue_cap: 4,
                workers: 1,
                ..cfg()
            },
            reg,
        )
        .expect("daemon config");
        let total = 120;
        let mut input = String::new();
        for i in 0..total {
            input.push_str(&format!(
                "{{\"id\":\"q{i}\",\"x\":{}}}\n",
                100 + (i % 6) * 10
            ));
        }
        let out = Arc::new(Mutex::new(SlowWriter {
            inner: Vec::new(),
            delay: Duration::from_millis(2),
        }));
        let stats = daemon
            .run(std::io::Cursor::new(input.into_bytes()), Arc::clone(&out))
            .expect("clean EOF");
        let bytes = lock(&out).inner.clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // Conservation: every admitted-or-shed frame produced exactly
        // one response line — shedding is typed, never silent.
        assert_eq!(lines.len() as u64, total, "one response per frame");
        let shed_lines = lines
            .iter()
            .filter(|l| l.contains("\"error\":\"overloaded\""))
            .count() as u64;
        assert!(
            stats.shed > 0,
            "slow consumer must force shedding: {stats:?}"
        );
        assert_eq!(
            shed_lines,
            stats.shed + stats.degraded_rejects,
            "typed rejections match counters: {stats:?}"
        );
        assert_eq!(
            stats.requests + stats.shed + stats.degraded_rejects,
            total,
            "{stats:?}"
        );
        assert!(stats.max_queue_depth <= 4, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_errors_are_typed_invalid_not_fatal() {
        let dir = tmpdir("routing");
        let p1 = write_artifact(&dir, "a.ppmodel");
        let p2 = write_artifact(&dir, "b.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("alpha", &p1).expect("alpha");
        reg.load("beta", &p2).expect("beta");
        let input = concat!(
            "{\"id\":\"q1\",\"x\":150}\n", // ambiguous: two models
            "{\"id\":\"q2\",\"model\":\"nope\",\"x\":150}\n", // unknown route
            "{\"id\":\"q3\",\"model\":\"alpha\",\"x\":150}\n", // fine
            "not json at all\n",           // malformed
        )
        .as_bytes()
        .to_vec();
        let (result, lines) = run_daemon(cfg(), reg, input);
        let stats = result.expect("clean EOF despite bad frames");
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(
            lines[0].contains("\"error\":\"invalid\"") && lines[0].contains("no 'model'"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"error\":\"invalid\"") && lines[1].contains("unknown model"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"prediction\":"), "{}", lines[2]);
        assert!(
            lines[3].contains("\"error\":\"invalid\"") && lines[3].contains("malformed"),
            "{}",
            lines[3]
        );
        assert_eq!(stats.invalid, 3);
        assert_eq!(stats.requests, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A predicted reply is written in place, byte for byte the
    /// `JsonObject` it replaced, escapes and non-finite numbers included.
    #[test]
    fn predicted_reply_renders_like_a_json_object() {
        for (id, prediction, cached) in [
            ("q1", 1.25, false),
            ("quote\"back\\slash\ttab\u{1}", -0.0, true),
            ("big", 1e300, false),
            ("nan", f64::NAN, true),
            ("inf", f64::NEG_INFINITY, false),
        ] {
            let mut out = String::new();
            Reply::Predicted {
                id: Cow::Borrowed(id),
                prediction,
                cached,
            }
            .render(&mut out);
            let want = JsonObject::new()
                .str("id", id)
                .raw("prediction", &json::number(prediction))
                .bool("cached", cached)
                .finish();
            assert_eq!(out, format!("{want}\n"));
        }
    }

    /// A window with more distinct misses than two shards' minimum is
    /// split across workers, and its output is the same bytes for any
    /// worker count.
    #[test]
    fn replay_of_sharded_windows_is_identical_across_worker_counts() {
        let rows = 5 * crate::core::MIN_SHARD_ROWS;
        let input: String = (0..rows)
            .map(|i| format!("{{\"x\":{}}}\n", 100.0 + (i % 4500) as f64 * 0.125))
            .collect();
        let art = x_artifact(ModelKind::LrE);
        let mut baseline = None;
        for workers in [1, 2, 8] {
            let config = DaemonConfig {
                window: 4 * crate::core::MIN_SHARD_ROWS,
                workers,
                ..cfg()
            };
            let (stats, out) = replay_artifact(&art, config, &input);
            let stats = stats.expect("replay");
            assert_eq!(out.lines().count(), rows);
            assert_eq!((stats.windows, stats.predictions), (2, 4500), "{stats:?}");
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert!(b == &out, "{workers} workers diverged"),
            }
        }
    }

    #[test]
    fn only_frames_with_an_op_key_or_an_escape_may_be_control() {
        assert!(may_be_control("{\"op\":\"status\"}"));
        assert!(may_be_control("{\"id\":\"op\",\"x\":1}"));
        assert!(may_be_control("{\"\\u006fp\":\"status\"}"));
        assert!(!may_be_control("{\"id\":\"q1\",\"x\":150}"));
        assert!(!may_be_control("{\"id\":\"op1\",\"hop\":1}"));
    }

    /// The reader parses a frame only when it may be a control op, so
    /// `"op"` as a string value is served as a predict, and an `op` key
    /// spelled with an escape is still a control op: after an escaped
    /// `shutdown` the reader stops reading.
    #[test]
    fn reader_sees_escaped_op_keys_and_serves_op_values() {
        let dir = tmpdir("op-probe");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(reg_cfg());
        reg.load("m", &path).expect("load");
        let mut input = String::from(concat!(
            "{\"id\":\"op\",\"x\":150}\n",
            "{\"id\":\"v\",\"x\":\"op\"}\n",
            "{\"id\":\"s\",\"\\u006fp\":\"shutdown\"}\n",
        ));
        for i in 0..40 {
            input.push_str(&format!("{{\"id\":\"late{i}\",\"x\":175}}\n"));
        }
        let (result, lines) = run_daemon(cfg(), reg, input.into_bytes());
        let stats = result.expect("clean shutdown");
        assert_eq!(lines.len(), 3, "nothing after shutdown is read: {lines:?}");
        assert!(
            lines[0].starts_with("{\"id\":\"op\",\"prediction\":"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"error\":\"invalid\"") && lines[1].contains("finite number"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"op\":\"shutdown\""), "{}", lines[2]);
        assert_eq!((stats.requests, stats.control_ops, stats.shed), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With nobody draining the queue, every data frame past its capacity
    /// is shed with a typed line naming the frame's id (its line number
    /// when it has none or does not parse), and control frames still get
    /// in.
    #[test]
    fn reader_sheds_full_queue_frames_with_their_ids() {
        let input = concat!(
            "{\"id\":\"a\",\"x\":100}\n",
            "{\"id\":\"b\",\"x\":150}\n",
            "{\"x\":175}\n",
            "not json\n",
            "{\"id\":\"c\",\"op\":\"predict\",\"x\":1}\n",
            "{\"id\":7,\"x\":2}\n",
            "{\"op\":\"status\"}\n",
        );
        let queue = AdmissionQueue::new(1);
        let writer = Arc::new(Mutex::new(Vec::new()));
        let terminated = AtomicBool::new(false);
        reader_loop(&mut input.as_bytes(), &queue, &writer, &terminated, 4096).expect("clean EOF");
        let text = String::from_utf8(lock(&writer).clone()).expect("utf8");
        let ids: Vec<String> = text
            .lines()
            .map(|l| {
                let v = json::parse(l).expect("shed line is JSON");
                assert_eq!(v.get("error").and_then(Value::as_str), Some("overloaded"));
                v.get("id").and_then(Value::as_str).expect("id").to_string()
            })
            .collect();
        assert_eq!(ids, ["b", "3", "4", "c", "7"]);
        assert_eq!(queue.shed_count(), 5);
        assert_eq!(queue.depth(), 2, "the first predict and the status op");
    }
}
