//! The long-lived serving daemon.
//!
//! Where [`crate::engine`] replays one request file against one artifact
//! and exits, the daemon holds a [`Registry`] of many models and serves
//! a framed JSONL protocol until told to stop. Each frame is one JSON
//! object; predict frames look exactly like one-shot replay requests
//! plus an optional envelope (`"model"` route, `"deadline_ms"`), and
//! control frames carry an `"op"`:
//!
//! ```text
//! {"op":"load","model":"mcf","path":"mcf.ppmodel"}
//! {"id":"q1","model":"mcf","speed":1800,"smt":true,"bpred":"gshare"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Robustness contract (the reason this module exists):
//!
//! * **Bounded admission, explicit shedding.** A reader thread drains
//!   the transport and admits work into an [`AdmissionQueue`]. When the
//!   queue is full the frame is answered immediately with a typed
//!   `{"error":"overloaded"}` line — never a silent drop, never
//!   unbounded memory.
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
use crate::request::{request_from_fields, Request};
use fault::{Error, Result};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::json::{self, JsonObject, Value};
use telemetry::Histogram;

/// Daemon tuning knobs. The CLI maps `serve --daemon` flags onto them.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Requests predicted per batch window.
    pub window: usize,
    /// Admission-queue capacity; frames beyond it are shed with a typed
    /// `overloaded` response.
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
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            deadline_ms: None,
            max_frame_bytes: 1 << 20,
            default_model: None,
        }
    }
}

impl DaemonConfig {
    fn validated(&self) -> Result<()> {
        if self.window == 0 {
            return Err(Error::invalid("daemon window must be at least 1"));
        }
        if self.queue_cap < self.window {
            return Err(Error::invalid(format!(
                "daemon queue capacity {} is smaller than the window {}",
                self.queue_cap, self.window
            )));
        }
        if self.workers == 0 {
            return Err(Error::invalid("daemon worker count must be at least 1"));
        }
        if self.max_frame_bytes < 16 {
            return Err(Error::invalid("daemon max frame bytes must be at least 16"));
        }
        Ok(())
    }
}

/// Counters and latency summary for one daemon run (the stderr summary
/// line and the soak gate's input).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonStats {
    /// Predict frames answered with a prediction (including cache hits).
    pub requests: u64,
    /// Predictions served from a model's LRU cache.
    pub cache_hits: u64,
    /// Predictions that missed the cache.
    pub cache_misses: u64,
    /// Distinct configurations actually predicted.
    pub predictions: u64,
    /// Prediction batches run.
    pub batches: u64,
    /// Admission windows processed.
    pub windows: u64,
    /// Queue-depth high-water mark.
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

/// A predict frame waiting for service. Fields are kept raw (envelope
/// already stripped) because schema validation needs the routed model,
/// which is resolved at dequeue time.
struct PredictJob {
    id: String,
    route: Option<String>,
    fields: BTreeMap<String, Value>,
    frame_no: u64,
    admitted_at: Instant,
    deadline_ms: Option<u64>,
}

enum WorkItem {
    Predict(PredictJob),
    Control(ControlJob),
    Malformed { id: String, detail: String },
}

impl WorkItem {
    fn id(&self) -> &str {
        match self {
            WorkItem::Predict(j) => &j.id,
            WorkItem::Control(j) => &j.id,
            WorkItem::Malformed { id, .. } => id,
        }
    }
}

/// Why a stream ended cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    Eof,
    Shutdown,
}

fn predict_line(id: &str, prediction: f64, cached: bool) -> String {
    JsonObject::new()
        .str("id", id)
        .raw("prediction", &json::number(prediction))
        .bool("cached", cached)
        .finish()
}

fn error_line(id: &str, kind: &str, detail: &str) -> String {
    JsonObject::new()
        .str("id", id)
        .str("error", kind)
        .str("detail", detail)
        .finish()
}

fn lock_writer<W>(writer: &Arc<Mutex<W>>) -> std::sync::MutexGuard<'_, W> {
    match writer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_lines<W: Write>(writer: &Arc<Mutex<W>>, lines: &[String]) -> Result<()> {
    let mut w = lock_writer(writer);
    for line in lines {
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .map_err(|e| Error::io("<daemon output>", e))?;
    }
    w.flush().map_err(|e| Error::io("<daemon output>", e))
}

/// One bounded frame read. `Ok(None)` is EOF; a partial final line
/// (EOF with no trailing newline) is returned as a normal frame so a
/// mid-line truncation becomes a typed `invalid` response followed by a
/// clean EOF — never a hang. Oversized and non-UTF-8 frames are
/// protocol violations (typed `InvalidInput`, exit code 2).
fn read_frame<R: BufRead>(input: &mut R, max: usize) -> Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let available = match input.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::io("<daemon input>", e)),
            };
            if available.is_empty() {
                if buf.is_empty() {
                    return Ok(None);
                }
                (0, true) // partial final frame
            } else {
                match available.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        buf.extend_from_slice(&available[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        buf.extend_from_slice(available);
                        (available.len(), false)
                    }
                }
            }
        };
        input.consume(consumed);
        if buf.len() > max {
            return Err(Error::invalid(format!(
                "protocol violation: frame exceeds {max} bytes"
            )));
        }
        if done {
            break;
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(Error::invalid(
            "protocol violation: frame is not valid UTF-8",
        )),
    }
}

fn field_id(
    fields: &BTreeMap<String, Value>,
    frame_no: u64,
) -> std::result::Result<String, String> {
    match fields.get("id") {
        None => Ok(frame_no.to_string()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::Num(x)) => Ok(json::number(*x)),
        Some(_) => Err("'id' must be a string or number".to_string()),
    }
}

fn take_str(
    fields: &mut BTreeMap<String, Value>,
    key: &str,
) -> std::result::Result<Option<String>, String> {
    match fields.remove(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

/// Classify one frame into a work item. Every malformation becomes a
/// typed `Malformed` item (answered in admission order), never an
/// abort: the daemon outlives its worst client.
fn classify_frame(line: &str, frame_no: u64) -> WorkItem {
    let frame_id = frame_no.to_string();
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return WorkItem::Malformed {
                id: frame_id,
                detail: format!("malformed JSON: {e}"),
            }
        }
    };
    let Value::Obj(mut fields) = parsed else {
        return WorkItem::Malformed {
            id: frame_id,
            detail: "request must be a JSON object".to_string(),
        };
    };
    let id = match field_id(&fields, frame_no) {
        Ok(id) => id,
        Err(detail) => {
            return WorkItem::Malformed {
                id: frame_id,
                detail,
            }
        }
    };
    let op = match take_str(&mut fields, "op") {
        Ok(op) => op,
        Err(detail) => return WorkItem::Malformed { id, detail },
    };
    let malformed = |id: String, detail: String| WorkItem::Malformed { id, detail };
    match op.as_deref() {
        None | Some("predict") => {
            let route = match take_str(&mut fields, "model") {
                Ok(r) => r,
                Err(detail) => return malformed(id, detail),
            };
            let deadline_ms = match fields.remove("deadline_ms") {
                None => None,
                Some(v) => match v.as_u64() {
                    Some(ms) => Some(ms),
                    None => {
                        return malformed(
                            id,
                            "'deadline_ms' must be a non-negative integer".to_string(),
                        )
                    }
                },
            };
            WorkItem::Predict(PredictJob {
                id,
                route,
                fields,
                frame_no,
                admitted_at: Instant::now(),
                deadline_ms,
            })
        }
        Some("load") => {
            let name = match take_str(&mut fields, "model") {
                Ok(Some(n)) => n,
                Ok(None) => return malformed(id, "'load' needs a 'model' name".to_string()),
                Err(detail) => return malformed(id, detail),
            };
            let path = match take_str(&mut fields, "path") {
                Ok(Some(p)) => p,
                Ok(None) => return malformed(id, "'load' needs a 'path'".to_string()),
                Err(detail) => return malformed(id, detail),
            };
            WorkItem::Control(ControlJob {
                id,
                op: Op::Load { name, path },
            })
        }
        Some(verb @ ("reload" | "unload")) => match take_str(&mut fields, "model") {
            Ok(Some(route)) => WorkItem::Control(ControlJob {
                id,
                op: if verb == "reload" {
                    Op::Reload { route }
                } else {
                    Op::Unload { route }
                },
            }),
            Ok(None) => malformed(id, format!("'{verb}' needs a 'model' route")),
            Err(detail) => malformed(id, detail),
        },
        Some("status") => WorkItem::Control(ControlJob { id, op: Op::Status }),
        Some("shutdown") => WorkItem::Control(ControlJob {
            id,
            op: Op::Shutdown,
        }),
        Some(other) => malformed(id, format!("unknown op '{other}'")),
    }
}

/// The reader half: drain the transport, classify frames, admit work.
/// Returns `Ok(())` on clean EOF or after a `shutdown` frame; a
/// protocol or transport error is returned for the core to surface.
fn reader_loop<R: BufRead, W: Write>(
    input: &mut R,
    queue: &AdmissionQueue<WorkItem>,
    writer: &Arc<Mutex<W>>,
    terminated: &AtomicBool,
    max_frame: usize,
) -> Result<()> {
    let mut frame_no = 0u64;
    loop {
        if terminated.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(line) = read_frame(input, max_frame)? else {
            return Ok(()); // EOF
        };
        // Every line counts, blank ones included, so a frame's default
        // id and error messages name its 1-based line in the stream,
        // exactly as one-shot `serve` numbers them.
        frame_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        let item = classify_frame(line.trim(), frame_no);
        match item {
            WorkItem::Control(job) => {
                let is_shutdown = matches!(job.op, Op::Shutdown);
                if queue.admit_priority(WorkItem::Control(job)).is_err() {
                    return Ok(()); // closed: the core is already terminating
                }
                if is_shutdown {
                    return Ok(()); // frames after shutdown are not read
                }
            }
            data => {
                // Predict and malformed frames share the data plane so
                // error responses keep admission order.
                let id = data.id().to_string();
                if let Err(e) = queue.try_admit(data) {
                    if terminated.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    // Typed shed response, written by the reader so the
                    // core never sees the frame. Never a silent drop.
                    write_lines(writer, &[error_line(&id, e.kind(), &e.to_string())])?;
                }
            }
        }
    }
}

/// A multi-model serving daemon (see module docs).
pub struct Daemon {
    config: DaemonConfig,
    registry: Registry,
}

impl Daemon {
    /// Build a daemon over a (possibly pre-loaded) registry.
    pub fn new(config: DaemonConfig, registry: Registry) -> Result<Daemon> {
        config.validated()?;
        Ok(Daemon { config, registry })
    }

    /// The hosted registry (for inspection in tests and the CLI).
    pub fn registry(&self) -> &Registry {
        &self.registry
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
        telemetry::gauge_set("serve/daemon_p99_ms", stats.p99_ms);
        telemetry::gauge_set("serve/daemon_shed", stats.shed as f64);
        telemetry::hist_merge("serve/daemon_latency_ns", latency);
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
        let queue: Arc<AdmissionQueue<WorkItem>> =
            Arc::new(AdmissionQueue::new(self.config.queue_cap));
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
                    let mut slot = match fatal.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    *slot = Some(e);
                }
                // Whatever the reason, no more work is coming.
                queue.close();
            })
        };
        let mut end = EndReason::Eof;
        let mut degraded = false;
        let mut all_quarantined = false;
        let mut last_shed = 0u64;
        while let Some(window) = queue.pop_window(self.config.window) {
            stats.windows += 1;
            telemetry::gauge_max("serve/queue_depth", queue.depth() as f64);
            let mut responses: Vec<Option<String>> = (0..window.len()).map(|_| None).collect();
            let mut pending: Vec<(usize, PredictJob)> = Vec::new();
            let mut window_deadline_misses = 0u64;
            let mut saw_shutdown = false;
            for (slot, item) in window.into_iter().enumerate() {
                match item {
                    WorkItem::Malformed { id, detail } => {
                        stats.invalid += 1;
                        responses[slot] = Some(error_line(&id, "invalid", &detail));
                    }
                    WorkItem::Predict(job) => pending.push((slot, job)),
                    WorkItem::Control(job) => {
                        // Flush predicts admitted before this op so a
                        // reload cannot retroactively affect them.
                        window_deadline_misses += self.flush_predicts(
                            &mut pending,
                            &mut responses,
                            stats,
                            latency,
                            degraded,
                        );
                        let (line, is_shutdown) = self.exec_control(job, stats);
                        responses[slot] = Some(line);
                        saw_shutdown |= is_shutdown;
                    }
                }
            }
            window_deadline_misses +=
                self.flush_predicts(&mut pending, &mut responses, stats, latency, degraded);
            let lines: Vec<String> = responses.into_iter().flatten().collect();
            write_lines(writer, &lines)?;
            // Health transitions happen at window boundaries: any new
            // shedding or deadline miss enters degraded mode; the first
            // window with neither (degraded rejects don't count as new
            // trouble) exits it.
            let shed_now = queue.shed_count();
            let trouble = shed_now > last_shed || window_deadline_misses > 0;
            last_shed = shed_now;
            if trouble && !degraded {
                degraded = true;
                stats.degraded_entries += 1;
                telemetry::counter_add("serve/degraded_entries", 1);
            } else if !trouble && degraded {
                degraded = false;
            }
            if saw_shutdown {
                end = EndReason::Shutdown;
                queue.close();
            }
            if self.registry.all_quarantined() {
                // Fail closed: drain the backlog (salvaged caches still
                // answer hits), then terminate with a typed error.
                all_quarantined = true;
                queue.close();
            }
        }
        terminated.store(true, Ordering::Relaxed);
        stats.shed += queue.shed_count();
        stats.max_queue_depth = stats.max_queue_depth.max(queue.high_water() as u64);
        if all_quarantined {
            // The core closed the queue while the transport may still be
            // open, so the reader could be parked in a blocking read that
            // nothing can interrupt. Detach it: the terminated flag makes
            // it exit silently at its next frame, and the daemon's typed
            // error must not wait on a client that went quiet.
            drop(reader);
        } else if reader.join().is_err() {
            return Err(Error::invalid("daemon reader thread panicked"));
        }
        let fatal_err = {
            let mut slot = match fatal.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.take()
        };
        if let Some(e) = fatal_err {
            return Err(e);
        }
        if all_quarantined {
            return Err(Error::quarantined(
                "*",
                "every model version is quarantined; daemon cannot serve",
            ));
        }
        Ok(end)
    }

    /// Serve the pending predict jobs of one window segment. Returns the
    /// number of deadline misses (the window's trouble signal).
    fn flush_predicts(
        &mut self,
        pending: &mut Vec<(usize, PredictJob)>,
        responses: &mut [Option<String>],
        stats: &mut DaemonStats,
        latency: &mut Histogram,
        degraded: bool,
    ) -> u64 {
        let mut misses = 0u64;
        let mut groups: BTreeMap<String, Vec<(usize, PredictJob)>> = BTreeMap::new();
        for (slot, job) in pending.drain(..) {
            // Deadline check, fail closed: an expired request gets a
            // typed response and no late prediction.
            let deadline = job.deadline_ms.or(self.config.deadline_ms);
            if let Some(ms) = deadline {
                let waited = job.admitted_at.elapsed();
                if waited >= Duration::from_millis(ms) {
                    let e = Error::deadline(waited.as_millis() as u64, ms);
                    responses[slot] = Some(error_line(&job.id, e.kind(), &e.to_string()));
                    stats.deadline_misses += 1;
                    misses += 1;
                    continue;
                }
            }
            let route = job
                .route
                .clone()
                .or_else(|| self.config.default_model.clone())
                .or_else(|| self.registry.sole_name().map(String::from));
            match route {
                Some(r) => groups.entry(r).or_default().push((slot, job)),
                None => {
                    stats.invalid += 1;
                    responses[slot] = Some(error_line(
                        &job.id,
                        "invalid",
                        "no 'model' specified and no default route",
                    ));
                }
            }
        }
        for (route, jobs) in groups {
            self.serve_group(&route, jobs, responses, stats, latency, degraded);
        }
        misses
    }

    /// Serve one route's jobs: resolve, validate, predict (or reject,
    /// when the route is quarantined or the daemon is degraded).
    fn serve_group(
        &mut self,
        route: &str,
        jobs: Vec<(usize, PredictJob)>,
        responses: &mut [Option<String>],
        stats: &mut DaemonStats,
        latency: &mut Histogram,
        degraded: bool,
    ) {
        let resolved = match self.registry.resolve(route) {
            Ok(r) => r,
            Err(e) => {
                for (slot, job) in jobs {
                    stats.invalid += 1;
                    responses[slot] = Some(error_line(&job.id, e.kind(), &e.to_string()));
                }
                return;
            }
        };
        match resolved {
            Route::Quarantined {
                label,
                reason,
                cache,
                schema,
            } => {
                // Dark route: salvaged cache hits still serve; anything
                // else is a typed quarantined rejection.
                for (slot, job) in jobs {
                    let hit = schema
                        .and_then(|s| request_from_fields(s, &job.fields, job.frame_no).ok())
                        .and_then(|req| cache.get(&req.canonical_key()));
                    match hit {
                        Some(p) => {
                            responses[slot] = Some(predict_line(&job.id, p, true));
                            stats.requests += 1;
                            stats.cache_hits += 1;
                            latency.observe_ns(job.admitted_at.elapsed());
                        }
                        None => {
                            let e = Error::quarantined(label.as_str(), reason.as_str());
                            responses[slot] = Some(error_line(&job.id, e.kind(), &e.to_string()));
                            stats.quarantined_rejects += 1;
                        }
                    }
                }
            }
            Route::Ready { model, .. } => {
                let mut valid: Vec<(usize, String, Instant, Request)> = Vec::new();
                for (slot, job) in jobs {
                    match request_from_fields(&model.artifact().schema, &job.fields, job.frame_no) {
                        Err(e) => {
                            stats.invalid += 1;
                            responses[slot] = Some(error_line(&job.id, e.kind(), &e.to_string()));
                        }
                        Ok(req) => {
                            if degraded {
                                // Cache-hits-only service under stress.
                                match model.cache.get(&req.canonical_key()) {
                                    Some(p) => {
                                        responses[slot] = Some(predict_line(&job.id, p, true));
                                        stats.requests += 1;
                                        stats.cache_hits += 1;
                                        latency.observe_ns(job.admitted_at.elapsed());
                                    }
                                    None => {
                                        stats.degraded_rejects += 1;
                                        responses[slot] = Some(error_line(
                                            &job.id,
                                            "overloaded",
                                            "degraded mode: cache miss rejected while \
                                             recovering from overload",
                                        ));
                                    }
                                }
                            } else {
                                valid.push((slot, job.id, job.admitted_at, req));
                            }
                        }
                    }
                }
                if !valid.is_empty() {
                    let refs: Vec<&Request> = valid.iter().map(|(_, _, _, r)| r).collect();
                    let outcome = predict_window(
                        &model.compiled,
                        &mut model.cache,
                        self.config.workers,
                        &refs,
                    );
                    for ((slot, id, admitted_at, _), &(p, cached)) in
                        valid.iter().zip(&outcome.results)
                    {
                        responses[*slot] = Some(predict_line(id, p, cached));
                        stats.requests += 1;
                        latency.observe_ns(admitted_at.elapsed());
                    }
                    stats.cache_hits += outcome.hits;
                    stats.cache_misses += valid.len() as u64 - outcome.hits;
                    stats.predictions += outcome.predictions;
                    stats.batches += outcome.batches;
                }
            }
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
        match job.op {
            Op::Load { name, path } => match self.registry.load(&name, &path) {
                Ok(v) => (
                    ack("load").str("model", &name).uint("version", v).finish(),
                    false,
                ),
                Err(e) => (error_line(&job.id, e.kind(), &e.to_string()), false),
            },
            Op::Reload { route } => match self.registry.reload(&route) {
                Ok(v) => (
                    ack("reload")
                        .str("model", &route)
                        .uint("version", v)
                        .finish(),
                    false,
                ),
                Err(e) => (error_line(&job.id, e.kind(), &e.to_string()), false),
            },
            Op::Unload { route } => match self.registry.unload(&route) {
                Ok(()) => (ack("unload").str("model", &route).finish(), false),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use mlmodels::{try_train, ModelArtifact, ModelKind, Table};

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
        let bytes = lock_writer(&out).clone();
        let lines = String::from_utf8(bytes)
            .expect("response stream is UTF-8")
            .lines()
            .map(String::from)
            .collect();
        (result, lines)
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
        let bytes = lock_writer(&out).inner.clone();
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
}
