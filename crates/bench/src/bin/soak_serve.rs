//! `soak_serve` — sustained, fault-injected soak of the serve daemon.
//!
//! Where the criterion benches measure microseconds, this harness runs
//! the daemon for *minutes* and proves the robustness contract holds
//! under continuous abuse. A two-model daemon serves a unix socket
//! while the driver cycles through injected faults from
//! `dse::faultinject`:
//!
//! * **steady** — cache-heavy replay against both models (the p99 SLO
//!   is measured over these admitted requests);
//! * **corrupt reload** — the second model's artifact is mangled on
//!   disk and reloaded (quarantine), then restored and reloaded
//!   (recovery); the first model must keep serving throughout;
//! * **garbage / torn frames** — non-JSON bytes get typed `invalid`
//!   responses, and a connection dropped mid-frame aborts only that
//!   connection, never the daemon;
//! * **burst** — a frame burst several times the admission capacity;
//! * **slow consumer** — an in-memory pass against a
//!   `faultinject::SlowWriter` where load-shedding is guaranteed, so
//!   the typed-`Overloaded`/no-silent-drop conservation law is checked
//!   exactly every cycle.
//!
//! SLOs are asserted at the end and violations exit with the
//! perf-regression code (6): bounded p99 for admitted requests, at
//! least one typed shed with exact response conservation, at least one
//! typed quarantined rejection, stable RSS (no monotonic growth), and
//! byte-identical admitted responses across 1..N workers.
//!
//! Usage: `soak_serve [--secs N] [--quick]` — default 150 s (the soak
//! gate requires ≥ 2 minutes); `--quick` is the CI smoke at 20 s.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dse::faultinject;
use fault::args::{Flag, Spec};
use fault::{Error, Result};
use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use serve::{generate_requests, Daemon, DaemonConfig, DaemonStats, Registry, RegistryConfig};
use telemetry::hist::Histogram;

const P99_SLO_MS: f64 = 250.0;
const STEADY_FRAMES: usize = 200;
const BURST_FRAMES: usize = 768;
const SLOW_FRAMES: usize = 160;

fn main() {
    match run() {
        Ok(()) => println!("soak_serve: all SLOs held"),
        Err(e) => {
            eprintln!("soak_serve: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// Deterministic training table shaped like the paper's design space
/// (same lattice the serve bench uses).
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

/// Resident set size in kB from /proc/self/status, when available.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// A soak client: one socket connection plus a drain thread that feeds
/// every response line into a channel, so the driver can blast frames
/// without ever deadlocking against the daemon's writes.
struct Client {
    stream: UnixStream,
    rx: mpsc::Receiver<String>,
}

impl Drop for Client {
    // The drain thread holds a cloned fd, so dropping the stream alone
    // would never EOF the daemon's read side; shut the write direction
    // down explicitly so the daemon moves on to the next connection.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl Client {
    fn connect(path: &str) -> Result<Client> {
        for _ in 0..400 {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let reader = stream.try_clone().map_err(|e| Error::io(path, e))?;
                    let (tx, rx) = mpsc::channel();
                    std::thread::spawn(move || {
                        let mut r = BufReader::new(reader);
                        let mut line = String::new();
                        loop {
                            line.clear();
                            match r.read_line(&mut line) {
                                Ok(0) | Err(_) => break,
                                Ok(_) => {
                                    if tx.send(line.trim_end().to_string()).is_err() {
                                        break;
                                    }
                                }
                            }
                        }
                    });
                    return Ok(Client { stream, rx });
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        Err(Error::invalid(format!(
            "daemon socket never came up at {path}"
        )))
    }

    fn send(&mut self, frame: &str) -> Result<()> {
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| Error::io("<soak client>", e))
    }

    /// Receive one response line; a timeout is a conservation violation
    /// (the daemon owed a response and never sent it).
    fn recv(&self, what: &str) -> Result<String> {
        self.rx.recv_timeout(Duration::from_secs(20)).map_err(|_| {
            Error::invalid(format!(
                "response conservation violated: no response for {what} within 20s"
            ))
        })
    }
}

/// Tallies of every typed response class seen over the socket.
#[derive(Default)]
struct Tally {
    sent: u64,
    received: u64,
    predictions: u64,
    overloaded: u64,
    quarantined: u64,
    invalid: u64,
    other_errors: u64,
    rtt: Histogram,
}

impl Tally {
    fn record(&mut self, line: &str) {
        self.received += 1;
        if line.contains("\"prediction\":") {
            self.predictions += 1;
        } else if line.contains("\"error\":\"overloaded\"") {
            self.overloaded += 1;
        } else if line.contains("\"error\":\"quarantined\"") {
            self.quarantined += 1;
        } else if line.contains("\"error\":\"invalid\"") {
            self.invalid += 1;
        } else if line.contains("\"error\":") {
            self.other_errors += 1;
        }
    }
}

/// Route a generated request frame to a named model by splicing a
/// `"model"` field into the JSON object.
fn routed(frame: &str, model: &str) -> String {
    frame.replacen('{', &format!("{{\"model\":\"{model}\","), 1)
}

fn steady_phase(
    client: &mut Client,
    stream_a: &[&str],
    stream_b: &[&str],
    tally: &mut Tally,
) -> Result<()> {
    for (i, frame) in stream_a.iter().chain(stream_b.iter()).enumerate() {
        let t0 = Instant::now();
        client.send(frame)?;
        tally.sent += 1;
        let line = client.recv("steady frame")?;
        tally.record(&line);
        tally.rtt.observe_ns(t0.elapsed());
        if i % 32 == 0 {
            telemetry::hist_observe_ns("soak/client_rtt_ns", t0.elapsed());
        }
    }
    Ok(())
}

fn burst_phase(client: &mut Client, stream: &[&str], tally: &mut Tally) -> Result<()> {
    let mut sent = 0u64;
    while sent < u64::try_from(BURST_FRAMES).expect("burst count fits u64") {
        for frame in stream {
            client.send(frame)?;
            sent += 1;
        }
    }
    tally.sent += sent;
    for _ in 0..sent {
        let line = client.recv("burst frame")?;
        tally.record(&line);
    }
    Ok(())
}

fn garbage_phase(client: &mut Client, tally: &mut Tally, seed: u64, probe: &str) -> Result<()> {
    for k in 0..4u64 {
        client.send(&faultinject::garbage_frame(seed.wrapping_add(k)))?;
        tally.sent += 1;
    }
    client.send(probe)?;
    tally.sent += 1;
    for _ in 0..5 {
        let line = client.recv("garbage-phase frame")?;
        tally.record(&line);
    }
    Ok(())
}

/// Drop a connection mid-frame: the daemon answers the torn tail into a
/// closing socket, aborts that connection, and must accept the next one.
fn torn_connection_phase(sock: &str) -> Result<()> {
    let mut victim = Client::connect(sock)?;
    victim
        .stream
        .write_all(b"{\"id\":\"torn\",\"l1_kb\":")
        .map_err(|e| Error::io("<soak client>", e))?;
    drop(victim);
    Ok(())
}

struct CorruptOutcome {
    quarantined_rejects: u64,
    recovered: bool,
}

/// Corrupt model B on disk, reload (quarantine), verify fail-closed
/// behaviour and that model A still serves, then restore and reload.
fn corrupt_reload_phase(
    client: &mut Client,
    path_b: &str,
    good_bytes: &[u8],
    probe_a: &str,
    misses_b: &[&str],
    cycle: u64,
    tally: &mut Tally,
) -> Result<CorruptOutcome> {
    faultinject::corrupt_artifact_bytes(path_b, 32, 0xB0B_u64.wrapping_add(cycle))?;
    client.send("{\"id\":\"rl-bad\",\"op\":\"reload\",\"model\":\"m_b\"}")?;
    tally.sent += 1;
    let reload_resp = client.recv("corrupt reload ack")?;
    tally.record(&reload_resp);
    if !reload_resp.contains("\"error\":") {
        return Err(Error::invalid(format!(
            "corrupt reload must be a typed error, got: {reload_resp}"
        )));
    }

    // Model A is untouched and must keep serving (fail-closed applies
    // to the quarantined version only, never the process).
    client.send(probe_a)?;
    tally.sent += 1;
    let a_resp = client.recv("model-A probe during quarantine")?;
    tally.record(&a_resp);

    // Cache-missing requests to the quarantined model B get typed
    // `quarantined` rejections; salvaged cache hits may still serve.
    let mut quarantined_rejects = 0u64;
    for frame in misses_b {
        client.send(frame)?;
        tally.sent += 1;
        let line = client.recv("quarantined-model probe")?;
        if line.contains("\"error\":\"quarantined\"") {
            quarantined_rejects += 1;
        }
        tally.record(&line);
    }

    // Restore the artifact and reload: the route must recover.
    std::fs::write(path_b, good_bytes).map_err(|e| Error::io(path_b, e))?;
    client.send("{\"id\":\"rl-good\",\"op\":\"reload\",\"model\":\"m_b\"}")?;
    tally.sent += 1;
    let recover_resp = client.recv("recovery reload ack")?;
    let recovered = recover_resp.contains("\"ok\":true");
    tally.record(&recover_resp);
    Ok(CorruptOutcome {
        quarantined_rejects,
        recovered,
    })
}

struct SlowConsumerOutcome {
    shed: u64,
    conserved: bool,
}

/// In-memory slow-consumer pass: a fresh daemon writes through a
/// `SlowWriter`, the queue backs up, and shedding is guaranteed. Every
/// frame must still get exactly one typed response.
fn slow_consumer_pass(path_a: &str, stream: &str) -> Result<SlowConsumerOutcome> {
    let mut registry = Registry::new(RegistryConfig {
        cache_cap: 16,
        ..RegistryConfig::default()
    });
    registry.load("m_a", path_a)?;
    let config = DaemonConfig {
        window: 2,
        queue_cap: 4,
        workers: 2,
        deadline_ms: None,
        max_frame_bytes: 1 << 20,
        default_model: Some("m_a".to_string()),
    };
    let mut daemon = Daemon::new(config, registry)?;
    let out = Arc::new(Mutex::new(faultinject::SlowWriter::new(
        Vec::new(),
        Duration::from_millis(2),
    )));
    let frames: Vec<&str> = stream.lines().take(SLOW_FRAMES).collect();
    let input = frames.join("\n") + "\n";
    let stats = daemon.run(std::io::Cursor::new(input.into_bytes()), Arc::clone(&out))?;
    let written = {
        let guard = match out.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.inner().clone()
    };
    let lines = String::from_utf8(written)
        .map_err(|_| Error::invalid("slow-consumer output is not UTF-8"))?;
    let responses = u64::try_from(lines.lines().count()).expect("line count fits u64");
    let total = u64::try_from(frames.len()).expect("frame count fits u64");
    let conserved =
        responses == total && stats.requests + stats.shed + stats.degraded_rejects == total;
    Ok(SlowConsumerOutcome {
        shed: stats.shed,
        conserved,
    })
}

/// Keep only the first frame per distinct config body. The workload
/// generator samples with replacement, and a *repeated* config's
/// `cached` flag depends on which admission window each occurrence
/// lands in — a race, not a determinism bug — so the byte-identity
/// check must run on an all-distinct stream where every response is
/// deterministically `cached:false`.
fn dedupe_requests(stream: &str) -> String {
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut out = String::new();
    for line in stream.lines() {
        // Generated frames are `{"id":"gN",<config...>}` — the config
        // body after the first comma is the identity.
        let body = line.split_once(',').map_or(line, |(_, rest)| rest);
        if seen.insert(body.to_string()) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Byte-identical admitted responses across worker counts: an
/// all-distinct stream (so the `cached` flag is deterministic) replayed
/// through fresh daemons at 1, 2, and 4 workers.
fn worker_determinism_pass(path_a: &str, schema_stream: &str) -> Result<bool> {
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut registry = Registry::new(RegistryConfig::default());
        registry.load("m_a", path_a)?;
        let config = DaemonConfig {
            window: 64,
            queue_cap: 1024,
            workers,
            deadline_ms: None,
            max_frame_bytes: 1 << 20,
            default_model: Some("m_a".to_string()),
        };
        let mut daemon = Daemon::new(config, registry)?;
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        daemon.run(
            std::io::Cursor::new(schema_stream.as_bytes().to_vec()),
            Arc::clone(&out),
        )?;
        let bytes = {
            let guard = match out.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.clone()
        };
        outputs.push(bytes);
    }
    Ok(outputs.iter().all(|o| *o == outputs[0]))
}

/// A duration, and no scale, seed or telemetry.
const SPEC: Spec<'static> = Spec {
    usage: "soak_serve",
    about: "fault-injected soak of the serve daemon",
    flags: &[&[Flag::value("--secs", "N"), Flag::switch("--quick")]],
};

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = fault::args::parse(&SPEC, &argv)?;
    let quick = if args.has("--quick") { 20 } else { 150 };
    let secs: u64 = args.num("--secs")?.unwrap_or(quick);
    println!("soak_serve: {secs}s fault-injected soak (p99 SLO {P99_SLO_MS} ms)");

    // ── Setup: train two artifacts, save to disk, start the daemon. ──
    let dir = std::env::temp_dir().join(format!("perfpredict-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| Error::io(dir.to_string_lossy().into_owned(), e))?;
    let table = training_table();
    let art_a = ModelArtifact::from_training(try_train(ModelKind::LrB, &table, 0x5E2)?, &table);
    let art_b = ModelArtifact::from_training(try_train(ModelKind::NnQ, &table, 0x5E2)?, &table);
    let path_a = dir.join("m_a.ppmodel").to_string_lossy().into_owned();
    let path_b = dir.join("m_b.ppmodel").to_string_lossy().into_owned();
    art_a.save(&path_a)?;
    art_b.save(&path_b)?;
    let good_bytes_b = std::fs::read(&path_b).map_err(|e| Error::io(&path_b, e))?;

    let mut registry = Registry::new(RegistryConfig {
        cache_cap: 16, // small on purpose: quarantined-route misses must occur
        ..RegistryConfig::default()
    });
    registry.load("m_a", &path_a)?;
    registry.load("m_b", &path_b)?;
    let config = DaemonConfig {
        window: 64,
        queue_cap: 256,
        workers: 2,
        deadline_ms: None,
        max_frame_bytes: 1 << 20,
        default_model: Some("m_a".to_string()),
    };
    let sock = dir.join("soak.sock").to_string_lossy().into_owned();
    let server_sock = sock.clone();
    let mut daemon = Daemon::new(config, registry)?;
    let server = std::thread::spawn(move || daemon.run_socket(&server_sock));

    // Pre-generated streams. Steady uses a hot set (cache hits dominate,
    // the p99 SLO case); burst and quarantine probes use distinct
    // configs so misses are guaranteed against the 16-entry cache.
    let steady = generate_requests(&art_a.schema, STEADY_FRAMES, 8, 0x5E2)?;
    let steady_a: Vec<String> = steady
        .lines()
        .take(STEADY_FRAMES / 2)
        .map(String::from)
        .collect();
    let steady_b: Vec<String> = steady
        .lines()
        .skip(STEADY_FRAMES / 2)
        .map(|l| routed(l, "m_b"))
        .collect();
    let burst = generate_requests(&art_a.schema, 96, 96, 0xB00)?;
    let burst_frames: Vec<String> = burst.lines().map(String::from).collect();
    let miss_stream = generate_requests(&art_b.schema, 40, 40, 0x0DD)?;
    let miss_b: Vec<String> = miss_stream.lines().map(|l| routed(l, "m_b")).collect();
    let slow_stream = generate_requests(&art_a.schema, SLOW_FRAMES, 8, 0x51C)?;
    let distinct_stream = dedupe_requests(&generate_requests(&art_a.schema, 128, 128, 0xD15)?);

    // ── Soak loop. ──
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut tally = Tally::default();
    let mut cycles = 0u64;
    let mut recoveries = 0u64;
    let mut quarantined_rejects = 0u64;
    let mut shed_total = 0u64;
    let mut slow_conserved = true;
    let mut rss_samples: Vec<u64> = Vec::new();
    let mut client = Client::connect(&sock)?;
    let steady_a_refs: Vec<&str> = steady_a.iter().map(String::as_str).collect();
    let steady_b_refs: Vec<&str> = steady_b.iter().map(String::as_str).collect();
    let burst_refs: Vec<&str> = burst_frames.iter().map(String::as_str).collect();
    let miss_refs: Vec<&str> = miss_b.iter().map(String::as_str).collect();

    while Instant::now() < deadline {
        steady_phase(&mut client, &steady_a_refs, &steady_b_refs, &mut tally)?;
        let outcome = corrupt_reload_phase(
            &mut client,
            &path_b,
            &good_bytes_b,
            steady_a_refs[0],
            &miss_refs,
            cycles,
            &mut tally,
        )?;
        quarantined_rejects += outcome.quarantined_rejects;
        if outcome.recovered {
            recoveries += 1;
        }
        garbage_phase(&mut client, &mut tally, cycles, steady_a_refs[1])?;
        // The torn connection kills `client`'s socket peer ordering, so
        // run it on its own connection, then continue on a fresh one.
        drop(client);
        torn_connection_phase(&sock)?;
        client = Client::connect(&sock)?;
        burst_phase(&mut client, &burst_refs, &mut tally)?;

        let slow = slow_consumer_pass(&path_a, &slow_stream)?;
        shed_total += slow.shed;
        slow_conserved &= slow.conserved;

        if let Some(kb) = rss_kb() {
            telemetry::gauge_set("soak/rss_kb", kb as f64);
            rss_samples.push(kb);
        }
        cycles += 1;
        println!(
            "cycle {cycles}: {} sent / {} answered, {} shed (in-mem), {} quarantined rejects, rss {} kB",
            tally.sent,
            tally.received,
            shed_total,
            quarantined_rejects,
            rss_samples.last().copied().unwrap_or(0)
        );
    }

    let deterministic = worker_determinism_pass(&path_a, &distinct_stream)?;

    // ── Shutdown and collect daemon-side stats. ──
    client.send("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
    tally.sent += 1;
    let bye = client.recv("shutdown ack")?;
    tally.record(&bye);
    drop(client);
    let stats: DaemonStats = server
        .join()
        .map_err(|_| Error::invalid("daemon server thread panicked"))??;

    // ── SLO verdict. ──
    let mut violations: Vec<String> = Vec::new();
    if stats.p99_ms > P99_SLO_MS {
        violations.push(format!(
            "serve/daemon_p99_ms {:.3} > SLO {P99_SLO_MS}",
            stats.p99_ms
        ));
    }
    if shed_total == 0 {
        violations.push("soak/shed_total 0 — slow-consumer pass never shed".to_string());
    }
    if !slow_conserved {
        violations
            .push("soak/conservation violated — shed frames without typed responses".to_string());
    }
    if tally.received != tally.sent {
        violations.push(format!(
            "soak/socket_conservation {} responses for {} frames",
            tally.received, tally.sent
        ));
    }
    if quarantined_rejects == 0 {
        violations
            .push("soak/quarantined_rejects 0 — fail-closed path never exercised".to_string());
    }
    if recoveries != cycles {
        violations.push(format!(
            "soak/recoveries {recoveries} of {cycles} corrupt-reload cycles recovered"
        ));
    }
    if !deterministic {
        violations.push("soak/worker_determinism outputs differ across 1..4 workers".to_string());
    }
    if rss_samples.len() >= 2 {
        let base = rss_samples[0];
        let last = rss_samples[rss_samples.len() - 1];
        let ceiling = base + (base / 2).max(49_152); // +50% or +48 MiB slack
        if last > ceiling {
            violations.push(format!(
                "soak/rss_kb grew {base} -> {last} (ceiling {ceiling})"
            ));
        }
    } else {
        println!("note: /proc/self/status unavailable; RSS SLO skipped");
    }

    let rtt_ms = |q: f64| tally.rtt.quantile(q) as f64 / 1e6;
    let mut summary: BTreeMap<&str, String> = BTreeMap::new();
    summary.insert("cycles", cycles.to_string());
    summary.insert("frames_sent", tally.sent.to_string());
    summary.insert("predictions", tally.predictions.to_string());
    summary.insert(
        "overloaded_typed",
        (tally.overloaded + shed_total).to_string(),
    );
    summary.insert("quarantined_typed", tally.quarantined.to_string());
    summary.insert("invalid_typed", tally.invalid.to_string());
    summary.insert("daemon_p99_ms", format!("{:.3}", stats.p99_ms));
    summary.insert("client_rtt_p50_ms", format!("{:.3}", rtt_ms(0.50)));
    summary.insert("client_rtt_p99_ms", format!("{:.3}", rtt_ms(0.99)));
    summary.insert("conn_aborts_survived", cycles.to_string());
    println!("\nsoak summary:");
    for (k, v) in &summary {
        println!("  {k:>22}  {v}");
    }

    let _ = std::fs::remove_dir_all(&dir);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(Error::Regression {
            metrics: violations,
        })
    }
}
