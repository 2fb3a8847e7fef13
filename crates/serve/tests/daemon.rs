//! Fault-injected integration tests for the serve daemon.
//!
//! The unit tests in `daemon.rs` pin the request-loop semantics; these
//! tests drive the daemon through `dse::faultinject`'s adversarial
//! helpers — torn frames, garbage bytes, on-disk artifact corruption,
//! slow consumers — and pin the *termination contract*: every exit path
//! maps to its documented exit code, and every admitted frame gets
//! exactly one typed response no matter what the injector does.
//! Two property tests extend the contract to arbitrary byte and fragment
//! soup through `Daemon::replay`.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dse::faultinject;
use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use proptest::prelude::*;
use serve::{Daemon, DaemonConfig, Registry, RegistryConfig};

fn write_artifact(dir: &std::path::Path, file: &str) -> String {
    let n = 40;
    let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 5) as f64 * 25.0).collect();
    let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 3.0).collect();
    let mut t = Table::new();
    t.add_numeric("x", xs).set_target(y);
    let art = ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 3).expect("train"), &t);
    let path = dir.join(file).to_string_lossy().into_owned();
    art.save(&path).expect("save artifact");
    path
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("perfpredict-daemon-it-{tag}"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn reg_with_model(dir: &std::path::Path) -> (Registry, String) {
    let path = write_artifact(dir, "m.ppmodel");
    let mut reg = Registry::new(RegistryConfig {
        cache_cap: 64,
        load_retries: 0,
        backoff_ms: 1,
    });
    reg.load("m", &path).expect("load artifact");
    (reg, path)
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
) -> (fault::Result<serve::DaemonStats>, Vec<String>) {
    let mut daemon = Daemon::new(config, registry).expect("daemon config");
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let result = daemon.run(std::io::Cursor::new(input), Arc::clone(&out));
    let bytes = out
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    let lines = String::from_utf8(bytes)
        .expect("response stream is UTF-8")
        .lines()
        .map(String::from)
        .collect();
    (result, lines)
}

/// Garbage frames and a torn final frame each get a typed `invalid`
/// response; the stream still ends with a clean EOF (exit code 0).
#[test]
fn injected_garbage_and_torn_tail_get_typed_responses_then_clean_eof() {
    let dir = tmpdir("garbage");
    let (reg, _) = reg_with_model(&dir);
    let text = format!(
        "{{\"id\":\"q1\",\"x\":150}}\n{}\n{{\"id\":\"q2\",\"x\":175}}\n{{\"id\":\"q3\",\"x\":200}}\n",
        faultinject::garbage_frame(7)
    );
    // Cut the final frame mid-line: the classic torn write at the tail.
    let input = faultinject::truncate_final_frame(&text, 11);
    assert!(
        !input.ends_with('\n'),
        "injector must leave a partial final line"
    );
    let (result, lines) = run_daemon(cfg(), reg, input.into_bytes());
    let stats = result.expect("injected client faults never kill the daemon");
    assert_eq!(lines.len(), 4, "one response per frame: {lines:?}");
    assert!(lines[0].contains("\"prediction\":"), "{}", lines[0]);
    assert!(lines[1].contains("\"error\":\"invalid\""), "{}", lines[1]);
    assert!(lines[2].contains("\"prediction\":"), "{}", lines[2]);
    assert!(lines[3].contains("\"error\":\"invalid\""), "{}", lines[3]);
    assert_eq!(stats.requests, 2, "two well-formed predicts served");
    assert_eq!(stats.invalid, 2, "garbage + torn tail each counted");
}

/// `Daemon::replay` of raw `input` bytes under `config`, with the artifact
/// at `path` preloaded as the only model.
fn replay(
    path: &str,
    config: DaemonConfig,
    input: &[u8],
) -> (fault::Result<serve::DaemonStats>, Vec<u8>) {
    let mut registry = Registry::new(RegistryConfig::default());
    registry.load("m", path).expect("load artifact");
    let mut daemon = Daemon::new(config, registry).expect("daemon config");
    let mut out = Vec::new();
    let result = daemon.replay(input, &mut out);
    (result, out)
}

/// One-shot `serve`: replay `input` through a daemon with the artifact at
/// `path` preloaded, at the one-shot default window.
fn one_shot(path: &str, input: &str) -> (fault::Result<serve::DaemonStats>, String) {
    let config = DaemonConfig {
        window: 256,
        ..DaemonConfig::default()
    };
    let (result, out) = replay(path, config, input.as_bytes());
    (
        result,
        String::from_utf8(out).expect("response stream is UTF-8"),
    )
}

/// Blank lines count toward a frame's line number in the daemon exactly
/// as in one-shot `serve`: an id-less request on line 2 is answered as
/// `"id":"2"` by both, and a bad field there is reported on line 2.
/// Blank and whitespace-only lines are skipped, never errors.
#[test]
fn blank_lines_count_toward_frame_numbers_like_one_shot_serve() {
    let dir = tmpdir("frame-numbers");
    let (reg, path) = reg_with_model(&dir);
    let (result, lines) = run_daemon(cfg(), reg, b"\n{\"x\":150}\n".to_vec());
    result.expect("clean EOF");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"id\":\"2\""), "{}", lines[0]);
    let (one_shot_result, one_shot_out) = one_shot(&path, "\n{\"x\":150}\n  \n");
    assert_eq!(one_shot_result.expect("one-shot serve").requests, 1);
    assert_eq!(one_shot_out.lines().collect::<Vec<_>>(), lines);

    let (reg, _) = reg_with_model(&dir);
    let (result, lines) = run_daemon(cfg(), reg, b"\n{\"x\":\"wide\"}\n".to_vec());
    result.expect("an invalid frame never kills the daemon");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"2\""), "{}", lines[0]);
    assert!(lines[0].contains("request line 2"), "{}", lines[0]);
    let err = one_shot(&path, "\n{\"x\":\"wide\"}\n")
        .0
        .expect_err("one-shot serve rejects the stream");
    assert!(err.to_string().contains("request line 2"), "{err}");
}

/// Corrupting the artifact on disk then reloading quarantines the sole
/// version; with nothing left to serve the daemon fails closed with the
/// documented all-quarantined exit code (8), not a hang or a panic.
#[test]
fn corrupt_reload_of_only_model_terminates_with_exit_code_8() {
    let dir = tmpdir("corrupt-reload");
    let (reg, path) = reg_with_model(&dir);
    faultinject::corrupt_artifact_bytes(&path, 24, 3).expect("corrupt artifact");
    let input = b"{\"id\":\"q1\",\"x\":150}\n{\"id\":\"c1\",\"op\":\"reload\",\"model\":\"m\"}\n";
    let (result, lines) = run_daemon(cfg(), reg, input.to_vec());
    let err = result.expect_err("all versions quarantined must be fatal");
    assert_eq!(err.kind(), "quarantined");
    assert_eq!(err.exit_code(), 8);
    assert!(
        lines.iter().any(|l| l.contains("\"prediction\":")),
        "predict admitted before the reload is still answered: {lines:?}"
    );
}

/// An over-long frame is a protocol violation: typed `invalid` error,
/// exit code 2. The daemon does not try to resynchronise mid-stream.
#[test]
fn oversized_frame_terminates_with_exit_code_2() {
    let dir = tmpdir("oversized");
    let (reg, _) = reg_with_model(&dir);
    let config = DaemonConfig {
        max_frame_bytes: 64,
        ..cfg()
    };
    let huge = format!("{{\"id\":\"q1\",\"x\":{}}}\n", "1".repeat(200));
    let (result, _) = run_daemon(config, reg, huge.into_bytes());
    let err = result.expect_err("oversized frame is a protocol violation");
    assert_eq!(err.kind(), "invalid");
    assert_eq!(err.exit_code(), 2);
}

/// A transport that cannot even be opened maps to the Io exit code (3).
#[test]
fn unbindable_socket_terminates_with_exit_code_3() {
    let dir = tmpdir("badsock");
    let (reg, _) = reg_with_model(&dir);
    let mut daemon = Daemon::new(cfg(), reg).expect("daemon config");
    let missing = dir.join("no-such-dir").join("d.sock");
    let err = daemon
        .run_socket(&missing.to_string_lossy())
        .expect_err("bind into a missing directory must fail");
    assert_eq!(err.kind(), "io");
    assert_eq!(err.exit_code(), 3);
}

/// Socket mode end to end: connect, predict, reconnect (EOF keeps the
/// daemon alive), then shut down cleanly from the second connection.
#[test]
fn socket_mode_survives_reconnect_and_shuts_down_cleanly() {
    let dir = tmpdir("sock");
    let (reg, _) = reg_with_model(&dir);
    let sock = dir.join("daemon.sock").to_string_lossy().into_owned();
    let server_sock = sock.clone();
    let server = std::thread::spawn(move || {
        let mut daemon = Daemon::new(cfg(), reg).expect("daemon config");
        daemon.run_socket(&server_sock)
    });
    let connect = || {
        for _ in 0..200 {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(&sock) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("daemon socket never came up at {sock}");
    };

    // Connection 1: one predict, then drop the stream (EOF).
    let mut c1 = connect();
    c1.write_all(b"{\"id\":\"q1\",\"x\":150}\n")
        .expect("send q1");
    let mut r1 = BufReader::new(c1.try_clone().expect("clone c1"));
    let mut line = String::new();
    r1.read_line(&mut line).expect("read q1 response");
    assert!(
        line.contains("\"id\":\"q1\"") && line.contains("\"prediction\":"),
        "{line}"
    );
    drop(r1);
    drop(c1);

    // Connection 2: the daemon accepted a new client after EOF; a
    // shutdown frame ends the whole daemon, not just the connection.
    let mut c2 = connect();
    c2.write_all(b"{\"id\":\"q2\",\"x\":150}\n{\"id\":\"c1\",\"op\":\"shutdown\"}\n")
        .expect("send q2 + shutdown");
    let mut rest = String::new();
    BufReader::new(c2)
        .read_to_string(&mut rest)
        .expect("drain connection 2");
    assert!(rest.contains("\"id\":\"q2\""), "{rest}");
    assert!(rest.contains("\"op\":\"shutdown\""), "{rest}");

    let stats = server
        .join()
        .expect("server thread")
        .expect("shutdown frame is a clean exit");
    assert_eq!(stats.requests, 2, "stats aggregate across connections");
    assert_eq!(stats.control_ops, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A consumer that drains responses slowly backs the queue up; excess
/// frames are shed with typed `overloaded` responses — conservation
/// holds (every frame answered exactly once), nothing is dropped
/// silently, and the queue never exceeds its bound.
#[test]
fn slow_consumer_sheds_typed_overloaded_responses() {
    let dir = tmpdir("slow");
    let (reg, _) = reg_with_model(&dir);
    let config = DaemonConfig {
        window: 2,
        queue_cap: 4,
        ..cfg()
    };
    let total = 80u64;
    let mut input = String::new();
    for i in 0..total {
        input.push_str(&format!(
            "{{\"id\":\"q{i}\",\"x\":{}}}\n",
            100 + (i % 5) * 25
        ));
    }
    let mut daemon = Daemon::new(config, reg).expect("daemon config");
    let out = Arc::new(Mutex::new(faultinject::SlowWriter::new(
        Vec::new(),
        Duration::from_millis(2),
    )));
    let stats = daemon
        .run(std::io::Cursor::new(input.into_bytes()), Arc::clone(&out))
        .expect("overload is shed, never fatal");
    let bytes = out
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .inner()
        .clone();
    let lines: Vec<String> = String::from_utf8(bytes)
        .expect("response stream is UTF-8")
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        lines.len() as u64,
        total,
        "exactly one typed response per frame"
    );
    assert!(stats.shed > 0, "slow consumer must force sheds: {stats:?}");
    let overloaded = lines
        .iter()
        .filter(|l| l.contains("\"error\":\"overloaded\""))
        .count() as u64;
    assert_eq!(
        overloaded,
        stats.shed + stats.degraded_rejects,
        "every shed surfaced as a typed response: {stats:?}"
    );
    assert_eq!(
        stats.requests + stats.shed + stats.degraded_rejects,
        total,
        "conservation: served + rejected == admitted frames: {stats:?}"
    );
    assert!(
        stats.max_queue_depth <= 4,
        "queue bound respected: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whole frames a clean replay answers: predicts (routed, unrouted,
/// numeric id), status, and a zero deadline. None unloads, reloads or
/// shuts down the model, so a clean replay answers every frame.
const WHOLE_FRAMES: &[&[u8]] = &[
    b"{\"x\":150}\n",
    b"{\"id\":\"q\",\"x\":175}\n",
    b"{\"op\":\"predict\",\"model\":\"m\",\"x\":200}\n",
    b"{\"op\":\"status\"}\n",
    b"{\"x\":125,\"deadline_ms\":0}\n",
    b"{\"id\":7,\"x\":100}\n",
];

/// Fragments spliced between whole frames: JSON pieces that glue into
/// malformed or half-formed frames, line breaks and blanks, multi-byte
/// and invalid UTF-8, and a run long enough to overflow the soup's
/// 64-byte frame limit.
const FRAGMENTS: &[&[u8]] = &[
    b"{\"model\":\"nope\",\"x\":1}",
    b"{\"op\":\"bogus\"}",
    b"{\"x\":\"wide\"}",
    b"{\"deadline_ms\":-1}",
    b"{",
    b"}",
    b"\"x\"",
    b":",
    b",",
    b"150",
    b"-2.5e3",
    b"1e999",
    b"null",
    b"[",
    b"]",
    b"\"",
    b"\\",
    b"\n",
    b"\n\n",
    b"\r\n",
    b" ",
    b"\t",
    "\u{e9}".as_bytes(),
    "\u{1F980}".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\0",
    &[b'x'; 80],
];

/// The frames `input` holds, as `Daemon::replay` cuts them: newline-split,
/// blank and whitespace-only lines skipped.
fn frame_count(input: &[u8]) -> usize {
    String::from_utf8_lossy(input)
        .split('\n')
        .filter(|line| !line.trim().is_empty())
        .count()
}

/// The replay termination contract for one input: `Ok` with exactly one
/// response line per frame, or a typed error with exit code 2.
fn assert_replay_contract(input: &[u8]) {
    static ARTIFACT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let path = ARTIFACT.get_or_init(|| write_artifact(&tmpdir("frame-soup"), "m.ppmodel"));
    let config = DaemonConfig {
        max_frame_bytes: 64,
        ..cfg()
    };
    match replay(path, config, input) {
        (Ok(_), out) => {
            let out = String::from_utf8(out).expect("response stream is UTF-8");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(
                lines.len(),
                frame_count(input),
                "one response line per frame for {input:?}: {lines:?}"
            );
            assert!(
                lines.iter().all(|l| l.starts_with("{\"id\":\"")),
                "{lines:?}"
            );
        }
        (Err(e), _) => assert_eq!(e.exit_code(), 2, "{e} for {input:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole frames with a fragment soup spliced in at any frame
    /// boundary replay to one response per frame or a typed exit-2
    /// error, never a panic.
    #[test]
    fn replay_is_total_over_fragment_soup(
        frames in prop::collection::vec(prop::sample::select(WHOLE_FRAMES.to_vec()), 0..16),
        soup in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..6),
        at in 0usize..16,
    ) {
        let at = at.min(frames.len());
        let input = [&frames[..at], &soup[..], &frames[at..]].concat().concat();
        assert_replay_contract(&input);
    }

    /// The same contract over raw byte soup: no structure at all.
    #[test]
    fn replay_is_total_over_byte_soup(bytes in prop::collection::vec(0u32..256, 0..160)) {
        let input: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        assert_replay_contract(&input);
    }
}
