//! Fault-injected integration tests for the serve daemon.
//!
//! The unit tests in `daemon.rs` pin the request-loop semantics; these
//! tests drive the daemon through `dse::faultinject`'s adversarial
//! helpers — torn frames, garbage bytes, on-disk artifact corruption,
//! slow consumers — and pin the *termination contract*: every exit path
//! maps to its documented exit code, and every admitted frame gets
//! exactly one typed response no matter what the injector does.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dse::faultinject;
use mlmodels::{try_train, ModelArtifact, ModelKind, Table};
use serve::{Daemon, DaemonConfig, Registry, RegistryConfig, ServeConfig};

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

/// Blank lines count toward a frame's line number in the daemon exactly
/// as in one-shot `serve`: an id-less request on line 2 is answered as
/// `"id":"2"` by both, and a bad field there is reported on line 2.
#[test]
fn blank_lines_count_toward_frame_numbers_like_one_shot_serve() {
    let dir = tmpdir("frame-numbers");
    let (reg, path) = reg_with_model(&dir);
    let (result, lines) = run_daemon(cfg(), reg, b"\n{\"x\":150}\n".to_vec());
    result.expect("clean EOF");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"id\":\"2\""), "{}", lines[0]);
    let artifact = ModelArtifact::load(&path).expect("load artifact");
    let (one_shot, _) =
        serve::serve_jsonl(artifact.clone(), ServeConfig::default(), "\n{\"x\":150}\n")
            .expect("one-shot serve");
    assert_eq!(one_shot.lines().collect::<Vec<_>>(), lines);

    let (reg, _) = reg_with_model(&dir);
    let (result, lines) = run_daemon(cfg(), reg, b"\n{\"x\":\"wide\"}\n".to_vec());
    result.expect("an invalid frame never kills the daemon");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"2\""), "{}", lines[0]);
    assert!(lines[0].contains("request line 2"), "{}", lines[0]);
    let err = serve::serve_jsonl(artifact, ServeConfig::default(), "\n{\"x\":\"wide\"}\n")
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
