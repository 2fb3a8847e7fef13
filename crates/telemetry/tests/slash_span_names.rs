//! Span names may contain `/` (`serve/parse`, `artifact/load`): the
//! profile still charges each span's time to the span it closed inside,
//! so a parent's self time is its total minus its children's, and no
//! phantom zero-call row appears for a path prefix that is not a span.
//!
//! Own integration-test binary: installs the process-global run.

use std::thread;
use std::time::{Duration, Instant};

#[test]
fn slash_named_spans_charge_their_real_parent() {
    let run = telemetry::install(
        telemetry::TelemetryConfig::new("slash_span_names")
            .console(telemetry::ConsoleLevel::Off)
            .profile(true),
    )
    .expect("install");
    let start = Instant::now();
    {
        let _replay = telemetry::span!("serve/replay");
        for _ in 0..3 {
            {
                let _parse = telemetry::span!("serve/parse");
                thread::sleep(Duration::from_millis(2));
            }
            let _batch = telemetry::span!("serve/batch");
            thread::sleep(Duration::from_millis(1));
            let _probe = telemetry::span!("serve/probe");
            thread::sleep(Duration::from_millis(1));
        }
        let _load = telemetry::span!("artifact/load");
        thread::sleep(Duration::from_millis(1));
    }
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).expect("short test");
    let profile = run.finish().profile;

    let row = |path: &str| {
        profile
            .iter()
            .find(|e| e.path == path)
            .unwrap_or_else(|| panic!("no row {path}: {profile:?}"))
    };
    let mut paths: Vec<&str> = profile.iter().map(|e| e.path.as_str()).collect();
    paths.sort_unstable();
    assert_eq!(
        paths,
        [
            "serve/replay",
            "serve/replay/artifact/load",
            "serve/replay/serve/batch",
            "serve/replay/serve/batch/serve/probe",
            "serve/replay/serve/parse",
        ],
        "every row is a span that closed"
    );
    assert!(profile.iter().all(|e| e.calls > 0), "{profile:?}");
    let replay = row("serve/replay");
    let children = ["serve/parse", "serve/batch", "artifact/load"]
        .map(|c| row(&format!("serve/replay/{c}")).total_ns)
        .iter()
        .sum::<u64>();
    assert_eq!(replay.self_ns, replay.total_ns - children, "{profile:?}");
    assert!(replay.self_ns < replay.total_ns, "{profile:?}");
    let batch = row("serve/replay/serve/batch");
    let probe = row("serve/replay/serve/batch/serve/probe");
    assert_eq!(batch.self_ns, batch.total_ns - probe.total_ns);
    // One thread: the self times partition the outermost span's wall time.
    let self_sum: u64 = profile.iter().map(|e| e.self_ns).sum();
    assert_eq!(self_sum, replay.total_ns, "{profile:?}");
    assert!(self_sum <= wall_ns, "{self_sum} > {wall_ns}");
}
