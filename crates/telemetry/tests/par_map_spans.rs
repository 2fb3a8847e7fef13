//! The profile tells the truth across `par_map` workers: spans keep their
//! caller's path, nested calls stay on their worker, and summed self time
//! fits inside wall time × workers.
//!
//! Own integration-test binary: installs the process-global run.

use std::thread::{self, ThreadId};
use std::time::Duration;

const WORKERS: usize = 2;

#[test]
fn worker_spans_close_under_the_callers_path() {
    let run = telemetry::install(
        telemetry::TelemetryConfig::new("par_map_spans")
            .console(telemetry::ConsoleLevel::Off)
            .profile(true),
    )
    .expect("install");

    {
        let _outer = telemetry::span!("outer");
        let caller = thread::current().id();
        let workers: Vec<ThreadId> = telemetry::par_map(4, WORKERS, |i| {
            let _item = telemetry::span!("item", i);
            thread::sleep(Duration::from_millis(2));
            let worker = thread::current().id();
            let nested = telemetry::par_map(3, WORKERS, |_| {
                let _inner = telemetry::span!("inner");
                thread::current().id()
            });
            assert!(
                nested.iter().all(|&id| id == worker),
                "a nested par_map left its worker's thread"
            );
            worker
        });
        assert!(workers.iter().all(|&id| id != caller));
    }
    let summary = run.finish();

    let paths: Vec<&str> = summary.profile.iter().map(|e| e.path.as_str()).collect();
    for expected in ["outer", "outer/item", "outer/item/inner"] {
        assert!(paths.contains(&expected), "{expected} missing: {paths:?}");
    }
    assert_eq!(paths.len(), 3, "a worker span lost its parent: {paths:?}");

    let self_ns: u64 = summary.profile.iter().map(|e| e.self_ns).sum();
    let wall_ns = summary.wall.as_nanos() as u64;
    assert!(
        self_ns <= wall_ns * WORKERS as u64,
        "summed self time {self_ns} ns exceeds wall {wall_ns} ns x {WORKERS} workers"
    );

    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    let (busy, capacity) = (counter("par/busy_ns"), counter("par/capacity_ns"));
    assert!(
        busy > 0 && busy <= capacity,
        "busy {busy} ns, capacity {capacity} ns"
    );
}
