//! The profile tells the truth across `par_map` workers: spans keep their
//! caller's path, also on the helpers a nested call borrows from idle
//! workers; the threads running items never outnumber the outermost
//! call's workers; and summed self time fits inside wall time × workers.
//!
//! Own integration-test binary: installs the process-global run.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::{self, ThreadId};
use std::time::Duration;

const WORKERS: usize = 2;

static RUNNING: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Marks the current thread as running an item until dropped. Threads
/// are counted, not items, so a nested item on its caller's thread is
/// not counted twice; [`PEAK`] keeps the high-water count.
struct Running;

impl Running {
    fn enter() -> Running {
        if DEPTH.get() == 0 {
            let now = RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(now, Ordering::SeqCst);
        }
        DEPTH.set(DEPTH.get() + 1);
        Running
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        DEPTH.set(DEPTH.get() - 1);
        if DEPTH.get() == 0 {
            RUNNING.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn worker_spans_close_under_the_callers_path() {
    let run = telemetry::install(
        telemetry::TelemetryConfig::new("par_map_spans")
            .console(telemetry::ConsoleLevel::Off)
            .profile(true),
    )
    .expect("install");

    let helped = AtomicBool::new(false);
    {
        let _outer = telemetry::span!("outer");
        let caller = thread::current().id();
        let workers: Vec<ThreadId> = telemetry::par_map(4, WORKERS, |i| {
            let _item = telemetry::span!("item", i);
            let _running = Running::enter();
            let worker = thread::current().id();
            // The last item's nested call outlives every other item, so
            // the other worker goes idle and the call borrows its slot:
            // items on the call's own thread wait until a helper ran one.
            let (items, wait) = if i == 3 { (400, true) } else { (3, false) };
            if !wait {
                thread::sleep(Duration::from_millis(2));
            }
            telemetry::par_map(items, WORKERS, |_| {
                let _inner = telemetry::span!("inner");
                let _running = Running::enter();
                if thread::current().id() != worker {
                    helped.store(true, Ordering::SeqCst);
                } else if wait && !helped.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(5));
                }
            });
            worker
        });
        assert!(workers.iter().all(|&id| id != caller));
    }
    let summary = run.finish();
    assert!(
        helped.into_inner(),
        "no nested item ran on a borrowed worker"
    );
    let peak = PEAK.load(Ordering::SeqCst);
    assert!(
        (1..=WORKERS).contains(&peak),
        "{peak} threads ran items at once with {WORKERS} workers"
    );

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
    assert!(counter("par/helpers") >= 1, "par/helpers counts no helper");
}
