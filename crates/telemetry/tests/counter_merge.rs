//! Counter correctness under `par_map` parallelism.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global telemetry run; sharing a process with other
//! install/finish tests would race on the global state.

#[test]
fn parallel_counter_increments_are_not_lost() {
    let run =
        telemetry::install(telemetry::TelemetryConfig::new("counter_merge")).expect("install");

    const TASKS: usize = 64;
    const PER_TASK: u64 = 5_000;
    let results = telemetry::par_map(TASKS, telemetry::default_workers(), |_| {
        for _ in 0..PER_TASK {
            telemetry::counter_add("merge/hits", 1);
        }
        telemetry::counter_add("merge/tasks", 1);
        PER_TASK
    });
    assert_eq!(results.len(), TASKS);

    telemetry::gauge_max("merge/peak", 3.0);
    telemetry::gauge_max("merge/peak", 7.0);
    telemetry::gauge_max("merge/peak", 5.0);

    let summary = run.finish();
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert_eq!(counter("merge/hits"), TASKS as u64 * PER_TASK);
    assert_eq!(counter("merge/tasks"), TASKS as u64);
    let peak = summary
        .gauges
        .iter()
        .find(|(k, _)| k == "merge/peak")
        .expect("gauge recorded")
        .1;
    assert_eq!(peak, 7.0);

    // After finish the fast path is off again and counters are dropped.
    assert!(!telemetry::enabled());
    telemetry::counter_add("merge/hits", 1); // must be a no-op, not a panic
}
