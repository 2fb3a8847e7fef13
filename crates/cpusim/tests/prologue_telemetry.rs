//! The sweep prologue's telemetry: a SimPoint sweep's phase analysis shows
//! up as a `simpoint` span under `materialize`, `trace/insts_skipped`
//! counts the instructions the analysis pass steps over without building
//! them (every candidate interval), and `trace/insts_generated` counts
//! each instruction built once (one regeneration of each representative).
//! Own test binary because telemetry is process-global.

use cpusim::simpoint::analyze;
use cpusim::{try_sweep_design_space, Benchmark, DesignSpace, SimOptions};

#[test]
fn simpoint_sweep_reports_analysis_span_and_generated_instructions() {
    let opts = SimOptions {
        instructions: 2_000,
        seed: 3,
        use_simpoints: true,
        n_intervals: 8,
        max_k: 3,
    };
    let windows = analyze(
        Benchmark::Gcc,
        opts.seed,
        opts.n_intervals,
        opts.instructions,
        opts.max_k,
    )
    .points
    .len() as u64;
    let space = DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..2].to_vec());

    let run = telemetry::install(
        telemetry::TelemetryConfig::new("prologue")
            .console(telemetry::ConsoleLevel::Off)
            .profile(true),
    )
    .expect("install telemetry");
    try_sweep_design_space(&space, Benchmark::Gcc, &opts, None).expect("sweep");
    let summary = run.finish();

    let counter = |wanted: &str| {
        summary
            .counters
            .iter()
            .find(|(name, _)| name == wanted)
            .map(|(_, v)| *v)
    };
    assert_eq!(
        counter("trace/insts_skipped"),
        Some(opts.n_intervals as u64 * opts.instructions)
    );
    assert_eq!(
        counter("trace/insts_generated"),
        Some(windows * opts.instructions)
    );
    let paths: Vec<&str> = summary.profile.iter().map(|e| e.path.as_str()).collect();
    assert!(
        paths.contains(&"sweep/materialize/simpoint"),
        "no simpoint span under materialize: {paths:?}"
    );
}
