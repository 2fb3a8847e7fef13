//! Ablation of the SimPoint substrate (§4.1): how much does phase-aware
//! interval selection change the cycle counts the models are trained on,
//! compared to naively simulating the first interval?
//!
//! For each benchmark: CPI of (a) a long reference run, (b) the first
//! interval only, (c) the SimPoint-weighted representative intervals.

use bench::{banner, parse_common_args};
use cpusim::core::Core;
use cpusim::simpoint::analyze;
use cpusim::trace::{ReplaySource, TraceGenerator};
use cpusim::{Benchmark, CpuConfig};
use dse::report::{f, try_render_table};
use std::process::ExitCode;

/// CPI of interval `idx`, measured after warming the microarchitectural
/// state on the *preceding* interval (standard SimPoint warm-up practice);
/// interval 0 warms on a replay of itself.
fn cpi_of_interval(b: Benchmark, seed: u64, idx: usize, len: u64, cfg: CpuConfig) -> f64 {
    let mut core = Core::new(cfg);
    let s = if idx == 0 {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let trace = gen.take_vec(len as usize);
        let mut src = ReplaySource::new(&trace, 1);
        core.run_with_warmup(&mut src, len, len)
    } else {
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        for _ in 0..((idx as u64 - 1) * len) {
            let _ = gen.next_inst();
        }
        core.run_with_warmup(&mut gen, len, len)
    };
    s.cycles as f64 / s.instructions as f64
}

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner(
        "ablation: SimPoint interval selection vs first-interval",
        scale,
    );

    let n_intervals = 16;
    let interval_len = match scale {
        bench::Scale::Full => 20_000u64,
        bench::Scale::Medium => 10_000,
        bench::Scale::Quick => 5_000,
    };
    let cfg = CpuConfig::baseline();

    let mut rows = Vec::new();
    for b in Benchmark::PRESENTED {
        // Reference: the whole n_intervals * interval_len run, measured
        // after one interval of warm-up.
        let total = n_intervals as u64 * interval_len;
        let mut gen = TraceGenerator::for_benchmark(b, seed);
        let mut core = Core::new(cfg);
        let full = core.run_with_warmup(&mut gen, interval_len, total);
        let ref_cpi = full.cycles as f64 / full.instructions as f64;

        // First measured interval only.
        let first_cpi = cpi_of_interval(b, seed, 1, interval_len, cfg);

        // SimPoint-weighted.
        let analysis = analyze(b, seed, n_intervals, interval_len, 5);
        let mut sp_cpi = 0.0;
        for p in &analysis.points {
            sp_cpi += p.weight * cpi_of_interval(b, seed, p.interval, interval_len, cfg);
        }

        let err = |x: f64| 100.0 * (x - ref_cpi).abs() / ref_cpi;
        rows.push(vec![
            b.name().to_string(),
            f(ref_cpi, 3),
            f(first_cpi, 3),
            f(err(first_cpi), 1),
            f(sp_cpi, 3),
            f(err(sp_cpi), 1),
            analysis.k.to_string(),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "benchmark".into(),
                "ref CPI".into(),
                "first-interval CPI".into(),
                "err %".into(),
                "SimPoint CPI".into(),
                "err %".into(),
                "k".into(),
            ],
            &rows,
        )?
    );
    println!(
        "\nSimPoint earns its keep when its error column beats the first-interval \
         column (phase-heterogeneous workloads like gcc/bzip2)."
    );
    Ok(())
}
