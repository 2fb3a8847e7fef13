//! Ablation of the prefetcher extension (not in the paper's Table 1):
//! cycles per benchmark with no / next-line / stride prefetching on the
//! baseline configuration.

use bench::banner;
use cpusim::core::Core;
use cpusim::prefetch::PrefetcherKind;
use cpusim::trace::TraceGenerator;
use cpusim::{Benchmark, CpuConfig};
use dse::report::{f, try_render_table};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _run) = banner("ablation: data prefetchers (library extension)", &[])?;

    let insts = scale.sim_options().instructions;
    let cfg = CpuConfig::baseline();
    let mut rows = Vec::new();
    for b in Benchmark::PRESENTED {
        let mut cycles = Vec::new();
        let mut issued = Vec::new();
        for kind in PrefetcherKind::ALL {
            let mut gen = TraceGenerator::for_benchmark(b, seed);
            let mut core = Core::with_prefetcher(cfg, kind);
            let s = core.run(&mut gen, insts);
            cycles.push(s.cycles as f64);
            issued.push(core.prefetches_issued());
        }
        let speedup = |i: usize| 100.0 * (cycles[0] - cycles[i]) / cycles[0];
        rows.push(vec![
            b.name().to_string(),
            f(cycles[0], 0),
            f(speedup(1), 2),
            issued[1].to_string(),
            f(speedup(2), 2),
            issued[2].to_string(),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "benchmark".into(),
                "base cycles".into(),
                "next-line gain %".into(),
                "pf issued".into(),
                "stride gain %".into(),
                "pf issued".into(),
            ],
            &rows,
        )?
    );
    println!(
        "\nexpectation: streaming fp codes (applu, swim-like) benefit most; \
         pointer-chasing mcf barely moves (its misses are unpredictable)."
    );
    Ok(())
}
