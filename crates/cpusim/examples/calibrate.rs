//! Quick calibration: range/variation per benchmark over a subsample of the
//! design space.
use cpusim::{try_sweep_design_space, Benchmark, DesignSpace, SimOptions};
use std::time::Instant;

fn main() -> fault::Result<()> {
    let sub = DesignSpace::table1_every(16);
    let opts = SimOptions {
        instructions: 100_000,
        ..Default::default()
    };
    for b in Benchmark::PRESENTED {
        let t0 = Instant::now();
        let res = try_sweep_design_space(&sub, b, &opts, None)?.results;
        let s = cpusim::runner::summarize_sweep(&res);
        let ipc: Vec<f64> = res
            .iter()
            .map(|r| r.stats.instructions as f64 / r.stats.cycles as f64)
            .collect();
        let mean_ipc = ipc.iter().sum::<f64>() / ipc.len() as f64;
        println!(
            "{:8} range {:.2} variation {:.3} mean_ipc {:.3}  ({} cfgs in {:.1?})",
            b.name(),
            s.range,
            s.variation,
            mean_ipc,
            res.len(),
            t0.elapsed()
        );
    }
    Ok(())
}
