//! Reproduces the §4.1 framework statistics:
//!
//! * per-benchmark cycle range and variation over the design space
//!   (paper: Applu/1.62/0.16, Equake/1.73/0.19, Gcc/5.27/0.33,
//!   Mesa/2.22/0.19, Mcf/6.38/0.71), and
//! * per-family SPEC record counts / rating range / variation
//!   (paper: Opteron 138/1.40/0.08 … Xeon 216/1.34/0.09).

use bench::{banner, parse_common_args};
use cpusim::runner::{summarize_sweep, try_sweep_design_space};
use cpusim::Benchmark;
use dse::report::{f, try_render_table};
use specdata::{AnnouncementSet, ProcessorFamily};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (scale, seed, _) = parse_common_args();
    let _run = banner("§4.1 framework statistics", scale);
    let space = scale.space();
    let mut sim = scale.sim_options();
    sim.seed = seed;

    let paper: &[(&str, f64, f64)] = &[
        ("applu", 1.62, 0.16),
        ("equake", 1.73, 0.19),
        ("gcc", 5.27, 0.33),
        ("mesa", 2.22, 0.19),
        ("mcf", 6.38, 0.71),
    ];

    let mut rows = Vec::new();
    for b in Benchmark::PRESENTED {
        let results = try_sweep_design_space(&space, b, &sim, None)?.results;
        let s = summarize_sweep(&results);
        let (pr, pv) = paper
            .iter()
            .find(|(n, ..)| *n == b.name())
            .map(|&(_, r, v)| (r, v))
            .expect("paper row");
        rows.push(vec![
            b.name().to_string(),
            f(s.range, 2),
            f(pr, 2),
            f(s.variation, 2),
            f(pv, 2),
        ]);
    }
    println!(
        "Simulated design-space statistics ({} configs):",
        space.len()
    );
    print!(
        "{}",
        try_render_table(
            &[
                "benchmark".into(),
                "range".into(),
                "paper range".into(),
                "variation".into(),
                "paper var".into(),
            ],
            &rows,
        )?
    );

    println!("\nSPEC announcement populations:");
    let mut rows = Vec::new();
    for fam in ProcessorFamily::ALL {
        let set = AnnouncementSet::generate(fam, seed);
        let (n, range, var) = set.summary();
        let p = fam.paper_stats();
        rows.push(vec![
            fam.name().to_string(),
            n.to_string(),
            p.records.to_string(),
            f(range, 2),
            f(p.range, 2),
            f(var, 2),
            f(p.variation, 2),
        ]);
    }
    print!(
        "{}",
        try_render_table(
            &[
                "family".into(),
                "records".into(),
                "paper rec".into(),
                "range".into(),
                "paper range".into(),
                "variation".into(),
                "paper var".into(),
            ],
            &rows,
        )?
    );
    Ok(())
}
