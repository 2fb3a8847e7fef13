//! `sweep`: the simulator alone, with no training or serving.
//!
//! Three benchmarks are swept over Table-1 configurations spread evenly
//! across the lattice: `applu` (224 KB footprint, issue-bound) on 48,
//! `mcf` (640 KB, memory-bound, several times the host time per
//! configuration) on 24, and `gcc` with SimPoints on (10 intervals,
//! `max_k` 4) on 16, whose many short windows make `Core::new` a visible
//! share. Every window is 30k instructions.
//!
//! One trace seed can make `mcf` half again as slow as another (its hot
//! lines land in fewer cache sets), so each benchmark is split over eight
//! traces seeded from `--seed`, each replayed on its own slice of the
//! configurations: the work per repetition then barely depends on the
//! seed, while every input still derives from it.

use crate::spans::Recorder;
use crate::{ctx, Checks, Options, Outcome, Res, Workload};
use cpusim::{Benchmark, DesignSpace, SimOptions, SimResult, SpaceSpec};
use linalg::dist::child_seed;
use std::time::Instant;

/// Traces (seeds) each benchmark is split over.
const TRACES: usize = 8;
/// Configurations per trace for applu, mcf and gcc.
const PER_TRACE: [(Benchmark, usize, bool); 3] = [
    (Benchmark::Applu, 6, false),
    (Benchmark::Mcf, 3, false),
    (Benchmark::Gcc, 2, true),
];
/// Instructions per simulated window.
const INSTRUCTIONS: u64 = 30_000;
/// SimPoint candidate intervals and cluster cap for `gcc`.
const INTERVALS: usize = 10;
const MAX_K: usize = 4;

/// One benchmark on one trace.
pub struct Job {
    /// Benchmark swept.
    pub bench: Benchmark,
    /// Configurations swept.
    pub space: DesignSpace,
    /// Simulator options (seeded from `--seed`).
    pub opts: SimOptions,
    /// Windows simulated per configuration (SimPoint representatives).
    pub windows: usize,
}

/// The sweep's inputs: one job per (benchmark, trace). Trace `t` of a
/// benchmark with `n` configurations per trace replays configurations
/// `t, t + TRACES, t + 2·TRACES, …` of `n·TRACES` spread evenly over
/// Table 1. The probes reuse the plan.
pub fn plan(seed: u64) -> Res<Vec<Job>> {
    let table1 = DesignSpace::try_generate(&SpaceSpec::table1()).map_err(ctx("Table-1 space"))?;
    let mut jobs = Vec::new();
    for t in 0..TRACES {
        for (bench, per_trace, use_simpoints) in PER_TRACE {
            let opts = SimOptions {
                instructions: INSTRUCTIONS,
                seed: child_seed(seed, t as u64),
                use_simpoints,
                n_intervals: INTERVALS,
                max_k: MAX_K,
            };
            let n = per_trace * TRACES;
            let configs = (0..per_trace)
                .map(|i| table1.config_at((t + i * TRACES) * table1.len() / n))
                .collect();
            let windows = if use_simpoints {
                cpusim::simpoint::analyze(bench, opts.seed, INTERVALS, INSTRUCTIONS, MAX_K)
                    .points
                    .len()
            } else {
                1
            };
            jobs.push(Job {
                bench,
                space: DesignSpace::from_configs(configs),
                opts,
                windows,
            });
        }
    }
    Ok(jobs)
}

/// Bounds every simulated result must meet, whatever the model says:
/// finite cycles, every window committing its whole budget, at least
/// `instructions / width` cycles and so an IPC of at most `width`.
pub fn check_result(r: &SimResult) -> Result<(), String> {
    let width = f64::from(r.config.width);
    let insts = r.stats.instructions as f64;
    let what = || format!("{} {:?}", r.benchmark.name(), r.config);
    if !r.cycles.is_finite() || r.cycles <= 0.0 {
        return Err(format!(
            "{}: non-finite or zero cycles {}",
            what(),
            r.cycles
        ));
    }
    if r.stats.instructions != INSTRUCTIONS {
        return Err(format!(
            "{}: committed {} of {INSTRUCTIONS} instructions",
            what(),
            r.stats.instructions
        ));
    }
    if r.cycles < insts / width || insts > width * r.stats.cycles as f64 {
        return Err(format!(
            "{}: {} cycles for {insts} instructions exceeds width {width}",
            what(),
            r.cycles
        ));
    }
    Ok(())
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// State of a `sweep` run.
pub struct Sweep {
    jobs: Vec<Job>,
    digest: Option<u64>,
    minst_per_s: Vec<f64>,
}

impl Workload for Sweep {
    const MIN_REPS: u32 = 3;

    fn setup(opts: &Options) -> Res<Sweep> {
        let jobs = plan(opts.seed)?;
        // Warm up: run each benchmark's first trace on two configurations
        // so the simulator's code and allocator are warm before timing.
        for job in &jobs[..3] {
            let warm = DesignSpace::from_configs(job.space.configs()[..2].to_vec());
            cpusim::try_sweep_design_space(&warm, job.bench, &job.opts, None)
                .map_err(ctx("warm-up sweep"))?;
        }
        Ok(Sweep {
            jobs,
            digest: None,
            minst_per_s: Vec::new(),
        })
    }

    fn rep(&mut self, rec: &Recorder, rep: u32, checks: &mut Checks) -> Res<()> {
        let t0 = Instant::now();
        let root = rec.open("sweep", "bench", 0, rep);
        let mut jsonl = String::new();
        let mut minst = 0.0;
        for job in &self.jobs {
            let results = {
                let _s = rec.open("try_sweep_design_space", "cpusim", root.id(), rep);
                cpusim::try_sweep_design_space(&job.space, job.bench, &job.opts, None)
                    .map_err(ctx("sweep"))?
                    .results
            };
            let bad: Vec<String> = results
                .iter()
                .filter_map(|r| check_result(r).err())
                .collect();
            checks.ops(results.len() as u64, bad.len() as u64);
            checks.failures.extend(bad.into_iter().take(3));
            minst += (results.len() * job.windows) as f64 * INSTRUCTIONS as f64 / 1e6;
            jsonl.push_str(&cpusim::merged_jsonl(&results));
        }
        drop(root);
        if !rec.on() {
            self.minst_per_s.push(minst / t0.elapsed().as_secs_f64());
        }
        let digest = fnv1a(jsonl.as_bytes());
        let first = *self.digest.get_or_insert(digest);
        checks.check(digest == first, || {
            format!("sweep digest {digest:016x} differs from the first repetition's {first:016x}")
        });
        Ok(())
    }

    fn finish(self, _rec: &Recorder, _checks: &mut Checks, out: &mut Outcome) -> Res<()> {
        out.detail("sim_minst_per_s", self.minst_per_s);
        if let Some(d) = self.digest {
            out.notes
                .push(("sweep_digest", format!("fnv1a64:{d:016x}")));
        }
        Ok(())
    }
}
