//! High-level simulation drivers.
//!
//! [`simulate`] produces the cycle count of one `(benchmark, config)` pair;
//! [`try_sweep_design_space`] evaluates a whole [`DesignSpace`] through the
//! sweep executor in [`crate::shard`], replaying one materialized trace so
//! every configuration sees byte-identical instructions. The sweep is the
//! substitute for the paper's "4608 simulations per benchmark" SimpleScalar
//! campaign.

use crate::config::{CpuConfig, DesignSpace};
use crate::core::{Core, PipelineStats};
use crate::shard::{self, SweepOutcome};
use crate::simpoint::{analyze, SimPointAnalysis};
use crate::trace::{Inst, ReplaySource, TraceGenerator};
use crate::workload::Benchmark;
use fault::Result;
use linalg::dist::child_seed;

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Instructions to simulate per configuration (per interval when
    /// SimPoints are used). The paper runs 100M-instruction intervals; the
    /// default here is scaled down so a full 4608-point sweep stays
    /// laptop-friendly while keeping the same response structure.
    pub instructions: u64,
    /// Trace seed (deterministic per benchmark).
    pub seed: u64,
    /// Use SimPoint phase analysis to pick representative intervals
    /// instead of simulating from the trace start.
    pub use_simpoints: bool,
    /// Number of candidate intervals when SimPoints are enabled.
    pub n_intervals: usize,
    /// Maximum clusters for the SimPoint BIC sweep.
    pub max_k: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            instructions: 50_000,
            seed: 0xC0FFEE,
            use_simpoints: false,
            n_intervals: 10,
            max_k: 4,
        }
    }
}

impl SimOptions {
    /// A fast preset for unit tests and examples.
    pub fn quick() -> Self {
        SimOptions {
            instructions: 8_000,
            ..Default::default()
        }
    }
}

/// Result of simulating one configuration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The simulated configuration.
    pub config: CpuConfig,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Estimated execution cycles for the simulated instruction budget
    /// (SimPoint-weighted when enabled). This is the model target `y`.
    pub cycles: f64,
    /// Raw pipeline statistics (of the single run, or of the heaviest
    /// SimPoint interval).
    pub stats: PipelineStats,
}

impl SimResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles / self.stats.instructions.max(1) as f64
    }
}

/// Materialize the instruction window(s) a run will replay.
///
/// Returns the interval traces and their weights. Without SimPoints this is
/// a single full-weight window from the trace start. Crate-visible so the
/// sweep executor ([`crate::shard`]) can share one materialization across
/// its workers.
pub(crate) fn materialize(
    benchmark: Benchmark,
    opts: &SimOptions,
) -> (Vec<Vec<Inst>>, Vec<f64>, Option<SimPointAnalysis>) {
    let _span = telemetry::span!(
        "materialize",
        benchmark = benchmark.name(),
        simpoints = opts.use_simpoints,
    );
    if !opts.use_simpoints {
        let mut gen = TraceGenerator::for_benchmark(benchmark, opts.seed);
        return (
            vec![gen.take_vec(opts.instructions as usize)],
            vec![1.0],
            None,
        );
    }
    let analysis = analyze(
        benchmark,
        opts.seed,
        opts.n_intervals,
        opts.instructions,
        opts.max_k,
    );
    // Selected intervals are materialized in trace order with one pass.
    let mut gen = TraceGenerator::for_benchmark(benchmark, opts.seed);
    let mut traces = Vec::with_capacity(analysis.points.len());
    let mut weights = Vec::with_capacity(analysis.points.len());
    let mut cursor = 0usize;
    for p in &analysis.points {
        while cursor < p.interval {
            // Skip intervals between representatives.
            for _ in 0..opts.instructions {
                let _ = gen.next_inst();
            }
            cursor += 1;
        }
        traces.push(gen.take_vec(opts.instructions as usize));
        cursor += 1;
        weights.push(p.weight);
    }
    (traces, weights, Some(analysis))
}

/// Simulate one configuration on the materialized windows.
pub(crate) fn run_windows(
    config: CpuConfig,
    benchmark: Benchmark,
    traces: &[Vec<Inst>],
    weights: &[f64],
    seed: u64,
) -> SimResult {
    debug_assert_eq!(traces.len(), weights.len());
    let mut weighted_cycles = 0.0;
    let mut heaviest: Option<(f64, PipelineStats, u64)> = None;
    for (i, (trace, &w)) in traces.iter().zip(weights).enumerate() {
        let mut src = ReplaySource::new(trace, child_seed(seed, i as u64));
        let mut core = Core::new(config);
        let stats = core.run(&mut src, trace.len() as u64);
        weighted_cycles += w * stats.cycles as f64;
        if heaviest.as_ref().is_none_or(|(hw, _, _)| w > *hw) {
            heaviest = Some((w, stats, core.cycles_skipped()));
        }
    }
    // `materialize` always yields at least one window, so `heaviest` is
    // always set; an empty trace list would be an internal logic error.
    let (_, stats, skipped) = heaviest.unwrap_or_default();
    telemetry::counter_add("sim/windows", traces.len() as u64);
    record_stats(&stats, skipped);
    SimResult {
        config,
        benchmark,
        cycles: weighted_cycles,
        stats,
    }
}

/// Roll per-run pipeline statistics into the telemetry counters, so the
/// run manifest carries cache/branch-predictor totals for the whole sweep.
/// `sim/cycles_skipped` is the part of `sim/cycles` the core jumped over
/// instead of ticking; it stays out of [`PipelineStats`] and the ledger.
fn record_stats(stats: &PipelineStats, skipped: u64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("sim/cycles", stats.cycles);
    telemetry::counter_add("sim/cycles_skipped", skipped);
    telemetry::counter_add("sim/instructions", stats.instructions);
    telemetry::counter_add("cache/l1d_accesses", stats.l1d_accesses);
    telemetry::counter_add("cache/l1d_misses", stats.l1d_misses);
    telemetry::counter_add("cache/l1i_accesses", stats.l1i_accesses);
    telemetry::counter_add("cache/l1i_misses", stats.l1i_misses);
    telemetry::counter_add("cache/l2_accesses", stats.l2_accesses);
    telemetry::counter_add("cache/l2_misses", stats.l2_misses);
    telemetry::counter_add("cache/l3_accesses", stats.l3_accesses);
    telemetry::counter_add("cache/l3_misses", stats.l3_misses);
    telemetry::counter_add("tlb/dtlb_misses", stats.dtlb_misses);
    telemetry::counter_add("tlb/itlb_misses", stats.itlb_misses);
    telemetry::counter_add("bpred/branches", stats.branches);
    telemetry::counter_add("bpred/mispredicts", stats.mispredicts);
}

/// Simulate a single `(benchmark, config)` pair.
pub fn simulate(benchmark: Benchmark, config: CpuConfig, opts: &SimOptions) -> SimResult {
    let _span = telemetry::span!("simulate", benchmark = benchmark.name());
    let (traces, weights, _) = materialize(benchmark, opts);
    run_windows(config, benchmark, &traces, &weights, opts.seed)
}

/// Simulate every configuration of a design space on every available
/// core, with an optional checkpoint for resume.
///
/// This is [`crate::shard::try_sweep_sharded`] at
/// [`crate::shard::default_workers`]: results come back in design-space
/// order, byte-identical under [`crate::shard::merged_jsonl`] to any other
/// worker count. Without a checkpoint the sweep has no failure modes.
///
/// With `checkpoint: Some(path)`, every completed configuration is
/// appended to `path` as a flushed JSON line, so a killed sweep loses at
/// most the configurations in flight; on restart only the remaining ones
/// are simulated. A checkpoint written by a different run is rejected
/// with [`fault::Error::Checkpoint`]; a truncated final line is tolerated;
/// records of other families (e.g. a sampled-DSE run's model fits) are
/// kept apart, so one file can checkpoint a whole pipeline. See
/// [`crate::shard::open_ledger`].
pub fn try_sweep_design_space(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    checkpoint: Option<&str>,
) -> Result<SweepOutcome> {
    shard::try_sweep_sharded(space, benchmark, opts, shard::default_workers(), checkpoint)
}

/// Per-benchmark summary line of a sweep, matching §4.1's
/// "range / variance" report (range = fastest-to-slowest cycle ratio,
/// variance = coefficient of variation of cycles).
#[derive(Debug, Clone, Copy)]
pub struct SweepSummary {
    /// Ratio of the slowest to the fastest configuration.
    pub range: f64,
    /// Coefficient of variation of cycle counts.
    pub variation: f64,
}

/// Summarize a sweep's cycle distribution.
pub fn summarize_sweep(results: &[SimResult]) -> SweepSummary {
    let cycles: Vec<f64> = results.iter().map(|r| r.cycles).collect();
    SweepSummary {
        range: linalg::stats::range_ratio(&cycles),
        variation: linalg::stats::variation(&cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_baseline_is_deterministic() {
        let opts = SimOptions::quick();
        let a = simulate(Benchmark::Applu, CpuConfig::baseline(), &opts);
        let b = simulate(Benchmark::Applu, CpuConfig::baseline(), &opts);
        assert_eq!(a.cycles, b.cycles);
        assert!(a.cycles > 0.0);
    }

    #[test]
    fn sweep_reduced_space_produces_spread() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..24].to_vec());
        let opts = SimOptions::quick();
        let results = try_sweep_design_space(&space, Benchmark::Mcf, &opts, None)
            .expect("sweep")
            .results;
        assert_eq!(results.len(), 24);
        let s = summarize_sweep(&results);
        assert!(
            s.range > 1.0,
            "configs should differ in cycles: range {}",
            s.range
        );
    }

    #[test]
    fn sweep_order_matches_space_order() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..8].to_vec());
        let opts = SimOptions::quick();
        let results = try_sweep_design_space(&space, Benchmark::Mesa, &opts, None)
            .expect("sweep")
            .results;
        for (r, c) in results.iter().zip(space.configs()) {
            assert_eq!(r.config, *c);
        }
    }

    fn tmp_checkpoint(name: &str) -> String {
        let dir = std::env::temp_dir().join("perfpredict-runner-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn checkpointed_sweep_resumes_only_remaining_work() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..10].to_vec());
        let opts = SimOptions::quick();
        let path = tmp_checkpoint("resume.jsonl");

        // Full run to produce the reference results and the checkpoint.
        let full =
            try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&path)).expect("first run");
        assert_eq!(full.restored, 0);
        assert_eq!(full.simulated, 10);

        // Simulate a kill: keep the header and the first 4 sim records,
        // truncating the 5th mid-line.
        let text = std::fs::read_to_string(&path).expect("read checkpoint");
        let lines: Vec<&str> = text.lines().collect();
        let mut partial = lines[..5].join("\n");
        partial.push('\n');
        partial.push_str(&lines[5][..lines[5].len() / 2]);
        std::fs::write(&path, &partial).expect("write partial");

        let resumed =
            try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&path)).expect("resume");
        assert_eq!(resumed.restored, 4, "header + 4 complete sim records");
        assert_eq!(resumed.simulated, 6);
        for (a, b) in full.results.iter().zip(&resumed.results) {
            assert_eq!(a.cycles, b.cycles, "resumed sweep must match fresh run");
            assert_eq!(a.config, b.config);
        }

        // A second resume restores everything without simulating.
        let again = try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&path))
            .expect("second resume");
        assert_eq!(again.restored, 10);
        assert_eq!(again.simulated, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_different_run_is_rejected() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..4].to_vec());
        let opts = SimOptions::quick();
        let path = tmp_checkpoint("mismatch.jsonl");
        try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&path)).expect("first run");
        // Different benchmark -> typed checkpoint error, not a panic.
        match try_sweep_design_space(&space, Benchmark::Gcc, &opts, Some(&path)) {
            Err(fault::Error::Checkpoint { detail, .. }) => {
                assert!(detail.contains("benchmark"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        // Different instruction budget is also rejected.
        let other_opts = SimOptions {
            instructions: opts.instructions + 1,
            ..opts
        };
        assert!(matches!(
            try_sweep_design_space(&space, Benchmark::Mcf, &other_opts, Some(&path)),
            Err(fault::Error::Checkpoint { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Regression (header identity): a checkpoint for a *different* space
    /// of the same size used to resume silently, mixing results from two
    /// lattices. The header's `space_hash` now rejects it.
    #[test]
    fn checkpoint_for_equal_size_different_space_is_rejected() {
        let table = DesignSpace::table1_reduced();
        let space_a = DesignSpace::from_configs(table.configs()[..4].to_vec());
        let space_b = DesignSpace::from_configs(table.configs()[4..8].to_vec());
        assert_eq!(space_a.len(), space_b.len());
        let opts = SimOptions::quick();
        let path = tmp_checkpoint("space-hash.jsonl");
        try_sweep_design_space(&space_a, Benchmark::Mcf, &opts, Some(&path)).expect("first run");
        match try_sweep_design_space(&space_b, Benchmark::Mcf, &opts, Some(&path)) {
            Err(fault::Error::Checkpoint { detail, .. }) => {
                assert!(detail.contains("space_hash"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        // A header predating the space_hash field is rejected too, not
        // silently accepted.
        let text = std::fs::read_to_string(&path).expect("read checkpoint");
        let stripped: Vec<String> = text
            .lines()
            .map(|l| {
                let mut s = l.to_string();
                if let Some(start) = s.find(",\"space_hash\":\"") {
                    let end = s[start + 15..].find('"').map(|e| start + 15 + e + 1);
                    if let Some(end) = end {
                        s.replace_range(start..end, "");
                    }
                }
                s
            })
            .collect();
        std::fs::write(&path, stripped.join("\n") + "\n").expect("write stripped");
        match try_sweep_design_space(&space_a, Benchmark::Mcf, &opts, Some(&path)) {
            Err(fault::Error::Checkpoint { detail, .. }) => {
                assert!(detail.contains("space_hash"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simpoint_mode_runs_and_weights_apply() {
        let opts = SimOptions {
            instructions: 3_000,
            use_simpoints: true,
            n_intervals: 6,
            max_k: 3,
            ..Default::default()
        };
        let r = simulate(Benchmark::Gcc, CpuConfig::baseline(), &opts);
        assert!(r.cycles > 0.0);
        assert!(r.stats.instructions > 0);
    }

    #[test]
    fn summary_matches_manual_stats() {
        let space =
            DesignSpace::from_configs(DesignSpace::table1_reduced().configs()[..6].to_vec());
        let results = try_sweep_design_space(&space, Benchmark::Applu, &SimOptions::quick(), None)
            .expect("sweep")
            .results;
        let s = summarize_sweep(&results);
        let cycles: Vec<f64> = results.iter().map(|r| r.cycles).collect();
        let lo = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cycles.iter().cloned().fold(0.0f64, f64::max);
        assert!((s.range - hi / lo).abs() < 1e-12);
        assert!(s.variation >= 0.0);
    }

    #[test]
    fn different_benchmarks_produce_different_cycles() {
        let cfg = CpuConfig::baseline();
        let opts = SimOptions::quick();
        let a = simulate(Benchmark::Applu, cfg, &opts);
        let m = simulate(Benchmark::Mcf, cfg, &opts);
        assert_ne!(a.cycles, m.cycles);
        assert_eq!(a.benchmark, Benchmark::Applu);
        assert_eq!(m.benchmark, Benchmark::Mcf);
    }

    #[test]
    fn cpi_is_positive_and_finite() {
        let r = simulate(
            Benchmark::Equake,
            CpuConfig::baseline(),
            &SimOptions::quick(),
        );
        let cpi = r.cpi();
        assert!(cpi.is_finite() && cpi > 0.0);
    }
}
