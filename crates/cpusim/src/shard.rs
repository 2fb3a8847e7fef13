//! Design-space sweeps: one executor over one checkpoint ledger.
//!
//! Every sweep entry point — a whole space at the default worker count
//! ([`crate::runner::try_sweep_design_space`]), a whole space at a chosen
//! worker count ([`try_sweep_sharded`]), or a sparse set of indices
//! ([`try_simulate_indices`]) — runs through the same executor: N
//! [`telemetry::par_map`] workers claim design-space indices one at a time
//! and replay one shared materialized trace.
//!
//! With a ledger, [`open_ledger`] checks (or writes) the header and
//! restores the `sim` records already on disk, and every freshly simulated
//! configuration is appended as one flushed `sim` line, so a killed sweep
//! loses at most the configurations in flight. Ledgers written by older
//! builds may also carry `claim` / `unit_done` lines from unit scheduling;
//! resume ignores them, like any record family other than `sim`.
//!
//! Because each configuration's cycle count is a pure function of
//! `(config, benchmark, opts.seed)`, the merged result of any worker
//! count, kill schedule, and resume sequence is **byte-identical** to a
//! single-worker sweep — [`merged_jsonl`] canonicalizes the result set so
//! tests and CI can assert exactly that.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::config::DesignSpace;
use crate::core::PipelineStats;
use crate::runner::{self, SimOptions, SimResult};
use crate::workload::Benchmark;
use fault::checkpoint::{self, CheckpointWriter};
use fault::{Error, Result};
use telemetry::default_workers;
use telemetry::json::{JsonObject, Value};

/// Outcome of a sweep: the results plus how much of the work was restored
/// from the ledger versus freshly simulated.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One result per requested configuration, in request order
    /// (design-space order for whole-space sweeps).
    pub results: Vec<SimResult>,
    /// Distinct requested configurations restored from the ledger.
    pub restored: usize,
    /// Distinct requested configurations simulated by this process.
    pub simulated: usize,
}

/// An open sweep ledger, ready to append to.
pub struct Ledger {
    /// Appends records to the ledger file.
    pub writer: CheckpointWriter,
    /// Every record after the header that is not a `sim` line (for
    /// example the model-fit records a sampled-DSE run appends), in file
    /// order.
    pub records: Vec<Value>,
    /// Restored `sim` results by design-space index.
    restored: HashMap<usize, SimResult>,
}

/// The header line identifying the run a ledger belongs to. Alongside
/// the point count it pins the space's content hash, so a ledger can
/// never be resumed against a *different* space of the same size.
fn header_line(benchmark: Benchmark, space: &DesignSpace, opts: &SimOptions) -> String {
    JsonObject::new()
        .str("type", "header")
        .str("benchmark", benchmark.name())
        .usize("space", space.len())
        .str("space_hash", &format!("{:016x}", space.content_hash()))
        .uint("instructions", opts.instructions)
        .uint("seed", opts.seed)
        .uint("simpoints", u64::from(opts.use_simpoints))
        .finish()
}

/// The fields of [`header_line`] that must match on resume. A header
/// without `space_hash` (written before the space generator existed) is
/// rejected too.
fn header_expectations(
    benchmark: Benchmark,
    space: &DesignSpace,
    opts: &SimOptions,
) -> Vec<(&'static str, String)> {
    vec![
        ("benchmark", benchmark.name().to_string()),
        ("space", space.len().to_string()),
        ("space_hash", format!("{:016x}", space.content_hash())),
        ("instructions", opts.instructions.to_string()),
        ("seed", opts.seed.to_string()),
        ("simpoints", u64::from(opts.use_simpoints).to_string()),
    ]
}

/// The ledger line for one simulated configuration.
fn sim_record(idx: usize, result: &SimResult) -> String {
    JsonObject::new()
        .str("type", "sim")
        .usize("idx", idx)
        .num("cycles", result.cycles)
        .uint("stat_cycles", result.stats.cycles)
        .uint("stat_instructions", result.stats.instructions)
        .finish()
}

/// Open the ledger at `path` for a sweep of `space`.
///
/// An empty or missing file gets the run's header. Otherwise the header
/// must match the run — other benchmark, space, instruction budget, seed
/// or SimPoint mode is an [`Error::Checkpoint`] — and every `sim` record is
/// restored (a later line for the same index wins; pipeline stat details
/// beyond cycles and instructions are not persisted). A torn final line
/// is tolerated and trimmed; corruption before it is an error.
pub fn open_ledger(
    path: &str,
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
) -> Result<Ledger> {
    let n = space.len();
    let mut lines = checkpoint::load_records(path)?.into_iter();
    let header = lines.next();
    if let Some(header) = &header {
        checkpoint::check_header(path, header, &header_expectations(benchmark, space, opts))?;
    }
    let mut restored = HashMap::new();
    let mut records = Vec::new();
    for rec in lines {
        if rec.get("type").and_then(Value::as_str) != Some("sim") {
            records.push(rec);
            continue;
        }
        let idx = checkpoint::u64_field(path, &rec, "idx")?;
        let idx = usize::try_from(idx)
            .ok()
            .filter(|&i| i < n)
            .ok_or_else(|| {
                Error::checkpoint(
                    path,
                    format!("sim record idx {idx} outside design space of {n}"),
                )
            })?;
        let result = SimResult {
            config: space.config_at(idx),
            benchmark,
            cycles: checkpoint::f64_field(path, &rec, "cycles")?,
            stats: PipelineStats {
                cycles: checkpoint::u64_field(path, &rec, "stat_cycles")?,
                instructions: checkpoint::u64_field(path, &rec, "stat_instructions")?,
                ..Default::default()
            },
        };
        restored.insert(idx, result);
    }
    let writer = CheckpointWriter::append(path)?;
    if header.is_none() {
        writer.append_record(&header_line(benchmark, space, opts))?;
    }
    Ok(Ledger {
        writer,
        records,
        restored,
    })
}

/// Canonical JSONL rendering of a full result set, one `sim` line per
/// configuration in space order. Two sweeps over the same space agree
/// byte-for-byte iff this string matches — the identity the sweep tests
/// and the CI `shard-smoke` job assert.
pub fn merged_jsonl(results: &[SimResult]) -> String {
    let mut out = String::with_capacity(results.len() * 64);
    for (idx, r) in results.iter().enumerate() {
        out.push_str(&sim_record(idx, r));
        out.push('\n');
    }
    out
}

/// Sweep every configuration of `space` on `workers` threads, resuming
/// from and appending to the ledger at `ledger` when one is given.
///
/// Results come back in design-space order and are byte-identical under
/// [`merged_jsonl`] for any worker count and any kill/resume sequence. An
/// empty space is an empty `Ok`; zero workers, zero instructions per
/// window, or SimPoints over zero intervals is [`Error::InvalidInput`].
pub fn try_sweep_sharded(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    workers: usize,
    ledger: Option<&str>,
) -> Result<SweepOutcome> {
    let all: Vec<usize> = (0..space.len()).collect();
    sweep(space, benchmark, opts, &all, workers, ledger)
}

/// Simulate exactly the requested indices (the adaptive loop's lazy
/// acquisition path) at the default worker count, optionally through a
/// ledger.
///
/// Results come back in request order; duplicate requests share one
/// simulation. With a ledger, previously recorded simulations are
/// restored instead of re-run and fresh ones are appended, so a killed
/// acquisition round resumes without repeating work.
pub fn try_simulate_indices(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    indices: &[usize],
    ledger: Option<&str>,
) -> Result<SweepOutcome> {
    sweep(space, benchmark, opts, indices, default_workers(), ledger)
}

/// The one sweep path behind every entry point: validate the request
/// (before the ledger is touched), open the ledger, simulate the distinct
/// indices it does not hold, and answer in request order.
fn sweep(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    indices: &[usize],
    workers: usize,
    ledger: Option<&str>,
) -> Result<SweepOutcome> {
    let n = space.len();
    if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
        return Err(Error::invalid(format!(
            "requested index {bad} outside the {n}-point design space"
        )));
    }
    if workers == 0 {
        return Err(Error::invalid("a sweep needs at least one worker"));
    }
    if opts.instructions == 0 {
        return Err(Error::invalid(
            "a sweep needs at least one instruction per window",
        ));
    }
    if opts.use_simpoints && opts.n_intervals == 0 {
        return Err(Error::invalid(
            "a SimPoint sweep needs at least one candidate interval",
        ));
    }
    let _span = telemetry::span!(
        "sweep",
        benchmark = benchmark.name(),
        configs = indices.len(),
        workers = workers,
    );
    let (mut done, writer) = match ledger {
        Some(path) => {
            let ledger = open_ledger(path, space, benchmark, opts)?;
            (ledger.restored, Some(ledger.writer))
        }
        None => (HashMap::new(), None),
    };
    let mut seen = HashSet::with_capacity(indices.len());
    let todo: Vec<usize> = indices
        .iter()
        .copied()
        .filter(|&i| seen.insert(i) && !done.contains_key(&i))
        .collect();
    let restored = seen.len() - todo.len();
    if restored > 0 {
        telemetry::point!("sweep/resume", restored = restored, total = seen.len());
    }
    if !todo.is_empty() {
        let fresh = execute(space, benchmark, opts, &todo, workers, writer.as_ref())?;
        done.extend(todo.iter().copied().zip(fresh));
    }
    Ok(SweepOutcome {
        results: indices.iter().map(|i| done[i].clone()).collect(),
        restored,
        simulated: todo.len(),
    })
}

/// The executor: simulate the distinct indices `todo` through
/// [`telemetry::par_map`] on up to `workers` threads, all replaying one
/// materialized trace. Each finished configuration is timed into
/// `sim/config_ns`, ticks the `sweep` progress bar, and is appended to
/// `writer` when one is given; once an append fails, the configurations
/// not yet started are skipped and the error is returned. Results come
/// back in `todo` order.
fn execute(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    todo: &[usize],
    workers: usize,
    writer: Option<&CheckpointWriter>,
) -> Result<Vec<SimResult>> {
    let (traces, weights) = runner::materialize(benchmark, opts);
    let progress = telemetry::Progress::new("sweep", todo.len() as u64);
    let failed = AtomicBool::new(false);
    let results = telemetry::par_map(todo.len(), workers, |k| -> Result<Option<SimResult>> {
        if failed.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let idx = todo[k];
        let config = space.config_at(idx);
        let t_sim = telemetry::enabled().then(std::time::Instant::now);
        let result = runner::run_windows(config, benchmark, &traces, &weights, opts.seed);
        if let Some(t) = t_sim {
            telemetry::hist_observe_ns("sim/config_ns", t.elapsed());
        }
        if let Some(w) = writer {
            if !result.cycles.is_finite() {
                // Non-finite cycles round-trip as JSON null, which
                // would corrupt resume; re-simulate instead.
                telemetry::point!("sweep/skip_checkpoint", idx);
            } else if let Err(e) = w.append_record(&sim_record(idx, &result)) {
                failed.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        progress.inc();
        Ok(Some(result))
    });
    // Only a failed append skips a configuration, so every result is
    // present once no error is.
    let results = results.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(results.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpaceSpec;
    use crate::runner::try_sweep_design_space;

    fn tmp_ledger(name: &str) -> String {
        let dir = std::env::temp_dir().join("perfpredict-shard-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    fn smoke_space() -> DesignSpace {
        DesignSpace::try_generate(&SpaceSpec::smoke()).expect("smoke spec is valid")
    }

    /// Short windows: these tests sweep the smoke space many times over.
    fn short() -> SimOptions {
        SimOptions {
            instructions: 2_000,
            ..SimOptions::quick()
        }
    }

    /// Keep the ledger's header and its first `sims` `sim` lines, then a
    /// torn half of the next line: a sweep killed mid-write.
    fn sever_after_sims(path: &str, sims: usize) {
        let text = std::fs::read_to_string(path).expect("read ledger");
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"type\":\"sim\""))
            .nth(sims - 1)
            .map(|(i, _)| i)
            .expect("ledger has enough sim lines");
        let torn = &lines[cut + 1][..lines[cut + 1].len() / 2];
        std::fs::write(path, format!("{}\n{torn}", lines[..=cut].join("\n"))).expect("sever");
    }

    #[test]
    fn sharded_sweep_is_byte_identical_to_sequential() {
        let space = smoke_space();
        let n = space.len();
        let opts = short();
        let oracle = merged_jsonl(
            &try_sweep_design_space(&space, Benchmark::Mcf, &opts, None)
                .expect("sweep")
                .results,
        );

        // Every worker count, and the sparse entry point over 0..n.
        for workers in 1..=4 {
            let out =
                try_sweep_sharded(&space, Benchmark::Mcf, &opts, workers, None).expect("sharded");
            assert_eq!((out.restored, out.simulated), (0, n));
            assert_eq!(oracle, merged_jsonl(&out.results), "{workers} workers");
        }
        let all: Vec<usize> = (0..n).collect();
        let out = try_simulate_indices(&space, Benchmark::Mcf, &opts, &all, None).expect("indices");
        assert_eq!(oracle, merged_jsonl(&out.results), "try_simulate_indices");

        // A ledger cut mid-file resumes through the other entry point, in
        // both directions.
        let ledger = tmp_ledger("identity.jsonl");
        try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&ledger)).expect("seed");
        sever_after_sims(&ledger, 17);
        let out = try_sweep_sharded(&space, Benchmark::Mcf, &opts, 3, Some(&ledger)).expect("3w");
        assert_eq!((out.restored, out.simulated), (17, n - 17));
        assert_eq!(
            oracle,
            merged_jsonl(&out.results),
            "sequential -> 3 workers"
        );

        let _ = std::fs::remove_file(&ledger);
        try_sweep_sharded(&space, Benchmark::Mcf, &opts, 3, Some(&ledger)).expect("seed");
        sever_after_sims(&ledger, 23);
        let out =
            try_sweep_design_space(&space, Benchmark::Mcf, &opts, Some(&ledger)).expect("seq");
        assert_eq!((out.restored, out.simulated), (23, n - 23));
        assert_eq!(
            oracle,
            merged_jsonl(&out.results),
            "3 workers -> sequential"
        );
        let _ = std::fs::remove_file(&ledger);

        // An empty space is an empty Ok from every entry point.
        let empty = DesignSpace::from_configs(Vec::new());
        let outcomes = [
            try_sweep_design_space(&empty, Benchmark::Mcf, &opts, None),
            try_sweep_sharded(&empty, Benchmark::Mcf, &opts, 3, None),
            try_simulate_indices(&empty, Benchmark::Mcf, &opts, &[], None),
        ];
        for out in outcomes {
            let out = out.expect("empty space sweeps to an empty Ok");
            assert!(out.results.is_empty());
            assert_eq!((out.restored, out.simulated), (0, 0));
        }
    }

    /// Kill-resume identity: sever the ledger after some `sim` lines with
    /// a torn partial line after them. The resumed sweep restores exactly
    /// the complete lines and still merges byte-identically.
    #[test]
    fn killed_sweep_resumes_and_merge_stays_identical() {
        let space = smoke_space();
        let opts = short();
        let reference = try_sweep_design_space(&space, Benchmark::Gcc, &opts, None)
            .expect("sweep")
            .results;
        let ledger = tmp_ledger("kill-resume.jsonl");
        try_sweep_sharded(&space, Benchmark::Gcc, &opts, 2, Some(&ledger)).expect("first run");
        sever_after_sims(&ledger, 30);

        let resumed =
            try_sweep_sharded(&space, Benchmark::Gcc, &opts, 2, Some(&ledger)).expect("resume");
        assert_eq!(resumed.restored, 30);
        assert_eq!(resumed.simulated, space.len() - 30);
        assert_eq!(
            merged_jsonl(&reference),
            merged_jsonl(&resumed.results),
            "kill + resume must not change a single byte of the merge"
        );

        // A third run restores everything and does no work.
        let again =
            try_sweep_sharded(&space, Benchmark::Gcc, &opts, 2, Some(&ledger)).expect("idle");
        assert_eq!((again.restored, again.simulated), (space.len(), 0));
        assert_eq!(merged_jsonl(&reference), merged_jsonl(&again.results));
        let _ = std::fs::remove_file(&ledger);
    }

    /// Ledgers from unit-scheduled builds interleave `claim` / `unit_done`
    /// lines with the `sim` lines. Such a ledger, killed mid-unit with a
    /// torn tail, still resumes to a byte-identical merge.
    #[test]
    fn unit_scheduled_ledger_with_claims_resumes_byte_identically() {
        let space = smoke_space();
        let opts = short();
        let fresh = try_sweep_design_space(&space, Benchmark::Mesa, &opts, None)
            .expect("sweep")
            .results;
        let mut text = header_line(Benchmark::Mesa, &space, &opts) + "\n";
        let mut kept = 0;
        for (unit, first) in (0..space.len()).step_by(8).enumerate() {
            let (unit, worker) = (unit as u64, unit as u64 % 2);
            let claim = JsonObject::new()
                .str("type", "claim")
                .uint("unit", unit)
                .uint("worker", worker)
                .uint("first", first as u64)
                .uint("count", 8);
            text += &(claim.finish() + "\n");
            let sims = if unit == 3 { 5 } else { 8 };
            for (idx, result) in fresh.iter().enumerate().skip(first).take(sims) {
                text += &(sim_record(idx, result) + "\n");
                kept += 1;
            }
            if unit == 3 {
                // Killed mid-unit: no `unit_done`, and a torn next line.
                let next = sim_record(first + sims, &fresh[first + sims]);
                text += &next[..next.len() / 2];
                break;
            }
            let done = JsonObject::new()
                .str("type", "unit_done")
                .uint("unit", unit)
                .uint("worker", worker);
            text += &(done.finish() + "\n");
        }
        let ledger = tmp_ledger("unit-scheduled.jsonl");
        std::fs::write(&ledger, text).expect("write ledger");

        let resumed =
            try_sweep_sharded(&space, Benchmark::Mesa, &opts, 3, Some(&ledger)).expect("resume");
        assert_eq!(kept, 29);
        assert_eq!(
            (resumed.restored, resumed.simulated),
            (kept, space.len() - kept)
        );
        assert_eq!(merged_jsonl(&fresh), merged_jsonl(&resumed.results));
        let _ = std::fs::remove_file(&ledger);
    }

    #[test]
    fn ledger_for_equal_size_different_generated_space_is_rejected() {
        let space = smoke_space();
        let mut other_spec = SpaceSpec::smoke();
        other_spec.l1d_size_kb = vec![16, 32, 128];
        let other = DesignSpace::try_generate(&other_spec).expect("other spec");
        assert_eq!(space.len(), other.len());
        let opts = SimOptions::quick();
        let ledger = tmp_ledger("wrong-space.jsonl");
        try_sweep_sharded(&space, Benchmark::Mcf, &opts, 2, Some(&ledger)).expect("first run");
        match try_sweep_sharded(&other, Benchmark::Mcf, &opts, 2, Some(&ledger)) {
            Err(Error::Checkpoint { detail, .. }) => {
                assert!(detail.contains("space_hash"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&ledger);
    }

    #[test]
    fn simulate_indices_matches_direct_simulation_and_resumes() {
        let space = smoke_space();
        let opts = SimOptions::quick();
        let ledger = tmp_ledger("batch.jsonl");
        let indices = [5usize, 3, 3, 40];
        let batch = try_simulate_indices(&space, Benchmark::Mesa, &opts, &indices, Some(&ledger))
            .expect("batch");
        assert_eq!(batch.results.len(), 4);
        assert_eq!(batch.simulated, 3, "duplicate index shares one simulation");
        assert_eq!(batch.restored, 0);
        for (&idx, r) in indices.iter().zip(&batch.results) {
            let direct = runner::simulate(Benchmark::Mesa, space.config_at(idx), &opts);
            assert_eq!(r.cycles, direct.cycles, "idx {idx}");
        }
        // Same ledger, superset request: only the new index is simulated.
        let wider = try_simulate_indices(
            &space,
            Benchmark::Mesa,
            &opts,
            &[3, 5, 40, 41],
            Some(&ledger),
        )
        .expect("resume batch");
        assert_eq!(wider.restored, 3);
        assert_eq!(wider.simulated, 1);
        assert_eq!(wider.results[0].cycles, batch.results[1].cycles);
        let _ = std::fs::remove_file(&ledger);

        // 5,000 requests over 40 distinct indices: 40 simulations, and
        // every answer in request order.
        let requests: Vec<usize> = (0..5_000).map(|i| (i * 7919) % 40).collect();
        let big =
            try_simulate_indices(&space, Benchmark::Mesa, &short(), &requests, None).expect("big");
        assert_eq!((big.restored, big.simulated), (0, 40));
        let mut first: HashMap<usize, f64> = HashMap::new();
        for (&idx, r) in requests.iter().zip(&big.results) {
            assert_eq!(r.config, space.config_at(idx));
            assert_eq!(*first.entry(idx).or_insert(r.cycles), r.cycles, "idx {idx}");
        }
    }

    #[test]
    fn simulate_indices_rejects_out_of_range() {
        let space = smoke_space();
        let e = try_simulate_indices(
            &space,
            Benchmark::Mcf,
            &SimOptions::quick(),
            &[0, space.len()],
            None,
        )
        .expect_err("out of range");
        assert_eq!(e.kind(), "invalid");
    }

    #[test]
    fn zero_workers_is_invalid() {
        let space = smoke_space();
        let e = try_sweep_sharded(&space, Benchmark::Mcf, &SimOptions::quick(), 0, None)
            .expect_err("zero workers");
        assert_eq!(e.kind(), "invalid");
    }

    /// `opts` is rejected as invalid input by both entry points, before a
    /// ledger file is created.
    fn assert_invalid_before_ledger(opts: &SimOptions, ledger: &str) {
        let space = smoke_space();
        let ledger = tmp_ledger(ledger);
        let e = try_sweep_design_space(&space, Benchmark::Gcc, opts, Some(&ledger))
            .expect_err("degenerate sweep");
        assert_eq!(e.kind(), "invalid", "{e}");
        assert!(!std::path::Path::new(&ledger).exists(), "ledger created");
        let e = try_simulate_indices(&space, Benchmark::Gcc, opts, &[0], None)
            .expect_err("degenerate batch");
        assert_eq!(e.kind(), "invalid", "{e}");
    }

    /// Regression: SimPoints over zero intervals used to panic inside the
    /// phase analysis.
    #[test]
    fn simpoints_over_zero_intervals_is_invalid() {
        assert_invalid_before_ledger(
            &SimOptions {
                use_simpoints: true,
                n_intervals: 0,
                ..short()
            },
            "zero-intervals.jsonl",
        );
    }

    /// Regression: zero instructions per window used to return 0-cycle
    /// results that later divided error metrics by zero.
    #[test]
    fn zero_instructions_is_invalid() {
        assert_invalid_before_ledger(
            &SimOptions {
                instructions: 0,
                ..short()
            },
            "zero-instructions.jsonl",
        );
    }
}
