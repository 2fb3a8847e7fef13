//! Sharded, work-stealing design-space sweeps over the checkpoint ledger.
//!
//! The sequential sweep ([`crate::runner::try_sweep_design_space`]) already
//! checkpoints every completed configuration to a truncation-tolerant JSONL
//! file. This module reuses that file as a **work-stealing ledger**: the
//! index range is partitioned into fixed-size units, worker threads claim
//! units from a shared queue, and every claim / completed simulation /
//! finished unit is appended as its own record. A killed worker loses at
//! most one in-flight line (the same guarantee the sequential checkpoint
//! gives); on resume, its claimed-but-unfinished units are detected as
//! orphans and re-claimed, and only the individual simulations missing from
//! the ledger are redone.
//!
//! Because each configuration's cycle count is a pure function of
//! `(config, benchmark, opts.seed)`, the merged result of any shard count,
//! kill schedule, and resume sequence is **byte-identical** to a sequential
//! sweep — [`merged_jsonl`] canonicalizes the result set so tests and CI
//! can assert exactly that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::DesignSpace;
use crate::core::PipelineStats;
use crate::runner::{self, SimOptions, SimResult};
use crate::workload::Benchmark;
use fault::checkpoint::{self, CheckpointWriter};
use fault::{Error, Result};
use rayon::prelude::*;
use telemetry::json::JsonObject;

/// Options controlling a sharded sweep.
#[derive(Debug, Clone, Copy)]
pub struct ShardOptions {
    /// Worker threads claiming units (≥ 1).
    pub shards: usize,
    /// Configurations per work unit (≥ 1). Smaller units steal better and
    /// lose less to a kill; larger units amortize ledger writes.
    pub unit_size: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 4,
            unit_size: 64,
        }
    }
}

/// Outcome of a sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Per-configuration results, in design-space order.
    pub results: Vec<SimResult>,
    /// Configurations restored from the ledger.
    pub restored: usize,
    /// Configurations simulated by this process.
    pub simulated: usize,
    /// Work units dispatched by this process.
    pub units: usize,
    /// Units a previous (killed) run claimed but never finished; their
    /// missing simulations were re-claimed by this run.
    pub reclaimed: usize,
}

/// Outcome of a targeted batch simulation ([`try_simulate_indices`]).
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One result per requested index, in request order.
    pub results: Vec<SimResult>,
    /// Distinct requested configurations restored from the ledger.
    pub restored: usize,
    /// Distinct requested configurations simulated by this process.
    pub simulated: usize,
}

fn claim_record(unit: u64, worker: usize, first: usize, count: usize) -> String {
    JsonObject::new()
        .str("type", "claim")
        .uint("unit", unit)
        .uint("worker", worker as u64)
        .uint("first", first as u64)
        .uint("count", count as u64)
        .finish()
}

fn unit_done_record(unit: u64, worker: usize) -> String {
    JsonObject::new()
        .str("type", "unit_done")
        .uint("unit", unit)
        .uint("worker", worker as u64)
        .finish()
}

/// Canonical JSONL rendering of a full result set, one `sim` line per
/// configuration in space order. Two sweeps over the same space agree
/// byte-for-byte iff this string matches — the identity the shard tests
/// and the CI `shard-smoke` job assert.
pub fn merged_jsonl(results: &[SimResult]) -> String {
    let mut out = String::with_capacity(results.len() * 64);
    for (idx, r) in results.iter().enumerate() {
        out.push_str(&runner::sim_record(idx, r));
        out.push('\n');
    }
    out
}

/// Restored ledger state: per-index results plus shard bookkeeping.
struct LedgerState {
    done: HashMap<usize, SimResult>,
    /// First unused unit id (ids are unique across resumes so orphaned
    /// claims from different runs never collide).
    unit_base: u64,
    /// Claims with no matching `unit_done` — interrupted units.
    orphans: usize,
}

fn restore_ledger(
    path: &str,
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
) -> Result<(LedgerState, CheckpointWriter)> {
    let n = space.len();
    let records = checkpoint::load_records(path)?;
    let mut state = LedgerState {
        done: HashMap::new(),
        unit_base: 0,
        orphans: 0,
    };
    if let Some(header) = records.first() {
        checkpoint::check_header(
            path,
            header,
            &runner::sweep_header_expectations(benchmark, space, opts),
        )?;
        for rec in checkpoint::records_of_type(&records, "sim") {
            let idx = checkpoint::u64_field(path, rec, "idx")? as usize;
            if idx >= n {
                return Err(Error::checkpoint(
                    path,
                    format!("sim record idx {idx} outside design space of {n}"),
                ));
            }
            let cycles = checkpoint::f64_field(path, rec, "cycles")?;
            let stats = PipelineStats {
                cycles: checkpoint::u64_field(path, rec, "stat_cycles")?,
                instructions: checkpoint::u64_field(path, rec, "stat_instructions")?,
                ..Default::default()
            };
            state.done.insert(
                idx,
                SimResult {
                    config: space.config_at(idx),
                    benchmark,
                    cycles,
                    stats,
                },
            );
        }
        let mut claimed = Vec::new();
        for rec in checkpoint::records_of_type(&records, "claim") {
            claimed.push(checkpoint::u64_field(path, rec, "unit")?);
        }
        let mut finished = Vec::new();
        for rec in checkpoint::records_of_type(&records, "unit_done") {
            finished.push(checkpoint::u64_field(path, rec, "unit")?);
        }
        state.unit_base = claimed.iter().chain(&finished).max().map_or(0, |&m| m + 1);
        state.orphans = claimed.iter().filter(|u| !finished.contains(u)).count();
    }
    let writer = CheckpointWriter::append(path)?;
    if records.is_empty() {
        writer.append_record(&runner::sweep_header(benchmark, space, opts))?;
    }
    Ok((state, writer))
}

/// Sharded sweep of the whole space with work-stealing over `ledger`.
///
/// Behaviourally equivalent to [`runner::try_sweep_design_space`] — same
/// header, same `sim` records, byte-identical merged results — but work is
/// dispatched as units claimed by `opts.shards` worker threads, and the
/// ledger additionally records `claim` / `unit_done` lines so an operator
/// can see which worker died holding which unit. Resume restores completed
/// simulations regardless of which worker (or which *run*) produced them.
pub fn try_sweep_sharded(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    shard: &ShardOptions,
    ledger: &str,
) -> Result<ShardOutcome> {
    if shard.shards == 0 || shard.unit_size == 0 {
        return Err(Error::invalid(format!(
            "sharded sweep needs shards ≥ 1 and unit_size ≥ 1 (got {} / {})",
            shard.shards, shard.unit_size
        )));
    }
    let n = space.len();
    if n == 0 {
        return Err(Error::invalid("cannot sweep an empty design space"));
    }
    let _span = telemetry::span!(
        "shard_sweep",
        benchmark = benchmark.name(),
        configs = n,
        shards = shard.shards,
    );
    let (state, writer) = restore_ledger(ledger, space, benchmark, opts)?;
    let LedgerState {
        mut done,
        unit_base,
        orphans,
    } = state;
    let restored = done.len();
    let todo: Vec<usize> = (0..n).filter(|i| !done.contains_key(i)).collect();
    if orphans > 0 {
        telemetry::point!("shard/reclaimed_units", units = orphans);
    }
    if todo.is_empty() {
        let results = (0..n)
            .map(|i| {
                done.remove(&i)
                    .ok_or_else(|| Error::checkpoint(ledger, format!("missing result for idx {i}")))
            })
            .collect::<Result<Vec<_>>>()?;
        return Ok(ShardOutcome {
            results,
            restored,
            simulated: 0,
            units: 0,
            reclaimed: orphans,
        });
    }

    let fresh = run_units(space, benchmark, opts, &todo, shard, unit_base, &writer)?;
    let simulated = fresh.len();
    let units = todo.len().div_ceil(shard.unit_size);
    done.extend(fresh);
    let results = (0..n)
        .map(|i| {
            done.remove(&i)
                .ok_or_else(|| Error::checkpoint(ledger, format!("missing result for idx {i}")))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardOutcome {
        results,
        restored,
        simulated,
        units,
        reclaimed: orphans,
    })
}

/// Dispatch `todo` as units over `shard.shards` worker threads, appending
/// `claim` / `sim` / `unit_done` records to the shared writer. Returns the
/// freshly simulated `(idx, result)` pairs.
fn run_units(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    todo: &[usize],
    shard: &ShardOptions,
    unit_base: u64,
    writer: &CheckpointWriter,
) -> Result<Vec<(usize, SimResult)>> {
    let (traces, weights, _) = runner::materialize(benchmark, opts);
    let units: Vec<&[usize]> = todo.chunks(shard.unit_size).collect();
    let workers = shard.shards.min(units.len()).max(1);
    let progress = telemetry::Progress::new("shard_sweep", todo.len() as u64);
    let cursor = AtomicUsize::new(0);
    let mut worker_results: Vec<Result<Vec<(usize, SimResult)>>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let units = &units;
            let cursor = &cursor;
            let traces = &traces;
            let weights = &weights;
            let progress = &progress;
            handles.push(scope.spawn(move || -> Result<Vec<(usize, SimResult)>> {
                let mut local = Vec::new();
                loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= units.len() {
                        break;
                    }
                    let unit = units[u];
                    let unit_id = unit_base + u as u64;
                    writer.append_record(&claim_record(unit_id, worker, unit[0], unit.len()))?;
                    for &idx in unit {
                        let config = space.config_at(idx);
                        let result =
                            runner::run_windows(config, benchmark, traces, weights, opts.seed);
                        if result.cycles.is_finite() {
                            writer.append_record(&runner::sim_record(idx, &result))?;
                        } else {
                            // Matches the sequential driver: non-finite
                            // cycles don't round-trip as JSON, so the
                            // point is re-simulated on resume instead.
                            telemetry::point!("shard/skip_checkpoint", idx);
                        }
                        progress.inc();
                        local.push((idx, result));
                    }
                    writer.append_record(&unit_done_record(unit_id, worker))?;
                }
                Ok(local)
            }));
        }
        for h in handles {
            // A worker that panicked poisons the whole sweep; propagate.
            match h.join() {
                Ok(r) => worker_results.push(r),
                Err(_) => worker_results.push(Err(Error::invalid(
                    "shard worker thread panicked; ledger remains resumable",
                ))),
            }
        }
    });
    let mut fresh = Vec::with_capacity(todo.len());
    for r in worker_results {
        fresh.extend(r?);
    }
    Ok(fresh)
}

/// Simulate exactly the requested indices (the adaptive loop's lazy
/// acquisition path), optionally checkpointed through the same ledger
/// format as the full sweeps.
///
/// Results come back in request order (duplicates allowed — they share
/// one simulation). With a ledger, previously recorded simulations are
/// restored instead of re-run, and fresh ones are appended, so a killed
/// acquisition round resumes without repeating work. Without a ledger the
/// batch is simulated in parallel in memory.
pub fn try_simulate_indices(
    space: &DesignSpace,
    benchmark: Benchmark,
    opts: &SimOptions,
    indices: &[usize],
    ledger: Option<&str>,
) -> Result<BatchOutcome> {
    let n = space.len();
    if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
        return Err(Error::invalid(format!(
            "requested index {bad} outside the {n}-point design space"
        )));
    }
    let _span = telemetry::span!(
        "simulate_indices",
        benchmark = benchmark.name(),
        requested = indices.len(),
    );
    let mut done: HashMap<usize, SimResult> = HashMap::new();
    let mut writer = None;
    if let Some(path) = ledger {
        let (state, w) = restore_ledger(path, space, benchmark, opts)?;
        done = state.done;
        writer = Some(w);
    }
    let mut missing: Vec<usize> = Vec::new();
    for &idx in indices {
        if !done.contains_key(&idx) && !missing.contains(&idx) {
            missing.push(idx);
        }
    }
    let restored = indices
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len()
        - missing.len();
    let simulated = missing.len();
    if !missing.is_empty() {
        let (traces, weights, _) = runner::materialize(benchmark, opts);
        let writer = &writer;
        let fresh: Vec<Result<(usize, SimResult)>> = missing
            .par_iter()
            .map(|&idx| {
                let config = space.config_at(idx);
                let result = runner::run_windows(config, benchmark, &traces, &weights, opts.seed);
                if let Some(w) = writer {
                    if result.cycles.is_finite() {
                        w.append_record(&runner::sim_record(idx, &result))?;
                    }
                }
                Ok((idx, result))
            })
            .collect();
        for r in fresh {
            let (idx, result) = r?;
            done.insert(idx, result);
        }
    }
    let results = indices
        .iter()
        .map(|idx| {
            done.get(idx).cloned().ok_or_else(|| {
                Error::invalid(format!("internal: index {idx} missing after simulation"))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    telemetry::counter_add("shard/batch_simulated", simulated as u64);
    Ok(BatchOutcome {
        results,
        restored,
        simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpaceSpec;

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

    #[test]
    fn sharded_sweep_is_byte_identical_to_sequential() {
        let space = smoke_space();
        let opts = SimOptions::quick();
        let sequential = runner::try_sweep_design_space(&space, Benchmark::Mcf, &opts, None)
            .expect("sweep")
            .results;
        let ledger = tmp_ledger("identity.jsonl");
        let sharded = try_sweep_sharded(
            &space,
            Benchmark::Mcf,
            &opts,
            &ShardOptions {
                shards: 3,
                unit_size: 5,
            },
            &ledger,
        )
        .expect("sharded sweep");
        assert_eq!(sharded.restored, 0);
        assert_eq!(sharded.simulated, space.len());
        assert_eq!(sharded.units, space.len().div_ceil(5));
        assert_eq!(
            merged_jsonl(&sequential),
            merged_jsonl(&sharded.results),
            "1 vs N shards must merge byte-identically"
        );
        let _ = std::fs::remove_file(&ledger);
    }

    /// Kill-resume identity: sever the ledger right after a `claim` line
    /// (a worker died holding the unit, before any of its sims landed),
    /// with a torn partial line after it. The resumed sweep must reclaim
    /// the orphaned unit and still merge byte-identically.
    #[test]
    fn killed_worker_unit_is_reclaimed_and_merge_stays_identical() {
        let space = smoke_space();
        let opts = SimOptions::quick();
        let reference = runner::try_sweep_design_space(&space, Benchmark::Gcc, &opts, None)
            .expect("sweep")
            .results;
        let ledger = tmp_ledger("kill-resume.jsonl");
        let shard = ShardOptions {
            shards: 2,
            unit_size: 8,
        };
        try_sweep_sharded(&space, Benchmark::Gcc, &opts, &shard, &ledger).expect("first run");

        let text = std::fs::read_to_string(&ledger).expect("read ledger");
        let lines: Vec<&str> = text.lines().collect();
        let last_claim = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"claim\""))
            .map(|(i, _)| i)
            .next_back()
            .expect("at least one claim");
        let mut cut = lines[..=last_claim].join("\n");
        cut.push('\n');
        cut.push_str(&lines[last_claim + 1][..lines[last_claim + 1].len() / 2]);
        std::fs::write(&ledger, &cut).expect("sever ledger");

        let resumed =
            try_sweep_sharded(&space, Benchmark::Gcc, &opts, &shard, &ledger).expect("resume");
        assert!(
            resumed.reclaimed >= 1,
            "the severed claim must surface as a reclaimed unit"
        );
        assert!(resumed.restored > 0 && resumed.simulated > 0);
        assert_eq!(resumed.restored + resumed.simulated, space.len());
        assert_eq!(
            merged_jsonl(&reference),
            merged_jsonl(&resumed.results),
            "kill + resume must not change a single byte of the merge"
        );

        // A third run restores everything and does no work.
        let again =
            try_sweep_sharded(&space, Benchmark::Gcc, &opts, &shard, &ledger).expect("idle resume");
        assert_eq!(again.simulated, 0);
        assert_eq!(merged_jsonl(&reference), merged_jsonl(&again.results));
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
        let shard = ShardOptions {
            shards: 2,
            unit_size: 8,
        };
        try_sweep_sharded(&space, Benchmark::Mcf, &opts, &shard, &ledger).expect("first run");
        match try_sweep_sharded(&other, Benchmark::Mcf, &opts, &shard, &ledger) {
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
    fn zero_shards_or_units_are_invalid() {
        let space = smoke_space();
        let opts = SimOptions::quick();
        let bad = ShardOptions {
            shards: 0,
            unit_size: 8,
        };
        let e = try_sweep_sharded(&space, Benchmark::Mcf, &opts, &bad, "unused.jsonl")
            .expect_err("zero shards");
        assert_eq!(e.kind(), "invalid");
    }
}
