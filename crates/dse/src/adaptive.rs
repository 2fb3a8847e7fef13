//! Adaptive (active-learning) design-space exploration — an extension past
//! the paper's fixed random sampling (§2 closes with "there may be other
//! means of utilizing the predictive models during the design space
//! exploration").
//!
//! Instead of drawing the whole training sample up front, the explorer
//! alternates: train a small *committee* of networks on everything
//! simulated so far, find the unsimulated configurations the committee
//! disagrees on most (query-by-committee uncertainty), simulate exactly
//! those, and repeat. The result is an error trajectory comparable, at
//! equal simulation budget, with the paper's one-shot random sample.
//!
//! The loop is *lazy*: configurations are decoded from the space on demand
//! and labels are produced through [`cpusim::try_simulate_indices`],
//! so on a generator-defined space of millions of points the explorer
//! simulates only the configurations it actually acquires (plus whatever
//! the chosen [`EvalMode`] needs) and never materializes the lattice.

use std::collections::{HashMap, HashSet};

use crate::data::{try_table_from_configs, try_table_from_sweep};
use cpusim::runner::SimResult;
use cpusim::{Benchmark, CpuConfig, DesignSpace};
use fault::{Error, Result};
use linalg::dist::{child_seed, seeded_rng};
use linalg::stats::{mape, std_dev};
use mlmodels::{try_train, ModelKind, Table, TrainedModel};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Largest space the explorer will score or evaluate exhaustively. Past
/// this, candidate scoring must be capped with [`AdaptiveConfig::pool`]
/// and evaluation must use a holdout (or none) instead of the full space.
pub(crate) const MAX_EXHAUSTIVE_SCORING: usize = 65_536;

/// Seed-stream layout for the adaptive loop.
///
/// Every random draw gets its own [`child_seed`] stream. Each round owns a
/// block of 2^16 stream ids, so per-round purposes can never collide with
/// another round's for any feasible round count — the previous flat
/// `50 + round` / `70 + round` / `90 + round` offsets overlapped from
/// round 20 (e.g. eval stream of round 20 == baseline-train stream of
/// round 0), silently correlating draws that must be independent. A
/// regression test below pins the disjointness.
pub(crate) mod streams {
    /// Initial acquisition draw (global, not per-round).
    pub const INITIAL: u64 = 1;
    /// Holdout evaluation-set draw (global, not per-round).
    pub const HOLDOUT: u64 = 2;

    /// Each round owns the block `[ROUND_BASE * (round+1), ROUND_BASE * (round+2))`.
    const ROUND_BASE: u64 = 1 << 16;
    const EVAL: u64 = 0;
    const BASELINE_DRAW: u64 = 1;
    const BASELINE_TRAIN: u64 = 2;
    const POOL: u64 = 3;
    /// Committee members start at offset 0x100 inside the round block.
    const COMMITTEE: u64 = 0x100;

    fn block(round: usize) -> u64 {
        ROUND_BASE * (round as u64 + 1)
    }

    /// Final-model training seed for the round's trajectory point.
    pub fn eval(round: usize) -> u64 {
        block(round) + EVAL
    }

    /// Equal-budget random-baseline sample draw.
    pub fn baseline_draw(round: usize) -> u64 {
        block(round) + BASELINE_DRAW
    }

    /// Random-baseline model training seed.
    pub fn baseline_train(round: usize) -> u64 {
        block(round) + BASELINE_TRAIN
    }

    /// Candidate-pool draw for capped scoring on huge spaces.
    pub fn pool(round: usize) -> u64 {
        block(round) + POOL
    }

    /// Per-member committee training seed.
    pub fn committee(round: usize, member: usize) -> u64 {
        block(round) + COMMITTEE + member as u64
    }
}

/// How trajectory errors are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalMode {
    /// Label the whole space and report ground-truth MAPE over it (the
    /// historical behaviour). Only sensible when a precomputed sweep is at
    /// hand or the space is small; rejected past
    /// [`MAX_EXHAUSTIVE_SCORING`] points without a precomputed sweep.
    FullSpace,
    /// Label a seeded holdout of the given size once, keep it disjoint
    /// from acquisition, and report MAPE over it.
    Holdout(usize),
    /// Measure nothing: trajectory errors are NaN and the simulation count
    /// stays exactly `initial + batch × rounds`.
    AcquisitionOnly,
}

/// Configuration of an adaptive exploration.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Random seed points to start from.
    pub initial: usize,
    /// Configurations added per acquisition round.
    pub batch: usize,
    /// Acquisition rounds.
    pub rounds: usize,
    /// Committee size (networks trained with different seeds).
    pub committee: usize,
    /// Candidate-pool cap per round: score committee disagreement over a
    /// seeded sample of this many unacquired configurations. `0` scores
    /// every unacquired point, which is rejected for spaces past
    /// [`MAX_EXHAUSTIVE_SCORING`] points.
    pub pool: usize,
    /// Error-measurement protocol for the trajectory.
    pub eval: EvalMode,
    /// Committee member model (NN-Q by default: cheap and diverse).
    pub member: ModelKind,
    /// Final model retrained on the acquired sample for evaluation.
    pub final_model: ModelKind,
    /// Simulator options (used only when no precomputed sweep is given).
    pub sim: cpusim::runner::SimOptions,
    /// Master seed.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            initial: 24,
            batch: 12,
            rounds: 4,
            committee: 5,
            pool: 0,
            eval: EvalMode::FullSpace,
            member: ModelKind::NnQ,
            final_model: ModelKind::NnE,
            sim: cpusim::runner::SimOptions::default(),
            seed: 0xADA,
        }
    }
}

/// One point of the budget-vs-error trajectory.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Simulations spent on acquisition so far.
    pub budget: usize,
    /// Error of the final model trained on the adaptive sample (NaN under
    /// [`EvalMode::AcquisitionOnly`]).
    pub adaptive_error: f64,
    /// Error of the same model trained on a random sample of equal size
    /// (the paper's protocol; NaN under [`EvalMode::AcquisitionOnly`]).
    pub random_error: f64,
}

/// Result of one adaptive exploration.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The benchmark explored.
    pub benchmark: Benchmark,
    /// Error trajectory, one entry per round (including the seed round).
    pub trajectory: Vec<TrajectoryPoint>,
    /// Distinct configurations whose labels were produced (fresh
    /// simulations, or rows revealed from a precomputed sweep). Under
    /// [`EvalMode::AcquisitionOnly`] with no checkpoint restore this is
    /// exactly `initial + batch × rounds`.
    pub simulated: usize,
}

/// Label source for the explorer: a precomputed sweep (labels are revealed
/// as configurations are acquired) or the lazy simulator. Counts
/// distinct label productions so tests can pin the simulation budget.
struct Oracle<'a> {
    space: &'a DesignSpace,
    benchmark: Benchmark,
    sim: cpusim::runner::SimOptions,
    precomputed: Option<Vec<SimResult>>,
    ledger: Option<&'a str>,
    cache: HashMap<usize, SimResult>,
    simulated: usize,
}

impl<'a> Oracle<'a> {
    /// Label `idxs` (cached labels are free), returning results in request
    /// order. Duplicate requests share one label.
    fn labels(&mut self, idxs: &[usize]) -> Result<Vec<SimResult>> {
        let mut missing: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        for &i in idxs {
            if !self.cache.contains_key(&i) && seen.insert(i) {
                missing.push(i);
            }
        }
        if !missing.is_empty() {
            match &self.precomputed {
                Some(pre) => {
                    for &i in &missing {
                        self.cache.insert(i, pre[i].clone());
                    }
                    self.simulated += missing.len();
                }
                None => {
                    let batch = cpusim::try_simulate_indices(
                        self.space,
                        self.benchmark,
                        &self.sim,
                        &missing,
                        self.ledger,
                    )?;
                    // Ledger-restored labels are not fresh simulations.
                    self.simulated += batch.simulated;
                    for (i, r) in missing.iter().zip(batch.results) {
                        self.cache.insert(*i, r);
                    }
                }
            }
        }
        idxs.iter()
            .map(|i| {
                self.cache.get(i).cloned().ok_or_else(|| {
                    Error::degenerate(format!("oracle produced no label for index {i}"))
                })
            })
            .collect()
    }
}

/// Draw `k` distinct indices from `0..n` avoiding `exclude`. Rejection
/// sampling when the draw is sparse (never materializes `0..n`), a
/// filtered shuffle when it is dense.
fn draw_distinct(rng: &mut impl Rng, n: usize, k: usize, exclude: &HashSet<usize>) -> Vec<usize> {
    debug_assert!(
        k + exclude.len() <= n,
        "draw_distinct: k + |exclude| must fit in n"
    );
    let free = n - exclude.len();
    let mut out = Vec::with_capacity(k);
    if k.saturating_mul(4) >= free {
        for i in linalg::dist::permutation(rng, n) {
            if !exclude.contains(&i) {
                out.push(i);
                if out.len() == k {
                    break;
                }
            }
        }
    } else {
        let mut seen: HashSet<usize> = HashSet::with_capacity(k);
        while out.len() < k {
            let i = rng.random_range(0..n);
            if !exclude.contains(&i) && seen.insert(i) {
                out.push(i);
            }
        }
    }
    out
}

/// Validate an [`AdaptiveConfig`] against a space of `n` points. Returns
/// the total acquisition budget.
fn validate_config(cfg: &AdaptiveConfig, n: usize, has_precomputed: bool) -> Result<usize> {
    if n == 0 {
        return Err(Error::invalid(
            "adaptive exploration needs a non-empty space",
        ));
    }
    if cfg.initial == 0 {
        return Err(Error::invalid(
            "adaptive exploration needs at least one initial point",
        ));
    }
    if cfg.rounds > 0 && cfg.batch == 0 {
        return Err(Error::invalid(
            "adaptive exploration with rounds > 0 needs a non-zero batch",
        ));
    }
    if cfg.committee < 2 {
        return Err(Error::invalid(
            "query-by-committee needs a committee of at least 2",
        ));
    }
    let budget = cfg
        .batch
        .checked_mul(cfg.rounds)
        .and_then(|b| b.checked_add(cfg.initial))
        .ok_or_else(|| Error::invalid("adaptive budget overflows usize"))?;
    if budget >= n {
        return Err(Error::invalid(format!(
            "adaptive budget of {budget} points (initial {} + batch {} \u{d7} rounds {}) \
             exceeds the space of {n} points",
            cfg.initial, cfg.batch, cfg.rounds
        )));
    }
    if cfg.pool == 0 && n > MAX_EXHAUSTIVE_SCORING {
        return Err(Error::invalid(format!(
            "space has {n} points, too many to score exhaustively; \
             set AdaptiveConfig::pool to cap candidate scoring"
        )));
    }
    match cfg.eval {
        EvalMode::FullSpace => {
            if n > MAX_EXHAUSTIVE_SCORING && !has_precomputed {
                return Err(Error::invalid(format!(
                    "full-space evaluation would simulate all {n} points; \
                     use EvalMode::Holdout or EvalMode::AcquisitionOnly"
                )));
            }
        }
        EvalMode::Holdout(k) => {
            if k == 0 {
                return Err(Error::invalid(
                    "holdout evaluation needs a non-empty holdout",
                ));
            }
            if budget + k > n {
                return Err(Error::invalid(format!(
                    "budget {budget} + holdout {k} exceeds the space of {n} points"
                )));
            }
        }
        EvalMode::AcquisitionOnly => {}
    }
    Ok(budget)
}

/// Run the adaptive exploration. A precomputed sweep (covering the whole
/// space, in index order) doubles as the simulator oracle; without one,
/// labels are produced lazily through the sharded driver, persisting to
/// `ledger` (a sweep-checkpoint path) when given so an interrupted
/// exploration resumes without re-simulating.
pub fn try_run_adaptive(
    benchmark: Benchmark,
    space: &DesignSpace,
    cfg: &AdaptiveConfig,
    precomputed: Option<Vec<SimResult>>,
    ledger: Option<&str>,
) -> Result<AdaptiveResult> {
    let n = space.len();
    let _budget = validate_config(cfg, n, precomputed.is_some())?;
    if let Some(pre) = &precomputed {
        if pre.len() != n {
            return Err(Error::invalid(format!(
                "precomputed sweep has {} results for a space of {n} points",
                pre.len()
            )));
        }
    }
    let _span = telemetry::span!(
        "dse/adaptive",
        benchmark = benchmark.name(),
        space = n,
        initial = cfg.initial,
        rounds = cfg.rounds
    );

    let mut oracle = Oracle {
        space,
        benchmark,
        sim: cfg.sim,
        precomputed,
        ledger,
        cache: HashMap::new(),
        simulated: 0,
    };

    // Evaluation set: labeled once, disjoint from every acquisition draw.
    let (holdout, eval_table): (HashSet<usize>, Option<Table>) = match cfg.eval {
        EvalMode::AcquisitionOnly => (HashSet::new(), None),
        EvalMode::FullSpace => {
            let all: Vec<usize> = (0..n).collect();
            let rows = oracle.labels(&all)?;
            (HashSet::new(), Some(try_table_from_sweep(&rows)?))
        }
        EvalMode::Holdout(k) => {
            let mut hrng = seeded_rng(child_seed(cfg.seed, streams::HOLDOUT));
            let idxs = draw_distinct(&mut hrng, n, k, &HashSet::new());
            let rows = oracle.labels(&idxs)?;
            (
                idxs.into_iter().collect(),
                Some(try_table_from_sweep(&rows)?),
            )
        }
    };

    let mut rng = seeded_rng(child_seed(cfg.seed, streams::INITIAL));
    let mut acquired: Vec<usize> = draw_distinct(&mut rng, n, cfg.initial, &holdout);
    let mut trajectory = Vec::with_capacity(cfg.rounds + 1);

    for round in 0..=cfg.rounds {
        let budget = acquired.len();
        let train_rows = oracle.labels(&acquired)?;
        let train_table = try_table_from_sweep(&train_rows)?;

        let (adaptive_error, random_error) = match &eval_table {
            None => (f64::NAN, f64::NAN),
            Some(eval) => {
                let model = try_train(
                    cfg.final_model,
                    &train_table,
                    child_seed(cfg.seed, streams::eval(round)),
                )?;
                let (a_err, _) = mape(&model.try_predict(eval)?, eval.target());
                // Equal-budget random baseline (fresh draw each round).
                let mut brng = seeded_rng(child_seed(cfg.seed, streams::baseline_draw(round)));
                let random_rows = draw_distinct(&mut brng, n, budget, &holdout);
                let random_table = try_table_from_sweep(&oracle.labels(&random_rows)?)?;
                let baseline = try_train(
                    cfg.final_model,
                    &random_table,
                    child_seed(cfg.seed, streams::baseline_train(round)),
                )?;
                let (r_err, _) = mape(&baseline.try_predict(eval)?, eval.target());
                (a_err, r_err)
            }
        };
        trajectory.push(TrajectoryPoint {
            budget,
            adaptive_error,
            random_error,
        });

        if round == cfg.rounds {
            break;
        }

        // Query-by-committee: train the committee on the acquired sample.
        let committee = telemetry::par_map(cfg.committee, telemetry::default_workers(), |m| {
            try_train(
                cfg.member,
                &train_table,
                child_seed(cfg.seed, streams::committee(round, m)),
            )
        })
        .into_iter()
        .collect::<Result<Vec<TrainedModel>>>()?;

        // Candidate pool: everything unacquired, or a seeded cap of it.
        let acquired_set: HashSet<usize> = acquired.iter().copied().collect();
        let taken: HashSet<usize> = acquired_set.union(&holdout).copied().collect();
        let candidates: Vec<usize> = if cfg.pool == 0 {
            (0..n).filter(|i| !taken.contains(i)).collect()
        } else {
            let mut prng = seeded_rng(child_seed(cfg.seed, streams::pool(round)));
            let want = cfg.pool.min(n - taken.len());
            draw_distinct(&mut prng, n, want, &taken)
        };
        if candidates.len() < cfg.batch {
            return Err(Error::degenerate(format!(
                "round {round} candidate pool has {} points but the batch needs {}",
                candidates.len(),
                cfg.batch
            )));
        }

        // Disagreement is scored on *features only* — candidates are
        // decoded lazily and never simulated unless selected.
        let cand_configs: Vec<CpuConfig> = candidates.iter().map(|&i| space.config_at(i)).collect();
        let cand_table = try_table_from_configs(&cand_configs)?;
        let predictions = telemetry::par_map(committee.len(), telemetry::default_workers(), |m| {
            committee[m].try_predict(&cand_table)
        })
        .into_iter()
        .collect::<Result<Vec<Vec<f64>>>>()?;

        let mut disagreement: Vec<(usize, f64)> = candidates
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                let preds: Vec<f64> = predictions.iter().map(|p| p[j]).collect();
                (i, std_dev(&preds))
            })
            .collect();
        // Stable sort: ties resolve in candidate order, keeping the
        // acquisition deterministic for a fixed seed.
        disagreement.sort_by(|a, b| b.1.total_cmp(&a.1));
        acquired.extend(disagreement.iter().take(cfg.batch).map(|&(i, _)| i));
    }

    Ok(AdaptiveResult {
        benchmark,
        trajectory,
        simulated: oracle.simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::runner::SimOptions;

    fn tiny_space() -> DesignSpace {
        DesignSpace::from_configs(
            DesignSpace::table1()
                .configs()
                .iter()
                .copied()
                .step_by(24)
                .collect(),
        )
    }

    fn tiny_cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            initial: 16,
            batch: 8,
            rounds: 2,
            committee: 3,
            member: ModelKind::NnS,
            final_model: ModelKind::NnS,
            sim: SimOptions::quick(),
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn trajectory_has_expected_shape() {
        let r = try_run_adaptive(Benchmark::Mesa, &tiny_space(), &tiny_cfg(), None, None)
            .expect("tiny adaptive run succeeds");
        assert_eq!(r.trajectory.len(), 3);
        assert_eq!(r.trajectory[0].budget, 16);
        assert_eq!(r.trajectory[1].budget, 24);
        assert_eq!(r.trajectory[2].budget, 32);
        for p in &r.trajectory {
            assert!(p.adaptive_error.is_finite() && p.random_error.is_finite());
        }
        // FullSpace evaluation labels the whole space.
        assert_eq!(r.simulated, tiny_space().len());
    }

    #[test]
    fn acquisition_never_duplicates_points() {
        // Indirectly verified: budgets strictly increase by `batch`, which
        // requires every acquired batch to be disjoint from the pool.
        let cfg = AdaptiveConfig {
            initial: 12,
            batch: 6,
            rounds: 3,
            committee: 3,
            member: ModelKind::NnS,
            final_model: ModelKind::LrB,
            sim: SimOptions::quick(),
            seed: 9,
            ..Default::default()
        };
        let r = try_run_adaptive(Benchmark::Applu, &tiny_space(), &cfg, None, None)
            .expect("tiny adaptive run succeeds");
        let budgets: Vec<usize> = r.trajectory.iter().map(|p| p.budget).collect();
        assert_eq!(budgets, vec![12, 18, 24, 30]);
    }

    #[test]
    fn oversized_budget_is_a_typed_error() {
        let cfg = AdaptiveConfig {
            initial: 150,
            batch: 50,
            rounds: 10,
            ..Default::default()
        };
        let e = try_run_adaptive(Benchmark::Applu, &tiny_space(), &cfg, None, None)
            .expect_err("oversized budget must be rejected");
        assert_eq!(e.kind(), "invalid");
        assert!(
            e.to_string().contains("exceeds the space"),
            "unexpected message: {e}"
        );
    }

    #[test]
    fn holdout_mode_keeps_eval_points_out_of_acquisition() {
        let cfg = AdaptiveConfig {
            initial: 8,
            batch: 4,
            rounds: 2,
            committee: 2,
            pool: 24,
            eval: EvalMode::Holdout(16),
            member: ModelKind::NnS,
            final_model: ModelKind::LrB,
            sim: SimOptions::quick(),
            seed: 11,
        };
        let r = try_run_adaptive(Benchmark::Mcf, &tiny_space(), &cfg, None, None)
            .expect("holdout adaptive run succeeds");
        assert_eq!(r.trajectory.len(), 3);
        for p in &r.trajectory {
            assert!(p.adaptive_error.is_finite() && p.random_error.is_finite());
        }
        // Labels: 16 holdout + 16 acquired + per-round random baselines
        // (8, 12, 16 points, overlapping draws may be cached). The exact
        // count is seed-dependent; the bound is what matters.
        assert!(r.simulated >= 32, "holdout + acquisition must be labeled");
        assert!(
            r.simulated <= 16 + 16 + 36,
            "labels are cached, not re-simulated"
        );
    }

    #[test]
    fn seed_streams_never_collide() {
        // Regression for the flat `50 + round` / `70 + round` / `90 + round`
        // layout: eval(20) used to equal baseline_train(0). With blocked
        // streams every (round, purpose) pair is unique across 40 rounds
        // and 64 committee members.
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(streams::INITIAL));
        assert!(seen.insert(streams::HOLDOUT));
        for round in 0..40 {
            assert!(seen.insert(streams::eval(round)), "eval({round}) collides");
            assert!(
                seen.insert(streams::baseline_draw(round)),
                "baseline_draw({round}) collides"
            );
            assert!(
                seen.insert(streams::baseline_train(round)),
                "baseline_train({round}) collides"
            );
            assert!(seen.insert(streams::pool(round)), "pool({round}) collides");
            for m in 0..64 {
                assert!(
                    seen.insert(streams::committee(round, m)),
                    "committee({round}, {m}) collides"
                );
            }
        }
        // The old layout collided exactly here.
        assert_ne!(streams::eval(20), streams::baseline_train(0));
    }

    #[test]
    fn pool_capped_scoring_is_deterministic() {
        let cfg = AdaptiveConfig {
            initial: 8,
            batch: 4,
            rounds: 2,
            committee: 2,
            pool: 32,
            eval: EvalMode::AcquisitionOnly,
            member: ModelKind::NnS,
            final_model: ModelKind::NnS,
            sim: SimOptions::quick(),
            seed: 7,
        };
        let a = try_run_adaptive(Benchmark::Gcc, &tiny_space(), &cfg, None, None)
            .expect("pooled adaptive run succeeds");
        let b = try_run_adaptive(Benchmark::Gcc, &tiny_space(), &cfg, None, None)
            .expect("pooled adaptive run succeeds");
        assert_eq!(a.simulated, b.simulated);
        assert_eq!(a.simulated, 8 + 4 * 2);
        for (p, q) in a.trajectory.iter().zip(&b.trajectory) {
            assert_eq!(p.budget, q.budget);
            assert!(p.adaptive_error.is_nan() && q.adaptive_error.is_nan());
        }
    }
}
