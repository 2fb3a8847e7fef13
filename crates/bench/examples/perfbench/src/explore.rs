//! `explore`: adaptive (query-by-committee) exploration of the generated
//! 2.2M-configuration `mega` space for `applu`, with the default
//! committee and rounds, a 2048-candidate pool and a 256-point holdout.
//!
//! It uses the simulator and the models differently from `sweep` and
//! `train`: `cpusim` gets small scattered batches, so per-call trace
//! materialisation and thread start-up matter more than throughput, and
//! `mlmodels` gets many small NN-Q committee fits plus 2048-candidate
//! scoring. A change that amortises set-up over a long sweep can cost
//! here.

use crate::spans::Recorder;
use crate::{ctx, Checks, Options, Outcome, Res, Workload};
use cpusim::{Benchmark, DesignSpace, SimOptions, SpaceSpec};
use dse::{AdaptiveConfig, EvalMode};
use linalg::dist::child_seed;

/// Instructions per simulated configuration.
const INSTRUCTIONS: u64 = 8_000;
/// Candidates scored per round.
pub const POOL: usize = 2048;
/// Holdout configurations the error is measured on.
const HOLDOUT: usize = 256;

/// The explorer's configuration for `seed`.
pub fn config(seed: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        pool: POOL,
        eval: EvalMode::Holdout(HOLDOUT),
        sim: SimOptions {
            instructions: INSTRUCTIONS,
            seed,
            ..SimOptions::default()
        },
        seed: child_seed(seed, 4),
        ..AdaptiveConfig::default()
    }
}

/// The generated `mega` space.
pub fn space() -> Res<DesignSpace> {
    DesignSpace::try_generate(&SpaceSpec::mega()).map_err(ctx("mega space"))
}

/// State of an `explore` run.
pub struct Explore {
    space: DesignSpace,
    cfg: AdaptiveConfig,
    error: Option<f64>,
}

impl Workload for Explore {
    const MIN_REPS: u32 = 3;

    fn setup(opts: &Options) -> Res<Explore> {
        let space = space()?;
        let cfg = config(opts.seed);
        // Warm up both layers before timing: simulate an initial-sized
        // sample outside the explorer's own draws and fit one committee
        // member on it.
        let batch = space.seeded_pool(child_seed(opts.seed, 5), cfg.initial);
        let labels = cpusim::try_simulate_indices(&space, Benchmark::Applu, &cfg.sim, &batch, None)
            .map_err(ctx("warm-up batch"))?;
        let table =
            dse::data::try_table_from_sweep(&labels.results).map_err(ctx("warm-up table"))?;
        mlmodels::try_train(cfg.member, &table, child_seed(opts.seed, 6))
            .map_err(ctx("warm-up fit"))?;
        Ok(Explore {
            space,
            cfg,
            error: None,
        })
    }

    fn rep(&mut self, rec: &Recorder, rep: u32, checks: &mut Checks) -> Res<()> {
        let root = rec.open("explore", "bench", 0, rep);
        let result = {
            let _s = rec.open("try_run_adaptive", "dse", root.id(), rep);
            dse::try_run_adaptive(Benchmark::Applu, &self.space, &self.cfg, None, None)
                .map_err(ctx("adaptive exploration"))?
        };
        let rounds = self.cfg.rounds + 1;
        checks.ops(result.simulated as u64, 0);
        checks.check(result.trajectory.len() == rounds, || {
            format!(
                "trajectory has {} of {rounds} rounds",
                result.trajectory.len()
            )
        });
        let finite = result
            .trajectory
            .iter()
            .all(|p| p.adaptive_error.is_finite() && p.random_error.is_finite());
        checks.check(finite, || "non-finite trajectory error".to_string());
        let min_sims = HOLDOUT + self.cfg.initial + self.cfg.batch * self.cfg.rounds;
        checks.check(result.simulated >= min_sims, || {
            format!(
                "{} simulations, expected at least {min_sims}",
                result.simulated
            )
        });
        let error = result
            .trajectory
            .last()
            .map_or(f64::NAN, |p| p.adaptive_error);
        let first = *self.error.get_or_insert(error);
        checks.check(first.to_bits() == error.to_bits(), || {
            format!("final error {error} differs from the first repetition's {first}")
        });
        Ok(())
    }

    fn finish(self, _rec: &Recorder, _checks: &mut Checks, out: &mut Outcome) -> Res<()> {
        out.detail("explore_s", out.run_s.clone());
        out.detail("explore_error_pct", vec![self.error.unwrap_or(f64::NAN)]);
        Ok(())
    }
}
