//! `train`: model training and selection, with no timed simulation.
//!
//! Set-up sweeps every eighth Table-1 configuration (576) for `applu`.
//! The timed phase runs the paper's sampled study on that precomputed
//! sweep — NN-E, NN-S and LR-B at 46 and 92 training rows (the sample
//! sizes of 1 and 2 % of Table 1), each with the max-of-5
//! cross-validation estimate — and then the chronological study of all
//! seven processor families on the SPEC announcement data. A `cpusim`
//! change must leave these numbers unmoved; an `mlmodels`, `linalg` or
//! `simd` change shows here.

use crate::spans::Recorder;
use crate::{ctx, Checks, Options, Outcome, Res, Workload};
use cpusim::{Benchmark, DesignSpace, SimOptions, SimResult, SpaceSpec};
use dse::{ChronoConfig, SampledConfig, SampledRun, SamplingStrategy};
use linalg::dist::child_seed;
use mlmodels::ModelKind;
use specdata::ProcessorFamily;
use std::time::Instant;

/// Every `STRIDE`-th Table-1 configuration is in the studied space.
const STRIDE: usize = 8;
/// Instructions per simulated configuration in the set-up sweep.
const INSTRUCTIONS: u64 = 8_000;
/// Sampling rates of the 576-point space: 46 and 92 rows.
const RATES: [f64; 2] = [0.08, 0.16];

/// The studied space and its precomputed `applu` sweep.
pub fn dataset(seed: u64) -> Res<(DesignSpace, Vec<SimResult>, SimOptions)> {
    let table1 = DesignSpace::try_generate(&SpaceSpec::table1()).map_err(ctx("Table-1 space"))?;
    let configs = (0..table1.len())
        .step_by(STRIDE)
        .map(|i| table1.config_at(i))
        .collect();
    let space = DesignSpace::from_configs(configs);
    let sim = SimOptions {
        instructions: INSTRUCTIONS,
        seed,
        ..SimOptions::default()
    };
    let results = cpusim::try_sweep_design_space(&space, Benchmark::Applu, &sim, None)
        .map_err(ctx("set-up sweep"))?
        .results;
    Ok((space, results, sim))
}

/// The paper's *select* method: at each rate, the true error of the
/// model whose max-of-5 estimate is lowest, averaged over the rates.
pub fn select_error(run: &SampledRun) -> Option<f64> {
    let mut sum = 0.0;
    for &rate in &RATES {
        let chosen = run
            .points
            .iter()
            .filter(|p| (p.rate - rate).abs() < 1e-12)
            .filter_map(|p| p.estimated.as_ref().map(|e| (e.max, p.true_error)))
            .min_by(|a, b| a.0.total_cmp(&b.0))?;
        sum += chosen.1;
    }
    Some(sum / RATES.len() as f64)
}

/// State of a `train` run.
pub struct Train {
    space: DesignSpace,
    sweep: Vec<SimResult>,
    sampled: SampledConfig,
    chrono: ChronoConfig,
    dse_s: Vec<f64>,
    chrono_s: Vec<f64>,
    accuracy: Option<(f64, f64)>,
}

impl Workload for Train {
    const MIN_REPS: u32 = 3;

    fn setup(opts: &Options) -> Res<Train> {
        let (space, sweep, sim) = dataset(opts.seed)?;
        Ok(Train {
            space,
            sweep,
            sampled: SampledConfig {
                sampling_rates: RATES.to_vec(),
                strategy: SamplingStrategy::Random,
                models: ModelKind::FIGURE2_ORDER.to_vec(),
                sim,
                seed: child_seed(opts.seed, 1),
                estimate_errors: true,
                export_models: None,
            },
            chrono: ChronoConfig {
                data_seed: child_seed(opts.seed, 2),
                seed: child_seed(opts.seed, 3),
                ..ChronoConfig::default()
            },
            dse_s: Vec::new(),
            chrono_s: Vec::new(),
            accuracy: None,
        })
    }

    fn rep(&mut self, rec: &Recorder, rep: u32, checks: &mut Checks) -> Res<()> {
        let root = rec.open("train", "bench", 0, rep);
        let t0 = Instant::now();
        let run = {
            let _s = rec.open("try_run_sampled_dse", "dse", root.id(), rep);
            dse::try_run_sampled_dse(
                Benchmark::Applu,
                &self.space,
                &self.sampled,
                Some(self.sweep.clone()),
                None,
            )
            .map_err(ctx("sampled study"))?
        };
        let dse_s = t0.elapsed().as_secs_f64();
        let fits = (RATES.len() * self.sampled.models.len()) as u64;
        checks.ops(fits, run.dropped.len() as u64);
        checks.check(run.points.len() as u64 == fits, || {
            format!("sampled study returned {} of {fits} fits", run.points.len())
        });
        let missing = run.points.iter().filter(|p| p.estimated.is_none()).count();
        checks.check(missing == 0, || {
            format!("{missing} fits lack an error estimate")
        });

        let t1 = Instant::now();
        let mut best = Vec::with_capacity(ProcessorFamily::ALL.len());
        for family in ProcessorFamily::ALL {
            let r = {
                let _s = rec.open("try_run_chronological", "dse", root.id(), rep);
                dse::try_run_chronological(family, &self.chrono)
                    .map_err(ctx("chronological study"))?
            };
            let models = self.chrono.models.len() as u64;
            checks.ops(models, r.dropped.len() as u64);
            checks.check(r.points.len() as u64 == models, || {
                format!(
                    "{}: {} of {models} models fitted",
                    family.name(),
                    r.points.len()
                )
            });
            let b = r
                .points
                .iter()
                .map(|p| p.error_mean)
                .filter(|e| e.is_finite())
                .min_by(f64::total_cmp);
            checks.check(b.is_some(), || {
                format!("{}: no finite model error", family.name())
            });
            best.extend(b);
        }
        // Workload metrics come from the untraced repetitions only.
        if !rec.on() {
            self.dse_s.push(dse_s);
            self.chrono_s.push(t1.elapsed().as_secs_f64());
        }

        let accuracy = (
            select_error(&run).unwrap_or(f64::NAN),
            best.iter().sum::<f64>() / best.len().max(1) as f64,
        );
        checks.check(accuracy.0.is_finite() && accuracy.1.is_finite(), || {
            format!("non-finite accuracy {accuracy:?}")
        });
        let first = *self.accuracy.get_or_insert(accuracy);
        checks.check(
            first.0.to_bits() == accuracy.0.to_bits() && first.1.to_bits() == accuracy.1.to_bits(),
            || format!("accuracy {accuracy:?} differs from the first repetition's {first:?}"),
        );
        Ok(())
    }

    fn finish(self, _rec: &Recorder, _checks: &mut Checks, out: &mut Outcome) -> Res<()> {
        let (select, chrono) = self.accuracy.unwrap_or((f64::NAN, f64::NAN));
        out.detail("dse_study_s", self.dse_s);
        out.detail("chrono_study_s", self.chrono_s);
        out.detail("dse_select_error_pct", vec![select]);
        out.detail("chrono_error_pct", vec![chrono]);
        Ok(())
    }
}
