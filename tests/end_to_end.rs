//! Cross-crate integration tests: the full pipelines the paper's
//! experiments run, at reduced scale.

use perfpredict::cpusim::{
    simulate, try_sweep_design_space, Benchmark, CpuConfig, DesignSpace, SimOptions,
};
use perfpredict::dse::chrono::{try_run_chronological, ChronoConfig};
use perfpredict::dse::data::{try_table_from_announcements, try_table_from_sweep};
use perfpredict::dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
use perfpredict::dse::selectbest::select_method_series;
use perfpredict::mlmodels::{try_train, ModelKind};
use perfpredict::specdata::{AnnouncementSet, ProcessorFamily};

fn small_space(step: usize) -> DesignSpace {
    DesignSpace::from_configs(
        DesignSpace::table1()
            .configs()
            .iter()
            .copied()
            .step_by(step)
            .collect(),
    )
}

#[test]
fn sampled_dse_pipeline_end_to_end() {
    let space = small_space(24); // 192 configs
    let cfg = SampledConfig {
        sampling_rates: vec![0.08],
        strategy: SamplingStrategy::Random,
        models: vec![ModelKind::LrB, ModelKind::NnS],
        sim: SimOptions {
            instructions: 8_000,
            ..Default::default()
        },
        seed: 3,
        estimate_errors: true,
        export_models: None,
    };
    let run = try_run_sampled_dse(Benchmark::Mesa, &space, &cfg, None, None).expect("sampled run");
    assert_eq!(run.space_size, 192);
    assert_eq!(run.points.len(), 2);
    for p in &run.points {
        assert!(p.true_error.is_finite());
        assert!(
            p.true_error < 100.0,
            "{}: {}",
            p.model.abbrev(),
            p.true_error
        );
    }
    let select = select_method_series(&run).expect("every rate selects");
    assert_eq!(select.len(), 1);
    assert!(
        run.points.iter().any(|p| p.model == select[0].chosen),
        "select must pick an evaluated model"
    );
}

#[test]
fn chronological_pipeline_end_to_end() {
    let cfg = ChronoConfig {
        train_year: 2005,
        models: vec![ModelKind::LrE, ModelKind::LrS, ModelKind::NnQ],
        data_seed: 42,
        seed: 5,
        estimate_errors: true,
        export_models: None,
    };
    let r = try_run_chronological(ProcessorFamily::PentiumD, &cfg).expect("chronological run");
    assert_eq!(r.points.len(), 3);
    // Paper: "for Pentium D all the models perform about the same and
    // produce roughly 2% error" — we allow a loose band.
    for p in &r.points {
        assert!(
            p.error_mean < 15.0,
            "{} error {} too high for Pentium D",
            p.model.abbrev(),
            p.error_mean
        );
        assert!(p.estimated.is_some());
    }
}

#[test]
fn linear_regression_beats_networks_chronologically() {
    // The paper's §4.3 headline, checked on two families.
    for fam in [ProcessorFamily::Xeon, ProcessorFamily::Opteron2] {
        let cfg = ChronoConfig {
            train_year: 2005,
            models: vec![ModelKind::LrE, ModelKind::NnQ, ModelKind::NnM],
            data_seed: 42,
            seed: 5,
            estimate_errors: false,
            export_models: None,
        };
        let r = try_run_chronological(fam, &cfg).expect("chronological run");
        let lr = r.points.iter().find(|p| p.model == ModelKind::LrE).unwrap();
        let best_nn = r
            .points
            .iter()
            .filter(|p| !p.model.is_linear())
            .map(|p| p.error_mean)
            .fold(f64::INFINITY, f64::min);
        assert!(
            lr.error_mean <= best_nn * 1.1,
            "{}: LR-E {:.2}% should not trail the networks ({best_nn:.2}%)",
            fam.name(),
            lr.error_mean
        );
    }
}

#[test]
fn simulator_to_model_roundtrip() {
    // Simulate a handful of configs, train on all of them, and verify the
    // model reproduces the training cycles closely (interpolation sanity).
    let space = small_space(96); // 48 configs
    let sim = SimOptions {
        instructions: 8_000,
        ..Default::default()
    };
    let results = try_sweep_design_space(&space, Benchmark::Applu, &sim, None)
        .expect("sweep")
        .results;
    let table = try_table_from_sweep(&results).expect("sweep table");
    let model = try_train(ModelKind::NnM, &table, 11).expect("NN-M trains");
    let preds = model.try_predict(&table).expect("predict");
    let (mape, _) = perfpredict::linalg::stats::mape(&preds, table.target());
    assert!(mape < 10.0, "training-set MAPE {mape}");
}

#[test]
fn announcements_to_model_roundtrip() {
    let set = AnnouncementSet::generate(ProcessorFamily::Opteron4, 42);
    let refs: Vec<_> = set.records.iter().collect();
    let table = try_table_from_announcements(&refs).expect("announcement table");
    let model = try_train(ModelKind::LrE, &table, 1).expect("LR-E trains");
    let preds = model.try_predict(&table).expect("predict");
    let (mape, _) = perfpredict::linalg::stats::mape(&preds, table.target());
    assert!(mape < 5.0, "LR-E in-sample MAPE {mape}");
}

#[test]
fn single_simulation_is_deterministic_across_apis() {
    let cfg = CpuConfig::baseline();
    let opts = SimOptions {
        instructions: 6_000,
        ..Default::default()
    };
    let a = simulate(Benchmark::Equake, cfg, &opts);
    let b = simulate(Benchmark::Equake, cfg, &opts);
    assert_eq!(a.cycles, b.cycles);
    let space = DesignSpace::from_configs(vec![cfg]);
    let sweep = try_sweep_design_space(&space, Benchmark::Equake, &opts, None)
        .expect("sweep")
        .results;
    assert_eq!(sweep[0].cycles, a.cycles, "sweep and single-run agree");
}

#[test]
fn perfect_predictor_dominates_in_space() {
    // For every benchmark, the best config with a perfect predictor should
    // be at least as fast as the same config with a bimodal predictor.
    let sim = SimOptions {
        instructions: 6_000,
        ..Default::default()
    };
    for b in [Benchmark::Gcc, Benchmark::Mcf] {
        let mut perfect = CpuConfig::baseline();
        perfect.bpred = perfpredict::cpusim::BranchPredictorKind::Perfect;
        let mut bimodal = CpuConfig::baseline();
        bimodal.bpred = perfpredict::cpusim::BranchPredictorKind::Bimodal;
        let rp = simulate(b, perfect, &sim);
        let rb = simulate(b, bimodal, &sim);
        assert!(
            rp.cycles <= rb.cycles,
            "{}: perfect {} vs bimodal {}",
            b.name(),
            rp.cycles,
            rb.cycles
        );
    }
}
