//! Golden bits of one small adaptive exploration: a precomputed sweep as
//! the oracle, an NN-Q committee choosing the acquisitions, NN-E as the
//! final model and a holdout for evaluation. The recorded constants pin
//! every trajectory point's `to_bits` and the count of labels revealed, so
//! a change to how the explorer schedules its fits (which fan-out trains
//! what, on which thread) or orders its oracle calls must leave every
//! answer bit-identical to pass.

use cpusim::runner::{try_sweep_design_space, SimOptions};
use cpusim::{Benchmark, DesignSpace};
use dse::adaptive::EvalMode;
use dse::{try_run_adaptive, AdaptiveConfig};
use mlmodels::ModelKind;

/// `(budget, adaptive_error bits, random_error bits)` per round.
const TRAJECTORY: [(usize, u64, u64); 3] = [
    (10, 0x3fd3_f38f_19c0_1db6, 0x4000_fa32_965e_229a),
    (15, 0x3fcd_6d8c_1db6_d35c, 0x3fca_9c2b_aad7_29de),
    (20, 0x3fcc_8d8d_d75a_416a, 0x3fd3_654f_ce6b_be54),
];

/// Distinct labels revealed: the holdout, the acquisitions and every
/// round's random-baseline draw, overlaps counted once.
const SIMULATED: usize = 61;

#[test]
fn small_adaptive_run_reproduces_its_recorded_bits() {
    let space = DesignSpace::table1_every(64);
    let sim = SimOptions {
        instructions: 4_000,
        ..SimOptions::quick()
    };
    let sweep = try_sweep_design_space(&space, Benchmark::Mcf, &sim, None)
        .expect("sweep")
        .results;
    let cfg = AdaptiveConfig {
        initial: 10,
        batch: 5,
        rounds: 2,
        committee: 3,
        pool: 0,
        eval: EvalMode::Holdout(16),
        member: ModelKind::NnQ,
        final_model: ModelKind::NnE,
        sim,
        seed: 17,
    };
    let r =
        try_run_adaptive(Benchmark::Mcf, &space, &cfg, Some(sweep), None).expect("adaptive run");
    let got: Vec<(usize, u64, u64)> = r
        .trajectory
        .iter()
        .map(|p| {
            (
                p.budget,
                p.adaptive_error.to_bits(),
                p.random_error.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, TRAJECTORY, "trajectory bits moved");
    assert_eq!(r.simulated, SIMULATED, "revealed-label count moved");
}
