//! The six neural-network training methods.
//!
//! Clementine's NN node exposes five training strategies — Quick, Dynamic,
//! Multiple, Prune, Exhaustive Prune — and the paper adds a sixth, the
//! single-hidden-layer constant-learning-rate network (NN-S) it compares to
//! Ipek et al. All six drive the same [`Mlp`] engine and differ in how they
//! search the topology space:
//!
//! | method | strategy |
//! |---|---|
//! | NN-Q | one hidden layer sized by a data heuristic, one shot |
//! | NN-D | grows the hidden layer while validation improves |
//! | NN-M | trains several topologies (in parallel) and keeps the best |
//! | NN-P | starts large, greedily prunes weak hidden units and inputs |
//! | NN-E | prune with multiple restarts, candidate lookahead, longer training — "the slowest of all, but often yields the best results" |
//! | NN-S | small single hidden layer, constant learning rate |
//!
//! Architecture decisions use an internal 50/50 train/validate split
//! (mirroring Clementine's train/simulate halves); the chosen topology is
//! then retrained on all rows.

use crate::nn::{restart_seed, Mlp, TrainAlgo, TrainConfig};
use fault::{Error, Result};
use linalg::dist::{child_seed, permutation, seeded_rng};
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Neural-network training method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum NnMethod {
    /// NN-Q.
    Quick,
    /// NN-D.
    Dynamic,
    /// NN-M.
    Multiple,
    /// NN-P.
    Prune,
    /// NN-E.
    ExhaustivePrune,
    /// NN-S (Ipek-style baseline).
    Single,
}

impl NnMethod {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            NnMethod::Quick => "NN-Q",
            NnMethod::Dynamic => "NN-D",
            NnMethod::Multiple => "NN-M",
            NnMethod::Prune => "NN-P",
            NnMethod::ExhaustivePrune => "NN-E",
            NnMethod::Single => "NN-S",
        }
    }
}

/// Split rows 50/50 for architecture decisions.
fn split_half(n: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = seeded_rng(seed);
    let perm = permutation(&mut rng, n);
    let half = (n / 2).max(1);
    (perm[..half].to_vec(), perm[half.min(n - 1)..].to_vec())
}

fn rows_of(x: &Matrix, idx: &[usize]) -> Matrix {
    x.select_rows(idx)
}

fn targets_of(y: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| y[i]).collect()
}

/// Train `net` and return its final training RMSE. A network that
/// diverges through every retry is kept with the loss
/// [`Error::Diverged`] reports instead of failing: the drivers rank or
/// reject it by that loss. Every other error propagates.
fn train_keeping_divergence(
    net: &mut Mlp,
    x: &Matrix,
    y: &[f64],
    cfg: &TrainConfig,
) -> Result<f64> {
    match net.try_train(x, y, cfg) {
        Err(Error::Diverged { loss, .. }) => Ok(loss),
        other => other,
    }
}

/// Train one candidate topology on a split and report validation RMSE.
fn fit_candidate(
    hidden: &[usize],
    xt: &Matrix,
    yt: &[f64],
    xv: &Matrix,
    yv: &[f64],
    cfg: &TrainConfig,
) -> Result<(Mlp, f64)> {
    let mut net = Mlp::new(xt.cols(), hidden, cfg.seed);
    train_keeping_divergence(&mut net, xt, yt, cfg)?;
    let val = net.rmse(xv, yv);
    Ok((net, val))
}

/// Final full-data training for a chosen topology, preserving pruned
/// inputs from a prototype network. Batch training on small samples can
/// land in poor local minima, so three restarts compete, in parallel, and
/// the best training fit wins.
fn finalize(proto: &Mlp, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> Result<Mlp> {
    let restarts = telemetry::par_map(3, telemetry::default_workers(), |r| {
        let r = r as u64;
        let mut net = Mlp::new(
            x.cols(),
            &proto.hidden_sizes(),
            child_seed(cfg.seed, 0xF1 + r),
        );
        for i in 0..x.cols() {
            if proto.input_is_dead(i) {
                net.prune_input(i);
            }
        }
        let mut fcfg = *cfg;
        fcfg.seed = child_seed(cfg.seed, 0xF2 + r);
        let rmse = train_keeping_divergence(&mut net, x, y, &fcfg)?;
        Ok((net, rmse))
    });
    Ok(best_restart(restarts.into_iter().collect::<Result<_>>()?))
}

/// The restart with the lowest final training loss. A NaN loss of
/// either sign ranks as +inf, so a diverged restart never beats a
/// converged one.
fn best_restart(restarts: Vec<(Mlp, f64)>) -> Mlp {
    let rank = |loss: f64| if loss.is_nan() { f64::INFINITY } else { loss };
    restarts
        .into_iter()
        .min_by(|a, b| rank(a.1).total_cmp(&rank(b.1)))
        .expect("three restarts")
        .0
}

/// Train a network on `(x, y01)` — the design matrix and 0–1 scaled
/// targets — with the chosen method. Deterministic per seed.
///
/// Validates the inputs up front ([`Error::DegenerateData`] on fewer than
/// 4 rows or non-finite values), then runs the chosen method. The
/// per-network engine already retries reseeded weights internally; if the
/// *method* still produces a non-finite model, the whole method is rerun
/// with a reseeded driver (telemetry point `train/retry`), and after the
/// retry budget the failure surfaces as [`Error::Diverged`].
pub fn try_train_nn(method: NnMethod, x: &Matrix, y01: &[f64], seed: u64) -> Result<Mlp> {
    if x.rows() < 4 {
        return Err(Error::degenerate(format!(
            "need at least 4 rows to train a network, got {}",
            x.rows()
        )));
    }
    if x.rows() != y01.len() {
        return Err(Error::degenerate(format!(
            "design/target mismatch: {} rows vs {} targets",
            x.rows(),
            y01.len()
        )));
    }
    for i in 0..x.rows() {
        if x.row(i).iter().any(|v| !v.is_finite()) {
            return Err(Error::degenerate(format!(
                "design row {i} contains a non-finite value"
            )));
        }
    }
    if let Some(i) = y01.iter().position(|v| !v.is_finite()) {
        return Err(Error::degenerate(format!("target {i} is non-finite")));
    }

    const METHOD_RETRIES: u64 = 2;
    let mut last_err: Option<Error> = None;
    for attempt in 0..=METHOD_RETRIES {
        // Attempt 0 uses the caller's seed verbatim so the no-fault path
        // reproduces historical results bit-for-bit.
        let mseed = if attempt == 0 {
            seed
        } else {
            child_seed(seed, 0x7E00 + attempt)
        };
        match train_nn_inner(method, x, y01, mseed) {
            Ok(net) => {
                let rmse = net.rmse(x, y01);
                if rmse.is_finite() {
                    return Ok(net);
                }
                last_err = Some(Error::Diverged {
                    epoch: 0,
                    loss: rmse,
                });
                telemetry::point!(
                    "train/retry",
                    method = method.abbrev(),
                    attempt = attempt + 1,
                    loss = rmse
                );
            }
            // Candidate-set exhaustion is retryable exactly like
            // divergence: a reseeded driver may well find viable
            // candidates. Anything else (degenerate data) is final.
            Err(e @ (Error::NoViableModel { .. } | Error::Diverged { .. })) => {
                telemetry::point!(
                    "train/retry",
                    method = method.abbrev(),
                    attempt = attempt + 1,
                    loss = f64::NAN
                );
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or(Error::Diverged {
        epoch: 0,
        loss: f64::NAN,
    }))
}

fn train_nn_inner(method: NnMethod, x: &Matrix, y01: &[f64], seed: u64) -> Result<Mlp> {
    let _span = telemetry::span!("train_nn", method = method.abbrev());
    let n = x.rows();
    let p = x.cols();
    let (ti, vi) = split_half(n, child_seed(seed, 0x51));
    let xt = rows_of(x, &ti);
    let yt = targets_of(y01, &ti);
    let xv = rows_of(x, &vi);
    let yv = targets_of(y01, &vi);

    match method {
        NnMethod::Single => {
            // Small single hidden layer, constant learning rate.
            let hidden = (p / 3).clamp(2, 8);
            let cfg = TrainConfig {
                algo: TrainAlgo::Sgd,
                learning_rate: 0.03,
                lr_decay: 1.0,
                epochs: 400,
                seed,
                ..Default::default()
            };
            let mut net = Mlp::new(p, &[hidden], seed);
            train_keeping_divergence(&mut net, x, y01, &cfg)?;
            Ok(net)
        }
        NnMethod::Quick => {
            let hidden = p.div_ceil(2).clamp(3, 20);
            let cfg = TrainConfig {
                epochs: 400,
                seed,
                ..Default::default()
            };
            let mut net = Mlp::new(p, &[hidden], seed);
            train_keeping_divergence(&mut net, x, y01, &cfg)?;
            Ok(net)
        }
        NnMethod::Dynamic => {
            // Grow the hidden layer while validation improves.
            let cfg = TrainConfig {
                epochs: 300,
                seed,
                ..Default::default()
            };
            let cap = (2 * p).clamp(4, 24);
            let mut best: Option<(Mlp, f64, u64)> = None;
            let mut reasons: Vec<(String, String)> = Vec::new();
            let mut h = 2;
            while h <= cap {
                let mut c = cfg;
                c.seed = child_seed(seed, h as u64);
                let (net, val) = fit_candidate(&[h], &xt, &yt, &xv, &yv, &c)?;
                let improved = best.as_ref().is_none_or(|(_, bv, _)| val < bv * 0.98);
                telemetry::point!(
                    "grow/hidden",
                    hidden = h,
                    val_rmse = val,
                    improved = improved
                );
                let done = !improved;
                // A diverged candidate must never become the prototype: it
                // would be finalized into a useless network. Record it and
                // keep growing.
                if val.is_finite() {
                    if best.as_ref().is_none_or(|(_, bv, _)| val < *bv) {
                        best = Some((net, val, c.seed));
                    }
                } else {
                    reasons.push((format!("hidden={h}"), format!("validation RMSE {val}")));
                }
                if done {
                    break;
                }
                h += 2;
            }
            let (proto, _, cseed) = best.ok_or(Error::NoViableModel { reasons })?;
            // Retrain under the *winning candidate's* seed: the topology
            // was selected for how it trained under that seed, so the
            // final fit must descend from it, not from the base seed.
            finalize(
                &proto,
                x,
                y01,
                &TrainConfig {
                    epochs: 400,
                    seed: cseed,
                    ..Default::default()
                },
            )
        }
        NnMethod::Multiple => {
            // Parallel multi-start across topologies.
            let mut topologies: Vec<Vec<usize>> =
                vec![vec![2], vec![4], vec![8], vec![12], vec![16]];
            topologies.push(vec![p.clamp(2, 24)]);
            topologies.push(vec![8, 4]);
            let cfg = TrainConfig {
                epochs: 350,
                seed,
                ..Default::default()
            };
            let cands: Vec<Result<(Mlp, f64, u64)>> =
                telemetry::par_map(topologies.len(), telemetry::default_workers(), |k| {
                    let h = &topologies[k];
                    let mut c = cfg;
                    c.seed = child_seed(seed, k as u64);
                    let (net, val) = fit_candidate(h, &xt, &yt, &xv, &yv, &c)?;
                    Ok((net, val, c.seed))
                });
            let mut best: Option<(Mlp, f64, u64)> = None;
            let mut reasons: Vec<(String, String)> = Vec::new();
            for (k, cand) in cands.into_iter().enumerate() {
                let (net, val, cseed) = cand?;
                if val.is_finite() {
                    if best.as_ref().is_none_or(|(_, bv, _)| val < *bv) {
                        best = Some((net, val, cseed));
                    }
                } else {
                    reasons.push((
                        format!("topology {:?}", topologies[k]),
                        format!("validation RMSE {val}"),
                    ));
                }
            }
            let (proto, _, cseed) = best.ok_or(Error::NoViableModel { reasons })?;
            finalize(
                &proto,
                x,
                y01,
                &TrainConfig {
                    epochs: 400,
                    seed: cseed,
                    ..Default::default()
                },
            )
        }
        NnMethod::Prune => prune_driver(x, y01, &xt, &yt, &xv, &yv, seed, false),
        NnMethod::ExhaustivePrune => prune_driver(x, y01, &xt, &yt, &xv, &yv, seed, true),
    }
}

/// Shared prune/exhaustive-prune driver.
#[allow(clippy::too_many_arguments)]
fn prune_driver(
    x: &Matrix,
    y01: &[f64],
    xt: &Matrix,
    yt: &[f64],
    xv: &Matrix,
    yv: &[f64],
    seed: u64,
    exhaustive: bool,
) -> Result<Mlp> {
    let p = x.cols();
    let (start_h, epochs, retrain_epochs, restarts, tolerance) = if exhaustive {
        ((3 * p / 2).clamp(8, 32), 500, 150, 3, 1.005)
    } else {
        (p.clamp(6, 24), 350, 80, 1, 1.01)
    };

    let attempts: Vec<Result<(u64, Option<Mlp>)>> =
        telemetry::par_map(restarts, telemetry::default_workers(), |r| {
            let rseed = restart_seed(seed, r as u64);
            let cfg = TrainConfig {
                epochs,
                seed: rseed,
                ..Default::default()
            };
            // Exhaustive mode earns its name: several dense starting
            // topologies compete before pruning begins.
            let starts: Vec<usize> = if exhaustive {
                vec![start_h, (start_h / 2).max(4), (2 * start_h).min(40)]
            } else {
                vec![start_h]
            };
            // Only starts that reached a finite validation RMSE may seed
            // the pruning loop; a restart where every start diverged
            // yields no candidate instead of a poisoned one.
            let mut seeded: Option<(Mlp, f64)> = None;
            for &h in &starts {
                let mut c = cfg;
                c.seed = child_seed(rseed, h as u64);
                let (net, val) = fit_candidate(&[h], xt, yt, xv, yv, &c)?;
                if val.is_finite() && seeded.as_ref().is_none_or(|(_, bv)| val < *bv) {
                    seeded = Some((net, val));
                }
            }
            let Some((mut net, mut best_val)) = seeded else {
                return Ok((rseed, None));
            };
            let retrain_cfg = TrainConfig {
                epochs: retrain_epochs,
                seed: child_seed(rseed, 1),
                ..Default::default()
            };

            // Greedy structural pruning: hidden units first, then inputs.
            loop {
                let mut accepted = false;
                // Candidate hidden units, weakest first.
                if net.hidden_sizes()[0] > 2 {
                    let h = net.hidden_sizes()[0];
                    let mut units: Vec<(usize, f64)> = (0..h)
                        .map(|u| (u, net.hidden_unit_magnitude(0, u)))
                        .collect();
                    units.sort_by(|a, b| a.1.total_cmp(&b.1));
                    let lookahead = if exhaustive { 3.min(units.len()) } else { 1 };
                    let mut best_trial: Option<(Mlp, f64)> = None;
                    for &(u, _) in units.iter().take(lookahead) {
                        let mut trial = net.clone();
                        trial.prune_hidden_unit(0, u);
                        train_keeping_divergence(&mut trial, xt, yt, &retrain_cfg)?;
                        let val = trial.rmse(xv, yv);
                        if best_trial.as_ref().is_none_or(|(_, bv)| val < *bv) {
                            best_trial = Some((trial, val));
                        }
                    }
                    if let Some((trial, val)) = best_trial {
                        if val <= best_val * tolerance {
                            telemetry::point!("prune/hidden", decision = "accept", val_rmse = val,);
                            telemetry::counter_add("prune/accepted", 1);
                            net = trial;
                            best_val = best_val.min(val);
                            accepted = true;
                        } else {
                            telemetry::point!("prune/hidden", decision = "reject", val_rmse = val,);
                            telemetry::counter_add("prune/rejected", 1);
                        }
                    }
                }
                // Candidate input, weakest live one.
                if net.live_inputs() > 2 {
                    let weakest = (0..p)
                        .filter(|&i| !net.input_is_dead(i))
                        .min_by(|&a, &b| net.input_magnitude(a).total_cmp(&net.input_magnitude(b)))
                        .expect("live inputs remain");
                    let mut trial = net.clone();
                    trial.prune_input(weakest);
                    train_keeping_divergence(&mut trial, xt, yt, &retrain_cfg)?;
                    let val = trial.rmse(xv, yv);
                    if val <= best_val * tolerance {
                        telemetry::point!(
                            "prune/input",
                            decision = "accept",
                            input = weakest,
                            val_rmse = val,
                        );
                        telemetry::counter_add("prune/accepted", 1);
                        net = trial;
                        best_val = best_val.min(val);
                        accepted = true;
                    } else {
                        telemetry::point!(
                            "prune/input",
                            decision = "reject",
                            input = weakest,
                            val_rmse = val,
                        );
                        telemetry::counter_add("prune/rejected", 1);
                    }
                }
                if !accepted {
                    break;
                }
            }
            Ok((rseed, Some(net)))
        });

    // Keep the restart with the best validation error, then retrain on all
    // rows under that restart's seed — the pruned topology was shaped by
    // that seed's trajectory, so the final fit descends from it.
    let mut best: Option<(Mlp, f64, u64)> = None;
    let mut reasons: Vec<(String, String)> = Vec::new();
    for (r, attempt) in attempts.into_iter().enumerate() {
        let (rseed, attempt) = attempt?;
        match attempt {
            Some(net) => {
                let val = net.rmse(xv, yv);
                if val.is_finite() {
                    if best.as_ref().is_none_or(|(_, bv, _)| val < *bv) {
                        best = Some((net, val, rseed));
                    }
                } else {
                    reasons.push((format!("restart {r}"), format!("validation RMSE {val}")));
                }
            }
            None => reasons.push((
                format!("restart {r}"),
                "every starting topology diverged".into(),
            )),
        }
    }
    let (proto, _, rseed) = best.ok_or(Error::NoViableModel { reasons })?;
    let final_epochs = if exhaustive { 600 } else { 400 };
    finalize(
        &proto,
        x,
        y01,
        &TrainConfig {
            epochs: final_epochs,
            seed: rseed,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nonlinear data with an irrelevant input.
    fn data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..160)
            .map(|i| {
                let a = (i % 41) as f64 / 41.0;
                let b = ((i * 7) % 29) as f64 / 29.0;
                let c = ((i * 13) % 17) as f64 / 17.0; // irrelevant
                vec![a, b, c]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| 0.4 + 0.3 * (3.0 * r[0]).sin() * r[1] + 0.15 * r[1])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn all_methods_train_and_predict() {
        let (x, y) = data();
        for m in [
            NnMethod::Quick,
            NnMethod::Dynamic,
            NnMethod::Multiple,
            NnMethod::Prune,
            NnMethod::ExhaustivePrune,
            NnMethod::Single,
        ] {
            let net = try_train_nn(m, &x, &y, 42).expect("train_nn");
            let rmse = net.rmse(&x, &y);
            assert!(rmse < 0.12, "{}: rmse {rmse}", m.abbrev());
        }
    }

    #[test]
    fn methods_are_deterministic() {
        let (x, y) = data();
        let a = try_train_nn(NnMethod::Multiple, &x, &y, 7).expect("train_nn");
        let b = try_train_nn(NnMethod::Multiple, &x, &y, 7).expect("train_nn");
        assert_eq!(a.forward(x.row(0)), b.forward(x.row(0)));
    }

    #[test]
    fn exhaustive_prune_beats_or_matches_single_on_nonlinear_data() {
        let (x, y) = data();
        let e = try_train_nn(NnMethod::ExhaustivePrune, &x, &y, 11).expect("train_nn");
        let s = try_train_nn(NnMethod::Single, &x, &y, 11).expect("train_nn");
        let re = e.rmse(&x, &y);
        let rs = s.rmse(&x, &y);
        // NN-E prunes capacity to generalize, so its *training* RMSE may
        // trail a dense SGD fit on noiseless data; both must stay small.
        assert!(
            re <= rs * 2.5 && re < 0.05,
            "NN-E ({re}) should be competitive with NN-S ({rs})"
        );
    }

    #[test]
    fn dynamic_grows_past_minimum() {
        let (x, y) = data();
        let net = try_train_nn(NnMethod::Dynamic, &x, &y, 13).expect("train_nn");
        assert!(net.hidden_sizes()[0] >= 2);
    }

    #[test]
    fn prune_may_silence_irrelevant_input() {
        let (x, y) = data();
        let net = try_train_nn(NnMethod::ExhaustivePrune, &x, &y, 17).expect("train_nn");
        // Not guaranteed, but the network must keep at least the two real
        // inputs live.
        assert!(net.live_inputs() >= 2);
    }

    #[test]
    fn finalize_descends_from_winning_candidate_seed() {
        let (x, y) = data();
        let seed = 23;
        let trained = try_train_nn(NnMethod::Multiple, &x, &y, seed).expect("train_nn");
        // Replay the NN-M driver by hand to recover the winning candidate
        // and its child seed; the shipped model must be the finalize of
        // that (topology, seed) pair, not a base-seed finalize.
        let (ti, vi) = split_half(x.rows(), child_seed(seed, 0x51));
        let xt = rows_of(&x, &ti);
        let yt = targets_of(&y, &ti);
        let xv = rows_of(&x, &vi);
        let yv = targets_of(&y, &vi);
        let p = x.cols();
        let mut topologies: Vec<Vec<usize>> = vec![vec![2], vec![4], vec![8], vec![12], vec![16]];
        topologies.push(vec![p.clamp(2, 24)]);
        topologies.push(vec![8, 4]);
        let cfg = TrainConfig {
            epochs: 350,
            seed,
            ..Default::default()
        };
        let mut best: Option<(Mlp, f64, u64)> = None;
        for (k, h) in topologies.iter().enumerate() {
            let mut c = cfg;
            c.seed = child_seed(seed, k as u64);
            let (net, val) = fit_candidate(h, &xt, &yt, &xv, &yv, &c).expect("candidate");
            if val.is_finite() && best.as_ref().is_none_or(|(_, bv, _)| val < *bv) {
                best = Some((net, val, c.seed));
            }
        }
        let (proto, _, cseed) = best.expect("clean data must yield a finite candidate");
        assert_ne!(cseed, seed, "the winner trains under a child seed");
        let fcfg = |s| TrainConfig {
            epochs: 400,
            seed: s,
            ..Default::default()
        };
        let expected = finalize(&proto, &x, &y, &fcfg(cseed)).expect("finalize");
        let wrong = finalize(&proto, &x, &y, &fcfg(seed)).expect("finalize");
        let probe = x.row(0);
        assert_eq!(trained.forward(probe), expected.forward(probe));
        assert_ne!(
            expected.forward(probe),
            wrong.forward(probe),
            "regression: finalize ran under the base seed, not the winner's"
        );
    }

    /// A network whose training diverges through every retry keeps the
    /// loss `Error::Diverged` reports instead of aborting the driver, and
    /// that loss — or a NaN of either sign — loses `finalize`'s restart
    /// pick to a converged network.
    #[test]
    fn diverged_training_keeps_its_loss_and_loses_the_restart_pick() {
        let (x, y) = data();
        let divergent = TrainConfig {
            algo: TrainAlgo::Sgd,
            learning_rate: 1e12,
            momentum: 0.99,
            epochs: 20,
            lr_decay: 1.0,
            weight_decay: 0.0,
            seed: 1,
        };
        let reported = match Mlp::new(x.cols(), &[4], 1).try_train(&x, &y, &divergent) {
            Err(Error::Diverged { loss, .. }) => loss,
            other => panic!("a 1e12 learning rate must diverge, got {other:?}"),
        };
        let mut diverged = Mlp::new(x.cols(), &[4], 1);
        let bad = train_keeping_divergence(&mut diverged, &x, &y, &divergent)
            .expect("divergence is a loss, not an error");
        assert_eq!(bad.to_bits(), reported.to_bits());
        let mut converged = Mlp::new(x.cols(), &[4], 1);
        let good = train_keeping_divergence(&mut converged, &x, &y, &TrainConfig::default())
            .expect("clean data trains");
        assert!(good.is_finite(), "loss {good}");
        let probe = x.row(0);
        let want = converged.forward(probe).to_bits();
        for loss in [bad, f64::NAN, -f64::NAN, f64::INFINITY] {
            for restarts in [
                vec![(diverged.clone(), loss), (converged.clone(), good)],
                vec![(converged.clone(), good), (diverged.clone(), loss)],
            ] {
                let picked = best_restart(restarts).forward(probe).to_bits();
                assert_eq!(picked, want, "diverged loss {loss}");
            }
        }
    }

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(NnMethod::ExhaustivePrune.abbrev(), "NN-E");
        assert_eq!(NnMethod::Single.abbrev(), "NN-S");
        assert_eq!(NnMethod::Quick.abbrev(), "NN-Q");
    }
}
