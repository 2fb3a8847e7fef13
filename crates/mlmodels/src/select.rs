//! Predictor-selection strategies for linear regression.
//!
//! Clementine's regression node offers four methods (§3.1): **Enter**
//! (LR-E, all predictors), **Stepwise** (LR-S), **Forwards** (LR-F), and
//! **Backwards** (LR-B). Forward adds the most significant candidate while
//! its partial-F p-value clears the entry threshold; Backward starts full
//! and removes the least significant predictor while its p-value exceeds
//! the removal threshold; Stepwise alternates (after every addition it
//! reconsiders removals). Thresholds follow the SPSS defaults:
//! p-to-enter 0.05, p-to-remove 0.10.
//!
//! Candidate scoring is incremental: the drivers build the augmented
//! Gram matrix once ([`linalg::gram::NormalEq`]) and score each add/drop
//! with a rank-one Cholesky update/downdate
//! ([`linalg::gram::ActiveCholesky`]) in O(k²) instead of refitting from
//! the n-row design (O(n·k²)). Ambiguous pivots (near-collinear
//! candidates) and near-exact fits defer to the from-scratch oracle so
//! the selected active sets are identical to the pre-incremental
//! implementation, which survives in [`reference`] as the equivalence
//! oracle for tests and benchmarks.

use crate::linreg::LinearFit;
use fault::{Error, Result};
use linalg::gram::{ActiveCholesky, AddScore, NormalEq};
use linalg::special::f_sf;
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionMethod {
    /// All predictors (LR-E).
    Enter,
    /// Forward addition (LR-F).
    Forward,
    /// Backward elimination (LR-B).
    Backward,
    /// Stepwise: forward with reconsideration (LR-S).
    Stepwise,
}

/// Significance thresholds for the partial-F tests.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Thresholds {
    /// p-value required to enter a predictor (SPSS default 0.05).
    pub p_enter: f64,
    /// p-value above which a predictor is removed (SPSS default 0.10).
    pub p_remove: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            p_enter: 0.05,
            p_remove: 0.10,
        }
    }
}

/// Relative RSS floor below which the Gram-derived residual is dominated
/// by cancellation (`rss = yᵀy − ‖z‖²` with both terms nearly equal);
/// such candidates are re-scored by the from-scratch oracle, whose
/// explicit residual pass is exact.
const RSS_TRUST_REL: f64 = 1e-9;

/// p-value of the partial-F test between nested models differing by one
/// predictor, computed from sufficient statistics. Mirrors
/// `LinearFit::partial_f_vs` + `df_residual` exactly: `k_big` is the
/// larger model's active-set size, `q = 1`.
fn partial_p(n: usize, k_big: usize, rss_big: f64, rss_small: f64) -> f64 {
    let df = (n - k_big - 1).max(1) as f64;
    let denom = (rss_big / df).max(1e-30);
    let f = ((rss_small - rss_big) / denom).max(0.0);
    f_sf(f, 1.0, df)
}

/// p-value for adding/removing exactly one predictor between nested fits.
fn step_p_value(big: &LinearFit, small: &LinearFit) -> f64 {
    let f = big.partial_f_vs(small);
    f_sf(f, 1.0, big.df_residual())
}

/// Run the selection strategy and return the final fit. Degrades
/// gracefully on collinear predictors:
///
/// * **Forward/Stepwise** skip a candidate column whose trial fit is
///   singular (telemetry point `select/skip_candidate`), considering the
///   remaining candidates instead.
/// * **Backward** starts from a ridge-stabilized full fit when the strict
///   one is singular, and skips removal candidates whose reduced fit
///   fails.
/// * **Enter** uses the ridge fallback directly, matching the method's
///   all-predictors-regardless semantics.
///
/// Errors surface only when no fit at all is possible (non-finite data,
/// too few rows, or every candidate singular beyond ridge repair).
pub fn try_select(
    x: &Matrix,
    y: &[f64],
    method: SelectionMethod,
    thresholds: Thresholds,
) -> Result<LinearFit> {
    try_select_with(x, y, None, method, thresholds)
}

/// [`try_select`] with an optional precomputed [`NormalEq`] for `x`/`y`.
///
/// Cross-validation reuses one full-table Gram across folds (deriving
/// each fold's statistics by row subtraction and rescaling) instead of
/// re-accumulating it per fold; the statistics must describe exactly the
/// rows of `x`/`y`.
pub(crate) fn try_select_with(
    x: &Matrix,
    y: &[f64],
    ne: Option<&NormalEq>,
    method: SelectionMethod,
    thresholds: Thresholds,
) -> Result<LinearFit> {
    let p = x.cols();
    // Guard against under-determined fits: never use more predictors than
    // observations allow.
    let max_active = x.rows().saturating_sub(2).min(p);
    if method == SelectionMethod::Enter {
        // One fit, no candidate loop: the Gram engine buys nothing.
        let active: Vec<usize> = (0..p).take(max_active).collect();
        return LinearFit::try_fit_ridge(x, y, &active);
    }
    let owned;
    let ne = match ne {
        Some(shared) => shared,
        None => {
            owned = NormalEq::try_from_design(x, y)?;
            &owned
        }
    };
    let active = match method {
        SelectionMethod::Enter => unreachable!("handled above"),
        SelectionMethod::Forward => forward(x, y, ne, thresholds, max_active, false)?,
        SelectionMethod::Stepwise => forward(x, y, ne, thresholds, max_active, true)?,
        SelectionMethod::Backward => backward(x, y, ne, thresholds, max_active)?,
    };
    // The returned model is always a from-scratch fit of the chosen active
    // set: coefficients, diagnostics, and RSS come from the explicit
    // residual pass, never from the (cancellation-prone) Gram identity.
    match LinearFit::try_fit(x, y, &active) {
        Ok(fit) => Ok(fit),
        // Only reachable when backward's ridge start could not trim the
        // design to full rank; match its all-else-failed semantics.
        Err(Error::SingularSystem { .. }) => LinearFit::try_fit_ridge(x, y, &active),
        Err(other) => Err(other),
    }
}

/// Trial-fit a candidate active set, mapping a singular design to `None`
/// (the driver skips the candidate) and propagating every other error.
fn trial_fit(x: &Matrix, y: &[f64], active: &[usize]) -> Result<Option<LinearFit>> {
    match LinearFit::try_fit(x, y, active) {
        Ok(fit) => Ok(Some(fit)),
        Err(Error::SingularSystem { .. }) => {
            telemetry::point!("select/skip_candidate", active = active.len());
            Ok(None)
        }
        Err(other) => Err(other),
    }
}

/// True when a Gram-derived RSS is large enough (relative to `yᵀy`) to be
/// trusted; near-exact fits fall back to the oracle's residual pass.
fn trusted(rss: f64, ne: &NormalEq) -> bool {
    rss > RSS_TRUST_REL * ne.yty().max(f64::MIN_POSITIVE)
}

/// Factor the given active set from scratch against the Gram. `None`
/// when any pivot fails (collinear set) — callers stay on the oracle.
fn build_engine<'a>(ne: &'a NormalEq, active: &[usize]) -> Option<ActiveCholesky<'a>> {
    let mut eng = ActiveCholesky::new(ne).ok()?;
    for &j in active {
        eng.push(j).ok()?;
    }
    Some(eng)
}

/// RSS of `active + cand`, via the engine when its pivot and residual are
/// trustworthy, else via the from-scratch oracle. `None` skips the
/// candidate (singular either way).
fn add_rss(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    eng: Option<&ActiveCholesky<'_>>,
    active: &[usize],
    cand: usize,
) -> Result<Option<f64>> {
    if let Some(e) = eng {
        if let AddScore::Ok { rss, .. } = e.score_add(cand) {
            if trusted(rss, ne) {
                telemetry::counter_add("select/cand_fast", 1);
                return Ok(Some(rss));
            }
        }
    }
    telemetry::counter_add("select/cand_oracle", 1);
    let mut trial = active.to_vec();
    trial.push(cand);
    Ok(trial_fit(x, y, &trial)?.map(|f| f.rss))
}

/// RSS of `active` minus the predictor at `pos`, engine-first like
/// [`add_rss`].
fn drop_rss(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    eng: Option<&ActiveCholesky<'_>>,
    active: &[usize],
    pos: usize,
) -> Result<Option<f64>> {
    if let Some(e) = eng {
        if let Some(rss) = e.score_drop(pos) {
            if trusted(rss, ne) {
                telemetry::counter_add("select/cand_fast", 1);
                return Ok(Some(rss));
            }
        }
    }
    telemetry::counter_add("select/cand_oracle", 1);
    let mut reduced = active.to_vec();
    reduced.remove(pos);
    Ok(trial_fit(x, y, &reduced)?.map(|f| f.rss))
}

/// RSS of the current active set for the next round of p-values: engine
/// value when trustworthy, else an explicit residual pass.
fn current_rss(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    eng: Option<&ActiveCholesky<'_>>,
    active: &[usize],
) -> Result<f64> {
    if let Some(e) = eng {
        let rss = e.rss();
        if trusted(rss, ne) {
            return Ok(rss);
        }
    }
    // Strict refit; fall back to ridge on the collinear sets only the
    // backward ridge start can produce.
    match LinearFit::try_fit(x, y, active) {
        Ok(fit) => Ok(fit.rss),
        Err(Error::SingularSystem { .. }) => Ok(LinearFit::try_fit_ridge(x, y, active)?.rss),
        Err(other) => Err(other),
    }
}

/// One sweep over removal candidates: `(position, p-value)` of the least
/// significant predictor, or `None` when every reduced fit is singular.
fn worst_removal(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    eng: Option<&ActiveCholesky<'_>>,
    active: &[usize],
    rss_current: f64,
) -> Result<Option<(usize, f64)>> {
    let n = x.rows();
    let mut worst: Option<(usize, f64)> = None;
    for pos in 0..active.len() {
        let Some(rss_small) = drop_rss(x, y, ne, eng, active, pos)? else {
            continue;
        };
        let pv = partial_p(n, active.len(), rss_current, rss_small);
        if worst.is_none_or(|(_, wpv)| pv > wpv) {
            worst = Some((pos, pv));
        }
    }
    Ok(worst)
}

/// Forward selection; with `reconsider` it becomes stepwise (after each
/// addition, removals are re-evaluated). Returns the chosen active set.
fn forward(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    th: Thresholds,
    max_active: usize,
    reconsider: bool,
) -> Result<Vec<usize>> {
    let (n, p) = (x.rows(), x.cols());
    let mut active: Vec<usize> = Vec::new();
    // The intercept-only fit cannot be singular; failure here means the
    // data itself is unusable, which must propagate.
    let mut rss_cur = LinearFit::try_fit(x, y, &active)?.rss;
    let mut eng = ActiveCholesky::new(ne).ok();
    loop {
        if active.len() >= max_active {
            break;
        }
        // Best candidate to add; singular candidates are skipped.
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..p {
            if active.contains(&cand) {
                continue;
            }
            let Some(rss_big) = add_rss(x, y, ne, eng.as_ref(), &active, cand)? else {
                continue;
            };
            let pv = partial_p(n, active.len() + 1, rss_big, rss_cur);
            if best.is_none_or(|(_, bpv)| pv < bpv) {
                best = Some((cand, pv));
            }
        }
        match best {
            Some((cand, pv)) if pv < th.p_enter => {
                active.push(cand);
                if let Some(e) = eng.as_mut() {
                    if e.push(cand).is_err() {
                        eng = None;
                    }
                }
                rss_cur = current_rss(x, y, ne, eng.as_ref(), &active)?;
            }
            _ => break,
        }

        if reconsider {
            // Stepwise: drop any predictor whose removal p-value exceeds
            // the removal threshold (most insignificant first).
            while active.len() > 1 {
                match worst_removal(x, y, ne, eng.as_ref(), &active, rss_cur)? {
                    Some((pos, pv)) if pv > th.p_remove => {
                        active.remove(pos);
                        if let Some(e) = eng.as_mut() {
                            if e.remove(pos).is_err() {
                                eng = None;
                            }
                        }
                        rss_cur = current_rss(x, y, ne, eng.as_ref(), &active)?;
                    }
                    _ => break,
                }
            }
        }
    }
    Ok(active)
}

/// Backward elimination. Returns the chosen active set.
fn backward(
    x: &Matrix,
    y: &[f64],
    ne: &NormalEq,
    th: Thresholds,
    max_active: usize,
) -> Result<Vec<usize>> {
    let mut active: Vec<usize> = (0..x.cols()).take(max_active).collect();
    // The full starting model may legitimately be collinear; begin from a
    // ridge-stabilized fit in that case and let elimination trim it.
    let mut rss_cur = match LinearFit::try_fit(x, y, &active) {
        Ok(fit) => fit.rss,
        Err(Error::SingularSystem { .. }) => {
            telemetry::point!("select/backward_ridge_start", active = active.len());
            LinearFit::try_fit_ridge(x, y, &active)?.rss
        }
        Err(other) => return Err(other),
    };
    let mut eng = build_engine(ne, &active);
    while active.len() > 1 {
        match worst_removal(x, y, ne, eng.as_ref(), &active, rss_cur)? {
            Some((pos, pv)) if pv > th.p_remove => {
                active.remove(pos);
                if let Some(e) = eng.as_mut() {
                    if e.remove(pos).is_err() {
                        eng = None;
                    }
                }
                if eng.is_none() {
                    // A ridge start (or failed downdate) forced the oracle
                    // path; elimination may since have restored full rank,
                    // making the O(k²) scorer viable again.
                    eng = build_engine(ne, &active);
                }
                rss_cur = current_rss(x, y, ne, eng.as_ref(), &active)?;
            }
            _ => break,
        }
    }
    Ok(active)
}

/// The pre-incremental from-scratch drivers, verbatim: every candidate is
/// scored by refitting from the design matrix. Retained as the
/// equivalence oracle — proptests and the selection benchmark compare
/// [`try_select`] against this module — and exercised nowhere on the hot
/// path.
pub mod reference {
    use super::*;

    /// From-scratch selection with semantics identical to
    /// [`super::try_select`].
    pub fn try_select(
        x: &Matrix,
        y: &[f64],
        method: SelectionMethod,
        thresholds: Thresholds,
    ) -> Result<LinearFit> {
        let p = x.cols();
        let max_active = x.rows().saturating_sub(2).min(p);
        let all: Vec<usize> = (0..p).collect();
        match method {
            SelectionMethod::Enter => {
                let active: Vec<usize> = all.into_iter().take(max_active).collect();
                LinearFit::try_fit_ridge(x, y, &active)
            }
            SelectionMethod::Forward => forward(x, y, thresholds, max_active, false),
            SelectionMethod::Stepwise => forward(x, y, thresholds, max_active, true),
            SelectionMethod::Backward => backward(x, y, thresholds, max_active),
        }
    }

    fn forward(
        x: &Matrix,
        y: &[f64],
        th: Thresholds,
        max_active: usize,
        reconsider: bool,
    ) -> Result<LinearFit> {
        let p = x.cols();
        let mut active: Vec<usize> = Vec::new();
        let mut current = LinearFit::try_fit(x, y, &active)?;
        loop {
            if active.len() >= max_active {
                break;
            }
            let mut best: Option<(usize, f64, LinearFit)> = None;
            for cand in 0..p {
                if active.contains(&cand) {
                    continue;
                }
                let mut trial_active = active.clone();
                trial_active.push(cand);
                let Some(trial) = trial_fit(x, y, &trial_active)? else {
                    continue;
                };
                let pv = step_p_value(&trial, &current);
                if best.as_ref().is_none_or(|(_, bpv, _)| pv < *bpv) {
                    best = Some((cand, pv, trial));
                }
            }
            match best {
                Some((cand, pv, trial)) if pv < th.p_enter => {
                    active.push(cand);
                    current = trial;
                }
                _ => break,
            }

            if reconsider {
                loop {
                    if active.len() <= 1 {
                        break;
                    }
                    let mut worst: Option<(usize, f64, LinearFit)> = None;
                    for (pos, _) in active.iter().enumerate() {
                        let mut reduced = active.clone();
                        reduced.remove(pos);
                        let Some(small) = trial_fit(x, y, &reduced)? else {
                            continue;
                        };
                        let pv = step_p_value(&current, &small);
                        if worst.as_ref().is_none_or(|(_, wpv, _)| pv > *wpv) {
                            worst = Some((pos, pv, small));
                        }
                    }
                    match worst {
                        Some((pos, pv, small)) if pv > th.p_remove => {
                            active.remove(pos);
                            current = small;
                        }
                        _ => break,
                    }
                }
            }
        }
        Ok(current)
    }

    fn backward(x: &Matrix, y: &[f64], th: Thresholds, max_active: usize) -> Result<LinearFit> {
        let mut active: Vec<usize> = (0..x.cols()).take(max_active).collect();
        let mut current = match LinearFit::try_fit(x, y, &active) {
            Ok(fit) => fit,
            Err(Error::SingularSystem { .. }) => {
                telemetry::point!("select/backward_ridge_start", active = active.len());
                LinearFit::try_fit_ridge(x, y, &active)?
            }
            Err(other) => return Err(other),
        };
        while active.len() > 1 {
            let mut worst: Option<(usize, f64, LinearFit)> = None;
            for (pos, _) in active.iter().enumerate() {
                let mut reduced = active.clone();
                reduced.remove(pos);
                let Some(small) = trial_fit(x, y, &reduced)? else {
                    continue;
                };
                let pv = step_p_value(&current, &small);
                if worst.as_ref().is_none_or(|(_, wpv, _)| pv > *wpv) {
                    worst = Some((pos, pv, small));
                }
            }
            match worst {
                Some((pos, pv, small)) if pv > th.p_remove => {
                    active.remove(pos);
                    current = small;
                }
                _ => break,
            }
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 real predictors + 4 noise predictors; y = 5 + 3 x0 - 2 x1 + ε.
    fn data() -> (Matrix, Vec<f64>) {
        let mut rng_state = 12345u64;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let rows: Vec<Vec<f64>> = (0..80).map(|_| (0..6).map(|_| next()).collect()).collect();
        let y = rows
            .iter()
            .map(|r| 5.0 + 3.0 * r[0] - 2.0 * r[1] + 0.05 * next())
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn enter_uses_all_predictors() {
        let (x, y) = data();
        let fit =
            try_select(&x, &y, SelectionMethod::Enter, Thresholds::default()).expect("selects");
        assert_eq!(fit.active.len(), 6);
    }

    #[test]
    fn forward_finds_the_true_predictors() {
        let (x, y) = data();
        let fit =
            try_select(&x, &y, SelectionMethod::Forward, Thresholds::default()).expect("selects");
        assert!(fit.active.contains(&0), "active: {:?}", fit.active);
        assert!(fit.active.contains(&1), "active: {:?}", fit.active);
        assert!(
            fit.active.len() <= 4,
            "should not admit much noise: {:?}",
            fit.active
        );
    }

    #[test]
    fn backward_eliminates_noise() {
        let (x, y) = data();
        let fit =
            try_select(&x, &y, SelectionMethod::Backward, Thresholds::default()).expect("selects");
        assert!(fit.active.contains(&0));
        assert!(fit.active.contains(&1));
        assert!(fit.active.len() <= 4, "active: {:?}", fit.active);
    }

    #[test]
    fn stepwise_matches_forward_on_clean_data() {
        let (x, y) = data();
        let f =
            try_select(&x, &y, SelectionMethod::Forward, Thresholds::default()).expect("selects");
        let s =
            try_select(&x, &y, SelectionMethod::Stepwise, Thresholds::default()).expect("selects");
        // Both must find the true support; stepwise may trim extras.
        for want in [0usize, 1] {
            assert!(f.active.contains(&want));
            assert!(s.active.contains(&want));
        }
        assert!(s.active.len() <= f.active.len());
    }

    #[test]
    fn selected_models_predict_well() {
        let (x, y) = data();
        for m in [
            SelectionMethod::Enter,
            SelectionMethod::Forward,
            SelectionMethod::Backward,
            SelectionMethod::Stepwise,
        ] {
            let fit = try_select(&x, &y, m, Thresholds::default()).expect("selects");
            assert!(fit.r2() > 0.99, "{m:?}: r2 {}", fit.r2());
        }
    }

    /// Append a duplicate of column 0, making one candidate collinear.
    fn data_with_duplicate_column() -> (Matrix, Vec<f64>) {
        let (x, y) = data();
        let rows: Vec<Vec<f64>> = (0..x.rows())
            .map(|i| {
                let mut r = x.row(i).to_vec();
                r.push(r[0]);
                r
            })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn forward_skips_collinear_candidate() {
        let (x, y) = data_with_duplicate_column();
        let fit =
            try_select(&x, &y, SelectionMethod::Forward, Thresholds::default()).expect("selects");
        // The duplicate (column 6) must not join column 0 in the model.
        assert!(
            !(fit.active.contains(&0) && fit.active.contains(&6)),
            "collinear pair admitted: {:?}",
            fit.active
        );
        assert!(fit.r2() > 0.99, "r2 {}", fit.r2());
    }

    #[test]
    fn stepwise_and_backward_survive_collinear_column() {
        let (x, y) = data_with_duplicate_column();
        for m in [SelectionMethod::Stepwise, SelectionMethod::Backward] {
            let fit = try_select(&x, &y, m, Thresholds::default()).expect("selects");
            assert!(fit.r2() > 0.99, "{m:?}: r2 {}", fit.r2());
            for b in fit.coefs.iter().chain([&fit.intercept]) {
                assert!(b.is_finite(), "{m:?}: non-finite coefficient");
            }
        }
    }

    #[test]
    fn try_select_rejects_non_finite_target() {
        let (x, mut y) = data();
        y[3] = f64::NAN;
        for m in [
            SelectionMethod::Enter,
            SelectionMethod::Forward,
            SelectionMethod::Backward,
            SelectionMethod::Stepwise,
        ] {
            match try_select(&x, &y, m, Thresholds::default()) {
                Err(fault::Error::DegenerateData { .. }) => {}
                other => panic!("{m:?}: expected DegenerateData, got {other:?}"),
            }
        }
    }

    #[test]
    fn more_predictors_than_rows_is_guarded() {
        // 4 rows, 6 predictors: Enter must cap the active set.
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..6).map(|j| ((i * 7 + j * 3) % 5) as f64).collect())
            .collect();
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let x = Matrix::from_rows(&rows);
        let fit =
            try_select(&x, &y, SelectionMethod::Enter, Thresholds::default()).expect("selects");
        assert!(fit.active.len() <= 2);
    }

    /// The acceptance contract of the incremental engine: active sets
    /// identical to the from-scratch reference, coefficients to 1e-10.
    #[test]
    fn incremental_matches_reference_drivers() {
        for (x, y) in [data(), data_with_duplicate_column()] {
            for m in [
                SelectionMethod::Enter,
                SelectionMethod::Forward,
                SelectionMethod::Backward,
                SelectionMethod::Stepwise,
            ] {
                let inc = try_select(&x, &y, m, Thresholds::default()).expect("incremental");
                let oracle =
                    reference::try_select(&x, &y, m, Thresholds::default()).expect("reference");
                assert_eq!(inc.active, oracle.active, "{m:?}: active sets differ");
                assert!(
                    (inc.intercept - oracle.intercept).abs()
                        <= 1e-10 * (1.0 + oracle.intercept.abs())
                );
                for (a, b) in inc.coefs.iter().zip(oracle.coefs.iter()) {
                    assert!(
                        (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                        "{m:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// When CV hands the driver a precomputed Gram, the result must match
    /// the build-it-yourself path bit for bit.
    #[test]
    fn precomputed_normal_eq_changes_nothing() {
        let (x, y) = data();
        let ne = NormalEq::try_from_design(&x, &y).expect("finite design");
        for m in [SelectionMethod::Forward, SelectionMethod::Stepwise] {
            let direct = try_select(&x, &y, m, Thresholds::default()).expect("direct");
            let shared =
                try_select_with(&x, &y, Some(&ne), m, Thresholds::default()).expect("shared");
            assert_eq!(direct.active, shared.active);
            assert_eq!(direct.coefs, shared.coefs);
        }
    }
}
