//! Property-based tests for the modelling crate.

use linalg::Matrix;
use mlmodels::linreg::LinearFit;
use mlmodels::nn::{Mlp, TrainConfig};
use mlmodels::prep::{Encoding, Preprocessor};
use mlmodels::select::{try_select, SelectionMethod, Thresholds};
use mlmodels::table::Table;
use mlmodels::{try_train, ModelKind};
use proptest::prelude::*;

/// A small random table with one numeric, one flag, one categorical
/// predictor and a linear-ish target.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(0.0f64..100.0, 12..40),
        prop::collection::vec(any::<bool>(), 12..40),
        0.1f64..5.0,
    )
        .prop_map(|(xs, flags, slope)| {
            let n = xs.len().min(flags.len());
            let xs = &xs[..n];
            let flags = &flags[..n];
            let codes: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
            let y: Vec<f64> = (0..n)
                .map(|i| 10.0 + slope * xs[i] + if flags[i] { 3.0 } else { 0.0 })
                .collect();
            let mut t = Table::new();
            t.add_numeric("x", xs.to_vec())
                .add_flag("f", flags.to_vec())
                .add_categorical("c", codes, vec!["a".into(), "b".into(), "z".into()])
                .set_target(y);
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The preprocessor maps every training row into [0,1] for every
    /// encoding, and the target scaling round-trips.
    #[test]
    fn preprocessing_bounds_and_roundtrip(t in arb_table()) {
        for enc in [Encoding::NumericCoded, Encoding::OneHot] {
            let pp = Preprocessor::try_fit(&t, enc).expect("valid table");
            let m = pp.transform(&t);
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&m[(i, j)]));
                }
            }
            for &y in t.target() {
                prop_assert!((pp.unscale_target(pp.scale_target(y)) - y).abs() < 1e-9);
            }
        }
    }

    /// Row selection commutes with preprocessing: transforming a subset
    /// equals the subset of the transform.
    #[test]
    fn transform_commutes_with_row_selection(t in arb_table()) {
        let pp = Preprocessor::try_fit(&t, Encoding::OneHot).expect("valid table");
        let full = pp.transform(&t);
        let rows: Vec<usize> = (0..t.n_rows()).step_by(2).collect();
        let sub = pp.transform(&t.select_rows(&rows));
        for (si, &fi) in rows.iter().enumerate() {
            for j in 0..full.cols() {
                prop_assert!((sub[(si, j)] - full[(fi, j)]).abs() < 1e-12);
            }
        }
    }

    /// Adding a predictor to a linear fit never increases the RSS.
    #[test]
    fn rss_monotone_in_predictors(
        data in prop::collection::vec(-5.0f64..5.0, 20 * 3),
        y in prop::collection::vec(-10.0f64..10.0, 20),
    ) {
        let x = Matrix::from_vec(20, 3, data);
        let f1 = LinearFit::try_fit_ridge(&x, &y, &[0]).expect("ridge fit");
        let f2 = LinearFit::try_fit_ridge(&x, &y, &[0, 1]).expect("ridge fit");
        let f3 = LinearFit::try_fit_ridge(&x, &y, &[0, 1, 2]).expect("ridge fit");
        prop_assert!(f2.rss <= f1.rss + 1e-6);
        prop_assert!(f3.rss <= f2.rss + 1e-6);
    }

    /// Every selection method returns a usable fit whose RSS does not
    /// exceed the intercept-only baseline.
    #[test]
    fn selection_never_beats_worse_than_mean(
        data in prop::collection::vec(-5.0f64..5.0, 24 * 4),
        y in prop::collection::vec(-10.0f64..10.0, 24),
    ) {
        let x = Matrix::from_vec(24, 4, data);
        let base = LinearFit::try_fit_ridge(&x, &y, &[]).expect("ridge fit");
        for m in [
            SelectionMethod::Enter,
            SelectionMethod::Forward,
            SelectionMethod::Backward,
            SelectionMethod::Stepwise,
        ] {
            let fit = try_select(&x, &y, m, Thresholds::default()).expect("selects");
            prop_assert!(fit.rss <= base.rss + 1e-6, "{m:?}");
            prop_assert!(fit.try_predict(&x).expect("predict").iter().all(|p| p.is_finite()));
        }
    }

    /// Random add/drop sequences against the incremental normal-equations
    /// engine reproduce the from-scratch [`LinearFit::try_fit`] exactly
    /// (active sets identical; RSS and coefficients to 1e-10). The design
    /// carries a near-collinear column (predictor 5 ≈ predictor 0): with a
    /// tiny perturbation its addition scores `Uncertain` (pivot guard),
    /// with a moderate one it joins the active set and the downdate path
    /// — including its fresh-factorization fallback — must still match.
    #[test]
    fn incremental_add_drop_matches_from_scratch_fit(
        data in prop::collection::vec(-5.0f64..5.0, 28 * 5),
        noise in prop::collection::vec(-1.0f64..1.0, 28),
        noise2 in prop::collection::vec(-1.0f64..1.0, 28),
        tiny in 1e-7f64..1e-6,
        wide in 0.05f64..0.5,
        use_tiny in any::<bool>(),
        ops in prop::collection::vec((any::<bool>(), 0usize..6), 1..14),
    ) {
        use linalg::gram::{ActiveCholesky, AddScore, NormalEq};
        let n = 28;
        let eps = if use_tiny { tiny } else { wide };
        let x = Matrix::from_fn(n, 6, |i, j| {
            if j < 5 { data[i * 5 + j] } else { data[i * 5] + eps * noise[i] }
        });
        // Target: linear in two columns plus noise no column explains, so
        // no active set fits exactly and the RSS comparison stays healthy.
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 + data[i * 5] - 0.5 * data[i * 5 + 1] + 0.3 * noise2[i])
            .collect();
        let ne = NormalEq::try_from_design(&x, &y).expect("finite design");
        let mut eng = ActiveCholesky::new(&ne).expect("statistics cover rows");
        let mut active: Vec<usize> = Vec::new();
        for (add, j) in ops {
            if add {
                if active.contains(&j) || n <= active.len() + 2 {
                    continue;
                }
                match eng.score_add(j) {
                    // Ambiguous pivot: the engine defers this candidate to
                    // the from-scratch oracle by contract — nothing to
                    // compare incrementally.
                    AddScore::Uncertain => continue,
                    AddScore::Ok { rss, .. } => {
                        prop_assert!(eng.push(j).is_ok(), "scored Ok but push failed");
                        active.push(j);
                        let eng_rss = eng.rss();
                        prop_assert!(
                            (rss - eng_rss).abs() <= 1e-10 * (1.0 + eng_rss),
                            "score_add rss {rss} vs committed {eng_rss}"
                        );
                    }
                }
            } else {
                if active.is_empty() {
                    continue;
                }
                let pos = j % active.len();
                // An outright removal failure means the reduced Gram is
                // not SPD even refactored from scratch; the selection
                // drivers rebuild the engine there, so stop comparing.
                if eng.remove(pos).is_err() {
                    break;
                }
                active.remove(pos);
            }
            prop_assert_eq!(eng.active(), active.as_slice());
            let fit = LinearFit::try_fit(&x, &y, &active)
                .expect("engine-accepted active set must be fittable");
            prop_assert!(
                (eng.rss() - fit.rss).abs() <= 1e-10 * (1.0 + fit.rss),
                "rss {} vs {} on {:?}",
                eng.rss(),
                fit.rss,
                active
            );
            let beta = eng.beta();
            let norm = fit
                .coefs
                .iter()
                .chain(std::iter::once(&fit.intercept))
                .fold(1.0f64, |m, b| m.max(b.abs()));
            prop_assert!(
                (beta[0] - fit.intercept).abs() <= 1e-10 * norm,
                "intercept {} vs {} on {:?}",
                beta[0],
                fit.intercept,
                active
            );
            for (t, (b, br)) in beta[1..].iter().zip(fit.coefs.iter()).enumerate() {
                prop_assert!(
                    (b - br).abs() <= 1e-10 * norm,
                    "coef {t}: {b} vs {br} on {:?}",
                    active
                );
            }
        }
    }

    /// Networks always produce finite predictions after training, whatever
    /// the (bounded) data.
    #[test]
    fn network_training_stays_finite(
        data in prop::collection::vec(0.0f64..1.0, 16 * 2),
        y in prop::collection::vec(0.0f64..1.0, 16),
        hidden in 1usize..10,
        seed in 0u64..50,
    ) {
        let x = Matrix::from_vec(16, 2, data);
        let mut net = Mlp::new(2, &[hidden], seed);
        let rmse = net
            .try_train(&x, &y, &TrainConfig { epochs: 60, seed, ..Default::default() })
            .expect("train");
        prop_assert!(rmse.is_finite());
        for i in 0..x.rows() {
            prop_assert!(net.try_forward(x.row(i)).expect("forward").is_finite());
        }
    }

    /// A constant-target table always terminates: either a typed error
    /// (degenerate/diverged/singular) or a model whose predictions are
    /// finite and flat around the constant — never a hang or panic.
    #[test]
    fn constant_target_terminates_with_flat_model_or_typed_error(
        c in -100.0f64..100.0,
        n in 16usize..32,
        seed in 0u64..8,
    ) {
        let mut t = Table::new();
        t.add_numeric("x", (0..n).map(|i| i as f64).collect())
            .add_numeric("w", (0..n).map(|i| ((i * 5) % 11) as f64).collect())
            .add_flag("f", (0..n).map(|i| i % 2 == 0).collect())
            .set_target(vec![c; n]);
        for kind in [ModelKind::LrE, ModelKind::LrB, ModelKind::NnQ, ModelKind::NnS] {
            match try_train(kind, &t, seed) {
                Ok(m) => {
                    for p in m.try_predict(&t).expect("predict") {
                        prop_assert!(p.is_finite(), "{}: non-finite prediction", kind.abbrev());
                        prop_assert!(
                            (p - c).abs() <= c.abs() * 0.5 + 10.0,
                            "{}: prediction {p} far from constant target {c}",
                            kind.abbrev()
                        );
                    }
                }
                Err(e) => prop_assert!(
                    matches!(e.kind(), "degenerate" | "diverged" | "singular"),
                    "{}: unexpected error kind {}",
                    kind.abbrev(),
                    e.kind()
                ),
            }
        }
    }

    /// NaN anywhere — predictor or target — is a typed `DegenerateData`
    /// for every model family.
    #[test]
    fn nan_rows_rejected_with_typed_error(
        n in 12usize..24,
        bad in 0usize..12,
        in_target in any::<bool>(),
    ) {
        let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 + 1.0).collect();
        if in_target { y[bad] = f64::NAN; } else { xs[bad] = f64::NAN; }
        let mut t = Table::new();
        t.add_numeric("x", xs)
            .add_flag("f", (0..n).map(|i| i % 3 == 0).collect())
            .set_target(y);
        for kind in [ModelKind::LrB, ModelKind::NnS] {
            let e = try_train(kind, &t, 1).expect_err("NaN data must be rejected");
            prop_assert_eq!(e.kind(), "degenerate");
        }
    }

    /// Pruning inputs never un-prunes: dead inputs stay dead through
    /// further training and more pruning.
    #[test]
    fn dead_inputs_stay_dead(
        kill in prop::collection::vec(0usize..4, 1..4),
        seed in 0u64..50,
    ) {
        let mut net = Mlp::new(4, &[6], seed);
        let mut expected_dead = std::collections::HashSet::new();
        for &k in &kill {
            net.prune_input(k);
            expected_dead.insert(k);
        }
        let x = Matrix::from_fn(20, 4, |i, j| ((i * 3 + j) % 7) as f64 / 7.0);
        let y: Vec<f64> = (0..20).map(|i| (i % 5) as f64 / 5.0).collect();
        net.try_train(&x, &y, &TrainConfig { epochs: 30, seed, ..Default::default() })
            .expect("train");
        for i in 0..4 {
            prop_assert_eq!(net.input_is_dead(i), expected_dead.contains(&i));
        }
        prop_assert_eq!(net.live_inputs(), 4 - expected_dead.len());
    }
}
