//! Property-based tests for the linalg crate.

use linalg::matrix::{dot, Matrix};
use linalg::solve::{lstsq_ridge, rss, solve_qr, try_lstsq};
use linalg::special::{f_cdf, inc_beta, t_cdf};
use linalg::stats::{geometric_mean, mean, percentile, range_ratio};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(4, 6)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in small_matrix(5, 5)) {
        let i = Matrix::identity(5);
        let left = i.matmul(&m);
        let right = m.matmul(&i);
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!((left[(r, c)] - m[(r, c)]).abs() < 1e-12);
                prop_assert!((right[(r, c)] - m[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal(m in small_matrix(8, 4)) {
        let g = m.gram();
        for i in 0..4 {
            prop_assert!(g[(i, i)] >= -1e-12);
            for j in 0..4 {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dot_is_commutative(a in prop::collection::vec(-100.0f64..100.0, 16),
                          b in prop::collection::vec(-100.0f64..100.0, 16)) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
    }

    /// The least-squares residual must not exceed the residual of any other
    /// candidate coefficient vector (optimality of the fit).
    #[test]
    fn lstsq_is_optimal(
        data in prop::collection::vec(-5.0f64..5.0, 12 * 3),
        y in prop::collection::vec(-5.0f64..5.0, 12),
        perturb in prop::collection::vec(-1.0f64..1.0, 3),
    ) {
        let x = Matrix::from_vec(12, 3, data);
        let (beta, _) = lstsq_ridge(&x, &y).expect("ridge solve");
        let base = rss(&x, &y, &beta);
        let other: Vec<f64> = beta.iter().zip(&perturb).map(|(b, p)| b + p).collect();
        prop_assert!(base <= rss(&x, &y, &other) + 1e-6);
    }

    /// QR and the ridge front door agree on well-conditioned problems.
    #[test]
    fn qr_and_lstsq_agree(seed_vals in prop::collection::vec(0.1f64..3.0, 10)) {
        let rows: Vec<Vec<f64>> = seed_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![1.0, v, (i as f64 + 1.0).ln()])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[1] - 0.3 * r[2]).collect();
        if let Some(q) = solve_qr(&x, &y) {
            let (b, _) = lstsq_ridge(&x, &y).expect("ridge solve");
            let pred_q = x.matvec(&q);
            let pred_b = x.matvec(&b);
            for (p, t) in pred_q.iter().zip(&pred_b) {
                prop_assert!((p - t).abs() < 1e-6);
            }
        }
    }

    /// On exactly rank-deficient designs (a column is a multiple of
    /// another), the strict solver either reports `SingularSystem` or
    /// returns fully finite coefficients — never silent NaN/Inf.
    #[test]
    fn try_lstsq_never_silently_non_finite(
        col in prop::collection::vec(-5.0f64..5.0, 12),
        scale in -3.0f64..3.0,
        y in prop::collection::vec(-5.0f64..5.0, 12),
    ) {
        let rows: Vec<Vec<f64>> = col.iter().map(|&v| vec![1.0, v, scale * v]).collect();
        let x = Matrix::from_rows(&rows);
        match try_lstsq(&x, &y) {
            Ok((beta, _)) => prop_assert!(beta.iter().all(|b| b.is_finite())),
            Err(e) => prop_assert_eq!(e.kind(), "singular"),
        }
    }

    /// The ridge-fallback tier must always produce finite coefficients on
    /// ill-conditioned (near-duplicate column) designs — that is its job.
    #[test]
    fn lstsq_ridge_recovers_ill_conditioned(
        col in prop::collection::vec(-5.0f64..5.0, 14),
        eps in 0.0f64..1e-10,
        y in prop::collection::vec(-5.0f64..5.0, 14),
    ) {
        let rows: Vec<Vec<f64>> = col
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![1.0, v, v + eps * i as f64])
            .collect();
        let x = Matrix::from_rows(&rows);
        match lstsq_ridge(&x, &y) {
            Ok((beta, _)) => prop_assert!(beta.iter().all(|b| b.is_finite())),
            Err(e) => prop_assert_eq!(e.kind(), "singular"),
        }
    }

    /// Non-finite inputs are always a typed `DegenerateData`, regardless
    /// of where the poison sits.
    #[test]
    fn try_lstsq_rejects_poisoned_input(
        data in prop::collection::vec(-5.0f64..5.0, 10 * 2),
        y in prop::collection::vec(-5.0f64..5.0, 10),
        bad_row in 0usize..10,
        bad_col in 0usize..2,
        poison_design in any::<bool>(),
    ) {
        let mut data = data;
        let mut y = y;
        if poison_design {
            data[bad_row * 2 + bad_col] = f64::NAN;
        } else {
            y[bad_row] = f64::INFINITY;
        }
        let x = Matrix::from_vec(10, 2, data);
        let e = try_lstsq(&x, &y).expect_err("poisoned input must be rejected");
        prop_assert_eq!(e.kind(), "degenerate");
    }

    #[test]
    fn inc_beta_monotone_in_x(a in 0.2f64..10.0, b in 0.2f64..10.0,
                              x1 in 0.01f64..0.98) {
        let x2 = (x1 + 0.01).min(0.99);
        prop_assert!(inc_beta(a, b, x1) <= inc_beta(a, b, x2) + 1e-12);
    }

    #[test]
    fn f_cdf_in_unit_interval(f in 0.0f64..50.0, d1 in 1.0f64..30.0, d2 in 1.0f64..30.0) {
        let p = f_cdf(f, d1, d2);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn t_cdf_monotone(df in 1.0f64..40.0, t in -5.0f64..5.0) {
        prop_assert!(t_cdf(t, df) <= t_cdf(t + 0.1, df) + 1e-12);
    }

    #[test]
    fn geometric_mean_between_min_and_max(xs in prop::collection::vec(0.01f64..100.0, 1..20)) {
        let g = geometric_mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }

    #[test]
    fn geometric_le_arithmetic(xs in prop::collection::vec(0.01f64..100.0, 1..20)) {
        prop_assert!(geometric_mean(&xs) <= mean(&xs) + 1e-9);
    }

    #[test]
    fn range_ratio_at_least_one(xs in prop::collection::vec(0.01f64..100.0, 1..20)) {
        prop_assert!(range_ratio(&xs) >= 1.0 - 1e-12);
    }

    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-50.0f64..50.0, 2..30),
                           p in 0.0f64..90.0) {
        prop_assert!(percentile(&xs, p) <= percentile(&xs, p + 10.0) + 1e-12);
    }
}
