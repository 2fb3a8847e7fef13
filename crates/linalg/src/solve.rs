//! Least-squares solvers.
//!
//! Ordinary least squares is solved either through the normal equations with
//! a Cholesky factorization (fast; fine for the well-scaled 0–1 design
//! matrices this project produces) or through a Householder QR factorization
//! (slower but numerically robust). Two entry points trade strictness for
//! convenience:
//!
//! * [`try_lstsq`] — Cholesky then QR; a rank-deficient system is reported
//!   as [`Error::SingularSystem`] and non-finite input as
//!   [`Error::DegenerateData`]. This is what selection drivers use to *skip*
//!   a collinear candidate column instead of absorbing a blurred fit.
//! * [`lstsq_ridge`] — [`try_lstsq`] plus a ridge-stabilized fallback for
//!   callers that want *some* usable fit on collinear predictors (the
//!   paper's Enter method, which regresses on all predictors regardless of
//!   redundancy). Still returns `Err` on non-finite input or when even
//!   heavy shrinkage cannot stabilize the system.

use fault::{Error, Result};

use crate::matrix::{dot, Matrix};

/// Which factorization ultimately produced a least-squares solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LstsqMethod {
    /// Cholesky on the normal equations.
    Cholesky,
    /// Householder QR on the design matrix.
    Qr,
    /// Cholesky on ridge-regularized normal equations (collinear input).
    Ridge,
}

/// Cholesky factorization of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor `L` with `L Lᵀ = A`, or `None` if a
/// non-positive pivot is met (matrix not positive definite to working
/// precision).
pub(crate) fn cholesky(a: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "cholesky: matrix must be square");
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Some(l)
}

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky.
pub(crate) fn solve_cholesky(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let l = cholesky(a)?;
    Some(cholesky_solve_with(&l, b))
}

/// Solve using a precomputed Cholesky factor (forward then back
/// substitution).
pub(crate) fn cholesky_solve_with(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    // Forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    // Back: Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// Invert a symmetric positive-definite matrix via its Cholesky factor.
///
/// Used to obtain `(XᵀX)⁻¹` for regression coefficient standard errors.
pub fn spd_inverse(a: &Matrix) -> Option<Matrix> {
    let l = cholesky(a)?;
    let n = a.rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        let col = cholesky_solve_with(&l, &e);
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
        e[j] = 0.0;
    }
    Some(inv)
}

/// Householder QR least squares: minimizes `‖A x − b‖₂` for `A` with
/// `rows ≥ cols`. Returns `None` when `A` is rank-deficient to working
/// precision (a zero R diagonal entry).
pub fn solve_qr(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "solve_qr: need rows >= cols ({m} < {n})");
    assert_eq!(b.len(), m, "solve_qr: rhs length must match rows");
    // Work on copies; r becomes R in-place, qtb becomes Qᵀb.
    let mut r = a.clone();
    let mut qtb = b.to_vec();
    let mut v = vec![0.0; m];
    for k in 0..n {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-13 {
            return None;
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut vnorm2 = 0.0;
        for i in k..m {
            v[i] = r[(i, k)];
            if i == k {
                v[i] -= alpha;
            }
            vnorm2 += v[i] * v[i];
        }
        if vnorm2 < 1e-26 {
            continue; // column already triangular
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to remaining columns of R and to qtb.
        for j in k..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i] * r[(i, j)];
            }
            let s = 2.0 * s / vnorm2;
            for i in k..m {
                r[(i, j)] -= s * v[i];
            }
        }
        let mut s = 0.0;
        for i in k..m {
            s += v[i] * qtb[i];
        }
        let s = 2.0 * s / vnorm2;
        for i in k..m {
            qtb[i] -= s * v[i];
        }
    }
    // Back substitution on the upper-triangular R (top n rows).
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = qtb[i];
        for j in (i + 1)..n {
            s -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d.abs() < 1e-12 {
            return None;
        }
        x[i] = s / d;
    }
    Some(x)
}

fn check_finite_inputs(x: &Matrix, y: &[f64]) -> Result<()> {
    for i in 0..x.rows() {
        for &v in x.row(i) {
            if !v.is_finite() {
                return Err(Error::degenerate(format!(
                    "design matrix contains a non-finite value in row {i}"
                )));
            }
        }
    }
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        return Err(Error::degenerate(format!(
            "response vector contains a non-finite value at index {i}"
        )));
    }
    Ok(())
}

/// Strict least squares: Cholesky normal equations falling back to
/// Householder QR, with no regularization.
///
/// Errors with [`Error::DegenerateData`] on non-finite input and
/// [`Error::SingularSystem`] when the design is rank-deficient to working
/// precision — the signal a stepwise driver uses to skip a collinear
/// candidate column.
pub fn try_lstsq(x: &Matrix, y: &[f64]) -> Result<(Vec<f64>, LstsqMethod)> {
    check_finite_inputs(x, y)?;
    let gram = x.gram();
    let xty = x.t_matvec(y);
    if let Some(beta) = solve_cholesky(&gram, &xty) {
        if beta.iter().all(|b| b.is_finite()) {
            return Ok((beta, LstsqMethod::Cholesky));
        }
    }
    if x.rows() >= x.cols() {
        if let Some(beta) = solve_qr(x, y) {
            if beta.iter().all(|b| b.is_finite()) {
                return Ok((beta, LstsqMethod::Qr));
            }
        }
    }
    Err(Error::singular(format!(
        "lstsq {}x{}: Cholesky and QR both failed (rank-deficient design)",
        x.rows(),
        x.cols()
    )))
}

/// Robust least squares: [`try_lstsq`], then a ridge-stabilized solve for
/// collinear designs. Returns the coefficients and the method that
/// succeeded.
///
/// Errors with [`Error::DegenerateData`] on non-finite input and
/// [`Error::SingularSystem`] if even shrinkage six orders of magnitude
/// above the Gram diagonal scale cannot stabilize the system.
pub fn lstsq_ridge(x: &Matrix, y: &[f64]) -> Result<(Vec<f64>, LstsqMethod)> {
    match try_lstsq(x, y) {
        Ok(solved) => return Ok(solved),
        Err(Error::SingularSystem { .. }) => {}
        Err(other) => return Err(other),
    }
    // Ridge fallback: shrinkage proportional to the Gram diagonal scale.
    let gram = x.gram();
    let xty = x.t_matvec(y);
    let p = gram.rows();
    let scale = (0..p).map(|i| gram[(i, i)]).fold(0.0f64, f64::max).max(1.0);
    let mut g = gram;
    let mut lambda = 1e-8 * scale;
    while lambda < scale * 1e6 {
        for i in 0..p {
            g[(i, i)] += lambda;
        }
        if let Some(beta) = solve_cholesky(&g, &xty) {
            if beta.iter().all(|b| b.is_finite()) {
                return Ok((beta, LstsqMethod::Ridge));
            }
        }
        lambda *= 10.0;
    }
    Err(Error::singular(format!(
        "lstsq {}x{}: ridge fallback failed to stabilize the normal equations",
        x.rows(),
        x.cols()
    )))
}

/// Residual sum of squares `‖y − X β‖²`.
pub fn rss(x: &Matrix, y: &[f64], beta: &[f64]) -> f64 {
    (0..x.rows())
        .map(|i| {
            let e = y[i] - dot(x.row(i), beta);
            e * e
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 3.8],
        ]);
        let l = cholesky(&a).expect("SPD");
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn solve_cholesky_exact() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = solve_cholesky(&a, &[1.0, 2.0]).unwrap();
        // Solution of [[4,1],[1,3]] x = [1,2] is [1/11, 7/11].
        assert_close(&x, &[1.0 / 11.0, 7.0 / 11.0], 1e-12);
    }

    #[test]
    fn qr_recovers_exact_coefficients() {
        // y = 2 + 3a - b, noiseless.
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![1.0, (i as f64) * 0.3, ((i * i) % 7) as f64])
            .collect();
        let y: Vec<f64> = xs.iter().map(|r| 2.0 + 3.0 * r[1] - r[2]).collect();
        let x = Matrix::from_rows(&xs);
        let beta = solve_qr(&x, &y).unwrap();
        assert_close(&beta, &[2.0, 3.0, -1.0], 1e-9);
    }

    #[test]
    fn lstsq_handles_collinear_columns() {
        // Second and third columns identical -> rank deficient.
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let v = i as f64;
                vec![1.0, v, v]
            })
            .collect();
        let y: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&xs);
        let (beta, method) = lstsq_ridge(&x, &y).expect("ridge solve");
        assert_eq!(method, LstsqMethod::Ridge);
        // Predictions must still be accurate even if betas are split.
        let pred = x.matvec(&beta);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3);
        }
    }

    #[test]
    fn try_lstsq_reports_singular_instead_of_blurring() {
        // Identical second and third columns: strict solve must refuse.
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let v = i as f64;
                vec![1.0, v, v]
            })
            .collect();
        let y: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&xs);
        match try_lstsq(&x, &y) {
            Err(fault::Error::SingularSystem { context }) => {
                assert!(context.contains("30x3"), "{context}");
            }
            other => panic!("expected SingularSystem, got {other:?}"),
        }
    }

    #[test]
    fn try_lstsq_rejects_non_finite_input() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, f64::NAN], vec![1.0, 2.0]]);
        let y = vec![0.0, 1.0, 2.0];
        assert!(matches!(
            try_lstsq(&x, &y),
            Err(fault::Error::DegenerateData { .. })
        ));
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let y = vec![0.0, f64::INFINITY, 2.0];
        assert!(matches!(
            lstsq_ridge(&x, &y),
            Err(fault::Error::DegenerateData { .. })
        ));
    }

    #[test]
    fn spd_inverse_matches_identity() {
        let a = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let inv = spd_inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lstsq_overdetermined_noisy() {
        // With symmetric noise the estimate should stay near truth.
        let mut xs = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 17) as f64 / 17.0;
            let b = (i % 5) as f64 / 5.0;
            xs.push(vec![1.0, a, b]);
            let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
            y.push(5.0 - 2.0 * a + 0.5 * b + noise);
        }
        let x = Matrix::from_rows(&xs);
        let (beta, _) = lstsq_ridge(&x, &y).expect("ridge solve");
        assert!((beta[0] - 5.0).abs() < 0.05);
        assert!((beta[1] + 2.0).abs() < 0.1);
        assert!((beta[2] - 0.5).abs() < 0.1);
    }

    #[test]
    fn rss_zero_for_exact_fit() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let beta = [1.0, 2.0];
        let y: Vec<f64> = (0..3).map(|i| 1.0 + 2.0 * i as f64).collect();
        assert!(rss(&x, &y, &beta) < 1e-24);
    }
}
