//! Incremental normal-equations engine for subset-selection regression.
//!
//! Stepwise/forward/backward selection repeatedly solves least-squares
//! problems that differ by a single column. Refitting from the design
//! matrix costs O(n·k²) per candidate; this module instead computes the
//! augmented Gram matrix `[1 X]ᵀ[1 X]` and moment vector `[1 X]ᵀy` once
//! per selection run ([`NormalEq`]) and evaluates every candidate
//! add/drop against a maintained Cholesky factor of the active
//! submatrix ([`ActiveCholesky`]) in O(k²) — independent of the row
//! count. Cross-validation folds reuse the same Gram: a fold's training
//! Gram is the full Gram minus the held-out rows' outer products
//! ([`NormalEq::minus_rows`]), and per-fold feature scaling is applied
//! as a congruence transform ([`NormalEq::scaled`]) without touching
//! the rows again.
//!
//! Numerical contract (enforced by tests here and by proptests in
//! `mlmodels`): for well-conditioned active sets the engine's residual
//! sums of squares and coefficients agree with a from-scratch QR or
//! Cholesky fit to ~1e-10, and ambiguous pivots (near-collinear
//! candidates) are reported as [`AddScore::Uncertain`] so callers can
//! defer to the from-scratch oracle instead of trusting a noisy
//! downdate.

use crate::matrix::Matrix;
use fault::{Error, Result};

/// Relative pivot threshold below which an added column is numerically
/// indistinguishable from a linear combination of the active set. The
/// decision is delegated to the caller's from-scratch oracle rather
/// than decided here, so the incremental path never changes which
/// candidates a selection run accepts.
const PIVOT_REL_TOL: f64 = 1e-8;

/// Precomputed sufficient statistics for least squares on `[1 X]`:
/// the augmented Gram matrix, moment vector, `yᵀy`, and row count.
/// Index 0 is the intercept column; predictor `j` lives at index `j+1`.
#[derive(Debug, Clone)]
pub struct NormalEq {
    /// `(p+1) × (p+1)` augmented Gram matrix `[1 X]ᵀ[1 X]`.
    g: Matrix,
    /// `(p+1)` moment vector `[1 X]ᵀ y`.
    c: Vec<f64>,
    /// `yᵀy`.
    yty: f64,
    /// Number of rows accumulated.
    n: usize,
}

impl NormalEq {
    /// Unchecked core of [`NormalEq::try_from_design`]. Accumulation is
    /// row-major and index-ascending, matching `Matrix::gram`/`t_matvec`
    /// on the explicit augmented design, so both routes produce
    /// bitwise-identical statistics.
    fn from_design(x: &Matrix, y: &[f64]) -> NormalEq {
        let (n, p) = (x.rows(), x.cols());
        debug_assert_eq!(n, y.len(), "design rows must match target length");
        let mut g = Matrix::zeros(p + 1, p + 1);
        let mut c = vec![0.0; p + 1];
        let mut yty = 0.0;
        let mut aug = vec![0.0; p + 1];
        for (i, &yi) in y.iter().enumerate().take(n) {
            aug[0] = 1.0;
            aug[1..].copy_from_slice(x.row(i));
            for j in 0..=p {
                let gj = g.row_mut(j);
                for (k, &ak) in aug.iter().enumerate().skip(j) {
                    gj[k] += aug[j] * ak;
                }
            }
            for (cj, &aj) in c.iter_mut().zip(aug.iter()) {
                *cj += aj * yi;
            }
            yty += yi * yi;
        }
        // Mirror the upper triangle exactly, as Matrix::gram does.
        for j in 0..=p {
            for k in 0..j {
                g[(j, k)] = g[(k, j)];
            }
        }
        NormalEq { g, c, yty, n }
    }

    /// Accumulate the sufficient statistics from a design matrix and
    /// target vector, rejecting a row-count mismatch or non-finite
    /// inputs with [`Error::DegenerateData`], matching the validation
    /// the from-scratch solvers perform.
    pub fn try_from_design(x: &Matrix, y: &[f64]) -> Result<NormalEq> {
        if x.rows() != y.len() {
            return Err(Error::degenerate(format!(
                "design has {} rows but target has {}",
                x.rows(),
                y.len()
            )));
        }
        for (i, yi) in y.iter().enumerate() {
            if !yi.is_finite() || x.row(i).iter().any(|v| !v.is_finite()) {
                return Err(Error::degenerate(format!("non-finite value in row {i}")));
            }
        }
        Ok(NormalEq::from_design(x, y))
    }

    /// Sufficient statistics with the listed rows' contributions
    /// subtracted — the Gram/moments of the design restricted to the
    /// complement row set. `x`/`y` must be the same data the full
    /// statistics were accumulated from. Used to derive a CV fold's
    /// training Gram from the full-table Gram without re-scanning the
    /// training rows.
    pub fn minus_rows(&self, x: &Matrix, y: &[f64], drop_rows: &[usize]) -> NormalEq {
        let p = x.cols();
        debug_assert_eq!(self.g.rows(), p + 1, "design width must match statistics");
        let mut out = self.clone();
        let mut aug = vec![0.0; p + 1];
        for &i in drop_rows {
            aug[0] = 1.0;
            aug[1..].copy_from_slice(x.row(i));
            for j in 0..=p {
                let gj = out.g.row_mut(j);
                for (k, &ak) in aug.iter().enumerate() {
                    gj[k] -= aug[j] * ak;
                }
            }
            for (cj, &aj) in out.c.iter_mut().zip(aug.iter()) {
                *cj -= aj * y[i];
            }
            out.yty -= y[i] * y[i];
        }
        out.n -= drop_rows.len();
        out
    }

    /// Statistics after the affine feature map `u_j = (v_j − min_j) / range_j`
    /// (the per-fold min–max scaling preprocessing applies). The scaled
    /// augmented design is `[1 U] = [1 V]·A` with `A` unit-upper-left,
    /// so the scaled Gram is the congruence `AᵀGA` and the scaled
    /// moments are `Aᵀc` — O(p²) instead of O(n·p²).
    ///
    /// `mins[j]`/`ranges[j]` describe predictor `j`; every range must be
    /// non-zero (constant columns are dropped by preprocessing first).
    pub fn scaled(&self, mins: &[f64], ranges: &[f64]) -> NormalEq {
        let p = self.g.rows() - 1;
        debug_assert_eq!(mins.len(), p, "one min per predictor");
        debug_assert_eq!(ranges.len(), p, "one range per predictor");
        // A[0][0] = 1; A[0][j+1] = -min_j/range_j; A[j+1][j+1] = 1/range_j.
        // (AᵀGA)[a][b] expands into the four terms below; exploiting the
        // sparsity of A keeps this O(p²).
        let a0: Vec<f64> = mins
            .iter()
            .zip(ranges.iter())
            .map(|(&m, &r)| -m / r)
            .collect();
        let inv: Vec<f64> = ranges.iter().map(|&r| 1.0 / r).collect();
        let mut g = Matrix::zeros(p + 1, p + 1);
        // Row/col 0 (intercept): u-col b ↦ a0[b-1]·g00 + inv[b-1]·g0b.
        g[(0, 0)] = self.g[(0, 0)];
        for b in 1..=p {
            let v = a0[b - 1] * self.g[(0, 0)] + inv[b - 1] * self.g[(0, b)];
            g[(0, b)] = v;
            g[(b, 0)] = v;
        }
        for a in 1..=p {
            for b in a..=p {
                let v = a0[a - 1] * a0[b - 1] * self.g[(0, 0)]
                    + a0[a - 1] * inv[b - 1] * self.g[(0, b)]
                    + inv[a - 1] * a0[b - 1] * self.g[(a, 0)]
                    + inv[a - 1] * inv[b - 1] * self.g[(a, b)];
                g[(a, b)] = v;
                g[(b, a)] = v;
            }
        }
        let mut c = vec![0.0; p + 1];
        c[0] = self.c[0];
        for (j, cj) in c.iter_mut().enumerate().skip(1) {
            *cj = a0[j - 1] * self.c[0] + inv[j - 1] * self.c[j];
        }
        NormalEq {
            g,
            c,
            yty: self.yty,
            n: self.n,
        }
    }

    /// Number of rows the statistics were accumulated over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of predictors (excluding the intercept).
    pub fn p(&self) -> usize {
        self.g.rows() - 1
    }

    /// `yᵀy` — the uncentered total sum of squares of the target.
    pub fn yty(&self) -> f64 {
        self.yty
    }

    /// Augmented Gram entry (0 = intercept, predictor `j` at `j+1`).
    pub fn gram(&self, i: usize, j: usize) -> f64 {
        self.g[(i, j)]
    }

    /// Augmented moment entry (0 = intercept, predictor `j` at `j+1`).
    pub fn moment(&self, i: usize) -> f64 {
        self.c[i]
    }
}

/// Outcome of scoring a candidate column addition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddScore {
    /// The column extends the factor with a clearly positive pivot;
    /// `rss` is the residual sum of squares the enlarged model attains,
    /// and `z` is the new entry of the forward-substituted moment
    /// vector — `z²` is *exactly* the RSS reduction, free of the
    /// cancellation a direct `rss_small − rss_big` subtraction suffers.
    Ok {
        /// Residual sum of squares of the enlarged model.
        rss: f64,
        /// New entry of `L⁻¹c`; `z²` is the exact RSS reduction.
        z: f64,
    },
    /// The pivot is non-positive or too small relative to the column's
    /// own energy: numerically collinear with the active set. Callers
    /// should fall back to the from-scratch path to decide.
    Uncertain,
}

/// Cholesky factor of the active-set normal equations, maintained
/// incrementally as columns enter and leave the model.
///
/// Stores the lower-triangular factor `L` of `G[A,A]` (rows as growing
/// `Vec`s so add/drop are cheap), the forward-substituted moments
/// `z = L⁻¹ c[A]`, and the active predictor list. `rss = yᵀy − ‖z‖²`.
#[derive(Debug, Clone)]
pub struct ActiveCholesky<'a> {
    ne: &'a NormalEq,
    /// Active predictor indices, in insertion order.
    active: Vec<usize>,
    /// Lower-triangular factor; row `i` has `i+1` entries.
    l: Vec<Vec<f64>>,
    /// `z = L⁻¹ c[A]` (augmented: entry 0 is the intercept).
    z: Vec<f64>,
}

impl<'a> ActiveCholesky<'a> {
    /// Intercept-only factor. Fails if the statistics cover no rows.
    pub fn new(ne: &'a NormalEq) -> Result<ActiveCholesky<'a>> {
        let g00 = ne.g[(0, 0)];
        if !g00.is_finite() || g00 <= 0.0 {
            return Err(Error::degenerate("normal equations cover no rows"));
        }
        let l00 = g00.sqrt();
        Ok(ActiveCholesky {
            ne,
            active: Vec::new(),
            l: vec![vec![l00]],
            z: vec![ne.c[0] / l00],
        })
    }

    /// Active predictor indices in insertion order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Factor dimension (active predictors + intercept).
    fn dim(&self) -> usize {
        self.l.len()
    }

    /// Gram index of factor position `t` (0 = intercept).
    fn gram_idx(&self, t: usize) -> usize {
        if t == 0 {
            0
        } else {
            self.active[t - 1] + 1
        }
    }

    /// Residual sum of squares of the current active-set model,
    /// clamped at zero (the subtraction can go fractionally negative
    /// for near-exact fits).
    pub fn rss(&self) -> f64 {
        let explained: f64 = self.z.iter().map(|v| v * v).sum();
        (self.ne.yty - explained).max(0.0)
    }

    /// Solve `L w = G[A, jj]` and return `(w, d, g_jj)` where
    /// `d = G[jj,jj] − ‖w‖²` is the candidate pivot.
    fn border(&self, j: usize) -> (Vec<f64>, f64, f64) {
        let k = self.dim();
        let jj = j + 1;
        let mut w = vec![0.0; k];
        for t in 0..k {
            let mut s = self.ne.g[(self.gram_idx(t), jj)];
            for (lv, wv) in self.l[t].iter().zip(w.iter().take(t)) {
                s -= lv * wv;
            }
            w[t] = s / self.l[t][t];
        }
        let gjj = self.ne.g[(jj, jj)];
        let wnorm2: f64 = w.iter().map(|v| v * v).sum();
        (w, gjj - wnorm2, gjj)
    }

    /// Score adding predictor `j` without modifying the factor. O(k²).
    pub fn score_add(&self, j: usize) -> AddScore {
        debug_assert!(!self.active.contains(&j), "candidate already active");
        let (w, d, gjj) = self.border(j);
        if !d.is_finite() || d <= PIVOT_REL_TOL * gjj.max(f64::MIN_POSITIVE) {
            return AddScore::Uncertain;
        }
        let wz: f64 = w.iter().zip(self.z.iter()).map(|(a, b)| a * b).sum();
        let z_new = (self.ne.c[j + 1] - wz) / d.sqrt();
        let rss = (self.rss() - z_new * z_new).max(0.0);
        AddScore::Ok { rss, z: z_new }
    }

    /// Append predictor `j` to the active set, extending the factor by
    /// one bordered row. Fails (leaving the factor untouched) if the
    /// pivot is not strictly positive.
    pub fn push(&mut self, j: usize) -> Result<()> {
        let (mut w, d, _) = self.border(j);
        if !d.is_finite() || d <= 0.0 {
            return Err(Error::singular(format!(
                "incremental add of column {j}: pivot {d:.3e}"
            )));
        }
        let ld = d.sqrt();
        let wz: f64 = w.iter().zip(self.z.iter()).map(|(a, b)| a * b).sum();
        self.z.push((self.ne.c[j + 1] - wz) / ld);
        w.push(ld);
        self.l.push(w);
        self.active.push(j);
        Ok(())
    }

    /// Remove the predictor at `pos` (index into [`ActiveCholesky::active`]).
    /// Deletes the factor row/column and repairs the trailing block with
    /// a rank-one Cholesky update; if the update loses positive
    /// definiteness to rounding it falls back to a fresh factorization
    /// of the reduced Gram. `z` is recomputed by forward substitution.
    pub fn remove(&mut self, pos: usize) -> Result<()> {
        debug_assert!(pos < self.active.len(), "remove position out of range");
        let r = pos + 1; // factor row of the departing predictor
        let k = self.dim();
        // Departing column below the diagonal: the rank-one correction.
        let mut v: Vec<f64> = (r + 1..k).map(|i| self.l[i][r]).collect();
        let mut l = self.l.clone();
        l.remove(r);
        for row in l.iter_mut().skip(r) {
            row.remove(r);
        }
        // cholupdate: trailing block B satisfies B_new B_newᵀ = B Bᵀ + v vᵀ.
        let m = v.len();
        let mut ok = true;
        'update: for t in 0..m {
            let lt = l[r + t][r + t];
            let rad = (lt * lt + v[t] * v[t]).sqrt();
            if !rad.is_finite() || rad <= 0.0 || lt == 0.0 {
                ok = false;
                break 'update;
            }
            let (cos, sin) = (rad / lt, v[t] / lt);
            l[r + t][r + t] = rad;
            for u in t + 1..m {
                l[r + u][r + t] = (l[r + u][r + t] + sin * v[u]) / cos;
                v[u] = cos * v[u] - sin * l[r + u][r + t];
            }
            if !l[r + t][r + t].is_finite() || l[r + t][r + t] <= 0.0 {
                ok = false;
                break 'update;
            }
        }
        let mut next_active = self.active.clone();
        next_active.remove(pos);
        if !ok {
            // Rounding destroyed the update; refactor the reduced Gram.
            match Self::factor_from_gram(self.ne, &next_active) {
                Some(fresh) => l = fresh,
                None => {
                    return Err(Error::singular(format!(
                        "downdate of column {} left a non-SPD system",
                        self.active[pos]
                    )))
                }
            }
        }
        self.active = next_active;
        self.l = l;
        self.recompute_z();
        Ok(())
    }

    /// Score dropping the predictor at `pos` without committing: the
    /// RSS of the reduced model, or `None` when the downdate (and the
    /// fresh-factorization fallback) cannot produce an SPD factor.
    pub fn score_drop(&self, pos: usize) -> Option<f64> {
        let mut trial = self.clone();
        trial.remove(pos).ok().map(|()| trial.rss())
    }

    /// Fresh Cholesky of `G[A,A]` for the given active set. `None` when
    /// a pivot is non-positive or non-finite.
    fn factor_from_gram(ne: &NormalEq, active: &[usize]) -> Option<Vec<Vec<f64>>> {
        let idx = |t: usize| if t == 0 { 0 } else { active[t - 1] + 1 };
        let k = active.len() + 1;
        let mut l: Vec<Vec<f64>> = Vec::with_capacity(k);
        for i in 0..k {
            let mut row = vec![0.0; i + 1];
            for j in 0..i {
                let mut s = ne.g[(idx(i), idx(j))];
                for t in 0..j {
                    s -= row[t] * l[j][t];
                }
                row[j] = s / l[j][j];
            }
            let mut d = ne.g[(idx(i), idx(i))];
            for rt in row.iter().take(i) {
                d -= rt * rt;
            }
            if !d.is_finite() || d <= 0.0 {
                return None;
            }
            row[i] = d.sqrt();
            l.push(row);
        }
        Some(l)
    }

    /// Recompute `z = L⁻¹ c[A]` by forward substitution. O(k²).
    fn recompute_z(&mut self) {
        let k = self.dim();
        let mut z = vec![0.0; k];
        for t in 0..k {
            let mut s = self.ne.c[self.gram_idx(t)];
            for (lv, zv) in self.l[t].iter().zip(z.iter().take(t)) {
                s -= lv * zv;
            }
            z[t] = s / self.l[t][t];
        }
        self.z = z;
    }

    /// Coefficients of the current model by back substitution
    /// `Lᵀ β = z`: `[intercept, β_active...]` in active-set order.
    pub fn beta(&self) -> Vec<f64> {
        let k = self.dim();
        let mut beta = vec![0.0; k];
        for t in (0..k).rev() {
            let mut s = self.z[t];
            for (u, bu) in beta.iter().enumerate().skip(t + 1) {
                s -= self.l[u][t] * bu;
            }
            beta[t] = s / self.l[t][t];
        }
        beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::try_lstsq;

    fn toy() -> (Matrix, Vec<f64>) {
        // 12 rows, 4 predictors, exact-ish linear law + deterministic jitter.
        let n = 12;
        let x = Matrix::from_fn(n, 4, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 / 11.0 + 0.1 * j as f64
        });
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let r = x.row(i);
                1.5 + 2.0 * r[0] - 3.0 * r[1] + 0.5 * r[3] + 0.01 * ((i * 5 % 7) as f64 - 3.0)
            })
            .collect();
        (x, y)
    }

    fn scratch_fit(x: &Matrix, y: &[f64], active: &[usize]) -> (Vec<f64>, f64) {
        let design = {
            let mut d = Matrix::zeros(x.rows(), active.len() + 1);
            for i in 0..x.rows() {
                d[(i, 0)] = 1.0;
                for (t, &j) in active.iter().enumerate() {
                    d[(i, t + 1)] = x[(i, j)];
                }
            }
            d
        };
        let (beta, _) = try_lstsq(&design, y).expect("toy system is well conditioned");
        let mut rss = 0.0;
        for (i, yi) in y.iter().enumerate() {
            let pred: f64 = design
                .row(i)
                .iter()
                .zip(beta.iter())
                .map(|(a, b)| a * b)
                .sum();
            rss += (yi - pred) * (yi - pred);
        }
        (beta, rss)
    }

    #[test]
    fn incremental_add_matches_scratch() {
        let (x, y) = toy();
        let ne = NormalEq::from_design(&x, &y);
        let mut ac = ActiveCholesky::new(&ne).unwrap();
        for (step, &j) in [0usize, 1, 3].iter().enumerate() {
            match ac.score_add(j) {
                AddScore::Ok { rss, .. } => {
                    ac.push(j).unwrap();
                    let (beta_ref, rss_ref) = scratch_fit(&x, &y, ac.active());
                    assert!(
                        (rss - rss_ref).abs() <= 1e-10 * (1.0 + rss_ref),
                        "step {step}: rss {rss} vs {rss_ref}"
                    );
                    let beta = ac.beta();
                    for (b, br) in beta.iter().zip(beta_ref.iter()) {
                        assert!((b - br).abs() <= 1e-9 * (1.0 + br.abs()), "{b} vs {br}");
                    }
                }
                AddScore::Uncertain => panic!("well-conditioned add scored uncertain"),
            }
        }
    }

    #[test]
    fn removal_downdates_match_scratch() {
        let (x, y) = toy();
        let ne = NormalEq::from_design(&x, &y);
        let mut ac = ActiveCholesky::new(&ne).unwrap();
        for j in [0usize, 1, 2, 3] {
            ac.push(j).unwrap();
        }
        ac.remove(1).unwrap(); // drop predictor 1 → active [0, 2, 3]
        assert_eq!(ac.active(), &[0, 2, 3]);
        let (beta_ref, rss_ref) = scratch_fit(&x, &y, &[0, 2, 3]);
        assert!((ac.rss() - rss_ref).abs() <= 1e-10 * (1.0 + rss_ref));
        for (b, br) in ac.beta().iter().zip(beta_ref.iter()) {
            assert!((b - br).abs() <= 1e-9 * (1.0 + br.abs()));
        }
    }

    #[test]
    fn duplicate_column_scores_uncertain() {
        let (x, y) = toy();
        // Predictor 4 duplicates predictor 0 exactly.
        let xx = Matrix::from_fn(
            x.rows(),
            5,
            |i, j| if j < 4 { x[(i, j)] } else { x[(i, 0)] },
        );
        let ne = NormalEq::from_design(&xx, &y);
        let mut ac = ActiveCholesky::new(&ne).unwrap();
        ac.push(0).unwrap();
        assert_eq!(ac.score_add(4), AddScore::Uncertain);
    }

    #[test]
    fn minus_rows_matches_direct_subset() {
        let (x, y) = toy();
        let full = NormalEq::from_design(&x, &y);
        let drop: Vec<usize> = vec![1, 4, 9];
        let keep: Vec<usize> = (0..x.rows()).filter(|i| !drop.contains(i)).collect();
        let sub = full.minus_rows(&x, &y, &drop);
        let xk = x.select_rows(&keep);
        let yk: Vec<f64> = keep.iter().map(|&i| y[i]).collect();
        let direct = NormalEq::from_design(&xk, &yk);
        assert_eq!(sub.n(), direct.n());
        for i in 0..=x.cols() {
            for j in 0..=x.cols() {
                assert!(
                    (sub.gram(i, j) - direct.gram(i, j)).abs()
                        <= 1e-9 * (1.0 + direct.gram(i, j).abs())
                );
            }
            assert!((sub.moment(i) - direct.moment(i)).abs() <= 1e-9);
        }
        assert!((sub.yty() - direct.yty()).abs() <= 1e-9 * (1.0 + direct.yty().abs()));
    }

    #[test]
    fn scaled_matches_scaling_the_rows() {
        let (x, y) = toy();
        let mins = vec![0.05, -0.1, 0.2, 0.0];
        let ranges = vec![1.1, 0.9, 2.0, 0.5];
        let scaled = NormalEq::from_design(&x, &y).scaled(&mins, &ranges);
        let xs = Matrix::from_fn(x.rows(), x.cols(), |i, j| (x[(i, j)] - mins[j]) / ranges[j]);
        let direct = NormalEq::from_design(&xs, &y);
        for i in 0..=x.cols() {
            for j in 0..=x.cols() {
                assert!(
                    (scaled.gram(i, j) - direct.gram(i, j)).abs()
                        <= 1e-9 * (1.0 + direct.gram(i, j).abs()),
                    "G[{i}][{j}]"
                );
            }
            assert!(
                (scaled.moment(i) - direct.moment(i)).abs()
                    <= 1e-9 * (1.0 + direct.moment(i).abs())
            );
        }
    }

    #[test]
    fn try_from_design_rejects_non_finite() {
        let (x, mut y) = toy();
        y[3] = f64::NAN;
        assert!(matches!(
            NormalEq::try_from_design(&x, &y),
            Err(Error::DegenerateData { .. })
        ));
    }
}
