//! Row-major dense matrix with the operations regression and
//! backpropagation need.
//!
//! The type is intentionally small: no views, no expression templates, just
//! contiguous `Vec<f64>` storage, bounds-checked accessors, and cache-friendly
//! `i-k-j` multiplication loops (the perf-book idiom for naive GEMM).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Output rows per tile in the parallel matrix kernels. Each tile is an
/// independent unit of work; 64 rows keeps the per-tile working set inside
/// L2 for the design-matrix widths this workspace sees.
const TILE_ROWS: usize = 64;

/// Multiply–add count below which the tiled kernels stay serial: thread
/// spawn costs more than the arithmetic saves on small operands.
const PAR_MIN_FLOPS: usize = 1 << 16;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector. `data.len()` must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Build from nested rows (primarily for tests and doc examples).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged input");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other` using the cache-friendly i-k-j loop
    /// order (streams through rows of both operands). Large products are
    /// split into independent row tiles evaluated on rayon workers; each
    /// output element accumulates in the same k-ascending order either
    /// way, so the result is bit-identical to the serial loop.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let flops = self.rows * self.cols * other.cols;
        row_tiled(self.rows, other.cols, flops, |r0, buf| {
            let out_cols = other.cols;
            for (ti, i) in (r0..).zip(0..buf.len() / out_cols) {
                let a_row = self.row(ti);
                let o_row = &mut buf[i * out_cols..(i + 1) * out_cols];
                for (k, &a_ik) in a_row.iter().enumerate() {
                    if a_ik == 0.0 {
                        continue;
                    }
                    axpy(a_ik, other.row(k), o_row);
                }
            }
        })
    }

    /// `selfᵀ * other` without materializing the transpose: both operands
    /// are streamed row by row, accumulating rank-one contributions in
    /// row-index-ascending order — the exact order a per-sample gradient
    /// loop accumulates, which keeps batched backprop bit-identical to the
    /// per-sample reference. Tiled over *output* rows for parallelism.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: row counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let flops = self.rows * self.cols * other.cols;
        row_tiled(self.cols, other.cols, flops, |r0, buf| {
            let out_cols = other.cols;
            let tile_rows = buf.len() / out_cols;
            for i in 0..self.rows {
                let a_row = self.row(i);
                let b_row = other.row(i);
                for t in 0..tile_rows {
                    let a_io = a_row[r0 + t];
                    let o_row = &mut buf[t * out_cols..(t + 1) * out_cols];
                    axpy(a_io, b_row, o_row);
                }
            }
        })
    }

    /// Batched affine layer map: `out[i][o] = bias[o] + Σ_k self[i][k] *
    /// w[o][k]`, with the sum folded *starting from the bias* in
    /// k-ascending order — the same floating-point grouping as the scalar
    /// per-sample forward pass (`s = b; s += w·a`), so batching a network
    /// forward through this kernel changes nothing in the low bits. `w` is
    /// `outputs x inputs`, matching layer weight storage.
    pub fn affine_nt(&self, w: &Matrix, bias: &[f64]) -> Matrix {
        assert_eq!(
            self.cols, w.cols,
            "affine_nt: input widths differ ({}x{} vs {}x{})",
            self.rows, self.cols, w.rows, w.cols
        );
        assert_eq!(w.rows, bias.len(), "affine_nt: bias length mismatch");
        let flops = self.rows * self.cols * w.rows;
        row_tiled(self.rows, w.rows, flops, |r0, buf| {
            let out_cols = w.rows;
            for (ti, i) in (r0..).zip(0..buf.len() / out_cols) {
                let a_row = self.row(ti);
                let o_row = &mut buf[i * out_cols..(i + 1) * out_cols];
                for (o, out) in o_row.iter_mut().enumerate() {
                    let mut s = bias[o];
                    for (&a, &wv) in a_row.iter().zip(w.row(o)) {
                        s += wv * a;
                    }
                    *out = s;
                }
            }
        })
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Gram matrix `selfᵀ * self` (symmetric; only the upper triangle is
    /// computed then mirrored). This is the hot kernel of OLS fitting.
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for row in 0..self.rows {
            let r = self.row(row);
            for j in 0..p {
                let rj = r[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..p {
                    g[(j, k)] += rj * r[k];
                }
            }
        }
        for j in 0..p {
            for k in 0..j {
                g[(j, k)] = g[(k, j)];
            }
        }
        g
    }

    /// `selfᵀ * v` — the right-hand side of the normal equations.
    pub(crate) fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += a * vi;
            }
        }
        out
    }

    /// New matrix keeping only the listed columns, in the given order.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = src[c];
            }
        }
        out
    }

    /// New matrix keeping only the listed rows, in the given order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (dst_i, &src_i) in rows.iter().enumerate() {
            out.row_mut(dst_i).copy_from_slice(self.row(src_i));
        }
        out
    }

    /// Horizontally append a column.
    pub fn hstack_col(&self, col: &[f64]) -> Matrix {
        assert_eq!(col.len(), self.rows, "hstack_col: row count mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out[(i, self.cols)] = col[i];
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Element-wise scale in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(10) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 10 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Evaluate a matrix kernel over independent tiles of output rows.
///
/// `fill(r0, buf)` must write output rows `r0 .. r0 + buf.len() / out_cols`
/// into the zero-initialized row-major `buf`. Small jobs (under
/// [`PAR_MIN_FLOPS`] multiply–adds) run as one serial tile; large ones fan
/// out one tile per [`TILE_ROWS`] rows across rayon workers and stitch the
/// buffers back in order. Tiling never changes any output element's
/// accumulation order, only which thread computes it.
fn row_tiled(
    out_rows: usize,
    out_cols: usize,
    flops: usize,
    fill: impl Fn(usize, &mut [f64]) + Sync,
) -> Matrix {
    if out_rows == 0 || out_cols == 0 {
        return Matrix::zeros(out_rows, out_cols);
    }
    if flops < PAR_MIN_FLOPS || out_rows <= TILE_ROWS {
        let mut data = vec![0.0; out_rows * out_cols];
        fill(0, &mut data);
        return Matrix::from_vec(out_rows, out_cols, data);
    }
    let n_tiles = out_rows.div_ceil(TILE_ROWS);
    let tiles: Vec<Vec<f64>> = (0..n_tiles)
        .into_par_iter()
        .map(|t| {
            let r0 = t * TILE_ROWS;
            let r1 = ((t + 1) * TILE_ROWS).min(out_rows);
            let mut buf = vec![0.0; (r1 - r0) * out_cols];
            fill(r0, &mut buf);
            buf
        })
        .collect();
    let mut data = Vec::with_capacity(out_rows * out_cols);
    for tile in tiles {
        data.extend_from_slice(&tile);
    }
    Matrix::from_vec(out_rows, out_cols, data)
}

/// Dot product of two equal-length slices, summed left to right from
/// `-0.0` (the fold std's `Sum` for `f64` uses).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `out += s * a`, the axpy kernel: the inner row update of `matmul`
/// and `matmul_tn`.
#[inline]
fn axpy(s: f64, a: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o += s * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * j) as f64).sin() + 0.5);
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a);
        for i in 0..4 {
            for j in 0..4 {
                assert!((g1[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn t_matvec_matches_transpose_matvec() {
        let a = Matrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64);
        let v = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        assert_eq!(a.t_matvec(&v), a.transpose().matvec(&v));
    }

    #[test]
    fn select_cols_and_rows() {
        let a = Matrix::from_fn(3, 4, |i, j| (10 * i + j) as f64);
        let s = a.select_cols(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(2), &[23.0, 21.0]);
        let r = a.select_rows(&[2, 0]);
        assert_eq!(r.row(0), a.row(2));
        assert_eq!(r.row(1), a.row(0));
    }

    #[test]
    fn hstack_col_appends() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = a.hstack_col(&[9.0, 8.0]);
        assert_eq!(b.row(0), &[1.0, 9.0]);
        assert_eq!(b.row(1), &[2.0, 8.0]);
    }

    #[test]
    fn axpy_and_norms() {
        let mut out = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![21.0, 42.0, 63.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn scale_mut_scales_all_elements() {
        let mut m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, -4.0]]);
        m.scale_mut(-0.5);
        assert_eq!(m.row(0), &[-0.5, 1.0]);
        assert_eq!(m.row(1), &[-1.5, 2.0]);
    }

    #[test]
    fn from_fn_evaluates_positionally() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
