//! Property tests pinning every dense `linalg` kernel bit for bit to a
//! naive reference loop written here, in the kernel's documented fold
//! order: `matmul` and `matvec` sum k-ascending, `matmul_tn` sums
//! row-ascending, `affine_nt` folds bias-first then k-ascending, and
//! `dot` folds left to right from `-0.0`.
//!
//! Shapes cover 0, 1, and sizes either side of a 4-wide vector lane, so
//! any future vectorized kernel must keep its remainder handling exact;
//! one larger case checks operands of realistic training size against the
//! same references.

use linalg::matrix::{dot, Matrix};
use proptest::prelude::*;

fn dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13])
}

/// Enough elements for any shape `dim()` can produce (13 * 13 = 169).
fn pool() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, 169usize)
}

fn shaped(rows: usize, cols: usize, pool: &[f64]) -> Matrix {
    Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut s = 0.0;
        for k in 0..a.cols() {
            s += a[(i, k)] * b[(k, j)];
        }
        s
    })
}

fn ref_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols(), b.cols(), |o, j| {
        let mut s = 0.0;
        for i in 0..a.rows() {
            s += a[(i, o)] * b[(i, j)];
        }
        s
    })
}

fn ref_affine_nt(a: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
    Matrix::from_fn(a.rows(), w.rows(), |i, o| {
        let mut s = bias[o];
        for k in 0..a.cols() {
            s += w[(o, k)] * a[(i, k)];
        }
        s
    })
}

fn ref_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = -0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, kernel: &str) {
    assert_eq!(got.rows(), want.rows(), "{kernel} rows");
    assert_eq!(got.cols(), want.cols(), "{kernel} cols");
    for i in 0..got.rows() {
        for (j, (x, y)) in got.row(i).iter().zip(want.row(i)).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{kernel} ({i}, {j}): kernel {x} vs reference {y}"
            );
        }
    }
}

proptest! {
    #[test]
    fn matmul_matches_reference(
        m in dim(), k in dim(), n in dim(), da in pool(), db in pool(),
    ) {
        let a = shaped(m, k, &da);
        let b = shaped(k, n, &db);
        assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), "matmul");
    }

    #[test]
    fn matmul_tn_matches_reference(
        k in dim(), m in dim(), n in dim(), da in pool(), db in pool(),
    ) {
        let at = shaped(k, m, &da);
        let b = shaped(k, n, &db);
        assert_bits_eq(&at.matmul_tn(&b), &ref_matmul_tn(&at, &b), "matmul_tn");
    }

    #[test]
    fn affine_nt_matches_reference(
        m in dim(), k in dim(), o in dim(), da in pool(), dw in pool(), dbias in pool(),
    ) {
        let a = shaped(m, k, &da);
        let w = shaped(o, k, &dw);
        let bias = &dbias[..o];
        assert_bits_eq(&a.affine_nt(&w, bias), &ref_affine_nt(&a, &w, bias), "affine_nt");
    }

    #[test]
    fn matvec_and_dot_match_reference(
        m in dim(), k in dim(), da in pool(), dv in pool(),
    ) {
        let a = shaped(m, k, &da);
        let v = &dv[..k];
        let got = a.matvec(v);
        prop_assert_eq!(got.len(), m);
        for (i, p) in got.iter().enumerate() {
            let want = ref_dot(a.row(i), v);
            prop_assert_eq!(p.to_bits(), want.to_bits(), "matvec row {}", i);
            let d = dot(a.row(i), v);
            prop_assert_eq!(d.to_bits(), want.to_bits(), "dot row {}", i);
        }
    }

    /// Zeros in the left operand take `matmul`'s skip branch; sprinkle
    /// them explicitly (including rows that become entirely zero) and
    /// check against the reference, which has no skip.
    #[test]
    fn matmul_zero_skip_matches_reference(
        m in dim(), k in dim(), n in dim(),
        da in pool(), db in pool(),
        zero_every in 1usize..4,
    ) {
        let mut a = shaped(m, k, &da);
        let b = shaped(k, n, &db);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if (i + j) % zero_every == 0 {
                    a[(i, j)] = 0.0;
                }
            }
        }
        assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), "matmul(zero-skip)");
    }
}

#[test]
fn one_by_one_and_empty_shapes_match_reference() {
    for (m, k, n) in [
        (1, 1, 1),
        (0, 0, 0),
        (1, 0, 1),
        (0, 3, 2),
        (3, 1, 1),
        (2, 0, 3),
    ] {
        let a = Matrix::from_fn(m, k, |i, j| (i as f64 + 1.3) * (j as f64 - 0.7));
        let b = Matrix::from_fn(k, n, |i, j| (i as f64 - 2.1) * (j as f64 + 0.4));
        assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), "matmul");
        let at = a.transpose();
        let bt = Matrix::from_fn(k, n, |i, j| (i as f64 - 0.9) * (j as f64 + 1.1));
        assert_bits_eq(&at.matmul_tn(&bt), &ref_matmul_tn(&at, &bt), "matmul_tn");
        let w = b.transpose();
        let bias: Vec<f64> = (0..n).map(|o| o as f64 * 0.25 - 0.5).collect();
        assert_bits_eq(
            &a.affine_nt(&w, &bias),
            &ref_affine_nt(&a, &w, &bias),
            "affine_nt",
        );
        let v: Vec<f64> = (0..k).map(|j| j as f64 - 0.5).collect();
        let mv = a.matvec(&v);
        for (i, p) in mv.iter().enumerate() {
            assert_eq!(p.to_bits(), ref_dot(a.row(i), &v).to_bits(), "matvec");
        }
    }
}

/// A case above 2^16 multiply-adds with more than 64 output rows, which
/// must still match the serial references bit for bit.
#[test]
fn tiled_shapes_match_reference() {
    let (m, k, n) = (150, 40, 30);
    assert!(m * k * n > 1 << 16 && m > 64);
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) as f64).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 3) as f64).cos());
    assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), "matmul(large)");

    // matmul_tn's output rows are `a`'s columns.
    let at = Matrix::from_fn(k, m, |i, j| ((i * 17 + j * 5) as f64).sin());
    let bt = Matrix::from_fn(k, 2 * n, |i, j| ((i * 11 + j * 2) as f64).cos());
    assert!(k * m * 2 * n > 1 << 16);
    assert_bits_eq(
        &at.matmul_tn(&bt),
        &ref_matmul_tn(&at, &bt),
        "matmul_tn(large)",
    );

    let w = Matrix::from_fn(n, k, |i, j| ((i * 7 + j) as f64).cos() * 0.3);
    let bias: Vec<f64> = (0..n).map(|o| o as f64 * 0.01 - 0.1).collect();
    assert_bits_eq(
        &a.affine_nt(&w, &bias),
        &ref_affine_nt(&a, &w, &bias),
        "affine_nt(large)",
    );
}
