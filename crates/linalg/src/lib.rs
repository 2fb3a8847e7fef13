//! Dense linear algebra and statistics kernels for `perfpredict`.
//!
//! Everything the ML layer needs is implemented here from scratch:
//!
//! * [`Matrix`] / vector helpers — row-major dense storage with the handful
//!   of operations ordinary least squares and backpropagation require
//!   (multiply, transpose, Gram products).
//! * [`solve`] — Cholesky and Householder-QR least-squares solvers with a
//!   ridge fallback for rank-deficient normal equations.
//! * [`special`] — log-gamma, regularized incomplete beta, and the F/t/normal
//!   distribution functions that drive the stepwise-regression partial-F
//!   tests.
//! * [`stats`] — descriptive statistics (mean, variance, geometric mean,
//!   correlation, percentiles) used throughout the evaluation harness.
//! * [`dist`] — seeded samplers (normal, log-normal, categorical, Zipf)
//!   backing the synthetic workload and SPEC-announcement generators.
//!
//! The crate is deliberately dependency-light (only `rand` for the PRNG and
//! `serde` for dataset persistence); no external BLAS or ML crates are used.

pub mod dist;
pub mod gram;
pub mod matrix;
pub mod solve;
pub mod special;
pub mod stats;

pub use matrix::Matrix;
pub use solve::{lstsq_ridge, solve_qr, try_lstsq, LstsqMethod};
