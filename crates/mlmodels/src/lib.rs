//! `mlmodels` — the paper's predictive models, built from scratch.
//!
//! Section 3 of the paper uses nine models from SPSS Clementine plus one
//! Ipek-style baseline; this crate re-implements all of them over the
//! numerics in [`linalg`]:
//!
//! * **Linear regression** ([`linreg`], [`select`]) — ordinary least squares
//!   with four predictor-selection strategies: Enter (all predictors),
//!   Forward, Backward, and Stepwise, driven by partial-F tests with the
//!   SPSS default entry/removal p-values (0.05 / 0.10). Standardized beta
//!   coefficients are reported for the §4.4 importance discussion.
//! * **Neural networks** ([`nn`], [`methods`]) — a feed-forward multilayer
//!   perceptron trained by backpropagation with momentum, wrapped by six
//!   training drivers mirroring Clementine's: Quick (NN-Q), Dynamic (NN-D,
//!   grows the hidden layer), Multiple (NN-M, multi-start over topologies),
//!   Prune (NN-P), Exhaustive Prune (NN-E, the slow-and-thorough variant),
//!   and the Single-layer constant-learning-rate NN-S the paper compares to
//!   Ipek et al.
//! * **Data preparation** ([`table`], [`prep`]) — typed tabular data
//!   (numeric / flag / categorical), 0–1 input scaling, one-hot encoding for
//!   networks, numeric coding or omission of categoricals for regression,
//!   and zero-variance predictor elimination — the §3.4 Clementine
//!   behaviours.
//! * **Error estimation** ([`crossval`]) — the §3.3 protocol: five random
//!   50 % splits of the training data, cross-validated; the *maximum* of
//!   the five estimated errors is the reported estimate.
//! * **Importance** ([`importance`]) — NN sensitivity analysis and LR
//!   standardized betas (§4.4).
//!
//! The unified entry point is [`model::try_train`], which dispatches a
//! [`model::ModelKind`] to the right pipeline and returns a trained model
//! that carries its own preprocessing.

pub mod artifact;
pub mod crossval;
pub(crate) mod gramcache;
pub mod importance;
pub mod linreg;
pub(crate) mod methods;
pub mod model;
pub mod nn;
pub mod prep;
pub mod select;
pub mod table;

pub use artifact::{ModelArtifact, TableSchema};
pub use model::{try_train, ModelKind, TrainedModel};
pub use table::{Column, Table};
