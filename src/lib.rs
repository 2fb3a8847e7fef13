//! # perfpredict
//!
//! Machine-learning surrogate models for computer-system design-space
//! exploration — a from-scratch Rust reproduction of *Ozisikyilmaz, Memik &
//! Choudhary, "Machine Learning Models to Predict Performance of Computer
//! System Design Alternatives", ICPP 2008*.
//!
//! The paper's idea: instead of simulating (or building) every point of a
//! huge design space, simulate a **1–5 % sample**, train a predictive model
//! — linear regression or a neural network — and let it estimate the rest;
//! or train on **last year's** published SPEC results and predict next
//! year's systems.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`linalg`] | dense matrices, least-squares solvers, special functions, seeded sampling |
//! | [`cpusim`] | trace-driven out-of-order CPU simulator (the SimpleScalar substitute), 4608-point Table-1 design space, SimPoint-style phase analysis |
//! | [`specdata`] | synthetic SPEC CPU2000 announcement database (32 parameters, seven processor families, 1999-2006 trends) |
//! | [`mlmodels`] | the nine Clementine models + NN-S: OLS with Enter/Forward/Backward/Stepwise selection, MLP networks with six training methods, 5×50 % cross-validation |
//! | [`dse`] | the two workflows: sampled design-space exploration and chronological prediction, plus the *select* method |
//! | [`telemetry`] | observability: hierarchical timed spans, rayon-safe counters, progress, console + JSON-lines run manifests |
//! | [`error`] (crate `fault`) | typed error hierarchy, process exit codes, and resumable JSONL checkpoints shared by every fallible layer |
//!
//! ## Quickstart
//!
//! ```no_run
//! use perfpredict::cpusim::{Benchmark, DesignSpace, SimOptions};
//! use perfpredict::dse::sampled::{try_run_sampled_dse, SampledConfig, SamplingStrategy};
//! use perfpredict::mlmodels::ModelKind;
//!
//! // Simulate the full 4608-point space once, train NN-E on a 1% sample,
//! // and measure its true error over the whole space.
//! let space = DesignSpace::table1();
//! let cfg = SampledConfig {
//!     sampling_rates: vec![0.01],
//!     strategy: SamplingStrategy::Random,
//!     models: vec![ModelKind::NnE],
//!     sim: SimOptions::default(),
//!     seed: 42,
//!     estimate_errors: true,
//!     export_models: None,
//! };
//! let run = try_run_sampled_dse(Benchmark::Mcf, &space, &cfg, None, None)?;
//! let point = run.point(ModelKind::NnE, 0.01).unwrap();
//! println!("NN-E true error at 1% sampling: {:.2}%", point.true_error);
//! # Ok::<(), perfpredict::error::Error>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harnesses that regenerate every table and figure in the paper.

pub use cpusim;
pub use dse;
pub use fault as error;
pub use linalg;
pub use mlmodels;
pub use serve;
pub use specdata;
pub use telemetry;
