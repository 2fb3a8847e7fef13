//! `dse` — the paper's two design-space-exploration workflows (Figure 1).
//!
//! * [`sampled`] — **sampled design-space exploration** (§2, §4.2): sweep
//!   the 4608-point microprocessor space with the [`cpusim`] simulator,
//!   train each model on a random 1–5 % sample, estimate its error with the
//!   §3.3 cross-validation protocol, and measure the *true* error against
//!   the full space.
//! * [`chrono`] — **chronological predictive modelling** (§2, §4.3): train
//!   on one year of [`specdata`] announcements and predict the next.
//! * [`selectbest`] — the *select* method (§4.4, Table 3): pick the model
//!   with the best estimated error and use it for the predictions.
//! * [`adaptive`] — query-by-committee active learning, an extension past
//!   the paper's one-shot random sampling.
//! * [`data`] — adapters turning simulator sweeps and SPEC announcements
//!   into [`mlmodels::Table`]s.
//! * [`report`] — plain-text table/series formatting shared by the
//!   reproduction harnesses.
//! * [`faultinject`] — deterministic fault injectors (NaN cycles,
//!   collinear columns, divergent configs, truncated checkpoints) backing
//!   the robustness test suite.
//!
//! Each workflow has one entry point, a `try_*` function returning typed
//! [`fault::Error`]s; the sampled and sweep forms also accept a
//! `--checkpoint` JSONL path for kill-and-resume operation.

pub mod adaptive;
pub mod chrono;
pub mod data;
pub mod faultinject;
pub mod report;
pub mod sampled;
pub mod selectbest;

pub use adaptive::{try_run_adaptive, AdaptiveConfig, AdaptiveResult, EvalMode, TrajectoryPoint};
pub use chrono::{try_run_chronological, ChronoConfig, ChronoResult};
pub use sampled::{
    try_run_sampled_dse, DroppedFit, SampledConfig, SampledPoint, SampledRun, SamplingStrategy,
};
pub use selectbest::{try_select_method_error, SelectOutcome};
