//! `fault` — the typed error hierarchy and checkpoint machinery behind
//! perfpredict's fault tolerance.
//!
//! The paper's premise is that surrogate models replace expensive
//! simulation sweeps; a production pipeline built on that idea has to
//! survive the failure modes the paper itself observes — networks that
//! diverge or over-fit (§4.3), degenerate design matrices produced by
//! near-constant samples, and long sweeps that die halfway. This crate
//! gives every layer a shared vocabulary for those failures:
//!
//! * [`Error`] — the typed hierarchy ([`Error::SingularSystem`],
//!   [`Error::Diverged`], [`Error::DegenerateData`], [`Error::Io`],
//!   [`Error::Checkpoint`], …) returned by the fallible cores
//!   (`linalg::solve::try_lstsq`, `mlmodels::try_train`,
//!   `cpusim::runner::try_sweep_design_space`, `dse::try_run_sampled_dse`).
//! * [`Error::exit_code`] — the CLI's error-to-exit-code mapping, so shell
//!   drivers can distinguish bad input from numeric failure from a
//!   corrupted checkpoint.
//! * [`checkpoint`] — append-only JSONL checkpoint files shared by the
//!   simulator sweep and the sampled-DSE model fits, tolerant of a
//!   truncated final line (the signature a `kill -9` leaves behind).
//! * [`args`] — the table-driven argv parser of the CLI verbs and the
//!   harnesses: any misuse is [`Error::InvalidInput`], exit 2.

pub mod args;
pub mod checkpoint;

use std::fmt;

/// Alias for results carrying the perfpredict [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Every failure the pipeline can surface, from the numeric cores up to
/// the CLI. Variants carry enough context to be actionable in a log line.
#[derive(Debug)]
pub enum Error {
    /// A linear system was singular (rank-deficient) to working precision
    /// and no factorization produced finite coefficients.
    SingularSystem {
        /// What was being solved (e.g. `"lstsq 24x3"`).
        context: String,
    },
    /// Iterative training left the finite domain and retries were
    /// exhausted.
    Diverged {
        /// Epoch (or iteration) at which divergence was detected.
        epoch: usize,
        /// The non-finite (or exploded) loss observed there.
        loss: f64,
    },
    /// Input data cannot support a fit: empty/too-few rows, non-finite
    /// values, constant targets where variation is required, and so on.
    DegenerateData {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// An I/O operation failed.
    Io {
        /// Path involved (empty when unknown).
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint file is unusable: corrupt before its final line, or
    /// written by an incompatible run (different benchmark, space, seed).
    Checkpoint {
        /// Checkpoint path.
        path: String,
        /// What is wrong with it.
        detail: String,
    },
    /// A model-artifact file is unusable: truncated, checksum mismatch,
    /// unknown format version, or structurally malformed payload.
    Artifact {
        /// Artifact path (or a label for in-memory sources).
        path: String,
        /// What is wrong with it.
        detail: String,
    },
    /// User-supplied input (CLI argument, configuration field) is invalid.
    InvalidInput {
        /// What was rejected and why.
        detail: String,
    },
    /// Every candidate model in a selection set failed; carries the
    /// per-candidate reasons so the degradation is recorded, not silent.
    NoViableModel {
        /// `(candidate, reason)` pairs, in candidate order.
        reasons: Vec<(String, String)>,
    },
    /// A perf-report comparison found at least one metric regressed
    /// beyond the threshold. The run itself succeeded — this is a
    /// verdict, distinguished from operational failures by exit code 6.
    Regression {
        /// Metrics over threshold, worst first (e.g. `"serve/p99_ms 2.31x"`).
        metrics: Vec<String>,
    },
    /// The serving daemon's bounded admission queue is full and the
    /// request was load-shed. This is the *typed* rejection the
    /// daemon's backpressure contract requires — a shed request always
    /// produces one of these, never a silent drop.
    Overloaded {
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
        /// Configured admission-queue capacity.
        capacity: usize,
    },
    /// A request's deadline expired before the predict path reached it;
    /// the daemon fails closed (no late prediction is served).
    DeadlineExceeded {
        /// How long the request waited, milliseconds.
        waited_ms: u64,
        /// The deadline it carried, milliseconds.
        deadline_ms: u64,
    },
    /// A model version (or the whole registry) is quarantined: a reload
    /// produced a corrupt artifact and no healthy version remains for
    /// the route. As a daemon termination error it means *every*
    /// registered model is quarantined — nothing left to serve.
    Quarantined {
        /// The model route (name or `name@version`), or `"*"` when the
        /// whole registry is down.
        model: String,
        /// Why the version(s) went dark.
        detail: String,
    },
}

impl Error {
    /// Convenience constructor for [`Error::DegenerateData`].
    pub fn degenerate(reason: impl Into<String>) -> Error {
        Error::DegenerateData {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`Error::SingularSystem`].
    pub fn singular(context: impl Into<String>) -> Error {
        Error::SingularSystem {
            context: context.into(),
        }
    }

    /// Convenience constructor for [`Error::InvalidInput`].
    pub fn invalid(detail: impl Into<String>) -> Error {
        Error::InvalidInput {
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`Error::Checkpoint`].
    pub fn checkpoint(path: impl Into<String>, detail: impl Into<String>) -> Error {
        Error::Checkpoint {
            path: path.into(),
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`Error::Artifact`].
    pub fn artifact(path: impl Into<String>, detail: impl Into<String>) -> Error {
        Error::Artifact {
            path: path.into(),
            detail: detail.into(),
        }
    }

    /// Attach a path to an I/O error.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Error {
        Error::Io {
            path: path.into(),
            source,
        }
    }

    /// Convenience constructor for [`Error::Overloaded`].
    pub fn overloaded(queue_depth: usize, capacity: usize) -> Error {
        Error::Overloaded {
            queue_depth,
            capacity,
        }
    }

    /// Convenience constructor for [`Error::DeadlineExceeded`].
    pub fn deadline(waited_ms: u64, deadline_ms: u64) -> Error {
        Error::DeadlineExceeded {
            waited_ms,
            deadline_ms,
        }
    }

    /// Convenience constructor for [`Error::Quarantined`].
    pub fn quarantined(model: impl Into<String>, detail: impl Into<String>) -> Error {
        Error::Quarantined {
            model: model.into(),
            detail: detail.into(),
        }
    }

    /// The process exit code the CLI maps this error to:
    ///
    /// | code | meaning |
    /// |---|---|
    /// | 2 | invalid input (bad argument, unknown benchmark/family) |
    /// | 3 | I/O failure |
    /// | 4 | checkpoint or model artifact corrupt or incompatible |
    /// | 5 | numeric/model failure (singular, diverged, degenerate, no viable model) |
    /// | 6 | performance regression verdict from `perf-report` |
    /// | 7 | service unavailable: admission queue overloaded or deadline missed |
    /// | 8 | every registered model version is quarantined — fail-closed termination |
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::InvalidInput { .. } => 2,
            Error::Io { .. } => 3,
            Error::Checkpoint { .. } | Error::Artifact { .. } => 4,
            Error::SingularSystem { .. }
            | Error::Diverged { .. }
            | Error::DegenerateData { .. }
            | Error::NoViableModel { .. } => 5,
            Error::Regression { .. } => 6,
            Error::Overloaded { .. } | Error::DeadlineExceeded { .. } => 7,
            Error::Quarantined { .. } => 8,
        }
    }

    /// Short machine-friendly tag for telemetry attributes and checkpoint
    /// records (`singular`, `diverged`, `degenerate`, `io`, `checkpoint`,
    /// `artifact`, `invalid`, `no_viable_model`, `regression`,
    /// `overloaded`, `deadline`, `quarantined`).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::SingularSystem { .. } => "singular",
            Error::Diverged { .. } => "diverged",
            Error::DegenerateData { .. } => "degenerate",
            Error::Io { .. } => "io",
            Error::Checkpoint { .. } => "checkpoint",
            Error::Artifact { .. } => "artifact",
            Error::InvalidInput { .. } => "invalid",
            Error::NoViableModel { .. } => "no_viable_model",
            Error::Regression { .. } => "regression",
            Error::Overloaded { .. } => "overloaded",
            Error::DeadlineExceeded { .. } => "deadline",
            Error::Quarantined { .. } => "quarantined",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SingularSystem { context } => {
                write!(f, "singular system: {context}")
            }
            Error::Diverged { epoch, loss } => {
                write!(f, "training diverged at epoch {epoch} (loss {loss})")
            }
            Error::DegenerateData { reason } => write!(f, "degenerate data: {reason}"),
            Error::Io { path, source } => {
                if path.is_empty() {
                    write!(f, "I/O error: {source}")
                } else {
                    write!(f, "I/O error on {path}: {source}")
                }
            }
            Error::Checkpoint { path, detail } => {
                write!(f, "checkpoint {path}: {detail}")
            }
            Error::Artifact { path, detail } => {
                write!(f, "model artifact {path}: {detail}")
            }
            Error::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            Error::NoViableModel { reasons } => {
                write!(f, "no viable model among {} candidates:", reasons.len())?;
                for (cand, why) in reasons {
                    write!(f, " [{cand}: {why}]")?;
                }
                Ok(())
            }
            Error::Regression { metrics } => {
                write!(f, "performance regression in {} metric(s):", metrics.len())?;
                for m in metrics {
                    write!(f, " [{m}]")?;
                }
                Ok(())
            }
            Error::Overloaded {
                queue_depth,
                capacity,
            } => {
                write!(
                    f,
                    "overloaded: admission queue at {queue_depth}/{capacity}, request shed"
                )
            }
            Error::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            } => {
                write!(
                    f,
                    "deadline exceeded: waited {waited_ms} ms against a {deadline_ms} ms deadline"
                )
            }
            Error::Quarantined { model, detail } => {
                write!(f, "model {model} quarantined: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(source: std::io::Error) -> Error {
        Error::Io {
            path: String::new(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(Error::invalid("bad flag").exit_code(), 2);
        assert_eq!(Error::io("x", std::io::Error::other("e")).exit_code(), 3);
        assert_eq!(Error::checkpoint("p", "corrupt").exit_code(), 4);
        assert_eq!(Error::artifact("m.ppm", "bad checksum").exit_code(), 4);
        assert_eq!(Error::singular("lstsq").exit_code(), 5);
        assert_eq!(
            Error::Diverged {
                epoch: 3,
                loss: f64::NAN
            }
            .exit_code(),
            5
        );
        assert_eq!(Error::degenerate("constant target").exit_code(), 5);
        assert_eq!(Error::NoViableModel { reasons: vec![] }.exit_code(), 5);
        assert_eq!(Error::Regression { metrics: vec![] }.exit_code(), 6);
        assert_eq!(Error::overloaded(1024, 1024).exit_code(), 7);
        assert_eq!(Error::deadline(120, 50).exit_code(), 7);
        assert_eq!(
            Error::quarantined("mcf@2", "checksum mismatch").exit_code(),
            8
        );
    }

    #[test]
    fn display_carries_context() {
        let e = Error::singular("lstsq 24x3");
        assert!(e.to_string().contains("lstsq 24x3"));
        let e = Error::Diverged {
            epoch: 17,
            loss: f64::INFINITY,
        };
        assert!(e.to_string().contains("epoch 17"));
        let e = Error::NoViableModel {
            reasons: vec![("NN-E".into(), "diverged".into())],
        };
        let s = e.to_string();
        assert!(s.contains("NN-E") && s.contains("diverged"), "{s}");
        let e = Error::Regression {
            metrics: vec!["serve/p99_ms 2.31x".into()],
        };
        let s = e.to_string();
        assert!(s.contains("serve/p99_ms 2.31x"), "{s}");
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(Error::singular("x").kind(), "singular");
        assert_eq!(Error::degenerate("x").kind(), "degenerate");
        assert_eq!(Error::checkpoint("p", "d").kind(), "checkpoint");
        assert_eq!(Error::artifact("p", "d").kind(), "artifact");
        assert_eq!(Error::Regression { metrics: vec![] }.kind(), "regression");
        assert_eq!(Error::overloaded(8, 8).kind(), "overloaded");
        assert_eq!(Error::deadline(9, 5).kind(), "deadline");
        assert_eq!(Error::quarantined("m", "d").kind(), "quarantined");
    }

    #[test]
    fn serving_errors_carry_actionable_context() {
        let s = Error::overloaded(512, 512).to_string();
        assert!(s.contains("512/512") && s.contains("shed"), "{s}");
        let s = Error::deadline(120, 50).to_string();
        assert!(s.contains("120 ms") && s.contains("50 ms"), "{s}");
        let s = Error::quarantined("mcf@3", "payload checksum mismatch").to_string();
        assert!(s.contains("mcf@3") && s.contains("checksum"), "{s}");
    }

    #[test]
    fn io_errors_convert() {
        fn fails() -> Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))?;
            Ok(())
        }
        match fails() {
            Err(Error::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
