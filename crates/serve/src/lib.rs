//! `serve` — the batched prediction service over exported model artifacts.
//!
//! The paper's pay-off (§4.2) is that a surrogate trained on 1–5 % of a
//! design space answers for the rest of it; this crate is where those
//! answers are actually served. It replays JSONL configuration requests
//! against a [`mlmodels::ModelArtifact`] with the throughput posture of a
//! real inference tier:
//!
//! * `request` — parse JSONL requests and validate each configuration
//!   against the artifact's [`mlmodels::TableSchema`] (typed
//!   `InvalidInput` errors naming the offending line and field, never a
//!   panic deep in the preprocessor).
//! * [`cache`] — a bounded LRU surrogate cache keyed on canonicalized
//!   configuration vectors; design-space replays are heavily repetitive,
//!   so hot configs skip the model entirely.
//! * [`daemon`] — the one request loop. [`Daemon::replay`] is one-shot
//!   `serve`: a finite stream read on the calling thread, cut into
//!   windows of exactly `window` frames. [`Daemon::run`] and
//!   [`Daemon::run_socket`] are the long-lived daemon: a reader thread
//!   feeds a bounded admission queue. Both serve each window the same
//!   way — cache misses are deduplicated and predicted in matrix form,
//!   split into contiguous row chunks across `telemetry::par_map` workers
//!   when the window holds enough of them to pay for the threads, so
//!   output is bit-identical whether one thread runs or eight do, and
//!   responses come back in request order with one write per window.
//! * [`registry`] — the hosted models and their versions, with
//!   quarantine of corrupt artifacts.
//! * [`workload`] — a seeded request generator that samples the schema's
//!   observed value domains, for smoke tests and benchmarks.
//!
//! Telemetry: each window is a `serve/read` (one-shot only),
//! `serve/parse`, `serve/validate` and `serve/batch` (per route, with
//! the cache probe and dedup as its `serve/probe` child),
//! `serve/render` and `serve/write` span,
//! and the loop maintains `serve/requests`, `serve/cache_hits`,
//! `serve/cache_misses`, `serve/predictions`, and queue-depth / latency
//! gauges alongside the [`DaemonStats`] it returns.

pub(crate) mod admission;
pub mod cache;
pub mod compiled;
pub(crate) mod core;
pub mod daemon;
pub mod registry;
pub(crate) mod request;
pub mod workload;

pub use admission::AdmissionQueue;
pub use cache::LruCache;
pub use compiled::{compile_with, CompiledModel, Precision};
pub use daemon::{Daemon, DaemonConfig, DaemonStats};
pub use registry::{Registry, RegistryConfig};
pub use request::{parse_request_line, Request};
pub use workload::generate_requests;
