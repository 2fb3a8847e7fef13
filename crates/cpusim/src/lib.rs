//! `cpusim` — a trace-driven out-of-order microprocessor simulator.
//!
//! This crate is the reproduction's substitute for the SimpleScalar
//! `sim-outorder` + SPEC CPU2000 + SimPoint stack used by Section 4.1/4.2 of
//! the paper. It provides:
//!
//! * [`config`] — the 24 Table-1 microarchitecture parameters and the
//!   canonical 4608-point design-space lattice.
//! * [`workload`] — synthetic per-benchmark workload profiles (applu,
//!   equake, gcc, mesa, mcf, and friends) capturing op mix, memory
//!   footprint/locality, branch behaviour, and ILP.
//! * [`trace`] — a deterministic, seeded instruction-stream generator; the
//!   same (benchmark, seed) pair always yields the same trace so that
//!   cross-configuration cycle differences are attributable to the
//!   configuration alone.
//! * [`cache`] / [`tlb`] — set-associative LRU caches and TLBs.
//! * [`bpred`] — perfect, bimodal, two-level (gshare), and combining
//!   (tournament) branch predictors.
//! * [`core`] — the cycle-level pipeline model: fetch, dispatch into a
//!   Register Update Unit (SimpleScalar's unified ROB/reservation-station),
//!   a load/store queue, per-class functional units, mispredict recovery,
//!   and optional wrong-path issue.
//! * [`simpoint`] — basic-block-vector phase analysis with k-means, the
//!   SimPoint-style representative-interval picker.
//! * [`prefetch`] — next-line and stride prefetchers (a library extension
//!   past Table 1; see the `ablation_prefetch` harness).
//! * [`runner`] — the high-level `(benchmark, config) -> cycles` entry point
//!   and the Rayon-parallel full-design-space sweep.
//!
//! The simulator is *mechanistic*: cycles emerge from queue occupancy, cache
//! misses, and mispredict flushes — not from a closed-form formula — so the
//! learning problem the ML layer faces has the same character as the paper's
//! (nonlinear, interaction-heavy, benchmark-dependent).

pub mod bpred;
pub mod cache;
pub mod config;
pub mod core;
pub mod prefetch;
pub mod runner;
pub mod shard;
pub mod simpoint;
pub mod tlb;
pub mod trace;
pub mod workload;

pub use config::{BranchPredictorKind, CpuConfig, DesignSpace, SpaceSpec};
pub use runner::{simulate, try_sweep_design_space, SimOptions, SimResult, SweepOutcome};
pub use shard::{
    merged_jsonl, try_simulate_indices, try_sweep_sharded, BatchOutcome, ShardOptions, ShardOutcome,
};
pub use workload::{Benchmark, WorkloadProfile};
