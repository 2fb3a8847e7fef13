//! Empty on purpose: perfpredict's dense kernels are portable code in
//! `linalg::matrix`, and nothing here is used.
//!
//! The crate stays a workspace member only because the benchmark under
//! `crates/bench/examples/perfbench` builds with `--locked` against a
//! committed `Cargo.lock` that records `linalg`'s and `serve`'s
//! dependency edges on it. Delete it, with those two edges, in the same
//! change as the next update of that lock file.
