#!/usr/bin/env bash
# Build the `perfpredict` binary and the `perfbench` benchmark from source,
# then run the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash crates/bench/examples/perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default `target`), so perfbench
# finds perfpredict next to itself.
set -euo pipefail

here=crates/bench/examples/perfbench
if [[ ! -f Cargo.toml || ! -f src/main.rs || ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run from the root of a perfpredict checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --bin perfpredict >&2
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
