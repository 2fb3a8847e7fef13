#!/bin/bash
# Regenerates every table and figure of the paper at full fidelity.
# Outputs land in results/, one file per harness, and this log (with
# each harness's start time and the run's wall time) in results/run.log.
set -u
cd "$(dirname "$0")"
SCALE="${1:-full}"
exec > >(tee results/run.log) 2>&1
cargo build --release -q -p bench --bins || exit 1
run() {
  name=$1; shift
  echo "=== $name ($(date +%H:%M:%S)) ==="
  start=$SECONDS
  "target/release/$name" "$@" > "results/$name.txt" 2>&1
  echo "--- done $name (exit $?, $((SECONDS - start)) s)"
}
run repro_table1
run repro_chrono --scale "$SCALE"
run repro_sampled --scale "$SCALE"
run repro_per_app --scale "$SCALE"
run repro_rolling_years --scale "$SCALE"
run repro_fp_rate --scale "$SCALE"
run ablation_crossval --scale "$SCALE"
run ablation_sampling --scale "$SCALE"
run ablation_simpoint --scale "$SCALE"
run ablation_prefetch --scale "$SCALE"
run ablation_adaptive --scale "$SCALE"
echo "ALL EXPERIMENTS DONE in $SECONDS s ($SCALE scale, $(nproc) CPUs)"
