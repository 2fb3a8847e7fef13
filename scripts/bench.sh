#!/usr/bin/env bash
# Run the kernel-level criterion benchmarks and assemble their JSON-lines
# output into BENCH_selection.json / BENCH_nn.json / BENCH_dse.json /
# BENCH_serve.json / BENCH_sim.json at the repo root (or under --out-dir).
# BENCH_sim.json holds two benches: `simulator` (one configuration per
# benchmark through `Core::run`, plus trace generation) and
# `sweep_scaling` (parallel Table-1 sweeps of 16, 64 and 256 points).
#
# Usage:
#   scripts/bench.sh                  # full timing budgets (minutes)
#   scripts/bench.sh --quick          # CRITERION_QUICK smoke budgets (seconds),
#                                     # for CI and local sanity checks
#   scripts/bench.sh --out-dir DIR    # write BENCH_*.json under DIR instead of
#                                     # the repo root (e.g. a fresh run to feed
#                                     # `perfpredict perf-report` against the
#                                     # committed baselines)
#
# Each BENCH_*.json is a JSON document:
#   { "mode": "quick"|"full", "results": [ {bench, mean_ns, ...}, ... ] }
# The per-bench records come verbatim from the compat criterion harness
# (CRITERION_JSON_LINES). selection asserts its incremental drivers match
# the from-scratch reference and serve pins its replay output across 1, 2
# and 4 workers inside the bench binaries, so a completed run certifies
# those answers, not just speed. nn only measures: its batched paths are
# pinned to the per-sample reference by mlmodels::nn's unit tests.
# The dse bench also times the adaptive (query-by-committee) explorer
# against its equal-budget random baseline (dse/adaptive_vs_random_quick),
# so acquisition-loop regressions land in BENCH_dse.json.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
out_dir=.
while [ $# -gt 0 ]; do
    case "$1" in
        --quick)
            mode=quick
            export CRITERION_QUICK=1
            shift
            ;;
        --out-dir)
            [ $# -ge 2 ] || { echo "error: --out-dir requires a path" >&2; exit 2; }
            out_dir=$2
            shift 2
            ;;
        *)
            echo "error: unknown argument '$1' (usage: bench.sh [--quick] [--out-dir DIR])" >&2
            exit 2
            ;;
    esac
done
mkdir -p "$out_dir"

# Each entry is "<BENCH file stem> <bench>...": the named benches append
# their records to one BENCH_<stem>.json.
for group in "selection selection" "nn nn" "dse dse" "serve serve" \
             "sim simulator sweep_scaling"; do
    read -r name benches <<< "$group"
    lines=$(mktemp)
    trap 'rm -f "$lines"' EXIT
    for bench in $benches; do
        CRITERION_JSON_LINES="$lines" cargo bench -p bench --bench "$bench"
    done
    if [ ! -s "$lines" ]; then
        echo "error: benches '$benches' emitted no results" >&2
        exit 1
    fi
    out="$out_dir/BENCH_${name}.json"
    {
        printf '{"mode":"%s","results":[\n' "$mode"
        # JSON-lines -> comma-separated array elements.
        sed '$!s/$/,/' "$lines"
        printf ']}\n'
    } > "$out"
    rm -f "$lines"
    trap - EXIT
    echo "wrote $out ($(grep -c '"bench"' "$out") results)"
done
