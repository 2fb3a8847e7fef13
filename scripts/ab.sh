#!/usr/bin/env bash
# Paired perfbench runs: a base revision against the working tree.
#
# Usage (from the repository root):
#
#   scripts/ab.sh [--pairs N] [--seconds S] [--seed S0] [--out FILE] <rev> <workload>...
#
# <rev> is built offline from `git archive` under target/ab/<sha>/ (every
# dependency is a path crate, so no network is needed); the working tree
# is built into target/ as usual. For each workload, N pairs each run
# the base and the change once, on seeds S0, S0+1, ... (the same seed
# within a pair), untraced with `--out`; the base runs first in even
# pairs and second in odd ones. The result files land in
# target/ab/runs/<workload>/{base,change}/.
#
# Then it prints `perfbench compare`'s table for each workload and
# writes FILE (default target/ab/pairs.json): every pair's metrics and
# notes, and per workload and end-to-end metric each side's median and
# quartiles, the median of the change's relative difference, how many
# pairs the change won, and whether the deterministic notes (digests,
# accuracies) were equal in every pair. Commit FILE to back a speed
# claim.
#
# Defaults: --pairs 10, --seconds 20, --seed 1.
set -euo pipefail

pairs=10
seconds=20
seed0=1
out=target/ab/pairs.json
usage="usage: scripts/ab.sh [--pairs N] [--seconds S] [--seed S0] [--out FILE] <rev> <workload>..."
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs | --seconds | --seed | --out)
            [ $# -ge 2 ] || { echo "error: $1 requires a value" >&2; exit 2; }
            case "$1" in
                --pairs) pairs=$2 ;;
                --seconds) seconds=$2 ;;
                --seed) seed0=$2 ;;
                --out) out=$2 ;;
            esac
            shift 2
            ;;
        -*)
            echo "error: unknown flag '$1'" >&2
            echo "$usage" >&2
            exit 2
            ;;
        *) break ;;
    esac
done
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
rev=$1
shift
workloads=("$@")

if [[ ! -f Cargo.toml || ! -f crates/bench/examples/perfbench/Cargo.toml ]]; then
    echo "ab.sh: run from the root of a perfpredict checkout" >&2
    exit 2
fi
sha=$(git rev-parse --verify "$rev^{commit}")
root=$PWD
base_dir=$root/target/ab/$sha
bench=crates/bench/examples/perfbench

build() { # <source dir> <target dir>
    (
        cd "$1"
        export CARGO_TARGET_DIR=$2
        cargo build --release --quiet --offline --bin perfpredict >&2
        cargo build --release --quiet --offline --manifest-path "$bench/Cargo.toml" >&2
    )
}

if [ ! -x "$base_dir/target/release/perfbench" ]; then
    echo "ab.sh: building $rev ($sha) under $base_dir" >&2
    rm -rf "$base_dir/src"
    mkdir -p "$base_dir/src"
    git archive "$sha" | tar -x -C "$base_dir/src"
    build "$base_dir/src" "$base_dir/target"
fi
echo "ab.sh: building the working tree" >&2
build "$root" "$root/target"
base_bin=$base_dir/target/release/perfbench
change_bin=$root/target/release/perfbench

runs=$root/target/ab/runs
for w in "${workloads[@]}"; do
    rm -rf "${runs:?}/$w"
    mkdir -p "$runs/$w/base" "$runs/$w/change"
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        order="base change"
        ((i % 2 == 0)) || order="change base"
        for side in $order; do
            bin=$base_bin
            [ "$side" = change ] && bin=$change_bin
            echo "ab.sh: $w pair $((i + 1))/$pairs seed $seed $side" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$runs/$w/$side/$w-$seed.json" > /dev/null
        done
    done
    "$change_bin" compare "$runs/$w/base" "$runs/$w/change"
done

mkdir -p "$(dirname "$out")"
python3 - "$runs" "$sha" "$seconds" "$out" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

runs, sha, seconds, out, workloads = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4], sys.argv[5:]
LOWER_IS_BETTER = {"run_s", "setup_s", "peak_rss_mb"}

def quartiles(xs):
    # Python's default (exclusive) method, as `perfbench compare` uses.
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"q1": q[0], "median": q[1], "q3": q[2]}

doc = {"base": sha, "change": "working tree", "seconds": seconds, "workloads": {}}
for w in workloads:
    sides = {}
    for side in ("base", "change"):
        d = os.path.join(runs, w, side)
        sides[side] = {}
        for f in sorted(os.listdir(d)):
            r = json.load(open(os.path.join(d, f)))
            sides[side][r["seed"]] = r
    seeds = sorted(set(sides["base"]) & set(sides["change"]))
    pairs = []
    for s in seeds:
        b, c = sides["base"][s], sides["change"][s]
        pairs.append({
            "seed": s,
            "first": "base" if (s - seeds[0]) % 2 == 0 else "change",
            "base": b["metrics"],
            "change": c["metrics"],
            "failed": [b["failed"], c["failed"]],
            "notes_equal": b["notes"] == c["notes"],
            "notes": c["notes"],
        })
    summary = {}
    for m in sorted(LOWER_IS_BETTER):
        ps = [p for p in pairs if m in p["base"] and m in p["change"]]
        if not ps:
            continue
        bs = [p["base"][m] for p in ps]
        cs = [p["change"][m] for p in ps]
        summary[m] = {
            "base": quartiles(bs),
            "change": quartiles(cs),
            "median_rel_change": statistics.median((c - b) / b for b, c in zip(bs, cs)),
            "pairs_won": sum(c < b for b, c in zip(bs, cs)),
            "pairs": len(ps),
        }
    doc["workloads"][w] = {
        "pairs": pairs,
        "summary": summary,
        "notes_equal_in_every_pair": all(p["notes_equal"] for p in pairs),
        "failed_runs": sum(p["failed"][0] > 0 or p["failed"][1] > 0 for p in pairs),
    }
    for m, s in summary.items():
        print(f"{w} {m}: base median {s['base']['median']:.4g} "
              f"(IQR {s['base']['q1']:.4g}-{s['base']['q3']:.4g}), change median "
              f"{s['change']['median']:.4g}, median change {100 * s['median_rel_change']:+.1f} %, "
              f"won {s['pairs_won']}/{s['pairs']}")
    print(f"{w} deterministic notes equal in every pair: {doc['workloads'][w]['notes_equal_in_every_pair']}")
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"pair file: {out}")
EOF
