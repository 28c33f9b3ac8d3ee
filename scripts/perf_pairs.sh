#!/usr/bin/env bash
# Paired perfbench runs: a parent revision against the working tree.
#
#   scripts/perf_pairs.sh <parent-rev> <workload>[,<workload>...] [pairs] [seconds]
#
# Exports <parent-rev> with `git archive` into a temporary directory,
# builds perfbench (release, offline) from that tree and from the working
# tree, then runs `pairs` alternating pairs (default 10) of `seconds`-long
# runs (default 25) for each listed workload. Each pair draws one fresh
# seed and runs both sides on it; the side that runs first flips from
# pair to pair. It prints, per workload, each pair's end-to-end metrics
# (the `end_to_end` list of BENCHMARK.json) with the change ÷ parent
# ratio, each side's median and quartiles, the median ratio and the
# number of pairs the change wins per metric, plus `peak_rss_mb` and the
# workload's report-line latencies (`first_delta_ms_p50`,
# `campaign_ms_p90`, ...: every report metric named `*_ms_p<N>` that is
# not an end-to-end metric already). A report metric is better lower
# unless its name ends in `per_s`.
#
# Build outputs, runs and checkpoints live in the temporary directory
# (under $TMPDIR, default /tmp), which is removed on exit, so nothing is
# written under perfbench/ or anywhere in the repository. Needs bash,
# git, cargo and python3.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] [pairs] [seconds]" >&2
    exit 2
}
[[ $# -ge 2 && $# -le 4 ]] || usage
pairs=${3:-10}
seconds=${4:-25}
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
IFS=, read -r -a workloads <<<"$2"

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent" "$tmp/run" "$tmp/out"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
declare -A bin
for side in parent change; do
    src=$root
    [[ $side == parent ]] && src=$tmp/parent
    echo "building perfbench ($side)..." >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --quiet --release --offline \
        --manifest-path "$src/perfbench/Cargo.toml"
    bin[$side]=$tmp/target-$side/release/perfbench
done

for workload in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
        order=(parent change)
        ((i % 2 == 0)) && order=(change parent)
        for side in "${order[@]}"; do
            echo "$workload pair $i/$pairs: $side, seed $seed" >&2
            (cd "$tmp/run" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0) >"$tmp/out/$workload.$i.$side"
        done
        echo "$seed ${order[0]}" >"$tmp/out/$workload.$i.pair"
    done
done

python3 - "$root/BENCHMARK.json" "$tmp/out" "$rev" "$pairs" "$seconds" "${workloads[@]}" <<'EOF'
import json
import re
import statistics
import sys

bench, out, rev, pairs, seconds = sys.argv[1:6]
workloads = sys.argv[6:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]


def reported(name):
    return name == "peak_rss_mb" or re.search(r"_ms_p[0-9]+$", name)


def run(workload, i, side):
    lines = [json.loads(line) for line in open(f"{out}/{workload}.{i}.{side}")]
    report = next(line["report"] for line in lines if "report" in line)
    result = lines[-1]
    values = {m: v["value"] for m, v in result["metrics"].items()}
    values.update((m, v["value"]) for m, v in report.items() if reported(m))
    return result, values


def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


print(f"parent {rev[:12]} vs working tree: {pairs} pairs of {seconds} s per workload")
for workload in workloads:
    rows, bad = [], []
    for i in range(1, pairs + 1):
        seed, first = open(f"{out}/{workload}.{i}.pair").read().split()
        sides = {}
        for side in ("parent", "change"):
            result, values = run(workload, i, side)
            if not result["correct"] or result["failed"] != 0:
                bad.append(f"pair {i} {side}: correct={result['correct']} failed={result['failed']}")
            sides[side] = values
        rows.append((i, seed, first, sides))
    print(f"\n== {workload}")
    extra = [
        {"name": name, "better": "higher" if name.endswith("per_s") else "lower"}
        for name in rows[0][3]["parent"]
        if reported(name)
        and name not in {m["name"] for m in metrics}
        and all(name in sides[side] for *_, sides in rows for side in sides)
    ]
    names = [m["name"] for m in metrics + extra]
    for i, seed, first, sides in rows:
        cells = []
        for name in names:
            p, c = sides["parent"][name], sides["change"][name]
            ratio = c / p if p else float("nan")
            cells.append(f"{name} {fmt(p)} -> {fmt(c)} ({ratio:.3f}x)")
        print(f"pair {i:2} seed {seed} {first} first: " + "; ".join(cells))
    print(f"{'metric':19} {'better':6} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'med ratio':>9} wins")
    for m in metrics + extra:
        name, better = m["name"], m["better"]
        p = [sides["parent"][name] for _, _, _, sides in rows]
        c = [sides["change"][name] for _, _, _, sides in rows]
        ratios = [b / a if a else float("nan") for a, b in zip(p, c)]
        wins = sum((b > a) if better == "higher" else (b < a) for a, b in zip(p, c))
        ps, cs = "/".join(map(fmt, spread(p))), "/".join(map(fmt, spread(c)))
        print(f"{name:19} {better:6} {ps:>30} {cs:>30} {statistics.median(ratios):9.3f} {wins}/{pairs}")
    print("every run correct, failed 0" if not bad else "FAILED RUNS: " + "; ".join(bad))
EOF
