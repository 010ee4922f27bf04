#!/usr/bin/env bash
# The protocol a performance claim quotes (choosing-metrics §8): builds two
# revisions of the repo with THIS benchmark (identical benchmark code on
# both sides), runs at least ten pairs per workload, alternating which side
# goes first, each pair under a seed of its own, and prints each side's
# median and quartiles and the win count per end-to-end metric.
#
#   benchmark/compare.sh <revA> <revB> [pairs=10] [workload…]
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: compare.sh <revA> <revB> [pairs] [workload…]" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(git -C "$here" rev-parse --show-toplevel)"
revs=("$1" "$2")
pairs="${3:-10}"
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(complete_sync huge_sync graph_contacts async_latency \
    traffic_churn sweep_small lowerbound_threshold)
[ "$pairs" -ge 10 ] || echo "compare.sh: fewer than ten pairs cannot carry a claim" >&2

work="$here/out/compare"
rm -rf "$work"
sides=(A B)
for i in 0 1; do
    src="$work/${sides[$i]}/src"
    mkdir -p "$src"
    git -C "$repo" archive "${revs[$i]}" | tar -x -C "$src"
    rm -rf "$src/benchmark"
    mkdir "$src/benchmark"
    tar -C "$here" --exclude=./out --exclude=./target -c . | tar -x -C "$src/benchmark"
    CARGO_TARGET_DIR="$work/${sides[$i]}/target" cargo build --release --offline --locked \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
done

for k in $(seq 0 $((pairs - 1))); do
    for w in "${workloads[@]}"; do
        order=(A B)
        [ $((k % 2)) = 0 ] || order=(B A)
        for side in "${order[@]}"; do
            "$work/$side/target/release/gossip-benchmark" run --workload "$w" \
                --seed $((1000 + k)) --dir "$work/$side/src/benchmark" >/dev/null
            cp "$work/$side/src/benchmark/out/result-$w.json" "$work/$side/pair-$k-$w.json"
        done
    done
done
"$work/A/target/release/gossip-benchmark" compare "$work/A" "$work/B"
