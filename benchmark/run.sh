#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--bless]
#
# Builds offline, runs every workload (or just W) in a process of its own,
# prints every metric by name with its unit, checks the outputs against
# benchmark/expected/ (default seed) or against the run's own warm-up (any
# other seed), and writes benchmark/out/results.json. With --trace each
# workload runs traced as well, and the raw per-layer probes run once at
# the end. The last line of standard output is the last workload's result
# as one JSON object; the exit code is non-zero if any trial failed. See
# benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(complete_sync huge_sync graph_contacts async_latency traffic_churn sweep_small lowerbound_threshold)
seed=0xB11
seconds=10
trace=0
bless=()

while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace` alone turns tracing on; the driver passes 0 or 1.
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --bless) bless=(--bless); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_REV BENCH_RUSTC

# results.json folds what this run writes, and nothing an earlier one left.
rm -f "$here"/out/result-*.json

status=0
for w in "${workloads[@]}"; do
    common=(run --workload "$w" --seed "$seed" --dir "$here")
    if [ "$trace" = 0 ]; then
        "$bin/gossip-benchmark" "${common[@]}" --seconds "$seconds" "${bless[@]}" || status=$?
    else
        # Tracing overhead is traced ÷ untraced wall, so the untraced
        # binary runs first; its own result line is not this run's.
        "$bin/gossip-benchmark" "${common[@]}" --seconds "$seconds" >/dev/null || status=$?
        "$bin/gossip-benchmark-traced" "${common[@]}" \
            --baseline "$here/out/result-$w.json" || status=$?
    fi
done
if [ "$trace" != 0 ]; then
    # No probe depends on the workload: once per run, after them all. Its
    # result line carries the last workload's own metrics and the probes.
    "$bin/gossip-benchmark-traced" probes --seed "$seed" --workload "$w" --dir "$here" || status=$?
fi
"$bin/gossip-benchmark" collect --dir "$here"
exit "$status"
