#!/usr/bin/env bash
# Runs the suite twice on the same code and fails unless every end-to-end
# metric of the second set is within its BENCHMARK.json bound of the first
# on every workload, nothing failed in either, and (with --trace) every
# exact count is identical.
#
#   benchmark/check.sh [run.sh arguments, e.g. --trace or --seed 7]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for side in a b; do
    "$here/run.sh" "$@" >/dev/null
    cp "$here/out/results.json" "$here/out/check-$side.json"
done
"${CARGO_TARGET_DIR:-$here/target}/release/gossip-benchmark" check \
    "$here/out/check-a.json" "$here/out/check-b.json" --dir "$here"
