#!/usr/bin/env bash
# Byte-compare every experiment binary's stdout and exit code, under seven
# flag sets and the three catalog listings, plus each default-grid
# BENCH record, against a reference capture — the honest form of a
# golden re-pin.
#
# Usage:
#   tests/compare_seed_stdout.sh capture <ref-dir>   # record outputs from this build
#   tests/compare_seed_stdout.sh compare <ref-dir>   # cmp this build against a capture
#
# Workflow for an engine refactor (how PR 6 used it): check out the
# pre-refactor tree, `capture` into a scratch dir, check out the
# refactored tree, `compare` against it. All fourteen experiment tables
# are exact functions of RNG draw order, so a refactor that claims to be
# behavior-preserving must produce byte-identical bytes here — and if it
# intends to change behavior, the diff this script prints is the
# evidence to cite next to the one-time golden re-pin. Experiment stdout
# is thread-count invariant by the determinism contract (CI pins
# GOSSIP_THREADS 1 and 4 over the digest suites), so captures taken at
# different GOSSIP_THREADS still compare equal.
#
# The flag sets pin the shared flag handling, not just the default
# grids: `--csv`, `--algo`, `--topo`, `--engine` and `--huge` each on a
# small grid, and one run passing two positional `--topo` knobs with a
# non-default `--engine` profile. The BENCH records hold results only
# (no wall clock, no thread count), so each is compared as written. A
# capture taken while the records still carried timings masked the
# wall-clock keys (`wall_ms`, `threads`, and E1's `wall_ms_parallel`,
# `wall_ms_sequential`, `speedup_vs_seq`) and stripped every line's
# trailing comma; it differs from a fresh record by exactly those keys
# and commas. A capture taken before PR 25 differs on `huge` for the nine
# binaries without a million-node grid: they ran their default grid
# there and run `--full` since.

set -euo pipefail

mode="${1:?usage: $0 capture|compare <ref-dir>}"
ref_dir="${2:?usage: $0 capture|compare <ref-dir>}"

bins=(
    exp_e1_rounds
    exp_e2_messages
    exp_e3_bits
    exp_e4_lowerbound
    exp_e5_delta_clustering
    exp_e6_tradeoff
    exp_e7_faults
    exp_e8_ablations
    exp_e9_message_loss
    exp_e10_churn
    exp_e11_topology
    exp_e12_realgraphs
    exp_e13_traffic
    exp_e14_async
)

# name=flags, one run per binary each.
runs=(
    "default="
    "csv=--csv"
    "algo=--n 256 --trials 2 --algo push"
    "topo=--n 256 --trials 2 --topo ring"
    "engine=--n 256 --trials 2 --engine async:fixed"
    "specs=--n 256 --trials 2 --topo watts-strogatz:4,0.1 --engine async:exp"
    "huge=--huge --n 1024 --trials 1"
    "list-algos=--list-algos"
    "list-topos=--list-topos"
    "list-engines=--list-engines"
)

cd "$(dirname "$0")/.."
cargo build --release -q -p gossip-bench
# Run what that build made: cargo's target directory, which
# CARGO_TARGET_DIR or a cargo config may move away from ./target
# (cargo reports it as an absolute path).
target_dir="$(cargo metadata --no-deps --format-version 1 |
    sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')"
[[ -n "$target_dir" ]] || { echo "cannot read cargo's target directory" >&2; exit 2; }
release="$target_dir/release"

# Writes every output of this build under $1: one file per (binary,
# run) holding stdout then the exit code, and one per binary holding
# its default-grid BENCH record.
record() {
    local out="$1" bin run name flags rc scratch
    mkdir -p "$out"
    scratch="$(mktemp -d)"
    for bin in "${bins[@]}"; do
        for run in "${runs[@]}"; do
            name="${run%%=*}"
            flags="${run#*=}"
            rc=0
            # shellcheck disable=SC2086 # flags are word lists
            "$release/$bin" $flags > "$out/$bin.$name.txt" 2>/dev/null || rc=$?
            echo "exit $rc" >> "$out/$bin.$name.txt"
        done
        (cd "$scratch" && "$release/$bin" --json > /dev/null 2>&1)
        mv "$scratch"/BENCH_*.json "$out/$bin.json.txt"
        echo "recorded $bin"
    done
    rm -rf "$scratch"
}

case "$mode" in
capture)
    record "$ref_dir"
    echo "reference outputs written to $ref_dir"
    ;;
compare)
    fresh="$(mktemp -d)"
    trap 'rm -rf "$fresh"' EXIT
    record "$fresh"
    fail=0
    count=0
    for file in "$fresh"/*.txt; do
        ref="$ref_dir/$(basename "$file")"
        count=$((count + 1))
        if [[ ! -f "$ref" ]]; then
            echo "MISSING reference: $ref" >&2
            fail=1
        elif cmp -s "$file" "$ref"; then
            echo "identical: $(basename "$file" .txt)"
        else
            echo "DIVERGED:  $(basename "$file" .txt) (vs $ref)" >&2
            diff "$ref" "$file" | head -20 >&2 || true
            fail=1
        fi
    done
    if [[ "$fail" -ne 0 ]]; then
        echo "output diverged from the reference capture — either the" >&2
        echo "refactor is not behavior-preserving, or a golden re-pin is" >&2
        echo "being made; cite this diff in the re-pin commit." >&2
        exit 1
    fi
    echo "all $count experiment outputs byte-identical to $ref_dir"
    ;;
*)
    echo "unknown mode: $mode (want capture|compare)" >&2
    exit 2
    ;;
esac
