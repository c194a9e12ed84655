#!/usr/bin/env bash
# Judges the working tree against a parent revision on the round
# benchmark: the one place "faster" or "slower" is decided.
#
#   tools/bench.sh --against <rev> [--pairs N] [workload...]
#
# Checks <rev> out into a temporary `git worktree`, builds each tree's
# own benchmark/ package into its own temporary target directory, and
# runs `benchmark/run.sh --workload W --seed i --trace 0` on both for
# pairs i = 1..N (default 10; every workload BENCHMARK.json names
# unless some are listed), parent first on odd pairs and change first
# on even ones, so drift in the host's speed lands on both sides alike.
# Each run's last stdout line is logged with its workload, side and
# pair; `hadfl-bench-diff` turns the two logs and BENCHMARK.json's
# bounds into a verdict per workload x metric (crates/bench/src/diff.rs
# has the rules) and its exit status is this script's. The worktree and
# target directories go under $TMPDIR and are removed on exit, also on
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: tools/bench.sh --against <rev> [--pairs N] [workload...]" >&2
    exit 2
}
rev="" pairs=10 workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --against | --pairs)
            [ $# -ge 2 ] || usage
            if [ "$1" = --against ]; then rev=$2; else pairs=$2; fi
            shift 2
            ;;
        -*) usage ;;
        *)
            workloads+=("$1")
            shift
            ;;
    esac
done
[ -n "$rev" ] && [[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
git cat-file -e "$rev:benchmark/run.sh" 2>/dev/null ||
    { echo "tools/bench.sh: $rev has no benchmark/run.sh to pair against" >&2; exit 2; }
[ ${#workloads[@]} -gt 0 ] ||
    mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/parent" 2>/dev/null || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT

cargo build --release --quiet -p hadfl-bench --bin hadfl-bench-diff
git worktree add --quiet --detach "$tmp/parent" "$rev"
declare -A tree=([parent]="$tmp/parent" [change]="$PWD")
for side in parent change; do
    echo "building $side benchmark (${tree[$side]})" >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done

for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 1 ] || order=(change parent)
    for workload in "${workloads[@]}"; do
        echo "pair $pair/$pairs $workload: ${order[0]} first" >&2
        for side in "${order[@]}"; do
            run=$(CARGO_TARGET_DIR="$tmp/target-$side" "${tree[$side]}/benchmark/run.sh" \
                --workload "$workload" --seed "$pair" --trace 0 | tail -n 1)
            printf '{"workload": "%s", "side": "%s", "pair": %d, "run": %s}\n' \
                "$workload" "$side" "$pair" "$run" >>"$tmp/$side.log"
        done
    done
done

cargo run --release --quiet -p hadfl-bench --bin hadfl-bench-diff -- \
    BENCHMARK.json "$tmp/parent.log" "$tmp/change.log"
