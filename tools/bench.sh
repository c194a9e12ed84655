#!/usr/bin/env bash
# Judges the working tree against a parent revision on the round
# benchmark: the one place "faster" or "slower" is decided.
#
#   tools/bench.sh --against <rev> [--pairs N] [workload...]
#
# Exports <rev> with `git archive` into target/bench/parent-<sha>,
# builds each tree's own benchmark/ package into its own target
# directory (target/bench/target-<sha> for the parent,
# target/bench/target-change for the working tree), and runs
# `benchmark/run.sh --workload W --seed i --trace 0` on both for
# pairs i = 1..N (default 10; every workload BENCHMARK.json names
# unless some are listed), parent first on odd pairs and change first
# on even ones, so drift in the host's speed lands on both sides alike.
# Each run's last stdout line is logged with its workload, side and
# pair under target/bench/logs; `hadfl-bench-diff` turns the two logs
# and BENCHMARK.json's bounds into a verdict per workload x metric
# (crates/bench/src/diff.rs has the rules) and its exit status is this
# script's; a header line before that table names the host's core count
# and C library. Everything stays under the ignored target/: the parent tree
# and both target directories are kept, so a second run against the
# same revision skips the parent's export and build.
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
sha=$(git rev-parse --verify "$rev^{commit}")
[ ${#workloads[@]} -gt 0 ] ||
    mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)

# Absolute: each side's run.sh changes into its own tree.
bench="$PWD/target/bench"
parent="$bench/parent-$sha"
logs="$bench/logs"
mkdir -p "$bench"
if [ ! -d "$parent" ]; then
    # Export beside the final path and rename, so an interrupted export
    # is never mistaken for a complete tree.
    rm -rf "$parent.partial"
    mkdir "$parent.partial"
    git archive "$sha" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi
rm -rf "$logs"
mkdir "$logs"

cargo build --release --quiet -p hadfl-bench --bin hadfl-bench-diff
declare -A tree=([parent]="$parent" [change]="$PWD")
declare -A target=([parent]="$bench/target-$sha" [change]="$bench/target-change")
for side in parent change; do
    echo "building $side benchmark (${tree[$side]})" >&2
    CARGO_TARGET_DIR="${target[$side]}" cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done

for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 1 ] || order=(change parent)
    for workload in "${workloads[@]}"; do
        echo "pair $pair/$pairs $workload: ${order[0]} first" >&2
        for side in "${order[@]}"; do
            run=$(CARGO_TARGET_DIR="${target[$side]}" "${tree[$side]}/benchmark/run.sh" \
                --workload "$workload" --seed "$pair" --trace 0 | tail -n 1)
            printf '{"workload": "%s", "side": "%s", "pair": %d, "run": %s}\n' \
                "$workload" "$side" "$pair" "$run" >>"$logs/$side.log"
        done
    done
done

# glibc caps malloc arenas at 8 x cores, so peak_rss_mb depends on both.
echo "host: nproc $(nproc), $(getconf GNU_LIBC_VERSION 2>/dev/null || echo 'libc unknown')"
cargo run --release --quiet -p hadfl-bench --bin hadfl-bench-diff -- \
    BENCHMARK.json "$logs/parent.log" "$logs/change.log"
