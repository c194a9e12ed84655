#!/usr/bin/env bash
# The one command: builds the benchmark (offline, release) and runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload, JSON on the last line
#   run.sh [--seed N] [--seconds S] [--trace]              all five workloads, as a table
#   run.sh --stability N                                   N sets, spread against the bounds
#   run.sh --sensitivity                                   ghost-size sweep and hop prediction
#
# Run from anywhere; paths are taken relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hadfl-roundbench" "$@"
