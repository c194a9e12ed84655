#!/usr/bin/env bash
# Runs the kernel, wire, telemetry, and profiler criterion benches and
# distills every measurement into a BENCH file at the repo root (first
# argument, default BENCH_15.json): one record per benchmark with the
# op name, the worker-thread count it ran at, and the measured ns/iter.
# The `calibration/serial_fma_1m` row is the machine-speed yardstick
# `hadfl-bench-diff` divides out when comparing two BENCH files, so
# numbers taken on different (or differently loaded) machines stay
# comparable. The `scaling/` group runs the same workload at 1, 2, and
# 4 threads (encoded as an `_tN` name suffix), so the file is the
# recorded evidence for the parallel substrate's scaling; the `wire_*`
# rows are the bulk codec across the protocol's frame sizes; the
# `conv/*` rows are the gather and the three products
# of the round benchmark's widest convolution layer (k = 8);
# `wire/seal_param_1m`, `wire/open_param_1m` and `tcp/hop_4mib` are one
# 4 MiB ring frame per layer (codec, then a loopback `TcpPort` hop); the
# `span_emission/*` rows bound the telemetry hot path; and the `prof/*`
# + `prof_parity/*` rows bound the compute profiler (disabled scope vs
# enabled pair, instrumented kernel with and without a profiler
# installed).
#
# DESIGN.md §13 methodology: the script runs HADFL_BENCH_PASSES full
# passes (default 5) and keeps the per-op MINIMUM — noise only ever
# adds time, so the min across idle passes is the stable envelope.
#
# HADFL_BENCH_FAST=1 shrinks the vendored criterion's measurement
# budget for CI smoke runs; never commit numbers taken with it — the
# 20ms budget gives the allocation-bound wire ops 1-6 iters/sample
# and a 3x run-to-run spread.
set -euo pipefail

cd "$(dirname "$0")/.."

out=${1:-BENCH_15.json}
passes=${HADFL_BENCH_PASSES:-5}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# The vendored criterion stand-in has no CLI filter: run each bench
# binary whole and scrape its `bench: <name> <ns> ns/iter` lines.
for pass in $(seq 1 "$passes"); do
    for bench in kernels wire telemetry prof; do
        echo "== pass $pass/$passes: cargo bench -p hadfl-bench --bench $bench" >&2
        cargo bench -p hadfl-bench --bench "$bench" 2>&1 | tee /dev/stderr | grep '^bench:' >>"$raw"
    done
done

awk '
    {
        # bench: <name>  <ns> ns/iter (<iters> iters/sample)
        name = $2; ns = $3 + 0
        if (!(name in best) || ns < best[name]) best[name] = ns
        if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
    }
    END {
        print "["
        for (i = 0; i < n; i++) {
            name = order[i]
            threads = 1
            if (match(name, /_t[0-9]+$/))
                threads = substr(name, RSTART + 2, RLENGTH - 2)
            printf "  {\"op\": \"%s\", \"threads\": %d, \"ns_per_iter\": %s}", name, threads, best[name]
            print (i < n - 1) ? "," : ""
        }
        print "]"
    }
' "$raw" >"$out"

echo "wrote $out ($(grep -c '"op"' "$out") benchmarks, min of $passes passes)" >&2
