#!/usr/bin/env bash
# Builds the program and the benchmark from source, then measures.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is
#       the result object BENCHMARK.json describes.
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload, end-to-end run then traced run, each in its own
#       process.
#
# Every metric is printed as `name value unit`; files go to benchmark/out/.
set -euo pipefail

here=$(dirname "${BASH_SOURCE[0]}")
root="$here/.."
# Both builds share one target directory, so the binary lands beside
# `vela_worker`, where `launch::worker_binary()` looks for it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
# One compute thread per process: master and two workers share two cores,
# and the default pool would measure the scheduler.
export VELA_THREADS=1

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p vela-runtime --bin vela_worker >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/vela-benchmark"

for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done
for workload in ffn-heavy wire-heavy drift-replace mixtral-virtual; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        "$bin" --out "$here/out" --workload "$workload" --trace "$trace" "$@"
    done
done
