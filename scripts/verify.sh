#!/usr/bin/env bash
# Repository verification: tier-1 build+test, formatting, clippy with
# every warning an error, rustdoc without warnings, the knob-list
# check (which also prints, ungated, the sizes a simplicity PR quotes: the
# VELA_* count, the non-test line count of every crate under crates/ plus
# their sum, and the data plane's panic sites per file), the release-mode
# gates (simplex pivot path, routing table, the vector sigmoid/exp on all
# 2^32 inputs, the contract harness), fig5,
# fig6, fig3, fig7 and theorem1 regenerated from an empty pretraining
# cache, the four synthetic-profile ablations, the drift ablation and the solver ablation (LP solves only;
# the solver's timings go to stderr), all diffed against results/, the
# trace smokes (quickstart under jsonl and under counters, the virtual
# scale_simulation, a
# traced tcp run), scale_simulation's stdout with every worker hosted
# (channel) against threads behind sockets (tcp-threads), and the benches (the kernel one emits BENCH_kernels.json
# in the repo root and its log names the GEMM SIMD level the host dispatched
# to; the placement-LP one is echoed only). Exchange and migration timing is
# benchmark/'s job, not this script's.
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
for arg in "$@"; do
    case "$arg" in
    --no-bench) run_bench=0 ;;
    *)
        echo "unknown argument: $arg" >&2
        echo "usage: scripts/verify.sh [--no-bench]" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets with every warning an error"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> knob list: VELA_* names in README.md == names read in crates/"
# What the code reads: its env::var("VELA_...") call sites.
readme_knobs=$(grep -oE 'VELA_[A-Z_]+' README.md | sort -u)
code_knobs=$(grep -rhoE 'var(_os)?\("VELA_[A-Z_]+"' crates --include='*.rs' |
    grep -oE 'VELA_[A-Z_]+' | sort -u)
if [ "$readme_knobs" != "$code_knobs" ]; then
    echo "FAIL: README.md (<) and crates/ (>) disagree on the VELA_* variables:" >&2
    diff <(echo "$readme_knobs") <(echo "$code_knobs") >&2 || true
    exit 1
fi
# Reported, not gated. Non-test lines of a file are the ones before its
# first `#[cfg(test)]`; a file declared as a `#[cfg(test)] mod name;`
# module (and every file under its directory) has none.
rust_files() { find "crates/$1/src" -name '*.rs' -print0 | sort -z; }
test_module_paths() {
    rust_files "$1" | xargs -0 awk '
        FNR == 1 { cfg = 0 }
        cfg && /^[[:space:]]*(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0
            sub(/^[[:space:]]*(pub(\([^)]*\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME
            if (dir ~ /\/(mod|lib|main)\.rs$/) sub(/\/[^\/]+$/, "", dir)
            else sub(/\.rs$/, "", dir)
            print dir "/" name ".rs"
            print dir "/" name "/"
        }
        { cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }'
}
non_test_lines() {
    rust_files "$1" | xargs -0 awk -v skip="$(test_module_paths "$1")" '
        BEGIN { split(skip, paths, "\n") }
        FNR == 1 {
            test = 0
            for (i in paths)
                if (paths[i] != "" && (FILENAME == paths[i] || (paths[i] ~ /\/$/ && index(FILENAME, paths[i]) == 1)))
                    test = 1
        }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test { n++ }
        END { print n + 0 }'
}
sizes="" total=0
for dir in crates/*/; do
    n=$(non_test_lines "$(basename "$dir")")
    sizes="$sizes, $(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1) $n"
    total=$((total + n))
done
echo "    VELA_* variables: $(echo "$readme_knobs" | wc -l); non-test lines: total $total${sizes}"
# Also reported, not gated: the data plane's panic sites, its non-test lines
# calling unwrap(), expect(, panic! or unreachable! (ROADMAP item 8).
panic_sites="" panic_total=0
for f in runtime.rs worker.rs wire.rs broker.rs session.rs virtual_engine.rs transport/mod.rs transport/tcp.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } /unwrap\(|expect\(|panic!|unreachable!/ { n++ } END { print n + 0 }' "crates/runtime/src/$f")
    panic_sites="$panic_sites, $f $n"
    panic_total=$((panic_total + n))
done
echo "    data-plane panic sites: total $panic_total${panic_sites}"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> rustdoc: cargo doc --workspace --no-deps with every warning an error (broken, ambiguous or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> simplex pivot path (release): every pricing pass vs the column-wise reference, iterations + solution hash vs the recorded parent solver"
cargo test --release -q -p vela-placement

echo "==> routing table exactness (release): CategoricalTable vs categorical on all 2^24 draws of each edge weight vector (interior/leading zero, scan fall-through, subnormal redraw, Zipf row)"
cargo test --release -q -p vela-tensor --lib rng::tests::categorical_table

echo "==> activation exactness (release): the vector sigmoid and softmax exp vs the scalar formulas (host libm expf) on all 2^32 inputs, NaN bits included"
cargo test --release -q -p vela-tensor -- --ignored

# The release seed budget is the harness's own constant, not an option.
contract_seeds=$(sed -n 's/^const SEEDS: u64 = .* else { \([0-9]*\) };$/\1/p' tests/contract.rs)
echo "==> contract harness (release): seeds 0..${contract_seeds} drawn by tests/contract.rs (engine, shape, transport, placement, re-placement to new owners or to a replica relation) vs the single-process oracle that replays moment resets, plus the named regression seeds, the exchange golden pin recorded at 8456ee6 on {channel, tcp-threads, tcp} and the exact wire bytes/step"
cargo test --release -q --test contract

echo "==> figures: fig5, fig6, fig3, fig7 and theorem1 from an empty target/vela-cache (its key does not cover code changes), the four ablations built on synthetic profiles (skew, bandwidth, capacity, heterogeneous), the drift ablation and the solver ablation (LP solves only), stdout diffed against results/ (log lines and wall-clock times go to stderr)"
rm -rf target/vela-cache
for fig in fig5 fig6 fig3 fig7 theorem1 ablation_skew ablation_bandwidth ablation_capacity ablation_heterogeneous ablation_drift ablation_solver; do
    env -u VELA_TRANSPORT cargo run --release -q -p vela-bench --bin "$fig" >"target/$fig.txt"
    diff -u "results/$fig.txt" "target/$fig.txt" || {
        echo "FAIL: $fig stdout differs from results/$fig.txt: review the diff, then regenerate the file" >&2
        exit 1
    }
done

echo "==> trace smoke: quickstart under VELA_TRACE=jsonl + trace_summary --check (schema, span balance, and the reconciliation gate: every span histogram's count and total == its enter/exit pairs), then its Chrome view via merge"
trace_out=target/quickstart-trace.jsonl
rm -f "$trace_out" "$trace_out".merged*
VELA_TRACE=jsonl VELA_TRACE_OUT="$trace_out" \
    cargo run --release -p vela --example quickstart >/dev/null
cargo run --release -p vela-bench --bin trace_summary -- --check "$trace_out"
# A single-process trace has no .worker{i} siblings; merge renders it alone.
cargo run --release -p vela-bench --bin trace_summary -- merge "$trace_out" >/dev/null
test -s "$trace_out".merged.json || {
    echo "FAIL: trace_summary merge wrote no $trace_out.merged.json" >&2
    exit 1
}

echo "==> counters smoke: quickstart under VELA_TRACE=counters writes the counter/histogram snapshot, which trace_summary prints (runtime.step among its span histograms) and --check passes"
counters_out=target/quickstart-counters.jsonl
rm -f "$counters_out"
VELA_TRACE=counters VELA_TRACE_OUT="$counters_out" \
    cargo run --release -p vela --example quickstart >/dev/null
cargo run --release -p vela-bench --bin trace_summary -- "$counters_out" >target/quickstart-counters.txt
grep -qE '^runtime\.step +≥' target/quickstart-counters.txt || {
    echo "FAIL: trace_summary printed no runtime.step histogram for $counters_out" >&2
    exit 1
}
cargo run --release -p vela-bench --bin trace_summary -- --check "$counters_out"

echo "==> trace smoke: scale_simulation (the virtual session) under VELA_TRACE=jsonl + trace_summary --check (its exchanges must be the reader's EXCHANGE_SPANS)"
virtual_trace=target/scale-simulation-trace.jsonl
rm -f "$virtual_trace"
VELA_TRACE=jsonl VELA_TRACE_OUT="$virtual_trace" \
    cargo run --release -p vela --example scale_simulation >/dev/null
cargo run --release -p vela-bench --bin trace_summary -- --check "$virtual_trace"

echo "==> hosting parity: scale_simulation stdout with every worker served on the master's thread (channel) == with worker threads behind sockets (tcp-threads)"
for transport in channel tcp-threads; do
    VELA_TRANSPORT=$transport cargo run --release -q -p vela --example scale_simulation \
        >"target/scale-simulation-$transport.txt"
done
diff -u target/scale-simulation-channel.txt target/scale-simulation-tcp-threads.txt || {
    echo "FAIL: scale_simulation stdout differs between channel (all workers hosted) and tcp-threads" >&2
    exit 1
}

echo "==> multi-process smoke: master + worker processes over TCP loopback"
cargo run --release -p vela --example tcp_smoke

echo "==> distributed trace gate: traced tcp quickstart, merge, --check"
tcp_trace=target/tcp-quickstart-trace.jsonl
rm -f "$tcp_trace" "$tcp_trace".worker* "$tcp_trace".merged*
VELA_TRANSPORT=tcp VELA_TRACE=jsonl VELA_TRACE_OUT="$tcp_trace" \
    cargo run --release -p vela --example quickstart >/dev/null
# Each unmerged per-process trace holds only its own half of every
# dispatch->compute->result flow chain, so --check must REJECT it:
# passing here means the flow-endpoint validation is broken.
if cargo run --release -p vela-bench --bin trace_summary -- --check "$tcp_trace" >/dev/null 2>&1; then
    echo "FAIL: unmerged master trace must not pass trace_summary --check" >&2
    exit 1
fi
for worker_trace in "$tcp_trace".worker*; do
    if cargo run --release -p vela-bench --bin trace_summary -- --check "$worker_trace" >/dev/null 2>&1; then
        echo "FAIL: unmerged worker trace must not pass trace_summary --check" >&2
        exit 1
    fi
done
# The merged trace rebases worker clocks onto the master timeline — merge
# takes the .worker{i} siblings the master's step-1 ClockProbe (the only
# clock probe; the handshake has none) sampled, so a worker it missed
# leaves its flows incomplete — and --check requires every flow chain
# complete; it also gates attribution coverage and reconciles each
# process lane's span histograms with its enter/exit pairs. The worker
# the master serves on its own thread has no sibling: its spans and flows
# are in the master's stream.
cargo run --release -p vela-bench --bin trace_summary -- merge "$tcp_trace"
cargo run --release -p vela-bench --bin trace_summary -- --check "$tcp_trace".merged

if [ "$run_bench" = 1 ]; then
    echo "==> bench smoke: serial regression gate vs committed BENCH_kernels.json + in-process SIMD ratio gates (simd >= 1.5x portable on matmul_nn_256; on avx512 also >= 1.25x avx2 there and no product on the 512-bit tile below 0.95x its avx2 time)"
    # The first line names the widest microkernel this host dispatched to:
    # avx512, avx2 or portable. Serial times are compared only when that is
    # the level the committed file was recorded at (avx512): an avx2 or
    # portable host skips that comparison and the gates above its level, and
    # says so here rather than let it surface later as an unexplained
    # slowdown.
    bench_log=target/bench_kernels-check.log
    cargo run --release -p vela-bench --bin bench_kernels -- --quick --check BENCH_kernels.json | tee "$bench_log"
    echo "    simd: $(sed -n 's/.*simd: \([a-z0-9]*\).*/\1/p' "$bench_log" | head -n 1) (cpu has avx512f: $(grep -qw avx512f /proc/cpuinfo 2>/dev/null && echo yes || echo no))"

    echo "==> placement LP micro-bench (reported, not gated: iteration counts and bit hashes are the gate)"
    cargo bench -q -p vela-bench --bench simplex | grep -E '^placement_lp/(vela_solve|simplex)/32 ' | sed 's/^/    /'

    echo "==> kernel micro-bench (BENCH_kernels.json)"
    cargo run --release -p vela-bench --bin bench_kernels
fi

echo "==> verify OK"
