#!/usr/bin/env bash
# Backend and kernel benchmarks. Produces BENCH_kernels.json at the repo
# root (medians: LA hour serial vs rayon(4), workspace-hoisting wins,
# scenario-server throughput) and prints the criterion backend sweep
# (serial vs rayon at 1/2/4/8 threads on a tiny hour).
#
# With --check: skip the criterion sweep, measure the kernel medians,
# and gate them against the committed BENCH_baseline.json with the
# noise-aware per-kernel thresholds in crates/bench/src/check.rs. A
# failing first comparison is re-measured once before failing the
# script, so only a *sustained* regression trips the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
if [[ "${1:-}" == "--check" ]]; then
    check=1
    shift
fi

echo "==> cargo build --release"
cargo build --release

if [[ "$check" == 1 ]]; then
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    echo "==> kernel medians (gate run 1) -> $out/current.json"
    cargo run --release -p airshed-bench --bin bench_kernels -- "$out/current.json"
    echo "==> gate vs BENCH_baseline.json"
    status=0
    cargo run --release -q -p airshed-bench --bin bench_check -- \
        BENCH_baseline.json "$out/current.json" || status=$?
    if [[ "$status" == 0 ]]; then
        echo "==> bench check passed"
        exit 0
    elif [[ "$status" != 1 ]]; then
        # 2: refused (another host) or unreadable input; re-measuring
        # on the same host cannot change that.
        echo "==> bench check could not compare; not re-measuring" >&2
        exit "$status"
    fi
    echo "==> first comparison regressed; re-measuring once to rule out noise"
    cargo run --release -p airshed-bench --bin bench_kernels -- "$out/current2.json"
    if cargo run --release -q -p airshed-bench --bin bench_check -- \
            BENCH_baseline.json "$out/current2.json"; then
        echo "==> bench check passed on the re-measure (first run was noise)"
        exit 0
    fi
    echo "==> bench check FAILED: sustained regression vs BENCH_baseline.json" >&2
    exit 1
fi

echo "==> criterion backend sweep (tiny hour, serial vs rayon 1/2/4/8)"
cargo bench -p airshed-bench --bench backends

echo "==> kernel medians -> BENCH_kernels.json"
cargo run --release -p airshed-bench --bin bench_kernels -- BENCH_kernels.json

echo "==> done: $(pwd)/BENCH_kernels.json"
