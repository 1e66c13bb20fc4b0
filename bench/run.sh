#!/bin/bash
# The whole ledger in one command: build tss-bench, run the four
# workloads measured, then traced, each in a process of its own; print
# one line per (workload, metric, value, unit, n); write
# .bench_out/results.json. Exits non-zero on any incorrect output or
# failed self-check.
#
#   bench/run.sh [--seed S] [--runs K] [--seconds T] [--smoke]
#
# Run from the root of the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
git diff --quiet HEAD 2>/dev/null || rev="$rev+"   # measured on an uncommitted tree
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    suite --rev "$rev" "$@"
