#!/bin/sh
# The gate a change must pass before landing.
#
# Stage 0 is `cargo test --workspace -q`: every package's tests in the
# debug profile, the paper's figure shapes (simnet) among them. The
# benchmark under bench/ is a workspace of its own that stage 0 never
# compiles, so it is built next: a break in a public item it calls
# fails this gate, not the benchmark pipeline. Then each row of the
# table below runs a sweep that stage 0's debug run does not: a larger
# release default, an assertion skipped in debug (the `cache` row:
# chirp-server's `cache_smoke` timing floors), a knob, or the
# benchmark's own tests (a smoke of every workload's self-checks, so a
# change that breaks a workload fails here). Clippy,
# rustdoc (every warning an error, so a deleted item cannot leave a
# dangling doc link) and rustfmt close the run.
#
# A row is `flag default repro command`. `--<flag>` turns a row on and
# `--no-<flag>` turns a default-on row off. Each command runs as given,
# its knobs already expanded; on failure the row prints its repro
# prefix and command, and the log above names the seed.
#
# Knobs:
#   SIM_SEQS=<n>        seeds per matrix: pipeline 2000, crash 1000
#                       (the matrix whose kill totals crash_sim pins
#                       per cell: single 9019, striped 13311,
#                       mirrored 11963, dsfs 8925), sim 10000.
#   SCENARIO_SCALE=<f>  resizes every scenario fleet.
# The tests read their own repro knobs (SIM_SEED, CRASH_SEED,
# SCENARIO_SEED, CHAOS_SEED) from the environment.
set -eu
cd "$(dirname "$0")/.."

rows() {
    cat <<EOF
pipeline  on  SIM_SEED=<seed>      SIM_SEQS=${SIM_SEQS:-2000} cargo test -q --release -p simharness --test differential
cache     on  -                    cargo test -q --release -p chirp-server --test cache_smoke
crash     on  CRASH_SEED=<seed>    SIM_SEQS=${SIM_SEQS:-1000} cargo test -q --release -p simharness --test crash_sim
scenarios on  SCENARIO_SEED=<seed> cargo test -q --release -p simharness --test scenarios_sim
bench     on  -                    cargo test -q --release --offline --manifest-path bench/Cargo.toml
sim       off SIM_SEED=<seed>/CRASH_SEED=<seed>/CHAOS_SEED=<seed> SIM_SEQS=${SIM_SEQS:-10000} cargo test -q --release -p simharness
EOF
}

usage=$(rows | while read -r flag default _; do
    if [ "$default" = on ]; then
        printf ' [--%s|--no-%s]' "$flag" "$flag"
    else
        printf ' [--%s]' "$flag"
    fi
done)
for arg in "$@"; do
    case "$usage" in
        *"[$arg|"* | *"|$arg]"* | *"[$arg]"*) ;;
        *) echo "usage: $0$usage" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release"
cargo build --release

echo "== stage 0: cargo test --workspace -q"
cargo test --workspace -q

echo "== cargo build --release --offline --manifest-path bench/Cargo.toml  (the benchmark still compiles)"
cargo build --release --offline --manifest-path bench/Cargo.toml

rows | while read -r flag default repro cmd; do
    on=$default
    for arg in "$@"; do
        case "$arg" in
            "--$flag") on=on ;;
            "--no-$flag") on=off ;;
        esac
    done
    [ "$on" = on ] || continue
    echo "== $flag: $cmd"
    # The table is this loop's stdin; keep cargo off it.
    if ! env $cmd </dev/null; then
        echo "verify: $flag FAILED; reproduce with:" ${repro#-} "$cmd" >&2
        exit 1
    fi
done

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps

echo "== cargo fmt --check"
cargo fmt --check

echo "verify: OK"
