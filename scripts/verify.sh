#!/bin/sh
# Tier-1 verification: everything a change must pass before landing.
#   build + root-package tests (the ROADMAP tier-1 gate), then lint
#   and formatting across the whole workspace. Tier-1 `cargo test`
#   covers the root package only, so the abstraction layer's own suite
#   (`cargo test -p tss-core`: unit tests, the protocol's compile_fail
#   doctests, abstractions, extensions, recovery, readahead, chaos
#   under its default seed) is run here as well, and so are the unit
#   and property suites of the stream layer under it (`cargo test -p
#   chirp-proto -p chirp-client -p telemetry`: the pipeline's FIFO and
#   failure properties, the owed-reply contract, the metric cells),
#   which no other default stage runs, and so are the file server's
#   unit tests (handlers, jail, acl, cache) with its metadata,
#   robustness, capacity and stress suites. The benchmark package
#   under bench/ is a workspace of its own that the steps above never
#   compile, so it is built here too: a break in the public items it
#   calls (Acl::{new,single,load_effective,rights_of},
#   ServerConfig::{localhost,with_root_acl,with_cache,with_core},
#   cache::{PageCache,file_key}, FileServer with
#   FileServer::{endpoint,telemetry} and
#   FileServer::stats().snapshot().connections; from chirp-client
#   Connection::{connect,connect_via,authenticate,whoami} and
#   AuthMethod::Hostname; Cfs::telemetry and the client.* counters
#   behind it; and from tss-core
#   stub::Stub { endpoint, data_path } + render,
#   stubfs::{DataServer::new, StubFsOptions { timeout, retry, dialer,
#   clock, .. }}, Dsfs::with_options (six arguments) +
#   Dsfs::stubfs().pool_stats() with PoolStats::{hits,misses,retries},
#   pool::ServerPool::{new,checkout}, Placement::round_robin,
#   Adapter::mount_dsfs, fs::{FileHandle, FileSystem}) fails verify,
#   not the benchmark pipeline.
# With --chaos, additionally run the fault-injection suite under a
# fixed seed (override with CHAOS_SEED=<u64>).
# With --metrics, additionally run the observability smoke stage: boot
# a real file server and catalog, drive RPCs, scrape the catalog's
# metrics query interface, and assert non-zero RPC counters with
# latency quantiles in both the ClassAd and JSON forms.
# With --sim, additionally run the deterministic simulation suite in
# release mode over a fixed seed matrix (override with SIM_SEQS=<n>);
# a divergence prints the failing seed plus the minimized op trace,
# reproducible stand-alone with SIM_SEED=<seed>.
# The --pipeline stage (part of the default run; --no-pipeline skips
# it) checks the pipelined data path: the fixed-seed differential mix
# including pipelined bursts (override with PIPE_SEQS=<n>) plus the
# pipelining smoke asserting >=2x small-op throughput at depth 8 vs
# depth 1.
# The --cache stage (part of the default run; --no-cache skips it)
# checks the server-side buffer cache: the coherence suite (two-fd
# visibility, truncate/extend, unlink-while-open, rename clobber, a
# randomized mirror under a pathological two-page cache), the ACL
# cache's coherence suite (policy changed on one connection governs
# the next RPC on another, plus a seeded mirror against the uncached
# loader), the release
# smoke asserting the >=2x hot-read floor with oversized reads near
# baseline, and the cache-size differential matrix (off / two-page /
# large) replayed against the cacheless model.
# The --crash stage (part of the default run; --no-crash skips it)
# sweeps the crash-injection suite in release mode: each seeded op
# sequence is replayed with a simulated kill at every durability
# point it journals, and the restarted filesystem must fsck/repair
# into a state the stub/data ordering argument accepts (override the
# matrix size with SIM_SEQS=<n>, or replay one printed failure with
# CRASH_SEED=<u64>); then the same kill-at-every-point sweep over a
# striped and a mirrored file (crash_striped; STRIPE_CRASH_SEED=<u64>
# picks the torn-write offsets) and the fsck/repair convergence
# properties over arbitrary planted damage (fsck_props).
# The --reactor stage (part of the default run; --no-reactor skips
# it) proves the event-driven connection core: the reactor edge-case
# suite (slow-reader backpressure, mid-pipeline disconnect, idle-crowd
# shutdown, a readiness-less transport refused, accept back-off, an
# 8 MiB GETFILE yielding its shard within one turn's budget, and a
# THIRDPUT held by a slow target: its shard keeps serving, a request
# pipelined behind it is answered after it, a client gone mid-push
# gets its slot back), the in-memory THIRDPUT and session-teardown
# suite (e2e_sim), then
# release mode for the differential matrix against the model oracle
# (REACTOR_SEED=<u64> replays one printed failure), the 2k
# idle-connection soak at flat
# memory (REACTOR_SOAK=<n> scales it), and the unbound-listener
# terminality check.
# The --scenarios stage (part of the default run; --no-scenarios
# skips it) runs the mass-tenant scenario suite in release mode: the
# SP5 init stampede (>=1000 virtual clients cold-opening one tree),
# the CI-artifact THIRDPUT fan-out, mass ACL churn, the mixed-fleet
# soak, the challenge-response auth storm, key rotation under load,
# and the pinned-seed regression corpus — each with asserted telemetry
# envelopes. A violation prints SCENARIO_SEED=<n>; SCENARIO_SCALE=<f>
# resizes every fleet (and the idle soak and conn-scale defaults).
# The --fed stage (part of the default run; --no-fed skips it) checks
# the THIRDPUT distribution trees and GEMS in release mode: the gems
# package's units, tree chaos (an interior node killed mid-transfer, a
# dead target abandoned after its attempt budget) and preservation
# suites on the in-memory network, then the live tree smoke asserting
# the 8-replica tree lands within 4x of one direct push.
set -eu
cd "$(dirname "$0")/.."

CHAOS=0
METRICS=0
SIM=0
PIPELINE=1
CACHE=1
CRASH=1
FED=1
REACTOR=1
SCENARIOS=1
for arg in "$@"; do
    case "$arg" in
        --chaos) CHAOS=1 ;;
        --metrics) METRICS=1 ;;
        --sim) SIM=1 ;;
        --pipeline) PIPELINE=1 ;;
        --no-pipeline) PIPELINE=0 ;;
        --cache) CACHE=1 ;;
        --no-cache) CACHE=0 ;;
        --crash) CRASH=1 ;;
        --no-crash) CRASH=0 ;;
        --fed) FED=1 ;;
        --no-fed) FED=0 ;;
        --reactor) REACTOR=1 ;;
        --no-reactor) REACTOR=0 ;;
        --scenarios) SCENARIOS=1 ;;
        --no-scenarios) SCENARIOS=0 ;;
        *) echo "usage: $0 [--chaos] [--metrics] [--sim] [--pipeline|--no-pipeline] [--cache|--no-cache] [--crash|--no-crash] [--fed|--no-fed] [--reactor|--no-reactor] [--scenarios|--no-scenarios]" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo test -q -p tss-core  (abstraction layer: units, doctests, integration, chaos)"
cargo test -q -p tss-core

echo "== cargo test -q -p chirp-proto -p chirp-client -p telemetry  (stream layer: pipeline props, owed-reply contract, metric cells)"
cargo test -q -p chirp-proto -p chirp-client -p telemetry

echo "== cargo test -q -p chirp-server --lib --test metadata_ops --test robustness --test capacity --test stress  (file server: units, metadata over LocalFs, hostile peers, capacity, stress)"
cargo test -q -p chirp-server --lib --test metadata_ops --test robustness --test capacity --test stress

echo "== cargo build --release --offline --manifest-path bench/Cargo.toml  (the benchmark still compiles)"
cargo build --release --offline --manifest-path bench/Cargo.toml

if [ "$CHAOS" = "1" ]; then
    # 0xC4A05EED, the chaos suite's default seed.
    CHAOS_SEED="${CHAOS_SEED:-3298844397}"
    echo "== cargo test -q -p tss-core --test chaos  (CHAOS_SEED=$CHAOS_SEED)"
    if ! CHAOS_SEED="$CHAOS_SEED" cargo test -q -p tss-core --test chaos; then
        echo "chaos suite FAILED; reproduce with CHAOS_SEED=$CHAOS_SEED" >&2
        exit 1
    fi
fi

if [ "$METRICS" = "1" ]; then
    echo "== cargo test -q -p catalog --test metrics_e2e  (server+catalog metrics smoke)"
    cargo test -q -p catalog --test metrics_e2e
    echo "== cargo test -q -p tss-bench --test tss_top  (tss-top render smoke)"
    cargo test -q -p tss-bench --test tss_top
fi

if [ "$SIM" = "1" ]; then
    # Fixed seed matrix: seeds 0..SIM_SEQS-1 differentially checked
    # real-vs-model, plus the chaos-under-simulation and e2e suites.
    SIM_SEQS="${SIM_SEQS:-10000}"
    echo "== cargo test -q --release -p simharness  (SIM_SEQS=$SIM_SEQS)"
    if ! SIM_SEQS="$SIM_SEQS" cargo test -q --release -p simharness; then
        echo "simulation suite FAILED; the log above names the seed -" >&2
        echo "reproduce with SIM_SEED=<seed> cargo test --release -p simharness" >&2
        exit 1
    fi
fi

if [ "$PIPELINE" = "1" ]; then
    echo "== cargo test -q -p tss-bench --test pipeline_smoke  (pipelining smoke, >=2x at depth 8)"
    cargo test -q -p tss-bench --test pipeline_smoke
    # Fixed seed matrix with the pipelined-burst / batched-metadata op
    # mix, differentially checked real-vs-model in release mode.
    PIPE_SEQS="${PIPE_SEQS:-2000}"
    echo "== cargo test -q --release -p simharness --test differential  (SIM_SEQS=$PIPE_SEQS)"
    if ! SIM_SEQS="$PIPE_SEQS" cargo test -q --release -p simharness --test differential; then
        echo "pipeline differential mix FAILED; the log above names the seed -" >&2
        echo "reproduce with SIM_SEED=<seed> cargo test --release -p simharness" >&2
        exit 1
    fi
fi

if [ "$CACHE" = "1" ]; then
    echo "== cargo test -q -p chirp-server --test cache_coherence  (coherence suite)"
    cargo test -q -p chirp-server --test cache_coherence
    echo "== cargo test -q -p chirp-server --test acl_coherence  (ACL cache coherence suite)"
    cargo test -q -p chirp-server --test acl_coherence
    # Release mode: the smoke asserts a wall-clock ratio the debug
    # profile's bookkeeping would distort.
    echo "== cargo test -q --release -p tss-bench --test cache_smoke  (>=2x hot-read floor)"
    cargo test -q --release -p tss-bench --test cache_smoke
    CACHE_SEQS="${CACHE_SEQS:-2000}"
    echo "== cargo test -q --release -p simharness --test differential cache_sizes  (SIM_SEQS=$CACHE_SEQS)"
    if ! SIM_SEQS="$CACHE_SEQS" cargo test -q --release -p simharness --test differential cache_sizes; then
        echo "cache-size differential matrix FAILED; the log above names the seed -" >&2
        echo "reproduce with SIM_SEED=<seed> cargo test --release -p simharness" >&2
        exit 1
    fi
fi

if [ "$CRASH" = "1" ]; then
    # Kill the simulated server at every durability point of every
    # sequence in the seed matrix; release mode keeps the full sweep
    # in seconds. CRASH_SEED=<u64> replays a single printed failure.
    CRASH_SEQS="${SIM_SEQS:-1000}"
    echo "== cargo test -q --release -p simharness --test crash_sim  (SIM_SEQS=$CRASH_SEQS)"
    if ! SIM_SEQS="$CRASH_SEQS" CRASH_SEED="${CRASH_SEED:-}" cargo test -q --release -p simharness --test crash_sim; then
        echo "crash-injection sweep FAILED; the log above names the seed -" >&2
        echo "reproduce with CRASH_SEED=<seed> cargo test --release -p simharness --test crash_sim" >&2
        exit 1
    fi
    echo "== cargo test -q --release -p simharness --test crash_striped --test fsck_props"
    cargo test -q --release -p simharness --test crash_striped --test fsck_props
fi

if [ "$FED" = "1" ]; then
    echo "== cargo test -q --release -p gems  (tree chaos, preservation, units)"
    cargo test -q --release -p gems
    # Live THIRDPUT tree smoke: release mode, the assertion is a
    # wall-clock ratio (8-replica tree <= 4x one direct push).
    echo "== cargo test -q --release -p tss-bench --test tree_smoke  (<=4x tree floor)"
    cargo test -q --release -p tss-bench --test tree_smoke
fi

if [ "$REACTOR" = "1" ]; then
    echo "== cargo test -q -p chirp-server --test reactor_edge  (reactor edge cases)"
    cargo test -q -p chirp-server --test reactor_edge
    echo "== cargo test -q -p simharness --test e2e_sim  (THIRDPUT and teardown over MemNet)"
    cargo test -q -p simharness --test e2e_sim
    # The server replayed against the model oracle over the seed
    # matrix, the 2k idle-connection soak at flat memory, and the
    # unbound-listener terminality check. Release mode keeps the
    # matrix plus the soak in seconds; REACTOR_SEED replays one
    # failing sequence, REACTOR_SOAK scales the crowd (50000 is the
    # headline run recorded in EXPERIMENTS.md).
    REACTOR_SEQS="${SIM_SEQS:-400}"
    echo "== cargo test -q --release -p simharness --test reactor_sim  (SIM_SEQS=$REACTOR_SEQS)"
    if ! SIM_SEQS="$REACTOR_SEQS" REACTOR_SOAK="${REACTOR_SOAK:-}" cargo test -q --release -p simharness --test reactor_sim; then
        echo "reactor suite FAILED; the log above names the seed -" >&2
        echo "reproduce with REACTOR_SEED=<seed> cargo test --release -p simharness --test reactor_sim" >&2
        exit 1
    fi
fi

if [ "$SCENARIOS" = "1" ]; then
    # Mass-tenant scenarios with asserted envelopes. Release mode is
    # where the fleets get their headline widths (the stampede must
    # cross 1000 virtual clients); a violated envelope prints its
    # SCENARIO_SEED repro line and, for small fleets, the ddmin-
    # minimized client set.
    echo "== cargo test -q --release -p simharness --test scenarios_sim  (SCENARIO_SCALE=${SCENARIO_SCALE:-1})"
    if ! SCENARIO_SEED="${SCENARIO_SEED:-}" SCENARIO_SCALE="${SCENARIO_SCALE:-}" \
        cargo test -q --release -p simharness --test scenarios_sim; then
        echo "scenario suite FAILED; the log above names the seed -" >&2
        echo "reproduce with SCENARIO_SEED=<seed> cargo test --release -p simharness --test scenarios_sim" >&2
        exit 1
    fi
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "verify: OK"
