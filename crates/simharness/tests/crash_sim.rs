//! The crash-injection differential suite.
//!
//! Each seed generates a short sequence of whole-file operations; the
//! harness replays it once to journal every durability point, then
//! once per point with the simulated server killed there, restarting
//! and checking the surviving state against the model (see
//! `simharness::crash`).
//!
//! Knobs:
//! * `SIM_SEQS=<n>`  — how many seeds to sweep (default: small in
//!   debug builds, 1000 in release — the verify.sh `--crash` stage).
//! * `CRASH_SEED=<n>` — sweep exactly one seed, for reproducing a
//!   printed failure.
//!
//! Over the default matrix both sweeps pin their kill totals, so a
//! change that adds or drops a durability point has to say so here.

use simharness::crash::{CrashHarness, CrashStats};

/// Seeds in the default matrix.
const DEFAULT_SEQS: u64 = if cfg!(debug_assertions) { 25 } else { 1000 };
/// Simulated kills over the default matrix, clean and torn alike.
const DEFAULT_KILLS: u64 = if cfg!(debug_assertions) { 260 } else { 9_019 };

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// The seeds to sweep, and whether they are the default matrix.
fn seed_matrix() -> (Vec<u64>, bool) {
    if let Some(seed) = env_u64("CRASH_SEED") {
        return (vec![seed], false);
    }
    let n = env_u64("SIM_SEQS").unwrap_or(DEFAULT_SEQS);
    ((0..n).collect(), n == DEFAULT_SEQS)
}

#[test]
fn crash_sweep_over_seed_matrix() {
    let mut harness = CrashHarness::new();
    let mut totals = CrashStats::default();

    let (seeds, default) = seed_matrix();
    for &seed in &seeds {
        match harness.run_seed(seed) {
            Ok(stats) => totals.add(stats),
            Err(div) => panic!("{div}"),
        }
    }
    println!(
        "crash sweep: {} sequences, {} ops, {} simulated kills, 0 rejected states",
        totals.sequences, totals.ops, totals.crash_points
    );
    assert_eq!(totals.sequences, seeds.len() as u64);
    assert!(
        totals.crash_points > totals.sequences,
        "every sequence must hit multiple durability points"
    );
    if default {
        assert_eq!(
            totals.crash_points, DEFAULT_KILLS,
            "durability points moved"
        );
    }
}

/// The same matrix with the injector in torn-write mode: the killing
/// write persists a seeded strict prefix, so stub writes can leave
/// *corrupt* stubs. Acceptance additionally requires fsck to classify
/// them and repair to remove them (see `simharness::crash`).
#[test]
fn torn_crash_sweep_over_seed_matrix() {
    let mut harness = CrashHarness::new();
    let mut totals = CrashStats::default();

    let (seeds, default) = seed_matrix();
    for &seed in &seeds {
        match harness.run_seed_torn(seed) {
            Ok(stats) => totals.add(stats),
            Err(div) => panic!("{div}"),
        }
    }
    println!(
        "torn crash sweep: {} sequences, {} ops, {} simulated kills, 0 rejected states",
        totals.sequences, totals.ops, totals.crash_points
    );
    assert_eq!(totals.sequences, seeds.len() as u64);
    if default {
        assert_eq!(
            totals.crash_points, DEFAULT_KILLS,
            "durability points moved"
        );
    }
}
