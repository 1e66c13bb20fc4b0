//! The crash-injection differential suite.
//!
//! Each seed generates a short sequence of whole-file operations; the
//! harness runs it on a `LocalFs` reference, replays it once per cell
//! to journal every durability point, then once per point with the
//! simulated deployment killed there, restarting and checking the
//! surviving state against the reference (see `simharness::crash`).
//! The cells are the stub engine's three layouts over a local tree —
//! single, striped (4-byte stripes, 2 wide) and mirrored (2 copies) —
//! and the single layout with its tree on a file server (DSFS); each
//! has one test for clean kills and one for torn ones.
//!
//! Knobs:
//! * `SIM_SEQS=<n>`  — how many seeds to sweep (default: small in
//!   debug builds, 1000 in release — the `crash` row of
//!   `scripts/verify.sh`).
//! * `CRASH_SEED=<n>` — sweep exactly one seed, for reproducing a
//!   printed failure.
//!
//! Over the default matrix every cell pins its kill total, the same
//! for clean and torn kills, so a change that adds or drops a
//! durability point has to say so here. The DSFS cell sweeps exactly
//! the single cell's points minus its directory syncs: `Cfs` has no
//! `sync_dir`, so a DSFS tree's directory entries are never made
//! durable on their own.

use simharness::crash::{Cell, CrashHarness, CrashStats};

/// Seeds in the default matrix.
const DEFAULT_SEQS: u64 = if cfg!(debug_assertions) { 25 } else { 1000 };

/// Simulated kills per cell over the default matrix, clean and torn
/// alike.
fn default_kills(cell: Cell) -> u64 {
    let (release, debug) = match cell {
        Cell::Single => (9_019, 260),
        Cell::Striped => (13_311, 362),
        Cell::Mirrored => (11_963, 343),
        Cell::Dsfs => (8_091, 234),
    };
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

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

/// Sweep the seed matrix on `cell`. In torn mode the killing write
/// persists a seeded strict prefix, so stub writes can leave *corrupt*
/// stubs, which fsck must classify and repair remove.
fn sweep(cell: Cell, torn: bool) {
    let mut harness = CrashHarness::new();
    let mut totals = CrashStats::default();
    let (seeds, default) = seed_matrix();
    for &seed in &seeds {
        match harness.run_seed(cell, seed, torn) {
            Ok(stats) => totals.add(stats),
            Err(div) => panic!("{div}"),
        }
    }
    println!(
        "{cell} crash sweep{}: {} sequences, {} ops, {} simulated kills, 0 rejected states",
        if torn { " (torn)" } else { "" },
        totals.sequences,
        totals.ops,
        totals.crash_points
    );
    assert_eq!(totals.sequences, seeds.len() as u64);
    assert!(
        totals.crash_points > totals.sequences,
        "every sequence must hit multiple durability points"
    );
    if default {
        assert_eq!(
            totals.crash_points,
            default_kills(cell),
            "{cell} durability points moved"
        );
    }
}

/// One test per cell and mode, so the slow cells share the test
/// threads.
macro_rules! cells {
    ($($clean:ident, $torn:ident: $cell:expr;)*) => {$(
        #[test]
        fn $clean() {
            sweep($cell, false);
        }

        #[test]
        fn $torn() {
            sweep($cell, true);
        }
    )*};
}

cells! {
    single_clean, single_torn: Cell::Single;
    striped_clean, striped_torn: Cell::Striped;
    mirrored_clean, mirrored_torn: Cell::Mirrored;
    dsfs_clean, dsfs_torn: Cell::Dsfs;
}
