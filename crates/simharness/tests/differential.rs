//! Differential suite: generated op sequences replayed against the
//! real server and the model, byte for byte.
//!
//! Seed selection:
//!
//! * `SIM_SEED=<n>` replays exactly one seed (failure reproduction).
//! * `SIM_SEQS=<n>` overrides the sequence count.
//! * Otherwise: 10 000 sequences in release builds, 1 000 in debug
//!   builds (where the unoptimized replay loop dominates, not the
//!   system under test). The count is the budget; the elapsed time is
//!   printed, not asserted.

use simharness::diff::{DiffRunner, Divergence};
use simharness::harness::SimTss;

use chirp_server::acl::Acl;

fn default_count() -> u64 {
    if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    }
}

fn check_range(first_seed: u64, count: u64) -> Result<(), Divergence> {
    // The builder default enables a deliberately tiny cache, so the
    // main suite exercises hits, misses, and evictions throughout.
    check_range_with_cache(first_seed, count, Some(64 * 1024))
}

fn check_range_with_cache(
    first_seed: u64,
    count: u64,
    cache: Option<u64>,
) -> Result<(), Divergence> {
    let root_acl = Acl::single("hostname:*", "rwlda").unwrap();
    let sim = SimTss::builder()
        .root_acl(root_acl.clone())
        .cache_bytes(cache)
        .build();
    let mut runner = DiffRunner::new(&sim, root_acl);
    for seed in first_seed..first_seed + count {
        runner.check_seed(seed)?;
    }
    Ok(())
}

/// Check `count` seeds sharded across worker threads, each worker
/// against its own independent instance. Per-seed behavior is
/// unchanged — a failure still names the seed that reproduces it
/// stand-alone.
fn check_sharded(count: u64) -> Result<(), Divergence> {
    check_sharded_with_cache(count, Some(64 * 1024))
}

fn check_sharded_with_cache(count: u64, cache: Option<u64>) -> Result<(), Divergence> {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(4)
        .clamp(1, 8);
    let per = count.div_ceil(shards);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let first = i * per;
                let n = per.min(count.saturating_sub(first));
                s.spawn(move || {
                    if n == 0 {
                        Ok(())
                    } else {
                        check_range_with_cache(first, n, cache)
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shard panicked")?;
        }
        Ok(())
    })
}

#[test]
fn generated_sequences_match_the_model() {
    if let Ok(seed) = std::env::var("SIM_SEED") {
        let seed: u64 = seed.parse().expect("SIM_SEED must be a u64");
        if let Err(d) = check_range(seed, 1) {
            panic!("{d}");
        }
        return;
    }
    let count: u64 = std::env::var("SIM_SEQS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(default_count);
    let start = std::time::Instant::now();
    if let Err(d) = check_sharded(count) {
        panic!("{d}");
    }
    eprintln!("differential: {count} sequences in {:?}", start.elapsed());
}

/// The cache must be invisible at every size: disabled, a pathological
/// two-page budget (one shard, constant eviction, every access racing
/// the LRU), and one large enough that whole working sets stay
/// resident. Same seeds at every size, replayed against the cacheless
/// model. `SIM_SEQS` scales the per-size count like the main suite.
#[test]
fn cache_sizes_are_semantically_invisible() {
    let count: u64 = std::env::var("SIM_SEQS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(default_count);
    for cache in [None, Some(2 * 8192), Some(4 << 20)] {
        let start = std::time::Instant::now();
        if let Err(d) = check_sharded_with_cache(count, cache) {
            panic!("cache={cache:?}: {d}");
        }
        eprintln!(
            "differential: {count} sequences, cache={cache:?}, in {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn replay_is_deterministic() {
    // Same seed range, two independent instances: the generated ops
    // and every observed result must be identical. The sequences
    // include disconnects, ACL edits, and stale-descriptor traffic, so
    // this also pins down that nothing in the in-memory stack leaks
    // wall-clock or scheduling nondeterminism into results.
    let subject = SimTss::builder().build().subject();
    for seed in [0u64, 7, 1234, 99_999] {
        let a = simharness::gen::ops_for_seed(seed, &subject);
        let b = simharness::gen::ops_for_seed(seed, &subject);
        assert_eq!(a, b, "generator nondeterministic at seed {seed}");
    }
    // Full replays agree run-to-run.
    assert!(check_range(5_000, 50).is_ok());
    assert!(check_range(5_000, 50).is_ok());
}
