//! Buffer-cache smoke, run in debug by stage 0 of `scripts/verify.sh`
//! and in release by its `cache` row: the acceptance floor for the
//! server-side page cache, measured at the handler layer (no sockets)
//! so the cache's effect is not drowned in loopback round trips.
//!
//! * **Hot**: 8 KiB `PREAD`s over a working set that fits the cache
//!   must run ≥2× faster than the same reads through a cacheless
//!   server (which still enjoys the OS page cache — the floor is
//!   against the *best* read-through case, syscall included).
//! * **Cold/oversized**: reads past the bypass threshold must stay
//!   near the read-through baseline — the cache can lose a little to
//!   bookkeeping but must never fall off a cliff.
//! * **Cold misses**: 64 KiB reads uniform over four times the cache
//!   hit about a quarter of the time whatever the cache does, so they
//!   must cost at most 1.3× the cacheless rig: a full cache admits a
//!   page only on its second miss, and reads the rest straight into
//!   the reply.
//!
//! Thresholds are deliberately lax versions of the measured ratios
//! (see EXPERIMENTS.md) so only a real regression trips them. The
//! timing floors are release-only: both sides of the comparison are
//! CPU-bound handler code, and an unoptimized build skews the ratio
//! meaninglessly. Debug runs still check every correctness property
//! (byte equality, reply variants, hit rate).

use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_proto::message::Request;
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::handlers::{Reply, Session};
use chirp_server::server::Shared;
use chirp_server::ServerConfig;

const PAGE: u64 = 8192;
const WORKING_SET: u64 = 2 << 20; // 2 MiB = 256 pages
const CACHE: u64 = 8 << 20; // holds the whole working set
const READS: usize = 4_000;

fn rig(root: &std::path::Path, cache: Option<u64>) -> (Arc<Shared>, Session, i32) {
    let mut cfg = ServerConfig::localhost(root, "bench")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    cfg.cache_bytes = cache;
    let shared = Shared::new(cfg).unwrap();
    let ip: IpAddr = "127.0.0.1".parse().unwrap();
    let mut s = Session::new(shared.clone(), ip);
    s.handle(
        Request::Auth {
            method: "hostname".into(),
            name: "localhost".into(),
            credential: String::new(),
        },
        None,
    )
    .unwrap();
    let Ok(Reply::Words(fd, _)) = s.handle(
        Request::Open {
            path: "/data".into(),
            flags: OpenFlags::read_write() | OpenFlags::CREATE,
            mode: 0o644,
        },
        None,
    ) else {
        panic!("open");
    };
    let fd = fd as i32;
    // Lay down the working set page by page.
    for i in 0..WORKING_SET / PAGE {
        let chunk = vec![(i % 251) as u8; PAGE as usize];
        s.handle(
            Request::Pwrite {
                fd,
                length: PAGE,
                offset: i * PAGE,
            },
            Some(chunk),
        )
        .unwrap();
    }
    (shared, s, fd)
}

/// Drive `READS` page-aligned 8 KiB preads at LCG-picked offsets.
/// Returns total bytes delivered (same for every rig — checked).
fn read_loop(s: &mut Session, fd: i32) -> u64 {
    let pages = WORKING_SET / PAGE;
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut total = 0u64;
    for _ in 0..READS {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let offset = ((state >> 33) % pages) * PAGE;
        match s.handle(
            Request::Pread {
                fd,
                length: PAGE,
                offset,
            },
            None,
        ) {
            Ok(Reply::Pages(p)) => total += p.total() as u64,
            other => panic!("pread: {other:?}"),
        }
    }
    total
}

/// Best-of-3 wall time, to shrug off load spikes.
fn best_of_3(mut run: impl FnMut() -> u64) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        bytes = run();
        best = best.min(t.elapsed());
    }
    (best, bytes)
}

#[test]
fn hot_cached_reads_are_at_least_twice_read_through() {
    let dir_hot = TempDir::new();
    let dir_cold = TempDir::new();
    let (shared, mut hot, fd_hot) = rig(dir_hot.path(), Some(CACHE));
    let (_, mut base, fd_base) = rig(dir_cold.path(), None);

    // Warm both: the cached rig populates its pages, the baseline
    // warms the OS page cache (the fairest possible read-through).
    read_loop(&mut hot, fd_hot);
    read_loop(&mut base, fd_base);

    let (t_hot, b_hot) = best_of_3(|| read_loop(&mut hot, fd_hot));
    let (t_base, b_base) = best_of_3(|| read_loop(&mut base, fd_base));
    assert_eq!(b_hot, b_base, "both rigs must deliver identical bytes");

    let ratio = t_base.as_secs_f64() / t_hot.as_secs_f64();
    println!("hot 8KiB preads: cached {t_hot:?}, read-through {t_base:?} ({ratio:.1}x)");
    assert!(
        cfg!(debug_assertions) || ratio >= 2.0,
        "cached hot reads only {ratio:.2}x read-through (floor is 2x)"
    );

    // The workload fits the cache, so after warm-up the hit rate must
    // be essentially perfect.
    let reg = shared.telemetry.registry();
    let hits = reg.counter("cache.hits").get();
    let misses = reg.counter("cache.misses").get();
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate > 0.95,
        "resident working set should hit >95%, got {rate:.3} ({hits} hits / {misses} misses)"
    );
}

#[test]
fn oversized_reads_stay_near_the_baseline() {
    let dir_a = TempDir::new();
    let dir_b = TempDir::new();
    let (_, mut cached, fd_c) = rig(dir_a.path(), Some(CACHE));
    let (_, mut base, fd_b) = rig(dir_b.path(), None);

    // Reads larger than the bypass threshold (CACHE/2 = 4 MiB) take
    // the read-through path even on a cache-enabled server;
    // grow the file past that first.
    let big = 6 << 20;
    for (s, fd) in [(&mut cached, fd_c), (&mut base, fd_b)] {
        s.handle(
            Request::Pwrite {
                fd,
                length: PAGE,
                offset: big - PAGE,
            },
            Some(vec![1u8; PAGE as usize]),
        )
        .unwrap();
    }
    let sweep = |s: &mut Session, fd: i32| -> u64 {
        let mut total = 0;
        for _ in 0..8 {
            match s.handle(
                Request::Pread {
                    fd,
                    length: big,
                    offset: 0,
                },
                None,
            ) {
                // Read through: one buffer of its own, no cache pages.
                Ok(Reply::Pages(p)) if p.slices().len() == 1 => total += p.total() as u64,
                other => panic!("oversized pread should read through, got {other:?}"),
            }
        }
        total
    };
    sweep(&mut cached, fd_c);
    sweep(&mut base, fd_b);
    let (t_cached, b1) = best_of_3(|| sweep(&mut cached, fd_c));
    let (t_base, b2) = best_of_3(|| sweep(&mut base, fd_b));
    assert_eq!(b1, b2);
    let ratio = t_cached.as_secs_f64() / t_base.as_secs_f64();
    println!("oversized 6MiB preads: cached rig {t_cached:?}, baseline {t_base:?} ({ratio:.2}x)");
    // Measured ~1.0x (the bypass check is one compare); 1.5 leaves CI
    // headroom without letting a real cliff through.
    assert!(
        cfg!(debug_assertions) || ratio <= 1.5,
        "oversized reads on the cached server are {ratio:.2}x the baseline"
    );
}

/// Uniform 64 KiB `PREAD`s over a file four times the cache, on a rig
/// warmed past full: the cache may not charge a miss much more than the
/// read-through rig pays (it filled every miss, ≈ 2×, before admission).
#[test]
fn cold_uniform_misses_stay_near_read_through() {
    const BLOCK: u64 = 64 << 10;
    const FILE: u64 = 4 * CACHE;
    const COLD_READS: usize = 4_000;
    let dir_a = TempDir::new();
    let dir_b = TempDir::new();
    let (shared, mut cached, fd_c) = rig(dir_a.path(), Some(CACHE));
    let (_, mut base, fd_b) = rig(dir_b.path(), None);
    // Grow both files to four times the cache, one block at a time,
    // each block's bytes naming it.
    for (s, fd) in [(&mut cached, fd_c), (&mut base, fd_b)] {
        for b in WORKING_SET / BLOCK..FILE / BLOCK {
            s.handle(
                Request::Pwrite {
                    fd,
                    length: BLOCK,
                    offset: b * BLOCK,
                },
                Some(vec![(b % 251) as u8; BLOCK as usize]),
            )
            .unwrap();
        }
    }
    // Returns an FNV-1a digest of every byte delivered, in order, or
    // (untimed by it) just their count.
    let sweep = |s: &mut Session, fd: i32, reads: usize, digest_bytes: bool| -> u64 {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..reads {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let offset = ((state >> 33) % (FILE / BLOCK)) * BLOCK;
            match s.handle(
                Request::Pread {
                    fd,
                    length: BLOCK,
                    offset,
                },
                None,
            ) {
                Ok(Reply::Pages(p)) if p.total() == BLOCK as usize => {
                    if !digest_bytes {
                        digest += BLOCK;
                        continue;
                    }
                    for byte in p.slices().iter().flat_map(|sl| sl.as_slice()) {
                        digest = (digest ^ *byte as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
                other => panic!("pread: {other:?}"),
            }
        }
        digest
    };
    // Twice the cache in reads: full, and at its steady state. The
    // bytes are checked here, and after the timed runs.
    let warm = (2 * CACHE / BLOCK) as usize;
    let d1 = sweep(&mut cached, fd_c, warm, true);
    assert_eq!(
        d1,
        sweep(&mut base, fd_b, warm, true),
        "the rigs' bytes differ"
    );
    // Alternate the rigs, so drift in the machine's speed hits both.
    let (mut t_cached, mut t_base) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        for (s, fd, best) in [
            (&mut cached, fd_c, &mut t_cached),
            (&mut base, fd_b, &mut t_base),
        ] {
            let t = Instant::now();
            sweep(s, fd, COLD_READS, false);
            *best = (*best).min(t.elapsed());
        }
    }
    assert_eq!(
        d1,
        sweep(&mut cached, fd_c, warm, true),
        "the cache's bytes moved"
    );
    let ratio = t_cached.as_secs_f64() / t_base.as_secs_f64();
    println!("cold 64KiB preads: cached {t_cached:?}, read-through {t_base:?} ({ratio:.2}x)");
    assert!(
        cfg!(debug_assertions) || ratio <= 1.3,
        "cold cached reads are {ratio:.2}x read-through (ceiling is 1.3x)"
    );
    let reg = shared.telemetry.registry();
    assert_eq!(
        reg.gauge("cache.resident_bytes").get(),
        CACHE as i64,
        "full"
    );
}
