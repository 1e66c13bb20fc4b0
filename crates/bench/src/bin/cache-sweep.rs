//! Live buffer-cache sweep against the simnet prediction.
//!
//! The paper's method in miniature: `simnet` *predicts* how the hit
//! rate of an LRU cache moves as its budget crosses the working set
//! (`predict_uniform_hit_rate`, the same law behind the Figure 7
//! crossover), and this binary *measures* the real server — the
//! production handler stack with the page cache enabled, which evicts
//! by CLOCK, an LRU approximation — under the identical uniform
//! access stream, then prints both side by side.
//! A model that disagrees with the live system here is wrong about
//! the one mechanism the scaling experiments lean on.
//!
//! Run with `cargo run --release -p tss-bench --bin cache-sweep`.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use chirp_proto::message::Request;
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::handlers::{Reply, Session};
use chirp_server::server::Shared;
use chirp_server::ServerConfig;
use simnet::cache::predict_uniform_hit_rate;
use tss_bench::print_table;

const PAGE: u64 = 8192;
const FILES: u64 = 256; // one page per "file": 2 MiB working set
const READS: u64 = 40_000;

fn rig(root: &std::path::Path, cache: Option<u64>) -> (Arc<Shared>, Session, i32) {
    let mut cfg = ServerConfig::localhost(root, "sweep")
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
            path: "/ws".into(),
            flags: OpenFlags::read_write() | OpenFlags::CREATE,
            mode: 0o644,
        },
        None,
    ) else {
        panic!("open");
    };
    let fd = fd as i32;
    for i in 0..FILES {
        s.handle(
            Request::Pwrite {
                fd,
                length: PAGE,
                offset: i * PAGE,
            },
            Some(vec![(i % 251) as u8; PAGE as usize]),
        )
        .unwrap();
    }
    (shared, s, fd)
}

/// Uniform page-aligned preads; the same access law the predictor
/// runs. Returns (wall seconds, delivered bytes).
fn drive(s: &mut Session, fd: i32, reads: u64) -> (f64, u64) {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut total = 0u64;
    let t = Instant::now();
    for _ in 0..reads {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let offset = ((state >> 33) % FILES) * PAGE;
        match s.handle(
            Request::Pread {
                fd,
                length: PAGE,
                offset,
            },
            None,
        ) {
            Ok(Reply::Pages(p)) => total += p.total() as u64,
            Ok(Reply::Scratch(n)) => total += n as u64,
            other => panic!("pread: {other:?}"),
        }
    }
    (t.elapsed().as_secs_f64(), total)
}

fn main() {
    let ws = FILES * PAGE;
    // Sweep the budget across the working set: deep thrash, the
    // crossover region, exact fit, and head-room.
    let sweep: &[u64] = &[ws / 8, ws / 4, ws / 2, (ws * 3) / 4, ws, ws * 2];

    // Read-through baseline for the throughput column.
    let base_dir = TempDir::new();
    let (_, mut base, fd) = rig(base_dir.path(), None);
    drive(&mut base, fd, READS / 4); // warm the OS page cache
    let (base_secs, base_bytes) = drive(&mut base, fd, READS);
    let base_mbs = base_bytes as f64 / base_secs / 1e6;

    let mut rows = Vec::new();
    for &cache in sweep {
        let dir = TempDir::new();
        let (shared, mut sess, fd) = rig(dir.path(), Some(cache));
        // Warm to steady state, then reset the counters' baseline by
        // sampling before the measured run.
        drive(&mut sess, fd, READS / 4);
        let reg = shared.telemetry.registry();
        let (h0, m0) = (
            reg.counter("cache.hits").get(),
            reg.counter("cache.misses").get(),
        );
        let (secs, bytes) = drive(&mut sess, fd, READS);
        let (h1, m1) = (
            reg.counter("cache.hits").get(),
            reg.counter("cache.misses").get(),
        );
        let live = (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)) as f64;
        let predicted = predict_uniform_hit_rate(cache, FILES, PAGE, READS);
        rows.push(vec![
            format!("{}", cache >> 10),
            format!("{:.0}", 100.0 * cache as f64 / ws as f64),
            format!("{:.3}", predicted),
            format!("{:.3}", live),
            format!("{:+.3}", live - predicted),
            format!("{:.0}", bytes as f64 / secs / 1e6),
        ]);
    }
    print_table(
        &format!(
            "Buffer cache sweep: live server vs simnet LRU prediction\n\
             (working set {} KiB as {FILES} x 8 KiB pages, {READS} uniform reads,\n\
             \x20read-through baseline {base_mbs:.0} MB/s)",
            ws >> 10
        ),
        &[
            "cache KiB",
            "% of WS",
            "predicted hit",
            "live hit",
            "delta",
            "MB/s",
        ],
        &rows,
    );
    println!(
        "  the live curve should track the predicted one within a few\n\
         \x20 percent: under uniform access an LRU's hit rate is the\n\
         \x20 fraction of the working set it holds, saturating at 1.0 —\n\
         \x20 the same crossover simnet's Figure 7 model turns on."
    );
}
