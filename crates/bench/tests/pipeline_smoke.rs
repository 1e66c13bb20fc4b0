//! Request-pipelining smoke, run by stage 0 of `scripts/verify.sh`: small
//! ops (1 KiB `PREAD`, `STAT`) on one Chirp stream in batches of 8 and
//! of 1, asserting the acceptance floor — ≥2× small-op throughput at
//! pipeline depth 8 vs depth 1 — in a couple hundred milliseconds.
//!
//! Loopback hides the term pipelining attacks, so the client's dialer
//! charges a turnaround latency per write→read switch (a propagation
//! round trip): `n` requests in batches of `depth` pay
//! `ceil(n / depth)` turnarounds instead of `n`.
//!
//! The margin is deliberate: the true ratio on this rig is ~8× (the
//! 2 ms turnaround dominates and is paid once per batch of 8), so a
//! loaded CI machine has to be pathologically unfair to drop it
//! below 2.

use std::time::{Duration, Instant};

use chirp_client::Connection;
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::Dialer;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use tss_bench::{auth, latency_dialer, pipelined_preads, pipelined_stats};

const OPS: usize = 32;
const TURNAROUND: Duration = Duration::from_millis(2);

fn rig() -> (TempDir, FileServer, Connection, i32) {
    let host = TempDir::new();
    let server = FileServer::start(
        ServerConfig::localhost(host.path(), "bench")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .expect("start chirp server");
    let dialer = latency_dialer(Dialer::tcp(), TURNAROUND);
    let mut conn =
        Connection::connect_via(&dialer, &server.endpoint(), Duration::from_secs(10)).unwrap();
    conn.authenticate(&auth()).unwrap();
    conn.putfile("/small", 0o644, &vec![5u8; 1024]).unwrap();
    let (fd, _) = conn.open("/small", OpenFlags::READ, 0).unwrap();
    (host, server, conn, fd)
}

/// Best-of-3 wall time for one batch run, to shrug off load spikes.
fn best_of_3(mut run: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn depth_8_is_at_least_twice_depth_1_for_small_ops() {
    let (_host, _server, mut conn, fd) = rig();

    let pread_d1 = best_of_3(|| pipelined_preads(&mut conn, fd, 1024, OPS, 1));
    let pread_d8 = best_of_3(|| pipelined_preads(&mut conn, fd, 1024, OPS, 8));
    let stat_d1 = best_of_3(|| pipelined_stats(&mut conn, "/small", OPS, 1));
    let stat_d8 = best_of_3(|| pipelined_stats(&mut conn, "/small", OPS, 8));

    let pread_ratio = pread_d1.as_secs_f64() / pread_d8.as_secs_f64();
    let stat_ratio = stat_d1.as_secs_f64() / stat_d8.as_secs_f64();
    println!(
        "pread 1KiB: depth1 {pread_d1:?}, depth8 {pread_d8:?} ({pread_ratio:.1}x); \
         stat: depth1 {stat_d1:?}, depth8 {stat_d8:?} ({stat_ratio:.1}x)"
    );
    assert!(
        pread_ratio >= 2.0,
        "pipelined 1 KiB preads at depth 8 only {pread_ratio:.2}x depth 1"
    );
    assert!(
        stat_ratio >= 2.0,
        "pipelined stats at depth 8 only {stat_ratio:.2}x depth 1"
    );
}
