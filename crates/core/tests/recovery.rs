//! Adapter recovery semantics (paper §6): reconnection with backoff,
//! transparent re-open, inode verification, stale handles, and the
//! retry cap — exercised through a severable, retargetable dialer
//! between client and server.

mod common;

use std::sync::Arc;
use std::time::Duration;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use common::flaky::FlakyDialer;
use common::{auth, open_server};
use tss_core::cfs::{Cfs, CfsConfig, RetryPolicy};
use tss_core::fs::FileSystem;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::ServerPool;

fn recovering_cfs(net: &Arc<FlakyDialer>) -> Cfs {
    let mut cfg = CfsConfig::new(&net.endpoint(), auth());
    cfg.dialer = net.dialer();
    cfg.timeout = Duration::from_millis(1500);
    cfg.retry = RetryPolicy {
        max_retries: 6,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    Cfs::new(cfg)
}

#[test]
fn pathless_ops_reconnect_transparently() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let fs = recovering_cfs(&net);
    fs.write_file("/f", b"v1").unwrap();
    net.drop_connections();
    // The next operation sees a dead connection, reconnects, and
    // succeeds without the caller noticing.
    assert_eq!(fs.read_file("/f").unwrap(), b"v1");
}

#[test]
fn open_handles_survive_reconnection_when_inode_is_unchanged() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let fs = recovering_cfs(&net);
    fs.write_file("/f", b"0123456789").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    let mut buf = [0u8; 5];
    assert_eq!(h.pread(&mut buf, 0).unwrap(), 5);

    net.drop_connections();

    // The server closed our descriptor when the connection dropped;
    // the adapter reconnects, re-opens, verifies the inode, and hides
    // the change in the underlying file descriptor.
    assert_eq!(h.pread(&mut buf, 5).unwrap(), 5);
    assert_eq!(&buf, b"56789");
}

#[test]
fn replaced_file_becomes_a_stale_handle() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let fs = recovering_cfs(&net);
    fs.write_file("/f", b"original").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    let mut buf = [0u8; 8];
    h.pread(&mut buf, 0).unwrap();

    // Replace the file while the client is disconnected: same name,
    // different inode. (Renaming the original aside, rather than
    // unlinking it, keeps its inode allocated so the replacement is
    // guaranteed a different one.)
    net.drop_connections();
    fs.rename("/f", "/f-old").unwrap();
    fs.write_file("/f", b"replaced").unwrap();

    let err = h.pread(&mut buf, 0).expect_err("stale handle");
    // "the client receives a 'stale file handle' error as in NFS."
    assert!(err.to_string().contains("stale"), "got: {err}");
}

#[test]
fn deleted_file_becomes_a_stale_handle() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let fs = recovering_cfs(&net);
    fs.write_file("/f", b"original").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    net.drop_connections();
    fs.unlink("/f").unwrap();
    let mut buf = [0u8; 4];
    assert!(h.pread(&mut buf, 0).is_err());
}

#[test]
fn retry_cap_limits_recovery_attempts() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let mut cfg = CfsConfig::new(&net.endpoint(), auth());
    cfg.dialer = net.dialer();
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = RetryPolicy {
        max_retries: 2,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let fs = Cfs::new(cfg);
    fs.write_file("/f", b"x").unwrap();
    // Sever and refuse further connections: retries must give up.
    net.set_target(None);
    net.drop_connections();
    let start = std::time::Instant::now();
    assert!(fs.read_file("/f").is_err());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "bounded retries must fail promptly"
    );
}

#[test]
fn no_retry_policy_fails_on_first_break() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let mut cfg = CfsConfig::new(&net.endpoint(), auth());
    cfg.dialer = net.dialer();
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = RetryPolicy::none();
    let fs = Cfs::new(cfg);
    fs.write_file("/f", b"x").unwrap();
    net.drop_connections();
    assert!(fs.read_file("/f").is_err());
    // But a fresh operation after the failure reconnects lazily.
    assert_eq!(fs.read_file("/f").unwrap(), b"x");
}

#[test]
fn server_restart_does_not_hand_out_stale_pool_sockets() {
    // Regression: a pooled connection that sat idle across a server
    // restart leads to a dead peer. With `max_idle` elapsed the entry
    // is evicted at checkout and a fresh connection is dialed — even
    // under a no-retry policy that would otherwise surface the stale
    // socket as an immediate error.
    let dir = TempDir::new();
    let mut server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let endpoint = net.endpoint();
    let options = StubFsOptions {
        dialer: net.dialer(),
        timeout: Duration::from_millis(1500),
        retry: RetryPolicy::none(),
        max_idle: Duration::from_millis(40),
        ..StubFsOptions::default()
    };
    let pool = ServerPool::new(vec![DataServer::new(&endpoint, "/vol", auth())], options);
    pool.with_conn(&endpoint, |cfs| cfs.write_file("/f", b"v1"))
        .unwrap();
    assert_eq!(pool.idle_count(&endpoint), 1);

    // Restart the server: the cached socket's peer is gone.
    server.shutdown();
    drop(server);
    let server2 = open_server(dir.path());
    net.set_target(Some(server2.addr()));
    net.drop_connections();
    std::thread::sleep(Duration::from_millis(60));

    assert_eq!(
        pool.with_conn(&endpoint, |cfs| cfs.read_file("/f"))
            .unwrap(),
        b"v1"
    );
    let stats = pool.stats();
    assert_eq!(stats.evictions, 1, "aged entry evicted, not handed out");
    assert_eq!(stats.misses, 2, "second checkout dialed fresh");
}

#[test]
fn recovery_reaches_a_restarted_server() {
    // The failure mode the paper's grid users actually hit: the
    // server process is restarted elsewhere and the client's retries
    // land on the new instance.
    let dir = TempDir::new();
    let mut server = open_server(dir.path());
    let net = FlakyDialer::new(server.addr());
    let fs = recovering_cfs(&net);
    fs.write_file("/f", b"before").unwrap();

    server.shutdown();
    drop(server);
    let server2 = open_server(dir.path());
    net.set_target(Some(server2.addr()));
    net.drop_connections();

    assert_eq!(fs.read_file("/f").unwrap(), b"before");
    fs.write_file("/g", b"after").unwrap();
    assert_eq!(fs.read_file("/g").unwrap(), b"after");
}
