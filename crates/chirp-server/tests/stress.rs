//! Concurrency stress: many clients hammering one server with mixed
//! operations, asserting the server neither corrupts data nor leaks
//! connection state.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

fn open_server(root: &std::path::Path) -> FileServer {
    FileServer::start(
        ServerConfig::localhost(root, "stress")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .unwrap()
}

fn connect(addr: std::net::SocketAddr) -> Connection {
    let mut conn = Connection::connect(addr, Duration::from_secs(10)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn
}

#[test]
fn mixed_workload_under_concurrency() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let addr = server.addr();
    let errors = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for worker in 0..8u64 {
        let errors = errors.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = connect(addr);
            let my_dir = format!("/w{worker}");
            conn.mkdir(&my_dir, 0o755).unwrap();
            for round in 0..40u64 {
                let path = format!("{my_dir}/f{}", round % 5);
                let body = format!("worker {worker} round {round}");
                // Mixed ops: create, verify, rename, stat, delete.
                if conn.putfile(&path, 0o644, body.as_bytes()).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                match conn.getfile(&path) {
                    Ok(data) if data == body.as_bytes() => {}
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let moved = format!("{path}.done");
                conn.rename(&path, &moved).unwrap();
                assert_eq!(conn.stat(&moved).unwrap().size, body.len() as u64);
                if round % 3 == 0 {
                    conn.unlink(&moved).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(errors.load(Ordering::Relaxed), 0, "no lost or corrupt data");
    // Connections all drained.
    for _ in 0..100 {
        if server.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 0);
    assert_eq!(server.stats().snapshot().errors, 0, "no server-side errors");
}

#[test]
fn descriptor_churn_never_exhausts_the_table() {
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "stress")
        .with_root_acl(Acl::single("hostname:*", "rwl").unwrap());
    cfg.max_open_per_connection = 16;
    let server = FileServer::start(cfg).unwrap();
    let mut conn = connect(server.addr());
    // Open/close far more files than the table holds: slots recycle.
    for i in 0..200 {
        let (fd, _) = conn
            .open(
                &format!("/churn-{}", i % 8),
                OpenFlags::WRITE | OpenFlags::CREATE,
                0o644,
            )
            .unwrap();
        conn.pwrite(fd, b"x", 0).unwrap();
        conn.close(fd).unwrap();
    }
    // And the limit still bites when actually exceeded.
    let mut held = Vec::new();
    for i in 0..16 {
        held.push(
            conn.open(
                &format!("/churn-{i}"),
                OpenFlags::WRITE | OpenFlags::CREATE,
                0o644,
            )
            .unwrap(),
        );
    }
    assert_eq!(
        conn.open("/one-too-many", OpenFlags::WRITE | OpenFlags::CREATE, 0o644)
            .unwrap_err(),
        chirp_proto::ChirpError::TooManyOpen
    );
}

#[test]
fn concurrent_appenders_interleave_without_loss() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let addr = server.addr();
    {
        let mut conn = connect(addr);
        conn.putfile("/log", 0o644, b"").unwrap();
    }
    let mut handles = Vec::new();
    for worker in 0..4u8 {
        handles.push(std::thread::spawn(move || {
            let mut conn = connect(addr);
            let (fd, _) = conn
                .open("/log", OpenFlags::WRITE | OpenFlags::APPEND, 0)
                .unwrap();
            for _ in 0..50 {
                // O_APPEND semantics: each record lands intact at the
                // then-current end of file.
                conn.pwrite(fd, &[b'A' + worker; 8], 0).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let data = std::fs::read(dir.path().join("log")).unwrap();
    assert_eq!(data.len(), 4 * 50 * 8, "no appended record lost");
    // Every 8-byte record is homogeneous: no torn interleaving.
    for chunk in data.chunks(8) {
        assert!(
            chunk.iter().all(|&b| b == chunk[0]),
            "torn record {chunk:?}"
        );
    }
}
