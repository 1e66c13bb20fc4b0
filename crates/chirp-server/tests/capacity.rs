//! Capacity enforcement: the resource layer says `NoSpace` instead of
//! silently filling up — the failure mode the paper's introduction
//! blames for a third of Grid3's job losses.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_proto::{ChirpError, OpenFlags};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

fn capped_server(root: &std::path::Path, capacity: u64) -> FileServer {
    let mut cfg = ServerConfig::localhost(root, "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    cfg.capacity_bytes = capacity;
    FileServer::start(cfg).unwrap()
}

fn connect(server: &FileServer) -> Connection {
    let mut conn = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn
}

#[test]
fn putfile_beyond_capacity_is_refused() {
    let dir = TempDir::new();
    let server = capped_server(dir.path(), 10_000);
    let mut conn = connect(&server);
    conn.putfile("/a", 0o644, &vec![1u8; 6_000]).unwrap();
    assert_eq!(
        conn.putfile("/b", 0o644, &vec![2u8; 6_000]).unwrap_err(),
        ChirpError::NoSpace
    );
    // The refused payload did not desync the stream and nothing was
    // written.
    assert_eq!(conn.getdir("/").unwrap(), vec!["a"]);
    // Freeing space makes room again.
    conn.unlink("/a").unwrap();
    conn.putfile("/b", 0o644, &vec![2u8; 6_000]).unwrap();
}

#[test]
fn replacing_a_file_reuses_its_own_space() {
    let dir = TempDir::new();
    let server = capped_server(dir.path(), 10_000);
    let mut conn = connect(&server);
    conn.putfile("/a", 0o644, &vec![1u8; 8_000]).unwrap();
    // Same name, same size: the old bytes are freed by the overwrite.
    conn.putfile("/a", 0o644, &vec![2u8; 8_000]).unwrap();
    assert_eq!(conn.getfile("/a").unwrap(), vec![2u8; 8_000]);
}

#[test]
fn pwrite_extension_hits_the_cap_but_overwrites_do_not() {
    let dir = TempDir::new();
    let server = capped_server(dir.path(), 10_000);
    let mut conn = connect(&server);
    let (fd, _) = conn
        .open("/f", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    conn.pwrite(fd, &vec![1u8; 9_000], 0).unwrap();
    // Overwriting in place is always fine.
    conn.pwrite(fd, &vec![2u8; 9_000], 0).unwrap();
    // Extending past the cap is not.
    assert_eq!(
        conn.pwrite(fd, &vec![3u8; 2_000], 9_000).unwrap_err(),
        ChirpError::NoSpace
    );
    // Truncating frees space for new growth.
    conn.ftruncate(fd, 1_000).unwrap();
    conn.pwrite(fd, &vec![4u8; 2_000], 1_000).unwrap();
}

#[test]
fn statfs_reports_shrinking_free_space() {
    let dir = TempDir::new();
    let server = capped_server(dir.path(), 100_000);
    let mut conn = connect(&server);
    let before = conn.statfs().unwrap().free_bytes;
    conn.putfile("/a", 0o644, &vec![0u8; 40_000]).unwrap();
    let after = conn.statfs().unwrap().free_bytes;
    assert!(before - after >= 40_000);
}

#[test]
fn preexisting_data_counts_against_capacity() {
    let dir = TempDir::new();
    std::fs::write(dir.path().join("existing"), vec![0u8; 9_000]).unwrap();
    let server = capped_server(dir.path(), 10_000);
    let mut conn = connect(&server);
    assert_eq!(
        conn.putfile("/more", 0o644, &vec![0u8; 5_000]).unwrap_err(),
        ChirpError::NoSpace,
        "exported-in-place data occupies the budget"
    );
    conn.putfile("/small", 0o644, &vec![0u8; 500]).unwrap();
}

#[test]
fn truncating_open_frees_the_old_bytes() {
    // Regression: rewriting the same file via open(O_TRUNC)+pwrite in
    // a loop must not accumulate phantom usage.
    let dir = TempDir::new();
    let server = capped_server(dir.path(), 10_000);
    let mut conn = connect(&server);
    for round in 0..10 {
        let (fd, _) = conn
            .open(
                "/rewritten",
                OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE,
                0o644,
            )
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        conn.pwrite(fd, &vec![round as u8; 6_000], 0).unwrap();
        conn.close(fd).unwrap();
    }
    // Only the final 6 KB (plus the small ACL metadata file) is
    // occupied — ten rewrites did not accumulate phantom usage.
    assert!(conn.statfs().unwrap().free_bytes >= 3_900);
}
