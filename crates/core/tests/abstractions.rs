//! Integration tests: the CFS/DPFS/DSFS abstractions against real file
//! servers over loopback TCP.

#![allow(
    clippy::disallowed_methods,
    reason = "a test inspects the servers' exports and a DPFS's metadata directory on the host, to check what the abstractions left there"
)]

mod common;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use common::{auth, cfs, data_count, open_server, TIMEOUT};
use tss_core::fs::FileSystem;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{Dpfs, Dsfs, Placement};

// ---- CFS ---------------------------------------------------------------

#[test]
fn cfs_is_an_untranslated_view_of_one_server() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let fs = cfs(&server.endpoint());
    fs.mkdir("/sub", 0o755).unwrap();
    fs.write_file("/sub/f", b"content").unwrap();
    assert_eq!(fs.read_file("/sub/f").unwrap(), b"content");
    // Untranslated: the bytes are directly visible on the host.
    assert_eq!(std::fs::read(dir.path().join("sub/f")).unwrap(), b"content");
    assert_eq!(fs.readdir("/").unwrap(), vec!["sub"]);
    fs.rename("/sub/f", "/g").unwrap();
    assert_eq!(fs.stat("/g").unwrap().size, 7);
    fs.unlink("/g").unwrap();
    fs.rmdir("/sub").unwrap();
}

#[test]
fn cfs_base_roots_the_view_in_a_subdirectory() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let root = cfs(&server.endpoint());
    root.mkdir("/vol", 0o755).unwrap();
    root.write_file("/vol/inside", b"x").unwrap();
    root.write_file("/outside", b"y").unwrap();

    let mut cfg = tss_core::cfs::CfsConfig::new(&server.endpoint(), auth()).with_base("/vol");
    cfg.timeout = TIMEOUT;
    let vol = tss_core::Cfs::new(cfg);
    assert_eq!(vol.read_file("/inside").unwrap(), b"x");
    assert!(vol.read_file("/outside").is_err());
    assert_eq!(vol.readdir("/").unwrap(), vec!["inside"]);
}

#[test]
fn cfs_positional_handles() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let fs = cfs(&server.endpoint());
    let mut h = fs
        .open("/f", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    h.pwrite(b"0123456789", 0).unwrap();
    let mut buf = [0u8; 4];
    assert_eq!(h.pread(&mut buf, 6).unwrap(), 4);
    assert_eq!(&buf, b"6789");
    assert_eq!(h.fstat().unwrap().size, 10);
    h.ftruncate(3).unwrap();
    assert_eq!(h.fstat().unwrap().size, 3);
    h.fsync().unwrap();
}

// CFS buffers nothing on the client: every `pread` asks the server,
// so a handle sees its own writes and truncates at once.

#[test]
fn cfs_handle_reads_its_own_pwrite() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let fs = cfs(&server.endpoint());
    fs.write_file("/f", b"old old old old").unwrap();

    let mut h = fs
        .open("/f", OpenFlags::READ | OpenFlags::WRITE, 0)
        .unwrap();
    let mut buf = [0u8; 3];
    h.pread(&mut buf, 0).unwrap();
    assert_eq!(&buf, b"old");
    h.pwrite(b"new", 0).unwrap();
    h.pread(&mut buf, 0).unwrap();
    assert_eq!(&buf, b"new");
}

#[test]
fn cfs_handle_reads_after_its_own_ftruncate() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let fs = cfs(&server.endpoint());
    fs.write_file("/f", b"0123456789").unwrap();

    let mut h = fs
        .open("/f", OpenFlags::READ | OpenFlags::WRITE, 0)
        .unwrap();
    let mut buf = [0u8; 10];
    assert_eq!(h.pread(&mut buf, 0).unwrap(), 10);
    h.ftruncate(4).unwrap();
    assert_eq!(h.pread(&mut buf, 0).unwrap(), 4);
    assert_eq!(&buf[..4], b"0123");
}

#[test]
fn cfs_pread_is_one_rpc() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let fs = cfs(&server.endpoint());
    fs.write_file("/f", b"abcdef").unwrap();

    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    let before = server.stats().snapshot().requests;
    let mut b = [0u8; 2];
    for off in [0u64, 2, 4] {
        h.pread(&mut b, off).unwrap();
    }
    assert_eq!(server.stats().snapshot().requests - before, 3);
}

// ---- DPFS --------------------------------------------------------------

fn data_pool(servers: &[&chirp_server::FileServer]) -> Vec<DataServer> {
    servers
        .iter()
        .map(|s| DataServer::new(&s.endpoint(), "/mydpfs", auth()))
        .collect()
}

#[test]
fn dpfs_spreads_data_over_servers() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let d2 = TempDir::new();
    let s1 = open_server(d1.path());
    let s2 = open_server(d2.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1, &s2])).unwrap();
    fs.ensure_volumes().unwrap();

    for i in 0..4 {
        fs.write_file(&format!("/file{i}"), format!("data{i}").as_bytes())
            .unwrap();
    }
    for i in 0..4 {
        assert_eq!(
            fs.read_file(&format!("/file{i}")).unwrap(),
            format!("data{i}").as_bytes()
        );
    }
    // Round-robin placement: each server holds half the data files.
    let count = |d: &TempDir| data_count(&d.path().join("mydpfs"));
    assert_eq!(count(&d1), 2);
    assert_eq!(count(&d2), 2);
    // The local metadata tree holds stubs, not data.
    let stub_text = std::fs::read_to_string(meta_dir.path().join("file0")).unwrap();
    assert!(stub_text.starts_with(tss_core::stub::STUB_MAGIC));
}

#[test]
fn dpfs_name_ops_touch_no_server() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let s1 = open_server(d1.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1])).unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/a", b"1").unwrap();
    let before = s1.stats().snapshot().requests;
    fs.mkdir("/dir", 0o755).unwrap();
    fs.rename("/a", "/dir/b").unwrap();
    assert_eq!(fs.readdir("/dir").unwrap(), vec!["b"]);
    let after = s1.stats().snapshot().requests;
    assert_eq!(before, after, "mkdir/rename/readdir are metadata-only");
    // The moved name still reaches the same data.
    assert_eq!(fs.read_file("/dir/b").unwrap(), b"1");
}

#[test]
fn dpfs_unlink_removes_data_then_stub() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let s1 = open_server(d1.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1])).unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/f", b"payload").unwrap();
    assert_eq!(data_count(&d1.path().join("mydpfs")), 1);
    fs.unlink("/f").unwrap();
    assert_eq!(
        data_count(&d1.path().join("mydpfs")),
        0,
        "no unreferenced data may survive"
    );
    assert!(!meta_dir.path().join("f").exists());
}

#[test]
fn dpfs_dangling_stub_reports_not_found() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let s1 = open_server(d1.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1])).unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/f", b"payload").unwrap();
    // Simulate the crash-between-steps-2-and-3 state: stub exists,
    // data is gone (e.g. evicted by the server owner).
    for entry in std::fs::read_dir(d1.path().join("mydpfs")).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    let err = fs.read_file("/f").expect_err("dangling stub");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    // The paper: such a stub is easily deleted by the user.
    fs.unlink("/f").unwrap();
    assert!(fs.readdir("/").unwrap().is_empty());
}

#[test]
fn dpfs_exclusive_create_collision_aborts() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let s1 = open_server(d1.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1])).unwrap();
    fs.ensure_volumes().unwrap();
    let fl = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
    fs.open("/x", fl, 0o644).unwrap();
    let err = fs.open("/x", fl, 0o644).expect_err("collision");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    // Exactly one data file was created: the aborted create did not
    // leak garbage.
    assert_eq!(data_count(&d1.path().join("mydpfs")), 1);
}

// ---- DSFS --------------------------------------------------------------

#[test]
fn dsfs_is_shared_between_clients() {
    let meta_host = TempDir::new();
    let data_host = TempDir::new();
    let dir_server = open_server(meta_host.path());
    let data_server = open_server(data_host.path());
    let pool = vec![DataServer::new(&data_server.endpoint(), "/vol", auth())];

    let writer = Dsfs::format(&dir_server.endpoint(), "/tree", auth(), pool.clone()).unwrap();
    writer.mkdir("/shared", 0o755).unwrap();
    writer.write_file("/shared/result", b"42").unwrap();

    // A second, independent client attaches to the same tree.
    let reader = Dsfs::new(&dir_server.endpoint(), "/tree", auth(), pool).unwrap();
    assert_eq!(reader.readdir("/shared").unwrap(), vec!["result"]);
    assert_eq!(reader.read_file("/shared/result").unwrap(), b"42");
    assert_eq!(reader.stat("/shared/result").unwrap().size, 2);
    assert!(reader.stat("/shared").unwrap().is_dir());
}

#[test]
fn dsfs_directory_server_can_serve_double_duty() {
    // One server is both directory server and data server — any
    // server can act in either role.
    let host = TempDir::new();
    let server = open_server(host.path());
    let pool = vec![DataServer::new(&server.endpoint(), "/data", auth())];
    let fs = Dsfs::format(&server.endpoint(), "/tree", auth(), pool).unwrap();
    fs.write_file("/f", b"both roles").unwrap();
    assert_eq!(fs.read_file("/f").unwrap(), b"both roles");
    // Tree and data are distinguishable directories on the host.
    assert!(host.path().join("tree/f").exists(), "stub in the tree");
    assert_eq!(data_count(&host.path().join("data")), 1);
}

#[test]
fn dsfs_failure_coherence_losing_one_data_server() {
    let meta_host = TempDir::new();
    let d1 = TempDir::new();
    let d2 = TempDir::new();
    let dir_server = open_server(meta_host.path());
    let mut s1 = open_server(d1.path());
    let s2 = open_server(d2.path());
    let pool = vec![
        DataServer::new(&s1.endpoint(), "/vol", auth()),
        DataServer::new(&s2.endpoint(), "/vol", auth()),
    ];
    // Fast failure detection for the test.
    let options = StubFsOptions {
        timeout: std::time::Duration::from_millis(300),
        retry: tss_core::RetryPolicy::none(),
        ..StubFsOptions::default()
    };
    let fs = Dsfs::with_options(
        &dir_server.endpoint(),
        "/tree",
        auth(),
        pool.clone(),
        Placement::round_robin(),
        options,
    )
    .unwrap();
    {
        // format() equivalent under custom options
        let root = cfs(&dir_server.endpoint());
        root.mkdir("/tree", 0o755).unwrap();
        fs.stubfs().ensure_volumes().unwrap();
    }
    fs.write_file("/on-s1", b"one").unwrap(); // round robin: s1
    fs.write_file("/on-s2", b"two").unwrap(); // s2

    // Kill s1.
    s1.shutdown();
    drop(s1);

    // The directory structure remains navigable...
    let mut names = fs.readdir("/").unwrap();
    names.sort();
    assert_eq!(names, vec!["on-s1", "on-s2"]);
    // ...data on other devices remains usable...
    assert_eq!(fs.read_file("/on-s2").unwrap(), b"two");
    // ...and only the files on the lost device are unavailable.
    assert!(fs.read_file("/on-s1").is_err());
}

#[test]
fn dsfs_concurrent_create_race_yields_one_winner() {
    let meta_host = TempDir::new();
    let data_host = TempDir::new();
    let dir_server = open_server(meta_host.path());
    let data_server = open_server(data_host.path());
    let pool = vec![DataServer::new(&data_server.endpoint(), "/vol", auth())];
    Dsfs::format(&dir_server.endpoint(), "/tree", auth(), pool.clone()).unwrap();

    let dir_ep = dir_server.endpoint();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let dir_ep = dir_ep.clone();
        let pool = pool.clone();
        handles.push(std::thread::spawn(move || {
            let fs = Dsfs::new(&dir_ep, "/tree", auth(), pool).unwrap();
            let fl = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
            fs.open("/contested", fl, 0o644).is_ok()
        }));
    }
    let winners = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&won| won)
        .count();
    assert_eq!(winners, 1, "exclusive open admits exactly one creator");
    // No garbage: exactly one data file exists.
    assert_eq!(data_count(&data_host.path().join("vol")), 1);
}

#[test]
fn fsck_finds_and_repairs_dangling_stubs_and_orphans() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let s1 = open_server(d1.path());
    let fs = Dpfs::new(meta_dir.path(), data_pool(&[&s1])).unwrap();
    fs.ensure_volumes().unwrap();
    fs.mkdir("/sub", 0o755).unwrap();
    fs.write_file("/sub/good", b"intact").unwrap();
    fs.write_file("/doomed", b"will dangle").unwrap();

    // Manufacture the two §5 failure states: evict one file's data
    // (dangling stub) and drop a foreign file into the volume
    // (orphan), plus a corrupt stub.
    let stub_text = std::fs::read_to_string(meta_dir.path().join("doomed")).unwrap();
    let data_name = stub_text
        .lines()
        .nth(2)
        .unwrap()
        .rsplit('/')
        .next()
        .unwrap();
    std::fs::remove_file(d1.path().join("mydpfs").join(data_name)).unwrap();
    std::fs::write(d1.path().join("mydpfs/orphan-blob"), b"unreferenced").unwrap();
    std::fs::write(meta_dir.path().join("corrupt"), b"not a stub at all").unwrap();

    let report = tss_core::fsck(fs.stubfs()).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.healthy, vec!["/sub/good"]);
    assert_eq!(report.dangling_stubs, vec!["/doomed"]);
    assert_eq!(report.corrupt_stubs, vec!["/corrupt"]);
    assert_eq!(report.orphaned_data.len(), 1);
    assert!(report.orphaned_data[0].1.ends_with("orphan-blob"));
    assert!(report.unreachable.is_empty());

    let removed = tss_core::fsck::repair(
        fs.stubfs(),
        &report,
        tss_core::RepairOptions {
            remove_dangling_stubs: true,
            remove_orphans: true,
        },
    )
    .unwrap();
    assert_eq!(removed, 3);
    let clean = tss_core::fsck(fs.stubfs()).unwrap();
    assert!(clean.is_clean(), "{clean:?}");
    assert_eq!(clean.healthy, vec!["/sub/good"]);
    assert_eq!(fs.read_file("/sub/good").unwrap(), b"intact");
}

#[test]
fn fsck_reports_unreachable_without_condemning_data() {
    let meta_dir = TempDir::new();
    let d1 = TempDir::new();
    let d2 = TempDir::new();
    let mut s1 = open_server(d1.path());
    let s2 = open_server(d2.path());
    let fs = Dpfs::with_options(
        meta_dir.path(),
        data_pool(&[&s1, &s2]),
        Placement::round_robin(),
        StubFsOptions {
            timeout: std::time::Duration::from_millis(300),
            retry: tss_core::RetryPolicy::none(),
            ..StubFsOptions::default()
        },
    )
    .unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/on-s1", b"one").unwrap();
    fs.write_file("/on-s2", b"two").unwrap();
    // Kill s1 and re-attach with fresh connections, as a later fsck
    // run would.
    drop(fs);
    s1.shutdown();
    let fs = Dpfs::with_options(
        meta_dir.path(),
        data_pool(&[&s1, &s2]),
        Placement::round_robin(),
        StubFsOptions {
            timeout: std::time::Duration::from_millis(300),
            retry: tss_core::RetryPolicy::none(),
            ..StubFsOptions::default()
        },
    )
    .unwrap();

    let report = tss_core::fsck(fs.stubfs()).unwrap();
    assert_eq!(report.unreachable, vec!["/on-s1"]);
    assert_eq!(report.healthy, vec!["/on-s2"]);
    // Unreachable is not dangling: nothing to repair.
    assert!(report.dangling_stubs.is_empty());
}
