//! End-to-end tests of the NFS-shaped baseline over a CFS on a
//! simulated Chirp server, including the exact request counts the
//! Figure 4/5 comparisons rest on.

use chirp_proto::OpenFlags;
use nfs_sim::{NfsShape, MAX_TRANSFER};
use simharness::SimTss;
use tss_core::cfs::Cfs;
use tss_core::fs::FileSystem;

fn client(sim: &SimTss) -> NfsShape<Cfs> {
    NfsShape::new(Cfs::new(sim.cfs_config(0)))
}

fn setup() -> (SimTss, NfsShape<Cfs>) {
    let sim = SimTss::builder().build();
    let fs = client(&sim);
    (sim, fs)
}

/// The requests the server received while `op` ran, and its result.
fn requests<T>(sim: &SimTss, op: impl FnOnce() -> T) -> (u64, T) {
    let before = sim.servers()[0].stats().snapshot().requests;
    let out = op();
    (sim.servers()[0].stats().snapshot().requests - before, out)
}

#[test]
fn basic_file_round_trip() {
    let (_sim, fs) = setup();
    fs.write_file("/f", b"hello nfs").unwrap();
    assert_eq!(fs.read_file("/f").unwrap(), b"hello nfs");
    assert_eq!(fs.stat("/f").unwrap().size, 9);
}

#[test]
fn transfers_larger_than_one_rpc() {
    let (_sim, fs) = setup();
    // 10 * MAX_TRANSFER + remainder: exercises the serial RPC chain.
    let data: Vec<u8> = (0..MAX_TRANSFER * 10 + 123)
        .map(|i| (i % 251) as u8)
        .collect();
    fs.write_file("/big", &data).unwrap();
    assert_eq!(fs.read_file("/big").unwrap(), data);
}

#[test]
fn deep_paths_resolve_per_component() {
    let (_sim, fs) = setup();
    fs.mkdir("/a", 0o755).unwrap();
    fs.mkdir("/a/b", 0o755).unwrap();
    fs.mkdir("/a/b/c", 0o755).unwrap();
    fs.write_file("/a/b/c/leaf", b"deep").unwrap();
    assert_eq!(fs.read_file("/a/b/c/leaf").unwrap(), b"deep");
    assert_eq!(fs.readdir("/a/b").unwrap(), vec!["c"]);
}

#[test]
fn namespace_operations() {
    let (_sim, fs) = setup();
    fs.mkdir("/d", 0o755).unwrap();
    fs.write_file("/d/f", b"1").unwrap();
    fs.rename("/d/f", "/g").unwrap();
    assert!(fs.stat("/d/f").is_err());
    assert_eq!(fs.stat("/g").unwrap().size, 1);
    fs.unlink("/g").unwrap();
    fs.rmdir("/d").unwrap();
    assert!(fs.readdir("/").unwrap().is_empty());
}

#[test]
fn truncate_both_ways() {
    let (_sim, fs) = setup();
    fs.write_file("/t", b"0123456789").unwrap();
    fs.truncate("/t", 3).unwrap();
    assert_eq!(fs.read_file("/t").unwrap(), b"012");
    let mut h = fs.open("/t", OpenFlags::read_write(), 0).unwrap();
    h.ftruncate(0).unwrap();
    assert_eq!(h.fstat().unwrap().size, 0);
}

#[test]
fn exclusive_create_collides() {
    let (_sim, fs) = setup();
    let fl = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
    fs.open("/x", fl, 0o644).unwrap();
    assert_eq!(
        fs.open("/x", fl, 0o644).err().map(|e| e.kind()),
        Some(std::io::ErrorKind::AlreadyExists)
    );
}

#[test]
fn writes_are_visible_to_a_second_client() {
    // Two clients, two connections, one server: each sees the other's
    // writes and renames with no cache in between.
    let (sim, fs1) = setup();
    let fs2 = client(&sim);
    fs1.write_file("/shared", b"from-1").unwrap();
    assert_eq!(fs2.read_file("/shared").unwrap(), b"from-1");
    fs2.rename("/shared", "/moved").unwrap();
    assert!(fs1.stat("/shared").is_err());
    assert_eq!(fs1.read_file("/moved").unwrap(), b"from-1");
}

#[test]
fn lookup_cannot_escape_export() {
    let (_sim, fs) = setup();
    assert!(fs.stat("/../etc/passwd").is_err() || !fs.stat("/../etc/passwd").unwrap().is_dir());
    // normalize_path collapses `..` before the first lookup, and the
    // server additionally resolves every path inside its export.
    assert!(fs.read_file("/../../etc/hostname").is_err());
}

#[test]
fn missing_files_report_not_found() {
    let (_sim, fs) = setup();
    assert_eq!(
        fs.stat("/nope").err().map(|e| e.kind()),
        Some(std::io::ErrorKind::NotFound)
    );
    assert_eq!(
        fs.read_file("/a/b/c").err().map(|e| e.kind()),
        Some(std::io::ErrorKind::NotFound)
    );
}

#[test]
fn a_file_ancestor_is_not_a_directory() {
    let (_sim, fs) = setup();
    fs.write_file("/f", b"x").unwrap();
    for err in [fs.stat("/f/g").err(), fs.mkdir("/f/g/h", 0o755).err()] {
        assert_eq!(
            err.map(|e| e.kind()),
            Some(std::io::ErrorKind::NotADirectory)
        );
    }
}

#[test]
fn request_counts_are_exact() {
    let (sim, fs) = setup();
    // Fixtures come from a plain CFS on a connection of its own.
    // Handles stay open to the end: a dropped handle's CLOSE rides the
    // next request on its connection and would be counted against it.
    let cfs = Cfs::new(sim.cfs_config(0));
    let mut handles = Vec::new();
    // Connect and authenticate before counting.
    fs.stat("/").unwrap();

    // A call on a depth-d path: d - 1 lookups, then its own request.
    let mut dir = String::new();
    for depth in 1..=4 {
        let file = format!("{dir}/f");
        cfs.write_file(&file, b"x").unwrap();
        let (n, _) = requests(&sim, || fs.stat(&file).unwrap());
        assert_eq!(n, depth, "stat {file}");
        let (n, h) = requests(&sim, || fs.open(&file, OpenFlags::READ, 0).unwrap());
        assert_eq!(n, depth, "open {file}");
        handles.push(h);
        dir = format!("{dir}/d{depth}");
        cfs.mkdir(&dir, 0o755).unwrap();
    }

    // n bytes move in ceil(n / 4096) requests, each way.
    let mut h = fs.open("/f", OpenFlags::read_write(), 0).unwrap();
    for len in [0usize, 1, 4095, 4096, 4097, 8192, 10 * 1024, 3 * 4096 + 1] {
        let rpcs = len.div_ceil(MAX_TRANSFER) as u64;
        let data = vec![7u8; len];
        assert_eq!(requests(&sim, || h.pwrite(&data, 0).unwrap()), (rpcs, len));
        let mut buf = vec![0u8; len];
        assert_eq!(
            requests(&sim, || h.pread(&mut buf, 0).unwrap()),
            (rpcs, len)
        );
    }

    // Whole-file calls go through the cap too: OPEN, FSTAT and three
    // PREADs, where a forwarded read_file would be one GETFILE.
    let big = vec![1u8; 10 * 1024];
    cfs.write_file("/big", &big).unwrap();
    let (n, data) = requests(&sim, || fs.read_file("/big").unwrap());
    assert_eq!(n, 2 + 3);
    assert!(data == big, "read_file returned other bytes");
    // Send the read's CLOSE, then OPEN and three PWRITEs, where a
    // forwarded write_file would be one PUTFILE.
    fs.stat("/").unwrap();
    let (n, _) = requests(&sim, || fs.write_file("/big", &big).unwrap());
    assert_eq!(n, 1 + 3);
}

/// `set_mtime` is one `UTIME` through `Cfs`, and through `NfsShape`
/// the same after its lookups; `stat` reads the time back either way.
#[test]
fn set_mtime_sends_utime_after_the_lookups() {
    let (sim, fs) = setup();
    let cfs = Cfs::new(sim.cfs_config(0));
    cfs.mkdir("/d", 0o755).unwrap();
    cfs.write_file("/d/f", b"x").unwrap();
    let (n, ()) = requests(&sim, || cfs.set_mtime("/d/f", 1_120_000_000).unwrap());
    assert_eq!(n, 1, "one UTIME");
    assert_eq!(cfs.stat("/d/f").unwrap().mtime, 1_120_000_000);
    fs.stat("/").unwrap();
    let (n, ()) = requests(&sim, || fs.set_mtime("/d/f", 1_130_000_000).unwrap());
    assert_eq!(n, 2, "a lookup of /d, then UTIME");
    assert_eq!(fs.stat("/d/f").unwrap().mtime, 1_130_000_000);
    assert_eq!(cfs.stat("/d/f").unwrap().mtime, 1_130_000_000);
}
