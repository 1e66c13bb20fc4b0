//! The metadata handlers over the export's `LocalFs`.
//!
//! A session's `MKDIR`, `RMDIR` and listings run through the same
//! `FileSystem` every abstraction speaks, behind the jail and the ACL
//! check, and its descriptors hold the same `LocalHandle`. These tests
//! pin what the server adds and what it must not lose on the way: a
//! durability point before every mutation (a process killed at that
//! point changes nothing on disk, or a torn prefix of one write),
//! journaled under the file's path, and listings ordered by the escaped
//! name the wire carries, not by the raw name.

use std::net::IpAddr;
use std::path::Path;
use std::sync::Arc;

use chirp_proto::message::Request;
use chirp_proto::persist::{CrashPoint, DurabilityPoint, Persist};
use chirp_proto::testutil::TempDir;
use chirp_proto::{ChirpError, OpenFlags};
use chirp_server::acl::Acl;
use chirp_server::handlers::{Reply, Session};
use chirp_server::server::Shared;
use chirp_server::ServerConfig;

fn rig(root: &Path, persist: Persist) -> Arc<Shared> {
    let cfg = ServerConfig::localhost(root, "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap())
        .with_persistence(persist);
    Shared::new(cfg).unwrap()
}

fn session(shared: &Arc<Shared>) -> Session {
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
    .expect("hostname auth");
    s
}

fn mkdir(s: &mut Session, path: &str) -> Result<(), chirp_proto::ChirpError> {
    s.handle(
        Request::Mkdir {
            path: path.into(),
            mode: 0o755,
        },
        None,
    )
    .map(|_| ())
}

fn rmdir(s: &mut Session, path: &str) -> Result<(), chirp_proto::ChirpError> {
    s.handle(Request::Rmdir { path: path.into() }, None)
        .map(|_| ())
}

/// A server killed at its first durability point creates no directory.
#[test]
fn mkdir_on_a_dead_server_creates_nothing() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);

    crash.arm(Some(0));
    assert!(
        mkdir(&mut s, "/d").is_err(),
        "a dead server must refuse MKDIR"
    );
    assert!(crash.fired());
    assert!(!dir.path().join("d").exists(), "MKDIR mutated after death");

    // Alive, the same request announces its point and succeeds.
    crash.arm(None);
    mkdir(&mut s, "/d").unwrap();
    let journal = crash.journal().entries();
    assert_eq!(journal.len(), 1);
    assert_eq!(journal[0].point, DurabilityPoint::Create);
    assert!(dir.path().join("d").is_dir());
}

/// A server killed at its first durability point removes neither an
/// empty directory nor the ACL that governs it.
#[test]
fn rmdir_on_a_dead_server_removes_nothing() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);
    mkdir(&mut s, "/e").unwrap();

    crash.arm(Some(0));
    assert!(
        rmdir(&mut s, "/e").is_err(),
        "a dead server must refuse RMDIR"
    );
    assert!(crash.fired());
    assert!(dir.path().join("e").is_dir(), "RMDIR mutated after death");
    assert!(dir.path().join("e").join(".__acl").exists());

    // Alive: the ACL file goes, then the directory, each announced.
    crash.arm(None);
    rmdir(&mut s, "/e").unwrap();
    let points: Vec<DurabilityPoint> = crash.journal().entries().iter().map(|e| e.point).collect();
    assert_eq!(points, [DurabilityPoint::Unlink, DurabilityPoint::Unlink]);
    assert!(!dir.path().join("e").exists());
}

/// Open `path` read-write, creating it.
fn open(s: &mut Session, path: &str) -> i32 {
    let opened = s.handle(
        Request::Open {
            path: path.into(),
            flags: OpenFlags::read_write() | OpenFlags::CREATE,
            mode: 0o644,
        },
        None,
    );
    let Ok(Reply::Value(fd)) = opened else {
        panic!("open {path}: {opened:?}");
    };
    fd as i32
}

/// A server killed mid-`PWRITE` can leave a torn write: a strict prefix
/// of the buffer on disk, and an error to the client — the same fate
/// any other `LocalFs` write can meet.
#[test]
fn pwrite_on_a_dying_server_can_be_torn() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);
    let data = vec![0x5a; 64];
    let mut torn_mid_buffer = false;
    for seed in 0..8 {
        let path = format!("/t{seed}");
        let fd = open(&mut s, &path);
        crash.arm_torn(Some(0), seed);
        let written = s.handle(
            Request::Pwrite {
                fd,
                length: data.len() as u64,
                offset: 0,
            },
            Some(data.clone()),
        );
        crash.disarm();
        assert!(written.is_err(), "a dead server must fail PWRITE");
        assert!(crash.fired());
        let on_disk = std::fs::read(dir.path().join(&path[1..])).unwrap();
        assert!(
            on_disk.len() < data.len() && data.starts_with(&on_disk),
            "seed {seed}: {} bytes on disk are not a strict prefix",
            on_disk.len()
        );
        torn_mid_buffer |= !on_disk.is_empty();
    }
    assert!(torn_mid_buffer, "some seed must leave a non-empty prefix");
}

/// `FSYNC` and `FTRUNCATE` name the file in the journal, as every other
/// durability point does — not the connection-local descriptor.
#[test]
fn descriptor_points_journal_the_path() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);
    let fd = open(&mut s, "/g");

    crash.arm(None);
    s.handle(Request::Fsync { fd }, None).unwrap();
    s.handle(Request::Ftruncate { fd, size: 5 }, None).unwrap();
    let journal: Vec<(DurabilityPoint, String)> = crash
        .journal()
        .entries()
        .into_iter()
        .map(|e| (e.point, e.path))
        .collect();
    assert_eq!(
        journal,
        [
            (DurabilityPoint::Fsync, "/g".to_string()),
            (DurabilityPoint::Truncate, "/g".to_string()),
        ]
    );
}

/// `FSYNC` on a descriptor that was never opened is refused before any
/// durability point: there is nothing to make durable.
#[test]
fn fsync_on_a_bad_descriptor_announces_nothing() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);

    crash.arm(None);
    let synced = s.handle(Request::Fsync { fd: 7 }, None);
    assert_eq!(synced.err(), Some(ChirpError::BadFd));
    assert!(
        crash.journal().is_empty(),
        "{:?}",
        crash.journal().entries()
    );
}

/// `GETDIR` and `GETDIRSTAT` sort by the escaped name: `a b` travels as
/// `a%20b` and `a%c` as `a%25c`, so both sort after `a!b`, although
/// the raw bytes put `a b` first. The ACL file never shows.
#[test]
fn listings_sort_by_the_escaped_name() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), Persist::none());
    let mut s = session(&shared);
    for name in ["a~", "a%c", "a b", "a!b"] {
        let opened = s.handle(
            Request::Open {
                path: format!("/{name}"),
                flags: OpenFlags::WRITE | OpenFlags::CREATE,
                mode: 0o644,
            },
            None,
        );
        let Ok(Reply::Value(fd)) = opened else {
            panic!("open /{name}: {opened:?}");
        };
        s.handle(Request::Close { fd: fd as i32 }, None).unwrap();
    }
    let expect = ["a!b", "a%20b", "a%25c", "a~"];

    let Ok(Reply::Data(body)) = s.handle(Request::Getdir { path: "/".into() }, None) else {
        panic!("GETDIR");
    };
    let names: Vec<&str> = std::str::from_utf8(&body).unwrap().lines().collect();
    assert_eq!(names, expect);

    let Ok(Reply::Data(body)) = s.handle(Request::GetdirStat { path: "/".into() }, None) else {
        panic!("GETDIRSTAT");
    };
    let names: Vec<&str> = std::str::from_utf8(&body)
        .unwrap()
        .lines()
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    assert_eq!(names, expect);
}
