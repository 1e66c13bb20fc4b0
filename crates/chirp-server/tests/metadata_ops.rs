//! The metadata handlers over the export's `LocalFs`.
//!
//! A session's `MKDIR`, `RMDIR` and listings run through the same
//! `FileSystem` every abstraction speaks, by virtual path behind the
//! ACL check, and its descriptors hold the same `LocalHandle`. These tests
//! pin what the server adds and what it must not lose on the way: a
//! durability point before every mutation (a process killed at that
//! point changes nothing on disk, or a torn prefix of one write),
//! journaled under the file's path, and listings ordered by the escaped
//! name the wire carries, not by the raw name.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

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

    // Alive, the same request announces its points and succeeds: the
    // directory, then its ACL written whole under the temporary name
    // and renamed into place.
    crash.arm(None);
    mkdir(&mut s, "/d").unwrap();
    let journal: Vec<(DurabilityPoint, String)> = crash
        .journal()
        .entries()
        .into_iter()
        .map(|e| (e.point, e.path))
        .collect();
    let temp = "/d/.__acl.new".to_string();
    assert_eq!(
        journal,
        [
            (DurabilityPoint::Create, "/d".to_string()),
            (DurabilityPoint::Create, temp.clone()),
            (DurabilityPoint::Pwrite, temp.clone()),
            (DurabilityPoint::Rename, temp),
        ]
    );
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
    let Ok(Reply::Words(fd, _)) = opened else {
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
        let Ok(Reply::Words(fd, _)) = opened else {
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

fn request(s: &mut Session, req: Request) -> Result<Vec<u8>, ChirpError> {
    match s.handle(req, None)? {
        Reply::Data(body) => Ok(body),
        other => Ok(format!("{other:?}").into_bytes()),
    }
}

fn getacl(s: &mut Session, path: &str) -> Result<String, ChirpError> {
    let body = request(s, Request::Getacl { path: path.into() })?;
    Ok(String::from_utf8(body).unwrap())
}

fn setacl(s: &mut Session, path: &str, subject: &str, rights: &str) -> Result<(), ChirpError> {
    let req = Request::Setacl {
        path: path.into(),
        subject: subject.into(),
        rights: rights.into(),
    };
    s.handle(req, None).map(|_| ())
}

/// Kill `op` at each of its durability points in turn, the killing
/// write torn by `seed`, each time on a fresh export that `prepare`
/// set up alive; then restart a server on the same root and hand its
/// session to `check` with the point's index.
fn kill_at_every_point(
    seed: u64,
    prepare: impl Fn(&mut Session),
    op: impl Fn(&mut Session) -> Result<(), ChirpError>,
    check: impl Fn(&mut Session, u64),
) -> u64 {
    for k in 0.. {
        let dir = TempDir::new();
        let crash = CrashPoint::new();
        let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
        let mut s = session(&shared);
        prepare(&mut s);
        crash.arm_torn(Some(k), seed);
        let done = op(&mut s);
        crash.disarm();
        if !crash.fired() {
            done.unwrap();
            return k;
        }
        drop((s, shared));
        let restarted = rig(dir.path(), Persist::none());
        check(&mut session(&restarted), k);
    }
    unreachable!()
}

/// A server killed anywhere inside the ACL write of a `MKDIR` or a
/// `SETACL` — the killing write torn — never locks the directory: the
/// new directory stays listable under its parent's rights, and a
/// changed ACL is its old self or its new self, never a prefix.
#[test]
fn a_killed_acl_write_never_locks_a_directory() {
    const ROOT: &str = "hostname:* rwlad\n";
    let mut points = Vec::new();
    for seed in 0..8 {
        let mkdir_points = kill_at_every_point(
            seed,
            |_| {},
            |s| mkdir(s, "/d"),
            |s, k| match request(s, Request::Getdir { path: "/d".into() }) {
                Ok(body) => assert!(body.is_empty(), "seed {seed} point {k}: {body:?}"),
                Err(e) => {
                    assert_eq!((k, e), (0, ChirpError::NotFound), "seed {seed}");
                }
            },
        );
        let post = format!("{ROOT}unix:bob rl\n");
        let setacl_points = kill_at_every_point(
            seed,
            |s| mkdir(s, "/s").unwrap(),
            |s| setacl(s, "/s", "unix:bob", "rl"),
            |s, k| {
                let acl = getacl(s, "/s").unwrap();
                assert!(acl == ROOT || acl == post, "seed {seed} point {k}: {acl:?}");
            },
        );
        points.push((mkdir_points, setacl_points));
    }
    // MKDIR: the directory, then the ACL's three; SETACL: the ACL's.
    assert!(points.iter().all(|&p| p == (4, 3)), "{points:?}");
}

/// What a killed ACL write leaves behind is the server's own: hidden
/// from listings, refused by name, and no obstacle to `RMDIR`.
#[test]
fn a_leftover_temporary_acl_is_hidden_and_removable() {
    let dir = TempDir::new();
    let crash = CrashPoint::new();
    let shared = rig(dir.path(), Persist::from_arc(crash.clone()));
    let mut s = session(&shared);
    mkdir(&mut s, "/s").unwrap();
    // Killed at the rename: the new ACL sits whole under its
    // temporary name, and the old one still governs.
    crash.arm(Some(2));
    assert!(setacl(&mut s, "/s", "unix:bob", "rl").is_err());
    crash.disarm();
    assert!(dir.path().join("s/.__acl.new").exists());
    let mut s = session(&rig(dir.path(), Persist::none()));
    assert_eq!(getacl(&mut s, "/s").unwrap(), "hostname:* rwlad\n");

    let getdir = request(&mut s, Request::Getdir { path: "/s".into() }).unwrap();
    assert!(getdir.is_empty(), "{getdir:?}");
    let getdirstat = request(&mut s, Request::GetdirStat { path: "/s".into() }).unwrap();
    assert!(getdirstat.is_empty(), "{getdirstat:?}");
    for path in ["/s/.__acl.new", "/s/.__acl.new/x", "/.__acl.new"] {
        let stat = s.handle(Request::Stat { path: path.into() }, None);
        assert_eq!(stat.err(), Some(ChirpError::NotAuthorized), "STAT {path}");
        let opened = s.handle(
            Request::Open {
                path: path.into(),
                flags: OpenFlags::READ,
                mode: 0,
            },
            None,
        );
        assert_eq!(opened.err(), Some(ChirpError::NotAuthorized), "OPEN {path}");
    }
    rmdir(&mut s, "/s").unwrap();
    assert!(!dir.path().join("s").exists());
}

fn rename(s: &mut Session, from: &str, to: &str) -> Result<(), ChirpError> {
    let req = Request::Rename {
        from: from.into(),
        to: to.into(),
    };
    s.handle(req, None).map(|_| ())
}

/// A directory replaces an empty one by `RENAME`, as rename(2) allows,
/// though the target holds its ACL file; it carries its own ACL there.
/// A target with an entry, or a file moved over a directory, still
/// fails.
#[test]
fn a_directory_replaces_an_empty_one_by_rename() {
    let dir = TempDir::new();
    let mut s = session(&rig(dir.path(), Persist::none()));
    for d in ["/a", "/b", "/full"] {
        mkdir(&mut s, d).unwrap();
    }
    mkdir(&mut s, "/full/x").unwrap();
    setacl(&mut s, "/a", "unix:bob", "rl").unwrap();
    mkdir(&mut s, "/a/inner").unwrap();

    rename(&mut s, "/a", "/b").unwrap();
    assert!(!dir.path().join("a").exists());
    assert!(dir.path().join("b/inner").is_dir());
    assert!(getacl(&mut s, "/b").unwrap().contains("unix:bob rl"));
    // Onto itself: nothing changes, its ACL stays.
    rename(&mut s, "/b", "/b").unwrap();
    assert!(getacl(&mut s, "/b").unwrap().contains("unix:bob rl"));

    assert_eq!(rename(&mut s, "/b", "/full"), Err(ChirpError::NotEmpty));
    assert!(dir.path().join("full/.__acl").exists());
    std::fs::write(dir.path().join("f"), b"x").unwrap();
    assert_eq!(rename(&mut s, "/f", "/full"), Err(ChirpError::IsADirectory));
}

/// ACL writes to one directory from two connections at once all land:
/// none fails on the other's temporary file, none loses the other's
/// entry.
#[test]
fn concurrent_setacls_on_one_directory_all_land() {
    const EACH: usize = 100;
    let dir = TempDir::new();
    let shared = rig(dir.path(), Persist::none());
    mkdir(&mut session(&shared), "/s").unwrap();
    std::thread::scope(|scope| {
        for writer in ["a", "b"] {
            let shared = &shared;
            scope.spawn(move || {
                let mut s = session(shared);
                for i in 0..EACH {
                    setacl(&mut s, "/s", &format!("unix:{writer}{i}"), "rl")
                        .unwrap_or_else(|e| panic!("SETACL {writer}{i}: {e:?}"));
                }
            });
        }
    });
    let acl = getacl(&mut session(&shared), "/s").unwrap();
    for writer in ["a", "b"] {
        for i in 0..EACH {
            let line = format!("unix:{writer}{i} rl\n");
            assert!(acl.contains(&line), "{line:?} lost from\n{acl}");
        }
    }
    assert!(!dir.path().join("s/.__acl.new").exists());
}
