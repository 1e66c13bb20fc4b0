//! Coherence of the in-memory ACL cache, over the in-memory network.
//!
//! The cache may never answer differently from
//! [`Acl::load_effective_in`] reading the export at that instant: a change
//! made through one connection governs the very next RPC on any
//! other. Each scenario warms the cache through one connection,
//! changes policy through another, and checks the first again; the
//! random mirror does the same two thousand times against the uncached
//! loader itself.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::fs::{join_path, FileSystem};
use chirp_proto::localfs::LocalFs;
use chirp_proto::testutil::TempDir;
use chirp_proto::{ChirpError, Clock, MemNet, OpenFlags, VirtualClock};
use chirp_server::acl::{Acl, AclCache, Rights};
use chirp_server::{FileServer, ServerConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One server on a fresh in-memory network. `populate` fills the
/// export directory before the server starts — data exported in
/// place, which is the only way a directory comes to inherit its ACL.
struct Rig {
    dir: TempDir,
    net: MemNet,
    server: FileServer,
}

impl Rig {
    fn start(root_acl: &str, populate: impl FnOnce(&Path)) -> Rig {
        let net = MemNet::new(Clock::virtual_at(VirtualClock::new()));
        let dir = TempDir::new();
        populate(dir.path());
        let mut cfg = ServerConfig::localhost(dir.path(), "owner")
            .with_root_acl(Acl::parse(root_acl).unwrap());
        cfg.dialer = net.dialer();
        let server = FileServer::start_on(cfg, Arc::new(net.listen())).unwrap();
        Rig { dir, net, server }
    }

    /// A fresh authenticated connection (every one is the same
    /// `hostname:` subject; what differs is which session warmed what).
    fn connect(&self) -> Connection {
        let mut conn = Connection::connect_via(
            &self.net.dialer(),
            &self.server.endpoint(),
            Duration::from_secs(5),
        )
        .unwrap();
        conn.authenticate(&[AuthMethod::Hostname]).unwrap();
        conn
    }

    fn counter(&self, name: &str) -> u64 {
        self.server.telemetry().registry().counter(name).get()
    }

    fn cached_dirs(&self) -> usize {
        let entries = self
            .server
            .telemetry()
            .registry()
            .gauge("acl.cache.entries");
        entries.get() as usize
    }
}

const OPEN: &str = "hostname:* rwlad\n";

#[test]
fn setacl_on_an_ancestor_governs_the_next_rpc_on_another_connection() {
    let rig = Rig::start(OPEN, |root| {
        std::fs::create_dir_all(root.join("a/b")).unwrap();
        std::fs::write(root.join("a/b/f"), b"x").unwrap();
    });
    let (mut admin, mut reader) = (rig.connect(), rig.connect());
    // /a/b has no ACL of its own: it inherits, and the reader's
    // lookups are in memory by the second call.
    reader.stat("/a/b/f").unwrap();
    let hits = rig.counter("acl.cache.hits");
    reader.stat("/a/b/f").unwrap();
    assert_eq!(rig.counter("acl.cache.hits"), hits + 1);

    // Materialise an ACL on /a that keeps only `a`: /a/b now
    // inherits that, and the reader's very next call is refused.
    admin.setacl("/a", "hostname:*", "a").unwrap();
    assert_eq!(
        reader.stat("/a/b/f").unwrap_err(),
        ChirpError::NotAuthorized
    );
    assert_eq!(reader.getacl("/a/b").unwrap(), "hostname:* a\n");
    admin.setacl("/a", "hostname:*", "rwlda").unwrap();
    reader.stat("/a/b/f").unwrap();
    assert_eq!(rig.counter("acl.cache.invalidations"), 2);
}

#[test]
fn a_directory_probed_while_missing_gets_its_own_acl_when_made() {
    // Plain MKDIR: a copy of the parent's ACL, its own from then on.
    let rig = Rig::start(OPEN, |_| {});
    let (mut maker, mut prober) = (rig.connect(), rig.connect());
    for _ in 0..2 {
        assert_eq!(prober.stat("/new/x").unwrap_err(), ChirpError::NotFound);
    }
    maker.mkdir("/new", 0o755).unwrap();
    assert_eq!(prober.getacl("/new").unwrap(), OPEN);
    maker.setacl("/", "unix:late", "r").unwrap();
    assert_eq!(
        prober.getacl("/new").unwrap(),
        OPEN,
        "the copy was taken at MKDIR"
    );

    // Reserve MKDIR: no `w` in the root, so the new directory
    // grants the caller exactly the v(...) rights — and must not
    // be mistaken for the write-less root the probe saw.
    let rig = Rig::start("hostname:* rlv(rwl)\n", |_| {});
    let (mut maker, mut prober) = (rig.connect(), rig.connect());
    let me = maker.whoami().unwrap();
    for _ in 0..2 {
        assert_eq!(prober.stat("/mine/x").unwrap_err(), ChirpError::NotFound);
    }
    maker.mkdir("/mine", 0o755).unwrap();
    assert_eq!(prober.getacl("/mine").unwrap(), format!("{me} rwl\n"));
    prober.putfile("/mine/x", 0o644, b"mine").unwrap();
    assert_eq!(
        prober.putfile("/x", 0o644, b"no").unwrap_err(),
        ChirpError::NotAuthorized
    );
}

/// Why lookups under a missing directory are never kept: a plain
/// file creation (which invalidates nothing) changes their answer.
#[test]
fn a_file_taking_a_missing_directorys_name_is_seen_at_once() {
    let rig = Rig::start("hostname:* wa\n", |_| {});
    let (mut maker, mut prober) = (rig.connect(), rig.connect());
    for _ in 0..2 {
        // /n is missing, so the root's ACL (no `r`, no `l`) governs.
        assert_eq!(prober.stat("/n/x").unwrap_err(), ChirpError::NotAuthorized);
    }
    let (fd, _) = maker
        .open("/n", OpenFlags::WRITE | OpenFlags::CREATE, 0o644)
        .unwrap();
    maker.close(fd).unwrap();
    // Reading /n/.__acl now fails outright, before any verdict.
    assert_eq!(prober.stat("/n/x").unwrap_err(), ChirpError::NotADirectory,);
}

#[test]
fn rmdir_then_mkdir_of_one_name_starts_from_the_parent_again() {
    let rig = Rig::start(OPEN, |_| {});
    let (mut admin, mut other) = (rig.connect(), rig.connect());
    admin.mkdir("/d", 0o755).unwrap();
    admin.setacl("/d", "unix:bob", "r").unwrap();
    assert_eq!(other.getacl("/d").unwrap(), format!("{OPEN}unix:bob r\n"));
    admin.rmdir("/d").unwrap();
    assert_eq!(other.getacl("/d").unwrap_err(), ChirpError::NotADirectory);
    admin.mkdir("/d", 0o755).unwrap();
    assert_eq!(other.getacl("/d").unwrap(), OPEN, "bob is gone");
}

#[test]
fn a_renamed_directory_carries_its_acl_and_frees_the_old_path() {
    let rig = Rig::start(OPEN, |_| {});
    let (mut admin, mut other) = (rig.connect(), rig.connect());
    admin.mkdir("/p", 0o755).unwrap();
    admin.mkdir("/p/sub", 0o755).unwrap();
    admin.setacl("/p", "unix:bob", "r").unwrap();
    admin.putfile("/p/f", 0o644, b"f").unwrap();
    let carried = format!("{OPEN}unix:bob r\n");
    assert_eq!(other.getacl("/p").unwrap(), carried);
    other.stat("/p/f").unwrap();
    other.stat("/p/sub").unwrap();

    admin.rename("/p", "/q").unwrap();
    assert_eq!(other.getacl("/q").unwrap(), carried);
    other.stat("/q/f").unwrap();
    assert_eq!(other.getacl("/q/sub").unwrap(), OPEN);
    assert_eq!(other.stat("/p/f").unwrap_err(), ChirpError::NotFound);
    assert_eq!(other.getacl("/p").unwrap_err(), ChirpError::NotADirectory);
    admin.mkdir("/p", 0o755).unwrap();
    assert_eq!(other.getacl("/p").unwrap(), OPEN, "a new /p");

    // A renamed *file* changes no directory's ACL and drops nothing.
    let before = rig.counter("acl.cache.invalidations");
    admin.rename("/q/f", "/q/g").unwrap();
    assert_eq!(rig.counter("acl.cache.invalidations"), before);
}

#[test]
fn revoked_rights_deny_the_open_session_at_once() {
    let rig = Rig::start(OPEN, |_| {});
    let (mut admin, mut user) = (rig.connect(), rig.connect());
    admin.mkdir("/s", 0o755).unwrap();
    admin.putfile("/s/f", 0o644, b"payload").unwrap();
    let (fd, _) = user.open("/s/f", OpenFlags::READ, 0).unwrap();
    user.stat("/s/f").unwrap();
    admin.setacl("/s", "hostname:*", "").unwrap();
    assert_eq!(user.stat("/s/f").unwrap_err(), ChirpError::NotAuthorized);
    assert_eq!(
        user.open("/s/f", OpenFlags::READ, 0).unwrap_err(),
        ChirpError::NotAuthorized
    );
    assert_eq!(user.getfile("/s/f").unwrap_err(), ChirpError::NotAuthorized);
    // Rights are checked at open: the descriptor keeps working.
    assert_eq!(user.pread(fd, 7, 0).unwrap(), b"payload");
}

fn pick(rng: &mut SmallRng, from: &[&'static str]) -> &'static str {
    from.choose(rng).expect("non-empty")
}

/// What an uncached server would answer `STAT <dir>/probe` with, from
/// the export as it is now — `stat_words` with
/// [`Acl::load_effective_in`] in place of the cache.
fn uncached_stat(fs: &LocalFs, dir: &str, subject: &str) -> Result<(), ChirpError> {
    let rights = Acl::load_effective_in(fs, dir)?.rights_of(subject);
    if !rights.intersects(Rights::READ | Rights::LIST) {
        return Err(ChirpError::NotAuthorized);
    }
    fs.stat(&join_path(dir, "probe"))
        .map(|_| ())
        .map_err(|e| ChirpError::from_io(&e))
}

/// Two thousand seeded policy and namespace changes through two
/// connections, each followed by a look at a random directory — made,
/// missing, inheriting or with a file in its way — through the other:
/// the ACL served and the verdict on a path beneath it must be what
/// the uncached loader reads off the disk.
#[test]
fn random_mirror_against_the_uncached_loader() {
    const DIRS: [&str; 9] = [
        "/a",
        "/b",
        "/a/x",
        "/a/y",
        "/b/x",
        "/a/x/deep",
        "/old",
        "/old/in",
        "/gone/in",
    ];
    const SPECS: [&str; 6] = ["r", "rl", "rwl", "rwlda", "a", ""];
    // The run's own subject keeps `a` everywhere, so no directory is
    // ever locked for good; what it may read, write and list varies.
    const OWN_SPECS: [&str; 4] = ["rwlda", "rla", "wda", "a"];
    let rig = Rig::start(OPEN, |root| {
        std::fs::create_dir_all(root.join("old/in")).unwrap();
    });
    let fs = LocalFs::new(rig.dir.path()).unwrap();
    let mut conns = [rig.connect(), rig.connect()];
    let me = conns[0].whoami().unwrap();
    let mut rng = SmallRng::seed_from_u64(0xac1_c0de);
    for step in 0..2000 {
        let actor = rng.gen_range(0..2usize);
        let dir = pick(&mut rng, &DIRS);
        // Errors are part of the mix (MKDIR of an existing name,
        // RMDIR of a full directory, a revoked admin): only the
        // server's state afterwards matters.
        let _ = match rng.gen_range(0..12u32) {
            0..=2 => conns[actor].mkdir(dir, 0o755),
            3 => conns[actor].rmdir(dir),
            4..=5 => conns[actor].setacl(
                dir,
                pick(&mut rng, &["unix:u0", "unix:u1"]),
                pick(&mut rng, &SPECS),
            ),
            6..=7 => conns[actor].setacl(dir, "hostname:*", pick(&mut rng, &OWN_SPECS)),
            8..=9 => conns[actor].rename(dir, pick(&mut rng, &DIRS)),
            // A file under a name lookups have seen as a missing
            // directory, and its removal.
            10 => {
                let flags = OpenFlags::WRITE | OpenFlags::CREATE;
                let opened = conns[actor].open(dir, flags, 0o644);
                opened.and_then(|(fd, _)| conns[actor].close(fd))
            }
            _ => conns[actor].unlink(dir),
        };
        let watcher = &mut conns[1 - actor];
        let seen = pick(&mut rng, &DIRS);
        let at = format!("step {step}: {seen}");
        assert_eq!(
            watcher.stat(&format!("{seen}/probe")).map(|_| ()),
            uncached_stat(&fs, seen, &me),
            "{at}"
        );
        let expect = Acl::load_effective_in(&fs, seen).unwrap_or_default();
        match watcher.getacl(seen) {
            Ok(text) => assert_eq!(text, expect.render(), "{at}"),
            Err(ChirpError::NotADirectory) => {
                assert!(!fs.stat(seen).is_ok_and(|st| st.is_dir()), "{at}")
            }
            Err(ChirpError::NotAuthorized) => {
                assert!(expect.rights_of(&me).is_empty(), "{at}")
            }
            Err(e) => panic!("{at}: {e:?}"),
        }
    }
    assert!(rig.counter("acl.cache.hits") > 0, "cache unused");
    assert!(rig.counter("acl.cache.invalidations") > 100);
}

/// A peer naming a hundred thousand distinct directories — missing
/// ones, then more real ones than the cap — costs the server misses,
/// not memory.
#[test]
fn a_hostile_stream_of_distinct_directories_stays_under_the_cap() {
    const MISSING: usize = 100_000;
    const REAL: usize = AclCache::MAX_ENTRIES + 500;
    let rig = Rig::start(OPEN, |root| {
        for i in 0..REAL {
            std::fs::create_dir(root.join(format!("real{i}"))).unwrap();
        }
    });
    let mut conn = rig.connect();
    let mut high_water = 0;
    for burst in 0..MISSING / 1000 {
        let paths: Vec<String> = (0..1000)
            .map(|i| format!("/nowhere{}/x", burst * 1000 + i))
            .collect();
        let verdicts = conn.stat_multi(&paths).unwrap();
        assert!(verdicts
            .iter()
            .all(|v| matches!(v, Err(ChirpError::NotFound))));
        high_water = high_water.max(rig.cached_dirs());
    }
    assert!(rig.counter("acl.cache.misses") >= MISSING as u64,);
    assert_eq!(high_water, 0, "missing directories are not kept");

    for i in 0..REAL {
        assert_eq!(
            conn.stat(&format!("/real{i}/x")).unwrap_err(),
            ChirpError::NotFound
        );
        high_water = high_water.max(rig.cached_dirs());
    }
    assert_eq!(high_water, AclCache::MAX_ENTRIES);
    assert_eq!(rig.cached_dirs(), REAL - AclCache::MAX_ENTRIES);
}
