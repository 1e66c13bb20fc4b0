//! Coherence of a shared DSFS between two clients, over the in-memory
//! network.
//!
//! A DSFS client caches nothing, so whatever one client changes in the
//! shared tree governs the very next call of any other. A rename is the
//! hard case for any future stub cache: it moves only the name, and a
//! rename onto an existing name orphans that name's old data on purpose
//! (DESIGN §3f), so a stale stub would not fail as `NotFound` — it
//! would serve the wrong bytes. Each scenario warms client A on the
//! names involved, renames through client B, and checks A again.

use std::sync::Arc;
use std::time::Duration;

use chirp_client::AuthMethod;
use chirp_proto::testutil::TempDir;
use chirp_proto::{Clock, MemNet, OpenFlags, VirtualClock};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use tss_core::fs::FileSystem;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{Dsfs, Placement};

/// A directory server and a data server on a fresh in-memory network,
/// and two independent clients of one DSFS on them.
struct Rig {
    _dirs: [TempDir; 2],
    _servers: [FileServer; 2],
    a: Dsfs,
    b: Dsfs,
}

impl Rig {
    fn start() -> Rig {
        let net = MemNet::new(Clock::virtual_at(VirtualClock::new()));
        let dirs = [TempDir::new(), TempDir::new()];
        let servers = dirs.each_ref().map(|dir| {
            let cfg = ServerConfig::localhost(dir.path(), "owner")
                .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
            FileServer::start_on(cfg, Arc::new(net.listen())).unwrap()
        });
        let auth = vec![AuthMethod::Hostname];
        let pool = vec![DataServer::new(
            &servers[1].endpoint(),
            "/vol",
            auth.clone(),
        )];
        let options = || StubFsOptions {
            timeout: Duration::from_secs(5),
            dialer: net.dialer(),
            clock: net.clock().clone(),
            ..StubFsOptions::default()
        };
        let meta = servers[0].endpoint();
        let a = Dsfs::format_with_options(
            &meta,
            "/tree",
            auth.clone(),
            pool.clone(),
            Placement::round_robin(),
            options(),
        )
        .unwrap();
        let b = Dsfs::with_options(
            &meta,
            "/tree",
            auth,
            pool,
            Placement::round_robin(),
            options(),
        )
        .unwrap();
        Rig {
            _dirs: dirs,
            _servers: servers,
            a,
            b,
        }
    }
}

/// Everything A learns about `path` by using it: its stub (stat, open)
/// and its bytes.
fn warm(fs: &Dsfs, path: &str) -> Vec<u8> {
    let size = fs.stat(path).unwrap().size;
    let bytes = fs.read_file(path).unwrap();
    assert_eq!(bytes.len() as u64, size);
    bytes
}

fn read_open(fs: &Dsfs, path: &str) -> std::io::Result<Vec<u8>> {
    let mut h = fs.open(path, OpenFlags::READ, 0)?;
    let size = h.fstat()?.size;
    let mut buf = vec![0u8; size as usize];
    let n = h.pread(&mut buf, 0)?;
    buf.truncate(n);
    Ok(buf)
}

#[test]
fn a_rename_onto_an_existing_name_serves_the_new_bytes_to_the_other_client() {
    let rig = Rig::start();
    rig.a.write_file("/x", b"the bytes of x").unwrap();
    rig.a.write_file("/y", b"y").unwrap();
    assert_eq!(warm(&rig.a, "/x"), b"the bytes of x");
    assert_eq!(warm(&rig.a, "/y"), b"y");
    let mut held = rig.a.open("/y", OpenFlags::READ, 0).unwrap();

    rig.b.rename("/x", "/y").unwrap();

    // The old name is gone, and the overwritten one is x's, for every
    // way A can ask.
    let gone = rig.a.stat("/x").unwrap_err();
    assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    let gone = rig.a.open("/x", OpenFlags::READ, 0).err().unwrap();
    assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    assert_eq!(read_open(&rig.a, "/y").unwrap(), b"the bytes of x");
    assert_eq!(rig.a.stat("/y").unwrap().size, 14);
    assert_eq!(rig.a.read_file("/y").unwrap(), b"the bytes of x");
    assert_eq!(rig.a.readdir("/").unwrap(), vec!["y"]);
    // A handle opened before the rename still reads what it opened:
    // y's old data was orphaned, not deleted.
    let mut buf = [0u8; 8];
    assert_eq!(held.pread(&mut buf, 0).unwrap(), 1);
    assert_eq!(&buf[..1], b"y");
}

#[test]
fn a_rename_away_leaves_the_old_name_not_found_for_the_other_client() {
    let rig = Rig::start();
    rig.a.mkdir("/d", 0o755).unwrap();
    rig.a.write_file("/d/a", b"alpha").unwrap();
    assert_eq!(warm(&rig.a, "/d/a"), b"alpha");

    rig.b.rename("/d/a", "/b").unwrap();

    let gone = rig.a.stat("/d/a").unwrap_err();
    assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    let gone = rig.a.open("/d/a", OpenFlags::READ, 0).err().unwrap();
    assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    assert!(rig.a.readdir("/d").unwrap().is_empty());
    assert_eq!(read_open(&rig.a, "/b").unwrap(), b"alpha");
    assert_eq!(rig.a.stat("/b").unwrap().size, 5);

    // And back: the name A saw vanish is there again, with its bytes.
    rig.b.rename("/b", "/d/a").unwrap();
    assert_eq!(read_open(&rig.a, "/d/a").unwrap(), b"alpha");
    assert_eq!(
        rig.a.stat("/b").unwrap_err().kind(),
        std::io::ErrorKind::NotFound
    );
}
