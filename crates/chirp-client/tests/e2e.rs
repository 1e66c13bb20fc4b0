//! End-to-end tests: a real client against a real file server over
//! loopback TCP, exercising authentication, the full RPC surface, ACL
//! enforcement with the reserve right, and disconnect semantics.

use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_proto::{ChirpError, OpenFlags};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(5);

/// A server whose root grants `rwlda` to every `hostname:` subject, so
/// loopback clients have full (non-admin-free) access.
fn open_server(root: &std::path::Path) -> FileServer {
    let cfg = ServerConfig::localhost(root, "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    FileServer::start(cfg).unwrap()
}

fn connect(server: &FileServer) -> Connection {
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn
}

#[test]
fn deploy_connect_authenticate() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    assert_eq!(conn.whoami().unwrap(), "hostname:localhost");
    assert_eq!(conn.subject(), Some("hostname:localhost"));
}

#[test]
fn requests_require_authentication() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    assert_eq!(conn.stat("/").unwrap_err(), ChirpError::NotAuthenticated);
    assert_eq!(conn.getdir("/").unwrap_err(), ChirpError::NotAuthenticated);
}

#[test]
fn open_write_read_close() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    let (fd, _) = conn
        .open(
            "/hello.txt",
            OpenFlags::read_write() | OpenFlags::CREATE,
            0o644,
        )
        .unwrap();
    assert_eq!(conn.pwrite(fd, b"hello tactical storage", 0).unwrap(), 22);
    let data = conn.pread(fd, 5, 6).unwrap();
    assert_eq!(&data, b"tacti");
    let st = conn.fstat(fd).unwrap();
    assert_eq!(st.size, 22);
    conn.close(fd).unwrap();
    assert_eq!(conn.close(fd).unwrap_err(), ChirpError::BadFd);
    // Data is stored without transformation in the host filesystem
    // (recursive abstraction).
    let on_disk = std::fs::read(dir.path().join("hello.txt")).unwrap();
    assert_eq!(on_disk, b"hello tactical storage");
}

#[test]
fn pread_at_eof_is_short() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.putfile("/f", 0o644, b"12345").unwrap();
    let (fd, _) = conn.open("/f", OpenFlags::READ, 0).unwrap();
    assert_eq!(conn.pread(fd, 100, 0).unwrap(), b"12345");
    assert!(conn.pread(fd, 100, 5).unwrap().is_empty());
    assert_eq!(conn.pread(fd, 3, 4).unwrap(), b"5");
}

#[test]
fn exclusive_create_detects_collision() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
    let (fd, _) = conn.open("/unique", flags, 0o644).unwrap();
    conn.close(fd).unwrap();
    assert_eq!(
        conn.open("/unique", flags, 0o644).unwrap_err(),
        ChirpError::AlreadyExists
    );
}

#[test]
fn namespace_operations() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.mkdir("/figures", 0o755).unwrap();
    conn.putfile("/figures/a.eps", 0o644, b"%!PS").unwrap();
    conn.putfile("/paper.txt", 0o644, b"abstract").unwrap();
    let mut names = conn.getdir("/").unwrap();
    names.sort();
    assert_eq!(names, vec!["figures", "paper.txt"]);
    // Rename is atomic within the server.
    conn.rename("/paper.txt", "/figures/paper.txt").unwrap();
    assert_eq!(conn.stat("/paper.txt").unwrap_err(), ChirpError::NotFound);
    assert_eq!(conn.stat("/figures/paper.txt").unwrap().size, 8);
    // rmdir refuses non-empty directories.
    assert_eq!(conn.rmdir("/figures").unwrap_err(), ChirpError::NotEmpty);
    conn.unlink("/figures/a.eps").unwrap();
    conn.unlink("/figures/paper.txt").unwrap();
    conn.rmdir("/figures").unwrap();
    assert_eq!(conn.stat("/figures").unwrap_err(), ChirpError::NotFound);
}

#[test]
fn getfile_putfile_round_trip_large() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    // Cross the 64 KiB streaming buffer several times.
    let data: Vec<u8> = (0..300_000u32).map(|i| (i * 31 % 251) as u8).collect();
    conn.putfile("/big.bin", 0o644, &data).unwrap();
    assert_eq!(conn.getfile("/big.bin").unwrap(), data);
    assert_eq!(
        conn.checksum("/big.bin").unwrap(),
        chirp_proto::crc64(&data)
    );
}

#[test]
fn statfs_tracks_usage() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    let before = conn.statfs().unwrap();
    conn.putfile("/blob", 0o644, &vec![7u8; 10_000]).unwrap();
    let after = conn.statfs().unwrap();
    assert_eq!(before.total_bytes, after.total_bytes);
    assert!(before.free_bytes >= after.free_bytes + 10_000);
}

#[test]
fn truncate_and_utime() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.putfile("/t", 0o644, b"0123456789").unwrap();
    conn.truncate("/t", 4).unwrap();
    assert_eq!(conn.stat("/t").unwrap().size, 4);
    conn.utime("/t", 1_120_000_000).unwrap();
    assert_eq!(conn.stat("/t").unwrap().mtime, 1_120_000_000);
}

#[test]
fn key_auth_and_acl_enforcement() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(
            Acl::parse(
                "globus:/O=NotreDame/* rwl\n\
                 hostname:* rl\n",
            )
            .unwrap(),
        )
        .with_key("globus", "/O=NotreDame/CN=alice", b"alice-key");
    let server = FileServer::start(cfg).unwrap();

    // Alice (grid credential) can write.
    let mut alice = Connection::connect(server.addr(), TIMEOUT).unwrap();
    let subject = alice
        .authenticate(&[AuthMethod::key("globus", "", b"alice-key")])
        .unwrap();
    assert_eq!(subject, "globus:/O=NotreDame/CN=alice");
    alice.putfile("/data", 0o644, b"payload").unwrap();

    // A hostname subject can read and list but not write or delete.
    let mut visitor = Connection::connect(server.addr(), TIMEOUT).unwrap();
    visitor.authenticate(&[AuthMethod::Hostname]).unwrap();
    assert_eq!(visitor.getfile("/data").unwrap(), b"payload");
    assert_eq!(
        visitor.putfile("/evil", 0o644, b"x").unwrap_err(),
        ChirpError::NotAuthorized
    );
    assert_eq!(
        visitor.unlink("/data").unwrap_err(),
        ChirpError::NotAuthorized
    );
    // Neither subject holds A, so neither may edit the ACL.
    assert_eq!(
        visitor.setacl("/", "hostname:*", "rwla").unwrap_err(),
        ChirpError::NotAuthorized
    );
    assert_eq!(
        alice.setacl("/", "hostname:*", "rwla").unwrap_err(),
        ChirpError::NotAuthorized
    );
}

#[test]
fn wrong_key_fails_then_fallback_succeeds() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rl").unwrap())
        .with_key("globus", "/O=ND/CN=a", b"right-key");
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    // The paper: a client may attempt any number of methods in any
    // order; the first success wins.
    let subject = conn
        .authenticate(&[
            AuthMethod::key("globus", "", b"wrong-key"),
            AuthMethod::Hostname,
        ])
        .unwrap();
    assert_eq!(subject, "hostname:localhost");
}

#[test]
fn only_one_credential_set_per_session() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rl").unwrap())
        .with_key("globus", "/O=ND/CN=a", b"some-key");
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    // A second authentication on the same session is refused.
    assert!(conn
        .authenticate(&[AuthMethod::key("globus", "", b"some-key")])
        .is_err());
    assert_eq!(conn.whoami().unwrap(), "hostname:localhost");
}

#[test]
fn reserve_right_creates_private_namespace() {
    let dir = TempDir::new();
    // The paper's §4 scenario: visitors hold only v(rwl) at the root.
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "v(rwl)").unwrap());
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();

    // No direct write right at the root...
    assert_eq!(
        conn.putfile("/direct", 0o644, b"x").unwrap_err(),
        ChirpError::NotAuthorized
    );
    // ...but mkdir under the reserve right creates a private space.
    conn.mkdir("/backup", 0o755).unwrap();
    conn.putfile("/backup/data", 0o644, b"mine").unwrap();
    let acl = conn.getacl("/backup").unwrap();
    assert_eq!(acl.trim(), "hostname:localhost rwl");
    // The A right was omitted from v(rwl), so the user cannot extend
    // access to others.
    assert_eq!(
        conn.setacl("/backup", "hostname:friend", "rl").unwrap_err(),
        ChirpError::NotAuthorized
    );
}

#[test]
fn reserve_with_admin_allows_extending_access() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("globus:/O=ND/*", "v(rwla)").unwrap())
        .with_key("globus", "/O=ND/CN=alice", b"alice-key")
        .with_key("globus", "/O=ND/CN=bob", b"bob-key");
    let server = FileServer::start(cfg).unwrap();

    let mut alice = Connection::connect(server.addr(), TIMEOUT).unwrap();
    alice
        .authenticate(&[AuthMethod::key("globus", "", b"alice-key")])
        .unwrap();
    alice.mkdir("/shared", 0o755).unwrap();
    // Alice holds A inside her reserved directory and can admit Bob.
    alice
        .setacl("/shared", "globus:/O=ND/CN=bob", "rwl")
        .unwrap();

    let mut bob = Connection::connect(server.addr(), TIMEOUT).unwrap();
    bob.authenticate(&[AuthMethod::key("globus", "", b"bob-key")])
        .unwrap();
    bob.putfile("/shared/from-bob", 0o644, b"hi").unwrap();
    assert_eq!(alice.getfile("/shared/from-bob").unwrap(), b"hi");
}

#[test]
fn owner_superuser_can_evict_data() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "v(rwl)").unwrap())
        .with_key("admin", "owner", b"owner-key")
        .with_superuser("admin:owner");
    let server = FileServer::start(cfg).unwrap();

    let mut user = Connection::connect(server.addr(), TIMEOUT).unwrap();
    user.authenticate(&[AuthMethod::Hostname]).unwrap();
    user.mkdir("/private", 0o755).unwrap();
    user.putfile("/private/secret", 0o600, b"data").unwrap();

    // The owner retains access to all data and may evict it at will.
    let mut owner = Connection::connect(server.addr(), TIMEOUT).unwrap();
    owner
        .authenticate(&[AuthMethod::key("admin", "", b"owner-key")])
        .unwrap();
    assert_eq!(owner.getfile("/private/secret").unwrap(), b"data");
    owner.unlink("/private/secret").unwrap();
    assert_eq!(
        user.stat("/private/secret").unwrap_err(),
        ChirpError::NotFound
    );
}

#[test]
fn delete_right_allows_delete_but_not_write() {
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::parse("hostname:* rld\nglobus:/O=ND/* rwl\n").unwrap())
        .with_key("globus", "/O=ND/CN=w", b"writer-key");
    let server = FileServer::start(cfg).unwrap();
    let mut writer = Connection::connect(server.addr(), TIMEOUT).unwrap();
    writer
        .authenticate(&[AuthMethod::key("globus", "", b"writer-key")])
        .unwrap();
    writer.putfile("/doomed", 0o644, b"x").unwrap();

    let mut janitor = Connection::connect(server.addr(), TIMEOUT).unwrap();
    janitor.authenticate(&[AuthMethod::Hostname]).unwrap();
    assert_eq!(
        janitor.putfile("/new", 0o644, b"x").unwrap_err(),
        ChirpError::NotAuthorized
    );
    janitor.unlink("/doomed").unwrap();
}

#[test]
fn acl_file_is_invisible_and_protected() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.putfile("/visible", 0o644, b"x").unwrap();
    let names = conn.getdir("/").unwrap();
    assert!(!names.iter().any(|n| n.contains("__acl")));
    assert_eq!(
        conn.getfile("/.__acl").unwrap_err(),
        ChirpError::NotAuthorized
    );
    assert_eq!(
        conn.unlink("/.__acl").unwrap_err(),
        ChirpError::NotAuthorized
    );
}

#[test]
fn jail_confines_path_traversal() {
    let dir = TempDir::new();
    // Put a sentinel *outside* the export root.
    std::fs::write(dir.path().join("outside.txt"), b"secret").unwrap();
    let root = dir.subdir("export");
    let server = open_server(&root);
    let mut conn = connect(&server);
    assert_eq!(
        conn.getfile("/../outside.txt").unwrap_err(),
        ChirpError::NotFound,
        "`..` must resolve inside the jail, not escape it"
    );
}

#[test]
fn disconnect_frees_server_state() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    let (fd, _) = conn
        .open("/f", OpenFlags::WRITE | OpenFlags::CREATE, 0o644)
        .unwrap();
    conn.pwrite(fd, b"x", 0).unwrap();
    drop(conn);
    // The server notices the disconnect and frees the session.
    for _ in 0..100 {
        if server.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 0);
    // A new connection gets a fresh descriptor space.
    let mut conn2 = connect(&server);
    let (fd2, _) = conn2.open("/f", OpenFlags::READ, 0).unwrap();
    assert_eq!(fd2, 0, "descriptors are connection-scoped");
}

#[test]
fn server_shutdown_breaks_clients_cleanly() {
    let dir = TempDir::new();
    let mut server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.putfile("/f", 0o644, b"x").unwrap();
    server.shutdown();
    // A request already in flight when the flag flips may still be
    // served; within a bounded number of calls the connection must
    // fail with a transport error, not a hang.
    let mut err = None;
    for _ in 0..10 {
        match conn.stat("/f") {
            Ok(_) => continue,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let err = err.expect("connection must break after shutdown");
    assert!(
        matches!(err, ChirpError::Disconnected | ChirpError::Timeout),
        "got {err:?}"
    );
    assert!(conn.is_broken());
    // Every further call fails fast.
    assert_eq!(conn.stat("/f").unwrap_err(), ChirpError::Disconnected);
}

#[test]
fn unix_auth_end_to_end() {
    let dir = TempDir::new();
    let challenge = dir.subdir("challenge");
    let mut cfg = ServerConfig::localhost(dir.subdir("root"), "owner")
        .with_root_acl(Acl::single("unix:*", "rwl").unwrap());
    cfg.unix_challenge_dir = Some(challenge);
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), TIMEOUT).unwrap();
    let subject = conn.authenticate(&[AuthMethod::Unix]).unwrap();
    assert!(subject.starts_with("unix:uid"), "got {subject}");
    conn.putfile("/works", 0o644, b"1").unwrap();
}

#[test]
fn concurrent_clients_share_one_server() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut conn = Connection::connect(addr, TIMEOUT).unwrap();
            conn.authenticate(&[AuthMethod::Hostname]).unwrap();
            let path = format!("/client-{i}");
            let data = vec![i as u8; 10_000];
            conn.putfile(&path, 0o644, &data).unwrap();
            assert_eq!(conn.getfile(&path).unwrap(), data);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let names = {
        let mut conn = connect(&server);
        conn.getdir("/").unwrap()
    };
    assert_eq!(names.len(), 8);
    assert!(server.stats().snapshot().connections >= 9);
}

#[test]
fn thirdput_moves_data_server_to_server() {
    let dir_a = TempDir::new();
    let dir_b = TempDir::new();
    let server_a = open_server(dir_a.path());
    let server_b = open_server(dir_b.path());
    let mut conn = connect(&server_a);
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    conn.putfile("/src.bin", 0o644, &data).unwrap();

    let moved = conn
        .thirdput("/src.bin", &server_b.endpoint(), "/dst.bin")
        .unwrap();
    assert_eq!(moved, data.len() as u64);
    // The bytes really are on B, placed there by A, not by us.
    assert_eq!(std::fs::read(dir_b.path().join("dst.bin")).unwrap(), data);
    let mut conn_b = connect(&server_b);
    assert_eq!(
        conn_b.checksum("/dst.bin").unwrap(),
        chirp_proto::crc64(&data)
    );
}

#[test]
fn thirdput_respects_both_sides_acls() {
    // Reading the source requires R here; creating on the target is
    // the target's ACL decision about the *source server's* identity.
    let dir_a = TempDir::new();
    let dir_b = TempDir::new();
    let server_a = open_server(dir_a.path());
    // B admits nobody.
    let server_b = FileServer::start(
        ServerConfig::localhost(dir_b.path(), "owner")
            .with_root_acl(Acl::single("globus:/O=Nowhere/*", "rwl").unwrap()),
    )
    .unwrap();
    let mut conn = connect(&server_a);
    conn.putfile("/src.bin", 0o644, b"payload").unwrap();
    let err = conn
        .thirdput("/src.bin", &server_b.endpoint(), "/dst.bin")
        .unwrap_err();
    assert_eq!(err, ChirpError::NotAuthorized);
    // Nonexistent source fails with NotFound before any connection.
    assert_eq!(
        conn.thirdput("/nope", &server_b.endpoint(), "/x")
            .unwrap_err(),
        ChirpError::NotFound
    );
}

#[test]
fn getlongdir_lists_names_with_attributes_in_one_rpc() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.mkdir("/sub", 0o755).unwrap();
    conn.putfile("/small", 0o644, b"abc").unwrap();
    conn.putfile("/large", 0o644, &vec![0u8; 10_000]).unwrap();
    let before = server.stats().snapshot().requests;
    let mut listing = conn.getlongdir("/").unwrap();
    let after = server.stats().snapshot().requests;
    assert_eq!(after - before, 1, "one RPC for names + attributes");
    listing.sort_by(|a, b| a.0.cmp(&b.0));
    let names: Vec<&str> = listing.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["large", "small", "sub"]);
    assert_eq!(listing[0].1.size, 10_000);
    assert_eq!(listing[1].1.size, 3);
    assert!(listing[2].1.is_dir());
    // The ACL metadata stays invisible here too.
    assert!(!names.iter().any(|n| n.contains("__acl")));
}

#[test]
fn open_answers_with_its_attributes_in_one_rpc() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = connect(&server);
    conn.putfile("/f", 0o640, b"0123456789").unwrap();
    let before = server.stats().snapshot().requests;
    let (fd, st) = conn.open("/f", OpenFlags::READ, 0).unwrap();
    let after = server.stats().snapshot().requests;
    assert_eq!(after - before, 1, "one RPC for the descriptor + attributes");
    assert_eq!(st, conn.fstat(fd).unwrap());
    assert!(st.is_file());
    assert_eq!(st.size, 10);
    // A truncating open answers with the truncated file.
    let (fd2, st2) = conn
        .open("/f", OpenFlags::WRITE | OpenFlags::TRUNCATE, 0)
        .unwrap();
    assert_eq!(st2.size, 0);
    assert_eq!((st2.device, st2.inode), (st.device, st.inode));
    assert_eq!(st2, conn.fstat(fd2).unwrap());
}
