//! Server robustness: protocol abuse, connection limits, and ACL
//! corner cases exercised over raw TCP (no client library) so the
//! server's own defenses are what is under test.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use chirp_proto::testutil::TempDir;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

fn open_server(root: &std::path::Path) -> FileServer {
    FileServer::start(
        ServerConfig::localhost(root, "owner")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .unwrap()
}

fn raw_conn(server: &FileServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn read_line(stream: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    stream.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn garbage_requests_get_errors_not_crashes() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut stream = raw_conn(&server);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for garbage in [
        "FROBNICATE /x\n",
        "OPEN\n",
        "OPEN /x not-a-number 0\n",
        "PREAD 0 abc def\n",
        "\n",
    ] {
        stream.write_all(garbage.as_bytes()).unwrap();
        let reply = read_line(&mut reader);
        let code: i64 = reply.split(' ').next().unwrap().parse().unwrap();
        assert!(
            code < 0,
            "garbage {garbage:?} must yield an error, got {reply:?}"
        );
    }
    // The connection is still usable afterwards.
    stream.write_all(b"AUTH hostname x x\n").unwrap();
    let reply = read_line(&mut reader);
    assert!(reply.starts_with("0 "), "got {reply:?}");
}

#[test]
fn oversized_lines_drop_the_connection() {
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut stream = raw_conn(&server);
    let huge = vec![b'x'; chirp_proto::MAX_LINE + 100];
    stream.write_all(&huge).unwrap();
    stream.write_all(b"\n").unwrap();
    // The server refuses to buffer unboundedly: EOF, not a reply.
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let n = reader.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must hang up on oversized lines");
}

#[test]
fn connection_limit_refuses_politely() {
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwl").unwrap());
    cfg.max_connections = 2;
    let server = FileServer::start(cfg).unwrap();

    let _a = raw_conn(&server);
    let _b = raw_conn(&server);
    // Give the server a moment to count the first two.
    std::thread::sleep(Duration::from_millis(100));
    let c = raw_conn(&server);
    let mut reader = BufReader::new(c);
    let reply = read_line(&mut reader);
    assert_eq!(
        reply.parse::<i64>().unwrap(),
        chirp_proto::ChirpError::Busy.code(),
        "over-limit connections get a Busy status, got {reply:?}"
    );
}

#[test]
fn mkdir_with_write_right_copies_the_parent_acl() {
    use chirp_client::{AuthMethod, Connection};
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::parse("hostname:* rwl\nglobus:/O=ND/* rl\n").unwrap());
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn.mkdir("/sub", 0o755).unwrap();
    // Ordinary (W-right) mkdir: the new directory inherits a *copy*
    // of the parent ACL — editing it later won't touch the parent.
    let acl = conn.getacl("/sub").unwrap();
    assert!(acl.contains("hostname:* rwl"), "{acl}");
    assert!(acl.contains("globus:/O=ND/* rl"), "{acl}");
}

#[test]
fn pwrite_on_readonly_descriptor_fails() {
    use chirp_client::{AuthMethod, Connection};
    use chirp_proto::OpenFlags;
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let mut conn = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn.putfile("/f", 0o644, b"data").unwrap();
    let (fd, _) = conn.open("/f", OpenFlags::READ, 0).unwrap();
    assert!(conn.pwrite(fd, b"overwrite", 0).is_err());
    // The file is untouched and the connection still works.
    assert_eq!(conn.getfile("/f").unwrap(), b"data");
}

#[test]
fn rename_needs_rights_on_both_parents() {
    use chirp_client::{AuthMethod, Connection};
    let dir = TempDir::new();
    // /public is writable by visitors; /vault only readable.
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("admin:boss", "rwlda").unwrap())
        .with_key("admin", "boss", b"boss-key");
    let server = FileServer::start(cfg).unwrap();
    let mut boss = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    boss.authenticate(&[AuthMethod::key("admin", "", b"boss-key")])
        .unwrap();
    boss.mkdir("/public", 0o755).unwrap();
    boss.setacl("/public", "hostname:*", "rwl").unwrap();
    boss.mkdir("/vault", 0o755).unwrap();
    boss.setacl("/vault", "hostname:*", "rl").unwrap();
    boss.putfile("/vault/gold", 0o644, b"treasure").unwrap();

    let mut visitor = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    visitor.authenticate(&[AuthMethod::Hostname]).unwrap();
    visitor.putfile("/public/note", 0o644, b"mine").unwrap();
    // Cannot move things *out of* the vault (no W/D there)...
    assert!(visitor.rename("/vault/gold", "/public/gold").is_err());
    // ...nor *into* it (no W there).
    assert!(visitor.rename("/public/note", "/vault/note").is_err());
    // Within the writable area it works.
    visitor.rename("/public/note", "/public/note2").unwrap();
}

#[test]
fn payload_of_rejected_putfile_does_not_desync_the_stream() {
    use chirp_client::{AuthMethod, Connection};
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rl").unwrap()); // no W
    let server = FileServer::start(cfg).unwrap();
    let mut conn = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    // The server must drain the refused payload to stay framed.
    assert!(conn.putfile("/nope", 0o644, &vec![7u8; 100_000]).is_err());
    // Next RPC on the same connection parses cleanly.
    assert_eq!(conn.whoami().unwrap(), "hostname:localhost");
    assert!(conn.getdir("/").unwrap().is_empty());

    // An upload whose open fails after the rights check passed — no
    // parent directory, or a directory in the way — owes the stream
    // its payload too. A payload that is itself a request line must be
    // drained, never served.
    let dir = TempDir::new();
    let server = open_server(dir.path());
    std::fs::create_dir(dir.path().join("taken")).unwrap();
    let mut stream = raw_conn(&server);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"AUTH hostname x x\n").unwrap();
    assert!(read_line(&mut reader).starts_with("0 "));
    for (target, smuggled) in [("/missing/f", "smuggled"), ("/taken", "smuggled2")] {
        let payload = format!("MKDIR /{smuggled} 493\n");
        let len = payload.len();
        write!(stream, "PUTFILE {target} 420 {len}\n{payload}STAT /\n").unwrap();
        let put = read_line(&mut reader);
        assert!(put.starts_with('-'), "PUTFILE {target}: {put:?}");
        // The next reply is the STAT's (status plus stat words), not
        // the bare `0` of a smuggled MKDIR.
        let stat = read_line(&mut reader);
        assert!(
            stat.starts_with("0 ") && stat.split(' ').count() > 2,
            "after PUTFILE {target}: {stat:?}"
        );
        assert!(!dir.path().join(smuggled).exists(), "{smuggled} created");
    }
}

/// A `PUTFILE` whose file write fails mid-body (the export holds a
/// symlink to `/dev/full`) drains the rest of its body and answers the
/// write's error, and a request pipelined behind it gets its own reply.
#[test]
fn a_putfile_whose_write_fails_drains_its_body() {
    let dir = TempDir::new();
    std::os::unix::fs::symlink("/dev/full", dir.path().join("full")).unwrap();
    let server = open_server(dir.path());
    let mut stream = raw_conn(&server);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"AUTH hostname x x\n").unwrap();
    assert!(read_line(&mut reader).starts_with("0 "));
    let len = 1 << 20;
    let mut request = format!("PUTFILE /full 420 {len}\n").into_bytes();
    request.resize(request.len() + len, b'x');
    request.extend_from_slice(b"STAT /\n");
    stream.write_all(&request).unwrap();
    assert_eq!(
        read_line(&mut reader),
        chirp_proto::ChirpError::NoSpace.code().to_string()
    );
    let stat = read_line(&mut reader);
    assert!(
        stat.starts_with("0 ") && stat.split(' ').count() > 2,
        "after the failed PUTFILE: {stat:?}"
    );
}

#[test]
fn idle_connections_are_reaped() {
    use chirp_client::{AuthMethod, Connection};
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwl").unwrap());
    cfg.idle_timeout = Some(Duration::from_millis(150));
    let server = FileServer::start(cfg).unwrap();

    // An active client is unaffected as long as it keeps talking.
    let mut busy = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    busy.authenticate(&[AuthMethod::Hostname]).unwrap();
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(60));
        busy.whoami().unwrap();
    }

    // An idle client is cut loose and must reconnect.
    let mut idle = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    idle.authenticate(&[AuthMethod::Hostname]).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    assert!(idle.whoami().is_err(), "idle session must be closed");
    // The server's connection slot is freed.
    for _ in 0..100 {
        if server.active_connections() <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.active_connections() <= 1);
}

/// A client that dies mid-request — the request line cut part way, or
/// a `PWRITE` whose payload is cut part way — leaves nothing behind:
/// the torn request is not executed, the connection's slot is freed,
/// and the next client is served.
#[test]
fn a_request_torn_by_a_closing_client_is_not_executed() {
    use chirp_proto::{OpenFlags, Request};
    let dir = TempDir::new();
    std::fs::write(dir.path().join("f"), b"").unwrap();
    let server = open_server(dir.path());
    let authed = || {
        let mut stream = raw_conn(&server);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"AUTH hostname x x\n").unwrap();
        assert!(read_line(&mut reader).starts_with("0 "));
        (stream, reader)
    };

    // A request line cut before its newline: "MKDIR /torn 49" would
    // itself be a valid request.
    let (mut stream, reader) = authed();
    stream.write_all(b"MKDIR /torn 49").unwrap();
    drop((stream, reader));

    // A PWRITE cut half way through its payload.
    let (mut stream, mut reader) = authed();
    let open = Request::Open {
        path: "/f".into(),
        flags: OpenFlags::read_write(),
        mode: 0,
    };
    stream.write_all(open.encode().as_bytes()).unwrap();
    let fd: i64 = read_line(&mut reader)
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(fd >= 0, "OPEN failed: {fd}");
    write!(stream, "PWRITE {fd} 8 0\nABCD").unwrap();
    drop((stream, reader));

    for _ in 0..500 {
        if server.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 0, "torn sessions not reaped");
    assert!(!dir.path().join("torn").exists(), "torn MKDIR executed");
    assert!(
        std::fs::read(dir.path().join("f")).unwrap().is_empty(),
        "torn PWRITE executed"
    );

    let (mut stream, mut reader) = authed();
    stream.write_all(b"STAT /\n").unwrap();
    let stat = read_line(&mut reader);
    assert!(
        stat.starts_with("0 ") && stat.split(' ').count() > 2,
        "next client not served: {stat:?}"
    );
}
