//! End-to-end protocol scenarios under the in-memory transport:
//! third-party transfer between two servers, and session teardown
//! semantics on disconnect. These are the socket-based e2e scenarios
//! from `chirp-client/tests/e2e.rs` re-hosted on `MemNet` — same
//! handler stack, no ports, no reliance on loopback TCP behavior.

use std::time::Duration;

use chirp_proto::OpenFlags;
use simharness::harness::SimTss;

/// THIRDPUT pushes a file server-to-server: the client asks server 0,
/// and server 0 itself dials server 1 *through the same in-memory
/// network* (its outbound dialer is wired by the harness) and
/// authenticates as its own hostname identity.
#[test]
fn thirdput_transfers_between_two_in_memory_servers() {
    let sim = SimTss::builder().servers(2).build();
    let mut conn = sim.connect(0);

    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    conn.putfile("/src", 0o644, &payload).unwrap();

    let n = conn.thirdput("/src", &sim.endpoint(1), "/dst").unwrap();
    assert_eq!(n, payload.len() as u64);

    // The bytes landed on server 1's own storage, readable through a
    // direct connection and visible in its host root.
    let mut conn1 = sim.connect(1);
    assert_eq!(conn1.getfile("/dst").unwrap(), payload);
    assert_eq!(
        std::fs::read(sim.root(1).join("dst")).unwrap(),
        payload,
        "server 1 stores the file on its own resource"
    );
    assert!(
        !sim.root(0).join("dst").exists(),
        "the transfer must not bounce through server 0's storage"
    );
}

/// Third-party transfer to a server that refuses the pushing server's
/// identity fails without creating anything.
#[test]
fn thirdput_respects_target_acl() {
    let sim = SimTss::builder().servers(2).build();
    let mut conn = sim.connect(0);
    conn.putfile("/src", 0o644, b"secret").unwrap();

    // Lock server 1 down: revoke the wildcard entry, keep only an
    // unrelated subject.
    let mut conn1 = sim.connect(1);
    conn1.setacl("/", "unix:nobody", "rl").unwrap();
    conn1.setacl("/", "hostname:*", "").unwrap();

    let err = conn.thirdput("/src", &sim.endpoint(1), "/dst").unwrap_err();
    assert!(
        matches!(
            err,
            chirp_proto::ChirpError::NotAuthorized | chirp_proto::ChirpError::AuthFailed
        ),
        "unexpected error {err:?}"
    );
    assert!(!sim.root(1).join("dst").exists());
}

/// Dropping a connection closes every descriptor the session held:
/// the server session ends, its connection slot frees, and a fresh
/// session numbers descriptors from zero again.
#[test]
fn disconnect_closes_all_descriptors() {
    let sim = SimTss::builder().build();
    let mut conn = sim.connect(0);

    // Hold several descriptors, including one on an unlinked file
    // (the classic held-inode case).
    let (a, _) = conn
        .open("/a", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    let (b, _) = conn
        .open("/b", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    let (c, _) = conn
        .open("/c", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    assert_eq!((a, b, c), (0, 1, 2), "descriptors allocate densely");
    conn.pwrite(a, b"held", 0).unwrap();
    conn.unlink("/a").unwrap();
    assert_eq!(conn.pread(a, 4, 0).unwrap(), b"held");
    assert_eq!(sim.servers()[0].active_connections(), 1);

    // Drop the client end. The server observes EOF and tears the
    // session down — descriptors and all.
    drop(conn);
    wait_until(|| sim.servers()[0].active_connections() == 0);

    // A fresh session starts with an empty table: old descriptor
    // numbers are dead, and numbering restarts at zero.
    let mut conn = sim.connect(0);
    assert_eq!(
        conn.pread(a, 4, 0).unwrap_err(),
        chirp_proto::ChirpError::BadFd,
        "descriptors must not survive their session"
    );
    let (fresh, _) = conn.open("/b", OpenFlags::READ, 0).unwrap();
    assert_eq!(fresh, 0, "fd numbering restarts for a fresh session");
}

/// An abandoned session must not pin its connection slot: after the
/// drop, the server accepts new connections up to the same limit.
#[test]
fn dropped_sessions_free_connection_slots() {
    let sim = SimTss::builder().build();
    let conns: Vec<_> = (0..8).map(|_| sim.connect(0)).collect();
    assert_eq!(sim.servers()[0].active_connections(), 8);
    drop(conns);
    wait_until(|| sim.servers()[0].active_connections() == 0);
    let _again: Vec<_> = (0..8).map(|_| sim.connect(0)).collect();
    assert_eq!(sim.servers()[0].active_connections(), 8);
}

/// Spin (bounded, real time) until the server-side teardown lands.
/// Session teardown is the one genuinely asynchronous hand-off in
/// these scenarios — the server thread notices EOF on its own
/// schedule — so the tests wait on the *observable state*, never on a
/// fixed sleep.
fn wait_until(mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "condition not reached"
        );
        std::thread::yield_now();
    }
}
