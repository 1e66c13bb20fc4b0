//! The fault and recovery suite, on simulated time.
//!
//! It checks the paper's §6 adapter contract: a client reconnects with
//! capped backoff, re-opens its files, and compares inodes so that a
//! replaced file becomes a stale handle. It also checks that transient
//! transport faults (kills mid-RPC, delays, corrupted, truncated and
//! black-holed replies) are masked within the retry budget with data
//! intact, while protocol verdicts such as ACL denials surface at once
//! and are never retried.
//!
//! Every test runs on a [`SimTss`]: real servers on the in-memory
//! network, with every backoff, timeout and injected delay charged to
//! one virtual clock. There are no sockets, no sleeps and no wall-clock
//! bounds; a timing claim is a fact about the virtual clock. Faults use
//! the seams the product dials through:
//! * `FaultDialer`/`RouteDialer` wrap the in-memory dialer, for one
//!   server or for all;
//! * a live connection is severed by a one-shot kill, disarmed until
//!   the moment of the sever ([`severer`]);
//! * new connections are refused with `MemNet::unbind`;
//! * a server restart is [`SimTss::restart`];
//! * a lost catalog report is a draw of a seeded [`ReportLoss`] plan in
//!   [`SimTss::report`].
//!
//! The discovery cases (paper §4) read every listing through
//! `discover_pool` from a catalog hosted on the same network and clock,
//! so an expiry boundary is exact to the nanosecond.
//!
//! Determinism: every fault plan is seeded from `CHAOS_SEED` when set
//! (default below), and each seeded test announces its seed on stderr,
//! which the test harness shows on failure. Sequential tests are
//! exactly reproducible; the concurrent striped test asserts outcomes
//! (data integrity, bounded retries), not fault placement.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::testutil::TempDir;
use chirp_proto::{OpenFlags, ReplyShape, Request};
use chirp_server::acl::Acl;
use faultline::{FaultAction, FaultDialer, FaultPlan, FaultRule, FaultTrigger, RouteDialer};
use simharness::harness::{auth, sim_retry, ReportLoss, SimTss, SIM_TIMEOUT};
use tss_core::cfs::{is_transport_error, Cfs, RetryPolicy};
use tss_core::discovery::{discover_pool, PoolPolicy};
use tss_core::fs::FileSystem;
use tss_core::fsck::fsck;
use tss_core::stub::StubRecord;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{Dsfs, LocalFs, MirroredFs, Placement, ServerPool, StripedFs, StubFs};

/// Default plan seed, overridable with `CHAOS_SEED=<u64>`.
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

/// What a dial to an unbound in-memory address charges the clock
/// (`MemNet`'s refused connect, for any timeout of 100 ms or more).
const REFUSED_CONNECT: Duration = Duration::from_millis(100);

/// The plan seed, announced on stderr: the harness prints captured
/// output on failure, so a failing test always names its seed.
fn announce(test: &str) -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    eprintln!("{test}: CHAOS_SEED={seed}");
    seed
}

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131) ^ (salt * 7)) as u8).collect()
}

/// A fault injector over `sim`'s network, charging its delays and
/// black-hole timeouts to `sim`'s clock.
fn faults(sim: &SimTss, plan: FaultPlan) -> Arc<FaultDialer> {
    FaultDialer::new(sim.dialer(), sim.clock().clone(), plan)
}

/// A dialer that kills the next RPC mid-frame once armed, severing the
/// connection that RPC runs on, and never fires again. It starts
/// disarmed; arming it is the sever.
fn severer(sim: &SimTss, seed: u64) -> Arc<FaultDialer> {
    let once = FaultRule::new(FaultTrigger::EveryNthRpc(1), FaultAction::KillMidFrame).max_fires(1);
    let dialer = faults(sim, FaultPlan::new(seed).with_rule(once));
    dialer.set_armed(false);
    dialer
}

/// A CFS on server 0 of `sim`, dialing through `faults`.
fn cfs_via(sim: &SimTss, faults: &Arc<FaultDialer>) -> Cfs {
    Cfs::new(sim.cfs_config(0).with_dialer(faults.dialer()))
}

/// [`SimTss::stubfs_options`] dialing through `dialer`.
fn options_via(sim: &SimTss, dialer: chirp_proto::transport::Dialer) -> StubFsOptions {
    StubFsOptions {
        dialer,
        ..sim.stubfs_options()
    }
}

/// A metadata tree on local disk, kept alive beside the file system.
fn meta_tree() -> (TempDir, Arc<LocalFs>) {
    let dir = TempDir::new();
    let meta = Arc::new(LocalFs::new(dir.path()).unwrap());
    (dir, meta)
}

/// Count the data files in a host directory, ignoring the server's
/// private ACL metadata.
fn data_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().as_ref() != ".__acl")
        .count()
}

/// Read `len` bytes of `path` through one handle, in preads of at
/// most `chunk` bytes, checking each makes progress.
fn pread_all(fs: &dyn FileSystem, path: &str, len: usize, chunk: usize) -> Vec<u8> {
    let mut h = fs.open(path, OpenFlags::READ, 0).unwrap();
    let mut got = vec![0u8; len];
    let mut off = 0usize;
    while off < len {
        let end = (off + chunk).min(len);
        let n = h.pread(&mut got[off..end], off as u64).unwrap();
        assert!(n > 0, "pread returned 0 at offset {off}, before EOF");
        off += n;
    }
    got
}

// ---- Masking transport faults ----

#[test]
fn kill_mid_rpc_on_one_mirror_replica_is_masked() {
    let seed = announce("kill_mid_rpc_on_one_mirror_replica_is_masked");
    let sim = SimTss::builder().servers(2).build();
    // Replica 0 is dialed through a plan that kills every second RPC;
    // replica 1 is dialed cleanly.
    let killer = faults(
        &sim,
        FaultPlan::new(seed).rule(FaultTrigger::EveryNthRpc(2), FaultAction::KillMidFrame),
    );
    let routed = RouteDialer::new(sim.dialer())
        .route(&sim.endpoint(0), killer.dialer())
        .dialer();
    let pool = vec![sim.data_server(0, "/vol"), sim.data_server(1, "/vol")];
    let (_meta_dir, meta) = meta_tree();
    let fs = MirroredFs::new(meta, pool, 2, options_via(&sim, routed)).unwrap();

    // Fixture written fault-free.
    killer.set_armed(false);
    fs.ensure_volumes().unwrap();
    let data = pattern(64 * 1024, 3);
    fs.write_file("/precious", &data).unwrap();
    killer.set_armed(true);
    let t0 = sim.clock().now();

    // Kill-mid-pread: the read either recovers within the retry budget
    // or demotes the broken replica and fails over; the caller sees
    // only correct data.
    assert_eq!(pread_all(&fs, "/precious", data.len(), data.len()), data);
    assert_eq!(fs.read_file("/precious").unwrap(), data);

    assert!(killer.stats().kills > 0, "kill plan never fired");
    // Bounded recovery: each operation retries at most the policy
    // budget; the workload above is comfortably under 16 pool-level
    // operations.
    let budget = u64::from(sim_retry().max_retries);
    let stats = fs.pool_stats();
    assert!(stats.retries <= budget * 16, "unbounded retries: {stats:?}");
    // The recovery waited out its backoff on the virtual clock.
    let elapsed = sim.clock().elapsed_since(t0);
    assert!(
        elapsed >= Duration::from_millis(10),
        "kills fired but no retry backoff was charged (elapsed {elapsed:?})"
    );
}

#[test]
fn striped_concurrent_workload_survives_kills_delays_and_corruption() {
    let seed = announce("striped_concurrent_workload_survives_kills_delays_and_corruption");
    let sim = SimTss::builder().servers(3).build();
    // Each stripe server misbehaves differently: server 0 kills and
    // delays, server 1 corrupts replies, server 2 is honest.
    let plan_for = |i: usize| match i {
        0 => FaultPlan::new(seed)
            .with_rule(
                FaultRule::new(FaultTrigger::EveryNthRpc(7), FaultAction::KillMidFrame)
                    .max_fires(6),
            )
            .with_rule(
                FaultRule::new(
                    FaultTrigger::Probability(0.05),
                    FaultAction::Delay(Duration::from_millis(3)),
                )
                .max_fires(20),
            ),
        1 => FaultPlan::new(seed ^ 1).with_rule(
            FaultRule::new(FaultTrigger::EveryNthRpc(9), FaultAction::CorruptReply).max_fires(3),
        ),
        _ => FaultPlan::new(seed ^ 2),
    };
    let injectors: Vec<Arc<FaultDialer>> = (0..3).map(|i| faults(&sim, plan_for(i))).collect();
    let routed = injectors
        .iter()
        .enumerate()
        .fold(RouteDialer::new(sim.dialer()), |r, (i, f)| {
            r.route(&sim.endpoint(i), f.dialer())
        })
        .dialer();
    let pool = (0..3).map(|i| sim.data_server(i, "/vol")).collect();
    let (_meta_dir, meta) = meta_tree();
    let fs = StripedFs::new(meta, pool, 3, 4096, options_via(&sim, routed)).unwrap();

    for f in &injectors {
        f.set_armed(false);
    }
    fs.ensure_volumes().unwrap();
    for f in &injectors {
        f.set_armed(true);
    }

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let fs = &fs;
            scope.spawn(move || {
                let path = format!("/w{t}");
                let data = pattern(8 * 4096 + 257 * t, t);
                fs.write_file(&path, &data).unwrap();
                assert_eq!(fs.read_file(&path).unwrap(), data, "thread {t}");
            });
        }
    });

    assert!(injectors[0].stats().kills > 0, "kill plan never fired");
    let budget = u64::from(sim_retry().max_retries);
    let stats = fs.pool_stats();
    assert!(stats.retries <= budget * 64, "unbounded retries: {stats:?}");
}

#[test]
fn corrupted_replies_are_retried_not_trusted() {
    let seed = announce("corrupted_replies_are_retried_not_trusted");
    let sim = SimTss::builder().build();
    let plan = FaultPlan::new(seed).with_rule(
        FaultRule::new(FaultTrigger::EveryNthRpc(5), FaultAction::CorruptReply).max_fires(3),
    );
    let corrupter = faults(&sim, plan);
    let fs = cfs_via(&sim, &corrupter);

    let data = pattern(10_000, 9);
    fs.write_file("/blob", &data).unwrap();
    // A damaged status line must read as a transport failure, so the
    // client reconnects and retries rather than misparsing a verdict.
    for _ in 0..10 {
        assert_eq!(fs.read_file("/blob").unwrap(), data);
    }
    assert!(
        corrupter.stats().corruptions > 0,
        "corrupt plan never fired"
    );
    assert!(fs.retries() > 0, "corruption should force a retry");
    assert!(fs.retries() <= 3 * u64::from(sim_retry().max_retries));
}

#[test]
fn exclusive_create_survives_a_kill_at_any_rpc_of_its_open() {
    let seed = announce("exclusive_create_survives_a_kill_at_any_rpc_of_its_open");
    let sim = SimTss::builder().build();
    // An open is a handshake and an OPEN, whose reply carries the
    // attributes the handle's identity comes from; the first PWRITE
    // follows. A kill at RPC 1 or 2 lands inside the open, and the
    // replay must succeed; a kill at RPC 3 lands after the OPEN did,
    // so the handle re-opens, and asking for an exclusive create again
    // there would be refused by the file it just made. Later RPC
    // numbers are never reached while the handle is open.
    let mut kills = 0;
    for n in 1..=6 {
        let killer = faults(
            &sim,
            FaultPlan::new(seed).rule(FaultTrigger::NthRpc(n), FaultAction::KillMidFrame),
        );
        let fs = cfs_via(&sim, &killer);
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
        let mut h = fs
            .open(&format!("/x{n}"), flags, 0o644)
            .unwrap_or_else(|e| panic!("kill at RPC {n} of the open: {e}"));
        h.pwrite(b"mine", 0).unwrap();
        let landed = killer.stats().kills;
        assert_eq!(landed, u64::from(n <= 3), "kill at RPC {n}");
        kills += landed;
    }
    assert_eq!(kills, 3, "one kill at each of RPCs 1-3 ({kills})");
}

#[test]
fn part_create_survives_a_lost_reply_with_no_stray_part() {
    let seed = announce("part_create_survives_a_lost_reply_with_no_stray_part");
    // Part creates are exclusive. When the reply to one is lost after
    // the request landed, the replay is refused by the part it just
    // made; the create must take that part as its own — not fail, and
    // not leave it behind beside a second one.
    let mut cuts = 0;
    // (The fault-free set-up takes the dialer's first RPCs.)
    for n in 1..=8 {
        let sim = SimTss::builder().build();
        let cutter = faults(
            &sim,
            FaultPlan::new(seed).rule(FaultTrigger::NthRpc(n), FaultAction::TruncateReply),
        );
        let (_meta_dir, meta) = meta_tree();
        let pool = vec![sim.data_server(0, "/vol")];
        let options = options_via(&sim, cutter.dialer());
        let fs = StubFs::new(meta, pool, Placement::round_robin(), options);
        cutter.set_armed(false);
        fs.ensure_volumes().unwrap();
        cutter.set_armed(true);
        fs.write_file("/f", b"mine")
            .unwrap_or_else(|e| panic!("reply to RPC {n} lost: {e}"));
        assert_eq!(fs.read_file("/f").unwrap(), b"mine");
        assert_eq!(
            data_count(&sim.root(0).join("vol")),
            1,
            "RPC {n}: stray part"
        );
        let report = fsck(&fs).unwrap();
        assert!(report.is_clean(), "RPC {n}: {report:?}");
        cuts += cutter.stats().truncates;
    }
    assert!(cuts >= 3, "the cuts never landed inside a create ({cuts})");
}

#[test]
fn blackholed_request_times_out_then_recovers() {
    let seed = announce("blackholed_request_times_out_then_recovers");
    let sim = SimTss::builder().build();
    let plan = FaultPlan::new(seed).with_rule(
        FaultRule::new(FaultTrigger::EveryNthRpc(6), FaultAction::BlackHole).max_fires(1),
    );
    let hole = faults(&sim, plan);
    // The timeout turns the black hole into a Timeout, charged to the
    // virtual clock.
    let timeout = Duration::from_millis(250);
    let mut cfg = sim.cfs_config(0).with_dialer(hole.dialer());
    cfg.timeout = timeout;
    let fs = Cfs::new(cfg);
    let t0 = sim.clock().now();

    let data = pattern(2_000, 5);
    fs.write_file("/t", &data).unwrap();
    for _ in 0..8 {
        assert_eq!(fs.read_file("/t").unwrap(), data);
    }
    assert_eq!(hole.stats().blackholes, 1, "black hole never fired");
    assert!(fs.retries() >= 1, "the timed-out RPC should be retried");
    assert!(
        sim.clock().elapsed_since(t0) >= timeout,
        "the mute server's timeout was not waited out"
    );
}

#[test]
fn acl_denial_fails_immediately_with_zero_retries() {
    // Read/list grant only: a write draws a protocol verdict, which is
    // fatal — unlike a fault, retrying it cannot help.
    let sim = SimTss::builder()
        .root_acl(Acl::single("hostname:*", "rl").unwrap())
        .build();
    let fs = Cfs::new(sim.cfs_config(0));
    let t0 = sim.clock().now();
    let err = fs
        .write_file("/nope", b"data")
        .expect_err("write must be denied");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    assert_eq!(fs.retries(), 0, "fatal verdicts must not be retried");
    assert_eq!(
        sim.clock().elapsed_since(t0),
        Duration::ZERO,
        "a denial must surface without backoff"
    );
}

#[test]
fn fault_schedule_is_deterministic_for_a_fixed_seed() {
    let seed = announce("fault_schedule_is_deterministic_for_a_fixed_seed");
    // Two instances with the same seed over the same sequential RPC
    // stream must fail the same operations and fire the same faults.
    let run = |seed: u64| {
        let sim = SimTss::builder().build();
        let killer = faults(
            &sim,
            FaultPlan::new(seed).rule(FaultTrigger::Probability(0.25), FaultAction::KillMidFrame),
        );
        // No retry: every injected fault surfaces, so the outcome
        // vector mirrors the fault schedule exactly. A killed
        // handshake fails its operation too, and the next one redials.
        let mut cfg = sim.cfs_config(0).with_dialer(killer.dialer());
        cfg.retry = RetryPolicy::none();
        let fs = Cfs::new(cfg);
        let outcomes: Vec<bool> = (0..24)
            .map(|i| fs.write_file(&format!("/f{i}"), b"x").is_ok())
            .collect();
        (outcomes, killer.fires(), killer.stats())
    };
    let a = run(seed);
    let b = run(seed);
    assert_eq!(
        a, b,
        "fault schedule depended on something besides the seed"
    );
    assert!(a.1 > 0, "a 25% kill rate over 24 ops should fire");
}

#[test]
fn injected_fault_counts_line_up_with_retry_telemetry() {
    let seed = announce("injected_fault_counts_line_up_with_retry_telemetry");
    let sim = SimTss::builder().build();
    // Every seventh RPC is killed, plus the third. Seven is longer
    // than a recovery cycle (AUTH, OPEN, the retried RPC), so a
    // retried operation always completes before the next fault: each
    // kill severs exactly one stream and is answered by exactly one
    // retry.
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule::new(FaultTrigger::NthRpc(3), FaultAction::KillMidFrame).max_fires(1))
        .rule(FaultTrigger::EveryNthRpc(7), FaultAction::KillMidFrame);
    let killer = faults(&sim, plan);
    let fs = cfs_via(&sim, &killer);

    let data = pattern(16 * 1024, 11);
    fs.write_file("/chaos-ledger", &data).unwrap();
    for i in 0..30 {
        assert_eq!(
            fs.read_file("/chaos-ledger").unwrap(),
            data,
            "read {i} must be masked"
        );
    }
    // With read-ahead off (the default) every pread is synchronous.
    assert_eq!(pread_all(&fs, "/chaos-ledger", data.len(), 1024), data);

    let fires = killer.fires();
    let snap = fs.telemetry().snapshot();
    eprintln!(
        "fault/retry ledger: fires={fires} kills={} rpcs={} | client.retries={:?} \
         client.reconnects={:?} client.connects={:?}",
        killer.stats().kills,
        killer.stats().rpcs,
        snap.counter("client.retries"),
        snap.counter("client.reconnects"),
        snap.counter("client.connects"),
    );
    assert!(fires >= 2, "the kill rules should have fired");
    assert_eq!(fires, killer.stats().kills, "every firing was a kill");
    // The contract under test: N injected transport faults show up as
    // exactly N recovery retries, in the retry loop and in telemetry,
    // and each one costs exactly one reconnect.
    assert_eq!(fs.retries(), fires, "one retry per injected kill");
    assert_eq!(snap.counter("client.retries"), Some(fires));
    assert_eq!(snap.counter("client.reconnects"), Some(fires));
    assert_eq!(snap.counter("client.connects"), Some(fires + 1));
}

// ---- Pipelined streams ----

/// Three pipelined requests are in flight on one stream when the
/// transport dies mid-frame. `PipelinedConn` must classify every one:
/// a reply read before the fault is *settled* (kept, never replayed),
/// while everything still queued behind the fault comes back
/// `Disconnected` (retriable), so the caller can reconnect and replay
/// exactly the unsettled tail at its recorded offsets.
#[test]
fn kill_mid_frame_with_three_in_flight_keeps_settled_replies() {
    let seed = announce("kill_mid_frame_with_three_in_flight_keeps_settled_replies");
    let sim = SimTss::builder().build();
    // Through this dialer: AUTH is RPC 1, OPEN is RPC 2, then the
    // three pipelined PWRITEs are RPCs 3..=5. The kill lands on the
    // third one's request frame.
    let killer = faults(
        &sim,
        FaultPlan::new(seed).rule(FaultTrigger::NthRpc(5), FaultAction::KillMidFrame),
    );

    let mut conn = sim.connect_via(&killer.dialer(), 0);
    let (fd, _) = conn
        .open(
            "/inflight",
            OpenFlags::read_write() | OpenFlags::CREATE,
            0o644,
        )
        .unwrap();

    let chunk = |byte: u8| vec![byte; 8];
    let (first, rest) = conn
        .pipeline(3, |pipe| {
            // Request A settles before the fault: send, flush, read
            // its reply while B and C are not on the wire yet, so the
            // client buffer cannot hold any later reply.
            pipe.send(
                &Request::Pwrite {
                    fd,
                    length: 8,
                    offset: 0,
                },
                Some(&chunk(b'A')),
                ReplyShape::Status,
            )?;
            pipe.flush()?;
            let first = pipe.recv();
            pipe.send(
                &Request::Pwrite {
                    fd,
                    length: 8,
                    offset: 8,
                },
                Some(&chunk(b'B')),
                ReplyShape::Status,
            )?;
            pipe.send(
                &Request::Pwrite {
                    fd,
                    length: 8,
                    offset: 16,
                },
                Some(&chunk(b'C')),
                ReplyShape::Status,
            )?;
            Ok((first, pipe.settle_all()))
        })
        .unwrap();

    // The settled reply is kept: a real verdict, not an error.
    assert_eq!(first.unwrap().status().value, 8);
    // Both requests queued at the kill classify as retriable
    // transport loss — never as a later request's verdict.
    assert_eq!(rest.len(), 2);
    for verdict in &rest {
        assert_eq!(
            *verdict.as_ref().unwrap_err(),
            chirp_proto::ChirpError::Disconnected
        );
    }
    assert_eq!(killer.fires(), 1);
    assert!(
        conn.is_broken(),
        "a dead pipeline must poison the connection"
    );

    // Recovery: reconnect through the same fault layer, re-open the
    // descriptor, and replay ONLY the unsettled requests at their
    // recorded offsets (positional writes make the replay idempotent
    // even if the server applied B before the stream died).
    let mut conn = sim.connect_via(&killer.dialer(), 0);
    let (fd, _) = conn.open("/inflight", OpenFlags::read_write(), 0).unwrap();
    assert_eq!(conn.pwrite(fd, &chunk(b'B'), 8).unwrap(), 8);
    assert_eq!(conn.pwrite(fd, &chunk(b'C'), 16).unwrap(), 8);

    let mut want = chunk(b'A');
    want.extend(chunk(b'B'));
    want.extend(chunk(b'C'));
    assert_eq!(conn.getfile("/inflight").unwrap(), want);
    assert_eq!(
        killer.fires(),
        1,
        "recovery traffic must not trip the one-shot plan again"
    );
}

/// The same scenario one layer up: a `Cfs` reader whose `PREAD`s are
/// killed mid-frame must be absorbed by fd re-open + positional
/// replay — the reader sees every byte exactly once, at the right
/// offset.
#[test]
fn killed_pread_stream_replays_reads_at_the_right_offset() {
    let seed = announce("killed_pread_stream_replays_reads_at_the_right_offset");
    let sim = SimTss::builder().build();
    let killer = faults(
        &sim,
        FaultPlan::new(seed).rule(FaultTrigger::EveryNthRpc(6), FaultAction::KillMidFrame),
    );

    // Fixture written through a clean connection; the fault plan only
    // ever sees the reader's traffic.
    let data = pattern(64 * 1024, 9);
    sim.connect(0).putfile("/chaos", 0o644, &data).unwrap();

    let cfs = Cfs::new(sim.cfs_config(0).with_dialer(killer.dialer()));
    assert_eq!(
        pread_all(&cfs, "/chaos", data.len(), 1024),
        data,
        "replayed reads returned wrong bytes"
    );
    assert!(killer.fires() > 0, "plan never fired — scenario is vacuous");
}

// ---- Severed connections, stale handles and the retry cap ----

#[test]
fn pathless_ops_reconnect_transparently() {
    let seed = announce("pathless_ops_reconnect_transparently");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let fs = cfs_via(&sim, &net);
    fs.write_file("/f", b"v1").unwrap();
    net.set_armed(true);
    // The next operation sees a dead connection, reconnects, and
    // succeeds without the caller noticing.
    assert_eq!(fs.read_file("/f").unwrap(), b"v1");
    assert_eq!(net.fires(), 1);
    assert_eq!(fs.retries(), 1);
}

#[test]
fn open_handles_survive_reconnection_when_inode_is_unchanged() {
    let seed = announce("open_handles_survive_reconnection_when_inode_is_unchanged");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let fs = cfs_via(&sim, &net);
    fs.write_file("/f", b"0123456789").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    let mut buf = [0u8; 5];
    assert_eq!(h.pread(&mut buf, 0).unwrap(), 5);

    net.set_armed(true);

    // The server closed our descriptor when the connection dropped;
    // the adapter reconnects, re-opens, verifies the inode, and hides
    // the change in the underlying file descriptor.
    assert_eq!(h.pread(&mut buf, 5).unwrap(), 5);
    assert_eq!(&buf, b"56789");
    assert_eq!(net.fires(), 1);
}

#[test]
fn replaced_file_becomes_a_stale_handle() {
    let seed = announce("replaced_file_becomes_a_stale_handle");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let fs = cfs_via(&sim, &net);
    fs.write_file("/f", b"original").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    let mut buf = [0u8; 8];
    h.pread(&mut buf, 0).unwrap();

    // Replace the file across a sever: same name, different inode.
    // (Renaming the original aside, rather than unlinking it, keeps
    // its inode allocated so the replacement is guaranteed a different
    // one.)
    net.set_armed(true);
    fs.rename("/f", "/f-old").unwrap();
    fs.write_file("/f", b"replaced").unwrap();
    assert_eq!(net.fires(), 1);

    let err = h.pread(&mut buf, 0).expect_err("stale handle");
    // "the client receives a 'stale file handle' error as in NFS."
    assert!(err.to_string().contains("stale"), "got: {err}");
}

#[test]
fn deleted_file_becomes_a_stale_handle() {
    let seed = announce("deleted_file_becomes_a_stale_handle");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let fs = cfs_via(&sim, &net);
    fs.write_file("/f", b"original").unwrap();
    let mut h = fs.open("/f", OpenFlags::READ, 0).unwrap();
    net.set_armed(true);
    fs.unlink("/f").unwrap();
    assert_eq!(net.fires(), 1);
    let mut buf = [0u8; 4];
    assert!(h.pread(&mut buf, 0).is_err());
}

#[test]
fn retry_cap_limits_recovery_attempts() {
    let seed = announce("retry_cap_limits_recovery_attempts");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let policy = RetryPolicy {
        max_retries: 2,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let mut cfg = sim.cfs_config(0).with_dialer(net.dialer());
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = policy;
    let fs = Cfs::new(cfg);
    fs.write_file("/f", b"x").unwrap();
    // Sever and refuse further connections: retries must give up.
    net.set_armed(true);
    sim.net().unbind(sim.servers()[0].addr());
    let t0 = sim.clock().now();
    assert!(fs.read_file("/f").is_err());
    // Exactly the cap, each retry waiting out its backoff and one
    // refused connect, and nothing more.
    assert_eq!(fs.retries(), u64::from(policy.max_retries));
    let backoff: Duration = policy.schedule().iter().sum();
    assert_eq!(
        sim.clock().elapsed_since(t0),
        backoff + REFUSED_CONNECT * policy.max_retries,
        "bounded retries must fail promptly"
    );
}

#[test]
fn no_retry_policy_fails_on_first_break() {
    let seed = announce("no_retry_policy_fails_on_first_break");
    let sim = SimTss::builder().build();
    let net = severer(&sim, seed);
    let mut cfg = sim.cfs_config(0).with_dialer(net.dialer());
    cfg.retry = RetryPolicy::none();
    let fs = Cfs::new(cfg);
    fs.write_file("/f", b"x").unwrap();
    net.set_armed(true);
    assert!(fs.read_file("/f").is_err());
    // But a fresh operation after the failure reconnects lazily.
    assert_eq!(fs.read_file("/f").unwrap(), b"x");
    assert_eq!(fs.retries(), 0);
}

// ---- Server restarts ----

#[test]
fn server_restart_does_not_hand_out_stale_pool_sockets() {
    // Regression: a pooled connection that sat idle across a server
    // restart leads to a dead peer. With `max_idle` elapsed the entry
    // is evicted at checkout and a fresh connection is dialed — even
    // under a no-retry policy that would otherwise surface the stale
    // socket as an immediate error.
    let mut sim = SimTss::builder().build();
    let endpoint = sim.endpoint(0);
    let options = StubFsOptions {
        retry: RetryPolicy::none(),
        max_idle: Duration::from_millis(40),
        ..sim.stubfs_options()
    };
    let pool = ServerPool::new(vec![sim.data_server(0, "/vol")], options);
    pool.with_conn(&endpoint, |cfs| cfs.write_file("/f", b"v1"))
        .unwrap();
    assert_eq!(pool.idle_count(&endpoint), 1);

    // Restart the server: the cached socket's peer is gone.
    sim.restart(0);
    sim.clock().sleep(Duration::from_millis(60));

    assert_eq!(
        pool.with_conn(&endpoint, |cfs| cfs.read_file("/f"))
            .unwrap(),
        b"v1"
    );
    let stats = pool.stats();
    assert_eq!(stats.evictions, 1, "aged entry evicted, not handed out");
    assert_eq!(stats.misses, 2, "second checkout dialed fresh");
}

#[test]
fn recovery_reaches_a_restarted_server() {
    // The failure mode the paper's grid users actually hit: the
    // server process is restarted and the client's retries land on
    // the new instance.
    let mut sim = SimTss::builder().build();
    let fs = Cfs::new(sim.cfs_config(0));
    fs.write_file("/f", b"before").unwrap();

    sim.restart(0);

    assert_eq!(fs.read_file("/f").unwrap(), b"before");
    fs.write_file("/g", b"after").unwrap();
    assert_eq!(fs.read_file("/g").unwrap(), b"after");
    assert_eq!(fs.retries(), 1, "one retry crossed the restart");
}

/// The pool `discover_pool` builds from `sim`'s catalog right now.
fn discover(sim: &SimTss) -> Vec<DataServer> {
    discover_pool(
        &sim.dialer(),
        &sim.catalog_endpoint(),
        SIM_TIMEOUT,
        &PoolPolicy::default(),
        "/vol",
        auth(),
    )
    .unwrap()
}

/// The endpoints of [`discover`]'s pool, sorted.
fn discovered(sim: &SimTss) -> Vec<String> {
    let mut endpoints: Vec<String> = discover(sim).into_iter().map(|d| d.endpoint).collect();
    endpoints.sort();
    endpoints
}

/// The endpoints of servers `ids` of `sim`, sorted and unique.
fn endpoints(sim: &SimTss, ids: impl IntoIterator<Item = usize>) -> Vec<String> {
    let mut endpoints: Vec<String> = ids.into_iter().map(|i| sim.endpoint(i)).collect();
    endpoints.sort();
    endpoints.dedup();
    endpoints
}

#[test]
fn a_silent_server_leaves_discovery_exactly_at_expiry() {
    let expiry = Duration::from_secs(30);
    let mut sim = SimTss::builder().servers(2).catalog(expiry).build();
    assert_eq!(sim.report(&mut ReportLoss::none()), vec![0, 1]);
    let silent_since = sim.clock().now();
    sim.kill(1);
    sim.clock().sleep(expiry / 2);
    assert_eq!(
        sim.report(&mut ReportLoss::none()),
        vec![0],
        "a dead server sends nothing"
    );

    let left = expiry - sim.clock().elapsed_since(silent_since);
    sim.clock().sleep(left - Duration::from_nanos(1));
    assert_eq!(
        discovered(&sim),
        endpoints(&sim, [0, 1]),
        "one tick before expiry"
    );
    sim.clock().sleep(Duration::from_nanos(1));
    assert_eq!(
        discovered(&sim),
        endpoints(&sim, [0]),
        "gone exactly at expiry"
    );
}

#[test]
fn discovery_under_report_loss_lists_exactly_the_servers_heard_within_expiry() {
    const SERVERS: usize = 4;
    const ROUNDS: usize = 8;
    const SEEDS: u64 = 50;
    let period = Duration::from_secs(60);
    let expiry = 3 * period;
    let base = announce("discovery_under_report_loss");
    let sim = SimTss::builder().servers(SERVERS).catalog(expiry).build();
    let mut short_listings = 0;
    for seed in base..base + SEEDS {
        let mut loss = ReportLoss::new(seed, 0.3);
        // Every report of the previous seed has expired.
        sim.clock().sleep(expiry);
        assert!(discovered(&sim).is_empty(), "seed {seed}: stale listing");
        let mut heard: Vec<Vec<usize>> = Vec::new();
        for round in 0..ROUNDS {
            if round > 0 {
                sim.clock().sleep(period);
            }
            heard.push(sim.report(&mut loss));
            // A report is live for `expiry` = three periods: the one
            // delivered this round and those of the two rounds before.
            let window = &heard[heard.len().saturating_sub(3)..];
            let want = endpoints(&sim, window.iter().flatten().copied());
            short_listings += usize::from(want.len() < SERVERS);
            assert_eq!(discovered(&sim), want, "seed {seed}, round {round}");
        }
    }
    assert!(short_listings > 0, "the plan never silenced a server");
}

#[test]
fn a_dsfs_built_from_discovery_survives_a_dead_data_server() {
    let mut sim = SimTss::builder()
        .servers(4)
        .catalog(Duration::from_secs(300))
        .build();
    sim.report(&mut ReportLoss::none());
    // The catalog is the only source of addresses: the first
    // discovered server holds the tree, the other three hold data.
    let pool = discover(&sim);
    assert_eq!(pool.len(), 4);
    let fs = Dsfs::format_with_options(
        &pool[0].endpoint,
        "/tree",
        auth(),
        pool[1..].to_vec(),
        Placement::round_robin(),
        sim.stubfs_options(),
    )
    .unwrap();
    fs.mkdir("/d", 0o755).unwrap();
    let names: Vec<String> = (0..6).map(|i| format!("f{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        fs.write_file(&format!("/d/{name}"), &pattern(1000 + i, i))
            .unwrap();
    }
    let home = |name: &str| -> String {
        let stub = fs.stubfs().meta().read_file(&format!("/d/{name}")).unwrap();
        StubRecord::decode(&stub).unwrap().parts[0].0.clone()
    };
    let dead = home(&names[0]);
    let victim = (0..4).find(|&i| sim.endpoint(i) == dead).unwrap();
    sim.kill(victim);

    let mut listed = fs.readdir("/d").unwrap();
    listed.sort();
    assert_eq!(listed, names, "the tree stays navigable");
    let mut served = 0;
    for (i, name) in names.iter().enumerate() {
        match fs.read_file(&format!("/d/{name}")) {
            Ok(bytes) => {
                assert_ne!(home(name), dead, "{name} read from a dead server");
                assert_eq!(bytes, pattern(1000 + i, i), "{name}");
                served += 1;
            }
            Err(e) => {
                assert_eq!(home(name), dead, "{name} on a live server failed: {e}");
                assert!(is_transport_error(&e), "{name}: {e}");
            }
        }
    }
    assert_eq!(served, 4, "two files of each of the two live data servers");
}
