//! Chaos under simulation: the mirrored-read failover scenario from
//! `crates/core/tests/chaos.rs` (`kill_mid_rpc_on_one_mirror_replica_
//! is_masked`), reproduced with no TCP sockets and no sleeps — the
//! same `FaultDialer` wraps the in-memory network's dialer instead of
//! TCP, retry backoff is charged to a virtual clock, and the whole
//! scenario is a deterministic function of the seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_proto::{OpenFlags, ReplyShape, Request};
use faultline::{FaultAction, FaultDialer, FaultPlan, FaultTrigger, RouteDialer};
use simharness::harness::{auth, SimTss};
use tss_core::fs::FileSystem;
use tss_core::localfs::LocalFs;
use tss_core::mirrored::MirroredFs;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn kill_mid_rpc_on_one_mirror_replica_is_masked_in_memory() {
    let seed = 0xC4A05_u64;
    let sim = SimTss::builder().servers(2).build();

    // Replica 0's connections pass through a fault layer that kills
    // every second RPC mid-frame; replica 1 is reached directly —
    // the routing `chaos.rs` uses over TCP.
    let killer = FaultDialer::new(
        sim.dialer(),
        sim.clock().clone(),
        FaultPlan::new(seed).rule(FaultTrigger::EveryNthRpc(2), FaultAction::KillMidFrame),
    );
    let routed = RouteDialer::new(sim.dialer())
        .route(&sim.endpoint(0), killer.dialer())
        .dialer();

    let mut options = sim.stubfs_options();
    options.dialer = routed;

    let pool = vec![sim.data_server(0, "/vol"), sim.data_server(1, "/vol")];
    let meta_dir = chirp_proto::testutil::TempDir::new();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = MirroredFs::new(meta, pool, 2, options).unwrap();

    // Fixture written fault-free.
    killer.set_armed(false);
    fs.ensure_volumes().unwrap();
    let data = pattern(64 * 1024, 3);
    fs.write_file("/precious", &data).unwrap();
    killer.set_armed(true);

    let wall = Instant::now();
    let virtual_start = sim.clock().now();

    // Kill-mid-pread: the read either recovers within the retry
    // budget or fails over to the clean replica; the caller sees only
    // correct data.
    let mut h = fs.open("/precious", OpenFlags::READ, 0).unwrap();
    let mut out = vec![0u8; data.len()];
    let mut off = 0usize;
    while off < out.len() {
        let n = h.pread(&mut out[off..], off as u64).unwrap();
        assert!(n > 0, "pread returned 0 before EOF");
        off += n;
    }
    assert_eq!(out, data);
    drop(h);
    assert_eq!(fs.read_file("/precious").unwrap(), data);

    assert!(killer.fires() > 0, "kill plan never fired");

    // The recovery timing ran on simulated time: retry backoffs
    // advanced the virtual clock, while wall-clock stayed in
    // interactive range (no sleep-based synchronization anywhere).
    let virtual_elapsed = sim.clock().elapsed_since(virtual_start);
    assert!(
        virtual_elapsed >= Duration::from_millis(10),
        "kills fired but no retry backoff was charged to the virtual \
         clock (elapsed {virtual_elapsed:?})"
    );
    assert!(
        wall.elapsed() < Duration::from_secs(10),
        "scenario leaned on real time: {:?}",
        wall.elapsed()
    );
}

#[test]
fn same_seed_same_fault_schedule() {
    // The fault decision stream is a function of the seed alone: two
    // instances of the scenario fire the same number of kills at the
    // same RPC indices.
    let run = |seed: u64| {
        let sim = SimTss::builder().servers(1).build();
        let killer = FaultDialer::new(
            sim.dialer(),
            sim.clock().clone(),
            FaultPlan::new(seed).rule(FaultTrigger::Probability(0.3), FaultAction::KillMidFrame),
        );
        // Dial through the fault layer; the AUTH RPC itself can be
        // killed, so connecting is itself a retry loop. Every attempt
        // consumes fault decisions deterministically.
        let dialer = killer.dialer();
        let connect = || loop {
            if let Ok(mut c) = chirp_client::Connection::connect_via(
                &dialer,
                &sim.endpoint(0),
                Duration::from_secs(5),
            ) {
                if c.authenticate(&auth()).is_ok() {
                    return c;
                }
            }
        };
        let mut conn = connect();
        let mut outcomes = Vec::new();
        for _ in 0..40 {
            let r = conn.stat("/");
            outcomes.push(r.is_ok());
            if r.is_err() {
                // The stream died; redial through the same fault
                // layer (connection counters advance
                // deterministically too).
                conn = connect();
            }
        }
        (outcomes, killer.fires())
    };
    let (a, fires_a) = run(7);
    let (b, fires_b) = run(7);
    assert_eq!(
        a, b,
        "fault schedule depended on something besides the seed"
    );
    assert_eq!(fires_a, fires_b);
    assert!(fires_a > 0, "probability rule never fired in 40 RPCs");
}

/// The ISSUE-5 regression scenario at the protocol layer: three
/// pipelined requests in flight on one stream when the transport dies
/// mid-frame. The contract under test is the total classification
/// from `PipelinedConn`: a reply read before the fault is *settled*
/// (kept, never replayed), while everything still queued behind the
/// fault comes back `Disconnected` (retriable), so the caller can
/// reconnect and replay exactly the unsettled tail at its recorded
/// offsets.
#[test]
fn kill_mid_frame_with_three_in_flight_keeps_settled_replies() {
    let sim = SimTss::builder().build();

    // Through this dialer: AUTH is RPC 1, OPEN is RPC 2, then the
    // three pipelined PWRITEs are RPCs 3..=5. The kill lands on the
    // third one's request frame.
    let killer = FaultDialer::new(
        sim.dialer(),
        sim.clock().clone(),
        FaultPlan::new(0x1F11_u64).rule(FaultTrigger::NthRpc(5), FaultAction::KillMidFrame),
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

/// The same scenario one layer up: `Cfs` with read-ahead enabled runs
/// deferred-settle prefetches over the pipelined stream, and kills
/// landing on those frames (or on synchronous refills) must be
/// absorbed by fd re-open + positional replay — the reader sees every
/// byte exactly once, at the right offset.
#[test]
fn killed_prefetch_stream_replays_reads_at_the_right_offset() {
    let sim = SimTss::builder().build();
    let killer = FaultDialer::new(
        sim.dialer(),
        sim.clock().clone(),
        FaultPlan::new(0xF00D_u64).rule(FaultTrigger::EveryNthRpc(6), FaultAction::KillMidFrame),
    );

    // Fixture written through a clean connection; the fault plan only
    // ever sees the reader's traffic.
    let data = pattern(64 * 1024, 9);
    let mut setup = sim.connect(0);
    setup.putfile("/chaos", 0o644, &data).unwrap();
    drop(setup);

    let cfs = tss_core::cfs::Cfs::new(
        sim.cfs_config(0)
            .with_dialer(killer.dialer())
            .with_readahead(4096)
            .with_pipeline_depth(8),
    );
    let mut h = cfs.open("/chaos", OpenFlags::READ, 0).unwrap();
    let mut got = vec![0u8; data.len()];
    let mut off = 0usize;
    while off < got.len() {
        let end = (off + 1024).min(got.len());
        let n = h.pread(&mut got[off..end], off as u64).unwrap();
        assert!(n > 0, "short-circuited at offset {off}");
        off += n;
    }
    assert_eq!(got, data, "replayed reads returned wrong bytes");
    assert!(killer.fires() > 0, "plan never fired — scenario is vacuous");
    assert!(
        cfs.telemetry().counter("client.readahead.prefetches").get() > 0,
        "pipelined prefetch path was never exercised"
    );
}

/// Accounting half of the ISSUE-5 regression: with read-ahead off,
/// every RPC is synchronous, so each injected kill severs exactly one
/// stream and surfaces as exactly one counted retry. The period (7)
/// is deliberately longer than the 3-RPC recovery cycle
/// (AUTH/OPEN/retried PREAD) so a retried operation always
/// completes before the next fault — no resonance, strict 1:1.
#[test]
fn retry_counters_equal_injected_fault_count() {
    let sim = SimTss::builder().build();
    let killer = FaultDialer::new(
        sim.dialer(),
        sim.clock().clone(),
        FaultPlan::new(0xBEEF_u64).rule(FaultTrigger::EveryNthRpc(7), FaultAction::KillMidFrame),
    );

    let data = pattern(20 * 1024, 5);
    let mut setup = sim.connect(0);
    setup.putfile("/sync", 0o644, &data).unwrap();
    drop(setup);

    let cfs = tss_core::cfs::Cfs::new(
        sim.cfs_config(0)
            .with_dialer(killer.dialer())
            .with_readahead(0),
    );
    let mut h = cfs.open("/sync", OpenFlags::READ, 0).unwrap();
    let mut got = vec![0u8; data.len()];
    let mut off = 0usize;
    while off < got.len() {
        let end = (off + 1024).min(got.len());
        let n = h.pread(&mut got[off..end], off as u64).unwrap();
        assert!(n > 0);
        off += n;
    }
    assert_eq!(got, data);

    let fires = killer.fires();
    assert!(fires > 0, "plan never fired — equality would be vacuous");
    assert_eq!(
        cfs.retries(),
        fires,
        "each injected kill must surface as exactly one retry"
    );
    assert_eq!(
        cfs.telemetry().counter("client.retries").get(),
        fires,
        "telemetry retry counter disagrees with the retry loop"
    );
}
