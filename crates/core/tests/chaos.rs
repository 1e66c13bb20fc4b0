//! Chaos suite: end-to-end workloads driven through the deterministic
//! fault-injecting proxy (`faultline`), proving the recovery layer's
//! contract — transient transport faults (kills mid-RPC, delays,
//! corrupted and black-holed replies) are masked within the retry
//! budget with data intact, while protocol verdicts such as ACL
//! denials surface immediately and are never retried.
//!
//! Determinism: every fault decision comes from the plan seed, taken
//! from `CHAOS_SEED` when set (default below). Each test announces its
//! seed on stderr, which the test harness shows on failure, so a
//! failing run always names the seed that reproduces it. Sequential
//! single-connection tests are exactly reproducible; concurrent ones
//! assert outcomes (data integrity, bounded retries), not fault
//! placement.

mod common;

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use common::{auth, data_count, open_server};
use faultline::{FaultAction, FaultPlan, FaultProxy, FaultRule, FaultTrigger};
use tss_core::cfs::{Cfs, CfsConfig};
use tss_core::fs::FileSystem;
use tss_core::fsck::fsck;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{LocalFs, MirroredFs, Placement, RetryPolicy, StripedFs, StubFs};

/// Default plan seed, overridable with `CHAOS_SEED=<u64>`.
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Announce the seed on stderr; the harness prints captured output on
/// failure, so a failing chaos test always names its seed.
fn announce(test: &str) -> u64 {
    let seed = seed();
    eprintln!("{test}: CHAOS_SEED={seed}");
    seed
}

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131) ^ (salt * 7)) as u8).collect()
}

/// Retry policy for chaos runs: fast backoff, a real budget.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 5,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
        ..RetryPolicy::default()
    }
}

fn chaos_options() -> StubFsOptions {
    StubFsOptions {
        timeout: Duration::from_millis(1500),
        retry: chaos_retry(),
        ..StubFsOptions::default()
    }
}

fn chaos_cfs(endpoint: &str) -> Cfs {
    let mut cfg = CfsConfig::new(endpoint, auth());
    cfg.timeout = Duration::from_millis(1500);
    cfg.retry = chaos_retry();
    Cfs::new(cfg)
}

#[test]
fn kill_mid_rpc_on_one_mirror_replica_is_masked() {
    let seed = announce("kill_mid_rpc_on_one_mirror_replica_is_masked");
    let meta_dir = TempDir::new();
    let dirs: Vec<TempDir> = (0..2).map(|_| TempDir::new()).collect();
    let servers: Vec<FileServer> = dirs.iter().map(|d| open_server(d.path())).collect();

    // Replica 0 sits behind a proxy that kills every second RPC;
    // replica 1 behind a transparent one.
    let killer = FaultProxy::spawn(
        &servers[0].endpoint(),
        FaultPlan::new(seed).rule(FaultTrigger::EveryNthRpc(2), FaultAction::KillMidFrame),
    )
    .unwrap();
    let clean = FaultProxy::spawn(&servers[1].endpoint(), FaultPlan::new(seed)).unwrap();
    let pool = vec![
        DataServer::new(&killer.addr(), "/vol", auth()),
        DataServer::new(&clean.addr(), "/vol", auth()),
    ];
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = MirroredFs::new(meta, pool, 2, chaos_options()).unwrap();

    // Fixture written fault-free.
    killer.set_armed(false);
    fs.ensure_volumes().unwrap();
    let data = pattern(64 * 1024, 3);
    fs.write_file("/precious", &data).unwrap();
    killer.set_armed(true);

    // Kill-mid-pread: the read either recovers within the retry budget
    // or demotes the broken replica and fails over; the caller sees
    // only correct data.
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

    assert!(killer.stats().kills > 0, "kill plan never fired");
    // Bounded recovery: each operation retries at most the policy
    // budget; the workload above is comfortably under 16 pool-level
    // operations.
    let budget = u64::from(chaos_retry().max_retries);
    let stats = fs.pool_stats();
    assert!(stats.retries <= budget * 16, "unbounded retries: {stats:?}");
}

#[test]
fn striped_concurrent_workload_survives_kills_delays_and_corruption() {
    let seed = announce("striped_concurrent_workload_survives_kills_delays_and_corruption");
    let meta_dir = TempDir::new();
    let dirs: Vec<TempDir> = (0..3).map(|_| TempDir::new()).collect();
    let servers: Vec<FileServer> = dirs.iter().map(|d| open_server(d.path())).collect();

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
    let proxies: Vec<FaultProxy> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| FaultProxy::spawn(&s.endpoint(), plan_for(i)).unwrap())
        .collect();
    let pool: Vec<DataServer> = proxies
        .iter()
        .map(|p| DataServer::new(&p.addr(), "/vol", auth()))
        .collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = StripedFs::new(meta, pool, 3, 4096, chaos_options()).unwrap();

    for p in &proxies {
        p.set_armed(false);
    }
    fs.ensure_volumes().unwrap();
    for p in &proxies {
        p.set_armed(true);
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

    assert!(proxies[0].stats().kills > 0, "kill plan never fired");
    let budget = u64::from(chaos_retry().max_retries);
    let stats = fs.pool_stats();
    assert!(stats.retries <= budget * 64, "unbounded retries: {stats:?}");
}

#[test]
fn corrupted_replies_are_retried_not_trusted() {
    let seed = announce("corrupted_replies_are_retried_not_trusted");
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let plan = FaultPlan::new(seed).with_rule(
        FaultRule::new(FaultTrigger::EveryNthRpc(5), FaultAction::CorruptReply).max_fires(3),
    );
    let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
    let fs = chaos_cfs(&proxy.addr());

    let data = pattern(10_000, 9);
    fs.write_file("/blob", &data).unwrap();
    // A damaged status line must read as a transport failure, so the
    // client reconnects and retries rather than misparsing a verdict.
    for _ in 0..10 {
        assert_eq!(fs.read_file("/blob").unwrap(), data);
    }
    assert!(proxy.stats().corruptions > 0, "corrupt plan never fired");
    assert!(fs.retries() > 0, "corruption should force a retry");
    assert!(fs.retries() <= 3 * u64::from(chaos_retry().max_retries));
}

#[test]
fn exclusive_create_survives_a_kill_at_any_rpc_of_its_open() {
    let seed = announce("exclusive_create_survives_a_kill_at_any_rpc_of_its_open");
    let dir = TempDir::new();
    let server = open_server(dir.path());
    // An open is a handshake, an OPEN and an FSTAT. Wherever in that
    // run the connection dies, the replay must succeed — in particular
    // after the OPEN landed, when asking for an exclusive create again
    // would be refused by the file it just made.
    let mut kills = 0;
    for n in 1..=6 {
        let plan = FaultPlan::new(seed).rule(FaultTrigger::NthRpc(n), FaultAction::KillMidFrame);
        let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
        let fs = chaos_cfs(&proxy.addr());
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
        let mut h = fs
            .open(&format!("/x{n}"), flags, 0o644)
            .unwrap_or_else(|e| panic!("kill at RPC {n} of the open: {e}"));
        h.pwrite(b"mine", 0).unwrap();
        kills += proxy.stats().kills;
    }
    assert!(
        kills >= 3,
        "the kills never landed inside an open ({kills})"
    );
}

#[test]
fn part_create_survives_a_lost_reply_with_no_stray_part() {
    let seed = announce("part_create_survives_a_lost_reply_with_no_stray_part");
    // Part creates are exclusive. When the reply to one is lost after
    // the request landed, the replay is refused by the part it just
    // made; the create must take that part as its own — not fail, and
    // not leave it behind beside a second one.
    let mut cuts = 0;
    // (The fault-free set-up takes the proxy's first RPCs.)
    for n in 1..=8 {
        let meta_dir = TempDir::new();
        let dir = TempDir::new();
        let server = open_server(dir.path());
        let plan = FaultPlan::new(seed).rule(FaultTrigger::NthRpc(n), FaultAction::TruncateReply);
        let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
        let pool = vec![DataServer::new(&proxy.addr(), "/vol", auth())];
        let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
        let fs = StubFs::new(meta, pool, Placement::round_robin(), chaos_options());
        proxy.set_armed(false);
        fs.ensure_volumes().unwrap();
        proxy.set_armed(true);
        fs.write_file("/f", b"mine")
            .unwrap_or_else(|e| panic!("reply to RPC {n} lost: {e}"));
        assert_eq!(fs.read_file("/f").unwrap(), b"mine");
        assert_eq!(
            data_count(&dir.path().join("vol")),
            1,
            "RPC {n}: stray part"
        );
        let report = fsck(&fs).unwrap();
        assert!(report.is_clean(), "RPC {n}: {report:?}");
        cuts += proxy.stats().truncates;
    }
    assert!(cuts >= 3, "the cuts never landed inside a create ({cuts})");
}

#[test]
fn blackholed_request_times_out_then_recovers() {
    let seed = announce("blackholed_request_times_out_then_recovers");
    let dir = TempDir::new();
    let server = open_server(dir.path());
    let plan = FaultPlan::new(seed).with_rule(
        FaultRule::new(FaultTrigger::EveryNthRpc(6), FaultAction::BlackHole).max_fires(1),
    );
    let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
    let mut cfg = CfsConfig::new(&proxy.addr(), auth());
    // A short timeout turns the black hole into a prompt Timeout.
    cfg.timeout = Duration::from_millis(250);
    cfg.retry = chaos_retry();
    let fs = Cfs::new(cfg);

    let data = pattern(2_000, 5);
    fs.write_file("/t", &data).unwrap();
    for _ in 0..8 {
        assert_eq!(fs.read_file("/t").unwrap(), data);
    }
    assert_eq!(proxy.stats().blackholes, 1, "black hole never fired");
    assert!(fs.retries() >= 1, "the timed-out RPC should be retried");
}

#[test]
fn acl_denial_fails_immediately_with_zero_retries() {
    let seed = announce("acl_denial_fails_immediately_with_zero_retries");
    let dir = TempDir::new();
    // Read/list grant only: a write draws a protocol verdict, which is
    // fatal — unlike a fault, retrying it cannot help.
    let cfg = ServerConfig::localhost(dir.path(), "test-owner")
        .with_root_acl(Acl::single("hostname:*", "rl").unwrap());
    let server = FileServer::start(cfg).unwrap();
    let proxy = FaultProxy::spawn(&server.endpoint(), FaultPlan::new(seed)).unwrap();
    let fs = chaos_cfs(&proxy.addr());

    let t0 = Instant::now();
    let err = fs
        .write_file("/nope", b"data")
        .expect_err("write must be denied");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    assert_eq!(fs.retries(), 0, "fatal verdicts must not be retried");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "denial must surface without backoff sleeps"
    );
}

#[test]
fn fault_schedule_is_deterministic_for_a_fixed_seed() {
    let seed = announce("fault_schedule_is_deterministic_for_a_fixed_seed");
    // Two runs with the same seed over the same sequential RPC stream
    // must fail the same operations and fire the same faults.
    let run = |seed: u64| -> (Vec<bool>, u64) {
        let dir = TempDir::new();
        let server = open_server(dir.path());
        let plan =
            FaultPlan::new(seed).rule(FaultTrigger::Probability(0.25), FaultAction::KillMidFrame);
        let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
        let mut cfg = CfsConfig::new(&proxy.addr(), auth());
        cfg.timeout = Duration::from_millis(1500);
        // No retry: every injected fault surfaces, so the outcome
        // vector mirrors the fault schedule exactly.
        cfg.retry = RetryPolicy::none();
        let fs = Cfs::new(cfg);
        let outcomes: Vec<bool> = (0..24)
            .map(|i| fs.write_file(&format!("/f{i}"), b"x").is_ok())
            .collect();
        (outcomes, proxy.stats().kills)
    };
    let a = run(seed);
    let b = run(seed);
    assert_eq!(a, b, "same seed must give the same schedule");
    assert!(a.1 > 0, "a 25% kill rate over 24 ops should fire");
}

#[test]
fn injected_fault_counts_line_up_with_retry_telemetry() {
    let seed = announce("injected_fault_counts_line_up_with_retry_telemetry");
    let dir = TempDir::new();
    let server = open_server(dir.path());
    // A bounded burst of kills: each fired kill tears the connection
    // mid-RPC, which the recovery layer must answer with at least one
    // retry. Capping the rule keeps the run inside the retry budget.
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule::new(FaultTrigger::NthRpc(3), FaultAction::KillMidFrame).max_fires(1))
        .with_rule(
            FaultRule::new(FaultTrigger::EveryNthRpc(7), FaultAction::KillMidFrame).max_fires(3),
        );
    let proxy = FaultProxy::spawn(&server.endpoint(), plan).unwrap();
    let fs = chaos_cfs(&proxy.addr());

    let data = pattern(16 * 1024, 11);
    fs.write_file("/chaos-ledger", &data).unwrap();
    for i in 0..30 {
        assert_eq!(
            fs.read_file("/chaos-ledger").unwrap(),
            data,
            "read {i} must be masked"
        );
    }

    let fires = proxy.fires();
    let snap = fs.telemetry().snapshot();
    eprintln!(
        "fault/retry ledger: fires={fires} kills={} rpcs={} | client.retries={:?} \
         client.reconnects={:?} client.connects={:?}",
        proxy.stats().kills,
        proxy.stats().rpcs,
        snap.counter("client.retries"),
        snap.counter("client.reconnects"),
        snap.counter("client.connects"),
    );
    assert!(fires >= 2, "the capped kill rules should have fired");
    assert_eq!(
        fires,
        proxy.stats().kills,
        "every firing was a kill in this plan"
    );
    // The contract under test: N injected transport faults must show
    // up as at least N observed recovery retries.
    assert!(
        fs.retries() >= fires,
        "retries {} must cover fires {fires}",
        fs.retries()
    );
    let reconnects = snap.counter("client.reconnects").unwrap_or(0);
    assert!(
        reconnects >= fires,
        "each kill severs the transport, so reconnects {reconnects} must cover fires {fires}"
    );
    assert!(snap.counter("client.connects").unwrap_or(0) > reconnects);
}
