//! THIRDPUT distribution-tree bench, run by stage 0 of
//! `scripts/verify.sh`: 8 real TCP file servers whose outbound
//! dialer delays every RPC (faultline's `FaultAction::Delay`), so
//! every THIRDPUT hop pays for its own round trips to the next depot
//! (loopback otherwise hides the transfer cost the tree amortizes),
//! comparing three ways to place 8 replicas of one file:
//!
//! * **direct** — one source→target push, the unit of cost;
//! * **serial** — the naive loop, 7 pushes from the source, ~7 units;
//! * **tree** — `gems::tree::distribute`'s depot-to-depot
//!   doubling, where every completed replica immediately pushes to
//!   the next orphan, so wall time is ~⌈log2⌉ units.
//!
//! The asserted floor is the acceptance bar — the 8-replica
//! tree lands within 4× of one direct push — with the true ratio on
//! this rig ~3× (depth 3), so a loaded CI machine has real slack.
//! The printed table feeds EXPERIMENTS.md.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_client::AuthMethod;
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::Dialer;
use chirp_proto::Clock;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use faultline::{FaultAction, FaultDialer, FaultPlan, FaultTrigger};
use gems::{distribute, ideal_depth, TreeConfig, TreeTarget};
use tss_core::cfs::{Cfs, CfsConfig};

/// Charged per RPC on a server's connection to a peer. A push is two
/// (authenticate, then `PUTFILE`), each answered before the next is
/// sent, so one delay per RPC is one per round trip.
const HOP_LATENCY: Duration = Duration::from_millis(25);
const PAYLOAD_LEN: usize = 64 * 1024;
const REPLICAS: usize = 8;

fn cfs_for(endpoint: &str) -> Arc<Cfs> {
    Arc::new(Cfs::new(CfsConfig::new(
        endpoint,
        vec![AuthMethod::Hostname],
    )))
}

/// Best-of-3 wall time, to shrug off load spikes on a shared CI box
/// (same idiom as `pipeline_smoke`) — pushes are idempotent, so
/// repeating a round just overwrites the same replica bytes.
fn best_of_3<T>(mut run: impl FnMut() -> T) -> (Duration, T) {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let out = run();
            (t.elapsed(), out)
        })
        .min_by_key(|(d, _)| *d)
        .unwrap()
}

#[test]
fn eight_replica_tree_lands_within_4x_of_one_direct_push() {
    let dirs: Vec<TempDir> = (0..REPLICAS).map(|_| TempDir::new()).collect();
    let servers: Vec<FileServer> = dirs
        .iter()
        .map(|d| {
            let mut cfg = ServerConfig::localhost(d.path(), "bench")
                .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
            let delay = FaultPlan::new(0).rule(
                FaultTrigger::EveryNthRpc(1),
                FaultAction::Delay(HOP_LATENCY),
            );
            cfg.dialer = FaultDialer::new(Dialer::tcp(), Clock::wall(), delay).dialer();
            FileServer::start(cfg).expect("start chirp server")
        })
        .collect();
    let endpoints: Vec<String> = servers.iter().map(|s| s.endpoint()).collect();

    let payload: Vec<u8> = (0..PAYLOAD_LEN as u32).map(|i| (i % 251) as u8).collect();
    let source_cfs = cfs_for(&endpoints[0]);
    source_cfs.putfile("/payload", 0o644, &payload).unwrap();

    // One direct push: the unit every strategy is priced in.
    let (direct, ()) = best_of_3(|| {
        source_cfs
            .thirdput("/payload", &endpoints[1], "/payload")
            .unwrap();
    });

    // The naive loop: the source pushes to all 7 targets itself.
    let t = Instant::now();
    for ep in &endpoints[1..] {
        source_cfs.thirdput("/payload", ep, "/payload").unwrap();
    }
    let serial = t.elapsed();

    // The doubling tree over the same 7 targets.
    let source = TreeTarget::new(&endpoints[0], "/payload");
    let targets: Vec<TreeTarget> = endpoints[1..]
        .iter()
        .map(|ep| TreeTarget::new(ep, "/payload"))
        .collect();
    let (tree, report) = best_of_3(|| {
        distribute(
            &source,
            &targets,
            cfs_for,
            &TreeConfig::default(),
            None,
            None,
        )
    });

    assert_eq!(report.failed.len(), 0, "fault-free run must not fail");
    assert_eq!(report.completed.len(), REPLICAS - 1);
    assert_eq!(report.depth, ideal_depth(REPLICAS - 1));
    for d in &dirs[1..] {
        assert_eq!(std::fs::read(d.path().join("payload")).unwrap(), payload);
    }

    let ratio = |d: Duration| d.as_secs_f64() / direct.as_secs_f64();
    println!(
        "tree_smoke: {REPLICAS} replicas, {PAYLOAD_LEN} B payload, {HOP_LATENCY:?} per hop round trip"
    );
    println!(
        "  direct 1 push   {:>8.1} ms   1.0x",
        direct.as_secs_f64() * 1e3
    );
    println!(
        "  serial 7 pushes {:>8.1} ms   {:.1}x",
        serial.as_secs_f64() * 1e3,
        ratio(serial)
    );
    println!(
        "  tree depth {}    {:>8.1} ms   {:.1}x   ({} hops, {} B relayed)",
        report.depth,
        tree.as_secs_f64() * 1e3,
        ratio(tree),
        report.hops,
        report.bytes_relayed
    );

    // The acceptance bar: the whole 8-replica tree within 4x of one
    // push. The ideal is ~3x (depth 3); 4x absorbs CI scheduling.
    assert!(
        tree <= direct * 4,
        "8-replica tree took {tree:?}, more than 4x one direct push ({direct:?})"
    );
    // And it must actually beat the naive serial loop.
    assert!(
        tree < serial,
        "tree ({tree:?}) should beat 7 serial pushes ({serial:?})"
    );
}
