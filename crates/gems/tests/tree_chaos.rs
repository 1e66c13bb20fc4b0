//! Distribution-tree chaos: an interior node dies mid-transfer, the
//! orphaned subtree re-parents, every surviving target still ends up
//! with correct bytes, and the telemetry ledger ties the injected
//! fault to the counted retries; a target that stays dead is abandoned
//! once its attempt budget is spent.

use std::sync::Arc;
use std::time::Duration;

use gems::tree::{distribute, ideal_depth, TreeConfig, TreeTarget};
use simharness::harness::{auth, sim_retry, SimTss, SIM_TIMEOUT};
use telemetry::Registry;
use tss_core::cfs::{Cfs, CfsConfig};

const PAYLOAD_LEN: usize = 50_000;

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN as u32).map(|i| (i % 251) as u8).collect()
}

/// A fresh resilient client for `endpoint` on the sim's network.
fn conn_factory(sim: &SimTss) -> impl Fn(&str) -> Arc<Cfs> + Sync + '_ {
    move |endpoint: &str| {
        let mut cfg = CfsConfig::new(endpoint, auth());
        cfg.timeout = SIM_TIMEOUT;
        cfg.retry = sim_retry();
        cfg.dialer = sim.dialer();
        cfg.clock = sim.clock().clone();
        Arc::new(Cfs::new(cfg))
    }
}

#[test]
fn fault_free_tree_is_log_depth() {
    let sim = SimTss::builder().servers(8).build();
    let data = payload();
    sim.connect(0).putfile("/payload", 0o644, &data).unwrap();

    let source = TreeTarget::new(&sim.endpoint(0), "/payload");
    let targets: Vec<TreeTarget> = (1..8)
        .map(|i| TreeTarget::new(&sim.endpoint(i), "/payload"))
        .collect();
    let cfg = TreeConfig {
        clock: sim.clock().clone(),
        ..TreeConfig::default()
    };
    let registry = Registry::new();
    let report = distribute(
        &source,
        &targets,
        conn_factory(&sim),
        &cfg,
        Some(&registry),
        None,
    );

    assert_eq!(report.failed.len(), 0, "no faults, no failures");
    assert_eq!(report.completed.len(), 7);
    assert_eq!(report.hops, 7, "one hop per replica");
    assert_eq!(report.depth, ideal_depth(7), "doubling tree: depth 3 for 7");
    assert_eq!(report.retries, 0);
    assert!(
        report.bytes_relayed >= 4 * data.len() as u64,
        "waves 2+3 are relayed by non-source holders (got {})",
        report.bytes_relayed
    );
    // Every target holds the exact bytes, verified on the host disk.
    for i in 1..8 {
        assert_eq!(std::fs::read(sim.root(i).join("payload")).unwrap(), data);
    }
    // Telemetry mirrors the report.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("tree.hops"), Some(7));
    assert_eq!(snap.counter("tree.retries"), Some(0));
}

#[test]
fn interior_node_death_reparents_the_orphaned_subtree() {
    let sim = SimTss::builder().servers(8).build();
    let data = payload();
    sim.connect(0).putfile("/payload", 0o644, &data).unwrap();

    let source = TreeTarget::new(&sim.endpoint(0), "/payload");
    let targets: Vec<TreeTarget> = (1..8)
        .map(|i| TreeTarget::new(&sim.endpoint(i), "/payload"))
        .collect();
    let cfg = TreeConfig {
        clock: sim.clock().clone(),
        backoff: Duration::from_millis(20),
        max_attempts: 4,
    };

    // Wave 1 makes target[0] (server 1) the first interior holder.
    // Kill it right after: unbind its address, so every later push
    // *through* it fails like a host death, while the bytes it
    // already received stay on its disk.
    let victim: std::net::SocketAddr = sim.endpoint(1).parse().unwrap();
    let net = sim.net().clone();
    let mut hook = move |wave: u64| {
        if wave == 1 {
            net.unbind(victim);
        }
    };

    let registry = Registry::new();
    let report = distribute(
        &source,
        &targets,
        conn_factory(&sim),
        &cfg,
        Some(&registry),
        Some(&mut hook),
    );

    assert_eq!(
        report.failed.len(),
        0,
        "all targets must complete despite the dead interior node"
    );
    assert_eq!(report.completed.len(), 7);
    assert!(
        report.reparents >= 1,
        "the dead holder's children must re-parent"
    );
    assert!(report.retries >= 1);
    assert_eq!(
        report.retries, report.reparents,
        "every failure here is recoverable, so the ledger balances"
    );
    // Depth grew only by what the retries forced.
    assert!(report.depth >= ideal_depth(7));
    assert!(
        report.depth <= ideal_depth(7) + report.retries,
        "depth {} vs ideal {} + {} retries",
        report.depth,
        ideal_depth(7),
        report.retries
    );
    // Every target — including the dead one, which got its bytes in
    // wave 1 — holds the payload, verified on the host disk.
    for i in 1..8 {
        assert_eq!(
            std::fs::read(sim.root(i).join("payload")).unwrap(),
            data,
            "server {i} holds wrong bytes"
        );
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("tree.retries"), Some(report.retries));
    assert_eq!(snap.counter("tree.reparents"), Some(report.reparents));
}

#[test]
fn a_dead_target_is_abandoned_after_its_attempt_budget() {
    for (victim, max_attempts) in [(3usize, 3u32), (6, 4)] {
        let sim = SimTss::builder().servers(8).build();
        let data = payload();
        sim.connect(0).putfile("/payload", 0o644, &data).unwrap();

        let source = TreeTarget::new(&sim.endpoint(0), "/payload");
        let targets: Vec<TreeTarget> = (1..8)
            .map(|i| TreeTarget::new(&sim.endpoint(i), "/payload"))
            .collect();
        let cfg = TreeConfig {
            clock: sim.clock().clone(),
            backoff: Duration::from_millis(20),
            max_attempts,
        };
        // Dead before the transfer starts: every push to it fails, from
        // whichever holder the wave assigns.
        sim.net().unbind(
            sim.endpoint(victim)
                .parse::<std::net::SocketAddr>()
                .unwrap(),
        );

        let registry = Registry::new();
        let report = distribute(
            &source,
            &targets,
            conn_factory(&sim),
            &cfg,
            Some(&registry),
            None,
        );

        assert_eq!(
            report.failed,
            vec![targets[victim - 1].clone()],
            "only the dead target is abandoned (budget {max_attempts})"
        );
        assert_eq!(report.completed.len(), 6);
        // Every attempt at the victim failed; all but the last re-parented.
        assert_eq!(report.retries, u64::from(max_attempts));
        assert_eq!(report.reparents, u64::from(max_attempts) - 1);
        assert_eq!(
            report.retries,
            report.reparents + report.failed.len() as u64,
            "every failure either re-parents or abandons"
        );
        for i in (1..8).filter(|&i| i != victim) {
            assert_eq!(
                std::fs::read(sim.root(i).join("payload")).unwrap(),
                data,
                "server {i} holds wrong bytes"
            );
        }
        assert!(!sim.root(victim).join("payload").exists());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tree.retries"), Some(report.retries));
        assert_eq!(snap.counter("tree.reparents"), Some(report.reparents));
    }
}
