//! The GEMS preservation workflow against live Chirp servers: ingest,
//! query, failure injection, audit, repair — Figure 9 at test scale.
//!
//! Every fixture runs on [`SimTss`]: the pool is servers `0..n` and the
//! record index is a directory on server `n`, so wiping or killing a
//! pool server never touches the index.

use std::io::ErrorKind;
use std::time::Duration;

use chirp_client::AuthMethod;
use chirp_proto::testutil::TempDir;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use gems::{Gems, GemsConfig, RebuildReport};
use simharness::harness::{SimTss, SIM_TIMEOUT};
use tss_core::cfs::RetryPolicy;
use tss_core::stubfs::DataServer;

struct Fixture {
    sim: SimTss,
    gems: Gems,
}

fn fixture(nservers: usize, target: u32) -> Fixture {
    let sim = SimTss::builder().servers(nservers + 1).build();
    let gems = Gems::connect(config(&sim, "/index", target)).unwrap();
    Fixture { sim, gems }
}

/// A session over `sim`'s pool with its index in `records_dir` on the
/// last server.
fn config(sim: &SimTss, records_dir: &str, target: u32) -> GemsConfig {
    let index = sim.servers().len() - 1;
    let pool = (0..index).map(|i| sim.data_server(i, "/gems")).collect();
    let mut config = GemsConfig::new(sim.data_server(index, records_dir), pool);
    config.default_target = target;
    config.timeout = SIM_TIMEOUT;
    config.retry = RetryPolicy::none();
    config.dialer = sim.dialer();
    config.clock = sim.clock().clone();
    config
}

/// The pool server whose endpoint is `endpoint`.
fn server_index(sim: &SimTss, endpoint: &str) -> usize {
    sim.servers()
        .iter()
        .position(|s| s.endpoint() == endpoint)
        .unwrap()
}

/// Host paths of every file in the pool volumes but the ACL.
fn volume_files(f: &Fixture) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for i in 0..f.gems.pool().len() {
        for entry in std::fs::read_dir(f.sim.root(i).join("gems")).unwrap() {
            let entry = entry.unwrap();
            if entry.file_name() != ".__acl" {
                files.push(entry.path());
            }
        }
    }
    files.sort();
    files
}

fn payload(i: u64) -> Vec<u8> {
    (0..4096u64)
        .map(|j| ((i * 131 + j * 7) % 251) as u8)
        .collect()
}

#[test]
fn ingest_then_fetch_round_trip() {
    let f = fixture(3, 2);
    let data = payload(1);
    let rec = f
        .gems
        .ingest("run1/traj.dcd", &[("project", "protomol")], &data)
        .unwrap();
    assert_eq!(rec.replicas.len(), 1, "ingest writes one copy");
    assert_eq!(rec.checksum, chirp_proto::crc64(&data));
    assert_eq!(f.gems.fetch("run1/traj.dcd").unwrap(), data);
}

#[test]
fn query_by_attribute() {
    let f = fixture(2, 1);
    for i in 0..5u64 {
        f.gems
            .ingest(
                &format!("run{i}/out"),
                &[
                    ("project", if i < 3 { "protomol" } else { "other" }),
                    ("temperature", "310K"),
                ],
                &payload(i),
            )
            .unwrap();
    }
    let mut hits = f.gems.query("project", "protomol").unwrap();
    hits.sort();
    assert_eq!(hits, vec!["run0/out", "run1/out", "run2/out"]);
    assert_eq!(f.gems.query("temperature", "*K").unwrap().len(), 5);
    assert_eq!(f.gems.list().unwrap().len(), 5);
}

#[test]
fn replicator_reaches_the_target() {
    let f = fixture(4, 3);
    for i in 0..6u64 {
        f.gems.ingest(&format!("f{i}"), &[], &payload(i)).unwrap();
    }
    let report = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(report.deficient, 6);
    assert_eq!(report.copied, 12, "each file gains two more replicas");
    assert_eq!(report.unrepairable, 0);
    for i in 0..6u64 {
        let rec = f.gems.record(&format!("f{i}")).unwrap();
        assert_eq!(rec.replicas.len(), 3);
        // Replicas land on distinct servers.
        let mut eps: Vec<&str> = rec.replicas.iter().map(|r| r.endpoint.as_str()).collect();
        eps.sort();
        eps.dedup();
        assert_eq!(eps.len(), 3);
    }
    // Second pass is a no-op.
    let again = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(again.copied, 0);
    assert_eq!(again.deficient, 0);
}

#[test]
fn audit_detects_forcible_deletion_and_replicator_repairs() {
    // The §9 scenario: the owner of a server forcibly deletes data
    // placed by GEMS; the auditor notices and the replicator restores
    // the desired state.
    let f = fixture(3, 2);
    for i in 0..4u64 {
        f.gems.ingest(&format!("f{i}"), &[], &payload(i)).unwrap();
    }
    gems::replicate_once(&f.gems, usize::MAX).unwrap();

    // Wipe all GEMS data on server 0, as its owner is free to do.
    let victim = f.sim.root(0).join("gems");
    let mut deleted = 0u64;
    for entry in std::fs::read_dir(&victim).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name != ".__acl" {
            std::fs::remove_file(entry.path()).unwrap();
            // Sidecar metadata files are not replicas.
            if !name.ends_with(".meta") {
                deleted += 1;
            }
        }
    }
    assert!(deleted > 0, "server 0 held some replicas");

    let audit = gems::audit_once(&f.gems).unwrap();
    assert_eq!(audit.records, 4);
    assert_eq!(audit.missing, deleted);
    assert_eq!(audit.corrupt, 0);

    // Every file still fetchable (failure coherence), then repaired.
    for i in 0..4u64 {
        assert_eq!(f.gems.fetch(&format!("f{i}")).unwrap(), payload(i));
    }
    let repair = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(repair.copied, deleted);
    let audit2 = gems::audit_once(&f.gems).unwrap();
    assert_eq!(audit2.missing, 0);
    assert_eq!(audit2.healthy, 8);
}

#[test]
fn audit_detects_corruption_by_checksum() {
    let f = fixture(2, 2);
    f.gems.ingest("precious", &[], &payload(9)).unwrap();
    gems::replicate_once(&f.gems, usize::MAX).unwrap();

    // Corrupt one replica in place (same size, different bytes).
    let rec = f.gems.record("precious").unwrap();
    let victim = &rec.replicas[0];
    let host_path = f
        .sim
        .root(server_index(&f.sim, &victim.endpoint))
        .join(victim.path.trim_start_matches('/'));
    let mut bytes = std::fs::read(&host_path).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&host_path, &bytes).unwrap();

    let audit = gems::audit_once(&f.gems).unwrap();
    assert_eq!(audit.corrupt, 1);
    assert_eq!(audit.healthy, 1);
    // The corrupt copy is evicted from the server.
    assert!(!host_path.exists());
    // Fetch still returns the good bytes.
    assert_eq!(f.gems.fetch("precious").unwrap(), payload(9));
    // And repair restores two verified replicas.
    gems::replicate_once(&f.gems, usize::MAX).unwrap();
    let audit2 = gems::audit_once(&f.gems).unwrap();
    assert_eq!(audit2.healthy, 2);
}

#[test]
fn audit_prunes_replicas_on_a_dead_server() {
    let mut f = fixture(3, 2);
    f.gems.ingest("x", &[], &payload(3)).unwrap();
    gems::replicate_once(&f.gems, usize::MAX).unwrap();
    let rec = f.gems.record("x").unwrap();
    let dead_ep = rec.replicas[0].endpoint.clone();
    let idx = server_index(&f.sim, &dead_ep);
    f.sim.kill(idx);

    let audit = gems::audit_once(&f.gems).unwrap();
    assert_eq!(audit.missing, 1);
    let rec = f.gems.record("x").unwrap();
    assert_eq!(rec.replicas.len(), 1);
    assert!(rec.replicas.iter().all(|r| r.endpoint != dead_ep));
    // Repair places the replacement on the remaining live server.
    let repair = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(repair.copied, 1);
    assert_eq!(f.gems.fetch("x").unwrap(), payload(3));
}

#[test]
fn maintain_runs_a_full_cycle() {
    let f = fixture(3, 3);
    f.gems.ingest("a", &[], &payload(1)).unwrap();
    let (audit, repair) = f.gems.maintain().unwrap();
    assert_eq!(audit.records, 1);
    assert_eq!(repair.copied, 2);
    assert_eq!(f.gems.record("a").unwrap().replicas.len(), 3);
}

#[test]
fn delete_removes_data_then_record() {
    let f = fixture(2, 2);
    f.gems.ingest("victim", &[], &payload(5)).unwrap();
    gems::replicate_once(&f.gems, usize::MAX).unwrap();
    f.gems.delete("victim").unwrap();
    assert!(f.gems.record("victim").is_err());
    // No orphaned data on any server.
    assert_eq!(volume_files(&f), Vec::<std::path::PathBuf>::new());
}

#[test]
fn unrepairable_when_pool_exhausted() {
    // Target 3 replicas but only 2 servers: the replicator reports the
    // shortfall instead of stacking copies on one disk.
    let f = fixture(2, 3);
    f.gems.ingest("f", &[], &payload(2)).unwrap();
    let report = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(report.copied, 1);
    assert_eq!(report.unrepairable, 0, "progress was made");
    let again = gems::replicate_once(&f.gems, usize::MAX).unwrap();
    assert_eq!(again.copied, 0);
    assert_eq!(again.unrepairable, 1);
    let rec = f.gems.record("f").unwrap();
    assert_eq!(rec.replicas.len(), 2, "never two copies on one server");
}

#[test]
fn daemons_repair_without_manual_intervention() {
    let f = fixture(3, 2);
    for i in 0..3u64 {
        f.gems.ingest(&format!("d{i}"), &[], &payload(i)).unwrap();
    }
    let g = std::sync::Arc::new(f.gems);
    let daemons = gems::GemsDaemons::spawn(g.clone(), Duration::from_millis(100));
    assert!(daemons.wait_for_cycles(1, Duration::from_secs(10)));
    // The first cycle brings everything to target.
    for i in 0..3u64 {
        assert_eq!(g.record(&format!("d{i}")).unwrap().replicas.len(), 2);
    }
    // Induce a failure behind the daemons' back...
    let victim = f.sim.root(0).join("gems");
    for entry in std::fs::read_dir(&victim).unwrap().flatten() {
        if entry.file_name() != ".__acl" {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    // ...and wait for the loop to notice and heal it.
    let before = daemons.cycles();
    assert!(daemons.wait_for_cycles(before + 2, Duration::from_secs(10)));
    for i in 0..3u64 {
        assert_eq!(
            g.record(&format!("d{i}")).unwrap().replicas.len(),
            2,
            "daemons restored d{i}"
        );
        assert_eq!(g.fetch(&format!("d{i}")).unwrap(), payload(i));
    }
    assert!(daemons.repaired() >= 1);
}

#[test]
fn placement_prefers_servers_with_free_space() {
    // Two servers, one nearly full: ingest must land on the roomy one,
    // and when everything is full the error is NoSpace, not silence.
    let full_dir = TempDir::new();
    let roomy_dir = TempDir::new();
    let mut full_cfg = ServerConfig::localhost(full_dir.path(), "o")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    full_cfg.capacity_bytes = 10_000;
    let full = FileServer::start(full_cfg).unwrap();
    let mut roomy_cfg = ServerConfig::localhost(roomy_dir.path(), "o")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    roomy_cfg.capacity_bytes = 100_000;
    let roomy = FileServer::start(roomy_cfg).unwrap();

    // The index sits on a third server, so only replicas count
    // against the two capacities.
    let index_dir = TempDir::new();
    let index = FileServer::start(
        ServerConfig::localhost(index_dir.path(), "o")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .unwrap();

    let pool = vec![
        DataServer::new(&full.endpoint(), "/gems", vec![AuthMethod::Hostname]),
        DataServer::new(&roomy.endpoint(), "/gems", vec![AuthMethod::Hostname]),
    ];
    let records = DataServer::new(&index.endpoint(), "/index", vec![AuthMethod::Hostname]);
    let mut config = GemsConfig::new(records, pool);
    config.default_target = 1;
    let g = Gems::connect(config).unwrap();

    // Fill the small server almost completely, bypassing gems.
    std::fs::write(full_dir.path().join("ballast"), vec![0u8; 9_500]).unwrap();

    for i in 0..5u64 {
        let rec = g.ingest(&format!("f{i}"), &[], &vec![1u8; 8_000]).unwrap();
        assert_eq!(
            rec.replicas[0].endpoint,
            roomy.endpoint(),
            "ingest must avoid the full server"
        );
    }
    // Exhaust the roomy server too: the refusal surfaces as an error.
    for i in 5..20u64 {
        if let Err(e) = g.ingest(&format!("f{i}"), &[], &vec![1u8; 8_000]) {
            assert_eq!(e.kind(), ErrorKind::StorageFull, "got {e}");
            return;
        }
    }
    panic!("pool exhaustion never surfaced as NoSpace");
}

#[test]
fn lost_database_is_rebuilt_by_rescanning_servers() {
    // §5: "the database could even be recovered automatically by
    // rescanning the existing file data."
    let f = fixture(3, 2);
    for i in 0..4u64 {
        f.gems
            .ingest(
                &format!("run{i}/out"),
                &[("project", "protomol"), ("run", &i.to_string())],
                &payload(i),
            )
            .unwrap();
    }
    gems::replicate_once(&f.gems, usize::MAX).unwrap();

    // Catastrophe: the index is lost entirely. Attach a brand-new,
    // empty one.
    let recovered = Gems::connect(config(&f.sim, "/recovered", 2)).unwrap();
    assert!(
        recovered.list().unwrap().is_empty(),
        "fresh index starts empty"
    );

    let report = gems::rebuild(&recovered).unwrap();
    assert_eq!(report.records, 4);
    assert_eq!(report.replicas, 8, "both replicas of each file recovered");
    assert_eq!(report.rejected, 0);

    // Names, attributes, and data all come back.
    let mut names = recovered.list().unwrap();
    names.sort();
    assert_eq!(names, vec!["run0/out", "run1/out", "run2/out", "run3/out"]);
    assert_eq!(recovered.query("project", "protomol").unwrap().len(), 4);
    assert_eq!(recovered.query("run", "2").unwrap(), vec!["run2/out"]);
    for i in 0..4u64 {
        assert_eq!(recovered.fetch(&format!("run{i}/out")).unwrap(), payload(i));
        assert_eq!(
            recovered
                .record(&format!("run{i}/out"))
                .unwrap()
                .replica_target,
            2
        );
    }
}

#[test]
fn rebuild_rejects_tampered_replicas() {
    let f = fixture(2, 2);
    f.gems.ingest("honest", &[], &payload(7)).unwrap();
    gems::replicate_once(&f.gems, usize::MAX).unwrap();
    // Tamper with one replica's bytes (sidecar checksum now disagrees).
    let rec = f.gems.record("honest").unwrap();
    let victim = &rec.replicas[0];
    let host_path = f
        .sim
        .root(server_index(&f.sim, &victim.endpoint))
        .join(victim.path.trim_start_matches('/'));
    let mut bytes = std::fs::read(&host_path).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&host_path, &bytes).unwrap();

    let recovered = Gems::connect(config(&f.sim, "/recovered", 2)).unwrap();
    let report = gems::rebuild(&recovered).unwrap();
    assert_eq!(report.records, 1);
    assert_eq!(report.replicas, 1, "only the intact copy is trusted");
    assert_eq!(report.rejected, 1);
    assert_eq!(recovered.fetch("honest").unwrap(), payload(7));
}

#[test]
fn reingesting_a_name_is_refused_and_rebuild_keeps_the_live_generation() {
    // A second ingest of one name used to write a second generation
    // beside the first: the first one's replica and sidecar were
    // orphaned, and a rebuild kept whichever generation it scanned
    // first, so it could bring back the old bytes.
    let f = fixture(2, 2);
    f.gems.ingest("y", &[], &[7u8; 7]).unwrap();
    let old = vec![4u8; 4_000];
    f.gems.ingest("x", &[], &old).unwrap();
    let before = volume_files(&f);
    let err = f.gems.ingest("x", &[], &[15u8; 15]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::AlreadyExists);
    assert_eq!(volume_files(&f), before, "no replica was written");
    assert_eq!(f.gems.fetch("x").unwrap(), old);

    // Replacing a file is delete, then ingest; a rebuild then finds
    // the new generation only.
    f.gems.delete("x").unwrap();
    let new = vec![15u8; 15];
    f.gems.ingest("x", &[], &new).unwrap();
    let recovered = Gems::connect(config(&f.sim, "/recovered", 2)).unwrap();
    let report = gems::rebuild(&recovered).unwrap();
    assert_eq!(
        report,
        RebuildReport {
            records: 2,
            replicas: 2,
            rejected: 0
        }
    );
    assert_eq!(recovered.fetch("x").unwrap(), new);
}

#[test]
fn a_name_too_long_for_its_record_file_is_refused_before_any_replica() {
    let f = fixture(2, 2);
    // 251 bytes + ".rec" is the longest record file a server takes.
    let longest = "a".repeat(251);
    f.gems.ingest(&longest, &[], &payload(1)).unwrap();
    let before = volume_files(&f);
    let err = f
        .gems
        .ingest(&"a".repeat(252), &[], &payload(2))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    // Escaping counts: 42 two-byte characters are 252 bytes on disk.
    let err = f
        .gems
        .ingest(&"é".repeat(42), &[], &payload(3))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    assert_eq!(volume_files(&f), before, "no replica was written");
    assert_eq!(f.gems.list().unwrap(), vec![longest]);
}
