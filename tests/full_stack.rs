//! Workspace-level integration tests spanning every crate: catalogs,
//! file servers, abstractions, adapter, and GEMS working together.
//!
//! Scenarios that only need file servers run on the in-memory network
//! (no ports, no load-dependent timing). Catalog discovery rides real
//! UDP/TCP by design, and the server-restart test keeps real sockets
//! on purpose — rebinding a port through TIME_WAIT *is* the scenario —
//! so those three double as the real-TCP smoke path.

use std::sync::Arc;
use std::time::Duration;

use simharness::harness::SimTss;
use tss::catalog::{query, CatalogConfig, CatalogServer};
use tss::chirp_client::AuthMethod;
use tss::chirp_proto::testutil::TempDir;
use tss::chirp_proto::OpenFlags;
use tss::chirp_server::acl::Acl;
use tss::chirp_server::{FileServer, ServerConfig};
use tss::core::adapter::{Adapter, AdapterConfig, Namespace};
use tss::core::stubfs::DataServer;
use tss::core::{Cfs, Dsfs, Placement};
use tss_core::fs::FileSystem;

const TIMEOUT: Duration = Duration::from_secs(5);

/// How long the real-TCP scenarios wait for the network to settle.
/// Generous on purpose: these tests share loopback with whatever else
/// a CI machine is doing, and a slow catalog report is not a failure.
const SETTLE: Duration = Duration::from_secs(30);

fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// Poll `check` until it succeeds or [`SETTLE`] elapses. On timeout,
/// panic with `what` and the last observed state so a CI-only failure
/// is diagnosable from the log alone (addresses, counts, errors).
fn wait_for<T>(what: &str, mut check: impl FnMut() -> Result<T, String>) -> T {
    let start = std::time::Instant::now();
    let mut last = String::from("never checked");
    while start.elapsed() < SETTLE {
        match check() {
            Ok(v) => return v,
            Err(state) => last = state,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {SETTLE:?} waiting for {what}; last state: {last}");
}

fn open_server_with_catalog(root: &std::path::Path, catalog: Option<&CatalogServer>) -> FileServer {
    let mut cfg = ServerConfig::localhost(root, "integration")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    if let Some(cat) = catalog {
        cfg = cfg.with_catalog(cat.udp_addr(), Duration::from_millis(50));
    }
    FileServer::start(cfg).unwrap()
}

/// An [`AdapterConfig`] whose connections ride the simulated network
/// and virtual clock instead of TCP.
fn sim_adapter_config(sim: &SimTss) -> AdapterConfig {
    AdapterConfig {
        timeout: TIMEOUT,
        dialer: sim.dialer(),
        clock: sim.clock().clone(),
        ..AdapterConfig::default()
    }
}

#[test]
fn discover_servers_then_build_an_abstraction_on_them() {
    // The full tactical loop: servers report to a catalog; a user
    // discovers them at runtime and assembles a DSFS from whatever is
    // available — no administrator anywhere. Catalog reports are UDP
    // datagrams, so this scenario stays on the real network stack.
    let catalog = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(30))).unwrap();
    let dirs: Vec<TempDir> = (0..3).map(|_| TempDir::new()).collect();
    let _servers: Vec<FileServer> = dirs
        .iter()
        .map(|d| open_server_with_catalog(d.path(), Some(&catalog)))
        .collect();

    // Wait for the first reports.
    let listing = wait_for("3 servers in the catalog", || {
        let l = query(catalog.tcp_addr(), TIMEOUT)
            .map_err(|e| format!("query {} failed: {e}", catalog.tcp_addr()))?;
        if l.len() == 3 {
            Ok(l)
        } else {
            Err(format!(
                "catalog {} lists {} of 3 servers: {:?}",
                catalog.tcp_addr(),
                l.len(),
                l.iter().map(|r| r.address.as_str()).collect::<Vec<_>>()
            ))
        }
    });

    // Use the catalogued addresses, never the originals: the catalog
    // is the only source of knowledge here. Pool selection goes
    // through the discovery policy machinery.
    let dir_endpoint = listing[0].address.clone();
    let policy = tss::core::PoolPolicy {
        min_free: 1,
        ..Default::default()
    };
    let pool: Vec<DataServer> = tss::core::discovery::select(&listing[1..], &policy)
        .into_iter()
        .map(|r| DataServer::new(&r.address, "/data", auth()))
        .collect();
    assert_eq!(pool.len(), 2);
    let fs = Dsfs::format(&dir_endpoint, "/tree", auth(), pool).unwrap();
    fs.write_file("/hello", b"from discovered storage").unwrap();
    assert_eq!(fs.read_file("/hello").unwrap(), b"from discovered storage");

    // The catalog also reflects the space just consumed, eventually.
    wait_for("a report showing consumed space", || {
        let l = query(catalog.tcp_addr(), TIMEOUT)
            .map_err(|e| format!("query {} failed: {e}", catalog.tcp_addr()))?;
        if l.iter().any(|r| r.free < r.total) {
            Ok(())
        } else {
            Err(format!("all {} reports still show free == total", l.len()))
        }
    });
}

#[test]
fn one_server_serves_multiple_abstractions_at_once() {
    // Recursive abstraction: a single file server simultaneously backs
    // a plain CFS for one user and the directory tree of a DSFS for
    // another, each confined to its own subtree.
    let sim = SimTss::builder().servers(2).build();

    let cfs = Cfs::new(sim.cfs_config(0).with_base("/cfs-area"));
    let root = Cfs::new(sim.cfs_config(0));
    root.mkdir("/cfs-area", 0o755).unwrap();
    cfs.write_file("/report.txt", b"plain cfs data").unwrap();

    let pool = vec![sim.data_server(1, "/vol")];
    let dsfs = Dsfs::format_with_options(
        &sim.endpoint(0),
        "/dsfs-tree",
        auth(),
        pool,
        Placement::round_robin(),
        sim.stubfs_options(),
    )
    .unwrap();
    dsfs.write_file("/shared.txt", b"dsfs data").unwrap();

    // Both coexist on the same resource; neither sees the other's
    // namespace through its own mount.
    assert_eq!(cfs.read_file("/report.txt").unwrap(), b"plain cfs data");
    assert_eq!(dsfs.read_file("/shared.txt").unwrap(), b"dsfs data");
    assert!(cfs.read_file("/shared.txt").is_err());
    // The owner sees both, stored without transformation.
    assert!(sim.root(0).join("cfs-area/report.txt").exists());
    assert!(sim.root(0).join("dsfs-tree/shared.txt").exists());
}

#[test]
fn adapter_routes_one_namespace_over_many_abstractions() {
    let sim = SimTss::builder().servers(3).build();
    let (cfs_srv, dir_srv, data_srv) = (0, 1, 2);

    let pool = vec![sim.data_server(data_srv, "/vol")];
    let dsfs: Arc<dyn FileSystem> = Arc::new(
        Dsfs::format_with_options(
            &sim.endpoint(dir_srv),
            "/tree",
            auth(),
            pool,
            Placement::round_robin(),
            sim.stubfs_options(),
        )
        .unwrap(),
    );

    let mut adapter = Adapter::new(sim_adapter_config(&sim)).unwrap();
    adapter.register("/dsfs/archive", dsfs);
    let mountlist = format!(
        "/usr/local   /cfs/{}/software\n\
         /data        /dsfs/archive/data\n",
        sim.endpoint(cfs_srv)
    );
    adapter.set_namespace(Namespace::parse_mountlist(&mountlist).unwrap());

    // Prime both backends through the adapter itself.
    adapter
        .mkdir(&format!("/cfs/{}/software", sim.endpoint(cfs_srv)), 0o755)
        .unwrap();
    adapter.mkdir("/dsfs/archive/data", 0o755).unwrap();
    adapter
        .write_file("/usr/local/tool.sh", b"#!/bin/sh\n")
        .unwrap();
    adapter
        .write_file("/data/results.bin", b"\x01\x02\x03")
        .unwrap();

    // Logical paths reach the right physical systems.
    assert!(sim.root(cfs_srv).join("software/tool.sh").exists());
    assert!(
        sim.root(dir_srv).join("tree/data/results.bin").exists(),
        "stub in tree"
    );
    assert_eq!(
        adapter.read_file("/usr/local/tool.sh").unwrap(),
        b"#!/bin/sh\n"
    );
    assert_eq!(
        adapter.read_file("/data/results.bin").unwrap(),
        b"\x01\x02\x03"
    );
    assert_eq!(adapter.readdir("/data").unwrap(), vec!["results.bin"]);
    assert_eq!(adapter.stat("/data/results.bin").unwrap().size, 3);
}

#[test]
fn sync_writes_switch_applies_o_sync_transparently() {
    let sim = SimTss::builder().build();
    let config = AdapterConfig {
        sync_writes: true,
        ..sim_adapter_config(&sim)
    };
    let adapter = Adapter::new(config).unwrap();
    let path = format!("/cfs/{}/durable.txt", sim.endpoint(0));
    let mut f = adapter
        .open(&path, OpenFlags::WRITE | OpenFlags::CREATE, 0o644)
        .unwrap();
    use std::io::Write;
    f.write_all(b"synchronously written").unwrap();
    drop(f);
    assert_eq!(adapter.read_file(&path).unwrap(), b"synchronously written");
}

#[test]
fn gems_can_run_on_catalog_discovered_storage() {
    let catalog = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(30))).unwrap();
    let dirs: Vec<TempDir> = (0..3).map(|_| TempDir::new()).collect();
    let _servers: Vec<FileServer> = dirs
        .iter()
        .map(|d| open_server_with_catalog(d.path(), Some(&catalog)))
        .collect();
    let listing = wait_for("3 servers in the catalog", || {
        let l = query(catalog.tcp_addr(), TIMEOUT)
            .map_err(|e| format!("query {} failed: {e}", catalog.tcp_addr()))?;
        if l.len() == 3 {
            Ok(l)
        } else {
            Err(format!(
                "catalog {} lists {} of 3 servers",
                catalog.tcp_addr(),
                l.len()
            ))
        }
    });
    let pool: Vec<DataServer> = listing
        .iter()
        .map(|r| DataServer::new(&r.address, "/gems", auth()))
        .collect();
    // The record index is one more directory on a discovered server:
    // the whole DSDB runs on discovered storage.
    let records = DataServer::new(&listing[0].address, "/gems-records", auth());
    let mut config = tss::gems::GemsConfig::new(records, pool);
    config.default_target = 2;
    let g = tss::gems::Gems::connect(config).unwrap();
    g.ingest("discovered", &[("via", "catalog")], b"data")
        .unwrap();
    let (_, repair) = g.maintain().unwrap();
    assert_eq!(repair.copied, 1);
    assert_eq!(g.fetch("discovered").unwrap(), b"data");
}

#[test]
fn whole_stack_survives_a_server_restart() {
    // CFS through the adapter keeps working across a full server
    // restart on the same port and root (the tactical pattern: a
    // borrowed machine reboots, the abstraction reconnects). Stays on
    // real TCP: rebinding a just-closed port is the behavior under
    // test, and this doubles as the adapter's loopback smoke path.
    let host = TempDir::new();
    let server = open_server_with_catalog(host.path(), None);
    let addr = server.addr();
    let config = AdapterConfig {
        retry: tss::core::cfs::RetryPolicy {
            max_retries: 20,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
            ..tss::core::cfs::RetryPolicy::default()
        },
        timeout: Duration::from_secs(2),
        ..AdapterConfig::default()
    };
    let adapter = Adapter::new(config).unwrap();
    let path = format!("/cfs/{addr}/persistent.txt");
    adapter.write_file(&path, b"before restart").unwrap();

    drop(server);
    // Rebind the same port; the retry loop covers TIME_WAIT and any
    // transient squatter that grabbed the just-released port. On a
    // persistent collision, the panic names the port so the failure
    // is attributable from the log.
    let server2 = {
        let start = std::time::Instant::now();
        loop {
            let mut cfg = ServerConfig::localhost(host.path(), "integration")
                .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
            cfg.bind = addr;
            match FileServer::start(cfg) {
                Ok(s) => break s,
                Err(_) if start.elapsed() < SETTLE => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => panic!("could not rebind port {addr} within {SETTLE:?}: {e}"),
            }
        }
    };
    assert_eq!(server2.addr(), addr);
    assert_eq!(adapter.read_file(&path).unwrap(), b"before restart");
    adapter.write_file(&path, b"after restart").unwrap();
    assert_eq!(adapter.read_file(&path).unwrap(), b"after restart");
}

#[test]
fn mount_dsfs_convention_serves_the_paper_namespace() {
    let sim = SimTss::builder().servers(2).build();
    let (dir_srv, data_srv) = (0, 1);

    // Format the filesystem, then mount it by convention.
    let pool = vec![sim.data_server(data_srv, "/vol")];
    Dsfs::format_with_options(
        &sim.endpoint(dir_srv),
        "/run5",
        auth(),
        pool.clone(),
        Placement::round_robin(),
        sim.stubfs_options(),
    )
    .unwrap();

    let mut adapter = Adapter::new(sim_adapter_config(&sim)).unwrap();
    let mount_root = adapter
        .mount_dsfs(&sim.endpoint(dir_srv), "/run5", pool)
        .unwrap();
    assert_eq!(
        mount_root,
        format!("/dsfs/{}@run5", sim.endpoint(dir_srv)),
        "the paper's /dsfs/<host>@<volume> convention"
    );
    // And the mountlist form from §6 composes on top.
    let mountlist = format!("/data {mount_root}/data\n");
    adapter.set_namespace(Namespace::parse_mountlist(&mountlist).unwrap());
    adapter.mkdir("/data", 0o755).unwrap();
    adapter.write_file("/data/events.db", b"indexed").unwrap();
    assert_eq!(adapter.read_file("/data/events.db").unwrap(), b"indexed");
    assert!(sim.root(dir_srv).join("run5/data/events.db").exists());
}

#[test]
fn extension_abstractions_compose_with_the_adapter() {
    // StripedFs and MirroredFs are FileSystems like any other, so the
    // adapter serves them under the one namespace — recursion all the
    // way up.
    let sim = SimTss::builder().servers(3).build();
    let meta1 = TempDir::new();
    let meta2 = TempDir::new();
    let pool: Vec<DataServer> = (0..3).map(|i| sim.data_server(i, "/vol")).collect();

    let striped = tss::core::StripedFs::new(
        Arc::new(tss::core::LocalFs::new(meta1.path()).unwrap()),
        pool.clone(),
        3,
        64 * 1024,
        sim.stubfs_options(),
    )
    .unwrap();
    striped.ensure_volumes().unwrap();
    let mirrored = tss::core::MirroredFs::new(
        Arc::new(tss::core::LocalFs::new(meta2.path()).unwrap()),
        pool,
        2,
        sim.stubfs_options(),
    )
    .unwrap();

    let adapter = Adapter::new(sim_adapter_config(&sim)).unwrap();
    adapter.register("/fast", Arc::new(striped));
    adapter.register("/safe", Arc::new(mirrored));

    let big: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    adapter.write_file("/fast/dataset.bin", &big).unwrap();
    assert_eq!(adapter.read_file("/fast/dataset.bin").unwrap(), big);
    adapter
        .write_file("/safe/precious.txt", b"replicated")
        .unwrap();
    assert_eq!(
        adapter.read_file("/safe/precious.txt").unwrap(),
        b"replicated"
    );
    // Cross-abstraction copy through one namespace.
    let data = adapter.read_file("/fast/dataset.bin").unwrap();
    adapter.write_file("/safe/dataset-copy.bin", &data).unwrap();
    assert_eq!(
        adapter.stat("/safe/dataset-copy.bin").unwrap().size,
        big.len() as u64
    );
}
