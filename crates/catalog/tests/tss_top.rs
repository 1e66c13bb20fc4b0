//! `tss-top` end-to-end: boot a real server and catalog, drive RPCs,
//! then run the actual binary one iteration against the catalog and
//! check the rendered table names the server with non-zero activity.

use std::time::Duration;

use catalog::{CatalogConfig, CatalogServer};
use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

#[test]
fn tss_top_renders_live_server_metrics() {
    let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(30))).unwrap();
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap())
        .with_catalog(cat.udp_addr().unwrap(), Duration::from_millis(50));
    cfg.server_name = Some("bench-node".to_string());
    cfg.cache_bytes = Some(1 << 20);
    let server = FileServer::start(cfg).unwrap();

    let mut conn = Connection::connect(server.addr(), Duration::from_secs(5)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn.putfile("/x", 0o644, b"payload").unwrap();
    for _ in 0..4 {
        conn.stat("/x").unwrap();
    }
    // Cached reads, so the CACHE% / RES(KB) columns have something to
    // show: the first read populates, the rest hit.
    let (fd, _) = conn.open("/x", chirp_proto::OpenFlags::READ, 0).unwrap();
    for _ in 0..4 {
        conn.pread(fd, 7, 0).unwrap();
    }
    drop(conn);

    // Wait until the catalog has a report carrying RPC and cache
    // counters from after the driven traffic.
    for _ in 0..400 {
        let l = cat.listing();
        if l.first().is_some_and(|r| {
            r.metrics.counter_sum("rpc.") > 0 && r.metrics.counter("cache.hits").unwrap_or(0) > 0
        }) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tss-top"))
        .arg(format!("localhost:{}", cat.tcp_addr().port()))
        .args(["--iterations", "1", "--interval", "0.1"])
        .output()
        .expect("run tss-top");
    assert!(out.status.success(), "tss-top exited non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NAME"), "header row missing:\n{stdout}");
    assert!(
        stdout.contains("bench-node"),
        "server row missing:\n{stdout}"
    );
    let row = stdout
        .lines()
        .find(|l| l.starts_with("bench-node"))
        .expect("server row");
    let rpcs: u64 = row.split_whitespace().nth(2).unwrap().parse().unwrap();
    assert!(rpcs >= 5, "RPC total should cover the driven ops: {row}");
    let hit_pct: f64 = row.split_whitespace().nth(8).unwrap().parse().unwrap();
    assert!(
        hit_pct > 0.0,
        "CACHE% should reflect the repeated preads: {row}"
    );
    let resident_kb: i64 = row.split_whitespace().nth(9).unwrap().parse().unwrap();
    assert!(
        resident_kb > 0,
        "RES(KB) should show the populated page: {row}"
    );
    // BACKP: the server registers `reactor.backpressure` at start, and
    // every registered metric is reported, so the column reads `0`.
    assert_eq!(row.split_whitespace().nth(10), Some("0"));
    assert!(!stdout.contains("PEERS"), "no federation footer:\n{stdout}");
}
