//! End-to-end observability: a real file server performs RPCs for a
//! real client, folds its telemetry into the periodic UDP catalog
//! report, and a real catalog republishes it over TCP in both the
//! ClassAd text and JSON metrics formats — the full pipeline the
//! ISSUE's acceptance gate names.

use std::time::Duration;

use catalog::client::fetch;
use catalog::{CatalogConfig, CatalogServer, ServerReport};
use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::Dialer;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use telemetry::json::Value;
use telemetry::MetricsSnapshot;

const T: Duration = Duration::from_secs(5);

/// Poll the catalog until a predicate over the listing holds.
fn wait_for(cat: &CatalogServer, pred: impl Fn(&[ServerReport]) -> bool) -> Vec<ServerReport> {
    for _ in 0..400 {
        let listing = cat.listing();
        if pred(&listing) {
            return listing;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "catalog never satisfied the predicate; listing: {:?}",
        cat.listing()
    );
}

#[test]
fn server_metrics_flow_through_the_catalog() {
    let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(30))).unwrap();
    let dir = TempDir::new();
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap())
        .with_catalog(cat.udp_addr().unwrap(), Duration::from_millis(50));
    let server = FileServer::start(cfg).unwrap();

    // Drive real RPC traffic through the server.
    let mut conn = Connection::connect(server.addr(), T).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn.putfile("/hello", 0o644, b"tactical storage").unwrap();
    assert_eq!(conn.getfile("/hello").unwrap(), b"tactical storage");
    for _ in 0..5 {
        conn.stat("/hello").unwrap();
    }
    drop(conn);

    // Wait until a report carrying those RPCs lands in the catalog
    // (reports race with the RPCs above, so wait for the counters,
    // not merely for presence).
    let listing = wait_for(&cat, |l| {
        l.first()
            .map(|r| {
                r.metrics.counter("rpc.stat.count").unwrap_or(0) >= 5
                    && r.metrics.counter("rpc.putfile.count").unwrap_or(0) >= 1
            })
            .unwrap_or(false)
    });
    let report = &listing[0];

    // The structured snapshot made it through the UDP packet intact.
    assert!(report.metrics.counter("rpc.getfile.count").unwrap() >= 1);
    let lat = report
        .metrics
        .histogram("rpc.latency_ns")
        .expect("latency histogram");
    assert!(lat.count >= 8, "every RPC lands in the latency histogram");
    assert!(lat.quantile(0.99) >= lat.quantile(0.50));
    assert!(
        report.metrics.counter_sum("rpc.") > 0,
        "per-op counters present"
    );
    assert!(report.metrics.counter("rpc.bytes_out").unwrap() >= 16);

    // ClassAd metrics view: per-metric lines plus derived quantiles.
    let text = fetch(&Dialer::tcp(), &cat.tcp_addr().to_string(), "metrics", T).unwrap();
    assert!(text.contains("metric.rpc.stat.count c"));
    let p99_line = text
        .lines()
        .find(|l| l.starts_with("metric.rpc.latency_ns.p99 "))
        .expect("p99 line in ClassAd metrics");
    let p99: u64 = p99_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(p99 > 0, "p99 must be a positive latency");
    assert!(text.contains("metric.rpc.latency_ns.p50 "));

    // JSON metrics view: an array of per-server objects whose
    // histogram members carry p50/p99 and still decode back into a
    // MetricsSnapshot equal to what the server published.
    let json = fetch(
        &Dialer::tcp(),
        &cat.tcp_addr().to_string(),
        "metrics-json",
        T,
    )
    .unwrap();
    let parsed = Value::parse(json.trim()).expect("valid JSON");
    let servers = parsed.as_array().expect("array of servers");
    assert_eq!(servers.len(), 1);
    let entry = &servers[0];
    assert!(entry.get("name").unwrap().as_str().is_some());
    let hist = entry
        .get("metrics")
        .unwrap()
        .get("rpc.latency_ns")
        .expect("latency histogram in JSON");
    assert!(hist.get("p50").unwrap().as_u64().unwrap() > 0);
    assert!(hist.get("p99").unwrap().as_u64().unwrap() > 0);
    let snap = MetricsSnapshot::from_json_value(entry.get("metrics").unwrap()).expect("decodes");
    assert_eq!(&snap, &report.metrics, "JSON round-trips the snapshot");
}

#[test]
fn acl_denials_are_counted_and_published() {
    let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(30))).unwrap();
    let dir = TempDir::new();
    // Read/list only: writes draw NotAuthorized.
    let cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rl").unwrap())
        .with_catalog(cat.udp_addr().unwrap(), Duration::from_millis(50));
    let server = FileServer::start(cfg).unwrap();

    let mut conn = Connection::connect(server.addr(), T).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    for _ in 0..3 {
        conn.mkdir("/nope", 0o755).unwrap_err();
    }
    drop(conn);

    let listing = wait_for(&cat, |l| {
        l.first()
            .map(|r| r.metrics.counter("rpc.acl_denied").unwrap_or(0) >= 3)
            .unwrap_or(false)
    });
    let m = &listing[0].metrics;
    assert!(m.counter("rpc.errors").unwrap() >= 3);
    assert_eq!(m.counter("rpc.mkdir.count"), Some(3));
}
