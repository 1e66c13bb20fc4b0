//! The catalog service: UDP ingest, staleness expiry, TCP publication.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chirp_proto::{Clock, Tick};
use parking_lot::RwLock;

use crate::report::ServerReport;

/// Catalog configuration.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// UDP address for report ingest; port 0 for ephemeral.
    pub bind_udp: SocketAddr,
    /// TCP address for queries; port 0 for ephemeral.
    pub bind_tcp: SocketAddr,
    /// Servers that have not reported within this window are dropped
    /// from the listing.
    pub expiry: Duration,
    /// The clock staleness is measured on. Wall time in production;
    /// the simulation harness and the expiry tests inject a virtual
    /// clock so the boundary is exact and instant.
    pub clock: Clock,
}

impl CatalogConfig {
    /// Loopback config with ephemeral ports and the given expiry.
    pub fn localhost(expiry: Duration) -> CatalogConfig {
        CatalogConfig {
            bind_udp: "127.0.0.1:0".parse().expect("valid literal"),
            bind_tcp: "127.0.0.1:0".parse().expect("valid literal"),
            expiry,
            clock: Clock::wall(),
        }
    }

    /// Measure staleness on `clock` instead of wall time.
    pub fn with_clock(mut self, clock: Clock) -> CatalogConfig {
        self.clock = clock;
        self
    }
}

struct Entry {
    report: ServerReport,
    last_seen: Tick,
}

struct State {
    entries: RwLock<HashMap<String, Entry>>,
    expiry: Duration,
    clock: Clock,
    shutdown: AtomicBool,
}

/// A running catalog server.
pub struct CatalogServer {
    state: Arc<State>,
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    udp_thread: Option<JoinHandle<()>>,
    tcp_thread: Option<JoinHandle<()>>,
}

impl CatalogServer {
    /// Start the catalog; returns once both sockets are bound.
    pub fn start(config: CatalogConfig) -> std::io::Result<CatalogServer> {
        let udp = UdpSocket::bind(config.bind_udp)?;
        udp.set_read_timeout(Some(Duration::from_millis(50)))?;
        let udp_addr = udp.local_addr()?;
        let tcp = TcpListener::bind(config.bind_tcp)?;
        let tcp_addr = tcp.local_addr()?;
        let state = Arc::new(State {
            entries: RwLock::new(HashMap::new()),
            expiry: config.expiry,
            clock: config.clock,
            shutdown: AtomicBool::new(false),
        });
        let udp_state = state.clone();
        let udp_thread = std::thread::Builder::new()
            .name("catalog-udp".into())
            .spawn(move || ingest_loop(udp, udp_state))?;
        let tcp_state = state.clone();
        let tcp_thread = std::thread::Builder::new()
            .name("catalog-tcp".into())
            .spawn(move || query_loop(tcp, tcp_state))?;
        Ok(CatalogServer {
            state,
            udp_addr,
            tcp_addr,
            udp_thread: Some(udp_thread),
            tcp_thread: Some(tcp_thread),
        })
    }

    /// Address file servers should report to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Address clients should query.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Current non-expired listing, newest data first by name order.
    pub fn listing(&self) -> Vec<ServerReport> {
        let now = self.state.clock.now();
        let entries = self.state.entries.read();
        let mut out: Vec<ServerReport> = entries
            .values()
            .filter(|e| now.duration_since(e.last_seen) < self.state.expiry)
            .map(|e| e.report.clone())
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Directly ingest a report (used by tests and simulations; the
    /// production path is UDP).
    pub fn ingest(&self, report: ServerReport) {
        ingest(&self.state, report);
    }

    /// Stop both service threads.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the TCP accept loop.
        let _ = TcpStream::connect(self.tcp_addr);
        if let Some(h) = self.udp_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.tcp_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CatalogServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn ingest(state: &State, report: ServerReport) {
    let mut entries = state.entries.write();
    let now = state.clock.now();
    // Opportunistically purge the long-dead so the map stays bounded.
    entries.retain(|_, e| now.duration_since(e.last_seen) < state.expiry * 4);
    entries.insert(
        report.name.clone(),
        Entry {
            report,
            last_seen: now,
        },
    );
}

fn ingest_loop(udp: UdpSocket, state: Arc<State>) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((n, _peer)) = udp.recv_from(&mut buf) else {
            continue; // read timeout: poll the shutdown flag
        };
        let Ok(text) = std::str::from_utf8(&buf[..n]) else {
            continue;
        };
        if let Some(report) = ServerReport::parse(text) {
            ingest(&state, report);
        }
    }
}

fn query_loop(tcp: TcpListener, state: Arc<State>) {
    loop {
        let Ok((stream, _)) = tcp.accept() else {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let state = state.clone();
        let _ = std::thread::Builder::new()
            .name("catalog-query".into())
            .spawn(move || {
                let _ = serve_query(stream, &state);
            });
    }
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Protocol: the client sends one line naming a format (`text`,
/// `json`, `html`, `metrics`, or `metrics-json`), the catalog answers
/// with the whole listing and closes. The metrics formats publish only
/// the telemetry portion of each live report, enriched with derived
/// p50/p99/mean values per histogram.
fn serve_query(stream: TcpStream, state: &State) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut format = String::new();
    reader.read_line(&mut format)?;
    let now = state.clock.now();
    let entries = state.entries.read();
    let live: Vec<&ServerReport> = {
        let mut v: Vec<&Entry> = entries
            .values()
            .filter(|e| now.duration_since(e.last_seen) < state.expiry)
            .collect();
        v.sort_by(|a, b| a.report.name.cmp(&b.report.name));
        v.into_iter().map(|e| &e.report).collect()
    };
    writer.write_all(render_listing(format.trim(), &live).as_bytes())?;
    writer.flush()
}

/// Render the live listing in one of the published query formats
/// (`text`, `json`, `html`, `metrics`, `metrics-json`; anything else
/// falls back to `text`).
///
/// Reports must already be expiry-filtered and sorted by name.
pub(crate) fn render_listing(format: &str, live: &[&ServerReport]) -> String {
    let mut out = String::new();
    match format {
        "json" => {
            let body: Vec<String> = live.iter().map(|r| r.to_json()).collect();
            out.push('[');
            out.push_str(&body.join(","));
            out.push_str("]\n");
        }
        "metrics" => {
            // ClassAd-style records, blank-line separated like `text`.
            for r in live {
                out.push_str(&r.metrics_classad());
                out.push('\n');
            }
        }
        "metrics-json" => {
            let body: Vec<String> = live
                .iter()
                .map(|r| r.metrics_json_value().render())
                .collect();
            out.push('[');
            out.push_str(&body.join(","));
            out.push_str("]\n");
        }
        "html" => {
            // A browsable listing, as the deployed catalog published.
            out.push_str(
                "<html><body><h1>Tactical Storage Catalog</h1><table border=1>\
                 <tr><th>name</th><th>owner</th><th>address</th>\
                 <th>total</th><th>free</th></tr>\n",
            );
            for r in live {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    html_escape(&r.name),
                    html_escape(&r.owner),
                    html_escape(&r.address),
                    r.total,
                    r.free
                ));
            }
            out.push_str("</table></body></html>\n");
        }
        _ => {
            for r in live {
                out.push_str(&r.render());
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report(name: &str) -> ServerReport {
        ServerReport {
            kind: "chirp".into(),
            name: name.into(),
            owner: "o".into(),
            address: format!("{name}:9094"),
            version: 1,
            total: 100,
            free: 50,
            topacl: String::new(),
            metrics: Default::default(),
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn udp_report_appears_in_listing() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(report("n1").render().as_bytes(), cat.udp_addr())
            .unwrap();
        for _ in 0..100 {
            if !cat.listing().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let listing = cat.listing();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "n1");
    }

    #[test]
    fn reports_replace_by_name_and_expire() {
        // Staleness runs on the injected clock: advance it instead of
        // sleeping, so the test is exact and instant.
        let clock = Clock::fresh_virtual();
        let cat = CatalogServer::start(
            CatalogConfig::localhost(Duration::from_millis(80)).with_clock(clock.clone()),
        )
        .unwrap();
        cat.ingest(report("n1"));
        let mut updated = report("n1");
        updated.free = 10;
        cat.ingest(updated);
        let listing = cat.listing();
        assert_eq!(listing.len(), 1, "same name replaces, not duplicates");
        assert_eq!(listing[0].free, 10);
        clock.sleep(Duration::from_millis(150));
        assert!(cat.listing().is_empty(), "stale servers expire");
    }

    #[test]
    fn expiry_boundary_is_exact() {
        // A server is live strictly within the window and gone at the
        // instant the window closes — only demonstrable with
        // controlled timestamps.
        let expiry = Duration::from_secs(300);
        let clock = Clock::fresh_virtual();
        let cat = CatalogServer::start(CatalogConfig::localhost(expiry).with_clock(clock.clone()))
            .unwrap();
        cat.ingest(report("edge"));
        clock.sleep(expiry - Duration::from_nanos(1));
        assert_eq!(cat.listing().len(), 1, "one tick inside the window");
        clock.sleep(Duration::from_nanos(1));
        assert!(cat.listing().is_empty(), "gone exactly at expiry");
    }

    #[test]
    fn refresh_resets_the_staleness_window() {
        let expiry = Duration::from_secs(60);
        let clock = Clock::fresh_virtual();
        let cat = CatalogServer::start(CatalogConfig::localhost(expiry).with_clock(clock.clone()))
            .unwrap();
        cat.ingest(report("n1"));
        clock.sleep(Duration::from_secs(45));
        cat.ingest(report("n1")); // fresh report restarts the window
        clock.sleep(Duration::from_secs(45));
        assert_eq!(cat.listing().len(), 1, "refreshed 45s ago, still live");
        clock.sleep(Duration::from_secs(16));
        assert!(cat.listing().is_empty());
    }

    #[test]
    fn malformed_packets_are_ignored() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"complete garbage \xff\xfe", cat.udp_addr())
            .unwrap();
        sock.send_to(b"type chirp\n", cat.udp_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(cat.listing().is_empty());
    }

    #[test]
    fn silent_servers_metrics_expire_with_the_report() {
        use std::io::{Read as _, Write as _};
        let clock = Clock::fresh_virtual();
        let cat = CatalogServer::start(
            CatalogConfig::localhost(Duration::from_millis(120)).with_clock(clock.clone()),
        )
        .unwrap();
        let mut r = report("quiet");
        r.metrics
            .metrics
            .insert("rpc.open.count".into(), telemetry::MetricValue::Counter(99));
        cat.ingest(r);
        let fetch = |format: &str| -> String {
            let mut s = TcpStream::connect(cat.tcp_addr()).unwrap();
            s.write_all(format!("{format}\n").as_bytes()).unwrap();
            let mut body = String::new();
            s.read_to_string(&mut body).unwrap();
            body
        };
        let live = fetch("metrics");
        assert!(live.contains("metric.rpc.open.count c99"));
        let live_json = fetch("metrics-json");
        assert!(live_json.contains("\"rpc.open.count\""));
        // The server goes silent; past the TTL, its metrics must
        // disappear from every query format.
        clock.sleep(Duration::from_millis(200));
        assert!(!fetch("metrics").contains("rpc.open.count"));
        assert_eq!(fetch("metrics-json").trim(), "[]");
        assert!(!fetch("json").contains("rpc.open.count"));
    }

    #[test]
    fn metrics_json_preserves_exact_u64_counters() {
        use std::io::{Read as _, Write as _};
        // Counters near u64::MAX must survive the whole publication
        // path — snapshot → JSON render → wire → parse — without any
        // float rounding (2^64-1 is not representable as f64).
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let mut r = report("edge");
        r.metrics.metrics.insert(
            "rpc.pwrite.bytes".into(),
            telemetry::MetricValue::Counter(u64::MAX),
        );
        cat.ingest(r);
        let mut s = TcpStream::connect(cat.tcp_addr()).unwrap();
        s.write_all(b"metrics-json\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        assert!(
            body.contains(&u64::MAX.to_string()),
            "digits not verbatim in {body}"
        );
        let parsed = telemetry::json::Value::parse(body.trim()).expect("valid JSON");
        let entry = match &parsed {
            telemetry::json::Value::Array(items) => &items[0],
            other => panic!("expected array, got {other:?}"),
        };
        let counter = entry
            .get("metrics")
            .and_then(|m| m.get("rpc.pwrite.bytes"))
            .expect("counter present");
        // Counters encode as {"counter":N}; demand the exact value.
        let value = counter.get("counter").and_then(|v| v.as_u64());
        assert_eq!(value, Some(u64::MAX));
    }

    #[test]
    fn multiple_catalogs_are_independent() {
        let cat1 = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let cat2 = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        cat1.ingest(report("only-in-1"));
        assert_eq!(cat1.listing().len(), 1);
        assert!(cat2.listing().is_empty());
    }
}
