//! `tss-top` — live per-server RPC activity from a catalog.
//!
//! Polls a catalog's `metrics-json` query interface and renders a
//! table of per-server RPC totals, rates (from successive samples),
//! error counts, and latency quantiles — the observability face of
//! the telemetry the file servers fold into their reports.
//!
//! Usage: `tss-top <catalog-host:port> [--interval SECS]
//! [--iterations N]`. With `--iterations 0` (default) it runs until
//! interrupted; tests pass a small count to get a bounded run.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use telemetry::json::Value;
use telemetry::{MetricValue, MetricsSnapshot};

struct Row {
    name: String,
    address: String,
    rpcs: u64,
    rate: f64,
    errors: u64,
    p50_us: f64,
    p99_us: f64,
    free: Option<u64>,
    /// Buffer-cache hit rate and resident bytes, when the server runs
    /// one (`--cache-bytes`); servers without a cache report neither
    /// counter and show `-`.
    cache: Option<(f64, i64)>,
    /// Reactor slow-reader backpressure events; `-` for servers that
    /// predate the reactor core and report no `reactor.*` counters.
    backpressure: Option<u64>,
}

fn fetch(
    addr: SocketAddr,
    timeout: Duration,
) -> std::io::Result<Vec<(String, String, MetricsSnapshot)>> {
    let body = catalog::client::query_metrics_json(addr, timeout)?;
    let parsed = Value::parse(body.trim())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad JSON"))?;
    let mut out = Vec::new();
    for entry in parsed.as_array().unwrap_or(&[]) {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let address = entry
            .get("address")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let snap = entry
            .get("metrics")
            .and_then(MetricsSnapshot::from_json_value)
            .unwrap_or_default();
        out.push((name, address, snap));
    }
    Ok(out)
}

/// Free space per server comes from the full listing, not the metrics
/// view; fold it in opportunistically.
fn free_by_name(addr: SocketAddr, timeout: Duration) -> HashMap<String, u64> {
    catalog::query(addr, timeout)
        .map(|reports| reports.into_iter().map(|r| (r.name, r.free)).collect())
        .unwrap_or_default()
}

fn rows(
    servers: &[(String, String, MetricsSnapshot)],
    prev: &HashMap<String, (u64, Instant)>,
    free: &HashMap<String, u64>,
) -> Vec<Row> {
    servers
        .iter()
        .map(|(name, address, snap)| {
            let rpcs = snap
                .metrics
                .iter()
                .filter(|(k, _)| k.starts_with("rpc.") && k.ends_with(".count"))
                .map(|(_, v)| match v {
                    MetricValue::Counter(n) => *n,
                    _ => 0,
                })
                .sum::<u64>();
            let rate = prev
                .get(name)
                .map(|(old, at)| {
                    let dt = at.elapsed().as_secs_f64();
                    if dt > 0.0 {
                        rpcs.saturating_sub(*old) as f64 / dt
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0);
            let (p50_us, p99_us) = snap
                .histogram("rpc.latency_ns")
                .map(|h| (h.quantile(0.50) as f64 / 1e3, h.quantile(0.99) as f64 / 1e3))
                .unwrap_or((0.0, 0.0));
            let cache = snap.counter("cache.hits").map(|hits| {
                let misses = snap.counter("cache.misses").unwrap_or(0);
                let rate = if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                };
                let resident = match snap.metrics.get("cache.resident_bytes") {
                    Some(MetricValue::Gauge(b)) => *b,
                    _ => 0,
                };
                (rate, resident)
            });
            Row {
                name: name.clone(),
                address: address.clone(),
                rpcs,
                rate,
                errors: snap.counter("rpc.errors").unwrap_or(0),
                p50_us,
                p99_us,
                free: free.get(name).copied(),
                cache,
                backpressure: snap.counter("reactor.backpressure"),
            }
        })
        .collect()
}

fn render(rows: &[Row]) {
    // New columns go at the end: scripts (and the tss_top test)
    // address existing ones by position.
    println!(
        "{:<28} {:<22} {:>8} {:>8} {:>6} {:>9} {:>9} {:>10} {:>7} {:>9} {:>6}",
        "NAME",
        "ADDRESS",
        "RPCS",
        "RPC/S",
        "ERRS",
        "P50(us)",
        "P99(us)",
        "FREE(MB)",
        "CACHE%",
        "RES(KB)",
        "BACKP"
    );
    for r in rows {
        let free = r
            .free
            .map(|f| format!("{}", f / (1 << 20)))
            .unwrap_or_else(|| "-".to_string());
        let (hit, res) = r
            .cache
            .map(|(rate, resident)| {
                (
                    format!("{:.1}", rate * 100.0),
                    format!("{}", resident / 1024),
                )
            })
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        let backp = r
            .backpressure
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<28} {:<22} {:>8} {:>8.1} {:>6} {:>9.1} {:>9.1} {:>10} {:>7} {:>9} {:>6}",
            r.name, r.address, r.rpcs, r.rate, r.errors, r.p50_us, r.p99_us, free, hit, res, backp
        );
    }
    if rows.is_empty() {
        println!("(no servers reporting)");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut catalog_addr: Option<SocketAddr> = None;
    let mut interval = Duration::from_secs(2);
    let mut iterations: u64 = 0;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--interval" => {
                i += 1;
                let secs: f64 = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--interval needs a number of seconds");
                    std::process::exit(2);
                });
                interval = Duration::from_secs_f64(secs);
            }
            "--iterations" => {
                i += 1;
                iterations = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--iterations needs a count");
                    std::process::exit(2);
                });
            }
            other => {
                catalog_addr = other.parse().ok();
                if catalog_addr.is_none() {
                    eprintln!("unrecognized argument or bad address: {other}");
                    eprintln!(
                        "usage: tss-top <catalog-host:port> [--interval SECS] [--iterations N]"
                    );
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    let Some(addr) = catalog_addr else {
        eprintln!("usage: tss-top <catalog-host:port> [--interval SECS] [--iterations N]");
        std::process::exit(2);
    };

    let timeout = Duration::from_secs(5);
    let mut prev: HashMap<String, (u64, Instant)> = HashMap::new();
    let mut round = 0u64;
    loop {
        match fetch(addr, timeout) {
            Ok(servers) => {
                let free = free_by_name(addr, timeout);
                let table = rows(&servers, &prev, &free);
                let now = Instant::now();
                for r in &table {
                    prev.insert(r.name.clone(), (r.rpcs, now));
                }
                println!();
                render(&table);
            }
            Err(e) => eprintln!("query {addr} failed: {e}"),
        }
        round += 1;
        if iterations > 0 && round >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
}
