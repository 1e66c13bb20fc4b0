//! Querying a catalog for the current set of storage resources.

use std::io::{BufReader, Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

use chirp_proto::transport::Dialer;

use crate::report::ServerReport;

/// Fetch the text-format listing from a catalog over TCP and parse it:
/// [`fetch`] through [`Dialer::tcp`].
///
/// Returns the live (non-expired) servers the catalog knows of. The
/// result is a *hint*: every field may be stale by the time it is
/// acted upon.
pub fn query(addr: SocketAddr, timeout: Duration) -> std::io::Result<Vec<ServerReport>> {
    let body = fetch(&Dialer::tcp(), &addr.to_string(), "text", timeout)?;
    Ok(parse_listing(&body))
}

/// Fetch one listing format from the catalog at `endpoint` through
/// `dialer`, returning the raw body. The formats are `text` (parse it
/// with [`parse_listing`]), `json`, `html`, `metrics` (ClassAd-style
/// records of `metric.<name> <token>` lines with derived
/// `.p50`/`.p99`/`.mean` values per histogram) and `metrics-json`.
pub fn fetch(
    dialer: &Dialer,
    endpoint: &str,
    format: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let stream = dialer.dial(endpoint, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{format}\n").as_bytes())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok(body)
}

/// Split a text listing (blank-line separated records) into reports.
pub fn parse_listing(body: &str) -> Vec<ServerReport> {
    body.split("\n\n").filter_map(ServerReport::parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CatalogConfig, CatalogServer};
    use std::collections::BTreeMap;

    fn report(name: &str, free: u64) -> ServerReport {
        ServerReport {
            kind: "chirp".into(),
            name: name.into(),
            owner: "o".into(),
            address: format!("{name}:9094"),
            version: 1,
            total: 100,
            free,
            topacl: String::new(),
            metrics: Default::default(),
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn query_round_trips_reports() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        cat.ingest(report("alpha", 10));
        cat.ingest(report("beta", 20));
        let listing = query(cat.tcp_addr(), Duration::from_secs(5)).unwrap();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].name, "alpha");
        assert_eq!(listing[1].free, 20);
    }

    #[test]
    fn json_listing_is_an_array() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        cat.ingest(report("alpha", 10));
        let endpoint = cat.tcp_addr().to_string();
        let json = fetch(&Dialer::tcp(), &endpoint, "json", Duration::from_secs(5)).unwrap();
        let json = json.trim();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"alpha\""));
    }

    #[test]
    fn html_listing_is_browsable_and_escaped() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let mut evil = report("x<script>", 10);
        evil.owner = "a&b".into();
        cat.ingest(evil);
        let endpoint = cat.tcp_addr().to_string();
        let html = fetch(&Dialer::tcp(), &endpoint, "html", Duration::from_secs(5)).unwrap();
        assert!(html.contains("<table"));
        assert!(html.contains("x&lt;script&gt;"));
        assert!(html.contains("a&amp;b"));
        assert!(!html.contains("<script>"));
    }

    #[test]
    fn empty_catalog_yields_empty_listing() {
        let cat = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(5))).unwrap();
        let listing = query(cat.tcp_addr(), Duration::from_secs(5)).unwrap();
        assert!(listing.is_empty());
    }

    #[test]
    fn parse_listing_skips_garbage_records() {
        let good = report("ok", 1).render();
        let body = format!("{good}\nnot a record\n\n{good}");
        // First chunk still parses (extra junk key), second is the
        // same record again; name-keyed dedup happens catalog-side,
        // not here.
        let reports = parse_listing(&body);
        assert!(!reports.is_empty());
    }
}
