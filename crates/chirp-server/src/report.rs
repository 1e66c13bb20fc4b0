//! Periodic catalog reporting.
//!
//! Each file server describes itself to one or more catalogs over UDP:
//! owner, address, capacity, free space, top-level ACL, and activity
//! counters. Catalogs expire servers that stop reporting, so a report
//! is sent immediately at startup and then on a fixed interval. All
//! catalog data is necessarily stale; abstractions must re-verify
//! anything they learn from it.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::escape::escape;

use crate::acl::Acl;
use crate::handlers::disk_usage;
use crate::server::Shared;

/// Compose one report packet in the `key value` line format the
/// catalog ingests.
pub fn compose_report(shared: &Shared, addr: SocketAddr) -> String {
    let name = shared
        .config
        .server_name
        .clone()
        .unwrap_or_else(|| addr.to_string());
    let used = disk_usage(&shared.fs);
    let total = shared.config.capacity_bytes;
    let topacl = Acl::load_effective_in(&shared.fs, "/")
        .map(|a| a.render())
        .unwrap_or_default();
    let stats = shared.stats.snapshot();
    let mut out = String::new();
    out.push_str("type chirp\n");
    out.push_str(&format!("name {}\n", escape(name.as_bytes())));
    out.push_str(&format!(
        "owner {}\n",
        escape(shared.config.owner.as_bytes())
    ));
    out.push_str(&format!("address {addr}\n"));
    out.push_str(&format!("version {}\n", chirp_proto::PROTOCOL_VERSION));
    out.push_str(&format!("total {total}\n"));
    out.push_str(&format!("free {}\n", total.saturating_sub(used)));
    out.push_str(&format!("topacl {}\n", escape(topacl.as_bytes())));
    out.push_str(&format!("connections {}\n", stats.connections));
    out.push_str(&format!("requests {}\n", stats.requests));
    // Fold the telemetry registry in under `m.` keys: per-op counts,
    // error/denial counters, and latency histograms, all as single
    // space-free tokens so the report stays a flat `key value` packet
    // that old catalogs pass through as unknown keys.
    for (name, value) in shared.telemetry.registry().snapshot().metrics {
        out.push_str(&format!("m.{name} {}\n", value.encode()));
    }
    out
}

/// Send one report to every configured catalog. Best-effort: a dead
/// catalog must never take the file server down with it.
pub fn send_report(shared: &Shared, addr: SocketAddr) {
    let Ok(socket) = UdpSocket::bind("0.0.0.0:0") else {
        return;
    };
    let packet = compose_report(shared, addr);
    for catalog in &shared.config.catalogs {
        let _ = socket.send_to(packet.as_bytes(), catalog);
    }
}

/// Body of the reporting thread: report immediately, then on the
/// configured interval, polling the shutdown flag often enough to exit
/// promptly.
pub fn report_loop(shared: Arc<Shared>, addr: SocketAddr) {
    send_report(&shared, addr);
    let tick = Duration::from_millis(25);
    let mut since_report = Duration::ZERO;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(tick);
        since_report += tick;
        if since_report >= shared.config.report_interval {
            send_report(&shared, addr);
            since_report = Duration::ZERO;
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests lay out the export before a server starts on it"
)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use chirp_proto::testutil::TempDir;

    fn shared(root: &std::path::Path) -> Arc<Shared> {
        Shared::new(ServerConfig::localhost(root, "alice")).unwrap()
    }

    #[test]
    fn report_contains_vitals() {
        let dir = TempDir::new();
        std::fs::write(dir.path().join("data"), vec![0u8; 1000]).unwrap();
        let sh = shared(dir.path());
        let report = compose_report(&sh, "127.0.0.1:9094".parse().unwrap());
        assert!(report.contains("type chirp"));
        assert!(report.contains("owner alice"));
        assert!(report.contains("address 127.0.0.1:9094"));
        let free_line = report
            .lines()
            .find(|l| l.starts_with("free "))
            .expect("free line");
        let free: u64 = free_line[5..].parse().unwrap();
        assert_eq!(free, sh.config.capacity_bytes - 1000);
    }

    #[test]
    fn report_is_one_udp_packet_sized() {
        let dir = TempDir::new();
        let sh = shared(dir.path());
        let report = compose_report(&sh, "127.0.0.1:9094".parse().unwrap());
        assert!(report.len() < 8192, "report must fit a UDP datagram");
    }
}
