//! Runtime resource discovery: turning a catalog listing into a data
//! pool.
//!
//! "Users and abstractions contact catalogs directly in order to
//! discover new storage resources" (§2). This module is that contact
//! point: query a catalog, filter the listing by policy (minimum free
//! space, owner), and produce the [`DataServer`] pool an abstraction
//! is built from. Catalog data is necessarily stale, so the pool is a
//! *hint* — the servers themselves are the authority, and every
//! operation re-verifies by simply being attempted.

use std::io;
use std::time::Duration;

use catalog::client::{fetch, parse_listing};
use catalog::ServerReport;
use chirp_client::AuthMethod;
use chirp_proto::transport::Dialer;
use chirp_proto::wildcard_match;

use crate::stubfs::DataServer;

/// Selection policy applied to a catalog listing.
#[derive(Debug, Clone, Default)]
pub struct PoolPolicy {
    /// Reject servers reporting less free space than this.
    pub min_free: u64,
    /// If set, accept only servers whose owner matches this wildcard
    /// pattern (`*` matches any run of characters).
    pub owner_pattern: Option<String>,
    /// Cap the pool at this many servers (most-free first); `None`
    /// takes everything that qualifies.
    pub max_servers: Option<usize>,
}

/// Filter and rank a listing into pool candidates (most free space
/// first).
pub fn select(reports: &[ServerReport], policy: &PoolPolicy) -> Vec<ServerReport> {
    let mut picked: Vec<&ServerReport> = reports
        .iter()
        .filter(|r| r.kind == "chirp")
        .filter(|r| r.free >= policy.min_free)
        .filter(|r| {
            policy
                .owner_pattern
                .as_deref()
                .is_none_or(|p| wildcard_match(p, &r.owner))
        })
        .collect();
    picked.sort_by(|a, b| b.free.cmp(&a.free).then(a.name.cmp(&b.name)));
    if let Some(cap) = policy.max_servers {
        picked.truncate(cap);
    }
    picked.into_iter().cloned().collect()
}

/// Query the catalog at `catalog` through `dialer` and build a data
/// pool: each qualifying server contributes `volume` with the given
/// `auth`.
pub fn discover_pool(
    dialer: &Dialer,
    catalog: &str,
    timeout: Duration,
    policy: &PoolPolicy,
    volume: &str,
    auth: Vec<AuthMethod>,
) -> io::Result<Vec<DataServer>> {
    let listing = parse_listing(&fetch(dialer, catalog, "text", timeout)?);
    Ok(select(&listing, policy)
        .into_iter()
        .map(|r| DataServer::new(&r.address, volume, auth.clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report(name: &str, owner: &str, free: u64) -> ServerReport {
        ServerReport {
            kind: "chirp".into(),
            name: name.into(),
            owner: owner.into(),
            address: format!("{name}:9094"),
            version: 1,
            total: 1 << 30,
            free,
            topacl: String::new(),
            metrics: Default::default(),
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn selection_filters_and_ranks_by_free_space() {
        let reports = vec![
            report("tiny", "alice", 100),
            report("big", "alice", 10_000),
            report("mid", "bob", 5_000),
        ];
        let policy = PoolPolicy {
            min_free: 1_000,
            ..PoolPolicy::default()
        };
        let picked = select(&reports, &policy);
        let names: Vec<&str> = picked.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["big", "mid"]);
    }

    #[test]
    fn owner_pattern_restricts_to_trusted_providers() {
        // The independence principle: build only from people you
        // trust.
        let reports = vec![
            report("a", "alice", 1000),
            report("b", "mallory", 1000),
            report("c", "albert", 1000),
        ];
        let policy = PoolPolicy {
            owner_pattern: Some("al*".into()),
            ..PoolPolicy::default()
        };
        let picked = select(&reports, &policy);
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|r| r.owner.starts_with("al")));
    }

    #[test]
    fn max_servers_caps_the_pool() {
        let reports: Vec<ServerReport> = (0..10)
            .map(|i| report(&format!("s{i}"), "o", 1000 + i))
            .collect();
        let policy = PoolPolicy {
            max_servers: Some(3),
            ..PoolPolicy::default()
        };
        let picked = select(&reports, &policy);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[0].free, 1009, "most free first");
    }

    #[test]
    fn non_chirp_records_are_ignored() {
        let mut other = report("db", "o", 1 << 40);
        other.kind = "gemsdb".into();
        let picked = select(&[other], &PoolPolicy::default());
        assert!(picked.is_empty());
    }
}
