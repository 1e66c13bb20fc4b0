//! Shared helpers for tss-core integration tests, which run the
//! abstractions against real file servers over loopback TCP. Injected
//! faults and recovery are tested on simulated time instead, in
//! `crates/simharness/tests/chaos_sim.rs`.
//!
//! Each integration test binary compiles this module separately, so
//! items used by only one binary look dead in the others.
#![allow(dead_code)]

use std::path::Path;
use std::time::Duration;

use chirp_client::AuthMethod;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use tss_core::cfs::{Cfs, CfsConfig, RetryPolicy};

/// Network timeout for tests: short, so failure paths stay fast.
pub const TIMEOUT: Duration = Duration::from_millis(2000);

/// Start a file server granting full non-admin rights to hostname
/// subjects.
pub fn open_server(root: &Path) -> FileServer {
    let cfg = ServerConfig::localhost(root, "test-owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    FileServer::start(cfg).unwrap()
}

/// Hostname auth, the default for loopback tests.
pub fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// A CFS with a fast retry policy suited to tests.
pub fn cfs(endpoint: &str) -> Cfs {
    let mut cfg = CfsConfig::new(endpoint, auth());
    cfg.timeout = TIMEOUT;
    cfg.retry = RetryPolicy {
        max_retries: 5,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    Cfs::new(cfg)
}

/// Count the data files in a host directory, ignoring the server's
/// private ACL metadata.
pub fn data_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().as_ref() != ".__acl")
        .count()
}
