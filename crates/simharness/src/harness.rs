//! Whole-system TSS instances in one process.
//!
//! [`SimTss`] stands up N real [`FileServer`]s — the production accept
//! loop, handler stack, ACL enforcement, everything — on the in-memory
//! network instead of TCP, with every timing decision (retry backoff,
//! breaker cooldowns, idle eviction, catalog staleness) measured on one
//! shared virtual clock. A multi-server instance with striping,
//! mirroring, and fault injection therefore runs with no ports, no
//! sleeps, and no wall-clock dependence: a chaos scenario that
//! nominally waits out seconds of backoff completes in milliseconds
//! and behaves identically on a loaded CI machine.
//!
//! An instance may also host a catalog on the same network and clock.
//! Its servers do not report by themselves: [`SimTss::report`] is one
//! round of reports, each composed exactly as a server's report thread
//! would send it, and a seeded [`ReportLoss`] plan decides which are
//! lost on the way.

use std::sync::Arc;
use std::time::Duration;

use catalog::{CatalogConfig, CatalogServer, ServerReport};
use chirp_client::{AuthMethod, Connection};
use chirp_proto::persist::Persist;
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::Dialer;
use chirp_proto::{Clock, MemNet, VirtualClock};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, KeyRing, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tss_core::cfs::{CfsConfig, RetryPolicy};
use tss_core::stubfs::{DataServer, StubFsOptions};

/// Network timeout used by simulated clients. Generous because it
/// bounds *real* waiting only when something is genuinely stuck; the
/// virtual clock carries the semantic timing.
pub const SIM_TIMEOUT: Duration = Duration::from_secs(5);

/// Builder for a [`SimTss`] instance.
pub struct SimTssBuilder {
    servers: usize,
    root_acl: Acl,
    cache_bytes: Option<u64>,
    persistence: Persist,
    max_connections: Option<usize>,
    reactor_workers: usize,
    keys: Option<KeyRing>,
    catalog_expiry: Option<Duration>,
}

impl SimTssBuilder {
    /// Number of file servers to start (default 1).
    pub fn servers(mut self, n: usize) -> SimTssBuilder {
        self.servers = n;
        self
    }

    /// Durability-point observer installed on every server (default:
    /// none). The crash harness passes a shared
    /// [`chirp_proto::CrashPoint`] here so server-side mutations are
    /// journaled and killable.
    pub fn persistence(mut self, persistence: Persist) -> SimTssBuilder {
        self.persistence = persistence;
        self
    }

    /// Server-side buffer cache budget, `None` to disable (default:
    /// 64 KiB, deliberately tiny so every simulated workload crosses
    /// the hit, miss, *and* eviction paths).
    pub fn cache_bytes(mut self, bytes: Option<u64>) -> SimTssBuilder {
        self.cache_bytes = bytes;
        self
    }

    /// Root ACL installed on every server (default: `hostname:*`
    /// gets `rwlda`, so any simulated client has full non-reserve
    /// rights).
    pub fn root_acl(mut self, acl: Acl) -> SimTssBuilder {
        self.root_acl = acl;
        self
    }

    /// Per-server connection limit (default: the production default).
    /// The idle-connection soak raises it to hold thousands of
    /// simultaneous clients on one simulated server.
    pub fn max_connections(mut self, n: usize) -> SimTssBuilder {
        self.max_connections = Some(n);
        self
    }

    /// Reactor shards per server (default: the production default).
    /// One shard is where a request that blocked its serving thread
    /// would stall everything else on the server.
    pub fn reactor_workers(mut self, n: usize) -> SimTssBuilder {
        self.reactor_workers = n;
        self
    }

    /// Key ring installed on every server (default: empty). Handing the
    /// same [`KeyRing`] to the builder and keeping a clone lets a
    /// scenario rotate credentials under live simulated load — the
    /// ring is a shared handle, so rotation is visible to the servers
    /// instantly.
    pub fn keys(mut self, ring: KeyRing) -> SimTssBuilder {
        self.keys = Some(ring);
        self
    }

    /// Host a catalog that expires a server `expiry` after its last
    /// report, measured on the instance's virtual clock (default: no
    /// catalog). It serves queries on the in-memory network at
    /// [`SimTss::catalog_endpoint`]; reports reach it only through
    /// [`SimTss::report`].
    pub fn catalog(mut self, expiry: Duration) -> SimTssBuilder {
        self.catalog_expiry = Some(expiry);
        self
    }

    /// Start the instance.
    pub fn build(self) -> SimTss {
        let vclock = VirtualClock::new();
        let clock = Clock::virtual_at(vclock.clone());
        let net = MemNet::new(clock.clone());
        let mut servers = Vec::new();
        let mut configs = Vec::new();
        let mut roots = Vec::new();
        for _ in 0..self.servers {
            let root = sim_root();
            let cfg = ServerConfig::localhost(root.path(), "sim-owner")
                .with_root_acl(self.root_acl.clone());
            let mut cfg = ServerConfig {
                dialer: net.dialer(),
                cache_bytes: self.cache_bytes,
                persistence: self.persistence.clone(),
                reactor_workers: self.reactor_workers,
                ..cfg
            };
            if let Some(n) = self.max_connections {
                cfg.max_connections = n;
            }
            if let Some(ring) = &self.keys {
                cfg.keys = ring.clone();
            }
            let listener = net.listen();
            let server =
                FileServer::start_on(cfg.clone(), Arc::new(listener)).expect("start sim server");
            servers.push(server);
            configs.push(cfg);
            roots.push(root);
        }
        let catalog = self.catalog_expiry.map(|expiry| {
            let config = CatalogConfig::localhost(expiry).with_clock(clock.clone());
            CatalogServer::start_on(config, Arc::new(net.listen())).expect("start sim catalog")
        });
        SimTss {
            clock,
            vclock,
            net,
            live: vec![true; servers.len()],
            servers,
            configs,
            roots,
            catalog,
        }
    }
}

/// A seeded plan of lost catalog reports: each report is dropped with
/// probability `loss`, drawn in server order from a generator seeded
/// like a fault plan, so a run replays exactly from its seed.
pub struct ReportLoss {
    rng: SmallRng,
    loss: f64,
}

impl ReportLoss {
    /// Drop each report with probability `loss`, drawing from `seed`.
    pub fn new(seed: u64, loss: f64) -> ReportLoss {
        ReportLoss {
            rng: SmallRng::seed_from_u64(seed),
            loss,
        }
    }

    /// Deliver every report.
    pub fn none() -> ReportLoss {
        ReportLoss::new(0, 0.0)
    }
}

/// A multi-server TSS instance running entirely in-process.
pub struct SimTss {
    clock: Clock,
    vclock: Arc<VirtualClock>,
    net: MemNet,
    servers: Vec<FileServer>,
    configs: Vec<ServerConfig>,
    roots: Vec<TempDir>,
    /// Per server: not killed, so it still reports.
    live: Vec<bool>,
    catalog: Option<CatalogServer>,
}

impl SimTss {
    /// Start building an instance.
    pub fn builder() -> SimTssBuilder {
        SimTssBuilder {
            servers: 1,
            root_acl: Acl::single("hostname:*", "rwlda").expect("valid rights"),
            cache_bytes: Some(64 * 1024),
            persistence: Persist::none(),
            max_connections: None,
            reactor_workers: 0,
            keys: None,
            catalog_expiry: None,
        }
    }

    /// The shared virtual clock handle.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying [`VirtualClock`] (for asserting on elapsed
    /// simulated time).
    pub fn virtual_clock(&self) -> &Arc<VirtualClock> {
        &self.vclock
    }

    /// The in-memory network.
    pub fn net(&self) -> &MemNet {
        &self.net
    }

    /// A dialer reaching the instance's servers.
    pub fn dialer(&self) -> Dialer {
        self.net.dialer()
    }

    /// The running servers.
    pub fn servers(&self) -> &[FileServer] {
        &self.servers
    }

    /// Endpoint (`host:port`) of server `i`.
    pub fn endpoint(&self, i: usize) -> String {
        self.servers[i].endpoint()
    }

    /// Host root directory of server `i` (for white-box assertions).
    pub fn root(&self, i: usize) -> &std::path::Path {
        self.roots[i].path()
    }

    /// An authenticated connection to server `i` over the in-memory
    /// network.
    pub fn connect(&self, i: usize) -> Connection {
        self.connect_via(&self.dialer(), i)
    }

    /// An authenticated connection to server `i` through a custom
    /// dialer (typically a fault-injecting wrapper).
    pub fn connect_via(&self, dialer: &Dialer, i: usize) -> Connection {
        let mut conn = Connection::connect_via(dialer, &self.endpoint(i), SIM_TIMEOUT)
            .expect("dial sim server");
        conn.authenticate(&auth()).expect("hostname auth");
        conn
    }

    /// The subject simulated clients authenticate as.
    pub fn subject(&self) -> String {
        let mut conn = self.connect(0);
        conn.whoami().expect("whoami")
    }

    /// A [`CfsConfig`] for server `i` wired to the in-memory network
    /// and the shared virtual clock, with a fast retry policy.
    pub fn cfs_config(&self, i: usize) -> CfsConfig {
        let mut cfg = CfsConfig::new(&self.endpoint(i), auth());
        cfg.timeout = SIM_TIMEOUT;
        cfg.retry = sim_retry();
        cfg.dialer = self.dialer();
        cfg.clock = self.clock.clone();
        cfg
    }

    /// [`StubFsOptions`] wired to the in-memory network and virtual
    /// clock (for pools, mirrored and striped abstractions).
    pub fn stubfs_options(&self) -> StubFsOptions {
        StubFsOptions {
            timeout: SIM_TIMEOUT,
            retry: sim_retry(),
            dialer: self.dialer(),
            clock: self.clock.clone(),
            ..StubFsOptions::default()
        }
    }

    /// A [`DataServer`] record for server `i` (pool construction).
    pub fn data_server(&self, i: usize, volume: &str) -> DataServer {
        DataServer::new(&self.endpoint(i), volume, auth())
    }

    /// The hosted catalog. Panics unless the instance was built with
    /// [`SimTssBuilder::catalog`].
    pub fn catalog(&self) -> &CatalogServer {
        self.catalog
            .as_ref()
            .expect("SimTss built without a catalog")
    }

    /// Endpoint (`host:port`) the hosted catalog answers queries on.
    pub fn catalog_endpoint(&self) -> String {
        self.catalog().tcp_addr().to_string()
    }

    /// One round of catalog reports at the current virtual time: every
    /// server not killed composes its report
    /// ([`FileServer::compose_report`]), and `loss` decides whether it
    /// reaches the catalog. Returns the indices of the servers whose
    /// report was delivered, in order.
    pub fn report(&self, loss: &mut ReportLoss) -> Vec<usize> {
        let catalog = self.catalog();
        let mut delivered = Vec::new();
        for (i, server) in self.servers.iter().enumerate() {
            if !self.live[i] || loss.rng.gen_bool(loss.loss) {
                continue;
            }
            let report = ServerReport::parse(&server.compose_report()).expect("parseable report");
            catalog.ingest(report);
            delivered.push(i);
        }
        delivered
    }

    /// Restart server `i` as a host restart would: shut it down, which
    /// closes every live connection, then start a fresh server process
    /// on the same root at the same address. Dials in between are
    /// refused.
    pub fn restart(&mut self, i: usize) {
        let addr = self.servers[i].addr();
        self.kill(i);
        let listener = self.net.listen_at(addr).expect("rebind sim address");
        self.servers[i] = FileServer::start_on(self.configs[i].clone(), Arc::new(listener))
            .expect("restart sim server");
        self.live[i] = true;
    }

    /// Kill server `i` for good, as a host death would: shut it down,
    /// which closes every live connection, and unbind its address, so
    /// every later dial is refused. A killed server sends no more
    /// catalog reports.
    pub fn kill(&mut self, i: usize) {
        self.servers[i].shutdown();
        self.net.unbind(self.servers[i].addr());
        self.live[i] = false;
    }

    /// Shut every server, and the catalog, down.
    pub fn shutdown(&mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
        if let Some(catalog) = &mut self.catalog {
            catalog.shutdown();
        }
    }
}

/// Hostname auth, the method simulated clients use.
pub fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// A server root on RAM-backed storage when the host offers it. The
/// system temp dir is often a real disk, and disk metadata latency
/// inside every simulated RPC both slows the differential suite by an
/// order of magnitude and adds wall-clock noise the simulation
/// otherwise excludes.
pub(crate) fn sim_root() -> TempDir {
    let shm = std::path::Path::new("/dev/shm");
    if shm.is_dir() {
        TempDir::new_in(shm)
    } else {
        TempDir::new()
    }
}

/// Retry policy for simulated runs: several attempts with real
/// (virtual) backoff. The backoff durations are charged to the virtual
/// clock, so their magnitude costs nothing.
pub fn sim_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 5,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        ..RetryPolicy::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::OpenFlags;

    #[test]
    fn two_servers_serve_rpcs_in_memory() {
        let sim = SimTss::builder().servers(2).build();
        for i in 0..2 {
            let mut conn = sim.connect(i);
            let (fd, _) = conn
                .open("/hello", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
                .unwrap();
            assert_eq!(conn.pwrite(fd, b"tactical", 0).unwrap(), 8);
            assert_eq!(conn.pread(fd, 8, 0).unwrap(), b"tactical");
            conn.close(fd).unwrap();
        }
        // The two servers are distinct resources with distinct roots.
        assert!(sim.root(0).join("hello").exists());
        assert!(sim.root(1).join("hello").exists());
        assert_ne!(sim.endpoint(0), sim.endpoint(1));
    }

    #[test]
    fn subject_is_stable_and_hostname_based() {
        let sim = SimTss::builder().build();
        let s = sim.subject();
        assert!(s.starts_with("hostname:"), "unexpected subject {s}");
        assert_eq!(sim.subject(), s);
    }

    #[test]
    fn virtual_sleep_is_instant() {
        let sim = SimTss::builder().build();
        let wall = std::time::Instant::now();
        let t0 = sim.clock().now();
        sim.clock().sleep(Duration::from_secs(3600));
        assert_eq!(
            sim.clock().elapsed_since(t0),
            Duration::from_secs(3600),
            "virtual hour passed"
        );
        assert!(wall.elapsed() < Duration::from_secs(2));
    }
}
