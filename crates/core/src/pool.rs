//! A shared pool of data servers with checkout-based connection reuse.
//!
//! Every distributed abstraction (DPFS/DSFS stubs, striping,
//! mirroring) needs the same plumbing: a set of `endpoint + volume +
//! auth` servers, reusable [`Cfs`] connections to them, volume setup,
//! and a placement decision for new data. This type carries it once.
//!
//! ## Why checkout, not one shared connection
//!
//! A Chirp connection carries one RPC at a time, so a single cached
//! `Cfs` per endpoint serializes every concurrent operation against
//! that server behind one mutex — the bottleneck that flattens the
//! parallel fan-out data path. Instead the pool hands out *exclusive*
//! connections: [`ServerPool::checkout`] pops an idle connection (or
//! dials a new one), and the returned [`PooledConn`] guard checks it
//! back in on drop. Open file handles keep their guard for their whole
//! life, so two handles never contend for one TCP stream. On checkin
//! a broken connection is discarded rather than cached; at most
//! [`crate::stubfs::StubFsOptions::max_conns_per_endpoint`] idle
//! connections are kept per endpoint.

use std::collections::HashMap;
use std::io;
use std::ops::Deref;
use std::sync::Arc;

use chirp_client::AuthMethod;
use chirp_proto::Tick;
use chirp_proto::{OpenFlags, StatBuf};
use parking_lot::Mutex;

use crate::cfs::{Cfs, CfsConfig};
use crate::fs::{FileHandle, FileSystem};
use crate::stubfs::{DataServer, StubFsOptions};

/// Prebuilt handles into the pool's telemetry registry. The registry
/// owns the backing atomics; these are cached so the hot paths bump a
/// counter without touching the registration lock.
#[derive(Debug)]
struct PoolCounters {
    checkouts: telemetry::Counter,
    checkins: telemetry::Counter,
    hits: telemetry::Counter,
    misses: telemetry::Counter,
    discards: telemetry::Counter,
    evictions: telemetry::Counter,
    failures: telemetry::Counter,
    breaker_trips: telemetry::Counter,
    /// `client.retries` in the same registry: every connection the
    /// pool builds records into it (see [`PoolShared::build_conn`]),
    /// so this one handle aggregates recovery work pool-wide.
    retries: telemetry::Counter,
}

impl PoolCounters {
    fn new(registry: &telemetry::Registry) -> PoolCounters {
        PoolCounters {
            checkouts: registry.counter("pool.checkouts"),
            checkins: registry.counter("pool.checkins"),
            hits: registry.counter("pool.hits"),
            misses: registry.counter("pool.misses"),
            discards: registry.counter("pool.discards"),
            evictions: registry.counter("pool.evictions"),
            failures: registry.counter("pool.failures"),
            breaker_trips: registry.counter("pool.breaker_trips"),
            retries: registry.counter("client.retries"),
        }
    }
}

/// A point-in-time copy of the pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections handed out.
    pub checkouts: u64,
    /// Connections returned (every checkout is eventually checked in).
    pub checkins: u64,
    /// Checkouts served from the idle cache.
    pub hits: u64,
    /// Checkouts that had to build a fresh connection.
    pub misses: u64,
    /// Returned connections dropped instead of cached (broken, or the
    /// endpoint's idle cache was full).
    pub discards: u64,
    /// Idle connections dropped for exceeding `max_idle` age.
    pub evictions: u64,
    /// Endpoint failures reported against pool members.
    pub failures: u64,
    /// Times an endpoint's circuit breaker opened.
    pub breaker_trips: u64,
    /// Recovery retries performed by connections this pool built.
    pub retries: u64,
}

/// Per-endpoint circuit-breaker state: `Closed` is normal service;
/// after `breaker_threshold` consecutive reported failures the breaker
/// `Open`s and the endpoint is reported unavailable until the cooldown
/// elapses, when one `HalfOpen` probe is allowed through — its outcome
/// re-closes or re-opens the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service.
    Closed,
    /// Rejecting the endpoint until the cooldown deadline.
    Open,
    /// One probe allowed through; the next report decides.
    HalfOpen,
}

#[derive(Debug)]
struct EndpointHealth {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at: Option<Tick>,
}

impl Default for EndpointHealth {
    fn default() -> EndpointHealth {
        EndpointHealth {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            opened_at: None,
        }
    }
}

struct PoolShared {
    servers: Vec<DataServer>,
    options: StubFsOptions,
    default_auth: Vec<AuthMethod>,
    idle: Mutex<HashMap<String, Vec<(Cfs, Tick)>>>,
    health: Mutex<HashMap<String, EndpointHealth>>,
    counters: PoolCounters,
    /// The registry behind `counters`, installed into every connection
    /// the pool builds so `client.*` metrics aggregate pool-wide.
    registry: telemetry::Registry,
}

impl PoolShared {
    fn build_conn(&self, endpoint: &str) -> Cfs {
        let auth = self
            .servers
            .iter()
            .find(|s| s.endpoint == endpoint)
            .map(|s| s.auth.clone())
            .unwrap_or_else(|| self.default_auth.clone());
        let mut cfg = CfsConfig::new(endpoint, auth);
        cfg.timeout = self.options.timeout;
        cfg.retry = self.options.retry;
        cfg.readahead = self.options.readahead;
        cfg.pipeline_depth = self.options.pipeline_depth;
        cfg.dialer = self.options.dialer.clone();
        cfg.clock = self.options.clock.clone();
        cfg.telemetry = self.registry.clone();
        Cfs::new(cfg)
    }

    fn checkin(&self, cfs: Cfs) {
        self.counters.checkins.inc();
        // Health check: a connection that died mid-use must not be
        // handed to the next caller.
        if cfs.connection_is_broken() {
            self.counters.discards.inc();
            return;
        }
        let mut idle = self.idle.lock();
        let slot = idle.entry(cfs.endpoint().to_string()).or_default();
        if slot.len() < self.options.max_conns_per_endpoint.max(1) {
            slot.push((cfs, self.options.clock.now()));
        } else {
            self.counters.discards.inc();
        }
    }

    /// Pop the freshest non-expired idle connection for `endpoint`,
    /// evicting every entry that has outlived `max_idle` on the way.
    fn pop_idle(&self, endpoint: &str) -> Option<Cfs> {
        let mut idle = self.idle.lock();
        let slot = idle.get_mut(endpoint)?;
        let now = self.options.clock.now();
        while let Some((cfs, since)) = slot.pop() {
            if now.duration_since(since) <= self.options.max_idle {
                return Some(cfs);
            }
            self.counters.evictions.inc();
        }
        None
    }

    fn report_failure(&self, endpoint: &str) {
        self.counters.failures.inc();
        if self.options.breaker_threshold == 0 {
            return;
        }
        let mut health = self.health.lock();
        let h = health.entry(endpoint.to_string()).or_default();
        h.consecutive_failures += 1;
        let tripped = match h.state {
            BreakerState::Closed => h.consecutive_failures >= self.options.breaker_threshold,
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if tripped {
            h.state = BreakerState::Open;
            h.opened_at = Some(self.options.clock.now());
            self.counters.breaker_trips.inc();
        }
    }

    fn report_success(&self, endpoint: &str) {
        let mut health = self.health.lock();
        if let Some(h) = health.get_mut(endpoint) {
            h.consecutive_failures = 0;
            h.state = BreakerState::Closed;
            h.opened_at = None;
        }
    }

    /// Whether callers should try `endpoint` right now. An `Open`
    /// breaker transitions to `HalfOpen` once its cooldown elapses,
    /// letting exactly this caller probe it.
    fn endpoint_available(&self, endpoint: &str) -> bool {
        let mut health = self.health.lock();
        let Some(h) = health.get_mut(endpoint) else {
            return true;
        };
        match h.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = h.opened_at.is_none_or(|t| {
                    self.options.clock.elapsed_since(t) >= self.options.breaker_cooldown
                });
                if cooled {
                    h.state = BreakerState::HalfOpen;
                }
                cooled
            }
        }
    }
}

/// A connection-pooling view of a set of data servers. Cloning is
/// cheap and shares the pool (same idle cache, counters, breakers).
#[derive(Clone)]
pub struct ServerPool {
    shared: Arc<PoolShared>,
}

impl ServerPool {
    /// Build a pool over `servers` with shared connection `options`.
    pub fn new(servers: Vec<DataServer>, options: StubFsOptions) -> ServerPool {
        let default_auth = servers.first().map(|s| s.auth.clone()).unwrap_or_default();
        let registry = telemetry::Registry::default();
        ServerPool {
            shared: Arc::new(PoolShared {
                servers,
                options,
                default_auth,
                idle: Mutex::new(HashMap::new()),
                health: Mutex::new(HashMap::new()),
                counters: PoolCounters::new(&registry),
                registry,
            }),
        }
    }

    /// The pool members.
    pub fn servers(&self) -> &[DataServer] {
        &self.shared.servers
    }

    /// Check out an exclusive connection to `endpoint`. Endpoints
    /// outside the pool (from old stubs after the pool changed) connect
    /// with the pool's default auth. Dialing stays lazy: nothing
    /// touches the network until the first operation on the guard.
    pub fn checkout(&self, endpoint: &str) -> PooledConn {
        self.shared.counters.checkouts.inc();
        let cached = self.shared.pop_idle(endpoint);
        let cfs = match cached {
            Some(cfs) => {
                self.shared.counters.hits.inc();
                cfs
            }
            None => {
                self.shared.counters.misses.inc();
                self.shared.build_conn(endpoint)
            }
        };
        PooledConn {
            cfs: Some(cfs),
            shared: self.shared.clone(),
        }
    }

    /// Run one operation on a checked-out connection, returning it to
    /// the pool before the result is handed back.
    pub fn with_conn<T>(
        &self,
        endpoint: &str,
        op: impl FnOnce(&Cfs) -> io::Result<T>,
    ) -> io::Result<T> {
        let conn = self.checkout(endpoint);
        op(&conn)
    }

    /// Open a file on `endpoint`, binding the checked-out connection to
    /// the returned handle for the handle's whole life — concurrent
    /// handles on one endpoint therefore use distinct connections.
    pub fn open(
        &self,
        endpoint: &str,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> io::Result<Box<dyn FileHandle>> {
        let conn = self.checkout(endpoint);
        let inner = conn.open(path, flags, mode)?;
        Ok(Box::new(PooledHandle { inner, _conn: conn }))
    }

    /// A snapshot of the pool counters — a thin view over the
    /// telemetry registry the pool records into.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            checkouts: c.checkouts.get(),
            checkins: c.checkins.get(),
            hits: c.hits.get(),
            misses: c.misses.get(),
            discards: c.discards.get(),
            evictions: c.evictions.get(),
            failures: c.failures.get(),
            breaker_trips: c.breaker_trips.get(),
            retries: c.retries.get(),
        }
    }

    /// The telemetry registry behind the pool's counters. Shared with
    /// every connection the pool builds, so one snapshot covers both
    /// `pool.*` and `client.*` metrics for the whole pool.
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.shared.registry
    }

    /// Idle connections currently cached for `endpoint`.
    pub fn idle_count(&self, endpoint: &str) -> usize {
        self.shared.idle.lock().get(endpoint).map_or(0, Vec::len)
    }

    /// Record a failed operation against `endpoint`; enough in a row
    /// opens the endpoint's circuit breaker.
    pub fn report_failure(&self, endpoint: &str) {
        self.shared.report_failure(endpoint);
    }

    /// Record a successful operation against `endpoint`, closing its
    /// breaker and zeroing its failure streak.
    pub fn report_success(&self, endpoint: &str) {
        self.shared.report_success(endpoint);
    }

    /// Whether `endpoint` should be tried right now. `false` only
    /// while the endpoint's breaker is open and still cooling down;
    /// after the cooldown one caller gets `true` as the half-open
    /// probe.
    pub fn endpoint_available(&self, endpoint: &str) -> bool {
        self.shared.endpoint_available(endpoint)
    }

    /// The breaker state of `endpoint` (for tests and monitoring).
    pub fn breaker_state(&self, endpoint: &str) -> BreakerState {
        self.shared
            .health
            .lock()
            .get(endpoint)
            .map_or(BreakerState::Closed, |h| h.state)
    }

    /// Create each member's volume directory if missing.
    pub fn ensure_volumes(&self) -> io::Result<()> {
        for s in self.servers() {
            self.with_conn(&s.endpoint, |cfs| match cfs.mkdir(&s.volume, 0o755) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
                Err(e) => Err(e),
            })?;
        }
        Ok(())
    }
}

/// An exclusively-held pool connection; checks itself back in on drop.
pub struct PooledConn {
    cfs: Option<Cfs>,
    shared: Arc<PoolShared>,
}

impl Deref for PooledConn {
    type Target = Cfs;

    fn deref(&self) -> &Cfs {
        self.cfs.as_ref().expect("present until drop")
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        if let Some(cfs) = self.cfs.take() {
            self.shared.checkin(cfs);
        }
    }
}

/// A file handle that owns the pool connection it was opened over.
/// Field order matters: `inner` must drop first so the descriptor's
/// CLOSE goes out before the connection returns to the pool.
struct PooledHandle {
    inner: Box<dyn FileHandle>,
    // Held only for its Drop: checks the connection back in.
    _conn: PooledConn,
}

impl FileHandle for PooledHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.inner.pread(buf, offset)
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.inner.pwrite(buf, offset)
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        self.inner.fstat()
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.inner.fsync()
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        self.inner.ftruncate(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ServerPool {
        let servers = (0..n)
            .map(|i| DataServer::new(&format!("host{i}:9094"), "/vol", Vec::new()))
            .collect();
        ServerPool::new(servers, StubFsOptions::default())
    }

    #[test]
    fn checkout_miss_then_hit() {
        let p = pool(2);
        let a = p.checkout("host0:9094");
        assert_eq!(a.endpoint(), "host0:9094");
        drop(a);
        // The returned (never-dialed, unbroken) connection is cached.
        assert_eq!(p.idle_count("host0:9094"), 1);
        let _b = p.checkout("host0:9094");
        let s = p.stats();
        assert_eq!(s.checkouts, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_connections() {
        let p = pool(1);
        let a = p.checkout("host0:9094");
        let b = p.checkout("host0:9094");
        assert!(!std::ptr::eq::<Cfs>(&*a, &*b));
        drop(a);
        drop(b);
        let s = p.stats();
        assert_eq!(s.checkouts, s.checkins);
        assert_eq!(s.misses, 2);
        assert_eq!(p.idle_count("host0:9094"), 2);
    }

    #[test]
    fn idle_cache_is_capped_per_endpoint() {
        let options = StubFsOptions {
            max_conns_per_endpoint: 2,
            ..StubFsOptions::default()
        };
        let servers = vec![DataServer::new("host0:9094", "/vol", Vec::new())];
        let p = ServerPool::new(servers, options);
        let guards: Vec<_> = (0..4).map(|_| p.checkout("host0:9094")).collect();
        drop(guards);
        assert_eq!(p.idle_count("host0:9094"), 2);
        let s = p.stats();
        assert_eq!(s.checkins, 4);
        assert_eq!(s.discards, 2);
    }

    #[test]
    fn unknown_endpoints_still_connect_lazily() {
        let p = pool(1);
        // No network happens at checkout time; only shape is checked.
        let c = p.checkout("stranger:1");
        assert_eq!(c.endpoint(), "stranger:1");
    }

    #[test]
    fn checkouts_balance_checkins_across_threads() {
        let p = pool(2);
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..50 {
                        let endpoint = format!("host{}:9094", (t + i) % 2);
                        let _c = p.checkout(&endpoint);
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.checkouts, 400);
        assert_eq!(s.checkins, 400);
        assert_eq!(s.hits + s.misses, s.checkouts);
        let cap = StubFsOptions::default().max_conns_per_endpoint;
        assert!(p.idle_count("host0:9094") <= cap);
        assert!(p.idle_count("host1:9094") <= cap);
    }

    #[test]
    fn idle_connections_past_max_idle_are_evicted_at_checkout() {
        // Idle aging runs on the pool's clock, so the test advances a
        // virtual one instead of sleeping: exact and instant.
        let clock = chirp_proto::Clock::fresh_virtual();
        let options = StubFsOptions {
            max_idle: std::time::Duration::from_millis(20),
            clock: clock.clone(),
            ..StubFsOptions::default()
        };
        let servers = vec![DataServer::new("host0:9094", "/vol", Vec::new())];
        let p = ServerPool::new(servers, options);
        drop(p.checkout("host0:9094"));
        assert_eq!(p.idle_count("host0:9094"), 1);
        clock.sleep(std::time::Duration::from_millis(40));
        // The aged entry must not be handed out: the second checkout
        // evicts it and builds a fresh connection.
        drop(p.checkout("host0:9094"));
        let s = p.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_through_half_open() {
        // Cooldowns elapse on the injected clock; no real waiting.
        let clock = chirp_proto::Clock::fresh_virtual();
        let options = StubFsOptions {
            breaker_threshold: 2,
            breaker_cooldown: std::time::Duration::from_millis(30),
            clock: clock.clone(),
            ..StubFsOptions::default()
        };
        let servers = vec![DataServer::new("host0:9094", "/vol", Vec::new())];
        let p = ServerPool::new(servers, options);
        let ep = "host0:9094";

        assert!(p.endpoint_available(ep));
        p.report_failure(ep);
        assert_eq!(p.breaker_state(ep), BreakerState::Closed);
        assert!(p.endpoint_available(ep));
        p.report_failure(ep);
        assert_eq!(p.breaker_state(ep), BreakerState::Open);
        assert!(!p.endpoint_available(ep));

        // After the cooldown a single half-open probe is allowed; a
        // failed probe re-opens the breaker, a success re-closes it.
        clock.sleep(std::time::Duration::from_millis(40));
        assert!(p.endpoint_available(ep));
        assert_eq!(p.breaker_state(ep), BreakerState::HalfOpen);
        p.report_failure(ep);
        assert_eq!(p.breaker_state(ep), BreakerState::Open);
        assert!(!p.endpoint_available(ep));

        clock.sleep(std::time::Duration::from_millis(40));
        assert!(p.endpoint_available(ep));
        p.report_success(ep);
        assert_eq!(p.breaker_state(ep), BreakerState::Closed);
        assert!(p.endpoint_available(ep));
        assert_eq!(p.stats().breaker_trips, 2);
        assert_eq!(p.stats().failures, 3);
    }
}
