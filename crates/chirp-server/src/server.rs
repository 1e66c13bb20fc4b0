//! The service: accept loop, reactor hand-off, lifecycle.
//!
//! The server is transport-agnostic: [`FileServer::start`] binds a
//! real [`TcpListener`], while [`FileServer::start_on`] accepts any
//! [`Listener`] — the simulation harness hands it an in-memory one and
//! the whole handler stack runs without a socket in sight.

use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chirp_proto::localfs::LocalFs;
use chirp_proto::transport::Listener;
use chirp_proto::wire;
use chirp_proto::ChirpError;

use chirp_proto::fs::{join_path, FileSystem};

use crate::acl::{AclCache, ACL_FILE};
use crate::cache::{PageCache, SizeTable};
use crate::config::ServerConfig;
use crate::handlers::disk_usage;
use crate::reactor::Reactor;
use crate::stats::{ServerStats, ServerTelemetry};

/// State shared by every connection of one server.
pub struct Shared {
    /// The server configuration.
    pub config: ServerConfig,
    /// The export directory behind the common file interface: the
    /// only code that turns a protocol path into a host path, and
    /// the one that announces every durability point to
    /// `config.persistence` before it mutates.
    pub fs: LocalFs,
    /// Activity counters: a view over `telemetry`'s registry.
    pub stats: ServerStats,
    /// Per-op metrics, latency histograms, and the RPC trace ring;
    /// folded into every catalog report.
    pub telemetry: ServerTelemetry,
    /// The server-side buffer cache; `None` (the default) reads
    /// through to the filesystem on every `PREAD`, bit-identically to
    /// a cacheless server.
    pub cache: Option<PageCache>,
    /// Per-inode size tracking shared across descriptors, so the hot
    /// write path computes growth without an `fstat`.
    pub sizes: SizeTable,
    /// Effective ACLs already looked up, shared by every connection.
    pub acls: AclCache,
    /// Currently active connections.
    pub active: AtomicUsize,
    /// Set when the server is shutting down.
    pub shutdown: AtomicBool,
    /// Approximate bytes stored under the root, maintained on every
    /// mutation and reconciled with a real walk on each `STATFS`.
    pub used_bytes: AtomicU64,
}

impl Shared {
    /// Build the shared server state: create the root and open it as
    /// a `LocalFs`, install the root ACL if the directory is not
    /// already governed,
    /// size the buffer cache, and take the initial usage walk. This
    /// is everything [`FileServer::start_on`] does short of spawning
    /// threads, exposed so benches and tests can drive
    /// [`Session`](crate::handlers::Session)s directly.
    pub fn new(config: ServerConfig) -> std::io::Result<Arc<Shared>> {
        let fs = LocalFs::with_persistence(&config.root, config.persistence.clone())?;
        // Install the root ACL only if the directory is not already
        // governed (exporting existing data must not clobber policy).
        if fs.stat(&join_path("/", ACL_FILE)).is_err() && !config.root_acl.entries().is_empty() {
            config
                .root_acl
                .store_in(&fs, "/")
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let used = disk_usage(&fs);
        let telemetry = ServerTelemetry::default();
        let cache = config
            .cache_bytes
            .filter(|&b| b > 0)
            .map(|b| PageCache::new(b, config.cache_page_bytes, telemetry.registry()));
        let acls = AclCache::new(telemetry.registry());
        Ok(Arc::new(Shared {
            config,
            fs,
            stats: ServerStats::new(telemetry.registry()),
            telemetry,
            cache,
            sizes: SizeTable::new(),
            acls,
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            used_bytes: AtomicU64::new(used),
        }))
    }
    /// Record `delta` bytes added (positive) or removed (negative).
    pub fn adjust_usage(&self, delta: i64) {
        if delta >= 0 {
            self.used_bytes.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            let dec = (-delta) as u64;
            let mut cur = self.used_bytes.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(dec);
                match self.used_bytes.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
    }

    /// Would storing `additional` bytes exceed the capacity policy?
    pub fn over_capacity(&self, additional: u64) -> bool {
        self.config.enforce_capacity
            && self.used_bytes.load(Ordering::Relaxed) + additional > self.config.capacity_bytes
    }
}

/// A running Chirp file server.
///
/// Deployment is a single call: `FileServer::start(config)`. The
/// listener binds, the root ACL is installed if absent, catalog
/// reporting begins, and the server is immediately usable — the
/// paper's *rapid deployment* property.
pub struct FileServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    listener: Arc<dyn Listener>,
    accept_thread: Option<JoinHandle<()>>,
    report_thread: Option<JoinHandle<()>>,
    reactor: Arc<Reactor>,
}

impl FileServer {
    /// Start a server on TCP. Returns once the listener is bound.
    /// `Unsupported` on a target whose poller cannot watch sockets
    /// (anything but Linux): [`FileServer::start_on`] with an in-memory
    /// listener still works there.
    pub fn start(config: ServerConfig) -> std::io::Result<FileServer> {
        if !Reactor::SUPPORTS_FDS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "chirp-server serves TCP through epoll, which this target lacks",
            ));
        }
        let listener = TcpListener::bind(config.bind)?;
        FileServer::start_on(config, Arc::new(listener))
    }

    /// Start a server on an already-bound [`Listener`] — any
    /// transport, including the in-memory network. `config.bind` is
    /// ignored; the listener's own address is authoritative.
    pub fn start_on(
        config: ServerConfig,
        listener: Arc<dyn Listener>,
    ) -> std::io::Result<FileServer> {
        let shared = Shared::new(config)?;
        let addr = listener.local_addr()?;
        let reactor = Arc::new(Reactor::start(&shared)?);
        let accept_shared = shared.clone();
        let accept_listener = listener.clone();
        let accept_reactor = reactor.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("chirp-accept-{}", addr.port()))
            .spawn(move || accept_loop(accept_listener, accept_shared, accept_reactor))?;
        let report_thread = if shared.config.catalogs.is_empty() {
            None
        } else {
            let report_shared = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name(format!("chirp-report-{}", addr.port()))
                    .spawn(move || crate::report::report_loop(report_shared, addr))?,
            )
        };
        Ok(FileServer {
            shared,
            addr,
            listener,
            accept_thread: Some(accept_thread),
            report_thread,
            reactor,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` string for building URLs and namespaces.
    pub fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    /// Activity counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Per-op metrics and the RPC trace ring.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.shared.telemetry
    }

    /// Number of live connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// The catalog report packet this server would send right now —
    /// the same bytes the report thread puts on UDP. Harnesses feed
    /// catalogs with this instead of a socket hop.
    pub fn compose_report(&self) -> String {
        crate::report::compose_report(&self.shared, self.addr)
    }

    /// Stop accepting connections, close the live ones, and join every
    /// thread the server started.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept() call.
        self.listener.wake();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // The reactor workers observe the shutdown flag when woken,
        // tear down their connections, and exit.
        self.reactor.join();
        if let Some(h) = self.report_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FileServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long the accept loop waits after an error that is neither
/// shutdown nor a closed listener. `EMFILE`/`ENFILE` persist until a
/// descriptor frees up; retrying at once would burn a core meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn accept_loop(listener: Arc<dyn Listener>, shared: Arc<Shared>, reactor: Arc<Reactor>) {
    loop {
        let accepted = listener.accept();
        let (stream, peer) = match accepted {
            Ok(pair) => pair,
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A closed listener (the simulated host was unbound
                // from under us) never accepts again; exit instead of
                // spinning on the error.
                if e.kind() == std::io::ErrorKind::NotConnected {
                    return;
                }
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.active.load(Ordering::Relaxed) >= shared.config.max_connections {
            // Refuse politely: one error line, then close.
            let mut stream = stream;
            let mut w = BufWriter::new(&mut stream);
            let _ = wire::write_error(&mut w, ChirpError::Busy);
            let _ = w.flush();
            continue;
        }
        shared.active.fetch_add(1, Ordering::Relaxed);
        shared.stats.connection();
        // The shard that adopts the connection owns the `active`
        // decrement from here on.
        reactor.dispatch(stream, peer);
    }
}
