//! CFS — the *central filesystem* abstraction.
//!
//! The simplest abstraction: files and directories on a single file
//! server, accessed without translation. Consistency and
//! synchronization are managed by the server host's kernel in the
//! usual way, so CFS behaves like NFS minus caching — grid security
//! plus Unix-like consistency.
//!
//! `Cfs` also carries the *adapter's* recovery policy (paper §6): if
//! the TCP connection is lost, the server has already closed our
//! descriptors, so we reconnect with exponential backoff, re-open each
//! file, and verify from the attributes the `OPEN` answers with that
//! the file still has the same inode number. If it does not, the file
//! was replaced or deleted while we were away, and the caller receives
//! a "stale file handle" error, as in NFS.
//!
//! That policy is one loop, `Mount::recover`: connect if needed, run
//! the attempt, and on a retriable failure count it, drop the
//! connection, sleep the policy's backoff and go round again. A path
//! operation, a descriptor operation (re-open and inode check first)
//! and `open` itself are three attempts handed to that loop, so every
//! `client.retries` tick and every backoff sleep in the system comes
//! from one place.
//!
//! A handle buffers nothing: every `pread` is one `PREAD`, answered
//! by the server from the file as it is now. A client-side read-ahead
//! window would make sequential small reads cheaper, but it is a cache
//! the server cannot invalidate, and the paper's CFS has none.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::transport::Dialer;
use chirp_proto::{ChirpError, ChirpResult, Clock, OpenFlags, StatBuf, StatFs};
use parking_lot::Mutex;

use crate::fs::{normalize_path, FileHandle, FileSystem};

/// The reconnection policy, shared protocol-wide. Re-exported here
/// because CFS is where it has always been configured from.
pub use chirp_proto::RetryPolicy;

/// True for `io::Error`s that stem from transport loss (connection
/// failure, timeout, transient congestion) — the class the recovery
/// layer may mask by reconnecting or failing over to another replica.
/// Everything else (ACL denial, bad request, stale handle, not found)
/// is a *verdict* and must surface unchanged.
pub fn is_transport_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::ResourceBusy
    )
}

/// Configuration of a CFS mount.
#[derive(Debug, Clone)]
pub struct CfsConfig {
    /// Server endpoint, `host:port`.
    pub endpoint: String,
    /// Authentication methods to offer, in order.
    pub auth: Vec<AuthMethod>,
    /// Server-side base directory this CFS is rooted at.
    pub base: String,
    /// Per-operation network timeout.
    pub timeout: Duration,
    /// Recovery policy.
    pub retry: RetryPolicy,
    /// Transparently append `O_SYNC` to every open (the adapter's
    /// synchronous-write switch).
    pub sync_writes: bool,
    /// Telemetry registry the mount records into (`client.*` metrics:
    /// connects, reconnects, retries). Each
    /// mount gets a private registry by default; a pool installs its
    /// own so one registry aggregates across every member connection.
    pub telemetry: telemetry::Registry,
    /// How connections are opened: real TCP by default, the in-memory
    /// network under the simulation harness.
    pub dialer: Dialer,
    /// The clock recovery sleeps and deadlines are charged to. Wall
    /// time by default; virtual under simulation, where backoff
    /// advances simulated time instead of parking the thread.
    pub clock: Clock,
}

impl CfsConfig {
    /// Sensible defaults: root base, 10 s timeout, default retries.
    pub fn new(endpoint: &str, auth: Vec<AuthMethod>) -> CfsConfig {
        CfsConfig {
            endpoint: endpoint.to_string(),
            auth,
            base: "/".to_string(),
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            sync_writes: false,
            telemetry: telemetry::Registry::default(),
            dialer: Dialer::tcp(),
            clock: Clock::wall(),
        }
    }

    /// Root the CFS at a server-side directory.
    pub fn with_base(mut self, base: &str) -> CfsConfig {
        self.base = normalize_path(base);
        self
    }

    /// Set the recovery policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> CfsConfig {
        self.retry = retry;
        self
    }

    /// Record into a shared telemetry registry instead of a private
    /// one (a pool installs its own so `client.*` counters aggregate
    /// across all member connections).
    pub fn with_telemetry(mut self, registry: telemetry::Registry) -> CfsConfig {
        self.telemetry = registry;
        self
    }

    /// Open connections through `dialer` instead of TCP.
    pub fn with_dialer(mut self, dialer: Dialer) -> CfsConfig {
        self.dialer = dialer;
        self
    }

    /// Charge recovery sleeps and deadlines to `clock`.
    pub fn with_clock(mut self, clock: Clock) -> CfsConfig {
        self.clock = clock;
        self
    }
}

/// Prebuilt handles into the mount's registry, so the recovery loop
/// bumps plain atomics instead of taking the registration lock per
/// event.
#[derive(Debug)]
struct ClientTelemetry {
    retries: telemetry::Counter,
    connects: telemetry::Counter,
    reconnects: telemetry::Counter,
}

impl ClientTelemetry {
    fn new(registry: &telemetry::Registry) -> ClientTelemetry {
        ClientTelemetry {
            retries: registry.counter("client.retries"),
            connects: registry.counter("client.connects"),
            reconnects: registry.counter("client.reconnects"),
        }
    }
}

struct ConnSlot {
    conn: Option<Connection>,
    /// Bumped on every reconnection; handles compare it to notice that
    /// their descriptors died with the old connection.
    generation: u64,
}

impl ConnSlot {
    fn drop_conn(&mut self) {
        if self.conn.take().is_some() {
            self.generation += 1;
        }
    }
}

/// What a [`Cfs`] and every handle opened through it share: the
/// configuration, the one connection, and the counters.
struct Mount {
    config: CfsConfig,
    slot: Mutex<ConnSlot>,
    tele: ClientTelemetry,
}

impl Mount {
    fn ensure_connected(&self, slot: &mut ConnSlot) -> ChirpResult<()> {
        let config = &self.config;
        if let Some(c) = &slot.conn {
            if !c.is_broken() {
                return Ok(());
            }
            slot.drop_conn();
        }
        let mut conn =
            Connection::connect_via(&config.dialer, config.endpoint.as_str(), config.timeout)?;
        self.tele.connects.inc();
        if slot.generation > 0 {
            // A previous connection existed: this dial is recovery, not
            // first contact.
            self.tele.reconnects.inc();
        }
        if !config.auth.is_empty() {
            conn.authenticate(&config.auth)?;
        }
        slot.conn = Some(conn);
        slot.generation += 1;
        Ok(())
    }

    /// The recovery loop (the only consumer of [`RetryPolicy`] on the
    /// data path): run `attempt` against a live connection and its
    /// generation, reconnecting per the retry policy on transport
    /// failures. Fatal (protocol/ACL) errors surface immediately; only
    /// errors the policy classifies as retriable burn attempts.
    fn recover<T>(
        &self,
        mut attempt: impl FnMut(&mut Connection, u64) -> ChirpResult<T>,
    ) -> io::Result<T> {
        let mut slot = self.slot.lock();
        let mut retry = self
            .config
            .retry
            .begin_with_clock(self.config.clock.clone());
        loop {
            let res = self.ensure_connected(&mut slot).and_then(|_| {
                let generation = slot.generation;
                attempt(slot.conn.as_mut().expect("ensured above"), generation)
            });
            match res {
                Ok(v) => return Ok(v),
                Err(e) => match retry.next_delay(e) {
                    Some(delay) => {
                        self.tele.retries.inc();
                        slot.drop_conn();
                        self.config.clock.sleep(delay);
                    }
                    None => return Err(e.into()),
                },
            }
        }
    }
}

/// The central filesystem: one server, untranslated paths, recovery
/// built in.
pub struct Cfs {
    mount: Arc<Mount>,
}

impl Cfs {
    /// Create a CFS view of one server. Connection is lazy: nothing
    /// happens until the first operation.
    pub fn new(config: CfsConfig) -> Cfs {
        let tele = ClientTelemetry::new(&config.telemetry);
        Cfs {
            mount: Arc::new(Mount {
                config,
                slot: Mutex::new(ConnSlot {
                    conn: None,
                    generation: 0,
                }),
                tele,
            }),
        }
    }

    /// Retries performed so far by the recovery loops recording into
    /// this mount's registry (`client.retries`): this mount's own by
    /// default, the whole pool's when a pool built it.
    pub fn retries(&self) -> u64 {
        self.mount.tele.retries.get()
    }

    /// The telemetry registry this mount records into (`client.*`
    /// metrics). Shared with the pool when the mount was built by one.
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.mount.config.telemetry
    }

    /// Shorthand: connect to `endpoint` with `auth` at the server root.
    pub fn connect(endpoint: &str, auth: Vec<AuthMethod>) -> Cfs {
        Cfs::new(CfsConfig::new(endpoint, auth))
    }

    /// The server endpoint.
    pub fn endpoint(&self) -> &str {
        &self.mount.config.endpoint
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CfsConfig {
        &self.mount.config
    }

    /// True when the underlying connection has been poisoned by a
    /// transport failure. A never-dialed `Cfs` reports `false` — it is
    /// safe to hand out, since dialing is lazy. The server pool uses
    /// this as the checkin health probe.
    pub fn connection_is_broken(&self) -> bool {
        let slot = self.mount.slot.lock();
        slot.conn.as_ref().is_some_and(Connection::is_broken)
    }

    fn full_path(&self, path: &str) -> String {
        join_base(&self.mount.config.base, path)
    }

    /// Run a path operation under the recovery loop.
    fn run<T>(&self, mut op: impl FnMut(&mut Connection) -> ChirpResult<T>) -> io::Result<T> {
        self.mount.recover(|conn, _| op(conn))
    }

    /// Stream a whole remote file into `out` (used by replication).
    pub fn getfile_to<W: io::Write>(&self, path: &str, out: &mut W) -> io::Result<u64> {
        let p = self.full_path(path);
        self.run(|c| c.getfile_to(&p, out))
    }

    /// Fetch a whole remote file.
    pub fn getfile(&self, path: &str) -> io::Result<Vec<u8>> {
        let p = self.full_path(path);
        self.run(|c| c.getfile(&p))
    }

    /// Store a whole file from a buffer.
    pub fn putfile(&self, path: &str, mode: u32, data: &[u8]) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.putfile(&p, mode, data))
    }

    /// Server-side checksum (CRC-64) of a remote file.
    pub fn checksum(&self, path: &str) -> io::Result<u64> {
        let p = self.full_path(path);
        self.run(|c| c.checksum(&p))
    }

    /// Storage totals of the backing server.
    pub fn statfs(&self) -> io::Result<StatFs> {
        self.run(|c| c.statfs())
    }

    /// The subject this mount authenticates as.
    pub fn whoami(&self) -> io::Result<String> {
        self.run(|c| c.whoami())
    }

    /// Fetch a directory ACL.
    pub fn getacl(&self, path: &str) -> io::Result<String> {
        let p = self.full_path(path);
        self.run(|c| c.getacl(&p))
    }

    /// Modify a directory ACL.
    pub fn setacl(&self, path: &str, subject: &str, rights: &str) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.setacl(&p, subject, rights))
    }

    /// Direct a server-to-server third-party transfer of `path` to
    /// `target_path` on `target` — bulk data never visits this client.
    pub fn thirdput(&self, path: &str, target: &str, target_path: &str) -> io::Result<u64> {
        let p = self.full_path(path);
        self.run(|c| c.thirdput(&p, target, target_path))
    }

    /// `stat` a batch of paths in one exchange (`STATMULTI`): one
    /// verdict per path, in order, a missing path failing alone
    /// rather than the batch. The recursive-stub hot path resolves a
    /// directory of stubs against one server in one round trip.
    pub fn stat_multi(&self, paths: &[String]) -> io::Result<Vec<ChirpResult<StatBuf>>> {
        let full: Vec<String> = paths.iter().map(|p| self.full_path(p)).collect();
        self.run(|c| c.stat_multi(&full))
    }
}

/// `flags` minus the one-shot bits (create, truncate, exclusive), so a
/// recovery re-open of a file that now exists is idempotent and never
/// clobbers its contents.
pub(crate) fn reopen_flags_of(flags: OpenFlags) -> OpenFlags {
    let mut out = OpenFlags::empty();
    for f in [
        OpenFlags::READ,
        OpenFlags::WRITE,
        OpenFlags::APPEND,
        OpenFlags::SYNC,
    ] {
        if flags.contains(f) {
            out |= f;
        }
    }
    // A write-created handle must remain re-openable: re-opening
    // write-only is fine because the file now exists.
    if out.bits() == 0 {
        out = OpenFlags::READ;
    }
    out
}

/// Join the mount base with an abstraction path.
fn join_base(base: &str, path: &str) -> String {
    let p = normalize_path(path);
    if base == "/" {
        p
    } else if p == "/" {
        base.to_string()
    } else {
        format!("{base}{p}")
    }
}

fn reopen(
    conn: &mut Connection,
    path: &str,
    flags: OpenFlags,
    identity: (u64, u64),
) -> ChirpResult<i32> {
    let (fd, st) = conn.open(path, flags, 0)?;
    if (st.device, st.inode) != identity {
        let _ = conn.close(fd);
        return Err(ChirpError::Stale);
    }
    Ok(fd)
}

struct CfsHandle {
    mount: Arc<Mount>,
    /// Full server-side path, for re-opening after reconnection.
    path: String,
    /// Flags to re-open with: the original minus the one-shot bits
    /// (`CREATE`/`TRUNCATE`/`EXCLUSIVE`), so recovery never clobbers
    /// file contents.
    reopen_flags: OpenFlags,
    fd: i32,
    /// Generation of the connection the descriptor belongs to.
    generation: u64,
    /// Identity recorded at first open; a different inode after
    /// reconnection means the file was replaced — stale handle.
    identity: (u64, u64),
}

impl CfsHandle {
    /// Run a descriptor operation under the recovery loop. If the
    /// connection was replaced, our descriptor died with it: the
    /// attempt first re-opens and verifies identity (adapter recovery,
    /// §6). `Stale` is fatal by classification, so a replaced file
    /// surfaces instead of retrying.
    fn with_fd<T>(
        &mut self,
        mut op: impl FnMut(&mut Connection, i32) -> ChirpResult<T>,
    ) -> io::Result<T> {
        self.mount.recover(|conn, generation| {
            if generation != self.generation {
                self.fd = reopen(conn, &self.path, self.reopen_flags, self.identity)?;
                self.generation = generation;
            }
            op(conn, self.fd)
        })
    }
}

impl FileHandle for CfsHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // One RPC round trip straight into the caller's buffer; the
        // server may return short only at EOF.
        self.with_fd(|c, fd| c.pread_into(fd, buf, offset))
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        let n = self.with_fd(|c, fd| c.pwrite(fd, buf, offset))?;
        Ok(n as usize)
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        self.with_fd(|c, fd| c.fstat(fd))
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.with_fd(|c, fd| c.fsync(fd))
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        self.with_fd(|c, fd| c.ftruncate(fd, size))
    }
}

impl Drop for CfsHandle {
    fn drop(&mut self) {
        let mut slot = self.mount.slot.lock();
        // Best-effort, so nobody waits for the verdict: the CLOSE rides
        // the next request on the stream. If the connection died, the
        // server has already closed the descriptor for us.
        if slot.generation == self.generation {
            if let Some(conn) = slot.conn.as_mut() {
                let _ = conn.close_later(self.fd);
            }
        }
    }
}

impl FileSystem for Cfs {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        let full = self.full_path(path);
        let mut flags = flags;
        if self.mount.config.sync_writes {
            flags |= OpenFlags::SYNC;
        }
        // The OPEN answers with the attributes the handle's identity
        // comes from, so it is the whole attempt.
        let (fd, st, generation) = self.mount.recover(|conn, generation| {
            let (fd, st) = conn.open(&full, flags, mode)?;
            Ok((fd, st, generation))
        })?;
        Ok(Box::new(CfsHandle {
            mount: self.mount.clone(),
            path: full,
            reopen_flags: reopen_flags_of(flags),
            fd,
            generation,
            identity: (st.device, st.inode),
        }))
    }

    fn stat(&self, path: &str) -> io::Result<StatBuf> {
        let p = self.full_path(path);
        self.run(|c| c.stat(&p))
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.unlink(&p))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let f = self.full_path(from);
        let t = self.full_path(to);
        self.run(|c| c.rename(&f, &t))
    }

    fn mkdir(&self, path: &str, mode: u32) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.mkdir(&p, mode))
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.rmdir(&p))
    }

    fn readdir(&self, path: &str) -> io::Result<Vec<String>> {
        let p = self.full_path(path);
        self.run(|c| c.getdir(&p))
    }

    fn truncate(&self, path: &str, size: u64) -> io::Result<()> {
        let p = self.full_path(path);
        self.run(|c| c.truncate(&p, size))
    }

    /// Whole-file read in a single `GETFILE` RPC instead of the
    /// open/stat/read/close sequence — the streaming call the Chirp
    /// protocol provides exactly for this (§4). DSFS stub reads ride
    /// on this, keeping metadata operations at the "twice the round
    /// trips of CFS" the paper reports rather than four times.
    fn read_file(&self, path: &str) -> io::Result<Vec<u8>> {
        self.getfile(path)
    }

    /// Whole-file write in a single `PUTFILE` RPC.
    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.putfile(path, 0o644, data)
    }

    /// Listing with attributes in one `GETDIRSTAT` exchange instead of
    /// the default's `STAT`-per-entry round trips.
    fn readdir_stat(&self, path: &str) -> io::Result<Vec<(String, StatBuf)>> {
        let p = self.full_path(path);
        self.run(|c| c.getdir_stat(&p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_base_forms() {
        assert_eq!(join_base("/", "/a/b"), "/a/b");
        assert_eq!(join_base("/vol", "/a"), "/vol/a");
        assert_eq!(join_base("/vol", "/"), "/vol");
        assert_eq!(join_base("/vol", "/x/../y"), "/vol/y");
    }
}
