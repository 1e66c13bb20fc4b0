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
//! That policy is one loop, [`Mount::recover`]: connect if needed,
//! settle whatever reply is still owed on the stream, run the attempt,
//! and on a retriable failure count it, drop the connection, sleep the
//! policy's backoff and go round again. A path operation, a descriptor
//! operation (re-open and inode check first) and `open` itself are
//! three attempts handed to that loop, so every `client.retries` tick
//! and every backoff sleep in the system comes from one place.
//!
//! The read-ahead prefetch is the one request this module leaves
//! unanswered on purpose. The slot keeps a note of *what* was asked
//! (`fd`, offset, length); *whether* its reply is still owed is the
//! connection's knowledge, and the connection refuses any other call
//! until it is settled, so an unsettled prefetch cannot be mistaken
//! for another request's answer.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::{AuthMethod, Connection};
use chirp_proto::transport::Dialer;
use chirp_proto::{
    ChirpError, ChirpResult, Clock, OpenFlags, Reply, ReplyShape, Request, StatBuf, StatFs,
    DEFAULT_PIPELINE_DEPTH,
};
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
    /// Read-ahead window in bytes for handle reads: each `pread` over
    /// the wire fetches at least this much, and later sequential reads
    /// are served from the window without a round trip. `0` (default)
    /// disables buffering — every read is one RPC, preserving the
    /// system's no-client-caching coherence story. The window lives
    /// per handle and is dropped on any write, truncate, or
    /// reconnection of that handle.
    pub readahead: usize,
    /// Pipeline depth for request pipelining on this mount's single
    /// connection: how many RPCs may ride the stream unanswered. With
    /// a window (`readahead > 0`) and depth ≥ 2, the handle read path
    /// refills by *deferred prefetch* — after filling a window it
    /// issues the next window's `PREAD` and leaves the reply in the
    /// stream, so the server services it while the application is
    /// busy consuming the current window. Depth 1 keeps the classic
    /// one-RPC-at-a-time behavior.
    pub pipeline_depth: usize,
    /// Telemetry registry the mount records into (`client.*` metrics:
    /// connects, reconnects, retries, readahead hits/misses). Each
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
            readahead: 0,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
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

    /// Set the per-handle read-ahead window (bytes; 0 disables).
    pub fn with_readahead(mut self, readahead: usize) -> CfsConfig {
        self.readahead = readahead;
        self
    }

    /// Set the pipeline depth (1 disables pipelined prefetch).
    pub fn with_pipeline_depth(mut self, depth: usize) -> CfsConfig {
        self.pipeline_depth = depth.max(1);
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

/// Prebuilt handles into the mount's registry, so the recovery and
/// read paths bump plain atomics instead of taking the registration
/// lock per event.
#[derive(Debug)]
struct ClientTelemetry {
    retries: telemetry::Counter,
    connects: telemetry::Counter,
    reconnects: telemetry::Counter,
    ra_hits: telemetry::Counter,
    ra_misses: telemetry::Counter,
    ra_prefetches: telemetry::Counter,
}

impl ClientTelemetry {
    fn new(registry: &telemetry::Registry) -> ClientTelemetry {
        ClientTelemetry {
            retries: registry.counter("client.retries"),
            connects: registry.counter("client.connects"),
            reconnects: registry.counter("client.reconnects"),
            ra_hits: registry.counter("client.readahead.hits"),
            ra_misses: registry.counter("client.readahead.misses"),
            ra_prefetches: registry.counter("client.readahead.prefetches"),
        }
    }
}

/// A `PREAD` issued ahead of need. At most one exists per mount.
/// While the connection owes its reply, `data` is `None`; once settled
/// the bytes wait here for the handle that asked (identified by
/// descriptor and connection generation).
struct Prefetch {
    generation: u64,
    fd: i32,
    offset: u64,
    len: usize,
    data: Option<Vec<u8>>,
}

struct ConnSlot {
    conn: Option<Connection>,
    /// Bumped on every reconnection; handles compare it to notice that
    /// their descriptors died with the old connection.
    generation: u64,
    prefetch: Option<Prefetch>,
}

impl ConnSlot {
    fn drop_conn(&mut self) {
        if self.conn.take().is_some() {
            self.generation += 1;
        }
        // Any prefetch died with the stream it was queued on.
        self.prefetch = None;
    }

    /// Read the reply the connection still owes — only a prefetch is
    /// ever left owed — so the stream is free for the next request. A
    /// transport failure here poisons the connection exactly as it
    /// would on a real read; the prefetch itself is speculative, so
    /// its loss is silent — the next window miss simply fetches over a
    /// fresh connection.
    fn settle_prefetch(&mut self) {
        let Some(conn) = self.conn.as_mut().filter(|c| c.owed() > 0) else {
            return;
        };
        let data = conn.settle().ok().map(Reply::into_body);
        match (&mut self.prefetch, data) {
            (Some(p), Some(data)) if data.len() <= p.len => p.data = Some(data),
            _ => self.prefetch = None,
        }
    }

    /// Settle, then hand over the prefetch if it is the one the handle
    /// holding (`fd`, `generation`) issued: its offset and bytes, or
    /// nothing if the reply was lost.
    fn take_prefetch(&mut self, fd: i32, generation: u64) -> Option<(u64, Vec<u8>)> {
        self.settle_prefetch();
        let p = self
            .prefetch
            .take_if(|p| p.fd == fd && p.generation == generation)?;
        Some((p.offset, p.data?))
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
                slot.settle_prefetch();
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
                    prefetch: None,
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
    /// Read-ahead window: reusable scratch filled by one oversized
    /// `pread`, serving later sequential reads locally. Empty when
    /// `config.readahead == 0`.
    ra_buf: Vec<u8>,
    /// File offset of `ra_buf[0]`.
    ra_off: u64,
    /// Valid bytes in `ra_buf`.
    ra_len: usize,
    /// Connection generation the window was filled under; a reconnect
    /// invalidates the window (the file may have changed identity
    /// checks aside — stay conservative).
    ra_gen: u64,
    /// True while this handle has a deferred prefetch it still trusts.
    /// Cleared by a write/truncate, which also discards whatever the
    /// prefetch delivers.
    prefetching: bool,
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

    /// Serve as much of the request as the current window covers.
    fn serve_from_window(&self, buf: &mut [u8], offset: u64) -> Option<usize> {
        if self.ra_len == 0 || self.ra_gen != self.generation {
            return None;
        }
        if offset < self.ra_off || offset >= self.ra_off + self.ra_len as u64 {
            return None;
        }
        let start = (offset - self.ra_off) as usize;
        let n = buf.len().min(self.ra_len - start);
        buf[..n].copy_from_slice(&self.ra_buf[start..start + n]);
        Some(n)
    }

    /// Settle and claim this handle's deferred prefetch, installing it
    /// as the window when it covers `offset`. Returns `true` on
    /// install — `serve_from_window` will then answer without an RPC.
    fn try_claim_prefetch(&mut self, offset: u64) -> bool {
        if !std::mem::take(&mut self.prefetching) {
            return false;
        }
        let claimed = self
            .mount
            .slot
            .lock()
            .take_prefetch(self.fd, self.generation);
        let Some((at, data)) = claimed else {
            return false;
        };
        if data.is_empty() || offset < at || offset >= at + data.len() as u64 {
            // A seek away from the speculated range (or EOF): the
            // prefetch is wasted, not wrong.
            return false;
        }
        self.ra_off = at;
        self.ra_len = data.len();
        self.ra_buf = data;
        self.ra_gen = self.generation;
        true
    }

    /// Issue the next window's `PREAD` without waiting for the reply
    /// (readahead over pipelining): the server services it while the
    /// application consumes the window just delivered, and the reply
    /// waits in the stream until claimed or settled. Only one deferred
    /// read rides the connection at a time, and only when the window
    /// is current; a dead or busy connection refuses it.
    fn maybe_prefetch_next(&mut self) {
        let window = self.mount.config.readahead;
        if window == 0 || self.mount.config.pipeline_depth < 2 {
            return;
        }
        if self.ra_len < window || self.ra_gen != self.generation {
            // A short window means end of file; nothing to speculate.
            return;
        }
        let offset = self.ra_off + self.ra_len as u64;
        let mut slot = self.mount.slot.lock();
        if slot.generation != self.generation || slot.prefetch.is_some() {
            return;
        }
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        let req = Request::Pread {
            fd: self.fd,
            length: window as u64,
            offset,
        };
        if conn.defer(&req, ReplyShape::Body).is_ok() {
            slot.prefetch = Some(Prefetch {
                generation: self.generation,
                fd: self.fd,
                offset,
                len: window,
                data: None,
            });
            self.prefetching = true;
            self.mount.tele.ra_prefetches.inc();
        }
    }

    /// Drop any prefetch this handle has outstanding: settle the owed
    /// reply and discard the data (a write just made it stale).
    fn discard_prefetch(&mut self) {
        self.prefetching = false;
        self.mount
            .slot
            .lock()
            .take_prefetch(self.fd, self.generation);
    }
}

impl FileHandle for CfsHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let window = self.mount.config.readahead;
        if window == 0 {
            // One RPC round trip straight into the caller's buffer;
            // the server may return short only at EOF.
            return self.with_fd(|c, fd| c.pread_into(fd, buf, offset));
        }
        if let Some(n) = self.serve_from_window(buf, offset) {
            if n == buf.len() {
                self.mount.tele.ra_hits.inc();
                return Ok(n);
            }
            // The window ended mid-request; refill from the server at
            // the requested offset (below) rather than stitching, so a
            // short result still means end of file.
        }
        // Before paying a round trip, claim the deferred prefetch: on
        // a sequential stream the next window's reply is already in
        // the stream (or the server is writing it), so the exchange
        // pipelines with the application's consumption of the last
        // window instead of stalling it.
        if self.try_claim_prefetch(offset) {
            if let Some(n) = self.serve_from_window(buf, offset) {
                if n == buf.len() {
                    self.mount.tele.ra_hits.inc();
                    self.maybe_prefetch_next();
                    return Ok(n);
                }
            }
        }
        // Refill: fetch at least the window size in one RPC. The
        // buffer is taken out of `self` for the duration because
        // `with_fd` needs `&mut self`.
        self.mount.tele.ra_misses.inc();
        let want = buf.len().max(window);
        let mut scratch = std::mem::take(&mut self.ra_buf);
        scratch.resize(want, 0);
        let res = self.with_fd(|c, fd| c.pread_into(fd, &mut scratch, offset));
        self.ra_buf = scratch;
        match res {
            Ok(filled) => {
                self.ra_off = offset;
                self.ra_len = filled;
                self.ra_gen = self.generation;
                let n = buf.len().min(filled);
                buf[..n].copy_from_slice(&self.ra_buf[..n]);
                self.maybe_prefetch_next();
                Ok(n)
            }
            Err(e) => {
                self.ra_len = 0;
                Err(e)
            }
        }
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        // Any write invalidates the read-ahead window and whatever the
        // deferred prefetch was about to deliver.
        self.ra_len = 0;
        self.discard_prefetch();
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
        self.ra_len = 0;
        self.discard_prefetch();
        self.with_fd(|c, fd| c.ftruncate(fd, size))
    }
}

impl Drop for CfsHandle {
    fn drop(&mut self) {
        let mut slot = self.mount.slot.lock();
        // Nobody is left to claim a prefetch of ours.
        slot.take_prefetch(self.fd, self.generation);
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
            ra_buf: Vec::new(),
            ra_off: 0,
            ra_len: 0,
            ra_gen: 0,
            prefetching: false,
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
