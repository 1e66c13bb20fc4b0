//! The stub-filesystem engine shared by DPFS, DSFS, striping and
//! mirroring.
//!
//! A `StubFs` is a directory tree held in a *metadata filesystem* plus
//! file data spread over a pool of Chirp *data servers*. Thanks to the
//! recursive storage abstraction, the metadata filesystem is just
//! another [`FileSystem`]: a local directory gives the distributed
//! **private** filesystem (DPFS), a CFS on some server gives the
//! distributed **shared** filesystem (DSFS) — the engine cannot tell
//! the difference, which is exactly the paper's point.
//!
//! ## One engine, three layouts
//!
//! A stub names one or more *parts* and the [`Layout`] that makes a
//! file of them. The engine treats all layouts alike except in four
//! decisions, each read from the stub (so any engine opens any file):
//! the part count of a new file (`width`), `StubFs::compose`/`assemble`,
//! `StubFs::stat_record` and [`Layout::needs_every_part`].
//!
//! ## The create/delete protocol (paper §5)
//!
//! File creation:
//! 1. a file server is chosen and a unique data file name generated
//!    (one per part);
//! 2. the stub entry is created in the directory tree with an
//!    *exclusive open*, so a name collision between two processes
//!    aborts one of them;
//! 3. the data file is created on the file server (every part).
//!
//! A crash between 2 and 3 leaves a dangling stub — opening it says
//! "file not found" — which is preferred to the alternative of
//! unreferenced data. Deletion runs the other way (data first, then
//! stub) for the same reason.
//!
//! ## Failure coherence
//!
//! Losing a data server makes only the files on that server
//! unavailable; the directory tree stays navigable and every other
//! file keeps working. Tests pin this property down.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::AuthMethod;
use chirp_proto::persist::Persist;
use chirp_proto::transport::Dialer;
use chirp_proto::{Clock, OpenFlags, StatBuf};

use crate::cfs::RetryPolicy;
use crate::fanout::run_fanout;
use crate::fs::{FileHandle, FileSystem};
use crate::mirrored::{self, MirrorHandle};
use crate::placement::Placement;
use crate::pool::{PooledConn, ServerPool};
use crate::protocol::{CreateTxn, DeleteTxn, Placed, StubLive};
use crate::striped::{self, StripedHandle};
use crate::stub::{Layout, StubRecord};

/// One data server in the pool new files may be placed on.
#[derive(Debug, Clone)]
pub struct DataServer {
    /// Endpoint, `host:port`.
    pub endpoint: String,
    /// Server-side directory that holds this filesystem's data files.
    pub volume: String,
    /// Authentication offered to this server.
    pub auth: Vec<AuthMethod>,
}

impl DataServer {
    /// Describe a data server.
    pub fn new(endpoint: &str, volume: &str, auth: Vec<AuthMethod>) -> DataServer {
        DataServer {
            endpoint: endpoint.to_string(),
            volume: crate::fs::normalize_path(volume),
            auth,
        }
    }
}

/// Options shared by every connection a `StubFs` makes.
#[derive(Debug, Clone)]
pub struct StubFsOptions {
    /// Network timeout per operation.
    pub timeout: Duration,
    /// Recovery policy for data connections.
    pub retry: RetryPolicy,
    /// Idle connections cached per endpoint by the server pool.
    /// Checked-out connections are not bounded by this — it caps only
    /// what is kept warm for reuse. Minimum effective value is 1.
    pub max_conns_per_endpoint: usize,
    /// Maximum time a connection may sit idle in the pool before it is
    /// evicted instead of handed out. A long-idle socket to a server
    /// that has restarted looks healthy until the first RPC fails, so
    /// aging them out trades a cheap reconnect for a guaranteed-fresh
    /// stream.
    pub max_idle: Duration,
    /// Consecutive endpoint failures that open that endpoint's circuit
    /// breaker. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects an endpoint before allowing a
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// How data connections are opened: real TCP by default, the
    /// in-memory network under the simulation harness.
    pub dialer: Dialer,
    /// The clock idle aging, breaker cooldowns, and recovery backoff
    /// are measured on. Wall time by default; virtual under
    /// simulation, making every timing decision deterministic.
    pub clock: Clock,
    /// Durability-point observer for the stub protocol itself (see
    /// [`chirp_proto::persist`]): each protocol step announces itself
    /// before touching the tree or a data server, so the crash harness
    /// can kill the client between any two steps.
    pub persist: Persist,
}

impl Default for StubFsOptions {
    fn default() -> StubFsOptions {
        StubFsOptions {
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            max_conns_per_endpoint: 4,
            max_idle: Duration::from_secs(60),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
            dialer: Dialer::tcp(),
            clock: Clock::wall(),
            persist: Persist::none(),
        }
    }
}

/// A distributed filesystem: metadata tree + pooled data servers.
pub struct StubFs {
    pub(crate) meta: Arc<dyn FileSystem>,
    pub(crate) pool: ServerPool,
    pub(crate) placement: Placement,
    pub(crate) persist: Persist,
    /// How new files are laid out (existing files say for themselves).
    pub(crate) layout: Layout,
    /// Parts per new file: 1 for [`Layout::Single`], the stripe width
    /// or replica count otherwise.
    pub(crate) width: usize,
}

impl StubFs {
    /// Build a stub filesystem over `meta` with the given data pool,
    /// placing each new file whole on one server.
    pub fn new(
        meta: Arc<dyn FileSystem>,
        pool: Vec<DataServer>,
        placement: Placement,
        options: StubFsOptions,
    ) -> StubFs {
        StubFs::with_layout(meta, pool, placement, options, Layout::Single, 1)
    }

    /// [`StubFs::new`] for an engine whose new files are `layout` over
    /// `width` servers (validated by the striped/mirrored
    /// constructors).
    pub(crate) fn with_layout(
        meta: Arc<dyn FileSystem>,
        pool: Vec<DataServer>,
        placement: Placement,
        options: StubFsOptions,
        layout: Layout,
        width: usize,
    ) -> StubFs {
        let persist = options.persist.clone();
        StubFs {
            meta,
            pool: ServerPool::new(pool, options),
            placement,
            persist,
            layout,
            width,
        }
    }

    /// The metadata filesystem.
    pub fn meta(&self) -> &Arc<dyn FileSystem> {
        &self.meta
    }

    /// The data pool.
    pub fn pool(&self) -> &[DataServer] {
        self.pool.servers()
    }

    /// Create each pool server's volume directory if missing.
    pub fn ensure_volumes(&self) -> io::Result<()> {
        self.pool.ensure_volumes()
    }

    /// A pooled connection to a data endpoint (used by maintenance
    /// tools such as [`crate::fsck()`]); returns to the pool on drop.
    pub fn data_conn(&self, endpoint: &str) -> io::Result<PooledConn> {
        Ok(self.pool.checkout(endpoint))
    }

    /// A snapshot of the data-connection pool counters.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    pub(crate) fn read_stub(&self, path: &str) -> io::Result<StubRecord> {
        StubRecord::decode(&self.meta.read_file(path)?)
    }

    /// Start the create protocol for `path` (paper §5): the returned
    /// transaction has chosen servers and unique data names but made
    /// nothing durable. The type system forces the remaining steps
    /// into the crash-safe order — see [`crate::protocol`].
    pub fn begin_create(&self, path: &str) -> io::Result<CreateTxn<'_, Placed>> {
        CreateTxn::begin(self, path)
    }

    /// Start the delete protocol for `path`: reads the live stub. The
    /// type system forces data-then-stub removal — see
    /// [`crate::protocol`].
    pub fn begin_delete(&self, path: &str) -> io::Result<DeleteTxn<'_, StubLive>> {
        DeleteTxn::begin(self, path)
    }

    fn open_existing(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> io::Result<Box<dyn FileHandle>> {
        let record = self.read_stub(path)?;
        // CREATE must not apply to the parts of an existing stub — the
        // stub's existence already answered the create question — and
        // APPEND only where the one part is the whole file (a layout
        // computes the offsets within several).
        let mut part_flags = OpenFlags::empty();
        for f in [
            OpenFlags::READ,
            OpenFlags::WRITE,
            OpenFlags::TRUNCATE,
            OpenFlags::APPEND,
            OpenFlags::SYNC,
        ] {
            if flags.contains(f) && (f != OpenFlags::APPEND || record.parts.len() == 1) {
                part_flags |= f;
            }
        }
        // A dangling stub — data lost, or a create crashed between
        // steps 2 and 3 — gets the paper's mandated answer.
        self.compose(&record, part_flags, mode)
            .map_err(|e| match e.kind() {
                io::ErrorKind::NotFound => io::Error::new(e.kind(), "file not found"),
                _ => e,
            })
    }

    /// Open the parts `record` names with `flags`, each over its own
    /// pooled connection, and make one handle of them.
    fn compose(
        &self,
        record: &StubRecord,
        flags: OpenFlags,
        mode: u32,
    ) -> io::Result<Box<dyn FileHandle>> {
        let mutates = flags.contains(OpenFlags::WRITE) || flags.contains(OpenFlags::TRUNCATE);
        match record.layout {
            // The pool's handle itself: no layer between the caller
            // and the data connection.
            Layout::Single => {
                let (endpoint, path) = &record.parts[0];
                self.pool.open(endpoint, path, flags, mode)
            }
            // A pure read of a mirror fails over to any live replica.
            Layout::Mirrored if !mutates => {
                mirrored::open_any(&self.pool, record.parts.clone(), flags)
            }
            // Open every part concurrently; the first error in part
            // order wins.
            _ => {
                let pool = &self.pool;
                let jobs: Vec<_> = (record.parts.iter())
                    .map(|(endpoint, path)| move || pool.open(endpoint, path, flags, mode))
                    .collect();
                let handles = run_fanout(jobs).into_iter().collect::<io::Result<_>>()?;
                Ok(self.assemble(record, handles, flags))
            }
        }
    }

    /// Make one handle of the opened parts of `record`, as its layout
    /// says.
    pub(crate) fn assemble(
        &self,
        record: &StubRecord,
        mut handles: Vec<Box<dyn FileHandle>>,
        flags: OpenFlags,
    ) -> Box<dyn FileHandle> {
        match record.layout {
            Layout::Single => handles.swap_remove(0),
            Layout::Striped { stripe_size } => Box::new(StripedHandle::new(
                stripe_size,
                record.parts.clone(),
                handles,
                &self.pool,
                flags,
            )),
            // Mutation must reach every replica to keep mirrors equal.
            Layout::Mirrored => Box::new(MirrorHandle::new(handles)),
        }
    }

    /// Stat every part of one file: a batch per endpoint, the batches
    /// fanned out concurrently and the verdicts scattered back into
    /// part order, so error precedence is that of a per-part loop.
    fn stat_parts(&self, parts: &[(String, String)]) -> Vec<io::Result<StatBuf>> {
        let groups = by_endpoint(parts);
        let jobs: Vec<_> = groups
            .iter()
            .map(|(endpoint, idxs)| {
                let paths: Vec<String> = idxs.iter().map(|&i| parts[i].1.clone()).collect();
                move || self.pool.with_conn(endpoint, |cfs| cfs.stat_multi(&paths))
            })
            .collect();
        let mut by_part: Vec<Option<io::Result<StatBuf>>> = parts.iter().map(|_| None).collect();
        for ((_, idxs), answer) in groups.iter().zip(run_fanout(jobs)) {
            for (k, &i) in idxs.iter().enumerate() {
                by_part[i] = Some(match &answer {
                    // (The client checks there is one verdict per path.)
                    Ok(verdicts) => verdicts[k].map_err(io::Error::from),
                    Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
                });
            }
        }
        by_part
            .into_iter()
            .map(|v| v.expect("every part belongs to a group"))
            .collect()
    }

    /// The attributes of the file `record` describes, combined from its
    /// parts as its layout says.
    fn stat_record(&self, record: &StubRecord) -> io::Result<StatBuf> {
        match record.layout {
            // One round trip to the directory tree for the stub, one
            // to the data server for the attributes — the "twice the
            // latency for metadata operations" of Figure 4.
            Layout::Single => {
                let (endpoint, data_path) = &record.parts[0];
                self.pool.with_conn(endpoint, |cfs| cfs.stat(data_path))
            }
            Layout::Striped { .. } => striped::sum_sizes(self.stat_parts(&record.parts)),
            Layout::Mirrored => mirrored::stat_any(&self.pool, &record.parts),
        }
    }
}

/// Part indices grouped by endpoint, in order of first appearance: an
/// endpoint's parts all settle in a single `STATMULTI` exchange.
fn by_endpoint(parts: &[(String, String)]) -> Vec<(&str, Vec<usize>)> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, (endpoint, _)) in parts.iter().enumerate() {
        match groups.iter_mut().find(|(e, _)| *e == endpoint) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((endpoint, vec![i])),
        }
    }
    groups
}

impl FileSystem for StubFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        if flags.contains(OpenFlags::CREATE) {
            // The create protocol: place, stub (exclusive), then data
            // parts — the transaction's types keep that order.
            match self.begin_create(path)?.write_stub() {
                Ok(staged) => return staged.create_data(flags, mode),
                // The name is taken: open the file that has it, unless
                // the caller wanted to be its creator.
                Err(e)
                    if e.kind() == io::ErrorKind::AlreadyExists
                        && !flags.contains(OpenFlags::EXCLUSIVE) => {}
                Err(e) => return Err(e),
            }
        }
        self.open_existing(path, flags, mode)
    }

    fn stat(&self, path: &str) -> io::Result<StatBuf> {
        match self.read_stub(path) {
            Ok(record) => self.stat_record(&record),
            // Directories exist only in the tree.
            Err(e) if e.kind() == io::ErrorKind::IsADirectory => self.meta.stat(path),
            Err(e) => Err(e),
        }
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        // Data first, then stub, so no unreferenced data survives —
        // the order is compiler-checked (see `crate::protocol`).
        self.begin_delete(path)?.unlink_data()?.unlink_stub()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        // Name-only operation: the directory tree alone changes; no
        // file server is contacted.
        self.meta.rename(from, to)
    }

    fn mkdir(&self, path: &str, mode: u32) -> io::Result<()> {
        self.meta.mkdir(path, mode)
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        self.meta.rmdir(path)
    }

    fn readdir(&self, path: &str) -> io::Result<Vec<String>> {
        self.meta.readdir(path)
    }

    fn truncate(&self, path: &str, size: u64) -> io::Result<()> {
        let record = self.read_stub(path)?;
        match &record.parts[..] {
            // One part's length is the file's: a single TRUNCATE.
            [(endpoint, data_path)] => self
                .pool
                .with_conn(endpoint, |cfs| cfs.truncate(data_path, size)),
            // Several: the composed handle knows each part's share.
            _ => self.compose(&record, OpenFlags::WRITE, 0)?.ftruncate(size),
        }
    }

    fn sync_dir(&self, path: &str) -> io::Result<()> {
        // Directories exist only in the tree.
        self.meta.sync_dir(path)
    }

    /// The recursive-stub hot path, batched: one listing-with-stats of
    /// the directory tree tells files from subdirectories, then each
    /// file's stub is resolved and the data-server attributes arrive
    /// as one `STATMULTI` per endpoint — a constant number of data
    /// round trips per server instead of one per entry. (A multi-part
    /// file settles on its own: its layout combines its part stats.)
    /// Entries whose stub dangles (create crashed between stub and data
    /// file) are omitted, matching the "file not found" their open
    /// would report.
    fn readdir_stat(&self, path: &str) -> io::Result<Vec<(String, StatBuf)>> {
        let base = crate::fs::normalize_path(path);
        let child = |name: &str| {
            if base == "/" {
                format!("/{name}")
            } else {
                format!("{base}/{name}")
            }
        };
        let listed = self.meta.readdir_stat(path)?;
        let mut out: Vec<Option<(String, StatBuf)>> = Vec::with_capacity(listed.len());
        // Fill `out[slot]` from a data-server verdict.
        fn fill_slot(
            entry: &mut Option<(String, StatBuf)>,
            verdict: io::Result<StatBuf>,
        ) -> io::Result<()> {
            match verdict {
                Ok(st) => entry.as_mut().expect("slot filled above").1 = st,
                Err(e) if e.kind() == io::ErrorKind::NotFound => *entry = None, // dangling stub
                Err(e) => return Err(e),
            }
            Ok(())
        }
        // (slot in `out`, part) for every one-part stub entry.
        let mut slots: Vec<usize> = Vec::new();
        let mut batch: Vec<(String, String)> = Vec::new();
        for (name, meta_stat) in listed {
            if meta_stat.is_dir() {
                // Directories exist only in the tree.
                out.push(Some((name, meta_stat)));
                continue;
            }
            let record = match self.read_stub(&child(&name)) {
                Ok(record) => record,
                // A zero-length stub (create crashed before the stub
                // write) is omitted, like any other dangling entry.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let slot = out.len();
            out.push(Some((name, meta_stat)));
            if record.parts.len() > 1 {
                fill_slot(&mut out[slot], self.stat_record(&record))?;
            } else {
                slots.push(slot);
                batch.extend(record.parts);
            }
        }
        for (endpoint, idxs) in by_endpoint(&batch) {
            let paths: Vec<String> = idxs.iter().map(|&i| batch[i].1.clone()).collect();
            let verdicts = self
                .pool
                .with_conn(endpoint, |cfs| cfs.stat_multi(&paths))?;
            for (&i, verdict) in idxs.iter().zip(verdicts) {
                fill_slot(&mut out[slots[i]], verdict.map_err(io::Error::from))?;
            }
        }
        Ok(out.into_iter().flatten().collect())
    }
}

/// Make `$outer` a face of the [`StubFs`] in its `$field`: implement
/// [`FileSystem`] by delegating every method, and expose the engine.
/// Used by the `Dpfs`/`Dsfs`/`StripedFs`/`MirroredFs` wrappers, which
/// add only construction and documentation on top of [`StubFs`].
macro_rules! delegate_filesystem {
    ($outer:ty, $field:ident) => {
        impl $outer {
            /// Create each pool server's volume directory if missing.
            /// Part of "to create a new filesystem, one must specify a
            /// list of hosts, create a new directory root, and create
            /// new storage directories on each server".
            pub fn ensure_volumes(&self) -> std::io::Result<()> {
                self.$field.ensure_volumes()
            }

            /// A snapshot of the data-connection pool counters.
            pub fn pool_stats(&self) -> crate::pool::PoolStats {
                self.$field.pool_stats()
            }

            /// The underlying stub engine.
            pub fn stubfs(&self) -> &crate::stubfs::StubFs {
                &self.$field
            }
        }

        impl crate::fs::FileSystem for $outer {
            fn open(
                &self,
                path: &str,
                flags: chirp_proto::OpenFlags,
                mode: u32,
            ) -> std::io::Result<Box<dyn crate::fs::FileHandle>> {
                self.$field.open(path, flags, mode)
            }
            fn stat(&self, path: &str) -> std::io::Result<chirp_proto::StatBuf> {
                self.$field.stat(path)
            }
            fn unlink(&self, path: &str) -> std::io::Result<()> {
                self.$field.unlink(path)
            }
            fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
                self.$field.rename(from, to)
            }
            fn mkdir(&self, path: &str, mode: u32) -> std::io::Result<()> {
                self.$field.mkdir(path, mode)
            }
            fn rmdir(&self, path: &str) -> std::io::Result<()> {
                self.$field.rmdir(path)
            }
            fn readdir(&self, path: &str) -> std::io::Result<Vec<String>> {
                self.$field.readdir(path)
            }
            fn truncate(&self, path: &str, size: u64) -> std::io::Result<()> {
                self.$field.truncate(path, size)
            }
            fn sync_dir(&self, path: &str) -> std::io::Result<()> {
                self.$field.sync_dir(path)
            }
            fn readdir_stat(
                &self,
                path: &str,
            ) -> std::io::Result<Vec<(String, chirp_proto::StatBuf)>> {
                self.$field.readdir_stat(path)
            }
        }
    };
}
pub(crate) use delegate_filesystem;
