//! Transparent replication — the conclusion's second suggested
//! variation: a filesystem that mirrors every file onto several
//! servers so reads survive device loss.
//!
//! Writes go to every replica (strict: a write that cannot reach all
//! replicas fails, keeping mirrors identical); reads and stats try
//! replicas in order and fail over silently. Built, like everything
//! else, purely on the servers' ordinary file interface.

use std::io;
use std::sync::Arc;

use chirp_proto::{OpenFlags, StatBuf};

use crate::cfs::is_transport_error;
use crate::failover::FailoverHandle;
use crate::fanout::run_fanout;
use crate::fs::{FileHandle, FileSystem};
use crate::placement::Placement;
use crate::pool::ServerPool;
use crate::stub::Layout;
use crate::stubfs::{delegate_filesystem, DataServer, StubFs, StubFsOptions};

/// A filesystem that mirrors every new file across several servers:
/// the stub engine, creating [`Layout::Mirrored`] files.
pub struct MirroredFs {
    inner: StubFs,
}

impl MirroredFs {
    /// Build a mirrored filesystem with `copies` replicas per file.
    pub fn new(
        meta: Arc<dyn FileSystem>,
        pool: Vec<DataServer>,
        copies: usize,
        options: StubFsOptions,
    ) -> io::Result<MirroredFs> {
        if copies == 0 || pool.len() < copies {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "copies exceed pool",
            ));
        }
        Ok(MirroredFs {
            inner: StubFs::with_layout(
                meta,
                pool,
                Placement::round_robin(),
                options,
                Layout::Mirrored,
                copies,
            ),
        })
    }
}

delegate_filesystem!(MirroredFs, inner);

/// Try `attempt` on each replica until one answers: endpoints whose
/// circuit breaker is closed (or due a half-open probe) first,
/// cooling-down endpoints last as a last resort. The breaker hears
/// about every outcome; the last error wins if nobody answers.
fn first_healthy<T>(
    pool: &ServerPool,
    replicas: &[(String, String)],
    mut attempt: impl FnMut(usize, &str, &str) -> io::Result<T>,
) -> io::Result<T> {
    let (mut order, cooling): (Vec<usize>, Vec<usize>) =
        (0..replicas.len()).partition(|&i| pool.endpoint_available(&replicas[i].0));
    order.extend(cooling);
    let mut last: io::Error = io::ErrorKind::NotFound.into();
    for idx in order {
        let (endpoint, path) = &replicas[idx];
        match attempt(idx, endpoint, path) {
            Ok(v) => {
                pool.report_success(endpoint);
                return Ok(v);
            }
            Err(e) => {
                if is_transport_error(&e) {
                    pool.report_failure(endpoint);
                }
                last = e;
            }
        }
    }
    Err(last)
}

/// Open a read handle that fails over between replicas for its
/// whole life. The first open tries replicas health-first; later
/// transport failures demote the current replica and move on.
pub(crate) fn open_any(
    pool: &ServerPool,
    replicas: Vec<(String, String)>,
    flags: OpenFlags,
) -> io::Result<Box<dyn FileHandle>> {
    let (idx, handle) = first_healthy(pool, &replicas, |idx, endpoint, path| {
        Ok((idx, pool.open(endpoint, path, flags, 0)?))
    })?;
    Ok(Box::new(FailoverHandle::new(
        replicas, idx, handle, pool, flags,
    )))
}

/// The attributes of the first replica that answers: sequential
/// failover in health order, like reads.
pub(crate) fn stat_any(pool: &ServerPool, replicas: &[(String, String)]) -> io::Result<StatBuf> {
    first_healthy(pool, replicas, |_, endpoint, path| {
        pool.with_conn(endpoint, |cfs| cfs.stat(path))
    })
}

/// Write-all handle over every replica. Mutations fan out over scoped
/// threads — each replica handle owns its own pooled connection.
pub(crate) struct MirrorHandle {
    handles: Vec<Box<dyn FileHandle>>,
    /// Read failover-with-demotion: the replica reads start from.
    /// Bumped past any replica whose read fails, so one dead mirror
    /// is not re-tried at the head of every subsequent read.
    preferred: usize,
}

impl MirrorHandle {
    /// One handle over every replica, each already opened for writing.
    pub(crate) fn new(handles: Vec<Box<dyn FileHandle>>) -> MirrorHandle {
        MirrorHandle {
            handles,
            preferred: 0,
        }
    }

    /// Run one mutation on every replica concurrently; strict
    /// semantics — the first error in replica order fails the call.
    fn on_all_replicas(
        &mut self,
        op: impl Fn(&mut Box<dyn FileHandle>) -> io::Result<()> + Sync,
    ) -> io::Result<()> {
        let op = &op;
        let jobs: Vec<_> = self.handles.iter_mut().map(|h| move || op(h)).collect();
        run_fanout(jobs).into_iter().collect()
    }
}

impl FileHandle for MirrorHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        // Sequential failover with demotion: start from the last
        // replica known good, and remember whoever answers.
        let n_replicas = self.handles.len();
        let mut last: io::Error = io::ErrorKind::NotFound.into();
        for k in 0..n_replicas {
            let idx = (self.preferred + k) % n_replicas;
            match self.handles[idx].pread(buf, offset) {
                Ok(n) => {
                    self.preferred = idx;
                    return Ok(n);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.on_all_replicas(|h| h.pwrite(buf, offset).map(|_| ()))?;
        Ok(buf.len())
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        self.handles[0].fstat()
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.on_all_replicas(|h| h.fsync())
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        self.on_all_replicas(|h| h.ftruncate(size))
    }
}
