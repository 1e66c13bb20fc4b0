//! A file handle that re-opens itself: the step the stripe and mirror
//! layouts take *after* a pooled connection's own recovery has given
//! up.
//!
//! By the time a handle returns a transport error, [`crate::cfs`]'s
//! loop has already spent the retry policy on that server, so nothing
//! here sleeps, counts a retry or consults a policy. What is left is a
//! choice only the layout can make: the same bytes are reachable
//! through another open — a fresh pooled connection to the same part,
//! or the next replica of a mirror — so tell the pool's breaker, drop
//! the handle, open the next candidate and run the operation once
//! more. Server verdicts (ACL denial, not-found, stale) surface at
//! once: failover masks resource loss, never an answer.

use std::io;

use chirp_proto::{OpenFlags, StatBuf};

use crate::cfs::is_transport_error;
use crate::fs::FileHandle;
use crate::pool::ServerPool;

/// One open handle over interchangeable `(endpoint, path)` candidates:
/// a single stripe part (one candidate, re-opened in place) or the
/// replicas of a mirrored file (demote the dead one, move on).
pub(crate) struct FailoverHandle {
    candidates: Vec<(String, String)>,
    /// The candidate currently serving, if any is open.
    current: Option<(usize, Box<dyn FileHandle>)>,
    pool: ServerPool,
    /// Flags a candidate is (re-)opened with; never the one-shot bits.
    flags: OpenFlags,
}

impl FailoverHandle {
    /// A handle over `candidates`, of which number `index` is already
    /// open as `handle`.
    pub(crate) fn new(
        candidates: Vec<(String, String)>,
        index: usize,
        handle: Box<dyn FileHandle>,
        pool: &ServerPool,
        flags: OpenFlags,
    ) -> FailoverHandle {
        FailoverHandle {
            candidates,
            current: Some((index, handle)),
            pool: pool.clone(),
            flags,
        }
    }

    /// Run `op` on the current candidate; on a transport error walk
    /// the candidates (wrapping, so a lone candidate is re-opened once)
    /// until one answers. The breaker hears about every outcome; the
    /// last error wins if nobody answers.
    fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut dyn FileHandle) -> io::Result<T>,
    ) -> io::Result<T> {
        let n = self.candidates.len();
        let start = self.current.as_ref().map_or(0, |(i, _)| *i);
        let mut last: io::Error = io::ErrorKind::NotFound.into();
        for k in 0..n.max(2) {
            let idx = (start + k) % n;
            let (endpoint, path) = &self.candidates[idx];
            if self.current.as_ref().is_none_or(|(i, _)| *i != idx) {
                match self.pool.open(endpoint, path, self.flags, 0) {
                    Ok(h) => self.current = Some((idx, h)),
                    Err(e) if is_transport_error(&e) => {
                        self.pool.report_failure(endpoint);
                        last = e;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let (_, handle) = self.current.as_mut().expect("just ensured");
            match op(handle.as_mut()) {
                Ok(v) => {
                    self.pool.report_success(endpoint);
                    return Ok(v);
                }
                Err(e) if is_transport_error(&e) => {
                    // Demote: the dead candidate loses its slot, and
                    // the next call starts from whoever answers now.
                    self.pool.report_failure(endpoint);
                    self.current = None;
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }
}

impl FileHandle for FailoverHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.run(|h| h.pread(buf, offset))
    }

    /// Positional writes are idempotent, so a re-opened candidate may
    /// safely repeat one. (A handle opened without `WRITE` gets the
    /// server's verdict, unchanged.)
    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.run(|h| h.pwrite(buf, offset))
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        self.run(|h| h.fstat())
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.run(|h| h.fsync())
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        self.run(|h| h.ftruncate(size))
    }
}
