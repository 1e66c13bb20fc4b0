//! An NFS-shaped baseline filesystem.
//!
//! The paper compares TSS against NFS because NFS is the technology
//! end users would otherwise reach for. Its evaluation isolates
//! *protocol shape*, not kernel engineering ("the low bandwidth is
//! due to the protocol"), and the comparison turns on three NFS
//! protocol properties. Each is a rule about which requests a client
//! sends, so [`NfsShape`] reproduces them as a thin [`FileSystem`]
//! layer over any other — in the benches, over a `Cfs` on the same
//! Chirp server the CFS side uses, so only the shape differs:
//!
//! 1. **Per-component LOOKUP** — a path is resolved one component at
//!    a time, each a full round trip, before the file can be opened
//!    or stat'ed. Every path call first sends one `stat` per ancestor
//!    directory, so a call on a depth-*d* path costs *d* requests
//!    where CFS sends the whole path in one.
//! 2. **Bounded transfer size** — READ/WRITE move at most
//!    [`MAX_TRANSFER`] bytes per request, so large copies degenerate
//!    into a long chain of request/response pairs.
//! 3. **Strict request/response** — one outstanding RPC per client,
//!    so bandwidth is capped at `transfer_size / round_trip_time`.
//!    The inner filesystem provides this (CFS holds one connection
//!    and waits for each reply); the layer never issues two requests
//!    at once.
//!
//! Whole-file reads and writes and attribute listings keep the trait
//! defaults, built on `open`/`pread`/`pwrite`/`stat`, so an inner
//! filesystem's streaming calls (CFS's `GETFILE`/`PUTFILE`) can never
//! skip the transfer cap. Caching is absent, matching the paper's
//! configuration ("we have turned off caching and synchronous writes
//! in NFS").

#![warn(missing_docs)]

use std::io;

use chirp_proto::fs::{normalize_path, path_components, FileHandle, FileSystem};
use chirp_proto::{OpenFlags, StatBuf};

/// Maximum bytes one READ/WRITE request may move (NFSv2's rsize/wsize).
pub const MAX_TRANSFER: usize = 4096;

/// An NFS-shaped view of the filesystem `F`: per-component lookups
/// before every path call and at most [`MAX_TRANSFER`] bytes per
/// `pread`/`pwrite` request.
pub struct NfsShape<F: FileSystem> {
    inner: F,
}

impl<F: FileSystem> NfsShape<F> {
    /// Wrap `inner`.
    pub fn new(inner: F) -> NfsShape<F> {
        NfsShape { inner }
    }

    /// LOOKUP each ancestor of `path`, one `stat` per component, and
    /// return the normalized path. A missing ancestor fails with the
    /// inner filesystem's error and a non-directory one with
    /// `NotADirectory`, as a host filesystem answers.
    fn lookup(&self, path: &str) -> io::Result<String> {
        let components = path_components(path);
        let mut dir = String::new();
        for name in components.iter().take(components.len().saturating_sub(1)) {
            dir.push('/');
            dir.push_str(name);
            if !self.inner.stat(&dir)?.is_dir() {
                return Err(io::ErrorKind::NotADirectory.into());
            }
        }
        Ok(normalize_path(path))
    }
}

impl<F: FileSystem> FileSystem for NfsShape<F> {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        let path = self.lookup(path)?;
        let inner = self.inner.open(&path, flags, mode)?;
        Ok(Box::new(NfsHandle { inner }))
    }

    fn stat(&self, path: &str) -> io::Result<StatBuf> {
        self.inner.stat(&self.lookup(path)?)
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        self.inner.unlink(&self.lookup(path)?)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let from = self.lookup(from)?;
        let to = self.lookup(to)?;
        self.inner.rename(&from, &to)
    }

    fn mkdir(&self, path: &str, mode: u32) -> io::Result<()> {
        self.inner.mkdir(&self.lookup(path)?, mode)
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        self.inner.rmdir(&self.lookup(path)?)
    }

    fn readdir(&self, path: &str) -> io::Result<Vec<String>> {
        self.inner.readdir(&self.lookup(path)?)
    }

    fn truncate(&self, path: &str, size: u64) -> io::Result<()> {
        self.inner.truncate(&self.lookup(path)?, size)
    }

    fn set_mtime(&self, path: &str, mtime: u64) -> io::Result<()> {
        self.inner.set_mtime(&self.lookup(path)?, mtime)
    }
}

/// An open file whose transfers are split into [`MAX_TRANSFER`]-byte
/// requests, sent one after another.
struct NfsHandle {
    inner: Box<dyn FileHandle>,
}

impl FileHandle for NfsHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let mut filled = 0;
        for chunk in buf.chunks_mut(MAX_TRANSFER) {
            let n = self.inner.pread(chunk, offset + filled as u64)?;
            filled += n;
            // Short only at end of file: the rest would read nothing.
            if n < chunk.len() {
                break;
            }
        }
        Ok(filled)
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        let mut written = 0;
        for chunk in buf.chunks(MAX_TRANSFER) {
            let n = self.inner.pwrite(chunk, offset + written as u64)?;
            written += n;
            if n < chunk.len() {
                break;
            }
        }
        Ok(written)
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
