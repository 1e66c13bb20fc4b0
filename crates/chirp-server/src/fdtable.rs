//! Per-connection descriptor table.
//!
//! Descriptors are connection-scoped: when the connection drops, the
//! whole table drops with it and every file closes. A descriptor
//! returned by `OPEN` is therefore only valid for the life of the
//! connection, and clients must re-open after a disconnection — the
//! paper's deliberately simple server-side failure semantics.
//! Each descriptor holds the export's boxed [`FileHandle`], whatever
//! store is behind it.

use std::sync::Arc;

use chirp_proto::fs::FileHandle;
use chirp_proto::{ChirpError, ChirpResult, OpenFlags};

use crate::cache::{FileKey, FileState};

/// One open file.
#[derive(Debug)]
pub struct OpenFile {
    /// The export's handle on the file: writes, syncs and truncates
    /// go through it and announce their durability points.
    pub handle: Box<dyn FileHandle>,
    /// The flags the file was opened with.
    pub flags: OpenFlags,
    /// The file's `(device, inode)` identity — the buffer cache key.
    pub key: FileKey,
    /// Size and liveness shared by every descriptor on this inode,
    /// so the hot write path computes growth without an `fstat`.
    pub state: Arc<FileState>,
}

impl OpenFile {
    /// The current tracked size.
    pub fn size(&self) -> u64 {
        self.state.size.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A table of open descriptors, bounded by the server's
/// `max_open_per_connection`.
#[derive(Debug)]
pub struct FdTable {
    slots: Vec<Option<OpenFile>>,
    max: usize,
}

impl FdTable {
    /// An empty table allowing at most `max` concurrent descriptors.
    pub fn new(max: usize) -> FdTable {
        FdTable {
            slots: Vec::new(),
            max,
        }
    }

    /// Insert a file, returning its descriptor. Reuses the lowest free
    /// slot, like Unix.
    pub fn insert(&mut self, open: OpenFile) -> ChirpResult<i32> {
        if let Some(i) = self.slots.iter().position(Option::is_none) {
            self.slots[i] = Some(open);
            return Ok(i as i32);
        }
        if self.slots.len() >= self.max {
            return Err(ChirpError::TooManyOpen);
        }
        self.slots.push(Some(open));
        Ok((self.slots.len() - 1) as i32)
    }

    /// Look up a descriptor.
    pub fn get(&mut self, fd: i32) -> ChirpResult<&mut OpenFile> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::as_mut)
            .ok_or(ChirpError::BadFd)
    }

    /// Remove a descriptor, closing the file when the returned value
    /// drops.
    pub fn remove(&mut self, fd: i32) -> ChirpResult<OpenFile> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::take)
            .ok_or(ChirpError::BadFd)
    }

    /// Number of currently open descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::fs::FileSystem;
    use chirp_proto::localfs::LocalFs;
    use chirp_proto::testutil::TempDir;

    fn open_file(dir: &TempDir, name: &str) -> OpenFile {
        let fs = LocalFs::new(dir.path()).unwrap();
        let flags = OpenFlags::read_write() | OpenFlags::CREATE;
        let (handle, st) = fs.open_stat(name, flags, 0o644).unwrap();
        OpenFile {
            handle,
            flags,
            key: crate::cache::stat_key(&st),
            state: Arc::default(),
        }
    }

    #[test]
    fn descriptors_are_dense_and_reused() {
        let dir = TempDir::new();
        let mut t = FdTable::new(8);
        let a = t.insert(open_file(&dir, "a")).unwrap();
        let b = t.insert(open_file(&dir, "b")).unwrap();
        assert_eq!((a, b), (0, 1));
        t.remove(a).unwrap();
        let c = t.insert(open_file(&dir, "c")).unwrap();
        assert_eq!(c, 0, "lowest free slot is reused");
        assert_eq!(t.open_count(), 2);
    }

    #[test]
    fn limit_is_enforced() {
        let dir = TempDir::new();
        let mut t = FdTable::new(2);
        t.insert(open_file(&dir, "a")).unwrap();
        t.insert(open_file(&dir, "b")).unwrap();
        assert_eq!(
            t.insert(open_file(&dir, "c")).unwrap_err(),
            ChirpError::TooManyOpen
        );
    }

    #[test]
    fn bad_descriptors_rejected() {
        let mut t = FdTable::new(2);
        assert_eq!(t.get(0).unwrap_err(), ChirpError::BadFd);
        assert_eq!(t.get(-1).unwrap_err(), ChirpError::BadFd);
        assert_eq!(t.remove(5).unwrap_err(), ChirpError::BadFd);
    }
}
