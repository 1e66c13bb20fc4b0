//! The recursive storage abstraction: one Unix-like filesystem
//! interface implemented by every layer of the system.
//!
//! Resources (file servers) export it, abstractions (CFS, DPFS, DSFS)
//! implement it *on top of* resources, and the adapter presents it to
//! applications. Because the interface is the same at every level, an
//! abstraction can be stacked on any other — the property the paper
//! calls *recursive storage abstraction*.
//!
//! The interface lives beside the wire types rather than in the
//! abstraction layer so the file server can name it too: the server's
//! metadata handlers run over a [`crate::localfs::LocalFs`], the same
//! bottom layer every abstraction can stand on.

use std::io;

use crate::{OpenFlags, StatBuf};

/// An open file within some abstraction.
///
/// All I/O is positional (`pread`/`pwrite`), mirroring the Chirp
/// protocol; cursor-style access is layered on by [`OpenedFile`].
pub trait FileHandle: Send {
    /// Read up to `buf.len()` bytes at `offset`; short only at EOF.
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize>;
    /// Write the whole buffer at `offset`.
    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize>;
    /// Attributes of the open file.
    fn fstat(&mut self) -> io::Result<StatBuf>;
    /// Flush to stable storage.
    fn fsync(&mut self) -> io::Result<()>;
    /// Truncate to `size`.
    fn ftruncate(&mut self, size: u64) -> io::Result<()>;
}

/// A filesystem abstraction: the Unix interface of §2.
///
/// Implementations use interior mutability (`&self` methods) so one
/// abstraction can be shared by many application threads, as a real
/// kernel filesystem would be.
pub trait FileSystem: Send + Sync {
    /// Open a file, creating it if `flags` say so.
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>>;
    /// Attributes by path.
    fn stat(&self, path: &str) -> io::Result<StatBuf>;
    /// Remove a file.
    fn unlink(&self, path: &str) -> io::Result<()>;
    /// Atomic rename.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Create a directory.
    fn mkdir(&self, path: &str, mode: u32) -> io::Result<()>;
    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> io::Result<()>;
    /// List a directory.
    fn readdir(&self, path: &str) -> io::Result<Vec<String>>;
    /// Truncate by path.
    fn truncate(&self, path: &str, size: u64) -> io::Result<()>;

    /// Flush a directory's entry list to stable storage, so entries
    /// created (or removed) inside it survive a crash. The default is
    /// a no-op: remote abstractions delegate durability to the far
    /// side, and only stores backed directly by a host filesystem
    /// (see [`crate::localfs::LocalFs`]) have a real directory to sync.
    fn sync_dir(&self, path: &str) -> io::Result<()> {
        let _ = path;
        Ok(())
    }

    /// Read a whole file (convenience built on open/pread).
    fn read_file(&self, path: &str) -> io::Result<Vec<u8>> {
        let mut h = self.open(path, OpenFlags::READ, 0)?;
        let size = h.fstat()?.size as usize;
        let mut out = vec![0u8; size];
        let mut filled = 0;
        while filled < out.len() {
            let n = h.pread(&mut out[filled..], filled as u64)?;
            if n == 0 {
                out.truncate(filled);
                break;
            }
            filled += n;
        }
        Ok(out)
    }

    /// List a directory with each entry's attributes. The default
    /// stats entry by entry; abstractions whose protocol has a batched
    /// listing (CFS → `GETDIRSTAT`, DSFS → stub resolution over
    /// `STATMULTI`) override it to answer in a constant number of
    /// round trips instead of one per entry.
    fn readdir_stat(&self, path: &str) -> io::Result<Vec<(String, StatBuf)>> {
        let base = normalize_path(path);
        self.readdir(path)?
            .into_iter()
            .map(|name| {
                let p = if base == "/" {
                    format!("/{name}")
                } else {
                    format!("{base}/{name}")
                };
                let st = self.stat(&p)?;
                Ok((name, st))
            })
            .collect()
    }

    /// Create/replace a whole file (convenience built on open/pwrite).
    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let mut h = self.open(
            path,
            OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE,
            0o644,
        )?;
        let mut written = 0;
        while written < data.len() {
            let n = h.pwrite(&data[written..], written as u64)?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            written += n;
        }
        Ok(())
    }
}

/// Cursor-style access over a positional [`FileHandle`], for
/// applications written against `read`/`write`/`seek`.
pub struct OpenedFile {
    handle: Box<dyn FileHandle>,
    offset: u64,
}

impl OpenedFile {
    /// Wrap a positional handle with a cursor at offset zero.
    pub fn new(handle: Box<dyn FileHandle>) -> OpenedFile {
        OpenedFile { handle, offset: 0 }
    }

    /// The underlying positional handle.
    pub fn handle_mut(&mut self) -> &mut dyn FileHandle {
        self.handle.as_mut()
    }

    /// Current cursor position.
    pub fn position(&self) -> u64 {
        self.offset
    }

    /// Attributes of the open file.
    pub fn fstat(&mut self) -> io::Result<StatBuf> {
        self.handle.fstat()
    }

    /// Flush to stable storage.
    pub fn fsync(&mut self) -> io::Result<()> {
        self.handle.fsync()
    }
}

impl io::Read for OpenedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.handle.pread(buf, self.offset)?;
        self.offset += n as u64;
        Ok(n)
    }
}

impl io::Write for OpenedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.handle.pwrite(buf, self.offset)?;
        self.offset += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl io::Seek for OpenedFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        let new = match pos {
            io::SeekFrom::Start(o) => o as i64,
            io::SeekFrom::Current(d) => self.offset as i64 + d,
            io::SeekFrom::End(d) => self.handle.fstat()?.size as i64 + d,
        };
        if new < 0 {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        self.offset = new as u64;
        Ok(self.offset)
    }
}

/// Normalize an abstraction path: leading `/`, `.`/`..` resolved,
/// no trailing slash. Abstractions call this so path identity is
/// consistent across layers.
pub fn normalize_path(path: &str) -> String {
    let parts = path_components(path);
    if parts.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", parts.join("/"))
    }
}

/// The components of [`normalize_path`]`(path)`, without building the
/// string: for code that joins them onto a host root.
pub fn path_components(path: &str) -> Vec<&str> {
    let mut parts: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            c => parts.push(c),
        }
    }
    parts
}

/// Split a normalized path into `(parent, leaf)`; `None` for the root.
pub fn split_parent(path: &str) -> Option<(String, String)> {
    let norm = normalize_path(path);
    if norm == "/" {
        return None;
    }
    let idx = norm.rfind('/').expect("normalized path has a slash");
    let parent = if idx == 0 { "/" } else { &norm[..idx] };
    Some((parent.to_string(), norm[idx + 1..].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses() {
        assert_eq!(normalize_path("/a//b/./c/../d"), "/a/b/d");
        assert_eq!(normalize_path(""), "/");
        assert_eq!(normalize_path("/.."), "/");
        assert_eq!(normalize_path("a/b"), "/a/b");
    }

    #[test]
    fn split_parent_handles_depths() {
        assert_eq!(split_parent("/a"), Some(("/".into(), "a".into())));
        assert_eq!(split_parent("/a/b/c"), Some(("/a/b".into(), "c".into())));
        assert_eq!(split_parent("/"), None);
    }
}
