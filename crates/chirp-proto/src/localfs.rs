//! `LocalFs`: the host filesystem behind the common interface.
//!
//! This is "Unix" in the paper's evaluation — the zero-overhead
//! baseline — the metadata store of a DPFS, whose directory tree lives
//! in a local filesystem chosen by the user, and the store a Chirp
//! server exports. A server's descriptor table holds the concrete
//! [`LocalHandle`] that [`LocalFs::open_handle`] returns, so every
//! write it serves announces its durability point here, once.

use std::fs::{File, Metadata, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::fs::{normalize_path, path_components, FileHandle, FileSystem};
use crate::persist::{crash_error, DurabilityPoint, Persist, WriteFate};
use crate::{OpenFlags, StatBuf};

/// The host filesystem rooted at a chosen directory.
#[derive(Debug, Clone)]
pub struct LocalFs {
    root: PathBuf,
    persist: Persist,
}

impl LocalFs {
    /// A local filesystem view rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> io::Result<LocalFs> {
        LocalFs::with_persistence(root, Persist::none())
    }

    /// Like [`LocalFs::new`], with a durability-point observer (see
    /// [`crate::persist`]): every mutation announces its point before
    /// it touches disk. The crash harness uses this to make a dsfs
    /// metadata tree, and a server's export, killable at every
    /// mutation.
    pub fn with_persistence(root: impl Into<PathBuf>, persist: Persist) -> io::Result<LocalFs> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(LocalFs {
            root: root.canonicalize()?,
            persist,
        })
    }

    /// A view of `root` exactly as named: nothing is created or
    /// canonicalized, so it costs one path copy. For the host-path
    /// `Acl` adapters that the ledger's ACL probe still calls once per
    /// lookup.
    #[doc(hidden)]
    pub fn unchecked(root: &Path) -> LocalFs {
        LocalFs {
            root: root.to_path_buf(),
            persist: Persist::none(),
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn host(&self, path: &str) -> PathBuf {
        let mut out = self.root.clone();
        for comp in path_components(path) {
            out.push(comp);
        }
        out
    }

    /// Open `path` as the concrete handle, with the `fstat` taken right
    /// after the open. Unobserved, that is the whole cost: one `open`,
    /// one `fstat`, no allocation; an observed open first stats to pick
    /// `Create` or `Truncate`.
    pub fn open_handle(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> io::Result<(LocalHandle, Metadata)> {
        let host = self.host(path);
        if self.persist.is_enabled() {
            let meta = std::fs::metadata(&host).ok();
            if meta.as_ref().is_some_and(|m| m.is_dir()) {
                return Err(io::ErrorKind::IsADirectory.into());
            }
            let exists = meta.is_some();
            if flags.contains(OpenFlags::CREATE) && !exists {
                self.persist.reached(DurabilityPoint::Create, path)?;
            } else if flags.contains(OpenFlags::TRUNCATE) && exists {
                self.persist.reached(DurabilityPoint::Truncate, path)?;
            }
        }
        let file = match open_options(flags, mode).open(&host) {
            Ok(file) => file,
            // A directory fails every open but a plain read-only one
            // (EISDIR, EEXIST under O_EXCL, ...): the failure path can
            // afford the stat that names it.
            Err(_) if host.is_dir() => return Err(io::ErrorKind::IsADirectory.into()),
            Err(e) => return Err(e),
        };
        // The fstat also catches a directory opened read-only.
        let meta = syscount::fstat(&file)?;
        if meta.is_dir() {
            return Err(io::ErrorKind::IsADirectory.into());
        }
        let path = if self.persist.is_enabled() {
            normalize_path(path)
        } else {
            String::new()
        };
        let persist = self.persist.clone();
        Ok((
            LocalHandle {
                file,
                flags,
                persist,
                path,
            },
            meta,
        ))
    }

    /// Set `path`'s modification time to `mtime` seconds after the
    /// epoch, announced as a [`DurabilityPoint::SetTimes`].
    pub fn set_mtime(&self, path: &str, mtime: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.host(path))?;
        self.persist.reached(DurabilityPoint::SetTimes, path)?;
        let t = std::time::UNIX_EPOCH + std::time::Duration::from_secs(mtime);
        file.set_times(std::fs::FileTimes::new().set_modified(t))
    }
}

/// Counted descriptor `fstat`s: an open takes one, a handle's `fstat`
/// one, and its reads, writes and truncates none — the server's hot-path
/// contract, which a test asserts through this count.
pub mod syscount {
    use std::cell::Cell;

    thread_local! {
        static FSTAT_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// `fstat`s so far on this thread, so parallel tests stay apart.
    pub fn fstat_calls() -> u64 {
        FSTAT_CALLS.with(Cell::get)
    }

    pub(super) fn fstat(file: &std::fs::File) -> std::io::Result<std::fs::Metadata> {
        FSTAT_CALLS.with(|n| n.set(n.get() + 1));
        file.metadata()
    }
}

/// A directory entry's name as a `String`, reusing its buffer when the
/// name is valid UTF-8.
fn entry_name(entry: &std::fs::DirEntry) -> String {
    entry
        .file_name()
        .into_string()
        .unwrap_or_else(|raw| raw.to_string_lossy().into_owned())
}

/// An open host file. [`LocalFs::open`] boxes it; a Chirp server's
/// descriptor table holds it unboxed, so the page cache and the
/// streamed replies take [`LocalHandle::file`] without a copy.
#[derive(Debug)]
pub struct LocalHandle {
    file: File,
    flags: OpenFlags,
    persist: Persist,
    /// The durability points' label: the normalized path when an
    /// observer is installed, empty otherwise.
    path: String,
}

impl LocalHandle {
    /// The host file, for reads that bypass the handle (the page
    /// cache's fills, a scratch-buffer `PREAD`).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// The host file, for a caller that streams it to the end.
    pub fn into_file(self) -> File {
        self.file
    }

    /// The flags the file was opened with.
    pub fn flags(&self) -> OpenFlags {
        self.flags
    }
}

impl FileHandle for LocalHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        read_full_at(&self.file, buf, offset)
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        if !buf.is_empty() {
            match self
                .persist
                .reached_write(DurabilityPoint::Pwrite, &self.path, buf.len())?
            {
                WriteFate::Full => {}
                WriteFate::Torn(k) => {
                    // The process dies mid-write: a prefix lands on
                    // disk, then nothing — not even the error reaches
                    // a client, but the bytes are what fsck will see.
                    self.file.write_all_at(&buf[..k], offset)?;
                    return Err(crash_error());
                }
            }
        }
        self.file.write_all_at(buf, offset)?;
        if self.flags.contains(OpenFlags::SYNC) {
            self.file.sync_all()?;
        }
        Ok(buf.len())
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        Ok(meta_to_stat(&syscount::fstat(&self.file)?))
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.persist.reached(DurabilityPoint::Fsync, &self.path)?;
        self.file.sync_all()
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        self.persist
            .reached(DurabilityPoint::Truncate, &self.path)?;
        self.file.set_len(size)
    }
}

impl FileSystem for LocalFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        let (handle, _) = self.open_handle(path, flags, mode)?;
        Ok(Box::new(handle))
    }

    fn stat(&self, path: &str) -> io::Result<StatBuf> {
        Ok(meta_to_stat(&std::fs::metadata(self.host(path))?))
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        let host = self.host(path);
        if self.persist.is_enabled() && host.exists() {
            self.persist.reached(DurabilityPoint::Unlink, path)?;
        }
        std::fs::remove_file(host)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let src = self.host(from);
        if self.persist.is_enabled() && src.exists() {
            self.persist.reached(DurabilityPoint::Rename, from)?;
        }
        std::fs::rename(src, self.host(to))
    }

    fn mkdir(&self, path: &str, _mode: u32) -> io::Result<()> {
        let host = self.host(path);
        if self.persist.is_enabled() && !host.exists() {
            self.persist.reached(DurabilityPoint::Create, path)?;
        }
        std::fs::create_dir(host)
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        let host = self.host(path);
        if self.persist.is_enabled() && host.exists() {
            self.persist.reached(DurabilityPoint::Unlink, path)?;
        }
        std::fs::remove_dir(host)
    }

    fn readdir(&self, path: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.host(path))? {
            names.push(entry_name(&entry?));
        }
        // Names in a directory are distinct: an unstable sort orders
        // them the same and needs no scratch buffer.
        names.sort_unstable();
        Ok(names)
    }

    /// One directory scan: each entry's attributes come from the scan
    /// itself (`DirEntry::metadata`, which does not follow a symlink),
    /// not from a path lookup per name.
    fn readdir_stat(&self, path: &str) -> io::Result<Vec<(String, StatBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.host(path))? {
            let entry = entry?;
            // An entry unlinked or renamed away between the scan and
            // its stat is simply no longer listed.
            match entry.metadata() {
                Ok(meta) => out.push((entry_name(&entry), meta_to_stat(&meta))),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn truncate(&self, path: &str, size: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(self.host(path))?;
        self.persist.reached(DurabilityPoint::Truncate, path)?;
        f.set_len(size)
    }

    fn sync_dir(&self, path: &str) -> io::Result<()> {
        let host = self.host(path);
        self.persist.reached(DurabilityPoint::DirSync, path)?;
        File::open(host)?.sync_all()
    }

    fn read_file(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.host(path))
    }

    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let host = self.host(path);
        if self.persist.is_enabled() {
            if !host.exists() {
                self.persist.reached(DurabilityPoint::Create, path)?;
            }
            if !data.is_empty() {
                match self
                    .persist
                    .reached_write(DurabilityPoint::Pwrite, path, data.len())?
                {
                    WriteFate::Full => {}
                    WriteFate::Torn(k) => {
                        // Torn whole-file write: the truncate-and-
                        // rewrite got as far as a prefix when the
                        // process died.
                        std::fs::write(host, &data[..k])?;
                        return Err(crash_error());
                    }
                }
            }
        }
        std::fs::write(host, data)
    }
}

/// The host open options for protocol open flags, with `mode` applied
/// to a created file (`0` leaves the process default).
fn open_options(flags: OpenFlags, mode: u32) -> OpenOptions {
    use std::os::unix::fs::OpenOptionsExt;
    let mut opts = OpenOptions::new();
    opts.read(flags.contains(OpenFlags::READ));
    opts.write(flags.contains(OpenFlags::WRITE) || flags.contains(OpenFlags::APPEND));
    opts.append(flags.contains(OpenFlags::APPEND));
    if flags.contains(OpenFlags::CREATE) {
        if flags.contains(OpenFlags::EXCLUSIVE) {
            opts.create_new(true);
        } else {
            opts.create(true);
        }
    }
    opts.truncate(flags.contains(OpenFlags::TRUNCATE));
    if mode != 0 {
        opts.mode(mode);
    }
    opts
}

/// Fill `buf` from `file` at `offset`: positional reads may come back
/// short before end of file, so loop until the buffer is full or a
/// read returns nothing. Short only at EOF.
pub fn read_full_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], offset + filled as u64) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Convert host metadata to the shared stat structure: the words of a
/// `STAT`/`FSTAT` reply, and of the attributes an `OPEN` answers with.
pub fn meta_to_stat(meta: &std::fs::Metadata) -> StatBuf {
    use std::os::unix::fs::MetadataExt;
    StatBuf {
        device: meta.dev(),
        inode: meta.ino(),
        file_type: if meta.is_dir() {
            crate::stat::FileType::Dir
        } else if meta.is_file() {
            crate::stat::FileType::File
        } else {
            crate::stat::FileType::Other
        },
        mode: meta.mode() & 0o7777,
        nlink: meta.nlink(),
        size: meta.len(),
        mtime: meta.mtime().max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn fs() -> (TempDir, LocalFs) {
        let dir = TempDir::new();
        let fs = LocalFs::new(dir.path()).unwrap();
        (dir, fs)
    }

    #[test]
    fn write_then_read_round_trip() {
        let (_d, fs) = fs();
        fs.write_file("/x", b"hello").unwrap();
        assert_eq!(fs.read_file("/x").unwrap(), b"hello");
        assert_eq!(fs.stat("/x").unwrap().size, 5);
    }

    #[test]
    fn positional_io() {
        let (_d, fs) = fs();
        fs.write_file("/x", b"0123456789").unwrap();
        let mut h = fs.open("/x", OpenFlags::READ, 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(h.pread(&mut buf, 3).unwrap(), 4);
        assert_eq!(&buf, b"3456");
        assert_eq!(h.pread(&mut buf, 9).unwrap(), 1);
    }

    #[test]
    fn namespace_ops() {
        let (_d, fs) = fs();
        fs.mkdir("/d", 0o755).unwrap();
        fs.write_file("/d/f", b"1").unwrap();
        assert_eq!(fs.readdir("/d").unwrap(), vec!["f"]);
        fs.rename("/d/f", "/g").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["d", "g"]);
        assert!(fs.rmdir("/d").is_ok());
        fs.unlink("/g").unwrap();
        assert!(fs.readdir("/").unwrap().is_empty());
    }

    #[test]
    fn readdir_stat_matches_stat_per_entry() {
        let (_d, fs) = fs();
        fs.mkdir("/d", 0o755).unwrap();
        fs.write_file("/b", b"xyz").unwrap();
        let listed = fs.readdir_stat("/").unwrap();
        let names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["b", "d"]);
        for (name, st) in &listed {
            assert_eq!(*st, fs.stat(&format!("/{name}")).unwrap());
        }
        assert!(listed[0].1.is_file() && listed[0].1.size == 3);
        assert!(listed[1].1.is_dir());
    }

    /// Entries unlinked while a listing runs drop out of it; they never
    /// fail the listing (a usage walk would lose the whole subtree).
    #[test]
    fn readdir_stat_survives_entries_vanishing_mid_listing() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (_d, fs) = fs();
        for i in 0..32 {
            fs.write_file(&format!("/keep{i}"), b"k").unwrap();
        }
        let stop = AtomicBool::new(false);
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..64 {
                        let _ = fs.write_file(&format!("/churn{i}"), b"x");
                    }
                    for i in 0..64 {
                        let _ = fs.unlink(&format!("/churn{i}"));
                    }
                }
            });
            let outcome = (0..2000).try_for_each(|_| {
                let listed = fs.readdir_stat("/")?;
                match listed.iter().filter(|(n, _)| n.starts_with("keep")).count() {
                    32 => Ok(()),
                    n => Err(io::Error::other(format!("{n} of 32 kept files listed"))),
                }
            });
            stop.store(true, Ordering::Relaxed);
            outcome
        });
        outcome.expect("a listing beside unlinks succeeds");
    }

    #[test]
    fn exclusive_create() {
        let (_d, fs) = fs();
        let fl = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
        fs.open("/x", fl, 0o644).unwrap();
        let err = fs
            .open("/x", fl, 0o644)
            .err()
            .expect("second exclusive create fails");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn opened_file_cursor_semantics() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let (_d, fs) = fs();
        let h = fs
            .open("/f", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
            .unwrap();
        let mut f = crate::fs::OpenedFile::new(h);
        f.write_all(b"abcdef").unwrap();
        f.seek(SeekFrom::Start(2)).unwrap();
        let mut buf = [0u8; 2];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"cd");
        assert_eq!(f.seek(SeekFrom::End(-1)).unwrap(), 5);
        assert_eq!(f.seek(SeekFrom::Current(-2)).unwrap(), 3);
        assert!(f.seek(SeekFrom::Current(-10)).is_err());
    }

    #[test]
    fn set_mtime_is_announced_and_lands() {
        use crate::persist::{CrashPoint, Persist};
        let dir = TempDir::new();
        let crash = CrashPoint::new();
        let fs = LocalFs::with_persistence(dir.path(), Persist::from_arc(crash.clone())).unwrap();
        fs.write_file("/t", b"x").unwrap();
        crash.arm(Some(0));
        assert!(
            fs.set_mtime("/t", 1_000).is_err(),
            "a dead server sets nothing"
        );
        crash.arm(None);
        fs.set_mtime("/t", 1_120_000_000).unwrap();
        assert_eq!(fs.stat("/t").unwrap().mtime, 1_120_000_000);
        let points: Vec<DurabilityPoint> =
            crash.journal().entries().iter().map(|e| e.point).collect();
        assert_eq!(points, [DurabilityPoint::SetTimes]);
    }

    /// Protocol paths resolve logically under the root: `.` and empty
    /// components vanish and `..` never climbs above it (`/..` is `/`).
    #[test]
    fn host_paths_stay_under_the_root() {
        let (_d, fs) = fs();
        let root = fs.root().to_path_buf();
        assert_eq!(fs.host("/a/b"), root.join("a/b"));
        assert_eq!(fs.host("/../../../etc/passwd"), root.join("etc/passwd"));
        assert_eq!(fs.host("/a/../.."), root);
        assert_eq!(fs.host("//a/./b//"), root.join("a/b"));
    }

    #[test]
    fn paths_are_jailed_to_root() {
        let (d, fs) = fs();
        std::fs::write(d.path().join("..").join("sentinel-lfs"), b"x").ok();
        // `..` cannot escape: it resolves to the root itself.
        assert!(fs.stat("/../sentinel-lfs").is_err());
        let _ = std::fs::remove_file(d.path().join("..").join("sentinel-lfs"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn resolved_paths_never_escape_the_root(path in "\\PC{0,64}") {
                let fs = LocalFs::unchecked(Path::new("/export/root"));
                let host = fs.host(&path);
                prop_assert!(
                    host.starts_with(fs.root()),
                    "{path:?} resolved outside the root: {host:?}"
                );
            }
        }
    }
}
