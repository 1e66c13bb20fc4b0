//! One vocabulary of file-level operations for every harness that
//! drives a [`FileSystem`].
//!
//! The crash sweep ([`crate::crash`]) and the file-level differential
//! proptests (`tests/fs_differential.rs`) generate different mixes of
//! the same ops, apply them through the one [`apply`], and read state
//! back through the one path-pool [`snapshot`]. The reference they
//! check against is a plain [`tss_core::localfs::LocalFs`] tree run
//! through the same two functions, so no harness keeps a model of
//! file semantics of its own.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;

use chirp_proto::OpenFlags;
use tss_core::fs::FileSystem;

/// One whole-file operation through the [`FileSystem`] interface, on
/// tree paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Create or replace a file with these bytes through
    /// [`FileSystem::write_file`]: one open, then one pwrite per short
    /// write (on a stub filesystem, exactly one).
    Write(String, Vec<u8>),
    /// Read the whole file.
    Read(String),
    /// Stat the path.
    Stat(String),
    /// List the directory.
    Readdir(String),
    /// Remove the file (on a stub filesystem: data first, then stub).
    Unlink(String),
    /// Rename the first path over the second (on a stub filesystem a
    /// tree-only move, so a clobbered file's data is orphaned).
    Rename(String, String),
    /// Create a directory.
    Mkdir(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Truncate the file to a size.
    Truncate(String, u64),
    /// Create an empty file, failing if the path exists.
    CreateExclusive(String),
}

impl FsOp {
    /// The paths this op may change: the ones it names and their
    /// parent directories, whose listings it changes. A read-only op
    /// changes nothing. A crash during the op may disturb only these.
    pub fn targets(&self) -> BTreeSet<String> {
        let named: Vec<&String> = match self {
            FsOp::Read(_) | FsOp::Stat(_) | FsOp::Readdir(_) => Vec::new(),
            FsOp::Rename(from, to) => vec![from, to],
            FsOp::Write(path, _)
            | FsOp::Unlink(path)
            | FsOp::Mkdir(path)
            | FsOp::Rmdir(path)
            | FsOp::Truncate(path, _)
            | FsOp::CreateExclusive(path) => vec![path],
        };
        let mut t = BTreeSet::new();
        for path in named {
            if let Some(i) = path.rfind('/').filter(|&i| i > 0) {
                t.insert(path[..i].to_string());
            }
            t.insert(path.clone());
        }
        t
    }
}

impl fmt::Display for FsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsOp::Write(path, data) => write!(
                f,
                "write {path} ({} x {:#04x})",
                data.len(),
                data.first().copied().unwrap_or(0)
            ),
            FsOp::Read(path) => write!(f, "read {path}"),
            FsOp::Stat(path) => write!(f, "stat {path}"),
            FsOp::Readdir(path) => write!(f, "readdir {path}"),
            FsOp::Unlink(path) => write!(f, "unlink {path}"),
            FsOp::Rename(from, to) => write!(f, "rename {from} -> {to}"),
            FsOp::Mkdir(path) => write!(f, "mkdir {path}"),
            FsOp::Rmdir(path) => write!(f, "rmdir {path}"),
            FsOp::Truncate(path, size) => write!(f, "truncate {path} to {size}"),
            FsOp::CreateExclusive(path) => write!(f, "create-exclusive {path}"),
        }
    }
}

/// What an op returned, reduced to what two correct filesystems must
/// agree on: success or failure, and what a success carries. Error
/// kinds are left out, since a local syscall and a two-layer
/// distributed path may fail the same op with different kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A mutation: whether it succeeded.
    Done(bool),
    /// `read`: the bytes.
    Bytes(Option<Vec<u8>>),
    /// `stat`: whether the path is a directory, and a file's size (a
    /// directory's size depends on the host filesystem and reads 0).
    Stat(Option<(bool, u64)>),
    /// `readdir`: the names.
    Names(Option<Vec<String>>),
}

impl Outcome {
    /// Whether the op succeeded.
    pub fn succeeded(&self) -> bool {
        match self {
            Outcome::Done(ok) => *ok,
            Outcome::Bytes(b) => b.is_some(),
            Outcome::Stat(s) => s.is_some(),
            Outcome::Names(n) => n.is_some(),
        }
    }
}

/// Apply `op` to `fs`.
pub fn apply(fs: &dyn FileSystem, op: &FsOp) -> Outcome {
    match op {
        FsOp::Write(path, data) => Outcome::Done(fs.write_file(path, data).is_ok()),
        FsOp::Read(path) => Outcome::Bytes(fs.read_file(path).ok()),
        FsOp::Stat(path) => Outcome::Stat(
            fs.stat(path)
                .ok()
                .map(|s| (s.is_dir(), if s.is_dir() { 0 } else { s.size })),
        ),
        FsOp::Readdir(path) => Outcome::Names(fs.readdir(path).ok()),
        FsOp::Unlink(path) => Outcome::Done(fs.unlink(path).is_ok()),
        FsOp::Rename(from, to) => Outcome::Done(fs.rename(from, to).is_ok()),
        FsOp::Mkdir(path) => Outcome::Done(fs.mkdir(path, 0o755).is_ok()),
        FsOp::Rmdir(path) => Outcome::Done(fs.rmdir(path).is_ok()),
        FsOp::Truncate(path, size) => Outcome::Done(fs.truncate(path, *size).is_ok()),
        FsOp::CreateExclusive(path) => {
            let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
            Outcome::Done(fs.open(path, flags, 0o644).is_ok())
        }
    }
}

/// What one path holds, as read through the [`FileSystem`] interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathState {
    /// No such entry (a path component that is a file counts as
    /// missing too), or a stub whose data is gone: a dangling stub
    /// reads as "file not found".
    Absent,
    /// A directory and its sorted listing.
    Dir(Vec<String>),
    /// A file and its bytes.
    File(Vec<u8>),
    /// An entry whose stat, listing or read fails with any other
    /// kind: `InvalidData` is a stub too torn to parse.
    Error(io::ErrorKind),
}

impl PathState {
    /// A file's bytes; nothing for any other state.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            PathState::File(b) => b,
            _ => &[],
        }
    }
}

impl fmt::Display for PathState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathState::Absent => write!(f, "absent"),
            PathState::Dir(names) => write!(f, "dir{names:?}"),
            PathState::File(b) => write!(f, "file[{} bytes]", b.len()),
            PathState::Error(kind) => write!(f, "error ({kind})"),
        }
    }
}

/// The state of `path` on `fs`.
pub(crate) fn path_state(fs: &dyn FileSystem, path: &str) -> PathState {
    use io::ErrorKind::{NotADirectory, NotFound};
    match fs.stat(path) {
        Err(e) if matches!(e.kind(), NotFound | NotADirectory) => PathState::Absent,
        Err(e) => PathState::Error(e.kind()),
        Ok(st) if st.is_dir() => match fs.readdir(path) {
            Ok(mut names) => {
                names.sort();
                PathState::Dir(names)
            }
            Err(e) => PathState::Error(e.kind()),
        },
        Ok(_) => match fs.read_file(path) {
            Ok(b) => PathState::File(b),
            Err(e) if e.kind() == NotFound => PathState::Absent,
            Err(e) => PathState::Error(e.kind()),
        },
    }
}

/// The state of every path in a pool, keyed by path.
pub type Snapshot = BTreeMap<String, PathState>;

/// Read the state of every path in `pool`.
pub fn snapshot<'a>(fs: &dyn FileSystem, pool: impl IntoIterator<Item = &'a str>) -> Snapshot {
    pool.into_iter()
        .map(|p| (p.to_string(), path_state(fs, p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::testutil::TempDir;
    use tss_core::localfs::LocalFs;

    #[test]
    fn targets_name_the_paths_and_their_parent_directories() {
        let op = FsOp::Rename("/a".into(), "/d0/x".into());
        assert_eq!(Vec::from_iter(op.targets()), ["/a", "/d0", "/d0/x"]);
        assert!(FsOp::Read("/d0/x".into()).targets().is_empty());
    }

    #[test]
    fn snapshot_reads_each_kind_of_path() {
        let dir = TempDir::new();
        let fs = LocalFs::new(dir.path()).unwrap();
        assert!(apply(&fs, &FsOp::Mkdir("/d".into())).succeeded());
        assert!(apply(&fs, &FsOp::Write("/d/f".into(), b"xy".to_vec())).succeeded());
        let snap = snapshot(&fs, ["/d", "/d/f", "/d/f/under", "/none"]);
        assert_eq!(snap["/d"], PathState::Dir(vec!["f".into()]));
        assert_eq!(snap["/d/f"], PathState::File(b"xy".to_vec()));
        assert_eq!(snap["/d/f/under"], PathState::Absent);
        assert_eq!(snap["/none"], PathState::Absent);
        let stat = apply(&fs, &FsOp::Stat("/d/f".into()));
        assert_eq!(stat, Outcome::Stat(Some((false, 2))));
        assert!(!apply(&fs, &FsOp::Rmdir("/d".into())).succeeded());
    }
}
