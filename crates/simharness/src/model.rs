//! An executable model of one Chirp server.
//!
//! [`ModelServer`] is the specification half of the differential
//! checker: an in-memory directory tree with the same ACL inheritance,
//! path normalization, fd-table, and error-ordering semantics as the
//! real handler stack in `chirp-server`, but small enough to audit by
//! eye. The real server asks its export's `LocalFs`; the model holds
//! a [`BTreeMap`] tree. Everywhere the real code asks the export a
//! question (`is_dir`, `read_file` of an ACL file, `mkdir`),
//! the model answers from the tree — including the *error* the kernel
//! would have produced (`ENOENT` → `NotFound`, `ENOTDIR` →
//! `NotADirectory`), in the same order the handlers ask.
//!
//! Fidelity notes, matching `chirp-server/src/handlers.rs`:
//!
//! * File content is held behind `Rc<RefCell<...>>` shared between the
//!   tree and open descriptors, so unlink/rename/truncate behave like
//!   real inodes: open handles keep working on unlinked files, and an
//!   `O_TRUNC`, a `truncate()` or a `PUTFILE` is visible through every
//!   open fd.
//! * A renamed directory takes its subtree and its materialized ACL
//!   with it, as the real `.__acl` file goes with the directory.
//! * Descriptors allocate lowest-free-slot, as the real
//!   [`chirp_server`] fd table does, so generated sequences can refer
//!   to descriptors by number and get identical `BadFd` behavior on
//!   both sides.
//! * Every directory carries a materialized ACL, because `mkdir` on
//!   the real server always stores one (inherit-on-create); the
//!   effective-ACL *walk* is still implemented for paths that do not
//!   exist, since rights checks happen before existence checks.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use chirp_proto::{ChirpError, ChirpResult, OpenFlags};
use chirp_server::acl::{Acl, Rights};

use crate::diff::OpResult;
use crate::gen::Op;

/// Shared file bytes — the model's inode.
type Content = Rc<RefCell<Vec<u8>>>;

#[derive(Debug)]
enum Node {
    File(Content),
    Dir(DirNode),
}

#[derive(Debug)]
struct DirNode {
    /// Materialized ACL; present on every directory (see module docs).
    acl: Acl,
    children: BTreeMap<String, Node>,
}

impl DirNode {
    fn new(acl: Acl) -> DirNode {
        DirNode {
            acl,
            children: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct ModelFd {
    content: Content,
    readable: bool,
    writable: bool,
}

/// The model server: one client session against one in-memory tree.
#[derive(Debug)]
pub struct ModelServer {
    root: DirNode,
    subject: String,
    fds: Vec<Option<ModelFd>>,
    max_open: usize,
}

impl ModelServer {
    /// A fresh tree whose root carries `root_acl`, serving a session
    /// authenticated as `subject`.
    pub fn new(subject: &str, root_acl: Acl) -> ModelServer {
        ModelServer {
            root: DirNode::new(root_acl),
            subject: subject.to_string(),
            fds: Vec::new(),
            max_open: 256,
        }
    }

    // ---- path plumbing (mirrors chirp-server's `virtual_path`) -------

    /// `virtual_path` normalization: `.` and empty components vanish,
    /// `..` pops but never escapes, and the reserved ACL names (the
    /// ACL file and the temporary one it is written under) are
    /// unreachable.
    fn components(path: &str) -> ChirpResult<Vec<String>> {
        let mut parts: Vec<String> = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                ".__acl" | ".__acl.new" => return Err(ChirpError::NotAuthorized),
                c => parts.push(c.to_string()),
            }
        }
        Ok(parts)
    }

    fn resolve_parent(path: &str) -> ChirpResult<(Vec<String>, String)> {
        let mut parts = Self::components(path)?;
        let leaf = parts.pop().ok_or(ChirpError::InvalidRequest)?;
        Ok((parts, leaf))
    }

    /// The directory node at `comps`, if the whole path exists as
    /// directories. `Ok(None)` = missing, `Err` = a file in the way.
    fn dir_at(&self, comps: &[String]) -> ChirpResult<Option<&DirNode>> {
        let mut dir = &self.root;
        for comp in comps {
            match dir.children.get(comp) {
                None => return Ok(None),
                Some(Node::File(_)) => return Err(ChirpError::NotADirectory),
                Some(Node::Dir(d)) => dir = d,
            }
        }
        Ok(Some(dir))
    }

    fn dir_at_mut(&mut self, comps: &[String]) -> ChirpResult<Option<&mut DirNode>> {
        let mut dir = &mut self.root;
        for comp in comps {
            match dir.children.get_mut(comp) {
                None => return Ok(None),
                Some(Node::File(_)) => return Err(ChirpError::NotADirectory),
                Some(Node::Dir(d)) => dir = d,
            }
        }
        Ok(Some(dir))
    }

    /// The server's `is_dir` — false for missing paths and on any
    /// error, since it asks the export's `stat`.
    fn is_dir(&self, comps: &[String]) -> bool {
        matches!(self.dir_at(comps), Ok(Some(_)))
    }

    // ---- ACL resolution (mirrors Acl::load_effective_in) -------------

    /// The ACL governing the directory at `comps`: its own if the
    /// directory exists, else the nearest existing ancestor's. Reading
    /// `<dir>/.__acl` finds one in every model directory, skips a
    /// missing directory (`ENOENT`) and propagates a file in the path
    /// (`ENOTDIR`), as the real walk does.
    fn effective_acl(&self, comps: &[String]) -> ChirpResult<Acl> {
        let mut cur = comps.to_vec();
        loop {
            if let Some(dir) = self.dir_at(&cur)? {
                return Ok(dir.acl.clone());
            }
            if cur.pop().is_none() {
                return Ok(Acl::new());
            }
        }
    }

    fn rights_in(&self, dir: &[String]) -> ChirpResult<Rights> {
        Ok(self.effective_acl(dir)?.rights_of(&self.subject))
    }

    fn require_rights(&self, dir: &[String], any_of: Rights) -> ChirpResult<Rights> {
        let r = self.rights_in(dir)?;
        if r.intersects(any_of) {
            Ok(r)
        } else {
            Err(ChirpError::NotAuthorized)
        }
    }

    // ---- fd table (mirrors chirp-server's FdTable) -------------------

    fn fd_insert(&mut self, fd: ModelFd) -> ChirpResult<i32> {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(fd);
                return Ok(i as i32);
            }
        }
        if self.fds.len() >= self.max_open {
            return Err(ChirpError::TooManyOpen);
        }
        self.fds.push(Some(fd));
        Ok((self.fds.len() - 1) as i32)
    }

    fn fd_get(&self, fd: i32) -> ChirpResult<&ModelFd> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.fds.get(i))
            .and_then(|s| s.as_ref())
            .ok_or(ChirpError::BadFd)
    }

    fn fd_remove(&mut self, fd: i32) -> ChirpResult<()> {
        let slot = usize::try_from(fd)
            .ok()
            .and_then(|i| self.fds.get_mut(i))
            .ok_or(ChirpError::BadFd)?;
        if slot.take().is_none() {
            return Err(ChirpError::BadFd);
        }
        Ok(())
    }

    /// The session dropped: every descriptor is closed, and descriptor
    /// numbering restarts from zero (a fresh connection gets a fresh
    /// fd table).
    pub fn disconnect(&mut self) {
        self.fds.clear();
    }

    /// Currently open descriptor numbers. Because the model and the
    /// real fd table allocate identically, this is also the set open
    /// on the real connection — the differential runner uses it to
    /// sweep a namespace's descriptors without reconnecting.
    pub fn open_fds(&self) -> Vec<i32> {
        self.fds
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as i32)
            .collect()
    }

    // ---- operations --------------------------------------------------

    /// `OPEN`: rights from the parent directory, then POSIX open
    /// semantics against the tree.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> ChirpResult<i32> {
        let (dir, leaf) = Self::resolve_parent(path)?;
        let mut need = Rights::empty();
        if flags.contains(OpenFlags::READ) {
            need |= Rights::READ;
        }
        if flags.writes() {
            need |= Rights::WRITE;
        }
        if need.is_empty() {
            return Err(ChirpError::InvalidRequest);
        }
        let have = self.rights_in(&dir)?;
        if !have.contains(need) {
            return Err(ChirpError::NotAuthorized);
        }
        let mut full = dir.clone();
        full.push(leaf.clone());
        if self.is_dir(&full) {
            return Err(ChirpError::IsADirectory);
        }
        let create = flags.contains(OpenFlags::CREATE);
        let exclusive = flags.contains(OpenFlags::EXCLUSIVE);
        let truncate = flags.contains(OpenFlags::TRUNCATE);
        let parent = match self.dir_at_mut(&dir)? {
            Some(p) => p,
            // Opening under a missing directory is the kernel's ENOENT.
            None => return Err(ChirpError::NotFound),
        };
        let content = match parent.children.get(&leaf) {
            Some(Node::File(f)) => {
                if create && exclusive {
                    return Err(ChirpError::AlreadyExists);
                }
                if truncate {
                    f.borrow_mut().clear();
                }
                f.clone()
            }
            Some(Node::Dir(_)) => return Err(ChirpError::IsADirectory),
            None => {
                if !create {
                    return Err(ChirpError::NotFound);
                }
                let f: Content = Rc::new(RefCell::new(Vec::new()));
                parent.children.insert(leaf, Node::File(f.clone()));
                f
            }
        };
        self.fd_insert(ModelFd {
            content,
            readable: flags.contains(OpenFlags::READ),
            writable: flags.contains(OpenFlags::WRITE) || flags.contains(OpenFlags::APPEND),
        })
    }

    /// `CLOSE`.
    pub fn close(&mut self, fd: i32) -> ChirpResult<()> {
        self.fd_remove(fd)
    }

    /// `PREAD`: up to `length` bytes at `offset`; short at EOF.
    pub fn pread(&self, fd: i32, length: u64, offset: u64) -> ChirpResult<Vec<u8>> {
        let f = self.fd_get(fd)?;
        if length == 0 {
            // The server's read loop never consults the kernel for an
            // empty buffer, so even a write-only descriptor "reads"
            // zero bytes successfully.
            return Ok(Vec::new());
        }
        if !f.readable {
            // read(2) on a write-only descriptor: EBADF, which the
            // server maps to the generic Io code.
            return Err(ChirpError::Io);
        }
        let data = f.content.borrow();
        let start = (offset as usize).min(data.len());
        let end = (offset as usize)
            .saturating_add(length as usize)
            .min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// `PWRITE`: write at `offset`, zero-filling any gap (sparse
    /// writes read back as zeros).
    pub fn pwrite(&self, fd: i32, data: &[u8], offset: u64) -> ChirpResult<u64> {
        let f = self.fd_get(fd)?;
        if data.is_empty() {
            // write_all_at on an empty slice never calls write(2), so
            // it succeeds even on a read-only descriptor.
            return Ok(0);
        }
        if !f.writable {
            return Err(ChirpError::Io);
        }
        let mut content = f.content.borrow_mut();
        let end = offset as usize + data.len();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[offset as usize..end].copy_from_slice(data);
        Ok(data.len() as u64)
    }

    /// `FSTAT`: the open file's current size. Descriptors always refer
    /// to files (opens reject directories).
    pub fn fstat(&self, fd: i32) -> ChirpResult<(bool, u64)> {
        let f = self.fd_get(fd)?;
        let len = f.content.borrow().len() as u64;
        Ok((false, len))
    }

    /// `STAT`: `(is_dir, size)`; rights come from the governing
    /// directory (the parent, or the root for the root itself).
    pub fn stat(&self, path: &str) -> ChirpResult<(bool, u64)> {
        let governing = match Self::resolve_parent(path) {
            Ok((dir, _leaf)) => dir,
            Err(_) => Vec::new(),
        };
        self.require_rights(&governing, Rights::READ | Rights::LIST)?;
        let comps = Self::components(path)?;
        if comps.is_empty() {
            return Ok((true, 0));
        }
        let (parent, leaf) = (&comps[..comps.len() - 1], &comps[comps.len() - 1]);
        match self.dir_at(parent)? {
            None => Err(ChirpError::NotFound),
            Some(p) => match p.children.get(leaf) {
                None => Err(ChirpError::NotFound),
                Some(Node::File(f)) => Ok((false, f.borrow().len() as u64)),
                Some(Node::Dir(_)) => Ok((true, 0)),
            },
        }
    }

    /// `UNLINK`.
    pub fn unlink(&mut self, path: &str) -> ChirpResult<()> {
        let (dir, leaf) = Self::resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE | Rights::DELETE)?;
        let mut full = dir.clone();
        full.push(leaf.clone());
        if self.is_dir(&full) {
            return Err(ChirpError::IsADirectory);
        }
        match self.dir_at_mut(&dir)? {
            None => Err(ChirpError::NotFound),
            Some(p) => match p.children.get(&leaf) {
                Some(Node::File(_)) => {
                    // Open descriptors keep their Rc; only the name
                    // goes away, like a real unlinked inode.
                    p.children.remove(&leaf);
                    Ok(())
                }
                Some(Node::Dir(_)) => Err(ChirpError::IsADirectory),
                None => Err(ChirpError::NotFound),
            },
        }
    }

    /// `RENAME`: a file, or a directory with its subtree and its ACL,
    /// checked in the server's order — the rights, the source, a
    /// directory moved into its own subtree (`EINVAL`), then what
    /// `rename(2)` makes of the destination.
    pub fn rename(&mut self, from: &str, to: &str) -> ChirpResult<()> {
        let (from_dir, from_leaf) = Self::resolve_parent(from)?;
        let (to_dir, to_leaf) = Self::resolve_parent(to)?;
        self.require_rights(&from_dir, Rights::WRITE | Rights::DELETE)?;
        self.require_rights(&to_dir, Rights::WRITE)?;
        // The server's `stat` of the source: a file in the way is as
        // missing as a missing name.
        let src = match self.dir_at(&from_dir) {
            Ok(Some(p)) => p.children.get(&from_leaf),
            _ => None,
        };
        let src_is_dir = matches!(src.ok_or(ChirpError::NotFound)?, Node::Dir(_));
        let src = [&from_dir[..], std::slice::from_ref(&from_leaf)].concat();
        let dst = [&to_dir[..], std::slice::from_ref(&to_leaf)].concat();
        if src == dst {
            // rename(2) of a name onto itself succeeds and changes
            // nothing.
            return Ok(());
        }
        if src_is_dir && dst.starts_with(&src) {
            return Err(ChirpError::InvalidRequest);
        }
        let parent = self.dir_at(&to_dir)?.ok_or(ChirpError::NotFound)?;
        let refused = match (src_is_dir, parent.children.get(&to_leaf)) {
            // A directory replaces only an empty one, whose ACL goes.
            (true, Some(Node::Dir(d))) if !d.children.is_empty() => Some(ChirpError::NotEmpty),
            (true, Some(Node::File(_))) => Some(ChirpError::NotADirectory),
            // A file onto a directory is EISDIR, unless the directory
            // holds the file: rename(2) refuses that first.
            (false, Some(Node::Dir(_))) if src.starts_with(&dst) => Some(ChirpError::NotEmpty),
            (false, Some(Node::Dir(_))) => Some(ChirpError::IsADirectory),
            _ => None,
        };
        refused.map_or(Ok(()), Err)?;
        let parent = self.dir_at_mut(&from_dir)?.ok_or(ChirpError::NotFound)?;
        let node = parent.children.remove(&from_leaf).expect("checked above");
        let parent = self.dir_at_mut(&to_dir)?.ok_or(ChirpError::NotFound)?;
        parent.children.insert(to_leaf, node);
        Ok(())
    }

    /// `MKDIR`: ordinary create under the write right (inheriting the
    /// parent's effective ACL), or a reserve create under `v(...)`
    /// (fresh ACL granting the caller exactly the reserved rights).
    pub fn mkdir(&mut self, path: &str) -> ChirpResult<()> {
        let (dir, leaf) = Self::resolve_parent(path)?;
        let have = self.rights_in(&dir)?;
        let acl = if have.contains(Rights::WRITE) {
            self.effective_acl(&dir)?
        } else if have.contains(Rights::RESERVE) {
            let granted = self.effective_acl(&dir)?.reserve_rights_of(&self.subject);
            if granted.is_empty() {
                return Err(ChirpError::NotAuthorized);
            }
            Acl::single(&self.subject, &format!("{granted}")).expect("rights render round-trips")
        } else {
            return Err(ChirpError::NotAuthorized);
        };
        // What `create_dir` answers, then the directory and its ACL.
        let parent = self.dir_at_mut(&dir)?.ok_or(ChirpError::NotFound)?;
        if parent.children.contains_key(&leaf) {
            return Err(ChirpError::AlreadyExists);
        }
        parent.children.insert(leaf, Node::Dir(DirNode::new(acl)));
        Ok(())
    }

    /// `RMDIR`: only empty directories (the ACL file does not count).
    pub fn rmdir(&mut self, path: &str) -> ChirpResult<()> {
        let (dir, leaf) = Self::resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE | Rights::DELETE)?;
        match self.dir_at(&dir)? {
            None => return Err(ChirpError::NotFound),
            Some(p) => match p.children.get(&leaf) {
                None => return Err(ChirpError::NotFound),
                Some(Node::File(_)) => return Err(ChirpError::NotADirectory),
                Some(Node::Dir(d)) => {
                    if !d.children.is_empty() {
                        return Err(ChirpError::NotEmpty);
                    }
                }
            },
        }
        if let Ok(Some(p)) = self.dir_at_mut(&dir) {
            p.children.remove(&leaf);
        }
        Ok(())
    }

    /// `GETDIR`: sorted entry names, ACL metadata hidden.
    pub fn getdir(&self, path: &str) -> ChirpResult<Vec<String>> {
        let comps = Self::components(path)?;
        // Rights are checked on the directory itself; the effective-ACL
        // walk surfaces ENOTDIR for file paths before the listing
        // would.
        self.require_rights(&comps, Rights::LIST)?;
        match self.dir_at(&comps)? {
            None => Err(ChirpError::NotFound),
            Some(d) => Ok(d.children.keys().cloned().collect()),
        }
    }

    /// `GETDIRSTAT`: the batched listing — sorted entries, each with
    /// `(is_dir, size)`. Same rights and error ordering as `GETDIR`;
    /// the real handler resolves the listing and every entry's
    /// attributes in one exchange.
    pub fn getdir_stat(&self, path: &str) -> ChirpResult<Vec<(String, (bool, u64))>> {
        let comps = Self::components(path)?;
        self.require_rights(&comps, Rights::LIST)?;
        match self.dir_at(&comps)? {
            None => Err(ChirpError::NotFound),
            Some(d) => Ok(d
                .children
                .iter()
                .map(|(name, node)| match node {
                    Node::File(f) => (name.clone(), (false, f.borrow().len() as u64)),
                    Node::Dir(_) => (name.clone(), (true, 0)),
                })
                .collect()),
        }
    }

    /// `GETFILE`: the server opens the file read-only exactly as for
    /// `OPEN`, so the model does too, and closes it again. (The table
    /// never fills: 256 slots against sequences of at most 23 ops.)
    pub fn getfile(&mut self, path: &str) -> ChirpResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::READ)?;
        let data = self.fd_get(fd)?.content.borrow().clone();
        self.close(fd).map(|()| data)
    }

    /// `PUTFILE`: an `OPEN` for writing that creates or truncates —
    /// the same inode, so descriptors already open see the new bytes —
    /// then the bytes, on a descriptor that does not outlive the call.
    pub fn putfile(&mut self, path: &str, data: &[u8]) -> ChirpResult<()> {
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE;
        let fd = self.open(path, flags)?;
        self.pwrite(fd, data, 0)?;
        self.close(fd)
    }

    /// `GETACL`: the effective ACL text.
    pub fn getacl(&self, path: &str) -> ChirpResult<String> {
        let comps = Self::components(path)?;
        if !self.is_dir(&comps) {
            return Err(ChirpError::NotADirectory);
        }
        let r = self.rights_in(&comps)?;
        if r.is_empty() {
            return Err(ChirpError::NotAuthorized);
        }
        Ok(self.effective_acl(&comps)?.render())
    }

    /// `SETACL`: modify one entry under the admin right.
    pub fn setacl(&mut self, path: &str, subject: &str, rights: &str) -> ChirpResult<()> {
        let comps = Self::components(path)?;
        if !self.is_dir(&comps) {
            return Err(ChirpError::NotADirectory);
        }
        self.require_rights(&comps, Rights::ADMIN)?;
        let mut acl = self.effective_acl(&comps)?;
        acl.set(subject, rights)?;
        if let Ok(Some(d)) = self.dir_at_mut(&comps) {
            d.acl = acl;
        }
        Ok(())
    }

    /// `TRUNCATE` by path (write right on the parent).
    pub fn truncate(&mut self, path: &str, size: u64) -> ChirpResult<()> {
        let (dir, leaf) = Self::resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE)?;
        match self.dir_at(&dir)? {
            None => Err(ChirpError::NotFound),
            Some(p) => match p.children.get(&leaf) {
                None => Err(ChirpError::NotFound),
                Some(Node::Dir(_)) => Err(ChirpError::IsADirectory),
                Some(Node::File(f)) => {
                    f.borrow_mut().resize(size as usize, 0);
                    Ok(())
                }
            },
        }
    }

    /// Apply one operation, normalizing to an [`OpResult`].
    pub fn apply(&mut self, op: &Op) -> OpResult {
        match op {
            Op::Open { path, flags } => OpResult::of(
                self.open(path, *flags)
                    .and_then(|fd| Ok((fd, self.fstat(fd)?))),
            ),
            Op::Close { fd } => OpResult::of(self.close(*fd)),
            Op::Pread { fd, len, off } => OpResult::of(self.pread(*fd, *len, *off)),
            Op::Pwrite { fd, data, off } => OpResult::of(self.pwrite(*fd, data, *off)),
            Op::Fstat { fd } => OpResult::of(self.fstat(*fd)),
            // Durability is invisible to the model (it has no
            // volatile/stable distinction): FSYNC is its descriptor check.
            Op::Fsync { fd } => OpResult::of(self.fd_get(*fd).map(|_| ())),
            Op::Stat { path } => OpResult::of(self.stat(path)),
            Op::Unlink { path } => OpResult::of(self.unlink(path)),
            Op::Rename { from, to } => OpResult::of(self.rename(from, to)),
            Op::Mkdir { path } => OpResult::of(self.mkdir(path)),
            Op::Rmdir { path } => OpResult::of(self.rmdir(path)),
            Op::Getdir { path } => OpResult::of(self.getdir(path)),
            Op::GetdirStat { path } => OpResult::of(self.getdir_stat(path)),
            // One verdict per path: a missing path settles as its own
            // error without failing the batch.
            Op::StatMulti { paths } => {
                OpResult::from(paths.iter().map(|p| self.stat(p)).collect::<Vec<_>>())
            }
            Op::Getfile { path } => OpResult::of(self.getfile(path)),
            Op::Putfile { path, data } => OpResult::of(self.putfile(path, data)),
            // Whether the target accepts a push is the target server's
            // ACL decision, which one server's model cannot know; the
            // generator never draws THIRDPUT.
            Op::Thirdput { .. } => unimplemented!("THIRDPUT's verdict is another server's"),
            // The model is sequential, so a burst is just its ops in
            // send order — which is exactly the pipelining contract:
            // the n-th reply answers the n-th request.
            Op::Burst { ops } => OpResult::Multi(ops.iter().map(|op| self.apply(op)).collect()),
            Op::Getacl { path } => OpResult::of(self.getacl(path)),
            Op::Setacl {
                path,
                subject,
                rights,
            } => OpResult::of(self.setacl(path, subject, rights)),
            Op::Truncate { path, size } => OpResult::of(self.truncate(path, *size)),
            Op::Whoami => OpResult::Text(self.subject.clone()),
            Op::Disconnect => {
                self.disconnect();
                OpResult::Unit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelServer {
        ModelServer::new("hostname:test", Acl::single("hostname:*", "rwlda").unwrap())
    }

    #[test]
    fn open_write_read_round_trip() {
        let mut m = model();
        let fd = m
            .open("/f", OpenFlags::read_write() | OpenFlags::CREATE)
            .unwrap();
        assert_eq!(fd, 0);
        assert_eq!(m.pwrite(fd, b"abc", 2).unwrap(), 3);
        // The gap reads back as zeros (sparse semantics).
        assert_eq!(m.pread(fd, 10, 0).unwrap(), b"\0\0abc");
        m.close(fd).unwrap();
        assert_eq!(m.close(fd).unwrap_err(), ChirpError::BadFd);
    }

    #[test]
    fn descriptors_reuse_lowest_slot() {
        let mut m = model();
        let a = m.open("/a", OpenFlags::WRITE | OpenFlags::CREATE).unwrap();
        let b = m.open("/b", OpenFlags::WRITE | OpenFlags::CREATE).unwrap();
        assert_eq!((a, b), (0, 1));
        m.close(a).unwrap();
        let c = m.open("/c", OpenFlags::WRITE | OpenFlags::CREATE).unwrap();
        assert_eq!(c, 0, "lowest free slot is reused");
    }

    #[test]
    fn unlinked_file_stays_readable_through_open_fd() {
        let mut m = model();
        let fd = m
            .open("/f", OpenFlags::read_write() | OpenFlags::CREATE)
            .unwrap();
        m.pwrite(fd, b"keep", 0).unwrap();
        m.unlink("/f").unwrap();
        assert_eq!(m.stat("/f").unwrap_err(), ChirpError::NotFound);
        assert_eq!(m.pread(fd, 4, 0).unwrap(), b"keep");
    }

    #[test]
    fn mkdir_inherits_and_rmdir_requires_empty() {
        let mut m = model();
        m.mkdir("/d").unwrap();
        let acl = m.getacl("/d").unwrap();
        assert!(acl.contains("hostname:* rwlad"), "got {acl:?}");
        let fd = m
            .open("/d/f", OpenFlags::WRITE | OpenFlags::CREATE)
            .unwrap();
        m.close(fd).unwrap();
        assert_eq!(m.rmdir("/d").unwrap_err(), ChirpError::NotEmpty);
        m.unlink("/d/f").unwrap();
        m.rmdir("/d").unwrap();
    }

    #[test]
    fn reserve_right_creates_private_namespace() {
        let mut m = ModelServer::new(
            "hostname:laptop",
            Acl::single("hostname:*", "v(rwl)").unwrap(),
        );
        // No write right: plain operations fail...
        assert_eq!(
            m.open("/f", OpenFlags::WRITE | OpenFlags::CREATE)
                .unwrap_err(),
            ChirpError::NotAuthorized
        );
        // ...but mkdir reserves a fresh namespace with exactly rwl.
        m.mkdir("/mine").unwrap();
        let acl = m.getacl("/mine").unwrap();
        assert_eq!(acl, "hostname:laptop rwl\n");
    }

    #[test]
    fn acl_walk_distinguishes_missing_from_file() {
        let mut m = model();
        // Missing directory inherits the root ACL: rights pass, the
        // operation itself reports NotFound.
        assert_eq!(m.getdir("/nope").unwrap_err(), ChirpError::NotFound);
        // A file in the path is ENOTDIR.
        let fd = m.open("/f", OpenFlags::WRITE | OpenFlags::CREATE).unwrap();
        m.close(fd).unwrap();
        assert_eq!(m.getdir("/f").unwrap_err(), ChirpError::NotADirectory);
        assert_eq!(m.getacl("/f").unwrap_err(), ChirpError::NotADirectory);
    }

    #[test]
    fn setacl_can_revoke_own_rights() {
        let mut m = model();
        m.setacl("/", "hostname:*", "").unwrap();
        assert_eq!(
            m.getdir("/").unwrap_err(),
            ChirpError::NotAuthorized,
            "revoking the only matching entry locks the subject out"
        );
    }

    #[test]
    fn disconnect_closes_every_descriptor() {
        let mut m = model();
        let fd = m
            .open("/f", OpenFlags::read_write() | OpenFlags::CREATE)
            .unwrap();
        m.disconnect();
        assert_eq!(m.pread(fd, 1, 0).unwrap_err(), ChirpError::BadFd);
        // Fresh numbering after reconnect.
        let fd2 = m.open("/f", OpenFlags::READ).unwrap();
        assert_eq!(fd2, 0);
    }
}
