//! Per-connection request handling: authentication gate, ACL
//! enforcement, and dispatch to jailed filesystem operations.
//!
//! Metadata requests run over [`Shared::fs`], the export's
//! [`LocalFs`](chirp_proto::localfs::LocalFs), once the jail and the
//! ACL have passed them, and descriptors hold its concrete
//! [`LocalHandle`](chirp_proto::localfs::LocalHandle); what stays here
//! is what only a server knows (the hidden `.__acl`, the ACL cache,
//! page-cache and size-table coherence, capacity accounting).

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chirp_proto::escape::escape;
use chirp_proto::fs::{FileHandle, FileSystem};
use chirp_proto::localfs::{read_full_at, LocalHandle};
use chirp_proto::persist::is_crash;
use chirp_proto::{ChirpError, ChirpResult, OpenFlags, Request, StatFs};

use crate::acl::{wildcard_match, Acl, Rights};
use crate::auth::{AuthOutcome, Authenticator};
use crate::cache::{file_key, FileKey, PageReply};
use crate::fdtable::{FdTable, OpenFile};
use crate::jail::ACL_FILE;
use crate::server::Shared;

/// What the connection loop should send back for one request.
#[derive(Debug)]
pub enum Reply {
    /// A bare status value (`0` for plain success, a descriptor, a
    /// byte count, or `1` for an auth challenge).
    Value(i64),
    /// Status `value` followed by pre-escaped result words.
    Words(i64, String),
    /// Status = payload length, then the raw payload bytes.
    Data(Vec<u8>),
    /// Status = `n`, then the first `n` bytes of the session's scratch
    /// buffer. Lets `PREAD` reuse one allocation across calls instead
    /// of building a fresh `Vec` per RPC.
    Scratch(usize),
    /// Status = file length, then the file streamed from disk.
    FileStream(File, u64),
    /// Status = total length, then buffer-cache pages scatter-gathered
    /// to the socket — a hot read does zero disk I/O and at most one
    /// copy (into the socket buffer).
    Pages(PageReply),
}

/// An in-progress streamed `PUTFILE` payload (see
/// [`Session::begin_putfile`]), fed chunks as they arrive off the
/// wire.
#[derive(Debug)]
pub struct PutfileUpload {
    /// Payload bytes the connection still owes.
    remaining: u64,
    /// Total payload length named on the request line.
    length: u64,
    fate: UploadFate,
}

#[derive(Debug)]
enum UploadFate {
    /// Pre-checks failed: the payload is still consumed (the stream
    /// owes `length` bytes of framing), then the error is reported.
    Discard(ChirpError),
    /// Checks passed: bytes stream straight into the opened file.
    Write {
        file: File,
        /// The file's identity, from the open's `fstat`.
        key: FileKey,
        /// Size the path held before the upload, for capacity
        /// accounting (a replaced file frees its old bytes).
        old_size: u64,
    },
}

impl PutfileUpload {
    fn discard(length: u64, e: ChirpError) -> PutfileUpload {
        PutfileUpload {
            remaining: length,
            length,
            fate: UploadFate::Discard(e),
        }
    }

    /// Payload bytes not yet delivered via [`Session::feed_putfile`].
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

/// The state of one client connection.
pub struct Session {
    shared: Arc<Shared>,
    auth: Authenticator,
    /// Shared with every trace event this session records.
    subject: Option<Arc<str>>,
    fds: FdTable,
    /// Reusable read buffer for `PREAD` replies (see [`Reply::Scratch`]).
    /// Grows to the largest read this connection has served and stays
    /// there, bounded by [`chirp_proto::MAX_PAYLOAD`].
    scratch: Vec<u8>,
}

impl Session {
    /// A fresh session for a connection from `peer_ip`.
    pub fn new(shared: Arc<Shared>, peer_ip: std::net::IpAddr) -> Session {
        let max_open = shared.config.max_open_per_connection;
        Session {
            shared,
            auth: Authenticator::new(peer_ip),
            subject: None,
            fds: FdTable::new(max_open),
            scratch: Vec::new(),
        }
    }

    /// The scratch bytes a [`Reply::Scratch`] refers to.
    pub fn scratch(&self) -> &[u8] {
        &self.scratch
    }

    /// Scratch watermark: a connection's reusable read buffer shrinks
    /// back to this after serving an oversized reply, so one
    /// `MAX_PAYLOAD` read doesn't pin 64 MB for the connection's
    /// lifetime.
    pub const SCRATCH_WATERMARK: usize = 64 * 1024;

    /// Release scratch memory above [`Session::SCRATCH_WATERMARK`].
    /// The connection loop calls this after each reply is written.
    pub fn trim_scratch(&mut self) {
        if self.scratch.capacity() > Self::SCRATCH_WATERMARK {
            self.scratch.truncate(Self::SCRATCH_WATERMARK);
            self.scratch.shrink_to(Self::SCRATCH_WATERMARK);
        }
    }

    /// The authenticated subject, if any.
    pub fn subject(&self) -> Option<&Arc<str>> {
        self.subject.as_ref()
    }

    /// Handle one request. `payload` carries the body of a `PWRITE`.
    /// (`PUTFILE` is streamed through [`Session::begin_putfile`],
    /// [`Session::feed_putfile`] and [`Session::finish_putfile`]
    /// instead, so large uploads never sit in memory; `THIRDPUT` through
    /// [`Session::begin_thirdput`] and [`push_thirdput`], so its push
    /// runs off the serving thread.)
    pub fn handle(&mut self, req: Request, payload: Option<Vec<u8>>) -> ChirpResult<Reply> {
        match req {
            Request::Auth {
                method,
                name,
                credential,
            } => self.do_auth(&method, &name, &credential),
            Request::Whoami => {
                let s = self.require_subject()?.to_string();
                Ok(Reply::Words(0, escape(s.as_bytes())))
            }
            Request::Open { path, flags, mode } => self.do_open(&path, flags, mode),
            Request::Close { fd } => {
                self.require_subject()?;
                self.fds.remove(fd)?;
                Ok(Reply::Value(0))
            }
            Request::Pread { fd, length, offset } => self.do_pread(fd, length, offset),
            Request::Pwrite { fd, offset, .. } => {
                let data = payload.ok_or(ChirpError::InvalidRequest)?;
                self.do_pwrite(fd, &data, offset)
            }
            Request::Fstat { fd } => {
                self.require_subject()?;
                let f = self.fds.get(fd)?;
                let st = f.handle.fstat().map_err(|e| ChirpError::from_io(&e))?;
                Ok(Reply::Words(0, st.to_words()))
            }
            Request::Fsync { fd } => {
                self.require_subject()?;
                let f = self.fds.get(fd)?;
                f.handle.fsync().map_err(|e| ChirpError::from_io(&e))?;
                Ok(Reply::Value(0))
            }
            Request::Ftruncate { fd, size } => {
                self.require_subject()?;
                let f = self.fds.get(fd)?;
                let old = f.size();
                if size > old && self.shared.over_capacity(size - old) {
                    return Err(ChirpError::NoSpace);
                }
                f.handle
                    .ftruncate(size)
                    .map_err(|e| ChirpError::from_io(&e))?;
                if let Some(cache) = &self.shared.cache {
                    cache.truncate(f.key, old, size);
                }
                f.state
                    .size
                    .store(size, std::sync::atomic::Ordering::Relaxed);
                self.shared.adjust_usage(size as i64 - old as i64);
                Ok(Reply::Value(0))
            }
            Request::Stat { path } => self.do_stat(&path),
            Request::Unlink { path } => self.do_unlink(&path),
            Request::Rename { from, to } => self.do_rename(&from, &to),
            Request::Mkdir { path, mode } => self.do_mkdir(&path, mode),
            Request::Rmdir { path } => self.do_rmdir(&path),
            Request::Getdir { path } => self.do_getdir(&path),
            Request::Getlongdir { path } => self.do_getlongdir(&path),
            Request::GetdirStat { path } => self.do_getdirstat(&path),
            Request::StatMulti { paths } => self.do_stat_multi(&paths),
            Request::Getfile { path } => self.do_getfile(&path),
            Request::Putfile { .. } => {
                // The connection loop routes PUTFILE to begin_putfile;
                // reaching here is a framing bug.
                Err(ChirpError::InvalidRequest)
            }
            Request::Getacl { path } => self.do_getacl(&path),
            Request::Setacl {
                path,
                subject,
                rights,
            } => self.do_setacl(&path, &subject, &rights),
            Request::Checksum { path } => self.do_checksum(&path),
            Request::Statfs => self.do_statfs(),
            Request::Truncate { path, size } => self.do_truncate(&path, size),
            Request::Utime { path, mtime } => self.do_utime(&path, mtime),
            Request::Thirdput { .. } => {
                // The connection loop routes THIRDPUT to
                // begin_thirdput; reaching here is a framing bug.
                Err(ChirpError::InvalidRequest)
            }
        }
    }

    /// Start a `PUTFILE`: run every pre-payload check and open the
    /// target. `Ok` always consumes the payload — either into the file
    /// or down the drain (a rejected upload still owes the stream
    /// `length` bytes of framing). `Err` means the open itself failed
    /// *after* the checks passed; no payload has been consumed.
    pub fn begin_putfile(
        &mut self,
        path: &str,
        mode: u32,
        length: u64,
    ) -> ChirpResult<PutfileUpload> {
        let checked = (|| -> ChirpResult<PathBuf> {
            self.require_subject()?;
            let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
            self.require_rights(&dir, Rights::WRITE)?;
            Ok(dir.join(leaf))
        })();
        let host = match checked {
            Ok(p) => p,
            Err(e) => return Ok(PutfileUpload::discard(length, e)),
        };
        // Capacity policy: a replaced file frees its old bytes first.
        let old_size = std::fs::metadata(&host).map(|m| m.len()).unwrap_or(0);
        let growth = length.saturating_sub(old_size);
        if self.shared.over_capacity(growth) {
            return Ok(PutfileUpload::discard(length, ChirpError::NoSpace));
        }
        // The open announces the whole streamed upload's one durability
        // point; the chunks announce none. The crash harness drives
        // writes through OPEN/PWRITE, where every step is killable.
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE;
        let (handle, meta) = match self.shared.fs.open_handle(path, flags, mode) {
            Ok(opened) => opened,
            // Killed at that point, the server still drains the payload.
            Err(e) if is_crash(&e) => {
                return Ok(PutfileUpload::discard(length, ChirpError::from_io(&e)))
            }
            Err(e) => return Err(ChirpError::from_io(&e)),
        };
        Ok(PutfileUpload {
            remaining: length,
            length,
            fate: UploadFate::Write {
                file: handle.into_file(),
                key: file_key(&meta),
                old_size,
            },
        })
    }

    /// Deliver the next payload chunk of an upload started by
    /// [`Session::begin_putfile`]. Consumes at most
    /// [`PutfileUpload::remaining`] bytes of `buf`; returns how many.
    pub fn feed_putfile(&mut self, upload: &mut PutfileUpload, buf: &[u8]) -> ChirpResult<usize> {
        let n = (upload.remaining.min(buf.len() as u64)) as usize;
        if let UploadFate::Write { file, .. } = &mut upload.fate {
            use std::io::Write;
            file.write_all(&buf[..n])
                .map_err(|e| ChirpError::from_io(&e))?;
        }
        upload.remaining -= n as u64;
        Ok(n)
    }

    /// Complete a fully-fed upload: settle caches, sizes, usage, and
    /// stats, and produce the reply (the deferred rejection for a
    /// drained upload).
    pub fn finish_putfile(&mut self, upload: PutfileUpload) -> ChirpResult<Reply> {
        debug_assert_eq!(upload.remaining, 0, "finish before payload fully fed");
        let length = upload.length;
        match upload.fate {
            UploadFate::Discard(e) => Err(e),
            UploadFate::Write { key, old_size, .. } => {
                // The upload truncated and rewrote the inode: stale
                // pages go, and descriptors already open on it learn
                // the new size.
                if let Some(cache) = &self.shared.cache {
                    cache.invalidate(key);
                }
                self.shared.sizes.set_size(key, length);
                self.shared.adjust_usage(length as i64 - old_size as i64);
                Ok(Reply::Value(0))
            }
        }
    }

    // ---- authentication -------------------------------------------------

    fn do_auth(&mut self, method: &str, name: &str, credential: &str) -> ChirpResult<Reply> {
        if self.subject.is_some() {
            // Only one set of credentials per session (the
            // authenticator enforces this too; failing here keeps the
            // telemetry split between refusals and failures clean).
            return Err(ChirpError::InvalidRequest);
        }
        match self
            .auth
            .attempt(&self.shared.config, method, name, credential)
        {
            Ok(AuthOutcome::Subject(s)) => {
                self.shared.telemetry.auth_success();
                let words = escape(s.as_bytes());
                self.subject = Some(s.into());
                Ok(Reply::Words(0, words))
            }
            Ok(AuthOutcome::Challenge(challenge)) => {
                self.shared.telemetry.auth_challenge();
                Ok(Reply::Words(1, escape(challenge.as_bytes())))
            }
            Err(e) => {
                self.shared.telemetry.auth_failure();
                Err(e)
            }
        }
    }

    fn require_subject(&self) -> ChirpResult<&str> {
        self.subject.as_deref().ok_or(ChirpError::NotAuthenticated)
    }

    // ---- authorization --------------------------------------------------

    /// Effective rights of the session subject in the directory at
    /// host path `dir`. The owner's superuser patterns grant all
    /// rights everywhere ("the owner retains access to all data").
    fn rights_in(&self, dir: &Path) -> ChirpResult<Rights> {
        let subject = self.require_subject()?;
        for pat in &self.shared.config.superuser {
            if wildcard_match(pat, subject) {
                return Ok(Rights::all());
            }
        }
        Ok(self.effective_acl(dir)?.rights_of(subject))
    }

    /// The ACL governing host directory `dir`, through the shared
    /// in-memory cache.
    fn effective_acl(&self, dir: &Path) -> ChirpResult<Arc<Acl>> {
        self.shared.acls.effective(self.shared.jail.root(), dir)
    }

    /// Write `acl` as `dir`'s own, then drop every remembered ACL —
    /// whether or not the write came through whole: the change reaches
    /// whatever inherits from `dir`.
    fn store_acl(&self, acl: &Acl, dir: &Path) -> ChirpResult<()> {
        let stored = acl.store(dir);
        self.shared.acls.invalidate();
        stored
    }

    /// Require at least one of `any_of` in `dir`.
    fn require_rights(&self, dir: &Path, any_of: Rights) -> ChirpResult<Rights> {
        let r = self.rights_in(dir)?;
        if r.intersects(any_of) {
            Ok(r)
        } else {
            Err(ChirpError::NotAuthorized)
        }
    }

    // ---- file operations --------------------------------------------------

    fn do_open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> ChirpResult<Reply> {
        self.require_subject()?;
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
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
        // An O_TRUNC open releases the file's old bytes; account for
        // them so the capacity policy sees rewrites as reuse, not
        // growth.
        let truncated_bytes = if flags.contains(OpenFlags::TRUNCATE) {
            std::fs::metadata(dir.join(leaf))
                .map(|m| m.len())
                .unwrap_or(0)
        } else {
            0
        };
        // The open's one fstat seeds the inode key and tracked size;
        // every later write and ftruncate on the descriptor maintains
        // the size without touching the kernel again.
        let (handle, meta) = self
            .shared
            .fs
            .open_handle(path, flags, mode)
            .map_err(|e| ChirpError::from_io(&e))?;
        self.shared.adjust_usage(-(truncated_bytes as i64));
        let key = file_key(&meta);
        if truncated_bytes > 0 {
            // O_TRUNC reused the inode but emptied it.
            if let Some(cache) = &self.shared.cache {
                cache.truncate(key, truncated_bytes, 0);
            }
            self.shared.sizes.set_size(key, 0);
        }
        let state = self.shared.sizes.track(key, meta.len());
        let fd = self.fds.insert(OpenFile { handle, key, state })?;
        Ok(Reply::Value(fd as i64))
    }

    fn do_pread(&mut self, fd: i32, length: u64, offset: u64) -> ChirpResult<Reply> {
        self.require_subject()?;
        if length > chirp_proto::MAX_PAYLOAD as u64 {
            return Err(ChirpError::TooBig);
        }
        let f = self.fds.get(fd)?;
        if let Some(cache) = &self.shared.cache {
            if !cache.bypass(length) {
                if length == 0 {
                    // The read loop never consults the kernel for an
                    // empty buffer — succeeds even on a write-only fd.
                    return Ok(Reply::Pages(PageReply::default()));
                }
                if !f.handle.flags().contains(OpenFlags::READ) {
                    // read(2) on a write-only descriptor: EBADF. A
                    // cache hit must fail exactly like the syscall.
                    return Err(ChirpError::Io);
                }
                let doomed = f.state.doomed.load(std::sync::atomic::Ordering::Relaxed);
                let file = f.handle.file();
                let reply = cache.read(file, f.key, offset, length as usize, f.size(), !doomed)?;
                return Ok(Reply::Pages(reply));
            }
        }
        if self.scratch.len() < length as usize {
            self.scratch.resize(length as usize, 0);
        }
        let n = read_full_at(
            f.handle.file(),
            &mut self.scratch[..length as usize],
            offset,
        )
        .map_err(|e| ChirpError::from_io(&e))?;
        Ok(Reply::Scratch(n))
    }

    fn do_pwrite(&mut self, fd: i32, data: &[u8], offset: u64) -> ChirpResult<Reply> {
        self.require_subject()?;
        let f = self.fds.get(fd)?;
        // Capacity policy applies to the bytes the write would grow
        // the file by, not to overwrites in place. The size comes
        // from the shared per-inode tracker: zero syscalls here.
        let old_size = f.size();
        // pwrite(2) on an O_APPEND descriptor writes at EOF no matter
        // the offset; mirror the kernel so the cache patches the
        // bytes the disk actually took.
        let eff_off = if f.handle.flags().contains(OpenFlags::APPEND) {
            old_size
        } else {
            offset
        };
        let new_size = if data.is_empty() {
            old_size
        } else {
            old_size.max(eff_off + data.len() as u64)
        };
        let growth = new_size - old_size;
        if growth > 0 && self.shared.over_capacity(growth) {
            return Err(ChirpError::NoSpace);
        }
        f.handle
            .pwrite(data, offset)
            .map_err(|e| ChirpError::from_io(&e))?;
        if !data.is_empty() {
            if let Some(cache) = &self.shared.cache {
                cache.write_through(f.key, eff_off, data, old_size);
            }
            f.state
                .size
                .fetch_max(new_size, std::sync::atomic::Ordering::Relaxed);
        }
        self.shared.adjust_usage(growth as i64);
        Ok(Reply::Value(data.len() as i64))
    }

    fn do_stat(&self, path: &str) -> ChirpResult<Reply> {
        Ok(Reply::Words(0, self.stat_words(path)?))
    }

    /// The stat words for one path (the body of `STAT` and of each
    /// `STATMULTI` line), with `STAT`'s exact error ordering.
    fn stat_words(&self, path: &str) -> ChirpResult<String> {
        // The parent's ACL governs a path; the root, which has no
        // parent in the jail, is governed by its own.
        let need = Rights::READ | Rights::LIST;
        match self.shared.jail.resolve_parent(path) {
            Ok((dir, _)) => {
                self.require_rights(&dir, need)?;
            }
            Err(e) => {
                self.require_rights(self.shared.jail.root(), need)?;
                if e != ChirpError::InvalidRequest {
                    return Err(e);
                }
            }
        }
        let st = self
            .shared
            .fs
            .stat(path)
            .map_err(|e| ChirpError::from_io(&e))?;
        Ok(st.to_words())
    }

    /// `STATMULTI`: one batched exchange, one verdict line per path —
    /// `0 statwords` on success, the bare negative code otherwise, so
    /// a missing path never fails the rest of the batch. The whole
    /// reply is body-framed, keeping the stream trivially pipelinable.
    fn do_stat_multi(&self, paths: &[String]) -> ChirpResult<Reply> {
        self.require_subject()?;
        let lines: Vec<String> = paths
            .iter()
            .map(|p| match self.stat_words(p) {
                Ok(words) => format!("0 {words}"),
                Err(e) => format!("{}", e.code()),
            })
            .collect();
        Ok(Reply::Data(lines.join("\n").into_bytes()))
    }

    fn do_unlink(&self, path: &str) -> ChirpResult<Reply> {
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE | Rights::DELETE)?;
        let meta = std::fs::metadata(dir.join(leaf)).ok();
        if meta.as_ref().is_some_and(|m| m.is_dir()) {
            return Err(ChirpError::IsADirectory);
        }
        self.shared
            .fs
            .unlink(path)
            .map_err(|e| ChirpError::from_io(&e))?;
        if let Some(meta) = &meta {
            // Open descriptors keep the inode readable, but once the
            // last one closes the inode number can be recycled — drop
            // the pages now and doom the incarnation so nothing
            // repopulates them (see the cache module docs).
            let key = file_key(meta);
            self.shared.sizes.doom(key);
            if let Some(cache) = &self.shared.cache {
                cache.invalidate(key);
            }
        }
        let size = meta.map(|m| m.len()).unwrap_or(0);
        self.shared.adjust_usage(-(size as i64));
        Ok(Reply::Value(0))
    }

    fn do_rename(&self, from: &str, to: &str) -> ChirpResult<Reply> {
        let (from_dir, from_leaf) = self.shared.jail.resolve_parent(from)?;
        let (to_dir, to_leaf) = self.shared.jail.resolve_parent(to)?;
        self.require_rights(&from_dir, Rights::WRITE | Rights::DELETE)?;
        self.require_rights(&to_dir, Rights::WRITE)?;
        let src = from_dir.join(from_leaf);
        let Ok(src_meta) = std::fs::metadata(&src) else {
            return Err(ChirpError::NotFound);
        };
        let dst = to_dir.join(to_leaf);
        let clobbered = std::fs::metadata(&dst).ok().map(|m| file_key(&m));
        self.shared
            .fs
            .rename(from, to)
            .map_err(|e| ChirpError::from_io(&e))?;
        if src_meta.is_dir() {
            // The directory took its `.__acl` (and its subtree's) to a
            // new path and freed the old one.
            self.shared.acls.invalidate();
        }
        if let Some(key) = clobbered {
            // The rename unlinked the old target inode — same
            // treatment as UNLINK, unless the "target" was the source
            // itself (rename onto self replaces nothing).
            let now = std::fs::metadata(&dst).ok().map(|m| file_key(&m));
            if now != Some(key) {
                self.shared.sizes.doom(key);
                if let Some(cache) = &self.shared.cache {
                    cache.invalidate(key);
                }
            }
        }
        Ok(Reply::Value(0))
    }

    fn do_mkdir(&self, path: &str, mode: u32) -> ChirpResult<Reply> {
        let subject = self.require_subject()?.to_string();
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
        let have = self.rights_in(&dir)?;
        let host = dir.join(leaf);
        let mkdir = || {
            self.shared
                .fs
                .mkdir(path, mode)
                .map_err(|e| ChirpError::from_io(&e))
        };
        if have.contains(Rights::WRITE) {
            // Ordinary create: the new directory inherits a copy of the
            // parent's effective ACL.
            mkdir()?;
            self.store_acl(&*self.effective_acl(&dir)?, &host)?;
            return Ok(Reply::Value(0));
        }
        if have.contains(Rights::RESERVE) {
            // Reserve: the new directory's ACL grants only the calling
            // subject, with exactly the rights named in the parent's
            // v(...) grant (paper §4).
            let granted = self.effective_acl(&dir)?.reserve_rights_of(&subject);
            if granted.is_empty() {
                return Err(ChirpError::NotAuthorized);
            }
            mkdir()?;
            let mut fresh = Acl::new();
            fresh
                .set(&subject, &format!("{granted}"))
                .expect("rights render round-trips");
            self.store_acl(&fresh, &host)?;
            return Ok(Reply::Value(0));
        }
        Err(ChirpError::NotAuthorized)
    }

    fn do_rmdir(&self, path: &str) -> ChirpResult<Reply> {
        let (dir, _) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE | Rights::DELETE)?;
        let fs = &self.shared.fs;
        let st = fs.stat(path).map_err(|e| ChirpError::from_io(&e))?;
        if !st.is_dir() {
            return Err(ChirpError::NotADirectory);
        }
        // A directory holding only its own ACL metadata counts as
        // empty from the protocol's point of view: that file goes
        // first, then the directory.
        let names = fs.readdir(path).map_err(|e| ChirpError::from_io(&e))?;
        if names.iter().any(|n| n != ACL_FILE) {
            return Err(ChirpError::NotEmpty);
        }
        let removed = match fs.unlink(&format!("{path}/{ACL_FILE}")) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => fs.rmdir(path),
        };
        self.shared.acls.invalidate();
        removed.map_err(|e| ChirpError::from_io(&e))?;
        Ok(Reply::Value(0))
    }

    fn do_getdir(&self, path: &str) -> ChirpResult<Reply> {
        let host = self.shared.jail.resolve(path)?;
        self.require_rights(&host, Rights::LIST)?;
        let names = self
            .shared
            .fs
            .readdir(path)
            .map_err(|e| ChirpError::from_io(&e))?;
        let mut names: Vec<String> = names
            .into_iter()
            .filter(|n| n != ACL_FILE)
            .map(|n| escape(n.as_bytes()))
            .collect();
        names.sort_unstable();
        Ok(Reply::Data(names.join("\n").into_bytes()))
    }

    fn do_getlongdir(&self, path: &str) -> ChirpResult<Reply> {
        self.listing_with_stats(path)
    }

    /// `GETDIRSTAT`, the batched listing of the pipelined data path:
    /// identical framing to `GETLONGDIR` (its pre-pipelining spelling),
    /// kept as its own verb so telemetry can track adoption of the
    /// batched ops separately.
    fn do_getdirstat(&self, path: &str) -> ChirpResult<Reply> {
        self.listing_with_stats(path)
    }

    /// One `escape(name) statwords` line per entry, sorted.
    fn listing_with_stats(&self, path: &str) -> ChirpResult<Reply> {
        let host = self.shared.jail.resolve(path)?;
        self.require_rights(&host, Rights::LIST)?;
        let listed = self
            .shared
            .fs
            .readdir_stat(path)
            .map_err(|e| ChirpError::from_io(&e))?;
        let mut lines: Vec<String> = listed
            .into_iter()
            .filter(|(name, _)| name != ACL_FILE)
            .map(|(name, st)| format!("{} {}", escape(name.as_bytes()), st.to_words()))
            .collect();
        lines.sort_unstable();
        Ok(Reply::Data(lines.join("\n").into_bytes()))
    }

    fn do_getfile(&self, path: &str) -> ChirpResult<Reply> {
        let (dir, _) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::READ)?;
        let (handle, meta) = self.open_read(path)?;
        if let Some(cache) = &self.shared.cache {
            // Serve a fully-resident file straight from pages; a
            // partial miss streams from disk without populating, so a
            // whole-tree copy can't wipe out the hot working set.
            if let Some(reply) = cache.probe_file(file_key(&meta), meta.len()) {
                return Ok(Reply::Pages(reply));
            }
        }
        Ok(Reply::FileStream(handle.into_file(), meta.len()))
    }

    /// Open `path` read-only through the export, for a whole-file
    /// stream.
    fn open_read(&self, path: &str) -> ChirpResult<(LocalHandle, std::fs::Metadata)> {
        self.shared
            .fs
            .open_handle(path, OpenFlags::READ, 0)
            .map_err(|e| ChirpError::from_io(&e))
    }

    fn do_getacl(&self, path: &str) -> ChirpResult<Reply> {
        let host = self.shared.jail.resolve(path)?;
        if !host.is_dir() {
            return Err(ChirpError::NotADirectory);
        }
        // Any right on the directory allows inspecting its ACL.
        let r = self.rights_in(&host)?;
        if r.is_empty() {
            return Err(ChirpError::NotAuthorized);
        }
        Ok(Reply::Data(
            self.effective_acl(&host)?.render().into_bytes(),
        ))
    }

    fn do_setacl(&self, path: &str, subject: &str, rights: &str) -> ChirpResult<Reply> {
        let host = self.shared.jail.resolve(path)?;
        if !host.is_dir() {
            return Err(ChirpError::NotADirectory);
        }
        self.require_rights(&host, Rights::ADMIN)?;
        // Materialize the inherited ACL on first modification so the
        // change is scoped to this directory.
        let mut acl = Acl::clone(&*self.effective_acl(&host)?);
        acl.set(subject, rights)?;
        self.store_acl(&acl, &host)?;
        Ok(Reply::Value(0))
    }

    fn do_checksum(&self, path: &str) -> ChirpResult<Reply> {
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::READ)?;
        let host = dir.join(leaf);
        let mut file = File::open(&host).map_err(|e| ChirpError::from_io(&e))?;
        let mut crc = chirp_proto::checksum::Crc64::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n =
                std::io::Read::read(&mut file, &mut buf).map_err(|e| ChirpError::from_io(&e))?;
            if n == 0 {
                break;
            }
            crc.update(&buf[..n]);
        }
        Ok(Reply::Words(0, format!("{:016x}", crc.finish())))
    }

    fn do_statfs(&self) -> ChirpResult<Reply> {
        self.require_subject()?;
        let total = self.shared.config.capacity_bytes;
        // Reconcile the approximate counter with a real walk, so any
        // drift from untracked mutations is bounded by the statfs
        // interval.
        let used = disk_usage(self.shared.jail.root());
        self.shared
            .used_bytes
            .store(used, std::sync::atomic::Ordering::Relaxed);
        let st = StatFs {
            total_bytes: total,
            free_bytes: total.saturating_sub(used),
        };
        Ok(Reply::Words(0, st.to_words()))
    }

    fn do_truncate(&self, path: &str, size: u64) -> ChirpResult<Reply> {
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE)?;
        let meta = std::fs::metadata(dir.join(leaf)).map_err(|e| ChirpError::from_io(&e))?;
        if meta.is_dir() {
            return Err(ChirpError::IsADirectory);
        }
        let old = meta.len();
        if size > old && self.shared.over_capacity(size - old) {
            return Err(ChirpError::NoSpace);
        }
        self.shared
            .fs
            .truncate(path, size)
            .map_err(|e| ChirpError::from_io(&e))?;
        let key = file_key(&meta);
        if let Some(cache) = &self.shared.cache {
            cache.truncate(key, old, size);
        }
        self.shared.sizes.set_size(key, size);
        self.shared.adjust_usage(size as i64 - old as i64);
        Ok(Reply::Value(0))
    }

    /// Start a third-party transfer: the checks and the open, which
    /// are this server's business. The caller needs only the read
    /// right here; what it may create on the target is the target's ACL
    /// decision, made against *this server's* hostname identity. The
    /// push itself blocks on the peer, so the caller runs it elsewhere
    /// ([`push_thirdput`]).
    pub fn begin_thirdput(
        &self,
        path: &str,
        target: &str,
        target_path: &str,
    ) -> ChirpResult<ThirdputPush> {
        let (dir, _) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::READ)?;
        let (handle, meta) = self.open_read(path)?;
        Ok(ThirdputPush {
            file: handle.into_file(),
            len: meta.len(),
            target: target.to_string(),
            target_path: target_path.to_string(),
        })
    }

    fn do_utime(&self, path: &str, mtime: u64) -> ChirpResult<Reply> {
        let (dir, leaf) = self.shared.jail.resolve_parent(path)?;
        self.require_rights(&dir, Rights::WRITE)?;
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(leaf))
            .map_err(|e| ChirpError::from_io(&e))?;
        let t = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(mtime);
        file.set_times(std::fs::FileTimes::new().set_modified(t))
            .map_err(|e| ChirpError::from_io(&e))?;
        Ok(Reply::Value(0))
    }
}

/// An authorized `THIRDPUT` (see [`Session::begin_thirdput`]): the
/// opened source and where it goes.
#[derive(Debug)]
pub struct ThirdputPush {
    file: File,
    len: u64,
    target: String,
    target_path: String,
}

/// Run a third-party transfer to its end: dial the target, authenticate
/// as this server's hostname, and stream the file in one `PUTFILE`.
/// Blocks on the peer for as long as the transfer takes, so it never
/// runs on a serving thread. The reply value is the byte count.
pub fn push_thirdput(shared: &Shared, push: ThirdputPush) -> ChirpResult<u64> {
    let ThirdputPush {
        mut file,
        len,
        target,
        target_path,
    } = push;
    let timeout = std::time::Duration::from_secs(30);
    let mut conn = chirp_client::Connection::connect_via(&shared.config.dialer, &target, timeout)?;
    conn.authenticate(&[chirp_client::AuthMethod::Hostname])?;
    conn.putfile_from(&target_path, 0o644, len, &mut file)?;
    Ok(len)
}

/// Total bytes of file data stored under `root` (recursive walk; the
/// exported trees in a personal server are small enough that a walk
/// beats tracking every mutation).
pub fn disk_usage(root: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::testutil::TempDir;

    #[test]
    fn disk_usage_sums_recursively() {
        let dir = TempDir::new();
        std::fs::write(dir.path().join("a"), vec![0u8; 100]).unwrap();
        let sub = dir.subdir("s");
        std::fs::write(sub.join("b"), vec![0u8; 50]).unwrap();
        assert_eq!(disk_usage(dir.path()), 150);
    }

    /// One session, end to end at the handler layer: a burst of
    /// writes, reads, and ftruncates on an open descriptor must make
    /// zero `fstat` calls (the fd table tracks the size) while one
    /// `FSTAT` makes exactly one, and an oversized read must not pin
    /// its scratch buffer after trimming.
    #[test]
    fn hot_io_burst_is_fstat_free_and_scratch_shrinks() {
        use chirp_proto::localfs::syscount::fstat_calls;
        use chirp_proto::message::Request;

        let dir = TempDir::new();
        let cfg = crate::config::ServerConfig::localhost(dir.path(), "o")
            .with_root_acl(crate::acl::Acl::single("hostname:*", "rwlda").unwrap())
            .with_cache(64 * 1024);
        let shared = crate::server::Shared::new(cfg).unwrap();
        let mut s = Session::new(shared, "127.0.0.1".parse().unwrap());
        s.handle(
            Request::Auth {
                method: "hostname".into(),
                name: "localhost".into(),
                credential: String::new(),
            },
            None,
        )
        .unwrap();
        let open = s
            .handle(
                Request::Open {
                    path: "/f".into(),
                    flags: OpenFlags::READ | OpenFlags::WRITE | OpenFlags::CREATE,
                    mode: 0o644,
                },
                None,
            )
            .unwrap();
        let Reply::Value(fd) = open else {
            panic!("open reply");
        };
        let fd = fd as i32;

        let before = fstat_calls();
        for i in 0..256u64 {
            s.handle(
                Request::Pwrite {
                    fd,
                    length: 100,
                    offset: i * 100,
                },
                Some(vec![7u8; 100]),
            )
            .unwrap();
        }
        for i in 0..64u64 {
            s.handle(
                Request::Pread {
                    fd,
                    length: 400,
                    offset: i * 400,
                },
                None,
            )
            .unwrap();
        }
        s.handle(Request::Ftruncate { fd, size: 10_000 }, None)
            .unwrap();
        s.handle(Request::Ftruncate { fd, size: 40_000 }, None)
            .unwrap();
        assert_eq!(
            fstat_calls() - before,
            0,
            "the hot read/write/ftruncate path must not fstat"
        );
        // The counter is live: an explicit FSTAT is counted once.
        s.handle(Request::Fstat { fd }, None).unwrap();
        assert_eq!(fstat_calls() - before, 1, "FSTAT must fstat once");

        // An oversized read (past the cache bypass threshold) lands in
        // scratch and grows it; the post-reply trim must release it.
        let big = 4 << 20;
        s.handle(
            Request::Pwrite {
                fd,
                length: big,
                offset: 0,
            },
            Some(vec![9u8; big as usize]),
        )
        .unwrap();
        let reply = s
            .handle(
                Request::Pread {
                    fd,
                    length: big,
                    offset: 0,
                },
                None,
            )
            .unwrap();
        assert!(matches!(reply, Reply::Scratch(n) if n == big as usize));
        assert!(s.scratch.capacity() >= big as usize);
        s.trim_scratch();
        assert!(
            s.scratch.capacity() <= Session::SCRATCH_WATERMARK,
            "scratch must shrink to the watermark, got {}",
            s.scratch.capacity()
        );
    }
}
