//! Per-connection request handling: authentication gate, ACL
//! enforcement, and dispatch to the export's file interface.
//!
//! Every request runs over [`Shared::fs`], the export as a
//! [`FileSystem`], by *virtual* path: a protocol path goes through
//! [`virtual_path`] once, its parent names the ACL that governs it, and
//! no host path is built here. Descriptors hold boxed [`FileHandle`]s;
//! one that lends its host file ([`FileHandle::host_file`]) gets the
//! page cache and sendfile, any other is served owned bytes through
//! `pread`/`pwrite`. What stays here is what only a server knows (the
//! hidden `.__acl`, the ACL cache, page-cache and size-table coherence,
//! capacity accounting).

use std::fs::File;
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use chirp_proto::escape::escape;
use chirp_proto::fs::{join_path, FileHandle, FileSystem};
use chirp_proto::{wildcard_match, ChirpError, ChirpResult, OpenFlags, Request, StatFs};

use crate::acl::{is_reserved, parent_dir, virtual_path, Acl, Rights};
use crate::auth::{AuthOutcome, Authenticator};
use crate::cache::{stat_key, FileKey, PageReply};
use crate::fdtable::{FdTable, OpenFile};
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
    /// Status = file length, then the file streamed from disk.
    FileStream(HostFile, u64),
    /// Status = total length, then the read's bytes scatter-gathered
    /// to the socket: every `PREAD` answers this way. Cached pages and
    /// buffers filled by the read alike go out with no copy but the one
    /// into the socket buffer.
    Pages(PageReply),
}

/// An open file that lends its host `File`: built only from a handle
/// whose [`FileHandle::host_file`] is `Some`, so a reply can borrow it.
#[derive(Debug)]
pub struct HostFile(Box<dyn FileHandle>);

impl HostFile {
    /// `handle` as a host file, or back as it was if it lends none.
    pub fn new(handle: Box<dyn FileHandle>) -> Result<HostFile, Box<dyn FileHandle>> {
        match handle.host_file() {
            Some(_) => Ok(HostFile(handle)),
            None => Err(handle),
        }
    }

    /// The host file.
    pub fn file(&self) -> &File {
        self.0.host_file().expect("a HostFile lends its host file")
    }
}

/// An in-progress streamed `PUTFILE` payload (see
/// [`Session::begin_putfile`]), fed chunks as they arrive off the
/// wire ([`PutfileUpload::feed`]) and settled by
/// [`Session::finish_putfile`].
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
        handle: Box<dyn FileHandle>,
        /// The file's identity, from the open's `fstat`.
        key: FileKey,
        /// Size the path held before the upload, for capacity
        /// accounting (a replaced file frees its old bytes).
        old_size: u64,
        /// The first failed file write. The rest of the payload is
        /// then drained, and this is the reply.
        failed: Option<ChirpError>,
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

    /// Payload bytes not yet delivered via [`PutfileUpload::feed`].
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Total payload length named on the request line.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Deliver the next payload chunk: consumes at most
    /// [`PutfileUpload::remaining`] bytes of `buf` and returns how many.
    /// A file write that fails turns the rest of the upload into a
    /// drain, so the stream stays framed; the failure is the reply.
    pub fn feed(&mut self, buf: &[u8]) -> usize {
        let n = self.remaining.min(buf.len() as u64) as usize;
        if let UploadFate::Write {
            handle,
            failed: failed @ None,
            ..
        } = &mut self.fate
        {
            // The host file's cursor follows the stream, so a chunk is
            // one write(2) that announces nothing; any other handle
            // writes at the offset the stream has reached.
            let written = match handle.host_file() {
                Some(mut file) => io::Write::write_all(&mut file, &buf[..n]),
                None => handle
                    .pwrite(&buf[..n], self.length - self.remaining)
                    .map(drop),
            };
            if let Err(e) = written {
                *failed = Some(ChirpError::from_io(&e));
            }
        }
        self.remaining -= n as u64;
        n
    }
}

/// The state of one client connection.
pub struct Session {
    shared: Arc<Shared>,
    auth: Authenticator,
    /// Shared with every trace event this session records.
    subject: Option<Arc<str>>,
    fds: FdTable,
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
        }
    }

    /// The authenticated subject, if any.
    pub fn subject(&self) -> Option<&Arc<str>> {
        self.subject.as_ref()
    }

    /// Handle one request. `payload` carries the body of a `PWRITE`.
    /// (`PUTFILE` is streamed through [`Session::begin_putfile`],
    /// [`PutfileUpload::feed`] and [`Session::finish_putfile`]
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
                let st = f.handle.fstat()?;
                Ok(Reply::Words(0, st.to_words()))
            }
            Request::Fsync { fd } => {
                self.require_subject()?;
                let f = self.fds.get(fd)?;
                f.handle.fsync()?;
                Ok(Reply::Value(0))
            }
            Request::Ftruncate { fd, size } => {
                self.require_subject()?;
                let f = self.fds.get(fd)?;
                let old = f.size();
                if size > old && self.shared.over_capacity(size - old) {
                    return Err(ChirpError::NoSpace);
                }
                f.handle.ftruncate(size)?;
                if let Some(cache) = &self.shared.cache {
                    cache.truncate(f.key, old, size);
                }
                f.state.size.store(size, Relaxed);
                self.shared.adjust_usage(size as i64 - old as i64);
                Ok(Reply::Value(0))
            }
            Request::Stat { path } => Ok(Reply::Words(0, self.stat_words(&path)?)),
            Request::Unlink { path } => self.do_unlink(&path),
            Request::Rename { from, to } => self.do_rename(&from, &to),
            Request::Mkdir { path, mode } => self.do_mkdir(&path, mode),
            Request::Rmdir { path } => self.do_rmdir(&path),
            Request::Getdir { path } => self.do_getdir(&path),
            // `GETDIRSTAT` is `GETLONGDIR`'s pipelined spelling, kept as
            // its own verb so telemetry tracks the batched ops apart.
            Request::Getlongdir { path } | Request::GetdirStat { path } => {
                self.listing_with_stats(&path)
            }
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
    /// target. The upload always consumes the payload — either into
    /// the file or down the drain: a rejected upload, whether refused
    /// by a check or by the open itself, still owes the stream
    /// `length` bytes of framing.
    pub fn begin_putfile(&mut self, path: &str, mode: u32, length: u64) -> PutfileUpload {
        let checked = (|| -> ChirpResult<String> {
            self.require_subject()?;
            let path = virtual_path(path)?;
            self.require_rights(parent_dir(&path)?, Rights::WRITE)?;
            Ok(path)
        })();
        let path = match checked {
            Ok(p) => p,
            Err(e) => return PutfileUpload::discard(length, e),
        };
        // Capacity policy: a replaced file frees its old bytes first.
        let old_size = self.shared.fs.stat(&path).map_or(0, |st| st.size);
        let growth = length.saturating_sub(old_size);
        if self.shared.over_capacity(growth) {
            return PutfileUpload::discard(length, ChirpError::NoSpace);
        }
        // The open announces the whole streamed upload's one durability
        // point; the chunks announce none. The crash harness drives
        // writes through OPEN/PWRITE, where every step is killable.
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE;
        let (handle, st) = match self.shared.fs.open_stat(&path, flags, mode) {
            Ok(opened) => opened,
            Err(e) => return PutfileUpload::discard(length, ChirpError::from_io(&e)),
        };
        PutfileUpload {
            remaining: length,
            length,
            fate: UploadFate::Write {
                handle,
                key: stat_key(&st),
                old_size,
                failed: None,
            },
        }
    }

    /// Complete an upload: settle caches, sizes and usage, and produce
    /// the reply (the deferred rejection for a drained upload). The
    /// open truncated the inode, so it is settled however the upload
    /// ended: fully fed, cut short, or drained after a failed write.
    pub fn finish_putfile(&mut self, upload: PutfileUpload) -> ChirpResult<Reply> {
        let complete = upload.remaining == 0;
        match upload.fate {
            UploadFate::Discard(e) => Err(e),
            UploadFate::Write {
                mut handle,
                key,
                old_size,
                failed,
            } => {
                let size = match (&failed, complete) {
                    (None, true) => upload.length,
                    _ => handle.fstat().map_or(0, |st| st.size),
                };
                // Stale pages go, and descriptors already open on the
                // inode learn its new size.
                if let Some(cache) = &self.shared.cache {
                    cache.invalidate(key);
                }
                self.shared.sizes.set_size(key, size);
                self.shared.adjust_usage(size as i64 - old_size as i64);
                match (failed, complete) {
                    (Some(e), _) => Err(e),
                    (None, false) => Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                    (None, true) => Ok(Reply::Value(0)),
                }
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

    /// Effective rights of the session subject in the virtual
    /// directory `dir`. The owner's superuser patterns grant all
    /// rights everywhere ("the owner retains access to all data").
    fn rights_in(&self, dir: &str) -> ChirpResult<Rights> {
        let subject = self.require_subject()?;
        for pat in &self.shared.config.superuser {
            if wildcard_match(pat, subject) {
                return Ok(Rights::all());
            }
        }
        Ok(self.effective_acl(dir)?.rights_of(subject))
    }

    /// The ACL governing directory `dir`, through the shared
    /// in-memory cache.
    fn effective_acl(&self, dir: &str) -> ChirpResult<Arc<Acl>> {
        self.shared.acls.effective(&*self.shared.fs, dir)
    }

    /// Write the ACL that `make` computes as `dir`'s own, under the
    /// ACL write lock, then drop every remembered ACL — whether or not
    /// the write came through whole: the change reaches whatever
    /// inherits from `dir`.
    fn store_acl(&self, dir: &str, make: impl FnOnce() -> ChirpResult<Acl>) -> ChirpResult<()> {
        let _writing = self.shared.acls.writing();
        let stored = make().and_then(|acl| acl.store_in(&*self.shared.fs, dir));
        self.shared.acls.invalidate();
        stored
    }

    /// Require at least one of `any_of` in `dir`.
    fn require_rights(&self, dir: &str, any_of: Rights) -> ChirpResult<Rights> {
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
        let path = virtual_path(path)?;
        let dir = parent_dir(&path)?;
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
        let have = self.rights_in(dir)?;
        if !have.contains(need) {
            return Err(ChirpError::NotAuthorized);
        }
        // An O_TRUNC open releases the file's old bytes; account for
        // them so the capacity policy sees rewrites as reuse, not
        // growth.
        let truncated_bytes = if flags.contains(OpenFlags::TRUNCATE) {
            self.shared.fs.stat(&path).map_or(0, |st| st.size)
        } else {
            0
        };
        // The open's attributes (on the export, its one fstat) seed the
        // inode key, the tracked size and the reply; every later write
        // and ftruncate on the descriptor maintains the size without
        // touching the kernel again.
        let (handle, st) = self.shared.fs.open_stat(&path, flags, mode)?;
        self.shared.adjust_usage(-(truncated_bytes as i64));
        let key = stat_key(&st);
        if truncated_bytes > 0 {
            // O_TRUNC reused the inode but emptied it.
            if let Some(cache) = &self.shared.cache {
                cache.truncate(key, truncated_bytes, 0);
            }
            self.shared.sizes.set_size(key, 0);
        }
        let state = self.shared.sizes.track(key, st.size);
        let fd = self.fds.insert(OpenFile {
            handle,
            flags,
            key,
            state,
        })?;
        // The descriptor rides with its attributes, in `FSTAT`'s words,
        // so a client that checks what it opened needs no second trip.
        Ok(Reply::Words(fd as i64, st.to_words()))
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
                if !f.flags.contains(OpenFlags::READ) {
                    // read(2) on a write-only descriptor: EBADF. A
                    // cache hit must fail exactly like the syscall.
                    return Err(ChirpError::Io);
                }
                if let Some(file) = f.handle.host_file() {
                    let doomed = f.state.doomed.load(Relaxed);
                    let reply =
                        cache.read(file, f.key, offset, length as usize, f.size(), !doomed)?;
                    return Ok(Reply::Pages(reply));
                }
            }
        }
        // No cache, a read past its bypass, or a handle with no host
        // file: into a buffer the reply owns, sent like a page.
        let buf = read_owned(f.handle.as_mut(), length, offset)?;
        Ok(Reply::Pages(PageReply::from_vec(buf)))
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
        let eff_off = if f.flags.contains(OpenFlags::APPEND) {
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
        f.handle.pwrite(data, offset)?;
        if !data.is_empty() {
            if let Some(cache) = &self.shared.cache {
                cache.write_through(f.key, eff_off, data, old_size);
            }
            f.state.size.fetch_max(new_size, Relaxed);
        }
        self.shared.adjust_usage(growth as i64);
        Ok(Reply::Value(data.len() as i64))
    }

    /// The stat words for one path (the body of `STAT` and of each
    /// `STATMULTI` line), with `STAT`'s exact error ordering.
    fn stat_words(&self, path: &str) -> ChirpResult<String> {
        // The parent's ACL governs a path; the root, which has no
        // parent, is governed by its own, and so is the verdict on a
        // reserved name.
        let need = Rights::READ | Rights::LIST;
        let path = match virtual_path(path) {
            Ok(path) => path,
            Err(e) => {
                self.require_rights("/", need)?;
                return Err(e);
            }
        };
        self.require_rights(parent_dir(&path).unwrap_or("/"), need)?;
        let st = self.shared.fs.stat(&path)?;
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
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::WRITE | Rights::DELETE)?;
        let st = self.shared.fs.stat(&path).ok();
        if st.is_some_and(|st| st.is_dir()) {
            return Err(ChirpError::IsADirectory);
        }
        self.shared.fs.unlink(&path)?;
        if let Some(st) = &st {
            // Open descriptors keep the inode readable, but once the
            // last one closes the inode number can be recycled — drop
            // the pages now and doom the incarnation so nothing
            // repopulates them (see the cache module docs).
            let key = stat_key(st);
            self.shared.sizes.doom(key);
            if let Some(cache) = &self.shared.cache {
                cache.invalidate(key);
            }
        }
        let size = st.map_or(0, |st| st.size);
        self.shared.adjust_usage(-(size as i64));
        Ok(Reply::Value(0))
    }

    fn do_rename(&self, from: &str, to: &str) -> ChirpResult<Reply> {
        let from = virtual_path(from)?;
        let from_dir = parent_dir(&from)?;
        let to = virtual_path(to)?;
        let to_dir = parent_dir(&to)?;
        self.require_rights(from_dir, Rights::WRITE | Rights::DELETE)?;
        self.require_rights(to_dir, Rights::WRITE)?;
        let fs = &self.shared.fs;
        let Ok(src) = fs.stat(&from) else {
            return Err(ChirpError::NotFound);
        };
        // rename(2) refuses to move a directory into its own subtree
        // (EINVAL); refuse it before an empty target loses its ACL.
        if src.is_dir() && to.starts_with(&format!("{from}/")) {
            return Err(ChirpError::InvalidRequest);
        }
        let dst = fs.stat(&to).ok();
        let clobbered = dst.as_ref().map(stat_key);
        // A directory may replace an empty one, as rename(2) allows;
        // the target's own ACL files do not count, as for RMDIR.
        let replaces_dir = src.is_dir()
            && dst
                .as_ref()
                .is_some_and(|d| d.is_dir() && stat_key(d) != stat_key(&src));
        let renamed = if replaces_dir {
            self.remove_acl_files(&to)
        } else {
            Ok(())
        }
        .and_then(|()| fs.rename(&from, &to).map_err(ChirpError::from));
        if src.is_dir() {
            // The directory took its `.__acl` (and its subtree's) to a
            // new path and freed the old one.
            self.shared.acls.invalidate();
        }
        renamed?;
        if let Some(key) = clobbered {
            // The rename unlinked the old target inode — same
            // treatment as UNLINK, unless the "target" was the source
            // itself (rename onto self replaces nothing).
            let now = fs.stat(&to).ok().map(|st| stat_key(&st));
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
        let path = virtual_path(path)?;
        let dir = parent_dir(&path)?;
        let have = self.rights_in(dir)?;
        let mkdir = || self.shared.fs.mkdir(&path, mode);
        if have.contains(Rights::WRITE) {
            // Ordinary create: the new directory inherits a copy of the
            // parent's effective ACL.
            mkdir()?;
            self.store_acl(&path, || Ok(Acl::clone(&*self.effective_acl(dir)?)))?;
            return Ok(Reply::Value(0));
        }
        if have.contains(Rights::RESERVE) {
            // Reserve: the new directory's ACL grants only the calling
            // subject, with exactly the rights named in the parent's
            // v(...) grant (paper §4).
            let granted = self.effective_acl(dir)?.reserve_rights_of(&subject);
            if granted.is_empty() {
                return Err(ChirpError::NotAuthorized);
            }
            mkdir()?;
            self.store_acl(&path, || Acl::single(&subject, &format!("{granted}")))?;
            return Ok(Reply::Value(0));
        }
        Err(ChirpError::NotAuthorized)
    }

    fn do_rmdir(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::WRITE | Rights::DELETE)?;
        let fs = &self.shared.fs;
        let st = fs.stat(&path)?;
        if !st.is_dir() {
            return Err(ChirpError::NotADirectory);
        }
        let removed = self
            .remove_acl_files(&path)
            .and_then(|()| fs.rmdir(&path).map_err(ChirpError::from));
        self.shared.acls.invalidate();
        removed?;
        Ok(Reply::Value(0))
    }

    /// Empty the directory `path` of its ACL files, or fail with
    /// `NotEmpty` if it holds anything else. A directory holding only
    /// its own ACL metadata (and a temporary ACL a killed write left
    /// behind) counts as empty from the protocol's point of view, so
    /// those files go before the directory is removed or replaced.
    fn remove_acl_files(&self, path: &str) -> ChirpResult<()> {
        let fs = &self.shared.fs;
        let names = fs.readdir(path)?;
        if names.iter().any(|n| !is_reserved(n)) {
            return Err(ChirpError::NotEmpty);
        }
        Ok(names
            .iter()
            .try_for_each(|name| fs.unlink(&join_path(path, name)))?)
    }

    fn do_getdir(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(&path, Rights::LIST)?;
        let names = self.shared.fs.readdir(&path)?;
        let mut names: Vec<String> = names
            .into_iter()
            .filter(|n| !is_reserved(n))
            .map(|n| escape(n.as_bytes()))
            .collect();
        names.sort_unstable();
        Ok(Reply::Data(names.join("\n").into_bytes()))
    }

    /// One `escape(name) statwords` line per entry, sorted.
    fn listing_with_stats(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(&path, Rights::LIST)?;
        let listed = self.shared.fs.readdir_stat(&path)?;
        let mut lines: Vec<String> = listed
            .into_iter()
            .filter(|(name, _)| !is_reserved(name))
            .map(|(name, st)| format!("{} {}", escape(name.as_bytes()), st.to_words()))
            .collect();
        lines.sort_unstable();
        Ok(Reply::Data(lines.join("\n").into_bytes()))
    }

    fn do_getfile(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::READ)?;
        // Always from disk, never through the page cache: a whole-tree
        // copy must not wipe out the hot working set.
        let (handle, st) = self.shared.fs.open_stat(&path, OpenFlags::READ, 0)?;
        match HostFile::new(handle) {
            Ok(file) => Ok(Reply::FileStream(file, st.size)),
            Err(mut handle) => Ok(Reply::Data(read_owned(handle.as_mut(), st.size, 0)?)),
        }
    }

    fn do_getacl(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        if !self.shared.fs.stat(&path).is_ok_and(|st| st.is_dir()) {
            return Err(ChirpError::NotADirectory);
        }
        // Any right on the directory allows inspecting its ACL.
        let r = self.rights_in(&path)?;
        if r.is_empty() {
            return Err(ChirpError::NotAuthorized);
        }
        Ok(Reply::Data(
            self.effective_acl(&path)?.render().into_bytes(),
        ))
    }

    fn do_setacl(&self, path: &str, subject: &str, rights: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        if !self.shared.fs.stat(&path).is_ok_and(|st| st.is_dir()) {
            return Err(ChirpError::NotADirectory);
        }
        self.require_rights(&path, Rights::ADMIN)?;
        // Materialize the inherited ACL on first modification so the
        // change is scoped to this directory.
        self.store_acl(&path, || {
            let mut acl = Acl::clone(&*self.effective_acl(&path)?);
            acl.set(subject, rights)?;
            Ok(acl)
        })?;
        Ok(Reply::Value(0))
    }

    fn do_checksum(&self, path: &str) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::READ)?;
        let mut handle = self.shared.fs.open(&path, OpenFlags::READ, 0)?;
        let mut crc = chirp_proto::checksum::Crc64::new();
        let mut buf = [0u8; 64 * 1024];
        let mut offset = 0;
        loop {
            // Short only at EOF.
            let n = handle.pread(&mut buf, offset)?;
            crc.update(&buf[..n]);
            if n < buf.len() {
                break;
            }
            offset += n as u64;
        }
        Ok(Reply::Words(0, format!("{:016x}", crc.finish())))
    }

    fn do_statfs(&self) -> ChirpResult<Reply> {
        self.require_subject()?;
        let total = self.shared.config.capacity_bytes;
        // Reconcile the approximate counter with a real walk, so any
        // drift from untracked mutations is bounded by the statfs
        // interval.
        let used = disk_usage(&*self.shared.fs);
        self.shared.used_bytes.store(used, Relaxed);
        let st = StatFs {
            total_bytes: total,
            free_bytes: total.saturating_sub(used),
        };
        Ok(Reply::Words(0, st.to_words()))
    }

    fn do_truncate(&self, path: &str, size: u64) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::WRITE)?;
        let st = self.shared.fs.stat(&path)?;
        if st.is_dir() {
            return Err(ChirpError::IsADirectory);
        }
        let old = st.size;
        if size > old && self.shared.over_capacity(size - old) {
            return Err(ChirpError::NoSpace);
        }
        self.shared.fs.truncate(&path, size)?;
        let key = stat_key(&st);
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
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::READ)?;
        let handle = self.shared.fs.open(&path, OpenFlags::READ, 0)?;
        Ok(ThirdputPush {
            handle,
            target: target.to_string(),
            target_path: target_path.to_string(),
        })
    }

    fn do_utime(&self, path: &str, mtime: u64) -> ChirpResult<Reply> {
        let path = virtual_path(path)?;
        self.require_rights(parent_dir(&path)?, Rights::WRITE)?;
        self.shared.fs.set_mtime(&path, mtime)?;
        Ok(Reply::Value(0))
    }
}

/// An authorized `THIRDPUT` (see [`Session::begin_thirdput`]): the
/// opened source and where it goes.
#[derive(Debug)]
pub struct ThirdputPush {
    handle: Box<dyn FileHandle>,
    target: String,
    target_path: String,
}

/// Run a third-party transfer to its end: dial the target, authenticate
/// as this server's hostname, and send the file in one `PUTFILE`.
/// Blocks on the peer for as long as the transfer takes, so it never
/// runs on a serving thread. The reply value is the byte count. A host
/// file is sent as it is; any other source is read into a buffer first.
pub fn push_thirdput(shared: &Shared, mut push: ThirdputPush) -> ChirpResult<u64> {
    let timeout = std::time::Duration::from_secs(30);
    let mut conn =
        chirp_client::Connection::connect_via(&shared.config.dialer, &push.target, timeout)?;
    conn.authenticate(&[chirp_client::AuthMethod::Hostname])?;
    if let Some(file) = push.handle.host_file() {
        return conn.putfile_file(&push.target_path, 0o644, file);
    }
    let size = push.handle.fstat()?.size;
    let data = read_owned(push.handle.as_mut(), size, 0)?;
    conn.putfile(&push.target_path, 0o644, &data)?;
    Ok(data.len() as u64)
}

/// Up to `length` bytes at `offset`, read through the handle into a
/// buffer of their own: short only at EOF.
fn read_owned(handle: &mut dyn FileHandle, length: u64, offset: u64) -> ChirpResult<Vec<u8>> {
    let mut buf = vec![0u8; length as usize];
    let n = handle.pread(&mut buf, offset)?;
    buf.truncate(n);
    Ok(buf)
}

/// Total bytes of file data stored in `fs` (a walk from its root,
/// skipping any directory that fails to list; the exported trees in a
/// personal server are small enough that a walk beats tracking every
/// mutation).
pub fn disk_usage(fs: &dyn FileSystem) -> u64 {
    let mut total = 0;
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs.readdir_stat(&dir) else {
            continue;
        };
        for (name, st) in entries {
            if st.is_dir() {
                stack.push(join_path(&dir, &name));
            } else {
                total += st.size;
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
        let fs = chirp_proto::localfs::LocalFs::new(dir.path()).unwrap();
        fs.write_file("/a", &[0u8; 100]).unwrap();
        fs.mkdir("/s", 0o755).unwrap();
        fs.write_file("/s/b", &[0u8; 50]).unwrap();
        assert_eq!(disk_usage(&fs), 150);
    }

    /// One session, end to end at the handler layer: `OPEN` makes
    /// exactly one `fstat` and answers the attributes a following
    /// `FSTAT` reports; a burst of writes, reads, and ftruncates on the
    /// descriptor then makes zero `fstat` calls (the fd table tracks
    /// the size) while one `FSTAT` makes exactly one, and an oversized
    /// read (past the cache bypass) answers one slice of its own
    /// buffer.
    #[test]
    fn hot_io_burst_is_fstat_free_and_an_oversized_read_is_one_slice() {
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
        let before_open = fstat_calls();
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
        assert_eq!(fstat_calls() - before_open, 1, "OPEN must fstat once");
        let Reply::Words(fd, opened) = open else {
            panic!("open reply");
        };
        let fd = fd as i32;
        let Reply::Words(0, fstat) = s.handle(Request::Fstat { fd }, None).unwrap() else {
            panic!("fstat reply");
        };
        assert_eq!(opened, fstat, "OPEN answers FSTAT's attributes");

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

        // An oversized read (past the cache bypass threshold) reads
        // through into a buffer of its own.
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
        let Reply::Pages(pages) = reply else {
            panic!("an oversized pread answers pages, got {reply:?}");
        };
        assert_eq!(pages.total(), big as usize);
        assert_eq!(pages.slices().len(), 1, "one buffer the reply owns");
        assert!(pages.slices()[0].as_slice().iter().all(|&b| b == 9));
    }
}
