//! The §5 create/delete protocol as session types: crash-safe update
//! ordering the compiler enforces.
//!
//! A stub filesystem updates two stores per file — the directory tree
//! (the stub) and one or more file servers (the data parts: one for a
//! plain file, several for a striped or mirrored one). No pair of
//! updates is atomic, so the *order* is the whole crash-consistency
//! story:
//!
//! ```text
//! create:  Placed ──write_stub()──▶ StubWritten ──create_data()──▶ handle
//!          (nothing durable)        (stub fsync'd,                 (every part
//!                                    dir fsync'd)                   exists)
//!
//! delete:  StubLive ──unlink_data()──▶ DataUnlinked ──unlink_stub()──▶ ()
//!          (stub read)                 (every part gone)              (entry gone)
//! ```
//!
//! Stub-then-data on create and data-then-stub on delete guarantee that
//! a crash between any two steps leaves at worst a *dangling stub* —
//! which reads as "file not found" — and never unreferenced data. The
//! transactions below encode each protocol as a typestate (in the style
//! of SquirrelFS): `create_data` exists only on a transaction whose
//! type says the stub is already durable, and `unlink_stub` only on one
//! whose type says the data is already gone. Misordered protocol code
//! is not a failing test; it is a type error.
//!
//! Creating data before the stub does not compile:
//!
//! ```compile_fail,E0599
//! use chirp_proto::OpenFlags;
//! use tss_core::StubFs;
//!
//! fn data_before_stub(fs: &StubFs) -> std::io::Result<()> {
//!     let txn = fs.begin_create("/f")?;
//!     // error[E0599]: no method named `create_data` found for
//!     // `CreateTxn<'_, Placed>` — the stub is not durable yet.
//!     let _h = txn.create_data(OpenFlags::WRITE, 0o644)?;
//!     Ok(())
//! }
//! ```
//!
//! Removing the stub before the data does not compile either:
//!
//! ```compile_fail,E0599
//! use tss_core::StubFs;
//!
//! fn stub_before_data(fs: &StubFs) -> std::io::Result<()> {
//!     let txn = fs.begin_delete("/f")?;
//!     // error[E0599]: no method named `unlink_stub` found for
//!     // `DeleteTxn<'_, StubLive>` — the data file still exists.
//!     txn.unlink_stub()?;
//!     Ok(())
//! }
//! ```
//!
//! And each step consumes the transaction, so a step cannot run twice:
//!
//! ```compile_fail,E0382
//! use tss_core::StubFs;
//!
//! fn stub_written_twice(fs: &StubFs) -> std::io::Result<()> {
//!     let txn = fs.begin_create("/f")?;
//!     let staged = txn.write_stub()?;
//!     let _again = txn.write_stub()?; // error[E0382]: use of moved value
//!     drop(staged);
//!     Ok(())
//! }
//! ```

use std::io;
use std::marker::PhantomData;

use chirp_proto::persist::DurabilityPoint;
use chirp_proto::OpenFlags;

use crate::cfs::reopen_flags_of;
use crate::fanout::run_fanout;
use crate::fs::{split_parent, FileHandle, FileSystem};
use crate::placement::unique_data_name;
use crate::stub::StubRecord;
use crate::stubfs::StubFs;

mod sealed {
    pub trait Sealed {}
}

/// A state of the create protocol (sealed: the two states below are
/// the only ones).
pub trait CreateState: sealed::Sealed {}
/// A state of the delete protocol (sealed).
pub trait DeleteState: sealed::Sealed {}

/// Create state 1: servers and data names are chosen; nothing durable.
pub enum Placed {}
/// Create state 2: the stub is durable in the tree (file and parent
/// directory fsync'd); no data part exists yet.
pub enum StubWritten {}
/// Delete state 1: the stub has been read; both stores still hold the
/// file.
pub enum StubLive {}
/// Delete state 2: every data part is gone; only the stub remains.
pub enum DataUnlinked {}

impl sealed::Sealed for Placed {}
impl sealed::Sealed for StubWritten {}
impl sealed::Sealed for StubLive {}
impl sealed::Sealed for DataUnlinked {}
impl CreateState for Placed {}
impl CreateState for StubWritten {}
impl DeleteState for StubLive {}
impl DeleteState for DataUnlinked {}

/// An in-flight file create, parameterized by protocol state. Obtain
/// one with [`StubFs::begin_create`]; drive it with
/// [`CreateTxn::write_stub`] then
/// [`create_data`](CreateTxn::create_data).
#[must_use = "a create transaction does nothing until driven through write_stub and create_data"]
pub struct CreateTxn<'fs, S: CreateState> {
    fs: &'fs StubFs,
    path: String,
    stub: StubRecord,
    _state: PhantomData<S>,
}

impl<'fs, S: CreateState> CreateTxn<'fs, S> {
    /// The stub this create will (or did) write: the layout, and the
    /// chosen endpoint and unique data path of each part.
    pub fn stub(&self) -> &StubRecord {
        &self.stub
    }

    /// The tree path being created.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl<'fs> CreateTxn<'fs, Placed> {
    /// Step 1: choose a server and a unique data file name for each
    /// part — consecutive servers from a placed start, so load spreads
    /// across files. Nothing is durable yet; dropping the transaction
    /// here abandons nothing.
    pub(crate) fn begin(fs: &'fs StubFs, path: &str) -> io::Result<CreateTxn<'fs, Placed>> {
        let servers = fs.pool.servers();
        if servers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no data servers in pool",
            ));
        }
        let first = fs.placement.choose(servers.len());
        let parts = (0..fs.width)
            .map(|i| {
                let server = &servers[(first + i) % servers.len()];
                (
                    server.endpoint.clone(),
                    format!("{}/{}", server.volume, unique_data_name()),
                )
            })
            .collect();
        Ok(CreateTxn {
            fs,
            path: path.to_string(),
            stub: StubRecord {
                layout: fs.layout,
                parts,
            },
            _state: PhantomData,
        })
    }

    /// Step 2: durably create the stub entry — exclusive create (so a
    /// concurrent create of the same name aborts cleanly), write, fsync
    /// the stub, fsync the parent directory. Only after all four is the
    /// stub the paper's "commit point": a crash anywhere inside this
    /// method leaves either no entry or a dangling one, both of which
    /// read as "file not found".
    pub fn write_stub(self) -> io::Result<CreateTxn<'fs, StubWritten>> {
        let fs = self.fs;
        fs.persist.reached(DurabilityPoint::StubWrite, &self.path)?;
        let mut handle = fs.meta.open(
            &self.path,
            OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE,
            0o644,
        )?;
        handle.pwrite(self.stub.render().as_bytes(), 0)?;
        handle.fsync()?;
        drop(handle);
        if let Some((parent, _)) = split_parent(&self.path) {
            fs.meta.sync_dir(&parent)?;
        }
        Ok(CreateTxn {
            fs,
            path: self.path,
            stub: self.stub,
            _state: PhantomData,
        })
    }
}

impl CreateTxn<'_, StubWritten> {
    /// Step 3: create every data part the stub points at, exclusively
    /// and concurrently, each announcing its `DataCreate` point first.
    /// Each part of the returned handle owns a pooled connection, so
    /// concurrent handles never share a stream.
    ///
    /// A part that "already exists" is this create's own — names are
    /// unique to a transaction — made by a request whose reply was lost
    /// and which the connection's recovery then repeated, so it is
    /// opened as it stands.
    ///
    /// If any part fails, the create is undone by the delete protocol
    /// over the parts that were made — those parts, then the stub — so
    /// neither a knowable dangling entry nor a sibling's part is left
    /// behind. Those removals are themselves durability points, because
    /// a crashed process cannot clean up; and a made part whose server
    /// cannot confirm its removal keeps the stub, as on any delete. A
    /// part counts as not made when its server refused it, or never
    /// answered through every retry: an unreachable server must not
    /// wedge the name, since the next attempt is placed elsewhere. (If
    /// a request did land just before its server went silent for good,
    /// that part is left to `fsck`'s orphan scan — server loss, not a
    /// client crash, is what it takes.)
    pub fn create_data(mut self, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        let fs = self.fs;
        let data_flags = flags | OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
        let taken = |e: &io::Error| e.kind() == io::ErrorKind::AlreadyExists;
        let jobs: Vec<_> = self
            .stub
            .parts
            .iter()
            .map(|(endpoint, data_path)| {
                move || {
                    fs.persist.reached(DurabilityPoint::DataCreate, data_path)?;
                    match fs.pool.open(endpoint, data_path, data_flags, mode) {
                        Err(e) if taken(&e) => fs
                            .pool
                            .open(endpoint, data_path, reopen_flags_of(data_flags), mode)
                            .or(Err(e)),
                        other => other,
                    }
                }
            })
            .collect();
        let opened = run_fanout(jobs);
        let made: Vec<bool> = (opened.iter())
            .map(|r| r.as_ref().err().is_none_or(taken))
            .collect();
        match opened.into_iter().collect::<io::Result<Vec<_>>>() {
            Ok(handles) => Ok(fs.assemble(&self.stub, handles, data_flags)),
            // (The made parts' connections are back in the pool by now.)
            Err(e) => {
                // Possibly none were: then only the stub goes.
                let mut made = made.into_iter();
                self.stub.parts.retain(|_| made.next() == Some(true));
                let undo = DeleteTxn {
                    fs,
                    path: self.path,
                    stub: self.stub,
                    _state: PhantomData::<StubLive>,
                };
                let _ = undo.unlink_data().and_then(DeleteTxn::unlink_stub);
                Err(e)
            }
        }
    }
}

/// An in-flight file delete, parameterized by protocol state. Obtain
/// one with [`StubFs::begin_delete`]; drive it with
/// [`DeleteTxn::unlink_data`] then
/// [`unlink_stub`](DeleteTxn::unlink_stub).
#[must_use = "a delete transaction does nothing until driven through unlink_data and unlink_stub"]
pub struct DeleteTxn<'fs, S: DeleteState> {
    fs: &'fs StubFs,
    path: String,
    stub: StubRecord,
    _state: PhantomData<S>,
}

impl<'fs, S: DeleteState> DeleteTxn<'fs, S> {
    /// The stub being deleted.
    pub fn stub(&self) -> &StubRecord {
        &self.stub
    }

    /// The tree path being deleted.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl<'fs> DeleteTxn<'fs, StubLive> {
    /// Read the live stub; fails with `NotFound` if the entry is
    /// missing or dangling-from-birth (zero-length stub).
    pub(crate) fn begin(fs: &'fs StubFs, path: &str) -> io::Result<DeleteTxn<'fs, StubLive>> {
        let stub = fs.read_stub(path)?;
        Ok(DeleteTxn {
            fs,
            path: path.to_string(),
            stub,
            _state: PhantomData,
        })
    }

    /// Step 1: remove every data part, concurrently, each announcing
    /// its `DataUnlink` point first. A crash during or after this
    /// leaves a dangling stub — "file not found", and repairable —
    /// never unreferenced data. A part already gone (dangling stub)
    /// counts as removed; and where the layout survives the loss of a
    /// part (a mirror), a dead or refusing replica must not stop the
    /// user from deleting the file, so its failure is swallowed.
    pub fn unlink_data(self) -> io::Result<DeleteTxn<'fs, DataUnlinked>> {
        let fs = self.fs;
        let strict = self.stub.layout.needs_every_part();
        let jobs: Vec<_> = self
            .stub
            .parts
            .iter()
            .map(|(endpoint, data_path)| {
                move || {
                    fs.persist.reached(DurabilityPoint::DataUnlink, data_path)?;
                    match fs.pool.with_conn(endpoint, |cfs| cfs.unlink(data_path)) {
                        Err(e) if strict && e.kind() != io::ErrorKind::NotFound => Err(e),
                        _ => Ok(()),
                    }
                }
            })
            .collect();
        run_fanout(jobs).into_iter().collect::<io::Result<()>>()?;
        Ok(DeleteTxn {
            fs,
            path: self.path,
            stub: self.stub,
            _state: PhantomData,
        })
    }
}

impl DeleteTxn<'_, DataUnlinked> {
    /// Step 2: remove the stub entry and flush the parent directory.
    pub fn unlink_stub(self) -> io::Result<()> {
        let fs = self.fs;
        fs.persist
            .reached(DurabilityPoint::StubUnlink, &self.path)?;
        fs.meta.unlink(&self.path)?;
        if let Some((parent, _)) = split_parent(&self.path) {
            fs.meta.sync_dir(&parent)?;
        }
        Ok(())
    }
}
