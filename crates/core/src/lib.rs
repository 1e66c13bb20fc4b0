//! `tss-core` — the TSS *abstraction layer* and the Parrot-style
//! adapter.
//!
//! A tactical storage system separates **resources** (Chirp file
//! servers, discovered through catalogs) from **abstractions** that
//! users build on them without any administrator involvement:
//!
//! * [`LocalFs`] — the plain host filesystem ("Unix" in the paper's
//!   evaluation), and what a file server exports.
//! * [`Cfs`] — the *central filesystem*: untranslated access to a
//!   single file server, with grid security and Unix-like consistency
//!   (no caching, no buffering).
//! * [`Dpfs`] — the *distributed private filesystem*: one user's
//!   directory tree on local disk, file data spread over many servers
//!   through stub files.
//! * [`Dsfs`] — the *distributed shared filesystem*: the same layout
//!   with the directory tree itself stored on a file server, so many
//!   clients can share it.
//! * [`StripedFs`] / [`MirroredFs`] — the conclusion's suggested
//!   extensions: transparent striping for bandwidth and transparent
//!   replication for fault tolerance, built with zero new server code
//!   as two more layouts of the same stub engine ([`StubFs`]).
//! * [`adapter::Adapter`] — connects applications to any of the above
//!   through one namespace (`/cfs/host:port/...`, mountlists,
//!   transparent reconnection, `O_SYNC` policy).
//!
//! Everything implements the same [`FileSystem`] trait — the paper's
//! *recursive storage abstraction*: one Unix-like interface at every
//! layer, so abstractions compose and any server can serve as data
//! node, directory node, or both. The trait and [`LocalFs`] are defined
//! in `chirp-proto`, below the server, and re-exported here as
//! [`fs`] and [`localfs`].

#![warn(missing_docs)]

pub mod adapter;
pub mod backup;
pub mod cfs;
pub mod discovery;
pub mod dpfs;
pub mod dsfs;
mod failover;
mod fanout;
pub mod fsck;
pub mod mirrored;
pub mod placement;
pub mod pool;
pub mod protocol;
pub mod striped;
pub mod stub;
pub mod stubfs;

pub use chirp_proto::{fs, localfs};

pub use adapter::{Adapter, AdapterConfig, Namespace};
pub use backup::BackupVault;
pub use cfs::{Cfs, CfsConfig, RetryPolicy};
pub use discovery::{discover_pool, PoolPolicy};
pub use dpfs::Dpfs;
pub use dsfs::Dsfs;
pub use fs::{FileHandle, FileSystem, OpenedFile};
pub use fsck::{fsck, FsckReport, RepairOptions};
pub use localfs::LocalFs;
pub use mirrored::MirroredFs;
pub use placement::Placement;
pub use pool::{PoolStats, PooledConn, ServerPool};
pub use protocol::{CreateTxn, DeleteTxn};
pub use striped::StripedFs;
pub use stubfs::{DataServer, StubFs, StubFsOptions};
