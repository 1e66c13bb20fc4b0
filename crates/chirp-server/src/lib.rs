//! The Chirp personal file server — the TSS *resource layer*.
//!
//! A file server exports a Unix-like I/O interface over TCP to external
//! users, who build higher-level abstractions on top of it. Each server
//! is owned: the owner controls who may connect (authentication), what
//! they may do (per-directory ACLs over a fully *virtual user space* of
//! `method:name` subjects), and may evict users or data at any time by
//! simply deleting files.
//!
//! Design properties carried over from the paper:
//!
//! * **Rapid deployment** — [`FileServer::start`] needs a directory and
//!   nothing else: no privileges, no kernel modules, no configuration
//!   files. Any user can export fresh space or existing data.
//! * **Software chroot** — the handlers speak only virtual paths
//!   ([`acl::virtual_path`]: normalized, `..` never above the root,
//!   the ACL files unreachable) to the export, a
//!   [`FileSystem`](chirp_proto::fs::FileSystem) that
//!   [`Shared::new`](server::Shared::new) makes a `LocalFs`, the only
//!   code that joins a path onto the host root — real `chroot` needs
//!   root.
//! * **Simple failure semantics** — when a connection drops, the server
//!   frees everything associated with it; descriptors never outlive the
//!   connection. Recovery policy belongs to the client-side adapter.
//! * **Recursive abstraction** — files and directories are stored
//!   without transformation in the host filesystem, so existing data
//!   can be exported in place and the owner can always inspect what the
//!   server stores.

#![warn(missing_docs)]

pub mod acl;
pub mod auth;
pub mod cache;
pub mod config;
pub mod fdtable;
pub mod handlers;
mod reactor;
pub mod report;
pub mod server;
pub mod stats;

pub use acl::{Acl, AclEntry, Rights};
pub use auth::{AuthOutcome, Authenticator};
pub use cache::{PageCache, PageReply};
pub use config::{KeyCredential, KeyRing, ServerConfig};
pub use server::FileServer;
pub use stats::{ServerStats, ServerTelemetry};
