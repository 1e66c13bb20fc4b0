//! GEMS — Grid Enabled Molecular Simulations: the distributed shared
//! database (DSDB) abstraction of §5 and §9.
//!
//! Scientific data is often better served by a database than a
//! filesystem: simulation outputs must be indexed, searched, and
//! replicated. GEMS stores file data on ordinary Chirp file servers
//! and indexes it in a *record directory* ([`records`]) on one more
//! ordinary Chirp server: one file per logical name holding its size,
//! checksum, free-form attributes, and the location of every replica.
//! Clients query the records for matching files and then access the
//! data directly on the file servers with the ordinary adapter
//! machinery — the DSDB is just the DSFS with a richer directory
//! service, and needs no server code of its own.
//!
//! Two active components maintain the data (§9):
//!
//! * the **auditor** ([`auditor`]) periodically scans the database and
//!   verifies the location (stat) and integrity (server-side checksum)
//!   of every replica, pruning the ones that are damaged or missing;
//! * the **replicator** ([`replicator`]) examines the deficits the
//!   auditor exposed and repairs them by copying from the remaining
//!   replicas, up to each file's replica target.
//!
//! Together they reproduce the preservation behavior of Figure 9: data
//! is replicated up to a space budget, and induced failures are
//! discovered and healed. The paper-scale time series is simulated in
//! `simnet::gems`; this crate is the real thing at test scale.
//!
//! Beside the replicator sit the THIRDPUT distribution trees
//! ([`tree`]), which fan N replicas out depot-to-depot in O(log N)
//! wave-times, re-parenting orphaned subtrees when an interior node
//! dies mid-transfer.

#![warn(missing_docs)]

pub mod auditor;
pub mod daemons;
pub mod rebuild;
pub mod record;
pub mod records;
pub mod replicator;
pub mod system;
pub mod tree;

pub use auditor::{audit_once, AuditReport};
pub use daemons::GemsDaemons;
pub use rebuild::{rebuild, RebuildReport};
pub use record::FileRecord;
pub use replicator::{replicate_once, ReplicationReport};
pub use system::{Gems, GemsConfig, GemsPool};
pub use tree::{distribute, ideal_depth, TreeConfig, TreeReport, TreeTarget};
