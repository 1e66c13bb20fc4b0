//! DPFS — the *distributed private filesystem*.
//!
//! One user harnesses the aggregate storage of multiple file servers
//! in a single image. The directory structure lives in a local Unix
//! filesystem of the user's choosing; where it indicates a file, a
//! stub points at the data on some server. Because the metadata is
//! private to one user, no sharing is possible — that is what
//! [`crate::Dsfs`] adds by moving the tree onto a file server.

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::localfs::LocalFs;
use crate::placement::Placement;
use crate::stubfs::{delegate_filesystem, DataServer, StubFs, StubFsOptions};

/// A distributed private filesystem.
pub struct Dpfs {
    inner: StubFs,
}

impl Dpfs {
    /// Create (or reattach to) a DPFS whose directory tree lives at
    /// the local path `meta_root`, spreading new files over `pool`.
    pub fn new(meta_root: impl AsRef<Path>, pool: Vec<DataServer>) -> io::Result<Dpfs> {
        Dpfs::with_options(
            meta_root,
            pool,
            Placement::round_robin(),
            StubFsOptions::default(),
        )
    }

    /// Full-control constructor.
    pub fn with_options(
        meta_root: impl AsRef<Path>,
        pool: Vec<DataServer>,
        placement: Placement,
        options: StubFsOptions,
    ) -> io::Result<Dpfs> {
        let meta = Arc::new(LocalFs::new(meta_root.as_ref())?);
        let fs = StubFs::new(meta, pool, placement, options);
        Ok(Dpfs { inner: fs })
    }
}

delegate_filesystem!(Dpfs, inner);
