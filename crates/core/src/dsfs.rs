//! DSFS — the *distributed shared filesystem*.
//!
//! Identical to [`crate::Dpfs`] except that the directory tree itself
//! is stored **on a file server**, so multiple clients can access the
//! tree and follow pointers to file data on multiple servers. A single
//! server might be dedicated to the directory role, or serve double
//! duty as both directory and data server — under the recursive
//! storage abstraction any server can act in either role.
//!
//! There is no caching anywhere, so there are no coherence problems;
//! the synchronization issues that remain (create/delete ordering,
//! dangling stubs) are handled by the shared engine in
//! [`crate::stubfs`].

use std::io;
use std::sync::Arc;

use chirp_client::AuthMethod;

use crate::cfs::{Cfs, CfsConfig};
use crate::placement::Placement;
use crate::stubfs::{delegate_filesystem, DataServer, StubFs, StubFsOptions};

/// A distributed shared filesystem.
pub struct Dsfs {
    inner: StubFs,
}

impl Dsfs {
    /// Attach to a DSFS whose directory tree lives on the file server
    /// `meta_endpoint` under `meta_volume`, with data spread over
    /// `pool`.
    pub fn new(
        meta_endpoint: &str,
        meta_volume: &str,
        meta_auth: Vec<AuthMethod>,
        pool: Vec<DataServer>,
    ) -> io::Result<Dsfs> {
        Dsfs::with_options(
            meta_endpoint,
            meta_volume,
            meta_auth,
            pool,
            Placement::round_robin(),
            StubFsOptions::default(),
        )
    }

    /// Full-control constructor.
    pub fn with_options(
        meta_endpoint: &str,
        meta_volume: &str,
        meta_auth: Vec<AuthMethod>,
        pool: Vec<DataServer>,
        placement: Placement,
        options: StubFsOptions,
    ) -> io::Result<Dsfs> {
        let mut cfg = CfsConfig::new(meta_endpoint, meta_auth).with_base(meta_volume);
        cfg.timeout = options.timeout;
        cfg.retry = options.retry;
        // The directory connection rides the same transport and clock
        // as the data pool, so a DSFS assembled over an in-memory
        // network (or behind a fault-injecting dialer) has no hidden
        // TCP dependence through its metadata path.
        cfg.dialer = options.dialer.clone();
        cfg.clock = options.clock.clone();
        cfg.pipeline_depth = options.pipeline_depth;
        let meta = Arc::new(Cfs::new(cfg));
        Ok(Dsfs {
            inner: StubFs::new(meta, pool, placement, options),
        })
    }

    /// Create the directory volume and every pool volume, making a
    /// fresh filesystem ready for use.
    pub fn format(
        meta_endpoint: &str,
        meta_volume: &str,
        meta_auth: Vec<AuthMethod>,
        pool: Vec<DataServer>,
    ) -> io::Result<Dsfs> {
        Dsfs::format_with_options(
            meta_endpoint,
            meta_volume,
            meta_auth,
            pool,
            Placement::round_robin(),
            StubFsOptions::default(),
        )
    }

    /// [`Dsfs::format`] with full control over placement and transport
    /// (timeouts, retry policy, dialer, clock).
    pub fn format_with_options(
        meta_endpoint: &str,
        meta_volume: &str,
        meta_auth: Vec<AuthMethod>,
        pool: Vec<DataServer>,
        placement: Placement,
        options: StubFsOptions,
    ) -> io::Result<Dsfs> {
        // The directory volume is itself created through the ordinary
        // file interface of the directory server.
        let mut root_cfg = CfsConfig::new(meta_endpoint, meta_auth.clone());
        root_cfg.timeout = options.timeout;
        root_cfg.retry = options.retry;
        root_cfg.dialer = options.dialer.clone();
        root_cfg.clock = options.clock.clone();
        let root = Cfs::new(root_cfg);
        match crate::fs::FileSystem::mkdir(&root, meta_volume, 0o755) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        let fs = Dsfs::with_options(
            meta_endpoint,
            meta_volume,
            meta_auth,
            pool,
            placement,
            options,
        )?;
        fs.inner.ensure_volumes()?;
        Ok(fs)
    }
}

delegate_filesystem!(Dsfs, inner);
