//! The assembled GEMS system: database + file server pool.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::AuthMethod;
use parking_lot::Mutex;
use tss_core::cfs::{Cfs, CfsConfig, RetryPolicy};
use tss_core::stubfs::DataServer;

use crate::db::DbClient;
use crate::record::{FileRecord, Replica};

/// One storage server in the GEMS pool (endpoint + volume + auth) —
/// the same shape a DSFS data pool uses.
pub type GemsPool = Vec<DataServer>;

/// The sidecar metadata file stored beside a replica's data.
pub fn sidecar_path(data_path: &str) -> String {
    format!("{data_path}.meta")
}

/// Configuration of a GEMS client.
#[derive(Debug, Clone)]
pub struct GemsConfig {
    /// Database server address.
    pub db_addr: SocketAddr,
    /// Storage servers replicas may be placed on.
    pub pool: GemsPool,
    /// Default replica target for newly ingested files.
    pub default_target: u32,
    /// Network timeout.
    pub timeout: Duration,
    /// Recovery policy for storage connections.
    pub retry: RetryPolicy,
}

impl GemsConfig {
    /// A config with library defaults.
    pub fn new(db_addr: SocketAddr, pool: GemsPool) -> GemsConfig {
        GemsConfig {
            db_addr,
            pool,
            default_target: 2,
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
        }
    }
}

/// A GEMS session: ingest, search, fetch, and maintain replicated
/// scientific data.
pub struct Gems {
    pub(crate) config: GemsConfig,
    pub(crate) db: Mutex<DbClient>,
    conns: Mutex<HashMap<String, Arc<Cfs>>>,
}

impl Gems {
    /// Connect to the database and prepare the pool volumes.
    pub fn connect(config: GemsConfig) -> io::Result<Gems> {
        let db = DbClient::connect(config.db_addr, config.timeout)?;
        let gems = Gems {
            config,
            db: Mutex::new(db),
            conns: Mutex::new(HashMap::new()),
        };
        for server in gems.config.pool.clone() {
            let cfs = gems.conn_for(&server.endpoint, &server.auth);
            match tss_core::fs::FileSystem::mkdir(cfs.as_ref(), &server.volume, 0o755) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
        Ok(gems)
    }

    /// Connection to a storage endpoint, cached per endpoint.
    pub(crate) fn conn_for(&self, endpoint: &str, auth: &[AuthMethod]) -> Arc<Cfs> {
        let mut conns = self.conns.lock();
        conns
            .entry(endpoint.to_string())
            .or_insert_with(|| {
                let mut cfg = CfsConfig::new(endpoint, auth.to_vec());
                cfg.timeout = self.config.timeout;
                cfg.retry = self.config.retry;
                Arc::new(Cfs::new(cfg))
            })
            .clone()
    }

    /// Connection for a replica: pool auth if the endpoint is pooled,
    /// else the first pool entry's auth.
    pub(crate) fn conn_for_replica(&self, replica: &Replica) -> Arc<Cfs> {
        let auth = self
            .config
            .pool
            .iter()
            .find(|s| s.endpoint == replica.endpoint)
            .or_else(|| self.config.pool.first())
            .map(|s| s.auth.clone())
            .unwrap_or_default();
        self.conn_for(&replica.endpoint, &auth)
    }

    /// Pick the pool server a new replica of `rec` should land on:
    /// the eligible server with the most free space (probed by
    /// `statfs`).
    pub(crate) fn place(&self, rec: &FileRecord) -> Option<&DataServer> {
        self.config
            .pool
            .iter()
            .filter(|s| !rec.replicas.iter().any(|r| r.endpoint == s.endpoint))
            .max_by_key(|s| {
                let cfs = self.conn_for(&s.endpoint, &s.auth);
                cfs.statfs().map(|st| st.free_bytes).unwrap_or(0)
            })
    }

    /// Store `data` under the logical `name` with searchable
    /// attributes; writes one replica and registers the record. The
    /// replicator brings it up to the target.
    pub fn ingest(
        &self,
        name: &str,
        attrs: &[(&str, &str)],
        data: &[u8],
    ) -> io::Result<FileRecord> {
        let checksum = chirp_proto::crc64(data);
        let mut rec = FileRecord::new(
            name,
            data.len() as u64,
            checksum,
            self.config.default_target,
        );
        for (k, v) in attrs {
            rec.attrs.insert(k.to_string(), v.to_string());
        }
        let server = self
            .place(&rec)
            .ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "empty GEMS pool"))?
            .clone();
        let path = format!(
            "{}/{}",
            server.volume,
            tss_core::placement::unique_data_name()
        );
        let cfs = self.conn_for(&server.endpoint, &server.auth);
        cfs.putfile(&path, 0o644, data)?;
        // Sidecar metadata makes the database rebuildable by rescan.
        cfs.putfile(&sidecar_path(&path), 0o644, rec.render_sidecar().as_bytes())?;
        rec.replicas.push(Replica {
            endpoint: server.endpoint.clone(),
            path,
        });
        self.db.lock().put(&rec)?;
        Ok(rec)
    }

    /// Fetch a file's contents, trying replicas in order and verifying
    /// the checksum — the loss of any one device leaves the data
    /// reachable through the others (failure coherence).
    pub fn fetch(&self, name: &str) -> io::Result<Vec<u8>> {
        let rec = self.db.lock().get(name)?;
        let mut last: io::Error = io::ErrorKind::NotFound.into();
        for replica in &rec.replicas {
            let cfs = self.conn_for_replica(replica);
            match cfs.getfile(&replica.path) {
                Ok(data) if chirp_proto::crc64(&data) == rec.checksum => return Ok(data),
                Ok(_) => {
                    last = io::Error::new(io::ErrorKind::InvalidData, "replica checksum mismatch")
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The storage pool this session places data on.
    pub fn pool(&self) -> &GemsPool {
        &self.config.pool
    }

    /// The record for a logical name.
    pub fn record(&self, name: &str) -> io::Result<FileRecord> {
        self.db.lock().get(name)
    }

    /// All logical names.
    pub fn list(&self) -> io::Result<Vec<String>> {
        self.db.lock().list()
    }

    /// Names whose attribute `key` matches the wildcard `pattern`.
    pub fn query(&self, key: &str, pattern: &str) -> io::Result<Vec<String>> {
        self.db.lock().query(key, pattern)
    }

    /// Names matching *every* `(key, pattern)` constraint.
    pub fn query_all(&self, constraints: &[(&str, &str)]) -> io::Result<Vec<String>> {
        self.db.lock().query_all(constraints)
    }

    /// Remove a file everywhere: every replica, then the record
    /// (data first, then metadata, as in the DSFS delete protocol).
    pub fn delete(&self, name: &str) -> io::Result<()> {
        let rec = self.db.lock().get(name)?;
        for replica in &rec.replicas {
            let cfs = self.conn_for_replica(replica);
            for path in [replica.path.clone(), sidecar_path(&replica.path)] {
                match tss_core::fs::FileSystem::unlink(cfs.as_ref(), &path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        self.db.lock().delete(name)
    }

    /// One full maintenance cycle: audit everything, then repair.
    pub fn maintain(&self) -> io::Result<(crate::AuditReport, crate::ReplicationReport)> {
        let audit = crate::auditor::audit_once(self)?;
        let repair = crate::replicator::replicate_once(self, usize::MAX)?;
        Ok((audit, repair))
    }
}
