//! Server configuration.

use std::net::{IpAddr, SocketAddr};
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use chirp_proto::crypto::key_fingerprint;
use chirp_proto::persist::Persist;
use chirp_proto::transport::Dialer;

use crate::acl::Acl;

/// How the server turns a peer address into a `hostname:` identity.
///
/// The production system performed reverse DNS; the library takes a
/// pluggable resolver so deployments and tests can control the mapping
/// without a name service.
pub type HostnameResolver = Arc<dyn Fn(IpAddr) -> String + Send + Sync>;

/// A registered challenge–response credential standing in for an
/// external authentication system (GSI certificates, Kerberos
/// tickets).
///
/// Proving possession of `key` — by MACing a server-issued nonce,
/// never by sending the key — yields the subject
/// `method:subject_name`, e.g. `globus:/O=NotreDame/CN=alice`: the
/// same free-form subject shape the paper's ACL examples use.
#[derive(Clone)]
pub struct KeyCredential {
    /// Method label the subject is formed under (`globus`, `kerberos`).
    pub method: String,
    /// Identity granted on successful proof of possession.
    pub subject_name: String,
    /// The secret key bytes (never sent on the wire).
    pub key: Vec<u8>,
}

impl std::fmt::Debug for KeyCredential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyCredential")
            .field("method", &self.method)
            .field("subject_name", &self.subject_name)
            .field("key_id", &key_fingerprint(&self.key))
            .finish()
    }
}

/// The server's registered credentials: a shared, rotatable ring.
///
/// Cloning a `KeyRing` clones the *handle*, not the contents, so a
/// test (or an operator task) holding the same ring as a running
/// server can rotate keys under live connections — in-flight
/// handshakes resolve against whatever the ring holds at
/// verification time, and rotated-out keys stop verifying
/// immediately.
#[derive(Debug, Clone, Default)]
pub struct KeyRing {
    inner: Arc<RwLock<Vec<KeyCredential>>>,
}

impl KeyRing {
    /// An empty ring.
    pub fn new() -> KeyRing {
        KeyRing::default()
    }

    /// Register a credential. The key's public id is its
    /// [`key_fingerprint`]; clients present that id with their MAC so
    /// the server can select the credential without a trial pass.
    pub fn register(&self, method: &str, subject_name: &str, key: &[u8]) {
        let mut ring = self.inner.write().expect("keyring poisoned");
        ring.push(KeyCredential {
            method: method.to_string(),
            subject_name: subject_name.to_string(),
            key: key.to_vec(),
        });
    }

    /// Replace the key for `(method, subject_name)` with `new_key`,
    /// changing its fingerprint — the old key stops verifying the
    /// moment this returns. Returns `false` if no such credential is
    /// registered.
    pub fn rotate(&self, method: &str, subject_name: &str, new_key: &[u8]) -> bool {
        let mut ring = self.inner.write().expect("keyring poisoned");
        for cred in ring.iter_mut() {
            if cred.method == method && cred.subject_name == subject_name {
                cred.key = new_key.to_vec();
                return true;
            }
        }
        false
    }

    /// Remove the credential for `(method, subject_name)`. Returns
    /// `false` if none was registered.
    pub fn remove(&self, method: &str, subject_name: &str) -> bool {
        let mut ring = self.inner.write().expect("keyring poisoned");
        let before = ring.len();
        ring.retain(|c| !(c.method == method && c.subject_name == subject_name));
        ring.len() != before
    }

    /// Find the credential registered under `method` whose key
    /// fingerprint is `key_id`.
    pub fn lookup(&self, method: &str, key_id: &str) -> Option<KeyCredential> {
        let ring = self.inner.read().expect("keyring poisoned");
        ring.iter()
            .find(|c| c.method == method && key_fingerprint(&c.key) == key_id)
            .cloned()
    }

    /// Number of registered credentials.
    pub fn len(&self) -> usize {
        self.inner.read().expect("keyring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The one connection-serving core, still named because `bench/` (which
/// this change may not edit) passes it to [`ServerConfig::with_core`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum CoreKind {
    /// Sharded nonblocking event loops multiplexing many connections
    /// per thread.
    Reactor,
}

/// Configuration for a [`crate::FileServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Directory exported as the server root. Existing contents are
    /// exported in place (recursive abstraction: no copies, no
    /// transformation).
    pub root: PathBuf,
    /// Address to bind; use port 0 for an ephemeral port.
    pub bind: SocketAddr,
    /// Human name of the owner, published to catalogs.
    pub owner: String,
    /// Subject patterns with implicit full rights everywhere — the
    /// owner "retains access to all data on that server".
    pub superuser: Vec<String>,
    /// ACL installed at the root directory on startup if none exists.
    pub root_acl: Acl,
    /// Registered challenge–response credentials (see [`KeyRing`]).
    /// The ring is a shared handle: clone it before building the
    /// server to rotate keys while it runs.
    pub keys: KeyRing,
    /// Maps peer IPs to hostnames for the `hostname` method.
    pub hostname_resolver: HostnameResolver,
    /// Directory for `unix` method challenge files; `None` disables the
    /// method. Both client and server must see this directory (it
    /// proves the client shares the local filesystem).
    pub unix_challenge_dir: Option<PathBuf>,
    /// Advertised storage capacity; `STATFS` reports
    /// `free = capacity - bytes currently stored`.
    pub capacity_bytes: u64,
    /// Refuse writes that would exceed `capacity_bytes` with
    /// `NoSpace`, instead of merely advertising the limit. Space-aware
    /// abstractions (GEMS placement, DSFS pools) rely on servers
    /// actually saying no — the Grid3 job failures the paper opens
    /// with were exactly unadvertised full disks.
    pub enforce_capacity: bool,
    /// Maximum descriptors per connection.
    pub max_open_per_connection: usize,
    /// Maximum concurrent connections; further ones are refused.
    pub max_connections: usize,
    /// Drop connections idle longer than this; `None` keeps them
    /// forever. Stuck or abandoned clients otherwise pin a connection
    /// slot indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Catalog addresses to report to (UDP), possibly several — a
    /// server may report to multiple overlapping catalogs.
    pub catalogs: Vec<SocketAddr>,
    /// Interval between catalog reports.
    pub report_interval: Duration,
    /// Server name published to catalogs; defaults to `host:port`.
    pub server_name: Option<String>,
    /// How this server opens its *outbound* connections (`THIRDPUT`
    /// pushes data to another server). TCP by default; the simulation
    /// harness points it at the in-memory network.
    pub dialer: Dialer,
    /// Byte budget for the server-side buffer cache. `None` (the
    /// default) disables caching entirely: every read goes to the
    /// filesystem, bit-identically to pre-cache servers. The paper's
    /// testbed fronted each disk with 512 MB.
    pub cache_bytes: Option<u64>,
    /// Buffer-cache page size in bytes (default 8 KiB — small enough
    /// that cold partial reads stay near the read-through cost).
    pub cache_page_bytes: usize,
    /// Durability-point observer (see [`chirp_proto::persist`]). The
    /// default no-op handle costs one branch per mutation; the crash
    /// harness installs an injector that can kill the server at any
    /// durability point.
    pub persistence: Persist,
    /// Reactor worker (event-loop shard) count; `0` (the default)
    /// sizes from available parallelism, clamped to `2..=8`.
    pub reactor_workers: usize,
    /// Per-connection queued-reply byte cap. A
    /// connection whose untransmitted replies exceed this stops having
    /// further requests read — backpressure for slow readers — until
    /// the queue drains below the cap.
    pub reactor_write_cap: usize,
}

impl ServerConfig {
    /// A localhost configuration exporting `root` on an ephemeral port,
    /// owned by `owner`, with a deny-all root ACL. Tests and examples
    /// layer grants on top.
    pub fn localhost(root: impl Into<PathBuf>, owner: &str) -> ServerConfig {
        ServerConfig {
            root: root.into(),
            bind: "127.0.0.1:0".parse().expect("valid literal"),
            owner: owner.to_string(),
            superuser: Vec::new(),
            root_acl: Acl::new(),
            keys: KeyRing::new(),
            hostname_resolver: Arc::new(default_resolver),
            unix_challenge_dir: None,
            capacity_bytes: 1 << 30,
            enforce_capacity: true,
            max_open_per_connection: 256,
            max_connections: 256,
            idle_timeout: None,
            catalogs: Vec::new(),
            report_interval: Duration::from_secs(300),
            server_name: None,
            dialer: Dialer::tcp(),
            cache_bytes: None,
            cache_page_bytes: 8192,
            persistence: Persist::none(),
            reactor_workers: 0,
            reactor_write_cap: 1 << 20,
        }
    }

    /// Identity: there is one core. Kept until `bench/` stops calling it.
    #[doc(hidden)]
    pub fn with_core(self, _core: CoreKind) -> ServerConfig {
        self
    }

    /// Install a durability-point observer (see
    /// [`ServerConfig::persistence`]).
    pub fn with_persistence(mut self, persistence: Persist) -> ServerConfig {
        self.persistence = persistence;
        self
    }

    /// Enable the buffer cache with a budget of `bytes` (see
    /// [`ServerConfig::cache_bytes`]).
    pub fn with_cache(mut self, bytes: u64) -> ServerConfig {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Set the root ACL installed at startup.
    pub fn with_root_acl(mut self, acl: Acl) -> ServerConfig {
        self.root_acl = acl;
        self
    }

    /// Register a challenge–response key credential.
    pub fn with_key(self, method: &str, subject_name: &str, key: &[u8]) -> ServerConfig {
        self.keys.register(method, subject_name, key);
        self
    }

    /// Grant a subject pattern implicit full rights (the owner role).
    pub fn with_superuser(mut self, pattern: &str) -> ServerConfig {
        self.superuser.push(pattern.to_string());
        self
    }

    /// Report to a catalog at `addr` every `interval`.
    pub fn with_catalog(mut self, addr: SocketAddr, interval: Duration) -> ServerConfig {
        self.catalogs.push(addr);
        self.report_interval = interval;
        self
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("root", &self.root)
            .field("bind", &self.bind)
            .field("owner", &self.owner)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("catalogs", &self.catalogs)
            .finish_non_exhaustive()
    }
}

/// Default hostname resolver: loopback becomes `localhost`, everything
/// else is named by its address.
pub fn default_resolver(ip: IpAddr) -> String {
    if ip.is_loopback() {
        "localhost".to_string()
    } else {
        ip.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localhost_defaults_are_sane() {
        let cfg = ServerConfig::localhost("/tmp/x", "alice");
        assert_eq!(cfg.owner, "alice");
        assert_eq!(cfg.bind.port(), 0);
        assert!(cfg.root_acl.entries().is_empty());
        assert!(cfg.max_open_per_connection > 0);
    }

    #[test]
    fn default_resolver_names_loopback() {
        assert_eq!(default_resolver("127.0.0.1".parse().unwrap()), "localhost");
        assert_eq!(default_resolver("10.1.2.3".parse().unwrap()), "10.1.2.3");
    }

    #[test]
    fn builders_accumulate() {
        let cfg = ServerConfig::localhost("/tmp/x", "o")
            .with_key("globus", "/O=ND/CN=a", b"k3y-material")
            .with_superuser("unix:owner")
            .with_catalog("127.0.0.1:9097".parse().unwrap(), Duration::from_secs(5));
        assert_eq!(cfg.keys.len(), 1);
        assert_eq!(cfg.superuser.len(), 1);
        assert_eq!(cfg.catalogs.len(), 1);
        assert_eq!(cfg.report_interval, Duration::from_secs(5));
    }

    #[test]
    fn keyring_is_a_shared_handle() {
        let ring = KeyRing::new();
        let cfg = ServerConfig::localhost("/tmp/x", "o");
        let cfg = ServerConfig {
            keys: ring.clone(),
            ..cfg
        };
        ring.register("globus", "/O=ND/CN=a", b"first");
        assert_eq!(cfg.keys.len(), 1);

        let id = key_fingerprint(b"first");
        assert!(cfg.keys.lookup("globus", &id).is_some());
        assert!(cfg.keys.lookup("kerberos", &id).is_none());

        // Rotation changes the fingerprint through every handle.
        assert!(ring.rotate("globus", "/O=ND/CN=a", b"second"));
        assert!(cfg.keys.lookup("globus", &id).is_none());
        assert!(cfg
            .keys
            .lookup("globus", &key_fingerprint(b"second"))
            .is_some());

        assert!(ring.remove("globus", "/O=ND/CN=a"));
        assert!(cfg.keys.is_empty());
        assert!(!ring.rotate("globus", "/O=ND/CN=a", b"third"));
    }
}
