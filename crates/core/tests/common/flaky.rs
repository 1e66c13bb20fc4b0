//! A retargetable, severable dialer used by the recovery tests to
//! simulate network failures between adapter and file server without
//! touching the server itself.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chirp_proto::transport::{Dial, Dialer, Transport};

/// Dials the current target over TCP, whatever endpoint the client
/// names, and can sever every connection it has opened.
pub struct FlakyDialer {
    endpoint: String,
    target: Mutex<Option<SocketAddr>>,
    live: Mutex<Vec<Box<dyn Transport>>>,
}

impl FlakyDialer {
    /// A dialer reaching `target`.
    pub fn new(target: SocketAddr) -> Arc<FlakyDialer> {
        Arc::new(FlakyDialer {
            endpoint: target.to_string(),
            target: Mutex::new(Some(target)),
            live: Mutex::new(Vec::new()),
        })
    }

    /// The `host:port` endpoint string for clients: the first target,
    /// kept as the name the client knows across retargets.
    pub fn endpoint(&self) -> String {
        self.endpoint.clone()
    }

    /// A [`Dialer`] handle for client configurations.
    pub fn dialer(self: &Arc<Self>) -> Dialer {
        Dialer::from_arc(self.clone())
    }

    /// Sever every connection dialed so far (both directions).
    pub fn drop_connections(&self) {
        for s in self.live.lock().unwrap().drain(..) {
            let _ = s.shutdown();
        }
    }

    /// Point later dials at a different server (or `None` to refuse).
    pub fn set_target(&self, target: Option<SocketAddr>) {
        *self.target.lock().unwrap() = target;
    }
}

impl Dial for FlakyDialer {
    fn dial(&self, _endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        let target = self
            .target
            .lock()
            .unwrap()
            .ok_or_else(|| io::Error::new(io::ErrorKind::ConnectionRefused, "no target"))?;
        let stream = Dialer::tcp().dial(&target.to_string(), timeout)?;
        self.live.lock().unwrap().push(stream.try_clone()?);
        Ok(stream)
    }
}
