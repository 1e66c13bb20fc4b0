//! The per-server telemetry registry and the activity view over it.
//!
//! Every server event is counted once, in the registry; the cells are
//! relaxed atomics — monotonic telemetry, never used for
//! synchronization.

use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::{Counter, Gauge, Histogram, Outcome, Registry, TraceEvent};

/// Per-server observability: a [`Registry`] of per-op request counts,
/// RPC latency histograms, byte counters, and error/ACL-denial
/// counts, plus the registry's trace ring of recent RPCs. Handles are
/// pre-registered at startup so the request loop's cost per RPC is a
/// handful of relaxed atomic adds plus one ring push.
#[derive(Debug)]
pub struct ServerTelemetry {
    registry: Registry,
    ops: BTreeMap<&'static str, Counter>,
    errors: Counter,
    acl_denied: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    latency: Histogram,
    data_latency: Histogram,
    reactor_loops: Counter,
    reactor_wakeups: Counter,
    reactor_writes: Counter,
    reactor_backpressure: Counter,
    reactor_wq_peak: Gauge,
    reactor_shard_slice: Gauge,
    reactor_yields: Counter,
    auth_success: Counter,
    auth_failure: Counter,
    auth_challenge: Counter,
    /// The trace subject of an RPC served before authentication.
    anonymous: Arc<str>,
}

impl Default for ServerTelemetry {
    fn default() -> ServerTelemetry {
        let registry = Registry::new();
        let ops = chirp_proto::message::OP_NAMES
            .iter()
            .map(|op| (*op, registry.counter(&format!("rpc.{op}.count"))))
            .collect();
        ServerTelemetry {
            ops,
            errors: registry.counter("rpc.errors"),
            acl_denied: registry.counter("rpc.acl_denied"),
            bytes_in: registry.counter("rpc.bytes_in"),
            bytes_out: registry.counter("rpc.bytes_out"),
            latency: registry.histogram("rpc.latency_ns"),
            data_latency: registry.histogram("rpc.data.latency_ns"),
            reactor_loops: registry.counter("reactor.loop_iterations"),
            reactor_wakeups: registry.counter("reactor.wakeups"),
            reactor_writes: registry.counter("reactor.writes"),
            reactor_backpressure: registry.counter("reactor.backpressure"),
            reactor_wq_peak: registry.gauge("reactor.wq_peak_bytes"),
            reactor_shard_slice: registry.gauge("reactor.shard_slice_ns"),
            reactor_yields: registry.counter("reactor.yields"),
            auth_success: registry.counter("auth.success"),
            auth_failure: registry.counter("auth.failure"),
            auth_challenge: registry.counter("auth.challenge"),
            anonymous: "-".into(),
            registry,
        }
    }
}

impl ServerTelemetry {
    /// The backing registry (snapshot it for catalog reports).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One reactor event-loop iteration completed.
    pub fn reactor_loop(&self) {
        self.reactor_loops.inc();
    }

    /// One readiness event batch woke a reactor worker.
    pub fn reactor_wakeup(&self, events: u64) {
        self.reactor_wakeups.add(events);
    }

    /// The reactor handed `writes` buffers (plain or vectored) to
    /// sockets that took bytes from them. A reply that fits the socket
    /// is one write, status line and payload together.
    pub fn reactor_writes(&self, writes: u64) {
        self.reactor_writes.add(writes);
    }

    /// A connection hit its queued-reply cap and stopped being read.
    pub fn reactor_backpressure(&self) {
        self.reactor_backpressure.inc();
    }

    /// Track the largest per-connection reply queue seen, in bytes —
    /// the observable ceiling the backpressure cap enforces.
    pub fn reactor_wq_high_water(&self, bytes: u64) {
        self.reactor_wq_peak.raise(bytes as i64);
    }

    /// The scheduler slice a shard runs on, as the kernel reports it
    /// (0: no custom slice, unsupported or refused).
    pub fn reactor_shard_slice(&self, ns: u64) {
        self.reactor_shard_slice.set(ns as i64);
    }

    /// A connection spent its turn's budget and went to the back of
    /// its shard's queue.
    pub fn reactor_yield(&self) {
        self.reactor_yields.inc();
    }

    /// An authentication attempt fixed a subject.
    pub fn auth_success(&self) {
        self.auth_success.inc();
    }

    /// An authentication attempt was refused.
    pub fn auth_failure(&self) {
        self.auth_failure.inc();
    }

    /// An authentication round answered with a challenge (the nonce
    /// of a key handshake or the file path of the `unix` method).
    pub fn auth_challenge(&self) {
        self.auth_challenge.inc();
    }

    /// Record one served RPC.
    pub fn record(
        &self,
        op: &'static str,
        subject: Option<&Arc<str>>,
        dur_ns: u64,
        bytes_in: u64,
        bytes_out: u64,
        error: Option<chirp_proto::ChirpError>,
    ) {
        if let Some(c) = self.ops.get(op) {
            c.inc();
        }
        self.latency.record(dur_ns);
        if matches!(op, "pread" | "pwrite" | "getfile" | "putfile") {
            self.data_latency.record(dur_ns);
        }
        self.bytes_in.add(bytes_in);
        self.bytes_out.add(bytes_out);
        if error.is_some() {
            self.errors.inc();
        }
        if matches!(error, Some(chirp_proto::ChirpError::NotAuthorized)) {
            self.acl_denied.inc();
        }
        self.registry.record_event(TraceEvent {
            op,
            subject: subject.unwrap_or(&self.anonymous).clone(),
            dur_ns,
            bytes: bytes_in + bytes_out,
            outcome: if error.is_none() {
                Outcome::Ok
            } else {
                Outcome::Error
            },
        });
    }
}

/// A server's lifetime activity, published in catalog reports and
/// inspectable in tests: a view over three counters of the server's
/// registry (`server.connections`, `rpc.requests`, `rpc.errors`).
#[derive(Debug)]
pub struct ServerStats {
    connections: Counter,
    requests: Counter,
    errors: Counter,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines received (served or not).
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
}

impl ServerStats {
    /// The view over `registry`. `rpc.errors` is the counter
    /// [`ServerTelemetry::record`] bumps; the other two are bumped
    /// through this view.
    pub fn new(registry: &Registry) -> ServerStats {
        ServerStats {
            connections: registry.counter("server.connections"),
            requests: registry.counter("rpc.requests"),
            errors: registry.counter("rpc.errors"),
        }
    }

    /// Record an accepted connection.
    pub fn connection(&self) {
        self.connections.inc();
    }

    /// Record a received request line.
    pub fn request(&self) {
        self.requests.inc();
    }

    /// Copy the current values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.get(),
            requests: self.requests.get(),
            errors: self.errors.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_a_view_over_the_registry() {
        let t = ServerTelemetry::default();
        let s = ServerStats::new(t.registry());
        s.connection();
        s.request();
        s.request();
        t.record(
            "stat",
            None,
            1,
            0,
            0,
            Some(chirp_proto::ChirpError::NotFound),
        );
        let snap = s.snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        let reg = t.registry().snapshot();
        assert_eq!(reg.counter("server.connections"), Some(1));
        assert_eq!(reg.counter("rpc.requests"), Some(2));
    }

    #[test]
    fn telemetry_records_per_op_counts_latency_and_denials() {
        let t = ServerTelemetry::default();
        let alice: Arc<str> = "unix:alice".into();
        t.record("open", Some(&alice), 1_000, 0, 0, None);
        t.record("pread", Some(&alice), 2_000, 0, 4096, None);
        t.record(
            "open",
            None,
            500,
            0,
            0,
            Some(chirp_proto::ChirpError::NotAuthorized),
        );
        let snap = t.registry().snapshot();
        assert_eq!(snap.counter("rpc.open.count"), Some(2));
        assert_eq!(snap.counter("rpc.pread.count"), Some(1));
        assert_eq!(snap.counter("rpc.errors"), Some(1));
        assert_eq!(snap.counter("rpc.acl_denied"), Some(1));
        assert_eq!(snap.counter("rpc.bytes_out"), Some(4096));
        let h = snap.histogram("rpc.latency_ns").unwrap();
        assert_eq!(h.count, 3);
        let data = snap.histogram("rpc.data.latency_ns").unwrap();
        assert_eq!(data.count, 1);
        // The flight recorder kept all three events, newest last.
        let ring = t.registry().ring().recent();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring[1].op, "pread");
        assert!(Arc::ptr_eq(&ring[1].subject, &alice), "no copy per event");
        assert_eq!(&*ring[2].subject, "-");
        assert_eq!(ring[1].bytes, 4096);
        assert_eq!(ring[2].outcome, telemetry::Outcome::Error);
    }
}
