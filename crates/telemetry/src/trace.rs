//! Span timing and the per-process flight recorder.
//!
//! Aggregates (histograms) answer "how fast on average"; the trace
//! ring answers "what just happened" — the last few hundred per-RPC
//! events with enough context (op, subject, duration, bytes, outcome)
//! to reconstruct an incident without logs or a debugger attached.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a traced operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The operation succeeded.
    Ok,
    /// The operation returned an error.
    Error,
}

/// One recorded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Operation name (`pread`, `open`, ...).
    pub op: &'static str,
    /// Acting subject (authenticated identity, endpoint, or `-`),
    /// shared with its recorder so an event costs no allocation.
    pub subject: Arc<str>,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes moved (in + out).
    pub bytes: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// A bounded ring of recent [`TraceEvent`]s. Pushes beyond capacity
/// drop the oldest event; the drop total is kept so "how much history
/// have I lost" stays answerable.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace ring poisoned").len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A lightweight span clock: capture [`SpanTimer::start`], then read
/// [`SpanTimer::elapsed_ns`] when the operation resolves. Costs one
/// `Instant::now()` at each end and allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    started: Instant,
}

impl SpanTimer {
    /// Start timing now.
    pub fn start() -> SpanTimer {
        SpanTimer {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since the span started.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str) -> TraceEvent {
        TraceEvent {
            op,
            subject: "-".into(),
            dur_ns: 1,
            bytes: 0,
            outcome: Outcome::Ok,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = TraceRing::new(3);
        for op in ["a", "b", "c", "d", "e"] {
            ring.push(ev(op));
        }
        let ops: Vec<&str> = ring.recent().into_iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["c", "d", "e"]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn span_timer_measures_something() {
        let t = SpanTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.elapsed_ns() >= 1_000_000);
    }
}
