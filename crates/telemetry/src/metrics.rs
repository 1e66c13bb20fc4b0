//! The live metric cells and their registry.
//!
//! Updates are lock-free: a [`Counter`], [`Gauge`], or [`Histogram`]
//! handle is an `Arc` around plain atomics, updated with `Relaxed`
//! RMWs — these are monotonic telemetry, never used for
//! synchronization. Only *registration* (name → handle) takes a
//! mutex, so hot paths fetch their handles once and keep them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{bucket_index, HistogramSnapshot, MetricValue, MetricsSnapshot, NUM_BUCKETS};
use crate::trace::{TraceEvent, TraceRing};

/// A monotonic counter handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time level handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn adjust(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the level to `v` if it is below it — a high-water mark
    /// that concurrent writers can never lower.
    #[inline]
    pub fn raise(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram handle. Cloning shares the cells; one
/// `record` is three relaxed atomic adds.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Copy the current values. Buckets are read individually, so a
    /// snapshot taken under concurrent updates is approximate (counts
    /// may straddle the reads) but never torn within one cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.cells.count.load(Ordering::Relaxed),
            sum: self.cells.sum.load(Ordering::Relaxed),
            ..HistogramSnapshot::default()
        };
        for (i, b) in self.cells.buckets.iter().enumerate() {
            snap.buckets[i] = b.load(Ordering::Relaxed);
        }
        snap
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Inner {
    cells: Mutex<BTreeMap<String, Cell>>,
    ring: TraceRing,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            cells: Mutex::new(BTreeMap::new()),
            ring: TraceRing::new(Registry::DEFAULT_RING_CAPACITY),
        }
    }
}

/// A global-free registry of named metrics plus a trace ring of
/// recent events. Cloning shares the registry; there is deliberately
/// no process-wide singleton — each server, pool, or proxy owns its
/// registry and decides where it is published.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Trace events retained by the built-in ring.
    pub const DEFAULT_RING_CAPACITY: usize = 256;

    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.inner.cells.lock().expect("registry poisoned");
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Counter::default()))
        {
            Cell::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut cells = self.inner.cells.lock().expect("registry poisoned");
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Gauge(Gauge::default()))
        {
            Cell::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram named `name`, registering it empty on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut cells = self.inner.cells.lock().expect("registry poisoned");
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Histogram(Histogram::default()))
        {
            Cell::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The trace ring of recent events.
    pub fn ring(&self) -> &TraceRing {
        &self.inner.ring
    }

    /// Push one event into the trace ring.
    pub fn record_event(&self, event: TraceEvent) {
        self.inner.ring.push(event);
    }

    /// Freeze every registered metric into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.inner.cells.lock().expect("registry poisoned");
        let metrics = cells
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.get()),
                    Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                    Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_with_the_registry() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits").get(), 5);
        let g = reg.gauge("level");
        g.set(9);
        g.adjust(-2);
        assert_eq!(reg.gauge("level").get(), 7);
        let h = reg.histogram("lat");
        h.record(100);
        assert_eq!(reg.histogram("lat").snapshot().count, 1);
    }

    #[test]
    fn snapshot_contains_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.metrics.get("g"), Some(&MetricValue::Gauge(-2)));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn raise_under_threads_never_ends_below_the_maximum() {
        // Every thread raises an interleaved ladder of values; a
        // check-then-set high-water mark can store a smaller value
        // over a larger one, `raise` cannot.
        let g = Gauge::default();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let (g, barrier) = (g.clone(), &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..10_000i64 {
                        g.raise(i * 8 + t);
                    }
                });
            }
        });
        assert_eq!(g.get(), 9_999 * 8 + 7);
        g.raise(3);
        assert_eq!(g.get(), 9_999 * 8 + 7, "raise never lowers");
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = reg.counter("n");
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(reg.counter("n").get(), 8000);
        let snap = reg.histogram("lat").snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8000);
    }
}
