//! The durability seam: every point where the system commits state to
//! stable storage announces itself here before mutating anything.
//!
//! The paper's §5 failure-coherence argument is an *ordering* argument:
//! stub-then-data on create, data-then-stub on delete, so that a crash
//! between the two steps leaves a state users can survive (a dangling
//! stub answers "file not found") rather than one they cannot see
//! (unreferenced data). Arguments about orderings of durable writes
//! are only checkable if the durable writes are visible — this module
//! makes them visible.
//!
//! A [`Persist`] handle is threaded through the server handlers and the
//! client-side stub engine the same way [`Dialer`](crate::Dialer) and
//! [`Clock`](crate::Clock) are: production code carries a no-op handle
//! with zero overhead, while the simulation harness installs a
//! [`CrashPoint`] that journals every durability point and — in crash
//! mode — refuses all further durability after a chosen prefix,
//! simulating a process killed at exactly that point. Enumerating every
//! prefix of a run's journal enumerates every crash state the run could
//! have left on disk.
//!
//! The contract for instrumented code: call [`Persist::reached`]
//! **before** performing the mutation, and propagate an error without
//! mutating. A crashed process performs no further writes; code that
//! mutated first would let "dead" processes keep writing.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One kind of durability point: a mutation about to reach stable
/// storage, at the granularity the crash-injection harness kills at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DurabilityPoint {
    /// A file is about to be created (a new directory entry).
    Create,
    /// File bytes are about to be written in place.
    Pwrite,
    /// An explicit flush of file bytes to stable storage.
    Fsync,
    /// A file is about to change length.
    Truncate,
    /// A file's modification time is about to change.
    SetTimes,
    /// A directory entry is about to be atomically renamed.
    Rename,
    /// A directory entry is about to be removed.
    Unlink,
    /// A directory's entry list is about to be flushed.
    DirSync,
    /// Protocol step: a stub is about to become durable in the tree
    /// (create protocol step 2).
    StubWrite,
    /// Protocol step: a stub is about to leave the tree (delete
    /// protocol step 2, or explicit-failure cleanup of step 3).
    StubUnlink,
    /// Protocol step: a data file is about to be created on a file
    /// server (create protocol step 3).
    DataCreate,
    /// Protocol step: a data file is about to be removed from a file
    /// server (delete protocol step 1).
    DataUnlink,
}

impl DurabilityPoint {
    /// Stable lowercase name, used in journals and repro output.
    pub fn as_str(self) -> &'static str {
        match self {
            DurabilityPoint::Create => "create",
            DurabilityPoint::Pwrite => "pwrite",
            DurabilityPoint::Fsync => "fsync",
            DurabilityPoint::Truncate => "truncate",
            DurabilityPoint::SetTimes => "set-times",
            DurabilityPoint::Rename => "rename",
            DurabilityPoint::Unlink => "unlink",
            DurabilityPoint::DirSync => "dirsync",
            DurabilityPoint::StubWrite => "stub-write",
            DurabilityPoint::StubUnlink => "stub-unlink",
            DurabilityPoint::DataCreate => "data-create",
            DurabilityPoint::DataUnlink => "data-unlink",
        }
    }
}

impl fmt::Display for DurabilityPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much of a write reaches stable storage when its durability
/// point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// The full buffer becomes durable; proceed normally.
    Full,
    /// The process dies *mid-write*: exactly this strict prefix of the
    /// buffer reaches stable storage (a torn sector). The caller must
    /// persist the prefix and then fail with [`crash_error`] without
    /// mutating anything else — the rest of the buffer was lost with
    /// the process.
    Torn(usize),
}

/// An observer of durability points.
///
/// Implementations must be cheap: the hook sits on the hot write path.
/// Returning an error means "the process died here" — the caller must
/// not perform the mutation and must propagate the error.
pub trait Persistence: Send + Sync {
    /// A durability point is about to be committed for `path`.
    fn reached(&self, point: DurabilityPoint, path: &str) -> io::Result<()>;

    /// Like [`Persistence::reached`], for a write of `len` bytes whose
    /// durability can be *partial*: a crash injector may answer
    /// [`WriteFate::Torn`], instructing the caller to persist only a
    /// prefix before dying. The default forwards to `reached` — plain
    /// observers never tear writes.
    fn reached_write(
        &self,
        point: DurabilityPoint,
        path: &str,
        _len: usize,
    ) -> io::Result<WriteFate> {
        self.reached(point, path).map(|()| WriteFate::Full)
    }
}

/// A cloneable handle to an optional [`Persistence`] observer.
///
/// The default ([`Persist::none`]) is a no-op whose `reached` inlines
/// to a branch on a `None` — production builds pay one predictable
/// branch per durability point and nothing else.
#[derive(Clone, Default)]
pub struct Persist(Option<Arc<dyn Persistence>>);

impl Persist {
    /// The production handle: observe nothing, never fail.
    pub fn none() -> Persist {
        Persist(None)
    }

    /// A handle around a shared observer.
    pub fn from_arc(p: Arc<dyn Persistence>) -> Persist {
        Persist(Some(p))
    }

    /// Whether an observer is installed. Instrumented code may use this
    /// to skip work (an extra `stat`, a formatted path) that only
    /// exists to feed the observer.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Announce a durability point. An `Err` means the simulated
    /// process died here: do not mutate, propagate.
    #[inline]
    pub fn reached(&self, point: DurabilityPoint, path: &str) -> io::Result<()> {
        match &self.0 {
            None => Ok(()),
            Some(p) => p.reached(point, path),
        }
    }

    /// Announce a write of `len` bytes that the observer may tear (see
    /// [`WriteFate`]). Callers that can persist a prefix — sector-level
    /// writers — use this instead of [`Persist::reached`].
    #[inline]
    pub fn reached_write(
        &self,
        point: DurabilityPoint,
        path: &str,
        len: usize,
    ) -> io::Result<WriteFate> {
        match &self.0 {
            None => Ok(WriteFate::Full),
            Some(p) => p.reached_write(point, path, len),
        }
    }
}

impl fmt::Debug for Persist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Persist")
            .field(&if self.0.is_some() { "observed" } else { "none" })
            .finish()
    }
}

/// Message carried by the error a [`CrashPoint`] returns once its
/// budget is exhausted. Client-side callers can recognize it with
/// [`is_crash`]; across the wire it degrades to a generic I/O error,
/// which is exactly what a killed server looks like to its peer.
pub const CRASH_MSG: &str = "simulated crash: durability halted";

/// The error a dead simulated process returns from every durability
/// point.
pub fn crash_error() -> io::Error {
    io::Error::other(CRASH_MSG)
}

/// Whether an error is the injected crash (only reliable on the side
/// of the wire that hosts the injector).
pub fn is_crash(e: &io::Error) -> bool {
    e.get_ref()
        .map(|inner| inner.to_string().contains(CRASH_MSG))
        .unwrap_or(false)
        || e.to_string().contains(CRASH_MSG)
}

/// One recorded durability point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// What kind of point.
    pub point: DurabilityPoint,
    /// The path (protocol path, host path, or `fd<N>`) it applied to.
    pub path: String,
}

/// An append-only record of durability points: the raw material the
/// crash scheduler enumerates prefixes of.
#[derive(Default)]
pub struct Journal {
    entries: Mutex<Vec<JournalEntry>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Snapshot of all recorded entries, in order.
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.entries.lock().expect("journal lock").clone()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("journal lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything recorded so far.
    pub fn clear(&self) {
        self.entries.lock().expect("journal lock").clear();
    }

    fn push(&self, point: DurabilityPoint, path: &str) {
        self.entries
            .lock()
            .expect("journal lock")
            .push(JournalEntry {
                point,
                path: path.to_string(),
            });
    }
}

impl Persistence for Journal {
    fn reached(&self, point: DurabilityPoint, path: &str) -> io::Result<()> {
        self.push(point, path);
        Ok(())
    }
}

/// The crash injector: journal durability points while armed, and in
/// crash mode refuse every point past a budget — the simulated process
/// is dead and performs no further writes.
///
/// One `CrashPoint` is shared by every instrumented layer of a
/// simulated deployment (server handlers, the metadata filesystem, the
/// stub protocol), so its budget indexes a single global order of
/// durability points. Driving the same seeded workload with budget
/// `k` for every `k` below the full run's journal length enumerates
/// every state a crash could have left on disk.
#[derive(Default)]
pub struct CrashPoint {
    /// Points allowed before the process "dies"; `u64::MAX` = survive.
    budget: AtomicU64,
    /// Points announced since the last [`CrashPoint::arm`].
    count: AtomicU64,
    /// Whether the budget has been exceeded at least once.
    fired: AtomicBool,
    /// Whether points are currently counted and journaled at all.
    armed: AtomicBool,
    /// Partial-sector mode: when the budget lands on a tearable write,
    /// the firing call answers [`WriteFate::Torn`] instead of a plain
    /// crash, leaving a seeded strict prefix of the buffer on disk.
    torn: AtomicBool,
    /// Seed for the torn-prefix draw.
    torn_seed: AtomicU64,
    journal: Journal,
}

impl CrashPoint {
    /// A disarmed injector (everything passes, nothing is recorded)
    /// ready to be shared.
    pub fn new() -> Arc<CrashPoint> {
        Arc::new(CrashPoint::default())
    }

    /// Start counting: clear the journal and allow `budget` points
    /// before dying (`None` = journal everything, never die).
    pub fn arm(&self, budget: Option<u64>) {
        self.journal.clear();
        self.count.store(0, Ordering::SeqCst);
        self.fired.store(false, Ordering::SeqCst);
        self.torn.store(false, Ordering::SeqCst);
        self.budget
            .store(budget.unwrap_or(u64::MAX), Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Like [`CrashPoint::arm`], in partial-sector mode: if the budget
    /// lands on a tearable write, the process dies *mid-write*, leaving
    /// a strict prefix of the buffer (drawn deterministically from
    /// `seed` and the point's index) on stable storage. A budget
    /// landing on a non-write point behaves exactly as under `arm`.
    pub fn arm_torn(&self, budget: Option<u64>, seed: u64) {
        self.arm(budget);
        self.torn_seed.store(seed, Ordering::SeqCst);
        self.torn.store(true, Ordering::SeqCst);
    }

    /// Stop counting; every point passes silently (setup, restart,
    /// and verification traffic must not consume budget).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the budget was exceeded since the last arm.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Durability points successfully committed since the last arm.
    pub fn points(&self) -> u64 {
        self.count
            .load(Ordering::SeqCst)
            .min(self.journal.len() as u64)
    }

    /// The journal of committed points since the last arm.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl Persistence for CrashPoint {
    fn reached(&self, point: DurabilityPoint, path: &str) -> io::Result<()> {
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        let budget = self.budget.load(Ordering::SeqCst);
        let n = self.count.fetch_add(1, Ordering::SeqCst);
        if n >= budget {
            self.fired.store(true, Ordering::SeqCst);
            return Err(crash_error());
        }
        self.journal.push(point, path);
        Ok(())
    }

    fn reached_write(
        &self,
        point: DurabilityPoint,
        path: &str,
        len: usize,
    ) -> io::Result<WriteFate> {
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(WriteFate::Full);
        }
        let budget = self.budget.load(Ordering::SeqCst);
        let n = self.count.fetch_add(1, Ordering::SeqCst);
        if n >= budget {
            // Only the *firing* call tears (later points come from a
            // process that is already dead and writes nothing).
            let first = !self.fired.swap(true, Ordering::SeqCst);
            if first && self.torn.load(Ordering::SeqCst) && len > 0 {
                let seed = self.torn_seed.load(Ordering::SeqCst);
                let k = (splitmix64(seed ^ n) % len as u64) as usize;
                return Ok(WriteFate::Torn(k));
            }
            return Err(crash_error());
        }
        self.journal.push(point, path);
        Ok(WriteFate::Full)
    }
}

/// SplitMix64 — one multiply-xor-shift round, enough to decorrelate
/// per-point torn-prefix draws without an RNG dependency.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_always_passes() {
        let p = Persist::none();
        assert!(!p.is_enabled());
        for _ in 0..10 {
            p.reached(DurabilityPoint::Pwrite, "/x").unwrap();
        }
    }

    #[test]
    fn journal_records_in_order() {
        let j = Journal::new();
        j.reached(DurabilityPoint::StubWrite, "/a").unwrap();
        j.reached(DurabilityPoint::DataCreate, "/vol/a1").unwrap();
        let e = j.entries();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].point, DurabilityPoint::StubWrite);
        assert_eq!(e[1].path, "/vol/a1");
    }

    #[test]
    fn crash_point_dies_at_budget_and_stays_dead() {
        let c = CrashPoint::new();
        c.arm(Some(2));
        c.reached(DurabilityPoint::Create, "/a").unwrap();
        c.reached(DurabilityPoint::Pwrite, "/a").unwrap();
        assert!(!c.fired());
        let err = c.reached(DurabilityPoint::Fsync, "/a").unwrap_err();
        assert!(is_crash(&err), "unexpected error {err}");
        assert!(c.fired());
        // Dead is dead: later points fail too, and are not journaled.
        assert!(c.reached(DurabilityPoint::Unlink, "/b").is_err());
        assert_eq!(c.journal().len(), 2);
        assert_eq!(c.points(), 2);
    }

    #[test]
    fn torn_mode_tears_only_the_firing_write() {
        let c = CrashPoint::new();
        c.arm_torn(Some(1), 42);
        assert_eq!(
            c.reached_write(DurabilityPoint::Pwrite, "/a", 100).unwrap(),
            WriteFate::Full
        );
        let WriteFate::Torn(k) = c
            .reached_write(DurabilityPoint::StubWrite, "/b", 64)
            .unwrap()
        else {
            panic!("firing write in torn mode must tear");
        };
        assert!(k < 64, "torn prefix must be strict");
        // Dead is dead: later writes fail outright, untorn.
        assert!(c.reached_write(DurabilityPoint::Pwrite, "/c", 10).is_err());
        assert!(c.reached(DurabilityPoint::Unlink, "/d").is_err());
        // Same budget and seed draw the same prefix.
        c.arm_torn(Some(1), 42);
        c.reached_write(DurabilityPoint::Pwrite, "/a", 100).unwrap();
        assert_eq!(
            c.reached_write(DurabilityPoint::StubWrite, "/b", 64)
                .unwrap(),
            WriteFate::Torn(k)
        );
        // Plain arm never tears, and zero-length writes cannot tear.
        c.arm(Some(0));
        assert!(c.reached_write(DurabilityPoint::Pwrite, "/e", 10).is_err());
        c.arm_torn(Some(0), 7);
        assert!(c.reached_write(DurabilityPoint::Pwrite, "/f", 0).is_err());
    }

    #[test]
    fn disarmed_injector_neither_counts_nor_fails() {
        let c = CrashPoint::new();
        c.arm(Some(0));
        assert!(c.reached(DurabilityPoint::Create, "/a").is_err());
        c.disarm();
        assert!(c.reached(DurabilityPoint::Create, "/a").is_ok());
        c.arm(None);
        for _ in 0..100 {
            c.reached(DurabilityPoint::Pwrite, "/x").unwrap();
        }
        assert!(!c.fired());
        assert_eq!(c.journal().len(), 100);
    }
}
