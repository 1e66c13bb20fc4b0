//! The server-side buffer cache: sharded, page-granular CLOCK.
//!
//! The paper's testbed model assumes every server fronts its disk
//! with an LRU buffer cache (§7), and `simnet` simulates one; this
//! module is the real thing. Fixed-size pages are keyed by
//! `(device, inode, page index)`, the byte budget is split across
//! shards so concurrent connection threads don't serialize on one
//! lock, and a hit hands back `Arc`'d pages the reply path writes
//! straight to the socket — zero disk I/O, at most one copy.
//!
//! Eviction is CLOCK (second chance), approximating `simnet`'s LRU:
//! a hit only sets its page's `referenced` bit, and a full shard's
//! hand clears set bits until it meets a page without one.
//!
//! Coherence rules (all enforced here, validated by the differential
//! oracle replaying seeded op mixes with the cache on):
//!
//! * **Write-through, write-no-allocate.** `PWRITE` goes to disk
//!   first, then patches any *resident* pages in place; it never
//!   populates absent ones. The host filesystem stays the single
//!   durable truth, so crash semantics and out-of-band inspection
//!   (the recursive-abstraction property) are unchanged.
//! * **Zero-tail invariant.** Bytes of a page buffer beyond its
//!   `valid` length are always zero, so sparse growth (pwrite past
//!   EOF, truncate up) extends `valid` without touching memory.
//! * **Fill/write race.** A reader loads a page from disk without
//!   holding any shard lock. A per-file *epoch* (striped atomics)
//!   is bumped by every mutation after it hits disk and before it
//!   patches resident pages; the reader samples the epoch before
//!   its disk read and discards the insert if it changed.
//! * **Inode reuse.** `UNLINK` (and a clobbering `RENAME`) drops the
//!   file's pages and *dooms* its [`FileState`]: descriptors still
//!   open keep reading through to disk but never repopulate the
//!   cache, so when the inode number is recycled by a later create
//!   no stale pages can be attributed to the new file.

use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use chirp_proto::{ChirpError, ChirpResult};
use telemetry::{Counter, Gauge, Registry};

/// Identity of a host file: `(device, inode)`. Stable across all
/// descriptors and paths naming the same file.
pub type FileKey = (u64, u64);

/// The [`FileKey`] of a path's attributes, as the export's `stat`
/// reports them: the same pair [`file_key`] takes from an open's
/// `fstat`.
pub fn stat_key(st: &chirp_proto::StatBuf) -> FileKey {
    (st.device, st.inode)
}

/// The [`FileKey`] of host metadata.
pub fn file_key(meta: &std::fs::Metadata) -> FileKey {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        (meta.dev(), meta.ino())
    }
    #[cfg(not(unix))]
    {
        compile_error!("chirp-server requires a unix host");
    }
}

/// Shared per-inode bookkeeping: the authoritative current size
/// (maintained by every mutating handler, so the hot write path makes
/// zero `fstat` calls) and the doomed flag (see module docs).
#[derive(Debug, Default)]
pub struct FileState {
    /// Current file size in bytes.
    pub size: AtomicU64,
    /// Set at unlink: never cache pages for this incarnation again.
    pub doomed: AtomicBool,
}

/// Maps live inodes to their shared [`FileState`]. Entries hold
/// [`Weak`] references — when the last descriptor on an inode closes,
/// the state drops and the entry goes stale, which is exactly the
/// point at which the kernel may recycle the inode number.
#[derive(Debug, Default)]
pub struct SizeTable {
    inner: Mutex<HashMap<FileKey, Weak<FileState>>>,
}

/// Dead-entry sweep threshold: past this many entries, a lookup first
/// drops stale `Weak`s so the table tracks open files, not history.
const SIZE_TABLE_SWEEP: usize = 4096;

impl SizeTable {
    /// A fresh, empty table.
    pub fn new() -> SizeTable {
        SizeTable::default()
    }

    /// The shared state for `key`, creating it at `size` if no open
    /// descriptor already tracks the inode. An existing live entry
    /// wins — it is maintained by every mutation path, while `size`
    /// is merely a point-in-time `fstat`.
    pub fn track(&self, key: FileKey, size: u64) -> Arc<FileState> {
        let mut map = self.inner.lock().expect("size table poisoned");
        if map.len() > SIZE_TABLE_SWEEP {
            map.retain(|_, w| w.strong_count() > 0);
        }
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            return live;
        }
        let state = Arc::new(FileState {
            size: AtomicU64::new(size),
            ..FileState::default()
        });
        map.insert(key, Arc::downgrade(&state));
        state
    }

    /// Update the tracked size of `key`, if any descriptor holds it.
    /// Path-level mutations (`TRUNCATE`, `PUTFILE`) call this so
    /// descriptors open on the same inode stay coherent.
    pub fn set_size(&self, key: FileKey, size: u64) {
        let map = self.inner.lock().expect("size table poisoned");
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            live.size.store(size, Ordering::Relaxed);
        }
    }

    /// Mark `key`'s current incarnation doomed (unlinked): open
    /// descriptors keep working but stop populating the cache.
    pub fn doom(&self, key: FileKey) {
        let map = self.inner.lock().expect("size table poisoned");
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            live.doomed.store(true, Ordering::Relaxed);
        }
    }
}

/// One cached page: an immutable-unless-exclusive buffer plus the
/// byte range of it a reply should send.
#[derive(Debug, Clone)]
pub struct PageSlice {
    page: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl PageSlice {
    /// The bytes this slice contributes to the reply.
    pub fn as_slice(&self) -> &[u8] {
        &self.page[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A scatter-gather read reply: `total` bytes spread over page
/// slices, written to the socket without re-assembly.
#[derive(Debug, Default)]
pub struct PageReply {
    total: usize,
    slices: Vec<PageSlice>,
}

impl PageReply {
    /// Total bytes across all slices (the reply's status value).
    pub fn total(&self) -> usize {
        self.total
    }

    /// The slices, in file order.
    pub fn slices(&self) -> &[PageSlice] {
        &self.slices
    }

    /// The slices by value, in file order, for a sender that queues
    /// them one by one.
    pub fn into_slices(self) -> Vec<PageSlice> {
        self.slices
    }
}

#[derive(Debug)]
struct Entry {
    data: Arc<Vec<u8>>,
    /// Bytes of `data` that mirror the file; the rest are zero. Only
    /// the file's last page may be partially valid.
    valid: usize,
    /// This page's index in its shard's `ring`.
    slot: usize,
    /// Read since the hand last passed.
    referenced: bool,
}

impl Entry {
    /// A hit. The bit is written only when clear, so a page that
    /// keeps being read keeps its cache line clean.
    fn touch(&mut self) {
        if !self.referenced {
            self.referenced = true;
        }
    }
}

/// A multiply-mix hasher for the page maps. The std default (SipHash)
/// costs as much as the rest of a cache hit combined, and its DoS
/// resistance buys nothing here: keys are inode numbers and page
/// indices, not attacker-chosen strings.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<(FileKey, u64), Entry, std::hash::BuildHasherDefault<PageHasher>>;

#[derive(Debug, Default)]
struct Shard {
    map: PageMap,
    /// The resident page keys, in no order but the hand's.
    ring: Vec<(FileKey, u64)>,
    /// The next slot the hand looks at.
    hand: usize,
}

impl Shard {
    /// Advance the hand, clearing `referenced` bits, to the first
    /// page that has none; return its slot, with the hand past it.
    fn victim(&mut self) -> usize {
        loop {
            let slot = self.hand % self.ring.len();
            self.hand = slot + 1;
            let entry = self.map.get_mut(&self.ring[slot]);
            if !std::mem::take(&mut entry.expect("ring key resident").referenced) {
                return slot;
            }
        }
    }

    fn remove(&mut self, key: (FileKey, u64)) {
        let slot = self.map.remove(&key).expect("ring key resident").slot;
        self.ring.swap_remove(slot);
        if let Some(moved) = self.ring.get(slot) {
            self.map.get_mut(moved).expect("ring key resident").slot = slot;
        }
    }
}

/// Epoch stripes: plenty for the handful of connection threads a
/// personal server runs, small enough to be cache-resident itself.
const EPOCH_STRIPES: usize = 256;

/// The sharded page cache. One per server, owned by
/// [`crate::server::Shared`].
#[derive(Debug)]
pub struct PageCache {
    page: usize,
    /// Page budget per shard.
    shard_budget: u64,
    shards: Vec<Mutex<Shard>>,
    epochs: Vec<AtomicU64>,
    /// Single reads larger than this skip the cache entirely, so one
    /// oversized scan cannot evict the working set.
    bypass_bytes: u64,
    hits: Counter,
    misses: Counter,
    evicted: Counter,
    invalidated: Counter,
    bytes_from_cache: Counter,
    resident: Gauge,
}

impl PageCache {
    /// A cache budgeted at `capacity` bytes of `page`-byte pages,
    /// registering its counters (`cache.*`) on `registry`.
    pub fn new(capacity: u64, page: usize, registry: &Registry) -> PageCache {
        let page = page.max(512);
        let total_pages = (capacity / page as u64).max(1);
        // Shard only when each shard still holds a useful number of
        // pages; a pathological 2-page cache collapses to one shard.
        let shards = (total_pages / 4).clamp(1, 8) as usize;
        PageCache {
            page,
            shard_budget: (total_pages / shards as u64).max(1),
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            epochs: (0..EPOCH_STRIPES).map(|_| AtomicU64::new(0)).collect(),
            bypass_bytes: (capacity / 2).max(page as u64),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evicted: registry.counter("cache.evicted_pages"),
            invalidated: registry.counter("cache.invalidated_pages"),
            bytes_from_cache: registry.counter("cache.bytes_from_cache"),
            resident: registry.gauge("cache.resident_bytes"),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page
    }

    /// Should a single read of `len` bytes skip the cache?
    pub fn bypass(&self, len: u64) -> bool {
        len > self.bypass_bytes
    }

    fn hash(key: FileKey, idx: u64) -> u64 {
        // Fibonacci-style mix; no dependency on the std hasher's
        // per-process randomization, so shard placement is stable.
        let mut h = key.0 ^ key.1.rotate_left(32) ^ idx;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }

    fn shard_for(&self, key: FileKey, idx: u64) -> &Mutex<Shard> {
        &self.shards[(Self::hash(key, idx) % self.shards.len() as u64) as usize]
    }

    fn epoch_cell(&self, key: FileKey) -> &AtomicU64 {
        &self.epochs[(Self::hash(key, u64::MAX) % EPOCH_STRIPES as u64) as usize]
    }

    /// Bump `key`'s epoch: call after a mutation reaches disk and
    /// before resident pages are patched, so concurrent cache fills
    /// that read stale bytes discard themselves.
    fn bump_epoch(&self, key: FileKey) {
        self.epoch_cell(key).fetch_add(1, Ordering::Release);
    }

    /// Cache a page read from disk while `key`'s epoch was `epoch`.
    /// The epoch is checked under the shard lock: a mutation that
    /// bumps it later patches or drops this page after we unlock.
    fn insert(&self, key: FileKey, idx: u64, data: Arc<Vec<u8>>, valid: usize, epoch: u64) {
        let mut guard = self.shard_for(key, idx).lock().expect("shard poisoned");
        if self.epoch_cell(key).load(Ordering::Acquire) != epoch {
            return;
        }
        let shard = &mut *guard;
        if shard.map.contains_key(&(key, idx)) {
            // A racing reader filled it first, from the same disk bytes.
            return;
        }
        let slot = if shard.ring.len() as u64 >= self.shard_budget {
            let slot = shard.victim();
            let victim = std::mem::replace(&mut shard.ring[slot], (key, idx));
            shard.map.remove(&victim);
            self.evicted.inc();
            slot
        } else {
            shard.ring.push((key, idx));
            self.resident.adjust(self.page as i64);
            shard.ring.len() - 1
        };
        let entry = Entry {
            data,
            valid,
            slot,
            referenced: false,
        };
        shard.map.insert((key, idx), entry);
    }

    /// Serve `length` bytes at `offset` from a file of `size` bytes,
    /// filling missing pages from `file`. `allow_insert` is false for
    /// doomed incarnations (see module docs): reads still work, the
    /// cache just stays empty.
    pub fn read(
        &self,
        file: &File,
        key: FileKey,
        offset: u64,
        length: usize,
        size: u64,
        allow_insert: bool,
    ) -> ChirpResult<PageReply> {
        let end = (offset + length as u64).min(size);
        if offset >= end {
            return Ok(PageReply::default());
        }
        let page = self.page as u64;
        let first = offset / page;
        let last = (end - 1) / page;
        let mut slices = Vec::with_capacity((last - first + 1) as usize);
        // Hits are added up and counted once per read: two shared
        // atomics per page cost more than the rest of a hit.
        let (mut hits, mut hit_bytes) = (0, 0);
        let filled = (first..=last).try_for_each(|idx| {
            let page_off = idx * page;
            let s = (offset.max(page_off) - page_off) as usize;
            let e = (end.min(page_off + page) - page_off) as usize;
            // Bytes of this page the file actually backs.
            let want = (size - page_off).min(page) as usize;
            let cached = {
                let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
                match shard.map.get_mut(&(key, idx)) {
                    Some(entry) if entry.valid >= e => {
                        entry.touch();
                        Some(entry.data.clone())
                    }
                    _ => None,
                }
            };
            let data = match cached {
                Some(data) => {
                    hits += 1;
                    hit_bytes += (e - s) as u64;
                    data
                }
                None => {
                    self.misses.inc();
                    let epoch = self.epoch_cell(key).load(Ordering::Acquire);
                    let mut buf = vec![0u8; self.page];
                    let got = read_at(file, &mut buf[..want], page_off)?;
                    // A shorter-than-expected read means the file
                    // changed under us (tracked size ran ahead of a
                    // racing truncate); serve what the disk has and
                    // skip the insert — the epoch moved anyway.
                    let data = Arc::new(buf);
                    if allow_insert && got == want {
                        self.insert(key, idx, data.clone(), want, epoch);
                    }
                    data
                }
            };
            slices.push(PageSlice {
                page: data,
                start: s,
                end: e,
            });
            Ok(())
        });
        if hits > 0 {
            self.hits.add(hits);
            self.bytes_from_cache.add(hit_bytes);
        }
        filled?;
        Ok(PageReply {
            total: (end - offset) as usize,
            slices,
        })
    }

    /// Write-through patch: `data` has reached disk at `offset`;
    /// update any resident pages. `old_size` is the file size before
    /// the write, for the old-EOF-page fixup (a page that was the
    /// partial last page becomes fully valid when the file grows past
    /// it — the gap bytes are zero on disk and in the buffer alike).
    pub fn write_through(&self, key: FileKey, offset: u64, data: &[u8], old_size: u64) {
        if data.is_empty() {
            return;
        }
        self.bump_epoch(key);
        let page = self.page as u64;
        let end = offset + data.len() as u64;
        for idx in offset / page..=(end - 1) / page {
            let page_off = idx * page;
            let s = (offset.max(page_off) - page_off) as usize;
            let e = (end.min(page_off + page) - page_off) as usize;
            let src = (page_off + s as u64 - offset) as usize;
            let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
            if let Some(entry) = shard.map.get_mut(&(key, idx)) {
                // A reply in flight may still hold this page; give it
                // its own copy rather than mutating what it reads.
                let buf = Arc::make_mut(&mut entry.data);
                buf[s..e].copy_from_slice(&data[src..src + (e - s)]);
                entry.valid = entry.valid.max(e);
                entry.touch();
            }
        }
        self.grow(key, old_size, end);
    }

    /// The file grew from `old_size` to `new_size`: its old partial
    /// last page is now backed up to the page end (or the new EOF) by
    /// a zero-filled gap, which the zero-tail invariant already holds.
    fn grow(&self, key: FileKey, old_size: u64, new_size: u64) {
        let page = self.page as u64;
        if new_size <= old_size || old_size.is_multiple_of(page) {
            return;
        }
        let idx = old_size / page;
        let new_valid = (new_size - idx * page).min(page) as usize;
        let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
        if let Some(entry) = shard.map.get_mut(&(key, idx)) {
            entry.valid = entry.valid.max(new_valid);
        }
    }

    /// The file was truncated on disk from `old_size` to `new_size`:
    /// drop pages past the new EOF, zero the boundary page's tail
    /// (re-establishing the zero-tail invariant so a later extension
    /// reads back zeros), or extend the old last page on growth.
    pub fn truncate(&self, key: FileKey, old_size: u64, new_size: u64) {
        if old_size == new_size {
            return;
        }
        self.bump_epoch(key);
        if new_size > old_size {
            return self.grow(key, old_size, new_size);
        }
        let page = self.page as u64;
        self.drop_pages(key, new_size.div_ceil(page));
        if !new_size.is_multiple_of(page) {
            let idx = new_size / page;
            let new_valid = (new_size % page) as usize;
            let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
            if let Some(entry) = shard.map.get_mut(&(key, idx)) {
                if entry.valid > new_valid {
                    Arc::make_mut(&mut entry.data)[new_valid..entry.valid].fill(0);
                    entry.valid = new_valid;
                }
            }
        }
    }

    /// Drop every page of `key` (unlink, clobbering rename, putfile).
    pub fn invalidate(&self, key: FileKey) {
        self.bump_epoch(key);
        self.drop_pages(key, 0);
    }

    /// Drop `key`'s pages from index `first` on.
    fn drop_pages(&self, key: FileKey, first: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            let doomed: Vec<(FileKey, u64)> = shard
                .ring
                .iter()
                .filter(|&&(k, idx)| k == key && idx >= first)
                .copied()
                .collect();
            for &k in &doomed {
                shard.remove(k);
            }
            if !doomed.is_empty() {
                self.invalidated.add(doomed.len() as u64);
                self.resident.adjust(-((doomed.len() * self.page) as i64));
            }
        }
    }

    /// Resident bytes right now (for tests and `tss-top`).
    pub fn resident_bytes(&self) -> i64 {
        self.resident.get()
    }
}

fn read_at(file: &File, buf: &mut [u8], offset: u64) -> ChirpResult<usize> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let mut filled = 0;
        while filled < buf.len() {
            match file.read_at(&mut buf[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ChirpError::from_io(&e)),
            }
        }
        Ok(filled)
    }
    #[cfg(not(unix))]
    {
        compile_error!("chirp-server requires a unix host");
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the cache's tests stand in for the descriptors an open would hand it"
)]
mod tests {
    use super::*;
    use chirp_proto::testutil::TempDir;
    use proptest::prelude::*;

    fn open(dir: &TempDir, name: &str, content: &[u8]) -> (File, FileKey, u64) {
        let path = dir.path().join(name);
        std::fs::write(&path, content).unwrap();
        let file = File::open(&path).unwrap();
        let meta = file.metadata().unwrap();
        (file, file_key(&meta), meta.len())
    }

    fn collect(reply: &PageReply) -> Vec<u8> {
        let mut out = Vec::new();
        for s in reply.slices() {
            out.extend_from_slice(s.as_slice());
        }
        assert_eq!(out.len(), reply.total());
        out
    }

    fn content(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn read_spans_pages_and_hits_on_reread() {
        let dir = TempDir::new();
        let data = content(3000);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        let r = cache.read(&file, key, 100, 2500, size, true).unwrap();
        assert_eq!(collect(&r), data[100..2600]);
        assert_eq!(cache.misses.get(), 3);
        let r = cache.read(&file, key, 0, 3000, size, true).unwrap();
        assert_eq!(collect(&r), data);
        assert_eq!(cache.hits.get(), 3, "all three pages now resident");
        assert_eq!(cache.resident_bytes(), 3 * 1024);
    }

    #[test]
    fn read_clamps_at_eof() {
        let dir = TempDir::new();
        let data = content(1500);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        let r = cache.read(&file, key, 1000, 9999, size, true).unwrap();
        assert_eq!(collect(&r), data[1000..]);
        assert!(collect(&cache.read(&file, key, 1500, 10, size, true).unwrap()).is_empty());
        assert!(collect(&cache.read(&file, key, 99999, 10, size, true).unwrap()).is_empty());
    }

    #[test]
    fn two_page_cache_evicts_lru() {
        let dir = TempDir::new();
        let data = content(8192);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(2 * 1024, 1024, &Registry::new());
        assert_eq!(cache.shards.len(), 1, "tiny cache must not shard");
        for i in 0..8 {
            let r = cache.read(&file, key, i * 1024, 1024, size, true).unwrap();
            assert_eq!(collect(&r), data[i as usize * 1024..][..1024]);
        }
        assert_eq!(cache.evicted.get(), 6);
        assert!(cache.resident_bytes() <= 2 * 1024);
        // Page 7 is resident; page 0 is long gone.
        cache.read(&file, key, 7 * 1024, 1024, size, true).unwrap();
        assert_eq!(cache.misses.get(), 8);
        cache.read(&file, key, 0, 1024, size, true).unwrap();
        assert_eq!(cache.misses.get(), 9);
    }

    #[test]
    fn clock_gives_a_referenced_page_a_second_chance() {
        let dir = TempDir::new();
        let data = content(8 * 1024);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(3 * 1024, 1024, &Registry::new());
        assert_eq!(cache.shards.len(), 1);
        let read = |i: u64| cache.read(&file, key, i * 1024, 1024, size, true).unwrap();
        let resident = |i: u64| cache.shards[0].lock().unwrap().map.contains_key(&(key, i));
        for i in 0..3 {
            read(i); // A, B, C
        }
        read(0); // hit A
        assert_eq!(cache.hits.get(), 1);
        read(3); // D: the hand spares A, clearing its bit, and takes B
        assert_eq!(cache.evicted.get(), 1);
        assert!(resident(0) && !resident(1) && resident(2) && resident(3));
        // With nothing read again, a scan evicts in the order the pages
        // entered, A counting from its second chance: C, A, D, E.
        for (i, gone) in [(4, 2), (5, 0), (6, 3), (7, 4)] {
            read(i);
            assert!(!resident(gone), "page {i} should evict page {gone}");
            assert!(resident(i - 1) && resident(i));
        }
        assert_eq!(cache.evicted.get(), 5);
        assert_eq!(cache.hits.get(), 1);
    }

    #[test]
    fn write_through_patches_resident_pages() {
        let dir = TempDir::new();
        let data = content(2048);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        cache.read(&file, key, 0, 2048, size, true).unwrap();
        let patch = vec![0xAB; 600];
        cache.write_through(key, 700, &patch, size);
        let mut expect = data.clone();
        expect[700..1300].copy_from_slice(&patch);
        // Disk is stale in this unit test; a hit must come from the
        // patched pages, proving the patch (the real handler writes
        // disk first).
        let r = cache.read(&file, key, 0, 2048, size, true).unwrap();
        assert_eq!(collect(&r), expect);
        assert_eq!(cache.misses.get(), 2, "no refill after patch");
    }

    #[test]
    fn sparse_write_extends_the_old_eof_page_with_zeros() {
        let dir = TempDir::new();
        let data = content(600); // partial first page, valid=600
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        cache.read(&file, key, 0, 600, size, true).unwrap();
        // Write far past EOF: bytes 600..2000 are a zero gap.
        cache.write_through(key, 2000, &[7; 48], 600);
        let new_size = 2048;
        let r = cache.read(&file, key, 0, 1024, new_size, true).unwrap();
        let mut expect = data.clone();
        expect.resize(1024, 0);
        assert_eq!(collect(&r), expect, "gap reads back as zeros");
        assert_eq!(cache.misses.get(), 1, "page 0 stayed valid");
    }

    #[test]
    fn truncate_down_zeroes_the_boundary_tail() {
        let dir = TempDir::new();
        let data = content(2048);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        cache.read(&file, key, 0, 2048, size, true).unwrap();
        cache.truncate(key, 2048, 300);
        assert_eq!(cache.invalidated.get(), 1, "page 1 dropped");
        // Extend again: bytes 300..  must read back zero, even though
        // the cached page still holds the old bytes physically.
        cache.truncate(key, 300, 1024);
        let r = cache.read(&file, key, 0, 1024, 1024, true).unwrap();
        let mut expect = data[..300].to_vec();
        expect.resize(1024, 0);
        assert_eq!(collect(&r), expect);
        assert_eq!(cache.misses.get(), 2, "boundary page reused, not refilled");
    }

    #[test]
    fn invalidate_drops_every_page() {
        let dir = TempDir::new();
        let data = content(4096);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        cache.read(&file, key, 0, 4096, size, true).unwrap();
        assert_eq!(cache.resident_bytes(), 4096);
        cache.invalidate(key);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.invalidated.get(), 4);
    }

    #[test]
    fn doomed_reads_serve_but_never_populate() {
        let dir = TempDir::new();
        let data = content(1024);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        let r = cache.read(&file, key, 0, 1024, size, false).unwrap();
        assert_eq!(collect(&r), data);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_coherent() {
        // Hammer one file from reader and writer threads; the cache
        // must end exactly mirroring the final disk contents.
        let dir = TempDir::new();
        let path = dir.path().join("f");
        std::fs::write(&path, content(8192)).unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let key = file_key(&file.metadata().unwrap());
        let cache = PageCache::new(4 * 1024, 1024, &Registry::new());
        std::thread::scope(|s| {
            // Drops pages while readers insert and evict, so the ring's
            // swap-removes race its fills and its hand.
            s.spawn(|| {
                for _ in 0..500 {
                    cache.invalidate(key);
                    std::thread::yield_now();
                }
            });
            for t in 0..4u64 {
                let cache = &cache;
                let file = &file;
                s.spawn(move || {
                    use std::os::unix::fs::FileExt;
                    let mut rng = t * 2654435761 + 1;
                    for _ in 0..500 {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let off = rng % 7000;
                        if rng % 3 == 0 {
                            let buf = [(rng % 256) as u8; 512];
                            file.write_all_at(&buf, off).unwrap();
                            cache.write_through(key, off, &buf, 8192);
                        } else {
                            cache.read(file, key, off, 1024, 8192, true).unwrap();
                        }
                    }
                });
            }
        });
        let disk = std::fs::read(&path).unwrap();
        let r = cache.read(&file, key, 0, 8192, 8192, true).unwrap();
        assert_eq!(collect(&r), disk, "cache diverged from disk at rest");
    }

    /// Ring and map name the same pages, each entry's `slot` indexes
    /// its own key, and the resident gauge counts exactly those pages.
    fn check_ring(cache: &PageCache, capacity: u64) {
        let mut pages = 0;
        for shard in &cache.shards {
            let shard = shard.lock().unwrap();
            assert_eq!(shard.ring.len(), shard.map.len());
            assert!(shard.ring.len() as u64 <= cache.shard_budget);
            for (slot, key) in shard.ring.iter().enumerate() {
                assert_eq!(shard.map[key].slot, slot, "{key:?}");
            }
            pages += shard.ring.len() as i64;
        }
        assert_eq!(cache.resident_bytes(), pages * cache.page as i64);
        assert!(cache.resident_bytes() as u64 <= capacity);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64, usize),
        Write(u64, usize, u8),
        Truncate(u64),
        Invalidate,
    }

    const PAGE: usize = 512;
    const SPAN: u64 = 40 * PAGE as u64;

    /// Reads half the time, then writes, truncates and invalidations.
    fn op() -> impl Strategy<Value = Op> {
        (0..8u8, 0..SPAN, 1..3 * PAGE, any::<u8>()).prop_map(|(kind, off, len, byte)| match kind {
            0..=3 => Op::Read(off, 3 * len),
            4 | 5 => Op::Write(off, len, byte),
            6 => Op::Truncate(off),
            _ => Op::Invalidate,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn clock_ring_stays_coherent_with_a_flat_mirror(
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            use std::os::unix::fs::FileExt;
            // One shard of 3 pages, then 8 shards of 4.
            for pages in [3, 32] {
                let capacity = pages * PAGE as u64;
                let dir = TempDir::new();
                let mut mirror = content(SPAN as usize / 2);
                let path = dir.path().join("f");
                std::fs::write(&path, &mirror).unwrap();
                let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
                let key = file_key(&file.metadata().unwrap());
                let cache = PageCache::new(capacity, PAGE, &Registry::new());
                prop_assert_eq!(cache.shards.len(), if pages == 3 { 1 } else { 8 });
                for op in &ops {
                    let size = mirror.len() as u64;
                    match *op {
                        Op::Read(off, len) => {
                            let r = cache.read(&file, key, off, len, size, true).unwrap();
                            let lo = (off as usize).min(mirror.len());
                            let hi = (off as usize + len).min(mirror.len());
                            prop_assert_eq!(collect(&r), &mirror[lo..hi], "{:?}", op);
                        }
                        Op::Write(off, len, byte) => {
                            let buf = vec![byte; len];
                            file.write_all_at(&buf, off).unwrap();
                            cache.write_through(key, off, &buf, size);
                            let end = off as usize + len;
                            if end > mirror.len() {
                                mirror.resize(end, 0);
                            }
                            mirror[off as usize..end].copy_from_slice(&buf);
                        }
                        Op::Truncate(new) => {
                            file.set_len(new).unwrap();
                            cache.truncate(key, size, new);
                            mirror.resize(new as usize, 0);
                        }
                        Op::Invalidate => cache.invalidate(key),
                    }
                    check_ring(&cache, capacity);
                }
            }
        }
    }
}
