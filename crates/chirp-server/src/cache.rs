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
//! **Admission before eviction.** While a shard has free room every
//! missed page is filled. Once it is full, a missed page is admitted
//! only on its second miss: the shard keeps a *ghost*, a FIFO of the
//! keys (never the bytes) of its last `budget` unadmitted misses, and a
//! miss found there is admitted (the 2Q / TinyLFU doorkeeper). Under
//! reads uniform over four times the cache, any policy that keeps the
//! cache full hits about a quarter of the time, so filling every miss
//! buys no hits and pays for writing cold memory; a page that comes
//! back within a ghost's length is worth its buffer. A set that fits
//! the cache still becomes resident after two passes.
//!
//! A miss is one read: each maximal run of missed pages is fetched by
//! one `preadv`, an admitted page straight into its own fresh buffer,
//! every other missed page into one buffer the reply owns. Both are
//! sent as ordinary [`PageSlice`]s, so no byte is copied twice.
//!
//! Coherence rules (all enforced here, validated by the differential
//! oracle replaying seeded op mixes with the cache on):
//!
//! * **Write-through, write-no-allocate.** `PWRITE` goes to disk
//!   first, then patches any *resident* pages in place; it never
//!   populates absent ones, nor records them in the ghost. The host filesystem stays the single
//!   durable truth, so crash semantics and out-of-band inspection
//!   (the recursive-abstraction property) are unchanged.
//! * **Exact pages.** A page buffer holds exactly the bytes its file
//!   has in that page, so only a file's last page is short and
//!   `cache.resident_bytes` counts data, never padding. Sparse growth
//!   (pwrite past EOF, truncate up) extends the old last page with the
//!   zeros its hole reads as on disk; a truncate down shortens it into
//!   a fresh buffer, so a reply in flight keeps the bytes it took. A
//!   page shorter than the old EOF where growth reaches it (filled
//!   under a size a racing write had already passed) is dropped, not
//!   extended: the bytes it lacks are data on disk, not a hole.
//! * **Fill/write race.** A reader loads a page from disk without
//!   holding any shard lock. A per-file *epoch* (striped atomics)
//!   is bumped by every mutation after it hits disk and before it
//!   patches resident pages; the reader samples the epoch before
//!   its disk read and discards the insert if it changed. A run read
//!   short (the file shrank under it) inserts nothing.
//! * **Inode reuse.** `UNLINK` (and a clobbering `RENAME`) drops the
//!   file's pages and *dooms* its [`FileState`]: descriptors still
//!   open keep reading through to disk but never repopulate the
//!   cache (nor touch the ghost), so when the inode number is recycled
//!   by a later create no stale pages can be attributed to the new
//!   file. A stale ghost key left by such a file can only admit a page
//!   read fresh from disk; the ghost never serves bytes.

use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use chirp_proto::{ChirpError, ChirpResult};
use telemetry::{Counter, Gauge, Registry};

/// Identity of a host file: `(device, inode)`. Stable across all
/// descriptors and paths naming the same file.
pub type FileKey = (u64, u64);

/// The [`FileKey`] of a file's attributes, as the export's `stat` or
/// `open_stat` reports them: the key of every descriptor and path.
pub fn stat_key(st: &chirp_proto::StatBuf) -> FileKey {
    (st.device, st.inode)
}

/// The [`FileKey`] of host metadata, for a caller that holds the host
/// file itself; the same pair [`stat_key`] takes from its attributes.
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
    inner: Mutex<Sizes>,
}

#[derive(Debug, Default)]
struct Sizes {
    map: HashMap<FileKey, Weak<FileState>>,
    /// Twice the entries the last sweep kept, so a sweep's cost is
    /// spread over at least as many calls as entries it keeps.
    sweep_at: usize,
}

/// Dead-entry sweep threshold: past this many entries (and past twice
/// what the last sweep kept), a lookup first drops stale `Weak`s so the
/// table tracks open files, not history.
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
        let mut sizes = self.inner.lock().expect("size table poisoned");
        if sizes.map.len() > sizes.sweep_at.max(SIZE_TABLE_SWEEP) {
            sizes.map.retain(|_, w| w.strong_count() > 0);
            sizes.sweep_at = 2 * sizes.map.len();
        }
        if let Some(live) = sizes.map.get(&key).and_then(Weak::upgrade) {
            return live;
        }
        let state = Arc::new(FileState {
            size: AtomicU64::new(size),
            ..FileState::default()
        });
        sizes.map.insert(key, Arc::downgrade(&state));
        state
    }

    /// Update the tracked size of `key`, if any descriptor holds it.
    /// Path-level mutations (`TRUNCATE`, `PUTFILE`) call this so
    /// descriptors open on the same inode stay coherent.
    pub fn set_size(&self, key: FileKey, size: u64) {
        let sizes = self.inner.lock().expect("size table poisoned");
        if let Some(live) = sizes.map.get(&key).and_then(Weak::upgrade) {
            live.size.store(size, Ordering::Relaxed);
        }
    }

    /// Mark `key`'s current incarnation doomed (unlinked): open
    /// descriptors keep working but stop populating the cache.
    pub fn doom(&self, key: FileKey) {
        let sizes = self.inner.lock().expect("size table poisoned");
        if let Some(live) = sizes.map.get(&key).and_then(Weak::upgrade) {
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
    /// A reply of `buf`'s bytes, as one slice: what a read that skips
    /// the cache sends.
    pub fn from_vec(buf: Vec<u8>) -> PageReply {
        let total = buf.len();
        let slices = match total {
            0 => Vec::new(),
            _ => vec![PageSlice {
                page: Arc::new(buf),
                start: 0,
                end: total,
            }],
        };
        PageReply { total, slices }
    }

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
    /// The file's bytes in this page, and no more: only the file's
    /// last page is short.
    data: Arc<Vec<u8>>,
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
    /// Recently missed keys that were not admitted.
    ghost: Ghost,
}

impl Shard {
    /// Should a missed page be filled? Always while the shard has free
    /// room; once it is full, only on the page's second miss within the
    /// ghost's memory of `budget` misses.
    fn admits(&mut self, key: (FileKey, u64), budget: u64) -> bool {
        if (self.ring.len() as u64) < budget || self.ghost.take(key) {
            return true;
        }
        self.ghost.record(key, budget as usize);
        false
    }

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

    /// Drop a resident page; return the bytes it held.
    fn remove(&mut self, key: (FileKey, u64)) -> usize {
        let entry = self.map.remove(&key).expect("ring key resident");
        self.ring.swap_remove(entry.slot);
        if let Some(moved) = self.ring.get(entry.slot) {
            self.map.get_mut(moved).expect("ring key resident").slot = entry.slot;
        }
        entry.data.len()
    }
}

/// The keys of a shard's last unadmitted misses, oldest displaced
/// first: `slots` is a ring of at most the shard's page budget, and
/// `map` names the slot each remembered key was recorded in.
#[derive(Debug, Default)]
struct Ghost {
    slots: Vec<(FileKey, u64)>,
    next: usize,
    map: HashMap<(FileKey, u64), usize, std::hash::BuildHasherDefault<PageHasher>>,
}

impl Ghost {
    /// Forget `key`; return whether it was remembered.
    fn take(&mut self, key: (FileKey, u64)) -> bool {
        self.map.remove(&key).is_some()
    }

    /// Remember `key` (not remembered now), displacing the oldest key
    /// once `cap` are held.
    fn record(&mut self, key: (FileKey, u64), cap: usize) {
        if self.slots.len() < cap {
            self.map.insert(key, self.slots.len());
            self.slots.push(key);
            return;
        }
        let slot = self.next;
        self.next = (slot + 1) % self.slots.len();
        let old = std::mem::replace(&mut self.slots[slot], key);
        // A key taken and recorded again since sits in a newer slot.
        if self.map.get(&old) == Some(&slot) {
            self.map.remove(&old);
        }
        self.map.insert(key, slot);
    }
}

/// What a read found for one page: its cached bytes, or a miss to be
/// filled into a fresh page (admitted) or into the reply's own buffer.
enum Look {
    Hit(Arc<Vec<u8>>),
    Admit,
    Pass,
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
    fn insert(&self, key: FileKey, idx: u64, data: Arc<Vec<u8>>, epoch: u64) {
        let mut guard = self.shard_for(key, idx).lock().expect("shard poisoned");
        if self.epoch_cell(key).load(Ordering::Acquire) != epoch {
            return;
        }
        let shard = &mut *guard;
        if shard.map.contains_key(&(key, idx)) {
            // A racing reader filled it first, from the same disk bytes.
            return;
        }
        let held = data.len() as i64;
        let slot = if shard.ring.len() as u64 >= self.shard_budget {
            let slot = shard.victim();
            let victim = std::mem::replace(&mut shard.ring[slot], (key, idx));
            let victim = shard.map.remove(&victim).expect("ring key resident");
            self.evicted.inc();
            let grown = held - victim.data.len() as i64;
            if grown != 0 {
                self.resident.adjust(grown);
            }
            slot
        } else {
            shard.ring.push((key, idx));
            self.resident.adjust(held);
            shard.ring.len() - 1
        };
        let entry = Entry {
            data,
            slot,
            referenced: false,
        };
        shard.map.insert((key, idx), entry);
    }

    /// Serve `length` bytes at `offset` from a file of `size` bytes,
    /// reading missed pages from `file` (see the module docs for which
    /// are admitted). `allow_insert` is false for doomed incarnations
    /// (see module docs): reads still work, the cache and its ghost
    /// just stay as they are.
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
        let pages = first..=(end - 1) / page;
        let count = pages.end() - first + 1;
        // Bytes `s..e` of page `idx` belong to the reply; bytes
        // `..want` of it are backed by the file.
        let span = |idx: u64| {
            let page_off = idx * page;
            let s = (offset.max(page_off) - page_off) as usize;
            let e = (end.min(page_off + page) - page_off) as usize;
            (s, e, (size - page_off).min(page) as usize)
        };
        // Hits and misses are added up and counted once per read: two
        // shared atomics per page cost more than the rest of a hit.
        let (mut hits, mut hit_bytes, mut passed) = (0, 0, 0);
        // Pages up to the first miss go straight into the reply; from
        // there on, what each page needs is noted for the fill.
        let mut slices: Vec<PageSlice> = Vec::with_capacity(count as usize);
        let mut looked: Vec<Look> = Vec::new();
        for idx in pages.clone() {
            let (s, e, _) = span(idx);
            let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
            let look = if let Some(entry) = shard
                .map
                .get_mut(&(key, idx))
                .filter(|en| en.data.len() >= e)
            {
                entry.touch();
                hits += 1;
                hit_bytes += (e - s) as u64;
                Look::Hit(entry.data.clone())
            } else if allow_insert && shard.admits((key, idx), self.shard_budget) {
                Look::Admit
            } else {
                passed += e - s;
                Look::Pass
            };
            match look {
                Look::Hit(page) if looked.is_empty() => slices.push(PageSlice {
                    page,
                    start: s,
                    end: e,
                }),
                look => looked.push(look),
            }
        }
        if hits > 0 {
            self.hits.add(hits);
            self.bytes_from_cache.add(hit_bytes);
        }
        let total = (end - offset) as usize;
        if looked.is_empty() {
            return Ok(PageReply { total, slices });
        }
        let pages = first + slices.len() as u64..=*pages.end();
        let misses = count - hits;
        self.misses.add(misses);
        let epoch = self.epoch_cell(key).load(Ordering::Acquire);
        // Fresh memory for the misses, written first by the kernel's
        // copy: zeroing it beforehand would write every byte twice. An
        // admitted page is as long as the file's bytes in it.
        let mut fresh: Vec<Vec<u8>> = pages
            .clone()
            .zip(&looked)
            .filter(|(_, look)| matches!(look, Look::Admit))
            .map(|(idx, _)| Vec::with_capacity(span(idx).2))
            .collect();
        let mut pass: Vec<u8> = Vec::with_capacity(passed);
        let mut whole = true;
        {
            // Each maximal run of misses is one read, admitted pages
            // whole (up to `want`), passed ones just their reply bytes.
            let mut fresh = fresh.iter_mut();
            let mut rest = pass.as_mut_ptr();
            let mut run: Vec<IoVec> = Vec::with_capacity(misses as usize);
            let (mut run_at, mut run_len) = (0, 0);
            for (idx, look) in pages.clone().zip(&looked) {
                let (s, e, want) = span(idx);
                let (lo, buf) = match look {
                    Look::Hit(_) => {
                        // SAFETY: each buffer of `run` is a fresh page's
                        // first `want` bytes or the next span of `pass`,
                        // none of them shared, and `run_len` their sum.
                        whole &= unsafe { read_run(file, &mut run, run_at, run_len) }?;
                        run.clear();
                        run_len = 0;
                        continue;
                    }
                    Look::Admit => {
                        let page = fresh.next().expect("one per admit");
                        (
                            0,
                            IoVec {
                                base: page.as_mut_ptr(),
                                len: want,
                            },
                        )
                    }
                    Look::Pass => {
                        let head = IoVec {
                            base: rest,
                            len: e - s,
                        };
                        // SAFETY: the pass pages' spans add up to the
                        // capacity `pass` was made with.
                        rest = unsafe { rest.add(e - s) };
                        (s, head)
                    }
                };
                if run_len == 0 {
                    run_at = idx * page + lo as u64;
                }
                run_len += buf.len;
                run.push(buf);
            }
            // SAFETY: as for the runs read above.
            whole &= unsafe { read_run(file, &mut run, run_at, run_len) }?;
            // SAFETY: `read_run` wrote (or zeroed) every byte of `pass`.
            unsafe { pass.set_len(passed) };
        }
        // A short read means the file changed under us (tracked size
        // ran ahead of a racing truncate): serve what the disk has,
        // zeros past it, and insert nothing — the epoch moved anyway.
        let pass = Arc::new(pass);
        let mut fresh = fresh.into_iter();
        let mut at = 0;
        for (idx, look) in pages.zip(looked) {
            let (s, e, want) = span(idx);
            let data = match look {
                Look::Hit(data) => data,
                Look::Admit => {
                    let mut buf = fresh.next().expect("one per admit");
                    // SAFETY: `read_run` wrote (or zeroed) the page's
                    // `want` bytes, all it was made with room for.
                    unsafe { buf.set_len(want) };
                    let data = Arc::new(buf);
                    if whole {
                        self.insert(key, idx, data.clone(), epoch);
                    }
                    data
                }
                Look::Pass => {
                    let len = e - s;
                    at += len;
                    match slices.last_mut() {
                        Some(prev) if Arc::ptr_eq(&prev.page, &pass) => prev.end += len,
                        _ => slices.push(PageSlice {
                            page: pass.clone(),
                            start: at - len,
                            end: at,
                        }),
                    }
                    continue;
                }
            };
            slices.push(PageSlice {
                page: data,
                start: s,
                end: e,
            });
        }
        Ok(PageReply { total, slices })
    }

    /// Write-through patch: `data` has reached disk at `offset`;
    /// update any resident pages. `old_size` is the file size before
    /// the write: a page that was the partial last page first takes the
    /// zeros of the gap the write leaves (see `grow`), so every page
    /// the write reaches is long enough to patch.
    pub fn write_through(&self, key: FileKey, offset: u64, data: &[u8], old_size: u64) {
        if data.is_empty() {
            return;
        }
        self.bump_epoch(key);
        let page = self.page as u64;
        let end = offset + data.len() as u64;
        self.grow(key, old_size, end);
        for idx in offset / page..=(end - 1) / page {
            let page_off = idx * page;
            let s = (offset.max(page_off) - page_off) as usize;
            let e = (end.min(page_off + page) - page_off) as usize;
            let src = (page_off + s as u64 - offset) as usize;
            let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
            let Some(entry) = shard.map.get_mut(&(key, idx)) else {
                continue;
            };
            if entry.data.len() < e {
                // Shorter than the file was (see the module docs): what
                // it lacks is data on disk, not zeros.
                self.discard(&mut shard, (key, idx));
                continue;
            }
            // A reply in flight may still hold this page; give it
            // its own copy rather than mutating what it reads.
            let buf = Arc::make_mut(&mut entry.data);
            buf[s..e].copy_from_slice(&data[src..src + (e - s)]);
            entry.touch();
        }
    }

    /// The file grew from `old_size` to `new_size`: its old partial
    /// last page, if resident, is extended with the zeros of the hole
    /// on disk, up to the page end or the new EOF. A page that does not
    /// end at the old EOF is dropped instead.
    fn grow(&self, key: FileKey, old_size: u64, new_size: u64) {
        let page = self.page as u64;
        if new_size <= old_size || old_size.is_multiple_of(page) {
            return;
        }
        let idx = old_size / page;
        let old_len = (old_size % page) as usize;
        let new_len = (new_size - idx * page).min(page) as usize;
        let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
        let Some(entry) = shard.map.get_mut(&(key, idx)) else {
            return;
        };
        let len = entry.data.len();
        if len >= new_len {
            return;
        }
        if len != old_len {
            self.discard(&mut shard, (key, idx));
            return;
        }
        let buf = Arc::make_mut(&mut entry.data);
        // No more room than bytes: the gauge counts lengths.
        buf.reserve_exact(new_len - len);
        buf.resize(new_len, 0);
        self.resident.adjust((new_len - len) as i64);
    }

    /// The file was truncated on disk from `old_size` to `new_size`:
    /// drop pages past the new EOF and shorten the boundary page, or
    /// extend the old last page on growth.
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
            let keep = (new_size % page) as usize;
            let mut shard = self.shard_for(key, idx).lock().expect("shard poisoned");
            if let Some(entry) = shard.map.get_mut(&(key, idx)) {
                if entry.data.len() > keep {
                    self.resident.adjust(keep as i64 - entry.data.len() as i64);
                    // A fresh buffer: a reply in flight keeps the old one.
                    entry.data = Arc::new(entry.data[..keep].to_vec());
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
            for k in doomed {
                self.discard(&mut shard, k);
            }
        }
    }

    /// Drop one resident page, counting it invalidated.
    fn discard(&self, shard: &mut Shard, key: (FileKey, u64)) {
        let held = shard.remove(key);
        self.invalidated.inc();
        self.resident.adjust(-(held as i64));
    }

    /// Resident bytes right now (for tests and `tss-top`).
    pub fn resident_bytes(&self) -> i64 {
        self.resident.get()
    }
}

/// Most buffers one `preadv` takes (Linux's `IOV_MAX`).
const IOV_MAX: usize = 1024;

/// One buffer of a `preadv`: `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// Fill `run`, `left` bytes in all, from `file` at `at`: one `preadv`
/// per [`IOV_MAX`] buffers, more only where the kernel stops short.
/// Returns whether the file held every byte; if it ended first, the
/// bytes it did not hold are zeroed. Either way every byte of `run` is
/// written, unless this fails.
///
/// # Safety
///
/// Each `IoVec` of `run` must name memory valid for writes of its
/// `len` bytes that nothing else reads or writes until this returns,
/// and `left` must be the sum of their lengths.
unsafe fn read_run(
    file: &File,
    run: &mut [IoVec],
    mut at: u64,
    mut left: usize,
) -> ChirpResult<bool> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn preadv(fd: i32, iov: *const IoVec, iovcnt: i32, offset: i64) -> isize;
    }
    let mut next = 0;
    while left > 0 {
        let count = (run.len() - next).min(IOV_MAX);
        // SAFETY: the caller's guarantee: each `IoVec` names writable,
        // unshared memory of its length.
        let got = unsafe {
            preadv(
                file.as_raw_fd(),
                run[next..].as_ptr(),
                count as i32,
                at as i64,
            )
        };
        if got == 0 {
            for v in &run[next..] {
                // SAFETY: as above.
                unsafe { std::ptr::write_bytes(v.base, 0, v.len) };
            }
            return Ok(false);
        }
        if got < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(ChirpError::from_io(&e));
        }
        let mut n = got as usize;
        at += n as u64;
        left -= n;
        while n > 0 {
            let v = &mut run[next];
            if n < v.len {
                // SAFETY: `n` bytes into the buffer, still inside it.
                v.base = unsafe { v.base.add(n) };
                v.len -= n;
                break;
            }
            n -= v.len;
            next += 1;
        }
    }
    Ok(true)
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

    /// Past the sweep threshold, dead entries are still reclaimed, and
    /// every live state is still the one `track` hands back.
    #[test]
    fn size_table_reclaims_dead_entries_and_keeps_live_ones() {
        const N: u64 = 5_000;
        let table = SizeTable::new();
        let live: Vec<_> = (0..N)
            .map(|i| {
                drop(table.track((1, i), 0));
                table.track((0, i), i)
            })
            .collect();
        let held = table.inner.lock().unwrap().map.len();
        assert!(held < 2 * N as usize, "{held} entries held, none reclaimed");
        for (i, state) in (0..N).zip(&live) {
            assert!(Arc::ptr_eq(&table.track((0, i), 0), state), "key {i}");
            assert_eq!(state.size.load(Ordering::Relaxed), i);
        }
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
        assert_eq!(cache.resident_bytes(), 3000, "the file's bytes, no padding");
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
        let resident = |i: u64| cache.shards[0].lock().unwrap().map.contains_key(&(key, i));
        for i in 0..8 {
            // Pages 0 and 1 fill free room; each later page is admitted
            // on its second miss.
            for _ in 0..1 + (i >= 2) as u64 {
                let r = cache.read(&file, key, i * 1024, 1024, size, true).unwrap();
                assert_eq!(collect(&r), data[i as usize * 1024..][..1024]);
            }
            assert!(resident(i), "page {i}");
        }
        assert_eq!(cache.evicted.get(), 6);
        assert!(cache.resident_bytes() <= 2 * 1024);
        // Page 7 is resident; page 0 is long gone.
        cache.read(&file, key, 7 * 1024, 1024, size, true).unwrap();
        assert_eq!(cache.misses.get(), 14);
        cache.read(&file, key, 0, 1024, size, true).unwrap();
        assert_eq!(cache.misses.get(), 15);
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
        read(3); // D's first miss on a full shard: served, not admitted
        assert_eq!(cache.evicted.get(), 0);
        assert!(!resident(3));
        read(3); // its second: the hand spares A, clearing its bit, and takes B
        assert_eq!(cache.evicted.get(), 1);
        assert!(resident(0) && !resident(1) && resident(2) && resident(3));
        // With nothing read again, a scan evicts in the order the pages
        // entered, A counting from its second chance: C, A, D, E.
        for (i, gone) in [(4, 2), (5, 0), (6, 3), (7, 4)] {
            read(i);
            assert!(
                resident(gone) && !resident(i),
                "page {i}'s first miss admits nothing"
            );
            read(i);
            assert!(!resident(gone), "page {i} should evict page {gone}");
            assert!(resident(i - 1) && resident(i));
        }
        assert_eq!(cache.evicted.get(), 5);
        assert_eq!(cache.hits.get(), 1);
    }

    #[test]
    fn first_miss_on_a_full_shard_evicts_nothing_and_the_second_admits() {
        let dir = TempDir::new();
        let data = content(4 * 1024);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1024, 1024, &Registry::new());
        let read = |i: u64| collect(&cache.read(&file, key, i * 1024, 1024, size, true).unwrap());
        assert_eq!(read(0), data[..1024], "free room: filled at once");
        assert_eq!(cache.resident_bytes(), 1024);
        assert_eq!(read(1), data[1024..2048]);
        assert_eq!(
            cache.evicted.get(),
            0,
            "a first miss on a full shard fills nothing"
        );
        assert_eq!(read(0), data[..1024]);
        assert_eq!(cache.hits.get(), 1, "page 0 stayed");
        assert_eq!(read(1), data[1024..2048]);
        assert_eq!(cache.evicted.get(), 1, "the second miss admits");
        assert_eq!(read(1), data[1024..2048]);
        assert_eq!(cache.hits.get(), 2);
        assert_eq!(cache.misses.get(), 3);
    }

    /// Once a shard is full, a set that fits each shard's budget is
    /// resident after two passes: the ghost still holds the whole first
    /// pass when the second begins.
    #[test]
    fn a_set_that_fits_is_resident_after_two_passes() {
        let dir = TempDir::new();
        let data = content(256 * 1024);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(32 * 1024, 1024, &Registry::new());
        assert_eq!((cache.shards.len(), cache.shard_budget), (8, 4));
        let read = |i: u64| cache.read(&file, key, i * 1024, 1024, size, true).unwrap();
        let shard_of = |i: u64| (PageCache::hash(key, i) % 8) as usize;
        // The filler: pages 128.. until every shard is full.
        let mut i = 128;
        while cache
            .shards
            .iter()
            .any(|s| s.lock().unwrap().ring.len() < 4)
        {
            read(i);
            i += 1;
        }
        // The set: the first pages from 0 on that fill each shard once.
        let mut per_shard = [0; 8];
        let set: Vec<u64> = (0..128)
            .filter(|&i| {
                let n = &mut per_shard[shard_of(i)];
                *n += 1;
                *n <= 4
            })
            .collect();
        assert_eq!(set.len(), 32);
        for pass in 0..2 {
            for &i in &set {
                assert_eq!(collect(&read(i)), data[i as usize * 1024..][..1024]);
            }
            let resident = set
                .iter()
                .filter(|&&i| {
                    cache.shards[shard_of(i)]
                        .lock()
                        .unwrap()
                        .map
                        .contains_key(&(key, i))
                })
                .count();
            assert_eq!(resident, [0, 32][pass], "after pass {pass}");
        }
        let hits = cache.hits.get();
        for &i in &set {
            read(i);
        }
        assert_eq!(cache.hits.get() - hits, 32, "the third pass only hits");
    }

    /// Uniform single-page reads over four times the cache: once full,
    /// about a quarter of the misses fill a page, no more than `simnet`'s
    /// admission model predicts for the same shape (its
    /// `ghost_admits_a_quarter_of_uniform_misses`: 0.23–0.29), against
    /// every miss without a ghost. Fills are evictions plus the growth of
    /// the resident set.
    #[test]
    fn a_uniform_sweep_fills_a_quarter_of_its_misses() {
        let dir = TempDir::new();
        let data = vec![7u8; 1024 * 1024];
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(256 * 1024, 1024, &Registry::new());
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut sweep = |reads: u64| {
            for _ in 0..reads {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let page = (rng >> 33) % 1024;
                cache
                    .read(&file, key, page * 1024, 1024, size, true)
                    .unwrap();
            }
        };
        sweep(4096);
        let (misses, evicted, resident) = (
            cache.misses.get(),
            cache.evicted.get(),
            cache.resident_bytes(),
        );
        sweep(20_000);
        let fills = (cache.evicted.get() - evicted) as f64
            + (cache.resident_bytes() - resident) as f64 / 1024.0;
        let share = fills / (cache.misses.get() - misses) as f64;
        assert!((0.20..=0.29).contains(&share), "fills per miss {share:.3}");
    }

    /// One read over hits, admitted misses and unadmitted misses, from
    /// an unaligned offset through a partial last page at EOF, returns
    /// the file's bytes; only the admitted page joins the cache.
    #[test]
    fn a_read_mixing_hits_admits_and_passes_returns_the_files_bytes() {
        let dir = TempDir::new();
        let data = content(13 * 1024 + 500);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(7 * 1024, 1024, &Registry::new());
        assert_eq!(cache.shards.len(), 1);
        let resident = |i: u64| cache.shards[0].lock().unwrap().map.contains_key(&(key, i));
        cache.read(&file, key, 0, 7 * 1024, size, true).unwrap(); // pages 0..7 fill
        cache.read(&file, key, 10 * 1024, 10, size, true).unwrap(); // page 10's first miss
        assert!(!resident(10));
        let (hits, misses) = (cache.hits.get(), cache.misses.get());
        let r = cache
            .read(&file, key, 5 * 1024 + 100, 1 << 20, size, true)
            .unwrap();
        assert_eq!(collect(&r), data[5 * 1024 + 100..]);
        assert_eq!(cache.hits.get() - hits, 2, "pages 5 and 6");
        assert_eq!(
            cache.misses.get() - misses,
            7,
            "pages 7 to 13, counted once"
        );
        assert!(resident(10), "page 10's second miss admits it");
        assert!((7..14).all(|i| i == 10 || !resident(i)));
        // Pages 7–9 and 11–13 ride in one reply-owned buffer each side
        // of page 10: hit, hit, pass run, admitted, pass run.
        assert_eq!(r.slices().len(), 5);
        assert_eq!(cache.evicted.get(), 1);
    }

    /// A fill that read the disk before a write reached it is discarded:
    /// the epoch it sampled has moved when it comes to insert.
    #[test]
    fn an_admitted_fill_that_races_a_write_is_discarded() {
        use std::os::unix::fs::FileExt;
        let dir = TempDir::new();
        let path = dir.path().join("f");
        std::fs::write(&path, content(2048)).unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let key = file_key(&file.metadata().unwrap());
        let cache = PageCache::new(1024, 1024, &Registry::new());
        cache.read(&file, key, 1024, 1024, 2048, true).unwrap(); // page 1 fills
        cache.read(&file, key, 0, 1024, 2048, true).unwrap(); // page 0's first miss
                                                              // Page 0's second miss, stopped between its read and its insert.
        let mut stale = vec![0u8; 1024];
        let epoch = cache.epoch_cell(key).load(Ordering::Acquire);
        assert!(cache.shards[0].lock().unwrap().admits((key, 0), 1));
        file.read_exact_at(&mut stale, 0).unwrap();
        file.write_all_at(&[9; 100], 10).unwrap();
        cache.write_through(key, 10, &[9; 100], 2048);
        cache.insert(key, 0, Arc::new(stale), epoch);
        assert!(!cache.shards[0].lock().unwrap().map.contains_key(&(key, 0)));
        let r = cache.read(&file, key, 0, 1024, 2048, true).unwrap();
        assert_eq!(collect(&r)[10..110], [9; 100]);
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

    /// The bytes of page `idx` of `key` resident now, if it is.
    fn page_of(cache: &PageCache, key: FileKey, idx: u64) -> Option<Vec<u8>> {
        let shard = cache.shard_for(key, idx).lock().unwrap();
        shard.map.get(&(key, idx)).map(|e| e.data.to_vec())
    }

    /// A small file costs the cache its own bytes, not a page.
    #[test]
    fn a_short_file_holds_only_its_bytes() {
        let dir = TempDir::new();
        let data = content(3 * 1024);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 8192, &Registry::new());
        for _ in 0..2 {
            let r = cache.read(&file, key, 0, 8192, size, true).unwrap();
            assert_eq!(collect(&r), data);
        }
        assert_eq!((cache.misses.get(), cache.hits.get()), (1, 1));
        assert_eq!(cache.resident_bytes(), 3072);
        assert_eq!(page_of(&cache, key, 0).unwrap(), data);
    }

    /// A `PWRITE` past EOF extends the resident short last page with
    /// the hole's zeros: to the page end when it lands in a later page,
    /// up to its own bytes when it lands in that page.
    #[test]
    fn a_write_past_eof_extends_the_short_page_with_zeros() {
        for (offset, len) in [(2000, 48), (800, 100)] {
            let dir = TempDir::new();
            let data = content(600); // a short first page: 600 bytes
            let (file, key, size) = open(&dir, "f", &data);
            let cache = PageCache::new(1 << 20, 1024, &Registry::new());
            cache.read(&file, key, 0, 600, size, true).unwrap();
            assert_eq!(cache.resident_bytes(), 600);
            cache.write_through(key, offset as u64, &vec![7; len], 600);
            let end = offset + len;
            let mut expect = data.clone();
            expect.resize(end.min(1024), 0);
            if end <= 1024 {
                expect[offset..].fill(7);
            }
            assert_eq!(page_of(&cache, key, 0).unwrap(), expect, "at {offset}");
            assert_eq!(cache.resident_bytes(), expect.len() as i64);
            // Disk is stale in this unit test: a hit proves the page.
            let r = cache.read(&file, key, 0, 1024, end as u64, true).unwrap();
            assert_eq!(collect(&r), expect, "the hole reads back as zeros");
            assert_eq!(cache.misses.get(), 1, "page 0 stayed resident");
        }
    }

    /// A page filled under a size that a racing write had already
    /// passed is shorter than the file; growth past it must not claim
    /// the bytes it lacks are zeros.
    #[test]
    fn growth_past_a_page_short_of_the_old_eof_drops_it() {
        use std::os::unix::fs::FileExt;
        let dir = TempDir::new();
        let path = dir.path().join("f");
        let data = content(3000);
        std::fs::write(&path, &data).unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let key = file_key(&file.metadata().unwrap());
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        // Page 2 as a reader holding size 2500 filled it.
        let epoch = cache.epoch_cell(key).load(Ordering::Acquire);
        cache.insert(key, 2, Arc::new(data[2048..2500].to_vec()), epoch);
        file.write_all_at(&[5; 200], 2900).unwrap();
        cache.write_through(key, 2900, &[5; 200], 3000);
        assert!(
            page_of(&cache, key, 2).is_none(),
            "the short page is dropped"
        );
        assert_eq!(cache.invalidated.get(), 1);
        assert_eq!(cache.resident_bytes(), 0);
        let r = cache.read(&file, key, 2048, 2000, 3100, true).unwrap();
        let mut expect = data[2048..2900].to_vec();
        expect.extend_from_slice(&[5; 200]);
        assert_eq!(collect(&r), expect);
    }

    #[test]
    fn truncate_down_shortens_the_boundary_page() {
        let dir = TempDir::new();
        let data = content(2048);
        let (file, key, size) = open(&dir, "f", &data);
        let cache = PageCache::new(1 << 20, 1024, &Registry::new());
        cache.read(&file, key, 0, 2048, size, true).unwrap();
        // A reply taken before the truncate keeps the bytes it took.
        let before = cache.read(&file, key, 0, 1024, size, true).unwrap();
        cache.truncate(key, 2048, 300);
        assert_eq!(cache.invalidated.get(), 1, "page 1 dropped");
        assert_eq!(page_of(&cache, key, 0).unwrap(), data[..300]);
        assert_eq!(cache.resident_bytes(), 300);
        assert_eq!(collect(&before), data[..1024]);
        // Extend again: bytes 300.. read back zero.
        cache.truncate(key, 300, 1024);
        let r = cache.read(&file, key, 0, 1024, 1024, true).unwrap();
        let mut expect = data[..300].to_vec();
        expect.resize(1024, 0);
        assert_eq!(collect(&r), expect);
        assert_eq!(cache.misses.get(), 2, "boundary page reused, not refilled");
        assert_eq!(cache.resident_bytes(), 1024);
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
    /// its own key, and the resident gauge counts exactly their bytes.
    fn check_ring(cache: &PageCache, capacity: u64) {
        let mut held = 0;
        for shard in &cache.shards {
            let shard = shard.lock().unwrap();
            assert_eq!(shard.ring.len(), shard.map.len());
            assert!(shard.ring.len() as u64 <= cache.shard_budget);
            for (slot, key) in shard.ring.iter().enumerate() {
                assert_eq!(shard.map[key].slot, slot, "{key:?}");
            }
            held += shard.map.values().map(|e| e.data.len() as i64).sum::<i64>();
            let ghost = &shard.ghost;
            assert!(ghost.slots.len() as u64 <= cache.shard_budget);
            for (key, &slot) in &ghost.map {
                assert_eq!(ghost.slots[slot], *key, "ghost slot of {key:?}");
            }
        }
        assert_eq!(cache.resident_bytes(), held);
        assert!(cache.resident_bytes() as u64 <= capacity);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A read, made twice when the flag is set, so its misses on a
        /// full shard come back while the ghost holds them.
        Read(u64, usize, bool),
        Write(u64, usize, u8),
        Truncate(u64),
        Invalidate,
    }

    const PAGE: usize = 512;
    const SPAN: u64 = 40 * PAGE as u64;

    /// Reads half the time, then writes, truncates and invalidations.
    fn op() -> impl Strategy<Value = Op> {
        (0..8u8, 0..SPAN, 1..3 * PAGE, any::<u8>()).prop_map(|(kind, off, len, byte)| match kind {
            0..=3 => Op::Read(off, 3 * len, byte % 2 == 0),
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
                        Op::Read(off, len, twice) => {
                            for _ in 0..1 + twice as u8 {
                                let r = cache.read(&file, key, off, len, size, true).unwrap();
                                let lo = (off as usize).min(mirror.len());
                                let hi = (off as usize + len).min(mirror.len());
                                prop_assert_eq!(collect(&r), &mirror[lo..hi], "{:?}", op);
                            }
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
                    // Each resident page is the file's bytes in it, no more.
                    for shard in &cache.shards {
                        for (&(_, idx), entry) in &shard.lock().unwrap().map {
                            let lo = idx as usize * PAGE;
                            let hi = (lo + PAGE).min(mirror.len());
                            prop_assert!(lo < hi, "page {} resident past EOF", idx);
                            prop_assert_eq!(&entry.data[..], &mirror[lo..hi], "page {}", idx);
                        }
                    }
                }
            }
        }
    }
}
