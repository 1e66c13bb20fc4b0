//! A per-server buffer cache: LRU over whole files, and the server's
//! own page cache with its admission rule.
//!
//! The scalability experiments (Figures 6–8) hinge on whether a
//! server's working set fits in its 512 MB of RAM: multiple servers
//! increase the *total memory used as buffer cache*, which is one of
//! the two ways the paper says server scaling helps.
//!
//! [`PageCacheModel`] models `chirp-server`'s cache page for page:
//! shards, CLOCK, fills while a shard has free room, and (under
//! [`Admission::SecondMiss`]) a ghost of recent unadmitted misses that
//! admits a page on its second miss once the shard is full.
//! [`predict_ledger`] replays each benchmark workload's warm-up and
//! traced pass through it.

use std::collections::{HashMap, VecDeque};

/// An LRU cache tracking which whole files are memory-resident.
#[derive(Debug)]
pub struct LruFileCache {
    capacity: u64,
    used: u64,
    /// file id -> (size, last-use tick)
    entries: HashMap<u64, (u64, u64)>,
    tick: u64,
}

impl LruFileCache {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> LruFileCache {
        LruFileCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Is this file fully resident? Touches the entry on hit.
    pub fn contains(&mut self, file: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&file) {
            e.1 = tick;
            true
        } else {
            false
        }
    }

    /// Install a file after it has been read from disk, evicting
    /// least-recently-used files as needed. Files larger than the
    /// whole cache are not cached.
    pub fn insert(&mut self, file: u64, size: u64) {
        if size > self.capacity {
            return;
        }
        self.tick += 1;
        if let Some(&(old, _)) = self.entries.get(&file) {
            self.used -= old;
            self.entries.remove(&file);
        }
        while self.used + size > self.capacity {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &(_, t))| t) else {
                break;
            };
            let (vsize, _) = self.entries.remove(&victim).expect("victim exists");
            self.used -= vsize;
        }
        self.entries.insert(file, (size, self.tick));
        self.used += size;
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Predicted steady-state hit rate for uniform random accesses over a
/// working set of `files` files of `file_size` bytes each, against an
/// [`LruFileCache`] of `capacity` bytes.
///
/// Runs the actual LRU model with a deterministic LCG access stream:
/// one warm-up sweep to fill the cache, then `samples` measured
/// accesses. Under uniform access the curve is the resource fraction
/// itself: hit rate ≈ min(1, capacity / (files * file_size)). The
/// server's own page cache is modelled page for page by
/// [`PageCacheModel`], which `chirp-server`'s `cache_smoke` test holds
/// the live cache to.
pub fn predict_uniform_hit_rate(capacity: u64, files: u64, file_size: u64, samples: u64) -> f64 {
    assert!(files > 0 && file_size > 0 && samples > 0);
    let mut cache = LruFileCache::new(capacity);
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        // Same multiplier family the generator crates use; period and
        // quality are ample for picking uniform file indices.
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % files
    };
    // Warm-up: give every file a chance to enter; steady state for an
    // LRU under uniform access is reached within a few working-set
    // passes.
    for _ in 0..files.saturating_mul(3) {
        let f = next();
        if !cache.contains(f) {
            cache.insert(f, file_size);
        }
    }
    let mut hits = 0u64;
    for _ in 0..samples {
        let f = next();
        if cache.contains(f) {
            hits += 1;
        } else {
            cache.insert(f, file_size);
        }
    }
    hits as f64 / samples as f64
}

/// How a full shard of [`PageCacheModel`] treats a missed page. While
/// a shard has free room, every miss fills under either rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Fill every miss, evicting the CLOCK victim.
    EveryMiss,
    /// Fill a miss only if the page missed before within the shard's
    /// ghost: a FIFO of its last `budget` unadmitted misses.
    SecondMiss,
}

#[derive(Debug, Default)]
struct ModelShard {
    /// Resident page -> its slot in `ring`.
    slot: HashMap<u64, usize>,
    /// `(page, referenced)` in the hand's order.
    ring: Vec<(u64, bool)>,
    hand: usize,
    /// Unadmitted misses, oldest first, each with the stamp it was
    /// recorded under; a taken key's slot stays until pushed out.
    ghost: VecDeque<(u64, u64)>,
    ghosted: HashMap<u64, u64>,
    stamp: u64,
}

/// The server's sharded page cache as a model: which pages are
/// resident, and how many hits, misses and fills a stream of page
/// accesses makes.
#[derive(Debug)]
pub struct PageCacheModel {
    admission: Admission,
    budget: usize,
    shards: Vec<ModelShard>,
    /// Reads of a resident page.
    pub hits: u64,
    /// Reads of an absent page.
    pub misses: u64,
    /// Misses that filled a page.
    pub fills: u64,
}

impl PageCacheModel {
    /// A cache of `pages` pages, sharded as the server shards one: a
    /// shard per four pages, one to eight of them.
    pub fn new(pages: u64, admission: Admission) -> PageCacheModel {
        let pages = pages.max(1);
        let shards = (pages / 4).clamp(1, 8);
        PageCacheModel {
            admission,
            budget: (pages / shards).max(1) as usize,
            shards: (0..shards).map(|_| ModelShard::default()).collect(),
            hits: 0,
            misses: 0,
            fills: 0,
        }
    }

    fn shard(&mut self, page: u64) -> &mut ModelShard {
        let mut h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        let n = self.shards.len() as u64;
        &mut self.shards[(h % n) as usize]
    }

    /// Read `page`; returns whether it hit.
    pub fn read(&mut self, page: u64) -> bool {
        let (budget, admission) = (self.budget, self.admission);
        let shard = self.shard(page);
        if let Some(&slot) = shard.slot.get(&page) {
            shard.ring[slot].1 = true;
            self.hits += 1;
            return true;
        }
        let full = shard.ring.len() >= budget;
        let admit =
            !full || admission == Admission::EveryMiss || shard.ghosted.remove(&page).is_some();
        if !admit {
            shard.stamp += 1;
            let stamp = shard.stamp;
            shard.ghost.push_back((page, stamp));
            shard.ghosted.insert(page, stamp);
            if shard.ghost.len() > budget {
                let (old, at) = shard.ghost.pop_front().expect("over budget");
                if shard.ghosted.get(&old) == Some(&at) {
                    shard.ghosted.remove(&old);
                }
            }
        } else if full {
            let victim = loop {
                let slot = shard.hand % shard.ring.len();
                shard.hand = slot + 1;
                if !std::mem::take(&mut shard.ring[slot].1) {
                    break slot;
                }
            };
            let (old, _) = std::mem::replace(&mut shard.ring[victim], (page, false));
            shard.slot.remove(&old);
            shard.slot.insert(page, victim);
        } else {
            shard.slot.insert(page, shard.ring.len());
            shard.ring.push((page, false));
        }
        self.misses += 1;
        self.fills += admit as u64;
        false
    }

    /// Write `page` through: a resident page is patched and counts as
    /// referenced; an absent one is not filled.
    pub fn write(&mut self, page: u64) {
        let shard = self.shard(page);
        if let Some(&slot) = shard.slot.get(&page) {
            shard.ring[slot].1 = true;
        }
    }

    fn counts(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.fills)
    }
}

/// What a replay measured over its traced pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePrediction {
    /// Page hits over page reads.
    pub hit_ratio: f64,
    /// Fills over misses (1.0 for a cache that fills every miss).
    pub fills_per_miss: f64,
}

impl CachePrediction {
    fn since(model: &PageCacheModel, before: (u64, u64, u64)) -> CachePrediction {
        let (hits, misses, fills) = model.counts();
        let (hits, misses, fills) = (hits - before.0, misses - before.1, fills - before.2);
        CachePrediction {
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            fills_per_miss: fills as f64 / misses.max(1) as f64,
        }
    }

    fn mean(all: &[CachePrediction]) -> CachePrediction {
        let n = all.len() as f64;
        CachePrediction {
            hit_ratio: all.iter().map(|p| p.hit_ratio).sum::<f64>() / n,
            fills_per_miss: all.iter().map(|p| p.fills_per_miss).sum::<f64>() / n,
        }
    }
}

/// A benchmark ledger workload (`bench/src/workload.rs`), as the page
/// caches of its data servers see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerWorkload {
    /// 30 % of steps read one 4 KiB file of 2 000, spread over three
    /// data servers.
    MetaStorm,
    /// Sequential 64 KiB reads of 12 × 4 MiB files: a set that fits.
    StreamReadHot,
    /// Uniform 64 KiB reads over 64 × 4 MiB files (4× the cache), and
    /// every fourth traced step a 64 KiB rewrite of one of 16 of them.
    StreamRwCold,
    /// 64-byte reads of a 1 MiB file; the bulk bodies bypass the cache.
    BulkBesideSmall,
}

/// The ledger's server cache: 64 MiB of 8 KiB pages.
const LEDGER_CACHE_PAGES: u64 = (64 << 20) / 8192;
const BLOCK_PAGES: u64 = 8;
const FILE_PAGES: u64 = (4 << 20) / 8192;

/// A small deterministic stream for the replays: SplitMix64, whose
/// consecutive draws are independent enough that a page drawn twice
/// in a row is drawn at the uniform rate (an LCG's adjacent draws are
/// not, and under a ghost that shows as hits).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Predict the traced pass of `workload` under `admission`: replay its
/// warm-up (each client's fixed steps, client by client) and then its
/// traced steps through one model cache per data server, and measure
/// the traced pass. The mean of sixteen seeded replays: one traced pass
/// of `stream_rw_cold` reads only 3 072 blocks, so a single replay's
/// hit ratio spreads by ±0.008.
pub fn predict_ledger(workload: LedgerWorkload, admission: Admission) -> CachePrediction {
    let runs: Vec<CachePrediction> = (1..=16u64)
        .map(|seed| replay_ledger(workload, admission, seed))
        .collect();
    CachePrediction::mean(&runs)
}

fn replay_ledger(workload: LedgerWorkload, admission: Admission, seed: u64) -> CachePrediction {
    let mut rng = Rng(seed);
    let mut cache = PageCacheModel::new(LEDGER_CACHE_PAGES, admission);
    let read_block = |cache: &mut PageCacheModel, first: u64| {
        for page in first..first + BLOCK_PAGES {
            cache.read(page);
        }
    };
    match workload {
        LedgerWorkload::MetaStorm => {
            // A file is one page on the data server it was placed on;
            // no server's cache ever fills, so one model stands for all
            // three.
            const FILES: u64 = 2_000;
            let step = |cache: &mut PageCacheModel, rng: &mut Rng| {
                let dice = rng.below(100);
                let file = rng.below(FILES);
                if (50..80).contains(&dice) {
                    cache.read(file);
                }
            };
            for _ in 0..2 * 3_000 {
                step(&mut cache, &mut rng);
            }
            let before = cache.counts();
            for _ in 0..12_500 {
                step(&mut cache, &mut rng);
            }
            CachePrediction::since(&cache, before)
        }
        LedgerWorkload::StreamReadHot => {
            // Each client passes over the set once in its own order;
            // then one client keeps looping.
            const FILES: u64 = 12;
            let pass = |cache: &mut PageCacheModel, rng: &mut Rng, blocks: u64| {
                let mut order: Vec<u64> = (0..FILES).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for step in 0..blocks {
                    let file = order[(step / (FILE_PAGES / BLOCK_PAGES)) as usize % order.len()];
                    let block = step % (FILE_PAGES / BLOCK_PAGES);
                    read_block(cache, file * FILE_PAGES + block * BLOCK_PAGES);
                }
            };
            let per_pass = FILES * FILE_PAGES / BLOCK_PAGES;
            pass(&mut cache, &mut rng, per_pass);
            pass(&mut cache, &mut rng, per_pass);
            let before = cache.counts();
            pass(&mut cache, &mut rng, 4_096);
            CachePrediction::since(&cache, before)
        }
        LedgerWorkload::StreamRwCold => {
            const FILES: u64 = 64;
            const REWRITTEN: u64 = 16;
            let blocks = FILE_PAGES / BLOCK_PAGES;
            let mut written = 0u64;
            let mut write = |cache: &mut PageCacheModel| {
                let file = (written / blocks) % REWRITTEN;
                let first = file * FILE_PAGES + (written % blocks) * BLOCK_PAGES;
                for page in first..first + BLOCK_PAGES {
                    cache.write(page);
                }
                written += 1;
            };
            let probe = |cache: &mut PageCacheModel, rng: &mut Rng| {
                let file = rng.below(FILES);
                read_block(cache, file * FILE_PAGES + rng.below(blocks) * BLOCK_PAGES);
            };
            // Warm-up: twice the cache in probe reads, then one file
            // rewritten.
            for _ in 0..2 * LEDGER_CACHE_PAGES / BLOCK_PAGES {
                probe(&mut cache, &mut rng);
            }
            for _ in 0..blocks {
                write(&mut cache);
            }
            let before = cache.counts();
            for step in 0..4_096u64 {
                if step % 4 == 3 {
                    write(&mut cache);
                } else {
                    probe(&mut cache, &mut rng);
                }
            }
            CachePrediction::since(&cache, before)
        }
        LedgerWorkload::BulkBesideSmall => {
            const RECORDS: u64 = 16 * 1024;
            const PER_PAGE: u64 = 8192 / 64;
            for _ in 0..2_000 {
                cache.read(rng.below(RECORDS) / PER_PAGE);
            }
            let before = cache.counts();
            for step in 0..20_000u64 {
                if step % 1_000 != 999 {
                    cache.read(rng.below(RECORDS) / PER_PAGE);
                }
            }
            CachePrediction::since(&cache, before)
        }
    }
}

/// Predict single-page reads whose ranks follow a Zipf law of exponent
/// `s` over `set` pages, against a cache of `cache_pages`: a warm-up of
/// four times the cache in reads, then `samples` measured ones.
pub fn predict_zipf(
    s: f64,
    set: u64,
    cache_pages: u64,
    samples: u64,
    admission: Admission,
) -> CachePrediction {
    let mut cdf: Vec<f64> = (1..=set)
        .scan(0.0, |sum, rank| {
            *sum += (rank as f64).powf(-s);
            Some(*sum)
        })
        .collect();
    let total = *cdf.last().expect("a non-empty set");
    cdf.iter_mut().for_each(|c| *c /= total);
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut draw = || {
        let u = rng.below(1 << 30) as f64 / (1u64 << 30) as f64;
        cdf.partition_point(|&c| c < u) as u64
    };
    let mut cache = PageCacheModel::new(cache_pages, admission);
    for _ in 0..4 * cache_pages {
        cache.read(draw());
    }
    let before = cache.counts();
    for _ in 0..samples {
        cache.read(draw());
    }
    CachePrediction::since(&cache, before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_insert() {
        let mut c = LruFileCache::new(100);
        assert!(!c.contains(1));
        c.insert(1, 40);
        assert!(c.contains(1));
        assert_eq!(c.used(), 40);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruFileCache::new(100);
        c.insert(1, 40);
        c.insert(2, 40);
        assert!(c.contains(1)); // touch 1: now 2 is LRU
        c.insert(3, 40); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.used() <= 100);
    }

    #[test]
    fn oversized_files_bypass_the_cache() {
        let mut c = LruFileCache::new(100);
        c.insert(1, 1000);
        assert!(!c.contains(1));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = LruFileCache::new(100);
        c.insert(1, 40);
        c.insert(1, 60);
        assert_eq!(c.used(), 60);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn usage_never_exceeds_capacity() {
        let mut c = LruFileCache::new(512);
        for i in 0..1000u64 {
            c.insert(i, 7 + (i % 90));
            assert!(c.used() <= 512, "at i={i}: {}", c.used());
        }
        assert!(!c.is_empty());
    }

    #[test]
    fn predicted_hit_rate_tracks_the_resource_fraction() {
        // 256 files of 8 KiB = 2 MiB working set. Under uniform access
        // the hit rate is the fraction of the working set that fits.
        let (files, fsize) = (256, 8 * 1024);
        for (cap_frac, expect) in [(4u64, 0.25), (2, 0.5), (1, 1.0)] {
            let cap = files * fsize / cap_frac;
            let rate = predict_uniform_hit_rate(cap, files, fsize, 50_000);
            assert!(
                (rate - expect).abs() < 0.05,
                "cap={cap}: predicted {rate}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn predicted_hit_rate_is_monotone_and_plateaus() {
        let (files, fsize) = (128, 4 * 1024);
        let ws = files * fsize;
        let mut last = -1.0f64;
        for cap in [ws / 8, ws / 4, ws / 2, ws, ws * 2] {
            let rate = predict_uniform_hit_rate(cap, files, fsize, 20_000);
            assert!(rate >= last - 0.02, "rate dropped at cap={cap}");
            last = rate;
        }
        // Past the working set, more cache buys nothing.
        assert!(
            (last - 1.0).abs() < 0.01,
            "plateau should be ~1.0, got {last}"
        );
    }

    #[test]
    fn ghost_admits_a_quarter_of_uniform_misses() {
        // `chirp-server`'s `a_uniform_sweep_fills_a_quarter_of_its_misses`:
        // 256 pages in 8 shards, single-page reads uniform over 1 024.
        let mut cache = PageCacheModel::new(256, Admission::SecondMiss);
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for _ in 0..4_096 {
            cache.read(rng.below(1_024));
        }
        let before = cache.counts();
        for _ in 0..20_000 {
            cache.read(rng.below(1_024));
        }
        let p = CachePrediction::since(&cache, before);
        assert!((0.23..=0.29).contains(&p.fills_per_miss), "{p:?}");
        assert!((0.23..=0.27).contains(&p.hit_ratio), "{p:?}");
    }

    #[test]
    fn a_full_shard_admits_on_the_second_miss() {
        let mut cache = PageCacheModel::new(2, Admission::SecondMiss);
        assert!(!cache.read(1) && !cache.read(2), "free room fills");
        assert!(cache.read(1) && cache.read(2));
        assert!(!cache.read(3) && !cache.read(3), "first miss: not admitted");
        assert!(cache.read(3), "second miss admitted");
        assert_eq!((cache.misses, cache.fills), (4, 3));
        let mut always = PageCacheModel::new(2, Admission::EveryMiss);
        for page in [1, 2, 3] {
            always.read(page);
        }
        assert!(always.read(3));
    }

    /// The ledger's four workloads, traced pass after warm-up. Only
    /// `stream_rw_cold`'s cache ever fills, so only it moves.
    #[test]
    fn ledger_predictions_under_second_miss_admission() {
        use Admission::*;
        let rw = predict_ledger(LedgerWorkload::StreamRwCold, SecondMiss);
        let rw_before = predict_ledger(LedgerWorkload::StreamRwCold, EveryMiss);
        assert!((0.24..=0.26).contains(&rw.hit_ratio), "{rw:?}");
        assert!(
            (0.24..=0.26).contains(&rw_before.hit_ratio),
            "{rw_before:?}"
        );
        assert!((0.23..=0.29).contains(&rw.fills_per_miss), "{rw:?}");
        assert_eq!(rw_before.fills_per_miss, 1.0);
        for w in [
            LedgerWorkload::StreamReadHot,
            LedgerWorkload::BulkBesideSmall,
        ] {
            let p = predict_ledger(w, SecondMiss);
            assert_eq!(p.hit_ratio, 1.0, "{w:?}");
            assert_eq!(p, predict_ledger(w, EveryMiss), "{w:?}");
        }
        let meta = predict_ledger(LedgerWorkload::MetaStorm, SecondMiss);
        assert!((meta.hit_ratio - 0.8147).abs() < 0.01, "{meta:?}");
        assert_eq!(meta, predict_ledger(LedgerWorkload::MetaStorm, EveryMiss));
    }

    /// A skewed law over a set four times the cache: admission keeps
    /// the hot pages and does not lose to filling every miss.
    #[test]
    fn second_miss_admission_does_not_lose_under_zipf() {
        for (s, fill_all, admitted) in [
            (0.8, 0.640, 0.670),
            (1.0, 0.826, 0.836),
            (1.2, 0.934, 0.934),
        ] {
            let every = predict_zipf(s, 32_768, 8_192, 100_000, Admission::EveryMiss);
            let second = predict_zipf(s, 32_768, 8_192, 100_000, Admission::SecondMiss);
            println!(
                "zipf {s}: {:.4} -> {:.4}",
                every.hit_ratio, second.hit_ratio
            );
            assert!(second.hit_ratio >= every.hit_ratio, "s = {s}");
            assert!(
                (every.hit_ratio - fill_all).abs() < 0.01,
                "s = {s}: {every:?}"
            );
            assert!(
                (second.hit_ratio - admitted).abs() < 0.01,
                "s = {s}: {second:?}"
            );
        }
    }
}
