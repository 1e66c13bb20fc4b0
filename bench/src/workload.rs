//! The fixture every workload shares, the four workloads, and the
//! tally their calls are recorded in.
//!
//! A workload is a pair of *clients* — client 0 carries the probe op,
//! client 1 is the background where the workload has one — and each
//! client is a state machine advanced one logical operation per
//! [`Client::step`]. The measured run drives the two on two threads
//! against the clock; the traced run interleaves them on one thread
//! for a fixed number of steps, so counts repeat exactly.
//!
//! The program under test sees only paths and bytes produced from the
//! seed. No workload name reaches it.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chirp_client::AuthMethod;
use chirp_proto::transport::Dialer;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::config::CoreKind;
use chirp_server::{FileServer, ServerConfig};
use tss_core::adapter::{Adapter, AdapterConfig, Namespace};
use tss_core::cfs::{Cfs, CfsConfig};
use tss_core::fs::FileHandle;
use tss_core::stub::Stub;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{Dsfs, OpenedFile, Placement};

use crate::affinity;
use crate::gen::{DataGen, Rng, BLOCK};
use crate::trace::{self, TracedDialer, TracedFs, WireStats};

// ---- fixture constants (the same for every workload) ------------------------

/// Server buffer cache budget.
pub const CACHE_BYTES: u64 = 64 << 20;
/// Server buffer cache page size.
pub const PAGE_BYTES: usize = 8192;
/// Reactor shards per server: what the default resolves to on a 2-core
/// machine, pinned so the numbers mean the same elsewhere.
pub const REACTOR_WORKERS: usize = 2;
/// Closed-loop client threads, one request outstanding each.
pub const CLIENTS: usize = 2;

const MIB: usize = 1 << 20;
const STREAM_FILE: usize = 4 * MIB;
const BLOCKS_PER_FILE: u64 = (STREAM_FILE / BLOCK) as u64;

const META_DIRS: u32 = 40;
const META_PER_DIR: u32 = 50;
const META_FILES: u32 = META_DIRS * META_PER_DIR;
const META_FILE: usize = 4096;
const META_DATA_SERVERS: usize = 3;

const HOT_FILES: u32 = 12;
const COLD_FILES: u32 = 64;
const COLD_REWRITTEN: usize = 16;

const SMALL_RECORD: usize = 64;
const SMALL_RECORDS: u64 = 16 * 1024;
const BULK_BYTES: usize = 8 * MIB;
/// `DataGen` file ids of the `bulk_beside_small` files.
const SMALL_ID: u32 = 0;
const BULK_SRC_ID: u32 = 1;
const BULK_DST_ID: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaStorm,
    StreamReadHot,
    StreamRwCold,
    BulkBesideSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetaStorm,
        Workload::StreamReadHot,
        Workload::StreamRwCold,
        Workload::BulkBesideSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaStorm => "meta_storm",
            Workload::StreamReadHot => "stream_read_hot",
            Workload::StreamRwCold => "stream_rw_cold",
            Workload::BulkBesideSmall => "bulk_beside_small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn servers(self) -> usize {
        match self {
            Workload::MetaStorm => 1 + META_DATA_SERVERS,
            Workload::StreamReadHot | Workload::StreamRwCold => 1,
            Workload::BulkBesideSmall => 2,
        }
    }

    /// Steps each client takes before measurement, so caches fill and
    /// every connection is open and authenticated. Fixed work, not
    /// fixed time, so that set-up time measures the program.
    fn warm_steps(self) -> [u64; CLIENTS] {
        match self {
            Workload::MetaStorm => [3000, 3000],
            // One pass over the whole set each.
            Workload::StreamReadHot => [HOT_FILES as u64 * BLOCKS_PER_FILE; 2],
            // Twice the cache in random blocks; one file rewritten.
            Workload::StreamRwCold => [2 * CACHE_BYTES / BLOCK as u64, BLOCKS_PER_FILE],
            Workload::BulkBesideSmall => [2000, 3],
        }
    }

    /// The traced run: how many steps, and which of them belong to the
    /// background client (every `n`th; 0 = the probe client only).
    pub fn trace_plan(self) -> (u64, u64) {
        match self {
            // 1.6 calls per step: about 20 000 calls.
            Workload::MetaStorm => (12_500, 0),
            Workload::StreamReadHot => (4096, 0),
            Workload::StreamRwCold => (4096, 4),
            Workload::BulkBesideSmall => (20_000, 1000),
        }
    }

    /// Bytes the probe's reads range over, for the cache predictor.
    pub fn read_set_bytes(self) -> u64 {
        match self {
            Workload::MetaStorm => META_FILES as u64 * META_FILE as u64,
            Workload::StreamReadHot => HOT_FILES as u64 * STREAM_FILE as u64,
            Workload::StreamRwCold => COLD_FILES as u64 * STREAM_FILE as u64,
            Workload::BulkBesideSmall => SMALL_RECORDS * SMALL_RECORD as u64,
        }
    }
}

/// How the clients reach the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Adapter → abstraction → loopback TCP → server, as shipped.
    Live,
    /// The same, with the seam decorators of [`crate::trace`] in place.
    Traced,
    /// Adapter → `LocalFs` on a plain copy of the data set: the floor
    /// no network layer can beat.
    Floor,
}

// ---- the tally ----------------------------------------------------------------

/// Start and end of one timed application call.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    start: Instant,
    end: Instant,
}

/// Time one application call (and, in the traced run, record it as a
/// request span).
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Lap) {
    let start = Instant::now();
    let out = trace::request(name, f);
    (
        out,
        Lap {
            start,
            end: Instant::now(),
        },
    )
}

/// One equal share of the measured window.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    pub calls: u64,
    pub bytes: u64,
    /// Probe-op latencies, nanoseconds.
    pub probe_ns: Vec<u32>,
}

#[derive(Debug)]
struct Window {
    start: Instant,
    slice: Duration,
    slices: Vec<Slice>,
}

/// Everything one client did: counts for the whole run, and per-slice
/// rates and latencies inside the measured window.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// User payload bytes read and written by completed calls.
    pub bytes: u64,
    /// Calls that asked for a missing path and got `NotFound`, as the
    /// generator intended. Each is one server-side `rpc.errors`.
    pub expected_not_found: u64,
    pub thirdputs: u64,
    pub thirdput_bytes: u64,
    pub thirdput_ns: u64,
    window: Option<Window>,
    expired: bool,
}

impl Tally {
    /// A tally that also slices a window of `slices` × `slice` from
    /// `start`.
    pub fn windowed(start: Instant, slice: Duration, slices: usize) -> Tally {
        Tally {
            window: Some(Window {
                start,
                slice,
                slices: vec![Slice::default(); slices],
            }),
            ..Tally::default()
        }
    }

    /// Record a call: `ok` is the verdict of the output check, `bytes`
    /// its user payload, `probe` whether it is the workload's probe op.
    pub fn record(&mut self, lap: Lap, ok: bool, bytes: u64, probe: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        self.completed += 1;
        self.bytes += bytes;
        let took = lap.end.duration_since(lap.start);
        if let Some(w) = self.window.as_mut() {
            let at = lap.end.saturating_duration_since(w.start);
            let i = (at.as_nanos() / w.slice.as_nanos().max(1)) as usize;
            match w.slices.get_mut(i) {
                Some(s) => {
                    s.calls += 1;
                    s.bytes += bytes;
                    if probe {
                        s.probe_ns
                            .push(took.as_nanos().min(u32::MAX as u128) as u32);
                    }
                }
                None => self.expired = true,
            }
        }
    }

    /// The window has run out (always false without a window).
    pub fn expired(&self) -> bool {
        self.expired
    }

    pub fn slices(&self) -> &[Slice] {
        self.window.as_ref().map_or(&[], |w| &w.slices)
    }

    /// Fold `other`'s whole-run counts into this tally.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.expected_not_found += other.expected_not_found;
        self.thirdputs += other.thirdputs;
        self.thirdput_bytes += other.thirdput_bytes;
        self.thirdput_ns += other.thirdput_ns;
    }
}

// ---- the op stream ---------------------------------------------------------------

/// Everything the seed decides, drawn in one fixed order: a private
/// random stream per client, the order each `stream_read_hot` client
/// walks the files in, and which files `stream_rw_cold` rewrites.
pub struct Plan {
    pub client_rng: [Rng; CLIENTS],
    pub hot_order: [Vec<u32>; CLIENTS],
    pub cold_rewritten: Vec<u32>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let client_rng = [Rng::new(rng.next_u64()), Rng::new(rng.next_u64())];
        let hot_order = [rng.permutation(HOT_FILES), rng.permutation(HOT_FILES)];
        let mut cold_rewritten = rng.permutation(COLD_FILES);
        cold_rewritten.truncate(COLD_REWRITTEN);
        Plan {
            client_rng,
            hot_order,
            cold_rewritten,
        }
    }
}

/// One `meta_storm` operation: 50 % stat, 30 % open + read + close,
/// 15 % readdir, 5 % stat of a path that does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    Stat(u32),
    Read(u32),
    List(u32),
    Missing(u32),
}

pub fn meta_op(rng: &mut Rng) -> MetaOp {
    let dice = rng.below(100);
    let file = rng.below(META_FILES as u64) as u32;
    match dice {
        0..50 => MetaOp::Stat(file),
        50..80 => MetaOp::Read(file),
        80..95 => MetaOp::List(file / META_PER_DIR),
        _ => MetaOp::Missing(file),
    }
}

/// One `stream_rw_cold` probe read: `(file, offset)`.
pub fn cold_block(rng: &mut Rng) -> (u32, u64) {
    let file = rng.below(COLD_FILES as u64) as u32;
    (file, rng.below(BLOCKS_PER_FILE) * BLOCK as u64)
}

/// One `bulk_beside_small` probe read: the record's offset.
pub fn small_record(rng: &mut Rng) -> u64 {
    rng.below(SMALL_RECORDS) * SMALL_RECORD as u64
}

// ---- clients ------------------------------------------------------------------

pub trait Client: Send {
    /// One logical operation: one to three application calls.
    fn step(&mut self, tally: &mut Tally);
}

fn meta_path(file: u32) -> String {
    format!("/data/d{:02}/f{file:04}", file / META_PER_DIR)
}

/// `meta_storm`: the SP5-initialisation mix of small metadata calls.
struct MetaClient {
    adapter: Adapter,
    gen: Arc<DataGen>,
    rng: Rng,
    buf: Vec<u8>,
}

impl Client for MetaClient {
    fn step(&mut self, tally: &mut Tally) {
        match meta_op(&mut self.rng) {
            MetaOp::Stat(file) => {
                let path = meta_path(file);
                let (res, lap) = timed("app.stat", || self.adapter.stat(&path));
                let ok = matches!(res, Ok(st) if st.size == META_FILE as u64);
                tally.record(lap, ok, 0, true);
            }
            MetaOp::Read(file) => {
                let path = meta_path(file);
                let (res, lap) = timed("app.open", || self.adapter.open(&path, OpenFlags::READ, 0));
                tally.record(lap, res.is_ok(), 0, true);
                let Ok(mut opened) = res else { return };
                let (res, lap) = timed("app.read", || opened.read(&mut self.buf));
                let ok = matches!(res, Ok(n) if n == META_FILE)
                    && self.gen.check(file, 0, META_FILE, &self.buf);
                tally.record(lap, ok, META_FILE as u64, true);
                let ((), lap) = timed("app.close", || drop(opened));
                tally.record(lap, true, 0, true);
            }
            MetaOp::List(dir) => {
                let path = format!("/data/d{dir:02}");
                let (res, lap) = timed("app.readdir", || self.adapter.readdir(&path));
                let first = format!("f{:04}", dir * META_PER_DIR);
                let ok = matches!(res, Ok(names)
                    if names.len() == META_PER_DIR as usize && names.contains(&first));
                tally.record(lap, ok, 0, true);
            }
            MetaOp::Missing(file) => {
                let path = format!("/data/d{:02}/missing-{file:04}", file / META_PER_DIR);
                let (res, lap) = timed("app.stat", || self.adapter.stat(&path));
                let ok = matches!(res, Err(e) if e.kind() == io::ErrorKind::NotFound);
                tally.expected_not_found += ok as u64;
                tally.record(lap, ok, 0, true);
            }
        }
    }
}

fn stream_path(dir: &str, file: u32) -> String {
    format!("/data/{dir}/f{file:02}")
}

/// `stream_read_hot`: sequential 64 KiB reads of whole files, looping
/// over the set in a seeded order.
struct StreamReader {
    adapter: Adapter,
    gen: Arc<DataGen>,
    order: Vec<u32>,
    next: usize,
    open: Option<(u32, OpenedFile, u64)>,
    buf: Vec<u8>,
}

impl Client for StreamReader {
    fn step(&mut self, tally: &mut Tally) {
        if self.open.is_none() {
            let file = self.order[self.next % self.order.len()];
            self.next += 1;
            let path = stream_path("hot", file);
            let (res, lap) = timed("app.open", || self.adapter.open(&path, OpenFlags::READ, 0));
            tally.record(lap, res.is_ok(), 0, false);
            let Ok(opened) = res else { return };
            self.open = Some((file, opened, 0));
        }
        let (file, opened, offset) = self.open.as_mut().expect("opened above");
        let (res, lap) = timed("app.read", || opened.read(&mut self.buf));
        let ok =
            matches!(res, Ok(n) if n == BLOCK) && self.gen.check(*file, *offset, BLOCK, &self.buf);
        tally.record(lap, ok, BLOCK as u64, true);
        *offset += BLOCK as u64;
        if !ok || *offset == STREAM_FILE as u64 {
            let closing = self.open.take();
            let ((), lap) = timed("app.close", || drop(closing));
            tally.record(lap, true, 0, false);
        }
    }
}

/// `stream_rw_cold` probe: uniformly random aligned 64 KiB reads over
/// a set four times the cache, on handles opened during set-up.
struct ColdReader {
    gen: Arc<DataGen>,
    rng: Rng,
    handles: Vec<Box<dyn FileHandle>>,
    buf: Vec<u8>,
}

impl Client for ColdReader {
    fn step(&mut self, tally: &mut Tally) {
        let (file, offset) = cold_block(&mut self.rng);
        let handle = &mut self.handles[file as usize];
        let (res, lap) = timed("app.pread", || handle.pread(&mut self.buf, offset));
        let ok =
            matches!(res, Ok(n) if n == BLOCK) && self.gen.check(file, offset, BLOCK, &self.buf);
        tally.record(lap, ok, BLOCK as u64, true);
    }
}

/// `stream_rw_cold` background: rewrites whole files of the read set
/// in place with the bytes they already hold.
struct ColdWriter {
    adapter: Adapter,
    gen: Arc<DataGen>,
    files: Vec<u32>,
    next: usize,
    open: Option<(u32, Box<dyn FileHandle>, u64)>,
    buf: Vec<u8>,
}

impl Client for ColdWriter {
    fn step(&mut self, tally: &mut Tally) {
        if self.open.is_none() {
            let file = self.files[self.next % self.files.len()];
            self.next += 1;
            let path = stream_path("cold", file);
            let (res, lap) = timed("app.open", || {
                self.adapter.open_handle(&path, OpenFlags::WRITE, 0)
            });
            tally.record(lap, res.is_ok(), 0, false);
            let Ok(handle) = res else { return };
            self.open = Some((file, handle, 0));
        }
        let (file, handle, offset) = self.open.as_mut().expect("opened above");
        self.gen.fill(*file, *offset, BLOCK, &mut self.buf);
        let (res, lap) = timed("app.pwrite", || handle.pwrite(&self.buf, *offset));
        let ok = matches!(res, Ok(n) if n == BLOCK);
        tally.record(lap, ok, BLOCK as u64, false);
        *offset += BLOCK as u64;
        if !ok || *offset == STREAM_FILE as u64 {
            let closing = self.open.take();
            let ((), lap) = timed("app.close", || drop(closing));
            tally.record(lap, true, 0, false);
        }
    }
}

/// `bulk_beside_small` probe: 64-byte reads on an open file over two
/// connections, one per reactor shard of the first server. The first
/// shares its shard with the bulk connection and takes seven reads in
/// eight; the second has its shard to itself and takes the eighth.
/// An even split would put the median on the cliff between the two.
struct SmallReader {
    gen: Arc<DataGen>,
    rng: Rng,
    handles: [Box<dyn FileHandle>; 2],
    /// Kept so the connections the handles ride on stay open.
    _adapters: [Adapter; 2],
    reads: u64,
    buf: [u8; SMALL_RECORD],
}

impl Client for SmallReader {
    fn step(&mut self, tally: &mut Tally) {
        let offset = small_record(&mut self.rng);
        self.reads += 1;
        let handle = &mut self.handles[usize::from(self.reads.is_multiple_of(8))];
        let (res, lap) = timed("app.pread", || handle.pread(&mut self.buf, offset));
        let ok = matches!(res, Ok(n) if n == SMALL_RECORD)
            && self.gen.check(SMALL_ID, offset, SMALL_RECORD, &self.buf);
        tally.record(lap, ok, SMALL_RECORD as u64, true);
    }
}

/// How the bulk client moves a file from the first server to the
/// second without the bytes visiting the client.
enum Thirdput {
    /// `THIRDPUT` over the bulk client's one connection to the first
    /// server, so all its bulk work queues on one reactor shard.
    Chirp { source: Arc<Cfs>, target: String },
    /// On the floor there is no second server: a local copy.
    LocalCopy,
}

/// What the bulk client does between two bulk operations: it stands
/// for the application's own work on each file. A probe read that
/// meets a bulk operation on its shard waits the operation out, so
/// with one read outstanding each operation makes exactly one slow
/// read; the pause lets some twenty fast ones through between them.
/// That puts one read in twenty behind bulk work: the median sits
/// among the fast reads, the 99th percentile among the slow ones, and
/// neither on the cliff between.
const BULK_THINK: Duration = Duration::from_micros(500);

/// `bulk_beside_small` background: whole-file read, whole-file write,
/// third-party transfer, 8 MiB each, in rotation, a pause after each.
struct BulkMover {
    adapter: Adapter,
    gen: Arc<DataGen>,
    thirdput: Thirdput,
    phase: u32,
    outgoing: Vec<u8>,
}

impl BulkMover {
    /// Remove last round's file before writing this round's. Writing
    /// over it instead would be a replace-by-truncate, which ext4
    /// answers by flushing the new file to disk as soon as it is
    /// closed: 16 MiB of disk writes per round, and their noise, in a
    /// benchmark of the network path.
    fn unlink(&self, path: &str, tally: &mut Tally) {
        let (res, lap) = timed("app.unlink", || self.adapter.unlink(path));
        let first_round = matches!(&res, Err(e) if e.kind() == io::ErrorKind::NotFound);
        tally.expected_not_found += first_round as u64;
        tally.record(lap, res.is_ok() || first_round, 0, false);
    }
}

impl Client for BulkMover {
    fn step(&mut self, tally: &mut Tally) {
        let phase = self.phase % 3;
        self.phase += 1;
        match phase {
            0 => {
                let (res, lap) =
                    timed("app.read_file", || self.adapter.read_file("/data/bulk_src"));
                let ok = matches!(&res, Ok(data) if data.len() == BULK_BYTES
                    && self.gen.check(BULK_SRC_ID, 0, BLOCK, data));
                tally.record(lap, ok, BULK_BYTES as u64, false);
            }
            1 => {
                self.unlink("/data/bulk_dst", tally);
                let (res, lap) = timed("app.write_file", || {
                    self.adapter.write_file("/data/bulk_dst", &self.outgoing)
                });
                tally.record(lap, res.is_ok(), BULK_BYTES as u64, false);
            }
            _ => {
                self.unlink("/peer/bulk_copy", tally);
                let (res, lap) = timed("app.thirdput", || match &self.thirdput {
                    Thirdput::Chirp { source, target } => trace::span("fs.thirdput", || {
                        source.thirdput("/bulk_src", target, "/bulk_copy")
                    }),
                    Thirdput::LocalCopy => self
                        .adapter
                        .read_file("/data/bulk_src")
                        .and_then(|data| self.adapter.write_file("/peer/bulk_copy", &data))
                        .map(|()| BULK_BYTES as u64),
                });
                let ok = matches!(res, Ok(n) if n == BULK_BYTES as u64);
                if ok {
                    tally.thirdputs += 1;
                    tally.thirdput_bytes += BULK_BYTES as u64;
                    tally.thirdput_ns += lap.end.duration_since(lap.start).as_nanos() as u64;
                }
                tally.record(lap, ok, BULK_BYTES as u64, false);
            }
        }
        std::thread::sleep(BULK_THINK);
    }
}

// ---- the fixture ----------------------------------------------------------------

fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// The abstractions a traced fixture built itself (instead of letting
/// the adapter build them) so their registries can be read afterwards.
#[derive(Default)]
pub struct Owned {
    pub cfs: Vec<Arc<Cfs>>,
    pub dsfs: Vec<Arc<Dsfs>>,
}

/// Servers, data set, adapters and clients of one workload, ready to
/// measure. Dropping it stops the servers and removes the data.
pub struct Fixture {
    pub workload: Workload,
    pub servers: Vec<FileServer>,
    pub clients: Vec<Box<dyn Client>>,
    /// Calls made while building and warming; folded into the totals.
    pub warmup: Tally,
    /// How long the program took to get ready: servers started, mounts
    /// made, connections opened and authenticated, caches warmed. The
    /// benchmark's own writing of the data set is left out — it is not
    /// the program's work, and the disk makes it the noisiest part.
    pub setup: Duration,
    pub wire: Option<Arc<WireStats>>,
    pub owned: Owned,
    gen: Arc<DataGen>,
    mounts: Arc<Mounts>,
    /// Last, so the data outlives the servers that export it.
    _dir: Scratch,
}

/// A directory removed when dropped, however the build ended.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What an adapter needs to know to mount `/data` (and `/peer`).
struct Mounts {
    workload: Workload,
    mode: Mode,
    endpoints: Vec<String>,
    roots: Vec<PathBuf>,
    traced: Option<Dialer>,
    owned: Mutex<Owned>,
}

impl Mounts {
    fn dialer(&self) -> Dialer {
        self.traced.clone().unwrap_or_default()
    }

    fn data_pool(&self) -> Vec<DataServer> {
        self.endpoints[1..]
            .iter()
            .map(|e| DataServer::new(e, "/vol", auth()))
            .collect()
    }

    /// One application's view: "one Parrot per process".
    fn adapter(&self) -> io::Result<Adapter> {
        Ok(self.adapter_keeping(false)?.0)
    }

    /// An adapter, and the `Cfs` mounts the benchmark built for it
    /// itself instead of leaving them to `Adapter::cfs_for`: all of
    /// them in a traced fixture (the seam decorator goes in front, the
    /// registries are read afterwards), and with `keep` in a live one
    /// too (the bulk client needs its `Cfs` for `THIRDPUT`).
    fn adapter_keeping(&self, keep: bool) -> io::Result<(Adapter, Vec<Arc<Cfs>>)> {
        let config = AdapterConfig {
            dialer: self.dialer(),
            ..AdapterConfig::default()
        };
        let mut adapter = Adapter::new(config.clone())?;
        let mut ns = Namespace::new();
        let mut kept = Vec::new();
        let traced = self.mode == Mode::Traced;
        match (self.mode, self.workload) {
            (Mode::Floor, Workload::MetaStorm) => {
                ns.mount("/data", &format!("/local{}/tree", self.roots[0].display()));
            }
            (Mode::Floor, _) => {
                for (name, root) in ["/data", "/peer"].iter().zip(&self.roots) {
                    ns.mount(name, &format!("/local{}", root.display()));
                }
            }
            (Mode::Live, Workload::MetaStorm) => {
                let root = adapter.mount_dsfs(&self.endpoints[0], "/tree", self.data_pool())?;
                ns.mount("/data", &root);
            }
            (Mode::Traced, Workload::MetaStorm) => {
                // What `Adapter::mount_dsfs` does, with the handle kept
                // and the seam decorator in front.
                let options = StubFsOptions {
                    timeout: config.timeout,
                    retry: config.retry,
                    dialer: config.dialer.clone(),
                    clock: config.clock.clone(),
                    ..StubFsOptions::default()
                };
                let dsfs = Arc::new(Dsfs::with_options(
                    &self.endpoints[0],
                    "/tree",
                    auth(),
                    self.data_pool(),
                    Placement::round_robin(),
                    options,
                )?);
                let root = format!("/dsfs/{}@tree", self.endpoints[0]);
                adapter.register(&root, Arc::new(TracedFs(dsfs.clone())));
                self.owned.lock().expect("owned poisoned").dsfs.push(dsfs);
                ns.mount("/data", &root);
            }
            (Mode::Live | Mode::Traced, _) => {
                for (name, endpoint) in ["/data", "/peer"].iter().zip(&self.endpoints) {
                    let root = format!("/cfs/{endpoint}");
                    ns.mount(name, &root);
                    if !(keep || traced) {
                        continue;
                    }
                    // What `Adapter::cfs_for` does.
                    let mut cfg = CfsConfig::new(endpoint, config.auth.clone());
                    cfg.timeout = config.timeout;
                    cfg.retry = config.retry;
                    cfg.dialer = config.dialer.clone();
                    let cfs = Arc::new(Cfs::new(cfg));
                    if traced {
                        adapter.register(&root, Arc::new(TracedFs(cfs.clone())));
                        self.owned
                            .lock()
                            .expect("owned poisoned")
                            .cfs
                            .push(cfs.clone());
                    } else {
                        adapter.register(&root, cfs.clone());
                    }
                    kept.push(cfs);
                }
            }
        }
        adapter.set_namespace(ns);
        Ok((adapter, kept))
    }
}

fn start_server(root: &Path) -> io::Result<FileServer> {
    let acl = Acl::single("hostname:*", "rwlda").map_err(|e| io::Error::other(e.to_string()))?;
    let mut config = ServerConfig::localhost(root, "bench")
        .with_root_acl(acl)
        .with_cache(CACHE_BYTES)
        .with_core(CoreKind::Reactor);
    config.cache_page_bytes = PAGE_BYTES;
    config.reactor_workers = REACTOR_WORKERS;
    FileServer::start(config)
}

fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    std::fs::write(path, bytes)
}

/// Write the data set straight into the server roots.
fn populate(
    workload: Workload,
    mode: Mode,
    gen: &DataGen,
    roots: &[PathBuf],
    endpoints: &[String],
) -> io::Result<()> {
    match workload {
        Workload::MetaStorm => {
            let tree = roots[0].join("tree");
            for dir in 0..META_DIRS {
                std::fs::create_dir_all(tree.join(format!("d{dir:02}")))?;
            }
            if mode != Mode::Floor {
                for root in &roots[1..] {
                    std::fs::create_dir_all(root.join("vol"))?;
                }
            }
            for file in 0..META_FILES {
                let entry = tree.join(format!("d{:02}/f{file:04}", file / META_PER_DIR));
                let data = gen.file_bytes(file, META_FILE, META_FILE);
                if mode == Mode::Floor {
                    write_file(&entry, &data)?;
                    continue;
                }
                // Round-robin placement, as `Placement::round_robin`
                // would have made it.
                let server = 1 + file as usize % META_DATA_SERVERS;
                let stub = Stub {
                    endpoint: endpoints[server].clone(),
                    data_path: format!("/vol/f{file:04}"),
                };
                write_file(&entry, stub.render().as_bytes())?;
                write_file(&roots[server].join(format!("vol/f{file:04}")), &data)?;
            }
        }
        Workload::StreamReadHot | Workload::StreamRwCold => {
            let (dir, files) = if workload == Workload::StreamReadHot {
                ("hot", HOT_FILES)
            } else {
                ("cold", COLD_FILES)
            };
            std::fs::create_dir_all(roots[0].join(dir))?;
            for file in 0..files {
                let data = gen.file_bytes(file, STREAM_FILE, BLOCK);
                write_file(&roots[0].join(format!("{dir}/f{file:02}")), &data)?;
            }
        }
        Workload::BulkBesideSmall => {
            let small = gen.file_bytes(
                SMALL_ID,
                SMALL_RECORDS as usize * SMALL_RECORD,
                SMALL_RECORD,
            );
            write_file(&roots[0].join("small.dat"), &small)?;
            let bulk = gen.file_bytes(BULK_SRC_ID, BULK_BYTES, BLOCK);
            write_file(&roots[0].join("bulk_src"), &bulk)?;
        }
    }
    Ok(())
}

impl Fixture {
    /// Build everything under `dir` (created; removed on drop) and warm
    /// it up. The whole of this is what `setup_s` times.
    pub fn build(workload: Workload, seed: u64, mode: Mode, dir: &Path) -> io::Result<Fixture> {
        let start = Instant::now();
        std::fs::create_dir_all(dir)?;
        let scratch = Scratch(dir.to_path_buf());
        let gen = Arc::new(DataGen::new(seed));
        let Plan {
            client_rng,
            hot_order,
            cold_rewritten,
        } = Plan::new(seed);
        let roots: Vec<PathBuf> = (0..workload.servers())
            .map(|i| dir.join(format!("s{i}")))
            .collect();
        for root in &roots {
            std::fs::create_dir_all(root)?;
        }
        let servers = match mode {
            Mode::Floor => Vec::new(),
            _ => roots
                .iter()
                .map(|r| start_server(r))
                .collect::<io::Result<Vec<_>>>()?,
        };
        affinity::pin_reactor_workers(servers.len() * REACTOR_WORKERS);
        let endpoints: Vec<String> = servers.iter().map(FileServer::endpoint).collect();
        let populating = Instant::now();
        populate(workload, mode, &gen, &roots, &endpoints)?;
        let populated = populating.elapsed();

        let (traced, wire) = match mode {
            Mode::Traced => {
                let (dialer, stats) = TracedDialer::tcp();
                (Some(dialer), Some(stats))
            }
            _ => (None, None),
        };
        let mounts = Arc::new(Mounts {
            workload,
            mode,
            endpoints,
            roots,
            traced,
            owned: Mutex::new(Owned::default()),
        });

        let clients: Vec<Box<dyn Client>> = match workload {
            Workload::MetaStorm => client_rng
                .into_iter()
                .map(|rng| {
                    Ok(Box::new(MetaClient {
                        adapter: mounts.adapter()?,
                        gen: gen.clone(),
                        rng,
                        buf: vec![0; META_FILE],
                    }) as Box<dyn Client>)
                })
                .collect::<io::Result<_>>()?,
            Workload::StreamReadHot => hot_order
                .into_iter()
                .map(|order| {
                    Ok(Box::new(StreamReader {
                        adapter: mounts.adapter()?,
                        gen: gen.clone(),
                        order,
                        next: 0,
                        open: None,
                        buf: vec![0; BLOCK],
                    }) as Box<dyn Client>)
                })
                .collect::<io::Result<_>>()?,
            Workload::StreamRwCold => {
                let reader = mounts.adapter()?;
                let handles = (0..COLD_FILES)
                    .map(|f| reader.open_handle(&stream_path("cold", f), OpenFlags::READ, 0))
                    .collect::<io::Result<Vec<_>>>()?;
                let [rng, _] = client_rng;
                vec![
                    Box::new(ColdReader {
                        gen: gen.clone(),
                        rng,
                        handles,
                        buf: vec![0; BLOCK],
                    }),
                    Box::new(ColdWriter {
                        adapter: mounts.adapter()?,
                        gen: gen.clone(),
                        files: cold_rewritten,
                        next: 0,
                        open: None,
                        buf: vec![0; BLOCK],
                    }),
                ]
            }
            Workload::BulkBesideSmall => {
                // The order of connecting fixes the reactor shard of
                // each connection on the first server: the probe's two,
                // then the bulk client's → shards 0, 1, 0.
                let adapters = [mounts.adapter()?, mounts.adapter()?];
                let open = |a: &Adapter| a.open_handle("/data/small.dat", OpenFlags::READ, 0);
                let handles = [open(&adapters[0])?, open(&adapters[1])?];
                let (bulk, mut kept) = mounts.adapter_keeping(true)?;
                bulk.stat("/data/bulk_src")?;
                let thirdput = match mode {
                    Mode::Floor => Thirdput::LocalCopy,
                    _ => Thirdput::Chirp {
                        source: kept.swap_remove(0),
                        target: mounts.endpoints[1].clone(),
                    },
                };
                let [rng, _] = client_rng;
                vec![
                    Box::new(SmallReader {
                        gen: gen.clone(),
                        rng,
                        handles,
                        _adapters: adapters,
                        reads: 0,
                        buf: [0; SMALL_RECORD],
                    }),
                    Box::new(BulkMover {
                        adapter: bulk,
                        gen: gen.clone(),
                        thirdput,
                        phase: 0,
                        outgoing: gen.file_bytes(BULK_DST_ID, BULK_BYTES, BLOCK),
                    }),
                ]
            }
        };

        let owned = std::mem::take(&mut *mounts.owned.lock().expect("owned poisoned"));
        let mut fixture = Fixture {
            workload,
            servers,
            clients,
            warmup: Tally::default(),
            setup: Duration::ZERO,
            wire,
            owned,
            gen,
            mounts,
            _dir: scratch,
        };
        // Client by client, each from the processor it will run on, so
        // client `i`'s connections are the `i`th on every server.
        let warm = workload.warm_steps();
        for (i, (client, steps)) in fixture.clients.iter_mut().zip(warm).enumerate() {
            affinity::pin_current(Some(i));
            for _ in 0..steps {
                client.step(&mut fixture.warmup);
            }
        }
        affinity::pin_current(None);
        fixture.setup = start.elapsed() - populated;
        Ok(fixture)
    }

    /// Checks that need the run to be over: the third-party copy on the
    /// second server holds the source's bytes.
    pub fn final_check(&self, tally: &mut Tally) -> io::Result<()> {
        if self.workload == Workload::BulkBesideSmall && tally.thirdputs > 0 {
            let adapter = self.mounts.adapter()?;
            let (res, lap) = timed("app.read_file", || adapter.read_file("/peer/bulk_copy"));
            let ok = matches!(&res, Ok(data) if data.len() == BULK_BYTES
                && self.gen.check(BULK_SRC_ID, 0, BLOCK, data));
            tally.record(lap, ok, BULK_BYTES as u64, false);
        }
        Ok(())
    }

    /// A fresh adapter on this fixture's mounts (for layer probes).
    pub fn adapter(&self) -> io::Result<Adapter> {
        self.mounts.adapter()
    }

    pub fn endpoints(&self) -> &[String] {
        &self.mounts.endpoints
    }

    /// A few of the logical paths the clients use (for layer probes).
    pub fn sample_paths(&self) -> Vec<String> {
        match self.workload {
            Workload::MetaStorm => (0..64).map(|i| meta_path(i * 31 % META_FILES)).collect(),
            Workload::StreamReadHot => (0..HOT_FILES).map(|f| stream_path("hot", f)).collect(),
            Workload::StreamRwCold => (0..COLD_FILES).map(|f| stream_path("cold", f)).collect(),
            Workload::BulkBesideSmall => vec!["/data/small.dat".into(), "/data/bulk_src".into()],
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Clients first: their handles close over live connections.
        self.clients.clear();
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

/// Hash of what the seed decides for `workload`: the plan, and the
/// first `steps` picks of the probe client. Calls the same functions
/// the clients call.
#[cfg(test)]
pub fn op_stream_hash(workload: Workload, seed: u64, steps: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut plan = Plan::new(seed);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let rng = &mut plan.client_rng[0];
    match workload {
        Workload::MetaStorm => (0..steps).for_each(|_| format!("{:?}", meta_op(rng)).hash(&mut h)),
        Workload::StreamReadHot => plan.hot_order.hash(&mut h),
        Workload::StreamRwCold => {
            plan.cold_rewritten.hash(&mut h);
            (0..steps).for_each(|_| cold_block(rng).hash(&mut h));
        }
        Workload::BulkBesideSmall => (0..steps).for_each(|_| small_record(rng).hash(&mut h)),
    }
    h.finish()
}
