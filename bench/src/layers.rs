//! The traced run: per-layer metrics, measured from outside the
//! program three ways.
//!
//! 1. *Seam spans* ([`crate::trace`]): where the time of an
//!    application call goes between adapter, abstraction and wire.
//! 2. *Registry deltas*: what the servers, the connection pool and the
//!    clients counted while the calls were made.
//! 3. *Layer probes*: timed loops straight into public functions of a
//!    layer, median of batches.
//!
//! One client on one thread makes a fixed number of steps, so every
//! count repeats exactly for a seed.

use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use catalog::report::ServerReport;
use catalog::server::{CatalogConfig, CatalogServer};
use chirp_client::{AuthMethod, Connection};
use chirp_proto::transport::Dialer;
use chirp_proto::{wire, Request};
use chirp_server::acl::Acl;
use chirp_server::cache::{file_key, PageCache};
use chirp_server::FileServer;
use telemetry::{HistogramSnapshot, Registry};
use tss_core::pool::ServerPool;
use tss_core::stubfs::{DataServer, StubFsOptions};

use crate::affinity;
use crate::gen::BLOCK;
use crate::run::{scratch_dir, self_check, Opts, Outcome, Row, ServerCounts};
use crate::stats::median;
use crate::trace::{self, Span, WireStats};
use crate::workload::{Fixture, Mode, Tally, Workload, CACHE_BYTES, PAGE_BYTES, REACTOR_WORKERS};

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over `batches` of the mean time of one call, ns.
fn probe_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Batches × calls of a probe: in-memory probes, and probes that open
/// a connection per call (fewer, so sockets in TIME_WAIT stay few).
struct ProbeSize {
    batches: usize,
    calls: usize,
    connecting_calls: usize,
}

impl ProbeSize {
    fn of(opts: &Opts) -> ProbeSize {
        if opts.smoke {
            ProbeSize {
                batches: 3,
                calls: 50,
                connecting_calls: 5,
            }
        } else {
            ProbeSize {
                batches: 10,
                calls: 1000,
                connecting_calls: 100,
            }
        }
    }
}

/// Make the traced plan's steps on `fixture`, on this thread.
/// The caller has put it on processor 0, where client 0's
/// connections are served.
fn drive(fixture: &mut Fixture, tally: &mut Tally, smoke: bool) -> Duration {
    let (steps, background_every) = fixture.workload.trace_plan();
    let steps = if smoke { steps / 20 } else { steps };
    let start = Instant::now();
    for i in 1..=steps {
        let background = background_every != 0 && i % background_every == 0;
        fixture.clients[background as usize].step(tally);
    }
    start.elapsed()
}

fn merged_histogram(counts: &ServerCounts, name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for s in &counts.per_server {
        if let Some(h) = s.histogram(name) {
            out.merge(h);
        }
    }
    out
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

// ---- probes that need the fixture's servers -----------------------------------------

fn null_rtt_us(server: &FileServer, size: &ProbeSize) -> io::Result<f64> {
    // The reactor deals connections round-robin: time the round trip
    // from the processor the next connection's worker runs on, like
    // the clients', not across processors.
    let worker = server.stats().snapshot().connections as usize % REACTOR_WORKERS;
    affinity::pin_current(Some(worker));
    let endpoint = server.endpoint();
    let mut conn = Connection::connect(endpoint, Duration::from_secs(10)).map_err(other)?;
    conn.authenticate(&[AuthMethod::Hostname]).map_err(other)?;
    let mut failed = false;
    let ns = probe_ns(size.batches, size.calls, || {
        failed |= conn.whoami().is_err();
    });
    affinity::pin_current(Some(0));
    if failed {
        return Err(io::Error::other("WHOAMI failed"));
    }
    Ok(ns / 1e3)
}

fn handshake_us(endpoint: &str, size: &ProbeSize) -> io::Result<f64> {
    let dialer = Dialer::tcp();
    let mut failed = false;
    let ns = probe_ns(size.batches, size.connecting_calls, || {
        let ok = Connection::connect_via(&dialer, endpoint, Duration::from_secs(10))
            .and_then(|mut c| c.authenticate(&[AuthMethod::Hostname]));
        failed |= ok.is_err();
    });
    if failed {
        return Err(io::Error::other("connect + authenticate failed"));
    }
    Ok(ns / 1e3)
}

fn catalog_query_us(report: &str, size: &ProbeSize) -> io::Result<f64> {
    let mut catalog = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(600)))?;
    for i in 0..4 {
        let mut r = ServerReport::parse(report).ok_or_else(|| other("unparseable report"))?;
        r.name = format!("bench-{i}");
        catalog.ingest(r);
    }
    let addr: SocketAddr = catalog.tcp_addr();
    let mut failed = false;
    let ns = probe_ns(size.batches, size.connecting_calls, || {
        let listing = catalog::client::query(addr, Duration::from_secs(10));
        failed |= !matches!(listing, Ok(l) if l.len() == 4);
    });
    catalog.shutdown();
    if failed {
        return Err(io::Error::other("catalog query failed"));
    }
    Ok(ns / 1e3)
}

// ---- probes that need nothing but a directory ------------------------------------------

fn pool_checkout_ns(size: &ProbeSize) -> f64 {
    // Connections dial lazily, so a checkout/checkin pair on an
    // endpoint nobody listens on measures the pool alone.
    let endpoint = "127.0.0.1:9";
    let server = DataServer::new(endpoint, "/vol", vec![AuthMethod::Hostname]);
    let pool = ServerPool::new(vec![server], StubFsOptions::default());
    drop(pool.checkout(endpoint));
    probe_ns(size.batches, size.calls, || drop(pool.checkout(endpoint)))
}

fn acl_check_ns(dir: &Path, size: &ProbeSize) -> io::Result<f64> {
    // Ten entries at the root, asked for three levels down: the shape
    // of every request on the workloads' trees.
    let deep = dir.join("a/b/c");
    std::fs::create_dir_all(&deep)?;
    let mut acl = Acl::new();
    for i in 0..9 {
        acl.set(&format!("globus:/O=Bench/CN=user{i}"), "rl")
            .map_err(other)?;
    }
    acl.set("hostname:*", "rwlda").map_err(other)?;
    acl.store(dir).map_err(other)?;
    let mut failed = false;
    let ns = probe_ns(size.batches, size.calls, || {
        let rights = Acl::load_effective(dir, &deep).map(|a| a.rights_of("hostname:localhost"));
        failed |= !matches!(rights, Ok(r) if !r.is_empty());
    });
    if failed {
        return Err(io::Error::other("ACL probe found no rights"));
    }
    Ok(ns)
}

/// `(hit, miss + fill + evict)` time per page on a standalone cache.
fn cache_page_ns(dir: &Path, size: &ProbeSize) -> io::Result<(f64, f64)> {
    const PAGES: u64 = 1024;
    let path = dir.join("pages");
    std::fs::write(&path, vec![0x5a; PAGES as usize * PAGE_BYTES])?;
    let file = File::open(&path)?;
    let key = file_key(&file.metadata()?);
    let bytes = PAGES * PAGE_BYTES as u64;
    // Room for a sixteenth of the file: a sequential sweep never hits.
    let cache = PageCache::new(bytes / 16, PAGE_BYTES, &Registry::new());
    let mut failed = false;
    let mut read = |page: u64| {
        let got = cache.read(
            &file,
            key,
            page * PAGE_BYTES as u64,
            PAGE_BYTES,
            bytes,
            true,
        );
        failed |= !matches!(got, Ok(r) if r.total() == PAGE_BYTES);
    };
    read(0);
    let hit = probe_ns(size.batches, size.calls, || read(0));
    let mut next = 0;
    let miss = probe_ns(size.batches, size.calls, || {
        next = (next + 1) % PAGES;
        read(next);
    });
    if failed {
        return Err(io::Error::other("cache probe read short"));
    }
    Ok((hit, miss))
}

fn telemetry_ns(size: &ProbeSize) -> (f64, f64) {
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    let histogram = registry.histogram("probe.histogram");
    let mut v = 1u64;
    (
        probe_ns(size.batches, size.calls, || counter.inc()),
        probe_ns(size.batches, size.calls, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(v >> 40);
        }),
    )
}

/// Codec probes over the workload's own lines: `(encode, parse,
/// status parse)` ns per line.
fn codec_ns(requests: &[String], statuses: &[String], size: &ProbeSize) -> io::Result<[f64; 3]> {
    let parsed: Vec<Request> = requests
        .iter()
        .filter_map(|l| Request::parse(l).ok())
        .collect();
    if parsed.is_empty() || statuses.is_empty() {
        return Err(io::Error::other(
            "the traced run captured no protocol lines",
        ));
    }
    let mut i = 0;
    let mut next = |len: usize| {
        i = (i + 1) % len;
        i
    };
    let encode = probe_ns(size.batches, size.calls, || {
        std::hint::black_box(parsed[next(parsed.len())].encode());
    });
    let parse = probe_ns(size.batches, size.calls, || {
        let _ = std::hint::black_box(Request::parse(&requests[next(requests.len())]));
    });
    let status = probe_ns(size.batches, size.calls, || {
        let _ = std::hint::black_box(wire::parse_status(&statuses[next(statuses.len())]));
    });
    Ok([encode, parse, status])
}

/// The traced dialer's counters at one instant.
#[derive(Clone, Copy)]
struct WireCounts {
    write_calls: u64,
    bytes: u64,
    rpcs: u64,
    wait_ns: u64,
}

impl WireCounts {
    fn take(stats: &WireStats) -> WireCounts {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WireCounts {
            write_calls: load(&stats.write_calls),
            bytes: load(&stats.bytes_out) + load(&stats.bytes_in),
            rpcs: load(&stats.rpcs),
            wait_ns: load(&stats.wait_ns),
        }
    }

    fn since(self, earlier: &WireCounts) -> WireCounts {
        WireCounts {
            write_calls: self.write_calls - earlier.write_calls,
            bytes: self.bytes - earlier.bytes,
            rpcs: self.rpcs - earlier.rpcs,
            wait_ns: self.wait_ns - earlier.wait_ns,
        }
    }
}

/// What the abstractions a traced fixture owns have counted: the
/// `client.*` registry of each `Cfs`, the pool of each `Dsfs`.
#[derive(Clone, Copy)]
struct ClientCounts {
    retries: u64,
    pool_hits: u64,
    pool_misses: u64,
    readahead_hits: u64,
    readahead_misses: u64,
}

impl ClientCounts {
    fn take(fixture: &Fixture) -> ClientCounts {
        let cfs: Vec<_> = fixture
            .owned
            .cfs
            .iter()
            .map(|c| c.telemetry().snapshot())
            .collect();
        let counter = |name: &str| -> u64 { cfs.iter().filter_map(|s| s.counter(name)).sum() };
        let pools: Vec<_> = fixture
            .owned
            .dsfs
            .iter()
            .map(|d| d.stubfs().pool_stats())
            .collect();
        ClientCounts {
            retries: counter("client.retries") + pools.iter().map(|p| p.retries).sum::<u64>(),
            pool_hits: pools.iter().map(|p| p.hits).sum(),
            pool_misses: pools.iter().map(|p| p.misses).sum(),
            readahead_hits: counter("client.readahead.hits"),
            readahead_misses: counter("client.readahead.misses"),
        }
    }

    fn since(self, earlier: &ClientCounts) -> ClientCounts {
        ClientCounts {
            retries: self.retries - earlier.retries,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            readahead_hits: self.readahead_hits - earlier.readahead_hits,
            readahead_misses: self.readahead_misses - earlier.readahead_misses,
        }
    }
}

// ---- the traced run ----------------------------------------------------------------------

/// Self time summed per layer (`app`, `fs`, `wire`), and the summed
/// duration of the root spans.
struct LayerTimes {
    app: u64,
    fs: u64,
    wire: u64,
    roots: u64,
}

fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut t = LayerTimes {
        app: 0,
        fs: 0,
        wire: 0,
        roots: 0,
    };
    for (s, own) in spans.iter().zip(trace::self_times(spans)) {
        match trace::layer(s.name) {
            "app" => t.app += own,
            "fs" => t.fs += own,
            _ => t.wire += own,
        }
        if s.parent == 0 {
            t.roots += s.end_ns - s.start_ns;
        }
    }
    t
}

/// Run `workload` under `seed` once untraced, once traced and once on
/// the local floor, probe the layers, and report the per-layer
/// metrics. Writes `trace_<workload>.json` under `opts.out`.
pub fn traced(workload: Workload, seed: u64, opts: &Opts) -> io::Result<Outcome> {
    let size = ProbeSize::of(opts);
    let mut total = Tally::default();

    // The same steps with tracing off: the base of the overhead ratio.
    // Everything below runs on processor 0 (a build ends unpinned).
    let mut fixture = Fixture::build(workload, seed, Mode::Live, &scratch_dir(&opts.out))?;
    affinity::pin_current(Some(0));
    let mut untraced = Tally::default();
    let untraced_took = drive(&mut fixture, &mut untraced, opts.smoke);
    total.absorb(&fixture.warmup);
    total.absorb(&untraced);
    drop(fixture);

    let mut fixture = Fixture::build(workload, seed, Mode::Traced, &scratch_dir(&opts.out))?;
    affinity::pin_current(Some(0));
    let wire_stats = fixture
        .wire
        .clone()
        .expect("a traced fixture counts its wire");
    let wire_before = WireCounts::take(&wire_stats);
    let clients_before = ClientCounts::take(&fixture);
    let before = ServerCounts::take(&fixture.servers);

    trace::start();
    let mut tally = Tally::default();
    let traced_took = drive(&mut fixture, &mut tally, opts.smoke);
    let spans = trace::finish();

    let during = ServerCounts::take(&fixture.servers).since(&before);
    let wire = WireCounts::take(&wire_stats).since(&wire_before);
    let clients = ClientCounts::take(&fixture).since(&clients_before);
    let retries = clients.retries;

    let mut wrong = self_check(workload, &tally, &during);
    if retries != 0 {
        wrong.push(format!("client.retries = {retries}"));
    }
    let times = layer_times(&spans);
    let gap = ratio(
        (times.app + times.fs + times.wire).abs_diff(times.roots) as f64,
        times.roots as f64,
    );
    if gap > 0.05 {
        wrong.push(format!("layer self times miss the root spans by {gap:.3}"));
    }

    let requests = wire_stats
        .request_lines
        .lock()
        .expect("samples poisoned")
        .clone();
    let statuses = wire_stats
        .status_lines
        .lock()
        .expect("samples poisoned")
        .clone();
    let [encode_ns, parse_ns, status_parse_ns] = codec_ns(&requests, &statuses, &size)?;
    let adapter = fixture.adapter()?;
    let paths = fixture.sample_paths();
    let mut i = 0;
    let resolve_ns = probe_ns(size.batches, size.calls, || {
        i = (i + 1) % paths.len();
        let _ = std::hint::black_box(adapter.resolve(&paths[i]));
    });
    drop(adapter);
    let endpoint = fixture.endpoints()[0].clone();
    let rtt_us = null_rtt_us(&fixture.servers[0], &size)?;
    let auth_us = handshake_us(&endpoint, &size)?;
    let query_us = catalog_query_us(&fixture.servers[0].compose_report(), &size)?;
    let wq_peak = ServerCounts::take(&fixture.servers).gauge_max("reactor.wq_peak_bytes");
    fixture.final_check(&mut tally)?;
    total.absorb(&fixture.warmup);
    total.absorb(&tally);
    drop(fixture);

    let mut fixture = Fixture::build(workload, seed, Mode::Floor, &scratch_dir(&opts.out))?;
    affinity::pin_current(Some(0));
    let mut floor = Tally::default();
    let floor_took = drive(&mut fixture, &mut floor, opts.smoke);
    total.absorb(&fixture.warmup);
    total.absorb(&floor);
    drop(fixture);

    let probe_dir = scratch_dir(&opts.out);
    std::fs::create_dir_all(&probe_dir)?;
    let acl_ns = acl_check_ns(&probe_dir, &size);
    let page_ns = cache_page_ns(&probe_dir, &size);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let (hit_page_ns, miss_fill_page_ns) = page_ns?;
    let (counter_ns, histogram_ns) = telemetry_ns(&size);

    std::fs::create_dir_all(&opts.out)?;
    std::fs::write(
        opts.out.join(format!("trace_{}.json", workload.name())),
        trace::to_json(workload.name(), seed, &spans),
    )?;
    for w in &wrong {
        eprintln!("self-check failed: {w}");
    }

    let ops = tally.attempted as f64;
    let rpcs = during.rpcs() as f64;
    let per_op_us = |ns: u64| ratio(ns as f64 / 1e3, ops);
    let hits = during.counter("cache.hits") as f64;
    let misses = during.counter("cache.misses") as f64;
    let hit_ratio = ratio(hits, hits + misses);
    let read_set = workload.read_set_bytes();
    let predicted = if read_set <= CACHE_BYTES {
        1.0
    } else {
        simnet::cache::predict_uniform_hit_rate(
            CACHE_BYTES,
            read_set / BLOCK as u64,
            BLOCK as u64,
            20_000,
        )
    };
    let rpc_latency = merged_histogram(&during, "rpc.latency_ns");
    let data_latency = merged_histogram(&during, "rpc.data.latency_ns");
    let untraced_rate = ratio(untraced.attempted as f64, untraced_took.as_secs_f64());
    let traced_rate = ratio(ops, traced_took.as_secs_f64());

    let n = tally.attempted;
    let row = |name: &str, unit: &str, value: f64| Row::new(name, unit, value, n);
    let rows = vec![
        row("adapter.self_us_per_op", "us", per_op_us(times.app)),
        row("adapter.resolve_ns", "ns", resolve_ns),
        row("abstraction.self_us_per_op", "us", per_op_us(times.fs)),
        row("abstraction.rpcs_per_op", "count", ratio(rpcs, ops)),
        row("abstraction.retries", "count", retries as f64),
        row(
            "abstraction.readahead_hit_ratio",
            "ratio",
            ratio(
                clients.readahead_hits as f64,
                (clients.readahead_hits + clients.readahead_misses) as f64,
            ),
        ),
        row("pool.checkout_ns", "ns", pool_checkout_ns(&size)),
        row(
            "pool.hit_ratio",
            "ratio",
            ratio(
                clients.pool_hits as f64,
                (clients.pool_hits + clients.pool_misses) as f64,
            ),
        ),
        row(
            "pool.connects",
            "count",
            wire_stats.dials.load(Ordering::Relaxed) as f64,
        ),
        row("proto.encode_ns", "ns", encode_ns),
        row("proto.parse_ns", "ns", parse_ns),
        row("proto.status_parse_ns", "ns", status_parse_ns),
        row("wire.self_us_per_op", "us", per_op_us(times.wire)),
        row(
            "wire.bytes_per_user_byte",
            "ratio",
            ratio(wire.bytes as f64, tally.bytes as f64),
        ),
        row(
            "wire.writes_per_rpc",
            "count",
            ratio(wire.write_calls as f64, wire.rpcs as f64),
        ),
        row(
            "wire.wait_us_per_rpc",
            "us",
            ratio(wire.wait_ns as f64 / 1e3, wire.rpcs as f64),
        ),
        row("reactor.null_rtt_us", "us", rtt_us),
        row(
            "reactor.wakeups_per_rpc",
            "count",
            ratio(during.counter("reactor.wakeups") as f64, rpcs),
        ),
        row(
            "reactor.loops_per_rpc",
            "count",
            ratio(during.counter("reactor.loop_iterations") as f64, rpcs),
        ),
        row(
            "reactor.backpressure",
            "count",
            during.counter("reactor.backpressure") as f64,
        ),
        row("reactor.wq_peak_bytes", "bytes", wq_peak as f64),
        row(
            "handlers.rpc_mean_us",
            "us",
            ratio(rpc_latency.sum as f64 / 1e3, rpc_latency.count as f64),
        ),
        row(
            "handlers.data_rpc_mean_us",
            "us",
            ratio(data_latency.sum as f64 / 1e3, data_latency.count as f64),
        ),
        row(
            "handlers.errors",
            "count",
            during.counter("rpc.errors") as f64,
        ),
        row(
            "handlers.acl_denied",
            "count",
            during.counter("rpc.acl_denied") as f64,
        ),
        row("acl.check_ns", "ns", acl_ns?),
        row("auth.handshake_us", "us", auth_us),
        Row {
            predicted: Some(predicted),
            ..row("cache.hit_ratio", "ratio", hit_ratio)
        },
        row("cache.predicted_hit_ratio", "ratio", predicted),
        row("cache.hit_ratio_residual", "ratio", hit_ratio - predicted),
        row(
            "cache.bytes_from_cache_share",
            "ratio",
            ratio(
                during.counter("cache.bytes_from_cache") as f64,
                during.counter("rpc.bytes_out") as f64,
            ),
        ),
        row(
            "cache.evicted_pages_per_op",
            "count",
            ratio(during.counter("cache.evicted_pages") as f64, ops),
        ),
        row(
            "cache.invalidated_pages_per_op",
            "count",
            ratio(during.counter("cache.invalidated_pages") as f64, ops),
        ),
        row("cache.hit_page_ns", "ns", hit_page_ns),
        row("cache.miss_fill_page_ns", "ns", miss_fill_page_ns),
        row(
            "localfs.floor_us_per_op",
            "us",
            ratio(floor_took.as_nanos() as f64 / 1e3, floor.attempted as f64),
        ),
        row(
            "localfs.floor_mb_per_s",
            "MB/s",
            ratio(floor.bytes as f64 / 1e6, floor_took.as_secs_f64()),
        ),
        row("catalog.query_us", "us", query_us),
        row(
            "thirdput.mb_per_s",
            "MB/s",
            ratio(
                tally.thirdput_bytes as f64 / 1e6,
                tally.thirdput_ns as f64 / 1e9,
            ),
        ),
        row("telemetry.counter_ns", "ns", counter_ns),
        row("telemetry.histogram_ns", "ns", histogram_ns),
        row(
            "trace.overhead_ratio",
            "ratio",
            ratio(traced_rate, untraced_rate),
        ),
        row("trace.ops", "count", ops),
        row("trace.spans", "count", spans.len() as f64),
        row("trace.untraced_ops_per_s", "1/s", untraced_rate),
        row("trace.traced_ops_per_s", "1/s", traced_rate),
        row("trace.self_time_gap_ratio", "ratio", gap),
    ];
    Ok(Outcome {
        correct: wrong.is_empty() && total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        rows,
    })
}
