//! The measured run: set-up, a window of closed-loop load from two
//! client threads with tracing off, the end-to-end metrics, and the
//! self-checks that fail a run whose numbers would not mean what they
//! claim.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use chirp_server::FileServer;
use telemetry::{MetricValue, MetricsSnapshot};

use crate::affinity;
use crate::stats::{median, percentile, supported_percentile, P99_MIN_SAMPLES};
use crate::workload::{Fixture, Mode, Slice, Tally, Workload, CLIENTS};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
    /// What a `simnet` model predicts, where one exists.
    pub predicted: Option<f64>,
}

impl Row {
    pub fn new(name: &str, unit: &str, value: f64, n: u64) -> Row {
        Row {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
            predicted: None,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
}

#[derive(Debug, Clone)]
pub struct Opts {
    /// Length of the measured window.
    pub seconds: f64,
    /// Shrink everything to a smoke test: one set-up, a fraction of the
    /// traced steps and probe batches.
    pub smoke: bool,
    /// Where data sets and traces go.
    pub out: PathBuf,
}

impl Opts {
    /// Set-ups per run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// A directory of its own under `out/data` for one fixture.
pub fn scratch_dir(out: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    out.join("data").join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Counters of a set of servers at one instant.
pub struct ServerCounts {
    pub per_server: Vec<MetricsSnapshot>,
    pub connections: u64,
}

impl ServerCounts {
    pub fn take(servers: &[FileServer]) -> ServerCounts {
        ServerCounts {
            per_server: servers
                .iter()
                .map(|s| s.telemetry().registry().snapshot())
                .collect(),
            connections: servers
                .iter()
                .map(|s| s.stats().snapshot().connections)
                .sum(),
        }
    }

    /// What happened since `earlier`, per server.
    pub fn since(&self, earlier: &ServerCounts) -> ServerCounts {
        ServerCounts {
            per_server: self
                .per_server
                .iter()
                .zip(&earlier.per_server)
                .map(|(now, then)| now.delta(then))
                .collect(),
            connections: self.connections - earlier.connections,
        }
    }

    /// A counter summed over the servers.
    pub fn counter(&self, name: &str) -> u64 {
        self.per_server.iter().filter_map(|s| s.counter(name)).sum()
    }

    /// The largest reading of a gauge on any server (0 if none has it).
    pub fn gauge_max(&self, name: &str) -> i64 {
        let readings = self
            .per_server
            .iter()
            .filter_map(|s| match s.metrics.get(name) {
                Some(MetricValue::Gauge(g)) => Some(*g),
                _ => None,
            });
        readings.max().unwrap_or(0)
    }

    /// RPCs served, all ops, all servers.
    pub fn rpcs(&self) -> u64 {
        self.per_server.iter().map(server_rpcs).sum()
    }
}

fn server_rpcs(s: &MetricsSnapshot) -> u64 {
    s.metrics
        .iter()
        .filter(|(k, _)| k.starts_with("rpc.") && k.ends_with(".count"))
        .filter_map(|(k, _)| s.counter(k))
        .sum()
}

/// The checks every run must pass, measured or traced, given what the
/// servers counted while `tally`'s calls were made. Returns what went
/// wrong; empty means the run stands.
pub fn self_check(workload: Workload, tally: &Tally, servers: &ServerCounts) -> Vec<String> {
    let mut wrong = Vec::new();
    if tally.attempted != tally.completed + tally.failed {
        wrong.push(format!(
            "attempted {} != completed {} + failed {}",
            tally.attempted, tally.completed, tally.failed
        ));
    }
    if servers.rpcs() == 0 {
        wrong.push("the servers saw no RPC".to_string());
    }
    for (i, s) in servers.per_server.iter().enumerate() {
        // Proves the reactor core, not the threaded one, served it.
        if server_rpcs(s) > 0 && s.counter("reactor.loop_iterations").unwrap_or(0) == 0 {
            wrong.push(format!("server {i} served RPCs without a reactor loop"));
        }
    }
    if workload == Workload::StreamReadHot && servers.counter("cache.hits") == 0 {
        wrong.push("no cache hit on a read set that fits the cache".to_string());
    }
    let errors = servers.counter("rpc.errors");
    if errors != tally.expected_not_found {
        wrong.push(format!(
            "rpc.errors {errors} != the generator's {} missing paths",
            tally.expected_not_found
        ));
    }
    // A retry reconnects, and nothing else opens a connection once the
    // fixture is warm except a THIRDPUT's push to the second server.
    if servers.connections != tally.thirdputs {
        wrong.push(format!(
            "{} connections accepted, expected {} (client retries must be 0)",
            servers.connections, tally.thirdputs
        ));
    }
    wrong
}

/// Peak resident set of this process, MB (10^6 bytes).
fn rss_peak_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Median over the window's slices of a per-slice figure.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&slices.iter().map(f).collect::<Vec<f64>>())
}

/// Median over the slices of a latency percentile, in µs; each
/// slice's samples are in ascending order. A slice with too few
/// samples for the percentile is left out; with no slice left the
/// pooled sample gives the highest percentile it supports.
fn latency_us(slices: &[Slice], p: f64, min_samples: usize) -> f64 {
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|s| s.probe_ns.len() >= min_samples.max(1))
        .map(|s| percentile(&s.probe_ns, p) as f64 / 1e3)
        .collect();
    if !per_slice.is_empty() {
        return median(&per_slice);
    }
    let mut pooled: Vec<u32> = slices
        .iter()
        .flat_map(|s| s.probe_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let p = supported_percentile(pooled.len()).map_or(1.0, |best| best.min(p));
    percentile(&pooled, p) as f64 / 1e3
}

/// Run `workload` under `seed` and report the end-to-end metrics.
pub fn live(workload: Workload, seed: u64, opts: &Opts) -> io::Result<Outcome> {
    let build = || Fixture::build(workload, seed, Mode::Live, &scratch_dir(&opts.out));
    let mut fixture = build()?;
    let mut setup_s = vec![fixture.setup.as_secs_f64()];

    let slices = (opts.seconds.round() as usize).max(1);
    let slice = Duration::from_secs_f64(opts.seconds / slices as f64);
    let before = ServerCounts::take(&fixture.servers);
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let threads: Vec<_> = fixture
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    affinity::pin_current(Some(i));
                    let mut tally = Tally::windowed(start, slice, slices);
                    while !tally.expired() {
                        client.step(&mut tally);
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let during = ServerCounts::take(&fixture.servers).since(&before);

    let mut total = Tally::default();
    tallies.iter().for_each(|t| total.absorb(t));
    let wrong = self_check(workload, &total, &during);
    for w in &wrong {
        eprintln!("self-check failed: {w}");
    }
    fixture.final_check(&mut total)?;
    total.absorb(&fixture.warmup);
    // Before the extra set-ups, so the peak is that of one fixture.
    let rss_peak_mb = rss_peak_mb()?;
    drop(fixture);
    // One set-up is too short to time steadily: set up a few more
    // times, now that nothing measured can be disturbed by it.
    for _ in 1..opts.setups() {
        let again = build()?;
        setup_s.push(again.setup.as_secs_f64());
        total.absorb(&again.warmup);
    }

    // Both clients' slices side by side, latencies in ascending order.
    let merged: Vec<Slice> = (0..slices)
        .map(|i| {
            let mut m = Slice::default();
            for t in &tallies {
                let s = &t.slices()[i];
                m.calls += s.calls;
                m.bytes += s.bytes;
                m.probe_ns.extend_from_slice(&s.probe_ns);
            }
            m.probe_ns.sort_unstable();
            m
        })
        .collect();
    let secs = slice.as_secs_f64();
    let calls: u64 = merged.iter().map(|s| s.calls).sum();
    let probes: u64 = merged.iter().map(|s| s.probe_ns.len() as u64).sum();
    let background = tallies[CLIENTS - 1].slices();
    let background_calls = background.iter().map(|s| s.calls).sum();
    let mb_per_s = |s: &Slice| s.bytes as f64 / 1e6 / secs;
    let rows = vec![
        Row::new(
            "ops_per_s",
            "1/s",
            slice_median(&merged, |s| s.calls as f64 / secs),
            calls,
        ),
        Row::new("mb_per_s", "MB/s", slice_median(&merged, mb_per_s), calls),
        Row::new("lat_p50_us", "us", latency_us(&merged, 0.5, 1), probes),
        Row::new(
            "lat_p99_us",
            "us",
            latency_us(&merged, 0.99, P99_MIN_SAMPLES),
            probes,
        ),
        Row::new(
            "bg_mb_per_s",
            "MB/s",
            slice_median(background, mb_per_s),
            background_calls,
        ),
        Row::new("rss_peak_mb", "MB", rss_peak_mb, 1),
        Row::new("setup_s", "s", median(&setup_s), setup_s.len() as u64),
    ];
    Ok(Outcome {
        correct: wrong.is_empty() && total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        rows,
    })
}
