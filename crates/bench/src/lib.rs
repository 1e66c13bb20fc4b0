//! Shared harness for the figure-regeneration binaries and Criterion
//! benches: loopback fixtures for every backend, latency measurement,
//! and table printing.
//!
//! Each paper figure/table has a binary (`fig3` … `fig9`,
//! `sp5_table`) that prints the paper's reported numbers next to what
//! this reproduction produces — a calibrated model where the original
//! needed 2005 hardware, plus live loopback measurements where the
//! protocol shape itself is the claim. EXPERIMENTS.md records the
//! outputs.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_client::AuthMethod;
use chirp_proto::testutil::TempDir;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use tss_core::cfs::{Cfs, CfsConfig, RetryPolicy};
use tss_core::fs::FileSystem;
use tss_core::stubfs::DataServer;
use tss_core::{Dsfs, LocalFs};

/// Default network timeout for fixtures.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A ready-to-measure set of backends over loopback: the same four
/// systems Figure 4/5 compares.
pub struct Fixtures {
    /// Keeps the temp trees alive.
    pub dirs: Vec<TempDir>,
    /// Keeps the servers alive.
    pub chirp_servers: Vec<FileServer>,
    /// Keeps the NFS server alive.
    pub nfs_server: nfs_sim::NfsServer,
    /// Plain host filesystem ("Unix").
    pub local: Arc<LocalFs>,
    /// Chirp-backed central filesystem ("Parrot+CFS").
    pub cfs: Arc<Cfs>,
    /// NFS-shaped baseline ("Unix+NFS").
    pub nfs: Arc<nfs_sim::NfsFs>,
    /// Distributed shared filesystem ("Parrot+DSFS").
    pub dsfs: Arc<Dsfs>,
}

/// Hostname auth for loopback.
pub fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// Start a wide-open loopback file server on `root`.
pub fn open_server(root: &std::path::Path) -> FileServer {
    FileServer::start(
        ServerConfig::localhost(root, "bench")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .expect("start chirp server")
}

/// Build all four backends on loopback.
pub fn fixtures() -> Fixtures {
    let local_dir = TempDir::new();
    let local = Arc::new(LocalFs::new(local_dir.path()).unwrap());

    let cfs_dir = TempDir::new();
    let cfs_server = open_server(cfs_dir.path());
    let mut cfg = CfsConfig::new(&cfs_server.endpoint(), auth());
    cfg.timeout = TIMEOUT;
    cfg.retry = RetryPolicy::default();
    let cfs = Arc::new(Cfs::new(cfg));

    let nfs_dir = TempDir::new();
    let nfs_server =
        nfs_sim::NfsServer::start(nfs_sim::NfsServerConfig::localhost(nfs_dir.path())).unwrap();
    let nfs = Arc::new(nfs_sim::NfsFs::connect(nfs_server.addr(), TIMEOUT).unwrap());

    let meta_dir = TempDir::new();
    let data_dir = TempDir::new();
    let dir_server = open_server(meta_dir.path());
    let data_server = open_server(data_dir.path());
    let pool = vec![DataServer::new(&data_server.endpoint(), "/vol", auth())];
    let dsfs =
        Arc::new(Dsfs::format(&dir_server.endpoint(), "/tree", auth(), pool).expect("format dsfs"));

    Fixtures {
        dirs: vec![local_dir, cfs_dir, nfs_dir, meta_dir, data_dir],
        chirp_servers: vec![cfs_server, dir_server, data_server],
        nfs_server,
        local,
        cfs,
        nfs,
        dsfs,
    }
}

/// Mean and standard deviation of `op`'s latency over `iters` calls
/// after `warmup` unmeasured ones.
pub fn measure_latency(mut op: impl FnMut(), warmup: u32, iters: u32) -> (f64, f64) {
    for _ in 0..warmup {
        op();
    }
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        op();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

/// Copy `total` bytes into `path` on `fs` using `block`-sized writes;
/// returns achieved bandwidth in bytes/s. Asynchronous writes, as in
/// the paper's Figure 5 ("we show asynchronous writes in order to
/// evaluate maximum performance").
pub fn measure_write_bandwidth(fs: &dyn FileSystem, path: &str, block: usize, total: usize) -> f64 {
    let data = vec![0x5au8; block];
    let mut h = fs
        .open(
            path,
            chirp_proto::OpenFlags::WRITE
                | chirp_proto::OpenFlags::CREATE
                | chirp_proto::OpenFlags::TRUNCATE,
            0o644,
        )
        .expect("open for bandwidth");
    let t0 = Instant::now();
    let mut written = 0usize;
    while written < total {
        let n = (total - written).min(block);
        h.pwrite(&data[..n], written as u64).expect("pwrite");
        written += n;
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Best of `reps` bandwidth runs: the maximum filters out background
/// page-cache writeback stalls that would otherwise dominate the
/// variance on a shared host.
pub fn best_write_bandwidth(
    fs: &dyn FileSystem,
    path: &str,
    block: usize,
    total: usize,
    reps: u32,
) -> f64 {
    (0..reps)
        .map(|_| measure_write_bandwidth(fs, path, block, total))
        .fold(0.0, f64::max)
}

/// Read `total` bytes back in `block`-sized reads; bytes/s.
pub fn measure_read_bandwidth(fs: &dyn FileSystem, path: &str, block: usize, total: usize) -> f64 {
    let mut buf = vec![0u8; block];
    let mut h = fs
        .open(path, chirp_proto::OpenFlags::READ, 0)
        .expect("open for read bandwidth");
    let t0 = Instant::now();
    let mut read = 0usize;
    while read < total {
        let n = h.pread(&mut buf, read as u64).expect("pread");
        assert!(n > 0, "short file during bandwidth read");
        read += n;
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Print an aligned table: `headers` then `rows` of equal length.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format seconds as a human latency (µs with 1 decimal).
pub fn fmt_us(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e6)
}

/// Format bytes/s as MB/s.
pub fn fmt_mbs(bytes_per_s: f64) -> String {
    format!("{:.1}", bytes_per_s / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_come_up_and_serve_all_backends() {
        let f = fixtures();
        for (name, fs) in [
            ("local", f.local.clone() as Arc<dyn FileSystem>),
            ("cfs", f.cfs.clone() as Arc<dyn FileSystem>),
            ("nfs", f.nfs.clone() as Arc<dyn FileSystem>),
            ("dsfs", f.dsfs.clone() as Arc<dyn FileSystem>),
        ] {
            fs.write_file("/probe", b"x")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(fs.read_file("/probe").unwrap(), b"x", "{name}");
        }
    }

    #[test]
    fn bandwidth_measurement_is_positive() {
        let f = fixtures();
        let bw = measure_write_bandwidth(f.local.as_ref(), "/bw", 64 * 1024, 1 << 20);
        assert!(bw > 0.0);
        let rbw = measure_read_bandwidth(f.local.as_ref(), "/bw", 64 * 1024, 1 << 20);
        assert!(rbw > 0.0);
    }

    #[test]
    fn latency_measurement_returns_sane_stats() {
        let (mean, dev) = measure_latency(
            || {
                std::hint::black_box(1 + 1);
            },
            10,
            100,
        );
        assert!(mean >= 0.0 && dev >= 0.0);
    }
}

// ---- pipelining fixtures ---------------------------------------------------

/// A [`Dialer`](chirp_proto::transport::Dialer) wrapper charging a fixed turnaround latency every time
/// a connection switches from writing to reading — one sleep per
/// client-observed round trip. Loopback TCP completes a small RPC in
/// microseconds, so without this a pipelining benchmark would measure
/// syscall overhead; with it, the benchmark measures what request
/// pipelining actually buys: `ceil(n / depth)` round trips for `n`
/// requests instead of `n`.
pub fn latency_dialer(
    inner: chirp_proto::transport::Dialer,
    turnaround: Duration,
) -> chirp_proto::transport::Dialer {
    chirp_proto::transport::Dialer::from_arc(Arc::new(LatencyDial { inner, turnaround }))
}

struct LatencyDial {
    inner: chirp_proto::transport::Dialer,
    turnaround: Duration,
}

impl chirp_proto::transport::Dial for LatencyDial {
    fn dial(
        &self,
        endpoint: &str,
        timeout: Duration,
    ) -> std::io::Result<Box<dyn chirp_proto::transport::Transport>> {
        let inner = self.inner.dial(endpoint, timeout)?;
        Ok(Box::new(LatencyTransport {
            inner,
            turnaround: self.turnaround,
            wrote: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }))
    }
}

/// See [`latency_dialer`]. The write-then-read flag is shared across
/// [`Transport::try_clone`] halves so the buffered reader and writer
/// of one connection observe a single turnaround state.
#[derive(Debug)]
struct LatencyTransport {
    inner: Box<dyn chirp_proto::transport::Transport>,
    turnaround: Duration,
    wrote: Arc<std::sync::atomic::AtomicBool>,
}

impl std::io::Read for LatencyTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.wrote.swap(false, std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(self.turnaround);
        }
        self.inner.read(buf)
    }
}

impl std::io::Write for LatencyTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.wrote.store(true, std::sync::atomic::Ordering::SeqCst);
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl chirp_proto::transport::Transport for LatencyTransport {
    fn try_clone(&self) -> std::io::Result<Box<dyn chirp_proto::transport::Transport>> {
        Ok(Box::new(LatencyTransport {
            inner: self.inner.try_clone()?,
            turnaround: self.turnaround,
            wrote: Arc::clone(&self.wrote),
        }))
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn read_timeout(&self) -> std::io::Result<Option<Duration>> {
        self.inner.read_timeout()
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
    fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.inner.peer_addr()
    }
    fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.inner.local_addr()
    }
    fn shutdown(&self) -> std::io::Result<()> {
        self.inner.shutdown()
    }
}

/// Issue `count` 1 KiB-class `PREAD`s for `(fd, len)` over one
/// connection in pipelined batches of `depth` (depth 1 = the classic
/// one-RPC-at-a-time loop), asserting every reply returns `len` bytes.
pub fn pipelined_preads(
    conn: &mut chirp_client::Connection,
    fd: i32,
    len: u64,
    count: usize,
    depth: usize,
) {
    use chirp_proto::{ReplyShape, Request};
    let mut done = 0usize;
    while done < count {
        let batch = depth.min(count - done);
        conn.pipeline(depth, |pipe| {
            for _ in 0..batch {
                pipe.send(
                    &Request::Pread {
                        fd,
                        length: len,
                        offset: 0,
                    },
                    None,
                    ReplyShape::Body,
                )?;
            }
            pipe.flush()?;
            for _ in 0..batch {
                let body = pipe.recv()?.into_body();
                assert_eq!(body.len() as u64, len);
            }
            Ok(())
        })
        .expect("pipelined pread batch");
        done += batch;
    }
}

/// Issue `count` `STAT`s for `path` over one connection in pipelined
/// batches of `depth`, asserting every reply carries stat words.
pub fn pipelined_stats(
    conn: &mut chirp_client::Connection,
    path: &str,
    count: usize,
    depth: usize,
) {
    use chirp_proto::{ReplyShape, Request};
    let mut done = 0usize;
    while done < count {
        let batch = depth.min(count - done);
        conn.pipeline(depth, |pipe| {
            for _ in 0..batch {
                pipe.send(
                    &Request::Stat {
                        path: path.to_string(),
                    },
                    None,
                    ReplyShape::Status,
                )?;
            }
            pipe.flush()?;
            for _ in 0..batch {
                let st = pipe.recv()?;
                assert!(!st.status().words.is_empty());
            }
            Ok(())
        })
        .expect("pipelined stat batch");
        done += batch;
    }
}
