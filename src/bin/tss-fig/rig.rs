//! The live arms' harness: loopback fixtures for every backend,
//! latency and bandwidth measurement, and table printing.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tss::chirp_client::AuthMethod;
use tss::chirp_proto::testutil::TempDir;
use tss::chirp_proto::OpenFlags;
use tss::chirp_server::acl::Acl;
use tss::chirp_server::{FileServer, ServerConfig};
use tss::core::cfs::{Cfs, CfsConfig, RetryPolicy};
use tss::core::fs::FileSystem;
use tss::core::stubfs::DataServer;
use tss::core::{Dsfs, LocalFs};
use tss::nfs_sim::NfsShape;

/// The same four systems Figures 4 and 5 compare, over loopback.
pub struct Fixtures {
    _dirs: Vec<TempDir>,
    _servers: Vec<FileServer>,
    /// Plain host filesystem ("Unix").
    pub local: Arc<LocalFs>,
    /// Chirp-backed central filesystem ("Parrot+CFS").
    pub cfs: Arc<Cfs>,
    /// NFS-shaped baseline ("Unix+NFS"): the NFS request shape over a
    /// CFS on a server of its own, configured as the CFS one.
    pub nfs: Arc<NfsShape<Cfs>>,
    /// Distributed shared filesystem ("Parrot+DSFS").
    pub dsfs: Arc<Dsfs>,
}

/// Hostname auth for loopback.
pub fn auth() -> Vec<AuthMethod> {
    vec![AuthMethod::Hostname]
}

/// Start a wide-open loopback file server on `root`.
pub fn open_server(root: &Path) -> FileServer {
    FileServer::start(
        ServerConfig::localhost(root, "bench")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .expect("start chirp server")
}

fn fixture_cfs(server: &FileServer) -> Cfs {
    let mut cfg = CfsConfig::new(&server.endpoint(), auth());
    cfg.timeout = Duration::from_secs(10);
    cfg.retry = RetryPolicy::default();
    Cfs::new(cfg)
}

/// Build all four backends on loopback.
pub fn fixtures() -> Fixtures {
    let local_dir = TempDir::new();
    let local = Arc::new(LocalFs::new(local_dir.path()).unwrap());

    let cfs_dir = TempDir::new();
    let cfs_server = open_server(cfs_dir.path());
    let cfs = Arc::new(fixture_cfs(&cfs_server));

    let nfs_dir = TempDir::new();
    let nfs_server = open_server(nfs_dir.path());
    let nfs = Arc::new(NfsShape::new(fixture_cfs(&nfs_server)));

    let meta_dir = TempDir::new();
    let data_dir = TempDir::new();
    let dir_server = open_server(meta_dir.path());
    let data_server = open_server(data_dir.path());
    let pool = vec![DataServer::new(&data_server.endpoint(), "/vol", auth())];
    let dsfs =
        Arc::new(Dsfs::format(&dir_server.endpoint(), "/tree", auth(), pool).expect("format dsfs"));

    Fixtures {
        _dirs: vec![local_dir, cfs_dir, nfs_dir, meta_dir, data_dir],
        _servers: vec![cfs_server, nfs_server, dir_server, data_server],
        local,
        cfs,
        nfs,
        dsfs,
    }
}

/// Mean and standard deviation of `op`'s latency in seconds over
/// `iters` calls after `warmup` unmeasured ones.
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
fn measure_write_bandwidth(fs: &dyn FileSystem, path: &str, block: usize, total: usize) -> f64 {
    let data = vec![0x5au8; block];
    let mut h = fs
        .open(
            path,
            OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE,
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
        .open(path, OpenFlags::READ, 0)
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
