//! Request-pipelining smoke, run by stage 0 of `scripts/verify.sh`: small
//! ops (1 KiB `PREAD`, `STAT`) on one Chirp stream in batches of 8 and
//! of 1, asserting the acceptance floor — ≥2× small-op throughput at
//! pipeline depth 8 vs depth 1 — in a couple hundred milliseconds.
//!
//! Loopback hides the term pipelining attacks, so the client's dialer
//! charges a turnaround latency per write→read switch (a propagation
//! round trip): `n` requests in batches of `depth` pay
//! `ceil(n / depth)` turnarounds instead of `n`.
//!
//! The margin is deliberate: the true ratio on this rig is ~8× (the
//! 2 ms turnaround dominates and is paid once per batch of 8), so a
//! loaded CI machine has to be pathologically unfair to drop it
//! below 2.

use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_client::{AuthMethod, Connection};
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::{Dial, Dialer, Transport};
use chirp_proto::{OpenFlags, Reply, ReplyShape, Request};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

const OPS: usize = 32;
const TURNAROUND: Duration = Duration::from_millis(2);

/// A [`Dialer`] wrapper charging a fixed turnaround latency every time
/// a connection switches from writing to reading — one sleep per
/// client-observed round trip. Loopback TCP completes a small RPC in
/// microseconds, so without this the test would measure syscall
/// overhead; with it, it measures what request pipelining actually
/// buys: `ceil(n / depth)` round trips for `n` requests instead of `n`.
fn latency_dialer(inner: Dialer, turnaround: Duration) -> Dialer {
    Dialer::from_arc(Arc::new(LatencyDial { inner, turnaround }))
}

struct LatencyDial {
    inner: Dialer,
    turnaround: Duration,
}

impl Dial for LatencyDial {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(LatencyTransport {
            inner: self.inner.dial(endpoint, timeout)?,
            turnaround: self.turnaround,
            wrote: Arc::new(AtomicBool::new(false)),
        }))
    }
}

/// See [`latency_dialer`]. The write-then-read flag is shared across
/// [`Transport::try_clone`] halves so the buffered reader and writer
/// of one connection observe a single turnaround state.
#[derive(Debug)]
struct LatencyTransport {
    inner: Box<dyn Transport>,
    turnaround: Duration,
    wrote: Arc<AtomicBool>,
}

impl Read for LatencyTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.wrote.swap(false, Ordering::SeqCst) {
            std::thread::sleep(self.turnaround);
        }
        self.inner.read(buf)
    }
}

impl Write for LatencyTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wrote.store(true, Ordering::SeqCst);
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for LatencyTransport {
    fn try_clone(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(LatencyTransport {
            inner: self.inner.try_clone()?,
            turnaround: self.turnaround,
            wrote: Arc::clone(&self.wrote),
        }))
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn read_timeout(&self) -> io::Result<Option<Duration>> {
        self.inner.read_timeout()
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
    fn shutdown(&self) -> io::Result<()> {
        self.inner.shutdown()
    }
}

/// Issue `count` requests built by `request` over one connection in
/// pipelined batches of `depth` (depth 1 = the classic
/// one-RPC-at-a-time loop), handing each reply to `check`.
fn pipelined(
    conn: &mut Connection,
    count: usize,
    depth: usize,
    request: impl Fn() -> (Request, ReplyShape),
    check: impl Fn(Reply),
) {
    let mut done = 0usize;
    while done < count {
        let batch = depth.min(count - done);
        conn.pipeline(depth, |pipe| {
            for _ in 0..batch {
                let (req, shape) = request();
                pipe.send(&req, None, shape)?;
            }
            pipe.flush()?;
            for _ in 0..batch {
                check(pipe.recv()?);
            }
            Ok(())
        })
        .expect("pipelined batch");
        done += batch;
    }
}

/// `count` `PREAD`s of `len` bytes of `fd`; every reply carries `len`.
fn pipelined_preads(conn: &mut Connection, fd: i32, len: u64, count: usize, depth: usize) {
    let pread = || {
        let req = Request::Pread {
            fd,
            length: len,
            offset: 0,
        };
        (req, ReplyShape::Body)
    };
    pipelined(conn, count, depth, pread, |reply| {
        assert_eq!(reply.into_body().len() as u64, len)
    });
}

/// `count` `STAT`s of `path`; every reply carries stat words.
fn pipelined_stats(conn: &mut Connection, path: &str, count: usize, depth: usize) {
    let stat = || {
        let req = Request::Stat {
            path: path.to_string(),
        };
        (req, ReplyShape::Status)
    };
    pipelined(conn, count, depth, stat, |reply| {
        assert!(!reply.status().words.is_empty())
    });
}

fn rig() -> (TempDir, FileServer, Connection, i32) {
    let host = TempDir::new();
    let server = FileServer::start(
        ServerConfig::localhost(host.path(), "bench")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )
    .expect("start chirp server");
    let dialer = latency_dialer(Dialer::tcp(), TURNAROUND);
    let mut conn =
        Connection::connect_via(&dialer, &server.endpoint(), Duration::from_secs(10)).unwrap();
    conn.authenticate(&[AuthMethod::Hostname]).unwrap();
    conn.putfile("/small", 0o644, &vec![5u8; 1024]).unwrap();
    let (fd, _) = conn.open("/small", OpenFlags::READ, 0).unwrap();
    (host, server, conn, fd)
}

/// Best-of-3 wall time for one batch run, to shrug off load spikes.
fn best_of_3(mut run: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn depth_8_is_at_least_twice_depth_1_for_small_ops() {
    let (_host, _server, mut conn, fd) = rig();

    let pread_d1 = best_of_3(|| pipelined_preads(&mut conn, fd, 1024, OPS, 1));
    let pread_d8 = best_of_3(|| pipelined_preads(&mut conn, fd, 1024, OPS, 8));
    let stat_d1 = best_of_3(|| pipelined_stats(&mut conn, "/small", OPS, 1));
    let stat_d8 = best_of_3(|| pipelined_stats(&mut conn, "/small", OPS, 8));

    let pread_ratio = pread_d1.as_secs_f64() / pread_d8.as_secs_f64();
    let stat_ratio = stat_d1.as_secs_f64() / stat_d8.as_secs_f64();
    println!(
        "pread 1KiB: depth1 {pread_d1:?}, depth8 {pread_d8:?} ({pread_ratio:.1}x); \
         stat: depth1 {stat_d1:?}, depth8 {stat_d8:?} ({stat_ratio:.1}x)"
    );
    assert!(
        pread_ratio >= 2.0,
        "pipelined 1 KiB preads at depth 8 only {pread_ratio:.2}x depth 1"
    );
    assert!(
        stat_ratio >= 2.0,
        "pipelined stats at depth 8 only {stat_ratio:.2}x depth 1"
    );
}
