//! Reactor edge cases, driven deterministically over the in-memory
//! network: slow-reader backpressure (the write-buffer cap bounds
//! server memory, not client behavior), mid-pipeline disconnect with
//! requests in flight (settled work kept, nothing corrupted), and a
//! listener close over a crowd of idle connections (clean shutdown,
//! every client sees EOF); plus the two ways a listener can misbehave
//! (a transport the reactor cannot watch, an accept that keeps
//! failing); and nothing waiting behind bulk: an 8 MiB `GETFILE`
//! yields its shard to a `STAT` within one turn's budget, and a
//! `THIRDPUT` held open by a slow target leaves its shard serving,
//! answers what was pipelined behind it in order, and gives a vanished
//! client's slot back without waiting for the push.

use std::io::Read;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use chirp_proto::ready::{Token, Watcher};
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::{Listener, MemListener, Transport};
use chirp_proto::{Clock, MemNet, VirtualClock};
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};

/// A server on a fresh in-memory network, with the config tweaked by
/// `tweak` before start.
fn mem_server(tweak: impl FnOnce(&mut ServerConfig)) -> (TempDir, MemNet, FileServer) {
    mem_server_behind(tweak, |listener| Arc::new(listener))
}

/// [`mem_server`] with its listener wrapped by `wrap`.
fn mem_server_behind(
    tweak: impl FnOnce(&mut ServerConfig),
    wrap: impl FnOnce(MemListener) -> Arc<dyn Listener>,
) -> (TempDir, MemNet, FileServer) {
    let clock = Clock::virtual_at(VirtualClock::new());
    let net = MemNet::new(clock);
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    cfg.dialer = net.dialer();
    tweak(&mut cfg);
    let server = FileServer::start_on(cfg, wrap(net.listen())).unwrap();
    (dir, net, server)
}

fn dial(net: &MemNet, server: &FileServer) -> Box<dyn Transport> {
    net.dialer()
        .dial(&server.endpoint(), Duration::from_secs(5))
        .unwrap()
}

/// Read one `\n`-terminated reply line off a raw transport.
fn read_line(t: &mut dyn Transport) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert_eq!(t.read(&mut byte).unwrap(), 1, "EOF inside a reply line");
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    String::from_utf8(line).unwrap()
}

fn auth(t: &mut dyn Transport) {
    t.write_all(b"AUTH hostname x x\n").unwrap();
    let reply = read_line(t);
    assert!(reply.starts_with("0 "), "auth failed: {reply:?}");
}

/// Spin until `cond` holds (real time; the reactor threads run on the
/// host scheduler even when the protocol clock is virtual).
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A reader that refuses to drain must not make the server buffer
/// replies without bound: once the connection's write queue passes
/// `reactor_write_cap`, the reactor parks the *read* side (stops
/// consuming requests) until the client catches up. The queue may
/// overshoot by at most the one reply that crossed the cap.
#[test]
fn slow_reader_backpressure_caps_the_write_queue() {
    const CAP: usize = 64 * 1024;
    const FILE: usize = 256 * 1024;
    const REQUESTS: usize = 16;
    let (dir, net, server) = mem_server(|cfg| {
        cfg.reactor_write_cap = CAP;
    });
    std::fs::write(dir.path().join("big"), vec![0x5a; FILE]).unwrap();

    // A 1 KiB pipe: the server sees WouldBlock almost immediately, so
    // replies pile up in its write queue, not in the transport.
    net.set_stream_capacity(Some(1024));
    let mut t = dial(&net, &server);
    auth(t.as_mut());
    for _ in 0..REQUESTS {
        t.write_all(b"GETFILE /big\n").unwrap();
    }

    // The server must stop reading instead of queueing all 16 replies.
    let reg = server.telemetry().registry();
    let backpressure = reg.counter("reactor.backpressure");
    let wq_peak = reg.gauge("reactor.wq_peak_bytes");
    wait_for("backpressure to engage", || backpressure.get() >= 1);
    assert!(
        (wq_peak.get() as usize) <= CAP + FILE + 4096,
        "write queue peaked at {} bytes; cap {CAP} allows at most one \
         reply of overshoot",
        wq_peak.get()
    );

    // Now drain: every reply arrives whole and in order.
    let header = format!("{FILE}\n");
    let mut expected = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    let mut got = 0usize;
    for _ in 0..REQUESTS {
        expected += header.len() + FILE;
    }
    while got < expected {
        let n = t.read(&mut buf).unwrap();
        assert!(n > 0, "EOF after {got}/{expected} reply bytes");
        got += n;
    }
    assert_eq!(got, expected);
    assert!(
        (wq_peak.get() as usize) <= CAP + FILE + 4096,
        "cap held through the full drain: {}",
        wq_peak.get()
    );

    // The connection is still a working session.
    t.write_all(b"WHOAMI\n").unwrap();
    assert!(read_line(t.as_mut()).starts_with("0 "));
}

/// A client that fires a pipeline and vanishes: requests the server
/// already consumed are settled in order (effects form a prefix), the
/// connection slot is reclaimed, and the server keeps serving others —
/// the PR-5 chaos contract, now under the reactor.
#[test]
fn mid_pipeline_disconnect_with_three_in_flight() {
    let (dir, net, server) = mem_server(|_| {});
    let mut t = dial(&net, &server);
    auth(t.as_mut());
    t.write_all(b"MKDIR /p0 493\nMKDIR /p1 493\nMKDIR /p2 493\n")
        .unwrap();
    drop(t); // vanish with all three in flight

    wait_for("the dead connection to be reaped", || {
        server.active_connections() == 0
    });
    // Settled ops are kept and form a send-order prefix: p1 without
    // p0 (or p2 without p1) would mean replies were settled out of
    // order or a queued op ran after an earlier one was dropped.
    let exists = |i: usize| dir.path().join(format!("p{i}")).is_dir();
    for i in 1..3 {
        if exists(i) {
            assert!(exists(i - 1), "/p{i} settled but /p{} did not", i - 1);
        }
    }
    // The server is unharmed and fully functional for the next client.
    let mut t2 = dial(&net, &server);
    auth(t2.as_mut());
    t2.write_all(b"MKDIR /after 493\n").unwrap();
    assert_eq!(read_line(t2.as_mut()), "0");
    assert!(dir.path().join("after").is_dir());
}

/// Closing the listener over a crowd of idle connections: shutdown
/// returns promptly, every shard retires its connections, and every
/// idle client reads EOF rather than hanging.
#[test]
fn listener_close_with_idle_crowd_shuts_down_cleanly() {
    const CROWD: usize = 300;
    let (_dir, net, mut server) = mem_server(|cfg| {
        cfg.max_connections = CROWD + 8;
    });
    let mut conns: Vec<Box<dyn Transport>> = Vec::with_capacity(CROWD);
    for _ in 0..CROWD {
        conns.push(dial(&net, &server));
    }
    wait_for("every connection to be adopted", || {
        server.active_connections() == CROWD
    });

    server.shutdown();
    assert_eq!(server.active_connections(), 0, "all slots reclaimed");
    let mut byte = [0u8; 1];
    for (i, conn) in conns.iter_mut().enumerate() {
        match conn.read(&mut byte) {
            Ok(0) => {}
            Ok(n) => panic!("idle conn {i} read {n} bytes after shutdown"),
            Err(_) => {} // reset is as good as EOF
        }
    }
}

/// A stream with no readiness: everything but the `Transport`
/// readiness extension is forwarded, so the trait defaults answer
/// "cannot be watched".
#[derive(Debug)]
struct Blind(Box<dyn Transport>);

impl Read for Blind {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Blind {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Transport for Blind {
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
        Ok(Box::new(Blind(self.0.try_clone()?)))
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
    fn read_timeout(&self) -> std::io::Result<Option<Duration>> {
        self.0.read_timeout()
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_write_timeout(timeout)
    }
    fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.0.peer_addr()
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.0.local_addr()
    }
    fn shutdown(&self) -> std::io::Result<()> {
        self.0.shutdown()
    }
}

/// Hands the server its first connection as a [`Blind`] one.
struct BlindFirst {
    inner: MemListener,
    blinded: AtomicBool,
}

impl Listener for BlindFirst {
    fn accept(&self) -> std::io::Result<(Box<dyn Transport>, SocketAddr)> {
        let (stream, peer) = self.inner.accept()?;
        if self.blinded.swap(true, Ordering::SeqCst) {
            Ok((stream, peer))
        } else {
            Ok((Box::new(Blind(stream)), peer))
        }
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Listener::local_addr(&self.inner)
    }
    fn wake(&self) {
        self.inner.wake()
    }
}

/// A connection the reactor can neither poll nor be notified about
/// cannot be multiplexed: it is closed on arrival and its slot given
/// back, and the server goes on serving everyone else.
#[test]
fn a_transport_without_readiness_is_closed_and_its_slot_released() {
    let (_dir, net, server) = mem_server_behind(
        |_| {},
        |inner| {
            Arc::new(BlindFirst {
                inner,
                blinded: AtomicBool::new(false),
            })
        },
    );
    let mut refused = dial(&net, &server);
    let _ = refused.write_all(b"AUTH hostname x x\n");
    let mut byte = [0u8; 1];
    match refused.read(&mut byte) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("a connection with no readiness was served"),
    }
    wait_for("the refused connection's slot", || {
        server.active_connections() == 0
    });

    let mut served = dial(&net, &server);
    auth(served.as_mut());
    assert_eq!(rpc(served.as_mut(), "MKDIR /after 493\n", false).0, 0);
    assert_eq!(server.active_connections(), 1);
}

/// An accept point that fails every time, the way `accept(2)` does
/// while the process is out of descriptors.
struct AlwaysFailing {
    calls: Arc<AtomicUsize>,
}

impl Listener for AlwaysFailing {
    fn accept(&self) -> std::io::Result<(Box<dyn Transport>, SocketAddr)> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Err(std::io::Error::other("too many open files"))
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok("10.77.0.1:9094".parse().unwrap())
    }
    fn wake(&self) {}
}

/// A persistent accept error (`EMFILE`, `ENFILE`) is retried after a
/// pause, not in a loop that burns a core until a descriptor frees
/// up; and shutdown still gets through.
#[test]
fn a_persistent_accept_error_is_retried_at_a_bounded_rate() {
    let dir = TempDir::new();
    let calls = Arc::new(AtomicUsize::new(0));
    let listener = AlwaysFailing {
        calls: calls.clone(),
    };
    let cfg = ServerConfig::localhost(dir.path(), "owner");
    let mut server = FileServer::start_on(cfg, Arc::new(listener)).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let seen = calls.load(Ordering::SeqCst);
    // One attempt per 10 ms back-off is 20; an unthrottled loop makes
    // millions.
    assert!((2..=40).contains(&seen), "{seen} accept calls in 200 ms");
    // Joins the accept thread: returning is the clean exit.
    server.shutdown();
}

/// Send one request and read its whole reply: the status line, then
/// as many payload bytes as a non-negative status announces when the
/// request is one that carries a payload back.
fn rpc(t: &mut dyn Transport, request: &str, has_payload: bool) -> (i64, Vec<u8>) {
    t.write_all(request.as_bytes()).unwrap();
    let line = read_line(t);
    let status: i64 = line.split(' ').next().unwrap().parse().unwrap();
    let len = if has_payload { status.max(0) } else { 0 };
    let mut payload = vec![0u8; len as usize];
    t.read_exact(&mut payload).unwrap();
    (status, payload)
}

/// The cost contract of the reply path, in the style of the
/// `syscount::fstat_calls` test: a reply the socket can take leaves
/// the reactor in exactly one write — status line and payload
/// together, whether the payload is result words, cache pages or a
/// file of up to one read chunk — and a longer file still streams in
/// bounded chunks instead of being read whole.
#[test]
fn one_socket_write_per_reply_and_bounded_chunks_beyond() {
    const CHUNK: usize = 64 * 1024; // the reactor's READ_CHUNK
    let (dir, net, server) = mem_server(|cfg| {
        cfg.cache_bytes = Some(1 << 20);
    });
    std::fs::write(dir.path().join("small"), vec![1u8; 100]).unwrap();
    std::fs::write(dir.path().join("chunk"), vec![2u8; CHUNK]).unwrap();
    std::fs::write(dir.path().join("paged"), vec![3u8; 4 * CHUNK]).unwrap();
    std::fs::write(dir.path().join("long"), vec![4u8; 16 * CHUNK]).unwrap();
    let mut t = dial(&net, &server);
    auth(t.as_mut());
    let writes = server.telemetry().registry().counter("reactor.writes");
    // The counter moves after the write it counts, so a reply can be
    // in hand a moment before its write is on the books.
    let settled = |expected: u64| {
        wait_for("reactor.writes to settle", || writes.get() >= expected);
        writes.get()
    };

    let before = settled(1); // the auth reply
    let mut replies = 0;
    for _ in 0..10 {
        assert_eq!(rpc(t.as_mut(), "STAT /small\n", false).0, 0);
        replies += 1;
    }
    let open = format!("OPEN /paged {} 0\n", chirp_proto::OpenFlags::READ.bits());
    let (fd, _) = rpc(t.as_mut(), &open, false);
    assert!(fd >= 0);
    replies += 1;
    for i in 0..10 {
        // An unaligned 24 KiB read: four page slices behind the status
        // line, the first a miss that fills, the rest hits.
        let request = format!("PREAD {fd} 24576 {}\n", 1000 + i);
        let (n, data) = rpc(t.as_mut(), &request, true);
        assert_eq!((n, data.len()), (24576, 24576));
        assert!(data.iter().all(|&b| b == 3));
        replies += 1;
    }
    for (path, len, fill) in [("small", 100, 1u8), ("chunk", CHUNK, 2u8)] {
        for _ in 0..5 {
            let (n, data) = rpc(t.as_mut(), &format!("GETFILE /{path}\n"), true);
            assert_eq!(n as usize, len);
            assert!(data.iter().all(|&b| b == fill));
            replies += 1;
        }
    }
    assert_eq!(settled(before + replies) - before, replies);

    // One byte more than a chunk no longer rides inline: the status
    // line goes out, then the file in reads of at most one chunk.
    let before = writes.get();
    let (n, data) = rpc(t.as_mut(), "GETFILE /long\n", true);
    assert_eq!(n as usize, 16 * CHUNK);
    assert!(data.iter().all(|&b| b == 4));
    assert_eq!(settled(before + 17) - before, 17, "status line + 16 chunks");
    let peak = server.telemetry().registry().gauge("reactor.wq_peak_bytes");
    assert!((peak.get() as usize) < 16 * CHUNK + 64);
}

/// The reactor's `READ_CHUNK` and its per-turn byte budget.
const CHUNK: usize = 64 * 1024;
const TURN_BYTES: usize = 4 * CHUNK;

/// Every write the server made on a [`Logged`] listener's connections,
/// in order, as `(connection, bytes)`; the test adds [`MARK`] entries
/// of its own.
type WriteLog = Arc<Mutex<Vec<(usize, usize)>>>;
const MARK: usize = usize::MAX;

/// Hands the server its connections wrapped in [`LoggedStream`]s,
/// numbered in accept order.
struct Logged {
    inner: MemListener,
    log: WriteLog,
    accepted: AtomicUsize,
}

impl Listener for Logged {
    fn accept(&self) -> std::io::Result<(Box<dyn Transport>, SocketAddr)> {
        let (inner, peer) = self.inner.accept()?;
        let id = self.accepted.fetch_add(1, Ordering::SeqCst);
        let log = self.log.clone();
        Ok((Box::new(LoggedStream { inner, id, log }), peer))
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Listener::local_addr(&self.inner)
    }
    fn wake(&self) {
        self.inner.wake()
    }
}

/// A server-side stream that logs every write it takes; everything
/// else, readiness included, is forwarded.
#[derive(Debug)]
struct LoggedStream {
    inner: Box<dyn Transport>,
    id: usize,
    log: WriteLog,
}

impl LoggedStream {
    fn logged(&self, written: std::io::Result<usize>) -> std::io::Result<usize> {
        if let Ok(n) = written {
            self.log.lock().unwrap().push((self.id, n));
        }
        written
    }
}

impl Read for LoggedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for LoggedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf);
        self.logged(written)
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let written = self.inner.write_vectored(bufs);
        self.logged(written)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for LoggedStream {
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
        self.inner.try_clone()
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
    fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.peer_addr()
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }
    fn shutdown(&self) -> std::io::Result<()> {
        self.inner.shutdown()
    }
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
    fn readiness_fd(&self) -> Option<i32> {
        self.inner.readiness_fd()
    }
    fn register_ready(&self, token: Token, watcher: Watcher) -> bool {
        self.inner.register_ready(token, watcher)
    }
    fn deregister_ready(&self) {
        self.inner.deregister_ready()
    }
}

/// One shard, an 8 MiB file streamed from disk to connection A, and a
/// `STAT` on connection B sent just behind A's `GETFILE`: B's reply
/// must leave after at most one turn's worth of A's bytes (plus the
/// one chunk write that crossed the budget), not after all of them;
/// and the transfer is counted as the turns it took.
#[test]
fn a_bulk_getfile_yields_its_shard_to_a_small_request() {
    const BULK: usize = 8 << 20;
    let log = WriteLog::default();
    let logged = log.clone();
    let (dir, net, server) = mem_server_behind(
        |cfg| cfg.reactor_workers = 1,
        |inner| {
            Arc::new(Logged {
                inner,
                log: logged,
                accepted: AtomicUsize::new(0),
            })
        },
    );
    std::fs::write(dir.path().join("big"), vec![7u8; BULK]).unwrap();
    std::fs::write(dir.path().join("small"), b"x").unwrap();
    let mut a = dial(&net, &server); // connection 0
    auth(a.as_mut());
    let mut b = dial(&net, &server); // connection 1
    auth(b.as_mut());

    a.write_all(b"GETFILE /big\n").unwrap();
    log.lock().unwrap().push((MARK, 0));
    b.write_all(b"STAT /small\n").unwrap();
    assert!(read_line(b.as_mut()).starts_with("0 "));
    assert_eq!(read_line(a.as_mut()), BULK.to_string());
    let mut body = vec![0u8; BULK];
    a.read_exact(&mut body).unwrap();
    assert!(body.iter().all(|&x| x == 7));

    let log = log.lock().unwrap();
    let mark = log.iter().position(|&(id, _)| id == MARK).unwrap();
    let stat = mark + log[mark..].iter().position(|&(id, _)| id == 1).unwrap();
    let bulk_before: usize = log[mark..stat]
        .iter()
        .filter(|&&(id, _)| id == 0)
        .map(|&(_, n)| n)
        .sum();
    assert!(
        bulk_before <= TURN_BYTES + CHUNK,
        "the STAT's reply waited behind {bulk_before} bulk bytes"
    );
    let yields = server.telemetry().registry().counter("reactor.yields");
    assert!(
        yields.get() as usize >= BULK / TURN_BYTES - 1,
        "8 MiB in {} yields",
        yields.get()
    );
}

/// A listener that hands out nothing until its gate opens.
struct Gate {
    inner: MemListener,
    open: Mutex<bool>,
    cond: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cond.notify_all();
    }
}

impl Listener for Gate {
    fn accept(&self) -> std::io::Result<(Box<dyn Transport>, SocketAddr)> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cond.wait(open).unwrap();
        }
        drop(open);
        self.inner.accept()
    }
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Listener::local_addr(&self.inner)
    }
    fn wake(&self) {
        self.open();
        self.inner.wake()
    }
}

/// A one-shard server holding a 100 000-byte `/src`, and a push target
/// on the same network that takes no connection until its gate opens:
/// a `THIRDPUT` to it is held at the target's door for as long as the
/// test likes.
fn pusher_and_gated_target() -> (TempDir, MemNet, FileServer, TempDir, FileServer, Arc<Gate>) {
    let (dir, net, server) = mem_server(|cfg| cfg.reactor_workers = 1);
    std::fs::write(dir.path().join("src"), vec![3u8; 100_000]).unwrap();
    let target_dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(target_dir.path(), "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    cfg.dialer = net.dialer();
    let gate = Arc::new(Gate {
        inner: net.listen(),
        open: Mutex::new(false),
        cond: Condvar::new(),
    });
    let target = FileServer::start_on(cfg, gate.clone()).unwrap();
    (dir, net, server, target_dir, target, gate)
}

/// A dialed, authenticated client that gives up on a reply after 5 s
/// instead of waiting on a stalled shard forever.
fn client(net: &MemNet, server: &FileServer) -> Box<dyn Transport> {
    let mut t = dial(net, server);
    t.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    auth(t.as_mut());
    t
}

fn thirdput_line(target: &FileServer) -> String {
    format!("THIRDPUT /src {} /dst\n", target.endpoint())
}

/// While a `THIRDPUT` is held open by its target, another request on
/// the same (only) shard is answered: the push runs off the shard.
#[test]
fn a_thirdput_held_by_a_slow_target_leaves_its_shard_serving() {
    let (_dir, net, server, target_dir, target, gate) = pusher_and_gated_target();
    let mut pusher = client(&net, &server);
    let mut prober = client(&net, &server);
    pusher.write_all(thirdput_line(&target).as_bytes()).unwrap();
    assert_eq!(rpc(prober.as_mut(), "STAT /src\n", false).0, 0);
    assert_eq!(rpc(prober.as_mut(), "WHOAMI\n", false).0, 0);

    gate.open();
    assert_eq!(read_line(pusher.as_mut()), "100000");
    assert_eq!(
        std::fs::read(target_dir.path().join("dst")).unwrap(),
        vec![3u8; 100_000]
    );
}

/// A request pipelined behind a `THIRDPUT` is answered after it, not
/// while the push is out: replies stay in request order.
#[test]
fn a_request_pipelined_behind_a_thirdput_is_answered_after_it() {
    let (_dir, net, server, _target_dir, target, gate) = pusher_and_gated_target();
    let mut pusher = client(&net, &server);
    let mut prober = client(&net, &server);
    let pipelined = format!("{}STAT /src\n", thirdput_line(&target));
    pusher.write_all(pipelined.as_bytes()).unwrap();
    // The shard read both lines before it served the prober, which
    // wrote later; an out-of-order STAT reply would already be there.
    assert_eq!(rpc(prober.as_mut(), "STAT /src\n", false).0, 0);
    pusher.set_nonblocking(true).unwrap();
    let mut byte = [0u8; 1];
    let early = pusher.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "a reply arrived while the push was held: {early:?}"
    );
    pusher.set_nonblocking(false).unwrap();

    gate.open();
    assert_eq!(read_line(pusher.as_mut()), "100000");
    assert!(read_line(pusher.as_mut()).starts_with("0 "));
}

/// A client that disconnects while its push is out gets its slot back
/// at once; the push still runs to its end, and its reply, with nobody
/// to take it, is dropped.
#[test]
fn a_client_gone_mid_push_gets_its_slot_back() {
    let (_dir, net, server, target_dir, target, gate) = pusher_and_gated_target();
    let mut pusher = client(&net, &server);
    let mut prober = client(&net, &server);
    pusher.write_all(thirdput_line(&target).as_bytes()).unwrap();
    // Served after the THIRDPUT, so the push is out by now.
    assert_eq!(rpc(prober.as_mut(), "STAT /src\n", false).0, 0);
    drop(pusher);
    drop(prober);
    wait_for("both slots back while the push is held", || {
        server.active_connections() == 0
    });

    gate.open();
    let landed = target_dir.path().join("dst");
    wait_for("the push to land", || {
        std::fs::metadata(&landed).is_ok_and(|m| m.len() == 100_000)
    });
    // The server is unharmed for the next client.
    let mut next = client(&net, &server);
    assert_eq!(rpc(next.as_mut(), "STAT /dst\n", false).0, -3);
}
