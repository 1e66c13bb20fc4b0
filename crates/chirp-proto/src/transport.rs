//! The transport abstraction: byte streams a Chirp session runs over.
//!
//! Every layer of the system — server accept loop, client connection,
//! pool, fault injection — speaks to its peer through the [`Transport`]
//! trait instead of a concrete [`TcpStream`]. Production uses the TCP
//! implementations in this module; the simulation harness swaps in
//! [`MemNet`], an in-process network of duplex byte pipes with
//! fabricated addresses, so a whole multi-server instance runs with no
//! ports, no sleeps, and seeded interleaving.
//!
//! Three roles:
//!
//! * [`Transport`] — one established, bidirectional byte stream. Like
//!   `TcpStream` it is cloneable (`try_clone`) so a session can split
//!   into buffered reader and writer halves, carries optional read and
//!   write timeouts, and can be shut down from either half.
//! * [`Listener`] — a bound accept point producing transports.
//! * [`Dialer`] — a cheap, cloneable factory connecting to an endpoint
//!   named by a `host:port` string. Layers that need to *re*connect
//!   (retry loops, pools, third-party transfer) hold a `Dialer` rather
//!   than calling [`TcpStream::connect`] themselves.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::ready::{Token, Watcher};

/// One established bidirectional byte stream between two parties.
///
/// The contract mirrors [`TcpStream`]: reads and writes may be split
/// across cheap clones of the same underlying stream, timeouts apply
/// to every subsequent blocking read/write, and [`shutdown`] severs
/// both directions for all clones at once.
///
/// [`shutdown`]: Transport::shutdown
pub trait Transport: Read + Write + Send + fmt::Debug {
    /// A second handle on the same stream (for splitting into buffered
    /// reader and writer halves).
    fn try_clone(&self) -> io::Result<Box<dyn Transport>>;
    /// Timeout applied to every subsequent blocking read.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// The currently configured read timeout.
    fn read_timeout(&self) -> io::Result<Option<Duration>>;
    /// Timeout applied to every subsequent blocking write.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// The address of the remote party.
    fn peer_addr(&self) -> io::Result<SocketAddr>;
    /// The address of the local end.
    fn local_addr(&self) -> io::Result<SocketAddr>;
    /// Sever both directions, for every clone of this stream. Blocked
    /// and future reads observe end-of-stream or an error.
    fn shutdown(&self) -> io::Result<()>;

    /// Send the next `len` bytes of `file` down the stream: a file body,
    /// `GETFILE`'s or a `THIRDPUT` push's. A file that ends first fails
    /// with `UnexpectedEof`, and the stream's framing is then lost. By
    /// default the bytes go through a bounded buffer and this stream's
    /// own `write`, so a wrapper sees every one of them.
    fn send_file(&mut self, file: &File, len: u64) -> io::Result<()> {
        crate::wire::copy_exact(&mut &*file, self, len)
    }

    // ---- readiness extension (see [`crate::ready`]) -----------------
    //
    // Default implementations make a transport (the client-side
    // fault-injection, latency and tracing wrappers) "blocking only":
    // fine for a client, but a server that is handed one, finding
    // neither a pollable fd nor watcher support, closes it.

    /// Switch the stream between blocking and nonblocking mode. In
    /// nonblocking mode reads and writes that would wait return
    /// [`io::ErrorKind::WouldBlock`] instead. Unsupported by default.
    fn set_nonblocking(&self, _nonblocking: bool) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no nonblocking mode",
        ))
    }

    /// The raw file descriptor an OS poller can watch, if the stream
    /// is backed by one.
    fn readiness_fd(&self) -> Option<i32> {
        None
    }

    /// Register a readiness watcher (in-process transports). Returns
    /// `false` when the transport does not support watchers. On
    /// success the watcher is notified once immediately with the
    /// stream's current readiness and then on every change.
    fn register_ready(&self, _token: Token, _watcher: Watcher) -> bool {
        false
    }

    /// Remove a previously registered watcher, if any.
    fn deregister_ready(&self) {}
}

/// A bound accept point producing [`Transport`]s.
pub trait Listener: Send + Sync {
    /// Block until a connection arrives; returns the stream and the
    /// peer's address.
    fn accept(&self) -> io::Result<(Box<dyn Transport>, SocketAddr)>;
    /// The bound local address (useful with ephemeral ports).
    fn local_addr(&self) -> io::Result<SocketAddr>;
    /// Unblock a pending [`accept`](Listener::accept) so a shutdown
    /// flag can be observed; the woken accept returns an error or a
    /// throwaway connection.
    fn wake(&self);
}

/// Object-safe connection factory behind [`Dialer`].
pub trait Dial: Send + Sync {
    /// Connect to `endpoint` (a `host:port` string), bounding the
    /// attempt by `timeout`.
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>>;
}

/// A cheap, cloneable handle on a [`Dial`] implementation.
///
/// The default dialer opens real TCP connections; the simulation
/// harness substitutes [`MemNet::dialer`] (or a fault-injecting
/// wrapper) without any layer above noticing.
#[derive(Clone)]
pub struct Dialer(Arc<dyn Dial>);

impl Dialer {
    /// The production dialer: resolve and connect over TCP.
    pub fn tcp() -> Dialer {
        Dialer(Arc::new(TcpDialer))
    }

    /// Wrap a custom [`Dial`] implementation.
    pub fn from_arc(dial: Arc<dyn Dial>) -> Dialer {
        Dialer(dial)
    }

    /// Connect to `endpoint`, bounding the attempt by `timeout`.
    pub fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        self.0.dial(endpoint, timeout)
    }
}

impl Default for Dialer {
    fn default() -> Dialer {
        Dialer::tcp()
    }
}

impl fmt::Debug for Dialer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Dialer(..)")
    }
}

// ---- TCP implementations -----------------------------------------------

impl Transport for TcpStream {
    fn try_clone(&self) -> io::Result<Box<dyn Transport>> {
        TcpStream::try_clone(self).map(|s| Box::new(s) as Box<dyn Transport>)
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn read_timeout(&self) -> io::Result<Option<Duration>> {
        TcpStream::read_timeout(self)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
    fn peer_addr(&self) -> io::Result<SocketAddr> {
        TcpStream::peer_addr(self)
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        TcpStream::local_addr(self)
    }
    fn shutdown(&self) -> io::Result<()> {
        TcpStream::shutdown(self, Shutdown::Both)
    }
    /// sendfile(2): the file's pages go to the socket without passing
    /// through user space, a bounded run per call.
    #[cfg(target_os = "linux")]
    fn send_file(&mut self, file: &File, len: u64) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        extern "C" {
            // From the C library the standard library already links.
            fn sendfile(out_fd: i32, in_fd: i32, offset: *mut i64, count: usize) -> isize;
        }
        const RUN: u64 = 256 * 1024;
        let mut left = len;
        while left > 0 {
            let count = left.min(RUN) as usize;
            // SAFETY: both descriptors stay open across the call, and a
            // null offset makes it read from (and advance) the file's
            // own offset.
            let sent = unsafe {
                sendfile(
                    self.as_raw_fd(),
                    file.as_raw_fd(),
                    std::ptr::null_mut(),
                    count,
                )
            };
            match sent {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n if n > 0 => left -= n as u64,
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    fn readiness_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            Some(self.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }
}

impl Listener for TcpListener {
    fn accept(&self) -> io::Result<(Box<dyn Transport>, SocketAddr)> {
        let (stream, peer) = TcpListener::accept(self)?;
        // Control lines and small data share the stream; without
        // nodelay every short reply waits out Nagle.
        stream.set_nodelay(true).ok();
        Ok((Box::new(stream), peer))
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        TcpListener::local_addr(self)
    }
    fn wake(&self) {
        // The classic self-connect: gives a blocked accept() one
        // throwaway connection to return with.
        if let Ok(addr) = TcpListener::local_addr(self) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }
}

/// The production [`Dial`]: resolve `endpoint` and open a TCP
/// connection with nodelay set.
struct TcpDialer;

impl Dial for TcpDialer {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        let addr = endpoint
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable endpoint"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

// ---- the in-memory network ---------------------------------------------

/// How long a simulated read may wait in *real* time for its peer
/// thread to produce data before the harness calls it deadlocked.
/// Generous: legitimate waits are microseconds (the peer is another
/// in-process thread); only a genuine hang reaches this.
const MEM_DEADLOCK_CAP: Duration = Duration::from_secs(30);

/// An in-process network: listeners with fabricated addresses, duplex
/// byte-pipe streams, and a [`Dialer`] connecting by `host:port`
/// string exactly like TCP.
///
/// Listener addresses are allocated from `10.77.x.y:9094`, which
/// parse and print like any socket address, so endpoint strings built
/// from them flow through pools, catalogs, and configs unchanged.
#[derive(Clone)]
pub struct MemNet {
    inner: Arc<MemNetInner>,
    clock: Clock,
}

struct MemNetInner {
    listeners: Mutex<HashMap<SocketAddr, Arc<AcceptQueue>>>,
    next_host: Mutex<u32>,
    next_client_port: Mutex<u16>,
    stream_capacity: Mutex<Option<usize>>,
}

struct AcceptQueue {
    state: Mutex<AcceptState>,
    cond: Condvar,
}

struct AcceptState {
    pending: VecDeque<(MemStream, SocketAddr)>,
    closed: bool,
    woken: bool,
}

impl MemNet {
    /// A fresh, empty network whose streams charge timeouts to
    /// `clock`.
    pub fn new(clock: Clock) -> MemNet {
        MemNet {
            inner: Arc::new(MemNetInner {
                listeners: Mutex::new(HashMap::new()),
                next_host: Mutex::new(0),
                next_client_port: Mutex::new(40_000),
                stream_capacity: Mutex::new(None),
            }),
            clock,
        }
    }

    /// The clock this network charges timeouts to.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Bind a listener at the next fabricated address.
    pub fn listen(&self) -> MemListener {
        let addr = {
            let mut next = self.inner.next_host.lock().unwrap();
            *next += 1;
            let n = *next;
            SocketAddr::new(
                IpAddr::V4(Ipv4Addr::new(10, 77, (n >> 8) as u8, n as u8)),
                crate::DEFAULT_PORT,
            )
        };
        let queue = Arc::new(AcceptQueue {
            state: Mutex::new(AcceptState {
                pending: VecDeque::new(),
                closed: false,
                woken: false,
            }),
            cond: Condvar::new(),
        });
        self.inner
            .listeners
            .lock()
            .unwrap()
            .insert(addr, queue.clone());
        MemListener {
            net: self.inner.clone(),
            addr,
            queue,
        }
    }

    /// A dialer connecting into this network.
    pub fn dialer(&self) -> Dialer {
        Dialer::from_arc(Arc::new(self.clone()))
    }

    /// Bound per-direction in-flight bytes on streams created by
    /// *future* dials (existing streams keep their capacity). `None`
    /// restores the unbounded default. This is how backpressure tests
    /// model a slow reader with a finite socket buffer.
    pub fn set_stream_capacity(&self, capacity: Option<usize>) {
        *self.inner.stream_capacity.lock().unwrap() = capacity;
    }

    /// Drop a listener's registration so new dials are refused, as if
    /// the host vanished. Established streams are unaffected; sever
    /// those via [`Transport::shutdown`] on their endpoints.
    pub fn unbind(&self, addr: SocketAddr) {
        if let Some(q) = self.inner.listeners.lock().unwrap().remove(&addr) {
            let mut st = q.state.lock().unwrap();
            st.closed = true;
            q.cond.notify_all();
        }
    }
}

impl fmt::Debug for MemNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MemNet")
    }
}

impl Dial for MemNet {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        let addr: SocketAddr = endpoint
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable endpoint"))?;
        let queue = self
            .inner
            .listeners
            .lock()
            .unwrap()
            .get(&addr)
            .cloned()
            .ok_or_else(|| {
                // A refused connect costs the connect timeout's worth
                // of simulated time, like a TCP connect to a dead host.
                self.clock.sleep(timeout.min(Duration::from_millis(100)));
                io::Error::from(io::ErrorKind::ConnectionRefused)
            })?;
        let client_addr = {
            let mut port = self.inner.next_client_port.lock().unwrap();
            *port = port.wrapping_add(1).max(40_000);
            SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 77, 255, 254)), *port)
        };
        let capacity = *self.inner.stream_capacity.lock().unwrap();
        let (client_end, server_end) =
            MemStream::pair_with_capacity(client_addr, addr, self.clock.clone(), capacity);
        let mut st = queue.state.lock().unwrap();
        if st.closed {
            return Err(io::ErrorKind::ConnectionRefused.into());
        }
        st.pending.push_back((server_end, client_addr));
        queue.cond.notify_all();
        Ok(Box::new(client_end))
    }
}

/// A bound in-memory accept point. Dropping it unbinds the address.
pub struct MemListener {
    net: Arc<MemNetInner>,
    addr: SocketAddr,
    queue: Arc<AcceptQueue>,
}

impl MemListener {
    /// The fabricated bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl fmt::Debug for MemListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemListener({})", self.addr)
    }
}

impl Listener for MemListener {
    fn accept(&self) -> io::Result<(Box<dyn Transport>, SocketAddr)> {
        let mut st = self.queue.state.lock().unwrap();
        loop {
            if let Some((stream, peer)) = st.pending.pop_front() {
                return Ok((Box::new(stream), peer));
            }
            if st.closed {
                return Err(io::ErrorKind::NotConnected.into());
            }
            if st.woken {
                st.woken = false;
                return Err(io::ErrorKind::Interrupted.into());
            }
            st = self.queue.cond.wait(st).unwrap();
        }
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }
    fn wake(&self) {
        let mut st = self.queue.state.lock().unwrap();
        st.woken = true;
        self.queue.cond.notify_all();
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        // Addresses are never reused, so the entry (if an unbind left
        // one) is ours.
        self.net.listeners.lock().unwrap().remove(&self.addr);
        let mut st = self.queue.state.lock().unwrap();
        st.closed = true;
        self.queue.cond.notify_all();
    }
}

/// One direction of an in-memory stream: a byte queue (unbounded by
/// default, optionally capacity-bounded) with a writer-gone flag and
/// readiness watcher slots for the reactor seam.
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

/// A registered readiness watcher on one side of a pipe.
#[derive(Clone)]
struct Watch {
    token: Token,
    watcher: Watcher,
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
    /// `Some(n)`: writers block (or `WouldBlock`) once `buf` holds `n`
    /// bytes — how tests model a peer with a finite socket buffer.
    capacity: Option<usize>,
    /// Watcher interested in this pipe becoming readable (its reader).
    reader: Option<Watch>,
    /// Watcher interested in this pipe accepting bytes (its writer).
    writer: Option<Watch>,
}

impl Pipe {
    fn new(capacity: Option<usize>) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                capacity,
                ..PipeState::default()
            }),
            cond: Condvar::new(),
        })
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        let reader = st.reader.clone();
        let writer = st.writer.clone();
        drop(st);
        self.cond.notify_all();
        // Close is both "readable" (EOF is delivered by a read) and
        // "writable" (a blocked writer must wake to observe the break).
        if let Some(w) = reader {
            w.watcher.notify(w.token, true, false);
        }
        if let Some(w) = writer {
            w.watcher.notify(w.token, false, true);
        }
    }
}

/// One endpoint of an in-memory duplex stream. Cloning shares the
/// endpoint (as [`TcpStream::try_clone`] does); when every clone of an
/// endpoint is gone both directions close and the peer observes
/// end-of-stream.
pub struct MemStream {
    end: Arc<StreamEnd>,
}

struct StreamEnd {
    read_pipe: Arc<Pipe>,
    write_pipe: Arc<Pipe>,
    local: SocketAddr,
    peer: SocketAddr,
    clock: Clock,
    read_timeout: Mutex<Option<Duration>>,
    write_timeout: Mutex<Option<Duration>>,
    nonblocking: AtomicBool,
}

impl Drop for StreamEnd {
    fn drop(&mut self) {
        self.read_pipe.close();
        self.write_pipe.close();
    }
}

impl MemStream {
    /// A connected pair of endpoints (used by [`MemNet`]; public so
    /// tests can fabricate a lone duplex stream without a network).
    pub fn pair(a_addr: SocketAddr, b_addr: SocketAddr, clock: Clock) -> (MemStream, MemStream) {
        MemStream::pair_with_capacity(a_addr, b_addr, clock, None)
    }

    /// Like [`MemStream::pair`], but each direction holds at most
    /// `capacity` in-flight bytes — the in-memory analogue of a finite
    /// socket buffer, used to exercise backpressure paths
    /// deterministically.
    pub fn pair_with_capacity(
        a_addr: SocketAddr,
        b_addr: SocketAddr,
        clock: Clock,
        capacity: Option<usize>,
    ) -> (MemStream, MemStream) {
        let a_to_b = Pipe::new(capacity);
        let b_to_a = Pipe::new(capacity);
        let a = MemStream {
            end: Arc::new(StreamEnd {
                read_pipe: b_to_a.clone(),
                write_pipe: a_to_b.clone(),
                local: a_addr,
                peer: b_addr,
                clock: clock.clone(),
                read_timeout: Mutex::new(None),
                write_timeout: Mutex::new(None),
                nonblocking: AtomicBool::new(false),
            }),
        };
        let b = MemStream {
            end: Arc::new(StreamEnd {
                read_pipe: a_to_b,
                write_pipe: b_to_a,
                local: b_addr,
                peer: a_addr,
                clock,
                read_timeout: Mutex::new(None),
                write_timeout: Mutex::new(None),
                nonblocking: AtomicBool::new(false),
            }),
        };
        (a, b)
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let timeout = *self.end.read_timeout.lock().unwrap();
        // The wait budget is real time: a peer that is alive answers in
        // microseconds, so the timeout only matters when the peer has
        // genuinely stopped talking — and then expiring it mirrors what
        // SO_RCVTIMEO would do. Virtual clocks additionally get charged
        // the nominal timeout so simulated time advances like the real
        // wait would have.
        let budget = timeout.unwrap_or(MEM_DEADLOCK_CAP);
        let start = Instant::now();
        let mut st = self.end.read_pipe.state.lock().unwrap();
        loop {
            if !st.buf.is_empty() {
                let n = buf.len().min(st.buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("checked non-empty");
                }
                // Draining a bounded pipe frees writer room; tell a
                // registered writer-side watcher (and any blocked
                // writer thread) outside the lock.
                let writer = if st.capacity.is_some() {
                    st.writer.clone()
                } else {
                    None
                };
                drop(st);
                self.end.read_pipe.cond.notify_all();
                if let Some(w) = writer {
                    w.watcher.notify(w.token, false, true);
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            if self.end.nonblocking.load(Ordering::Relaxed) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let elapsed = start.elapsed();
            if elapsed >= budget {
                if timeout.is_some() {
                    // The real wait is over; a virtual clock still owes
                    // the simulated timeline the nominal timeout.
                    if self.end.clock.is_virtual() {
                        self.end.clock.sleep(budget);
                    }
                    return Err(io::ErrorKind::TimedOut.into());
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "in-memory read exceeded the deadlock cap",
                ));
            }
            let (next, _timed_out) = self
                .end
                .read_pipe
                .cond
                .wait_timeout(st, budget - elapsed)
                .unwrap();
            st = next;
        }
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[io::IoSlice::new(buf)])
    }

    /// Like a socket's `writev`: the buffers enter the pipe back to
    /// back under one lock hold, as many bytes as there is room for,
    /// and the reader is woken once.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        if bufs.iter().all(|b| b.is_empty()) {
            return Ok(0);
        }
        // Only a bounded pipe ever makes a writer wait; its budget is
        // real time, charged to a virtual clock on expiry, as a read's.
        let timeout = *self.end.write_timeout.lock().unwrap();
        let budget = timeout.unwrap_or(MEM_DEADLOCK_CAP);
        let start = Instant::now();
        let mut st = self.end.write_pipe.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let room = match st.capacity {
                Some(cap) => cap.saturating_sub(st.buf.len()),
                None => usize::MAX,
            };
            if room == 0 {
                if self.end.nonblocking.load(Ordering::Relaxed) {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let elapsed = start.elapsed();
                if elapsed >= budget {
                    if timeout.is_some() {
                        if self.end.clock.is_virtual() {
                            self.end.clock.sleep(budget);
                        }
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "in-memory write exceeded the deadlock cap",
                    ));
                }
                let (next, _timed_out) = self
                    .end
                    .write_pipe
                    .cond
                    .wait_timeout(st, budget - elapsed)
                    .unwrap();
                st = next;
                continue;
            }
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(room - n);
                st.buf.extend(buf[..take].iter().copied());
                n += take;
            }
            let reader = st.reader.clone();
            drop(st);
            self.end.write_pipe.cond.notify_all();
            if let Some(w) = reader {
                w.watcher.notify(w.token, true, false);
            }
            return Ok(n);
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for MemStream {
    fn try_clone(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(MemStream {
            end: self.end.clone(),
        }))
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self.end.read_timeout.lock().unwrap() = timeout;
        Ok(())
    }
    fn read_timeout(&self) -> io::Result<Option<Duration>> {
        Ok(*self.end.read_timeout.lock().unwrap())
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self.end.write_timeout.lock().unwrap() = timeout;
        Ok(())
    }
    fn peer_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.end.peer)
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.end.local)
    }
    fn shutdown(&self) -> io::Result<()> {
        self.end.read_pipe.close();
        self.end.write_pipe.close();
        Ok(())
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.end.nonblocking.store(nonblocking, Ordering::Relaxed);
        Ok(())
    }
    fn register_ready(&self, token: Token, watcher: Watcher) -> bool {
        let watch = Watch { token, watcher };
        // Our read side watches the read pipe for bytes; our write side
        // watches the write pipe for room. Capture current readiness
        // under the locks, then notify outside them so a watcher that
        // re-enters the poller cannot deadlock against us.
        let readable = {
            let mut st = self.end.read_pipe.state.lock().unwrap();
            st.reader = Some(watch.clone());
            !st.buf.is_empty() || st.closed
        };
        let writable = {
            let mut st = self.end.write_pipe.state.lock().unwrap();
            st.writer = Some(watch.clone());
            st.closed
                || match st.capacity {
                    Some(cap) => st.buf.len() < cap,
                    None => true,
                }
        };
        // The initial notification seeds the reactor's ready-set with
        // the state that existed before registration (bytes may already
        // be queued by a fast client).
        watch.watcher.notify(watch.token, readable, writable);
        true
    }
    fn deregister_ready(&self) {
        self.end.read_pipe.state.lock().unwrap().reader = None;
        self.end.write_pipe.state.lock().unwrap().writer = None;
    }
}

impl fmt::Debug for MemStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemStream({} -> {})", self.end.local, self.end.peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_dial_accept_round_trip() {
        let net = MemNet::new(Clock::wall());
        let listener = net.listen();
        let endpoint = listener.addr().to_string();
        let dialer = net.dialer();
        let server = std::thread::spawn(move || {
            let (mut t, peer) = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            t.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hello");
            t.write_all(b"world").unwrap();
            peer
        });
        let mut client = dialer.dial(&endpoint, Duration::from_secs(1)).unwrap();
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
        let peer = server.join().unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
    }

    #[test]
    fn dial_unknown_endpoint_is_refused() {
        let net = MemNet::new(Clock::fresh_virtual());
        let err = net
            .dialer()
            .dial("10.77.9.9:9094", Duration::from_secs(1))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn dropping_an_endpoint_gives_the_peer_eof() {
        let net = MemNet::new(Clock::wall());
        let listener = net.listen();
        let endpoint = listener.addr().to_string();
        let client = net
            .dialer()
            .dial(&endpoint, Duration::from_secs(1))
            .unwrap();
        let (mut served, _) = listener.accept().unwrap();
        drop(client);
        let mut buf = [0u8; 1];
        assert_eq!(served.read(&mut buf).unwrap(), 0, "clean EOF");
        assert_eq!(
            served.write_all(b"x").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn clones_share_the_stream_and_shutdown_severs_all() {
        let clock = Clock::fresh_virtual();
        let (a, mut b) = MemStream::pair(
            "10.77.0.1:1".parse().unwrap(),
            "10.77.0.2:2".parse().unwrap(),
            clock,
        );
        let mut a2 = Transport::try_clone(&a).unwrap();
        a2.write_all(b"via clone").unwrap();
        let mut buf = [0u8; 9];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"via clone");
        Transport::shutdown(&a).unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_timeout_expires_and_charges_virtual_time() {
        let clock = Clock::fresh_virtual();
        let (mut a, _b) = MemStream::pair(
            "10.77.0.1:1".parse().unwrap(),
            "10.77.0.2:2".parse().unwrap(),
            clock.clone(),
        );
        Transport::set_read_timeout(&a, Some(Duration::from_millis(10))).unwrap();
        let t0 = clock.now();
        let err = a.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(clock.elapsed_since(t0) >= Duration::from_millis(10));
    }

    #[test]
    fn write_timeout_expires_on_a_full_pipe() {
        let clock = Clock::fresh_virtual();
        let (mut a, _b) = MemStream::pair_with_capacity(
            "10.77.0.1:1".parse().unwrap(),
            "10.77.0.2:2".parse().unwrap(),
            clock.clone(),
            Some(4),
        );
        Transport::set_write_timeout(&a, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(a.write(b"abcdef").unwrap(), 4);
        let t0 = clock.now();
        let err = a.write(b"ef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(clock.elapsed_since(t0) >= Duration::from_millis(10));
    }

    #[test]
    fn unbind_refuses_new_dials() {
        let net = MemNet::new(Clock::fresh_virtual());
        let listener = net.listen();
        let addr = listener.addr();
        net.unbind(addr);
        let err = net
            .dialer()
            .dial(&addr.to_string(), Duration::from_secs(1))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn wake_unblocks_accept() {
        let net = MemNet::new(Clock::wall());
        let listener = Arc::new(net.listen());
        let l2 = listener.clone();
        let t = std::thread::spawn(move || l2.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        listener.wake();
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn tcp_dialer_refuses_dead_port() {
        // Bind then drop to find a port that is (very likely) closed.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let err = Dialer::tcp()
            .dial(&addr.to_string(), Duration::from_millis(500))
            .unwrap_err();
        assert!(
            err.kind() == io::ErrorKind::ConnectionRefused || err.kind() == io::ErrorKind::TimedOut
        );
    }
}
